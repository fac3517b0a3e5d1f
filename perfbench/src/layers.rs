//! The per-layer metrics of the traced pass, by name and unit.
//!
//! `BENCHMARK.json` lists the same names in the same order (a unit test
//! keeps the two in step). Every traced run reports every name; a layer
//! the workload never enters reads 0, which `predictions.json` marks as
//! "no change expected" for that workload.

use std::collections::BTreeMap;

/// `(name, unit)` of every per-layer metric, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fpu.sf_add_ns", "ns"),
    ("fpu.sf_add_ns.min", "ns"),
    ("fpu.sf_add_ns.max", "ns"),
    ("fpu.sf_mul_ns", "ns"),
    ("fpu.sf_mul_ns.min", "ns"),
    ("fpu.sf_mul_ns.max", "ns"),
    ("sim.fifo_push_pop_ns", "ns"),
    ("sim.fifo_push_pop_ns.min", "ns"),
    ("sim.fifo_push_pop_ns.max", "ns"),
    ("sim.delay_line_step_ns", "ns"),
    ("sim.delay_line_step_ns.min", "ns"),
    ("sim.delay_line_step_ns.max", "ns"),
    ("sim.throttle_tick_ns", "ns"),
    ("sim.throttle_tick_ns.min", "ns"),
    ("sim.throttle_tick_ns.max", "ns"),
    ("sim.stepped_cycles", "count"),
    ("sim.ns_per_stepped_cycle", "ns"),
    ("sim.telemetry_overhead_ratio", "ratio"),
    ("core.level1_s", "s"),
    ("core.mvm_row_s", "s"),
    ("core.mvm_col_s", "s"),
    ("core.mvm_xd1_l2_s", "s"),
    ("core.mm_linear_s", "s"),
    ("core.reduce_s", "s"),
    ("sparse.spmv_s", "s"),
    ("core.mm_hierarchical_s", "s"),
    ("core.mm_block_ms", "ms"),
    ("core.mm_block_ms.min", "ms"),
    ("core.mm_block_ms.max", "ms"),
    ("core.mm_value_pass_s", "s"),
    ("fabric.mm_rung_s.s1", "s"),
    ("fabric.mm_rung_s.s2", "s"),
    ("fabric.mm_rung_s.s4", "s"),
    ("fabric.mm_rung_s.s6", "s"),
    ("fabric.mm_rung_s.s12", "s"),
    ("fabric.mm_schedule_s.s1", "s"),
    ("fabric.mm_schedule_s.s2", "s"),
    ("fabric.mm_schedule_s.s4", "s"),
    ("fabric.mm_schedule_s.s6", "s"),
    ("fabric.mm_schedule_s.s12", "s"),
    ("fabric.mvm_ladder_s", "s"),
    ("sw.gemm_ns_per_mac", "ns"),
    ("sw.gemm_ns_per_mac.min", "ns"),
    ("sw.gemm_ns_per_mac.max", "ns"),
    ("sw.gemv_ns_per_mac", "ns"),
    ("sw.gemv_ns_per_mac.min", "ns"),
    ("sw.gemv_ns_per_mac.max", "ns"),
    ("serve.calibrate_s", "s"),
    ("serve.cell_s", "s"),
    ("serve.engine_s", "s"),
    ("serve.sim_requests_per_s", "1/s"),
    ("faults.trial_ms", "ms"),
    ("faults.trial_ms.max", "ms"),
    ("metrics.parse_s", "s"),
    ("metrics.render_s", "s"),
    ("metrics.render_ns_per_byte", "ns"),
    ("telemetry.render_s", "s"),
    ("check.gate_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.unattributed_ratio", "ratio"),
];

/// Metrics derived by subtraction rather than measured by one span;
/// the report labels them.
pub const DERIVED: &[&str] = &[
    "fabric.mm_schedule_s.s1",
    "fabric.mm_schedule_s.s2",
    "fabric.mm_schedule_s.s4",
    "fabric.mm_schedule_s.s6",
    "fabric.mm_schedule_s.s12",
    "serve.engine_s",
];

/// Per-layer values collected by a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Set `name`, which must be a declared per-layer metric.
    ///
    /// # Panics
    /// Panics on an undeclared name (a bug in this benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        self.values.insert(key, value);
    }

    /// Set `<name>`, `<name>.min` and `<name>.max` from a spread.
    pub fn set_spread(&mut self, name: &str, spread: crate::stats::Spread) {
        self.set(name, spread.median);
        self.set(&format!("{name}.min"), spread.min);
        self.set(&format!("{name}.max"), spread.max);
    }

    /// Every declared metric with its unit, 0 where nothing was set.
    pub fn all(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, self.values.get(n).copied().unwrap_or(0.0)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_root(file: &str) -> String {
        std::fs::read_to_string(format!("{}/../{file}", env!("CARGO_MANIFEST_DIR")))
            .expect("file present")
    }

    #[test]
    fn benchmark_json_declares_exactly_these_layers_in_order() {
        let doc = read_root("BENCHMARK.json");
        let per_layer = &doc[doc.find("\"per_layer\"").expect("per_layer key")..];
        let mut rest = per_layer;
        let mut names = Vec::new();
        while let Some(i) = rest.find("\"name\": \"") {
            rest = &rest[i + 9..];
            let end = rest.find('"').expect("closing quote");
            let name = &rest[..end];
            let unit_at = rest.find("\"unit\": \"").expect("unit") + 9;
            let unit = &rest[unit_at..unit_at + rest[unit_at..].find('"').expect("quote")];
            names.push((name.to_string(), unit.to_string()));
            rest = &rest[end..];
        }
        let want: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(names, want);
    }

    #[test]
    fn predictions_cover_every_layer_metric() {
        let doc = read_root("perfbench/predictions.json");
        for (name, _) in PER_LAYER {
            let base = name
                .trim_end_matches(".min")
                .trim_end_matches(".max")
                .to_string();
            assert!(
                doc.contains(&format!("\"{base}\"")),
                "{name} has no prediction"
            );
        }
    }

    #[test]
    fn derived_metrics_are_declared() {
        for d in DERIVED {
            assert!(PER_LAYER.iter().any(|(n, _)| n == d), "{d}");
        }
    }
}
