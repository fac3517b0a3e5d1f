//! The multi-FPGA scaling store: `SCALE_<n>.json` trajectory points.
//!
//! `observatory scale` runs the fabric campaign (every shipped shard
//! plan of the sharded MM and `MvM` designs) and lands one
//! [`ScaleRecord`] per plan: measured makespan, speedup and efficiency
//! against the campaign's own one-FPGA baseline row, link traffic and
//! stall attribution, and the §6.4 projection
//! (`fblas_system::projection::scaled_sustained_gflops`) the
//! measurement is gated against. The store is byte-deterministic — the
//! campaign is worker-count- and backend-invariant, and the canonical
//! JSON renderer has one spelling per value — so CI compares
//! regenerated bytes with `cmp` and gates drift with [`diff_scale`].
//!
//! The divergence contract mirrors the PR-6 analyzer-bound contract:
//! a measured rate *above* the model is a hard error (the simulation
//! claims super-linear scaling the installation cannot deliver), and
//! divergence beyond the per-kernel [`SCALE_TOLERANCES`] band is a
//! warning that the model and the simulated fabric have drifted apart.

use crate::json::{Json, Members};
use crate::report::splice_between;
use crate::store::{diff_exact, Envelope, ExactDiff, Row, Store};

/// Version stamp for `SCALE_*.json` documents.
pub const SCALE_SCHEMA_VERSION: u64 = 1;

/// Slack on the measured-vs-modeled comparison: projection and
/// measurement take different arithmetic routes to the same quantity,
/// so exact float equality is one ULP too strict.
pub const SCALE_SOUNDNESS_EPS: f64 = 1e-9;

/// Committed per-kernel divergence tolerance: how far *below* the
/// §6.4 projection a measured rate may fall before the gate warns.
/// The projection assumes perfectly overlapped communication, so real
/// schedules always fall short; 40% mirrors the analyzer's
/// bound-divergence contract.
pub const SCALE_TOLERANCES: &[(&str, f64)] =
    &[("mm/linear", 0.40), ("mvm/row", 0.40), ("mvm/col", 0.40)];

/// The divergence tolerance for `kernel` (committed table lookup).
pub fn scale_tolerance(kernel: &str) -> Option<f64> {
    SCALE_TOLERANCES
        .iter()
        .find(|&&(k, _)| k == kernel)
        .map(|&(_, t)| t)
}

/// Begin marker of the scaling section in EXPERIMENTS.md.
pub const SCALE_SECTION_BEGIN: &str = "<!-- observatory:scale:begin -->";
/// End marker of the scaling section in EXPERIMENTS.md.
pub const SCALE_SECTION_END: &str = "<!-- observatory:scale:end -->";

/// One shard plan's measured scaling point.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleRecord {
    /// Kernel family, e.g. `mm/linear`, `mvm/row`, `mvm/col`.
    pub kernel: String,
    /// FPGAs the kernel was sharded across.
    pub shards: u64,
    /// Chassis those FPGAs were spread over.
    pub chassis: u64,
    /// Problem order (the matrix is `n × n`).
    pub n: u64,
    /// PEs / multiplier lanes per FPGA.
    pub k: u64,
    /// MM block edge (0 for `MvM`, which does not block).
    pub m: u64,
    /// Fabric makespan, cycles.
    pub cycles: u64,
    /// Floating-point operations across all shards.
    pub flops: u64,
    /// Operand words streamed in (broadcast duplication included).
    pub words_in: u64,
    /// Result words returned.
    pub words_out: u64,
    /// FPU-busy cycles of the busiest shard.
    pub busy_cycles: u64,
    /// Shard-cycles stalled waiting on operand delivery.
    pub stalls_starved: u64,
    /// Shard-cycles stalled holding results against a full return hop.
    pub stalls_backpressured: u64,
    /// Words carried across all fabric links.
    pub link_words_forwarded: u64,
    /// Link-cycles with traffic left queued after granting.
    pub link_congestion_cycles: u64,
    /// Peak queued backlog on any single link, words.
    pub link_max_backlog_words: u64,
    /// Compute clock, MHz.
    pub clock_mhz: f64,
    /// Measured sustained rate, MFLOPS at `clock_mhz`.
    pub sustained_mflops: f64,
    /// The campaign's one-FPGA baseline makespan for this kernel.
    pub baseline_cycles: u64,
    /// Measured speedup over the baseline row.
    pub speedup: f64,
    /// Parallel efficiency: speedup / shards.
    pub efficiency: f64,
    /// §6.4 projection for this width, MFLOPS.
    pub modeled_mflops: f64,
    /// Fractional shortfall below the model: `(model − measured) /
    /// model`. Negative would mean super-linear scaling — a gate
    /// error.
    pub divergence: f64,
    /// Whether measured ≤ modeled (with [`SCALE_SOUNDNESS_EPS`] slack).
    pub within_bound: bool,
}

impl ScaleRecord {
    /// Row identity within a set: kernel at a shard width.
    pub fn cell(&self) -> String {
        format!("{}/s{}", self.kernel, self.shards)
    }
}

impl Row for ScaleRecord {
    const ENVELOPE: Envelope = Envelope {
        kind: "scale",
        version: SCALE_SCHEMA_VERSION,
    };

    fn identity(&self) -> String {
        self.cell()
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .with("kernel", Json::Str(self.kernel.clone()))
            .with("shards", Json::Num(self.shards as f64))
            .with("chassis", Json::Num(self.chassis as f64))
            .with("n", Json::Num(self.n as f64))
            .with("k", Json::Num(self.k as f64))
            .with("m", Json::Num(self.m as f64))
            .with("cycles", Json::Num(self.cycles as f64))
            .with("flops", Json::Num(self.flops as f64))
            .with("words_in", Json::Num(self.words_in as f64))
            .with("words_out", Json::Num(self.words_out as f64))
            .with("busy_cycles", Json::Num(self.busy_cycles as f64))
            .with("stalls_starved", Json::Num(self.stalls_starved as f64))
            .with(
                "stalls_backpressured",
                Json::Num(self.stalls_backpressured as f64),
            )
            .with(
                "link_words_forwarded",
                Json::Num(self.link_words_forwarded as f64),
            )
            .with(
                "link_congestion_cycles",
                Json::Num(self.link_congestion_cycles as f64),
            )
            .with(
                "link_max_backlog_words",
                Json::Num(self.link_max_backlog_words as f64),
            )
            .with("clock_mhz", Json::Num(self.clock_mhz))
            .with("sustained_mflops", Json::Num(self.sustained_mflops))
            .with("baseline_cycles", Json::Num(self.baseline_cycles as f64))
            .with("speedup", Json::Num(self.speedup))
            .with("efficiency", Json::Num(self.efficiency))
            .with("modeled_mflops", Json::Num(self.modeled_mflops))
            .with("divergence", Json::Num(self.divergence))
            .with("within_bound", Json::Bool(self.within_bound))
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let kernel = Members::new(json, "record").str("kernel")?.to_string();
        let m = Members::new(json, &kernel);
        Ok(Self {
            shards: m.u64("shards")?,
            chassis: m.u64("chassis")?,
            n: m.u64("n")?,
            k: m.u64("k")?,
            m: m.u64("m")?,
            cycles: m.u64("cycles")?,
            flops: m.u64("flops")?,
            words_in: m.u64("words_in")?,
            words_out: m.u64("words_out")?,
            busy_cycles: m.u64("busy_cycles")?,
            stalls_starved: m.u64("stalls_starved")?,
            stalls_backpressured: m.u64("stalls_backpressured")?,
            link_words_forwarded: m.u64("link_words_forwarded")?,
            link_congestion_cycles: m.u64("link_congestion_cycles")?,
            link_max_backlog_words: m.u64("link_max_backlog_words")?,
            clock_mhz: m.f64("clock_mhz")?,
            sustained_mflops: m.f64("sustained_mflops")?,
            baseline_cycles: m.u64("baseline_cycles")?,
            speedup: m.f64("speedup")?,
            efficiency: m.f64("efficiency")?,
            modeled_mflops: m.f64("modeled_mflops")?,
            divergence: m.f64("divergence")?,
            within_bound: m.bool("within_bound")?,
            kernel,
        })
    }
}

/// An ordered collection of scaling points from one campaign, in
/// campaign order (kernel-major, width ascending).
pub type ScaleSet = Store<ScaleRecord>;

/// Exact gate of a regenerated campaign against a committed baseline
/// ([`diff_exact`]): every baseline cell must exist with identical
/// cycles, counters and gate verdicts; new widths are informational.
pub fn diff_scale(current: &ScaleSet, baseline: &ScaleSet) -> ExactDiff {
    diff_exact(current, baseline, "scale", |cur, base| {
        let mut causes = Vec::new();
        if cur.cycles != base.cycles {
            causes.push(format!("cycles {} != baseline {}", cur.cycles, base.cycles));
        }
        if cur.flops != base.flops {
            causes.push(format!("flops {} != baseline {}", cur.flops, base.flops));
        }
        if cur.speedup != base.speedup {
            causes.push(format!(
                "speedup {} != baseline {}",
                cur.speedup, base.speedup
            ));
        }
        if cur.within_bound != base.within_bound {
            causes.push(format!(
                "bound verdict flipped ({} -> {})",
                base.within_bound, cur.within_bound
            ));
        }
        causes
    })
}

/// Render the scaling scoreboard as a markdown table.
pub fn render_scale_table(set: &ScaleSet) -> String {
    let mut out = String::new();
    out.push_str(
        "| kernel | FPGAs | chassis | n | cycles | MFLOPS | speedup | efficiency | model MFLOPS | divergence | in bound |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|\n");
    for r in &set.records {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {:.1} | {:.3} | {:.3} | {:.1} | {:.1}% | {} |\n",
            r.kernel,
            r.shards,
            r.chassis,
            r.n,
            r.cycles,
            r.sustained_mflops,
            r.speedup,
            r.efficiency,
            r.modeled_mflops,
            r.divergence * 100.0,
            if r.within_bound { "yes" } else { "**no**" }
        ));
    }
    out
}

/// Build the full scaling section (without the markers).
pub fn render_scale_section(set: &ScaleSet) -> String {
    let mut out = String::new();
    out.push_str("## Observatory — multi-FPGA scaling\n\n");
    out.push_str(
        "Generated by `cargo run --release -p fblas-bench --bin observatory -- scale`.\n\
         Do not edit between the markers; re-run the command instead.\n\n",
    );
    out.push_str(&format!(
        "{} points. Each row shards a kernel across the simulated XD1 fabric \
         (RocketIO ring inside a chassis, RapidArray between chassis) and is \
         gated against the §6.4 projection: measured sustained MFLOPS must \
         not exceed the model, and divergence beyond the committed per-kernel \
         tolerance is flagged. Speedup is measured against the campaign's own \
         one-FPGA row, which is bit-identical to the unsharded design.\n\n",
        set.records.len()
    ));
    out.push_str(&render_scale_table(set));
    out
}

/// Splice the scaling section into a document between the markers.
pub fn splice_scale_section(document: &str, section: &str) -> String {
    splice_between(document, SCALE_SECTION_BEGIN, SCALE_SECTION_END, section)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A two-point ladder: an exact baseline row and a 4-FPGA row at
    /// 90% efficiency.
    pub fn sample_set() -> ScaleSet {
        let base = ScaleRecord {
            kernel: "mm/linear".to_string(),
            shards: 1,
            chassis: 1,
            n: 384,
            k: 8,
            m: 64,
            cycles: 10_000_000,
            flops: 113_246_208,
            words_in: 2_359_296,
            words_out: 147_456,
            busy_cycles: 7_077_888,
            stalls_starved: 0,
            stalls_backpressured: 0,
            link_words_forwarded: 0,
            link_congestion_cycles: 0,
            link_max_backlog_words: 0,
            clock_mhz: 130.0,
            sustained_mflops: 1472.2,
            baseline_cycles: 10_000_000,
            speedup: 1.0,
            efficiency: 1.0,
            modeled_mflops: 1472.2,
            divergence: 0.0,
            within_bound: true,
        };
        let mut wide = base.clone();
        wide.shards = 4;
        wide.cycles = 2_777_778;
        wide.sustained_mflops = 5_299.9;
        wide.speedup = 3.6;
        wide.efficiency = 0.9;
        wide.modeled_mflops = 5_888.8;
        wide.divergence = 0.1;
        wide.stalls_starved = 1_200;
        wide.link_words_forwarded = 1_769_472;
        let mut set = ScaleSet::new("unit-test");
        set.records = vec![base, wide];
        set
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::sample_set;
    use super::*;

    #[test]
    fn round_trips_through_canonical_json() {
        let set = sample_set();
        let text = set.to_json_string();
        let back = ScaleSet::from_json_str(&text).unwrap();
        assert_eq!(back, set);
        // Canonical: serializing the parse reproduces the bytes.
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn serialization_is_byte_deterministic() {
        let a = sample_set().to_json_string();
        let b = sample_set().to_json_string();
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"schema_version\": 1"));
    }

    #[test]
    fn schema_version_bump_is_rejected() {
        let text = sample_set().to_json_string().replacen(
            &format!("\"schema_version\": {SCALE_SCHEMA_VERSION}"),
            &format!("\"schema_version\": {}", SCALE_SCHEMA_VERSION + 1),
            1,
        );
        let err = ScaleSet::from_json_str(&text).unwrap_err();
        assert!(err.contains("regenerate the store"), "{err}");
    }

    #[test]
    fn diff_passes_on_identity_and_fails_on_drift() {
        let set = sample_set();
        let diff = diff_scale(&set, &set);
        assert!(diff.pass());
        assert!(diff.render().contains("scale diff: PASS"));

        let mut drifted = set.clone();
        drifted.records[1].cycles += 1;
        let diff = diff_scale(&drifted, &set);
        assert!(!diff.pass());
        assert!(diff.render().contains("DRIFT"), "{}", diff.render());
        assert!(diff.render().contains("cycles"));
    }

    #[test]
    fn diff_flags_missing_cells_but_not_new_ones() {
        let set = sample_set();
        let mut shrunk = set.clone();
        shrunk.records.pop();
        let diff = diff_scale(&shrunk, &set);
        assert_eq!(diff.failures, 1);
        assert!(diff.render().contains("MISSING"));
        // New cells in the regenerated set are informational.
        let diff = diff_scale(&set, &shrunk);
        assert!(diff.pass());
        assert!(diff.render().contains("new cell"));
    }

    #[test]
    fn tolerance_table_covers_every_campaign_kernel() {
        for kernel in ["mm/linear", "mvm/row", "mvm/col"] {
            assert!(scale_tolerance(kernel).is_some(), "{kernel}");
        }
        assert_eq!(scale_tolerance("dot/tree"), None);
    }

    #[test]
    fn scale_section_renders_and_splices() {
        let set = sample_set();
        let section = render_scale_section(&set);
        assert!(section.contains("multi-FPGA scaling"));
        assert!(section.contains("| mm/linear | 4 |"));
        let doc = "# Experiments\n";
        let spliced = splice_scale_section(doc, &section);
        assert!(spliced.contains(SCALE_SECTION_BEGIN));
        assert!(spliced.contains(SCALE_SECTION_END));
        // Re-splicing replaces, not duplicates.
        let again = splice_scale_section(&spliced, &section);
        assert_eq!(again.matches(SCALE_SECTION_BEGIN).count(), 1);
    }
}
