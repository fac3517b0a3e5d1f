//! Per-run stall attribution on a shared harness.
//!
//! [`measure`] is how the paper matrix (and the perfbench replay of
//! it) turns the probe's running stall totals into one
//! [`StallBreakdown`] per kernel run.

use fblas_metrics::StallBreakdown;
use fblas_sim::Harness;

/// Run one kernel through `harness` and attribute the stalls it caused.
///
/// Snapshots the probe's aggregated per-cause stall totals around the
/// run, so callers that share one harness across many kernels (a pool
/// worker runs job after job) still get per-run [`StallBreakdown`]s.
pub fn measure<T>(
    harness: &mut Harness,
    run: impl FnOnce(&mut Harness) -> T,
) -> (T, StallBreakdown) {
    let before = harness.probe().stall_totals();
    let out = run(harness);
    let after = harness.probe().stall_totals();
    (out, StallBreakdown::from_delta(before, after))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_core::dot::{DotParams, DotProductDesign};

    #[test]
    fn measure_attributes_stalls_per_run() {
        let mut h = Harness::new();
        let design = DotProductDesign::standalone(DotParams::table3(), 170.0);
        let u = crate::synth_int(1, 128, 8);
        let v = crate::synth_int(2, 128, 8);
        let (first, s1) = measure(&mut h, |h| design.run_in(h, &u, &v));
        let (second, s2) = measure(&mut h, |h| design.run_in(h, &u, &v));
        // Identical runs through one shared harness yield identical
        // per-run deltas (the snapshots isolate them).
        assert_eq!(first.report, second.report);
        assert_eq!(s1, s2);
    }
}
