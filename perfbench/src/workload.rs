//! The interface every campaign workload implements.

use crate::check::Tally;
use crate::layers::Layers;
use crate::span::Tracer;

/// One campaign workload, already set up (baselines parsed, inputs and
/// plans built, harness constructed).
pub trait Workload {
    /// What one iteration produced, kept for the traced replay.
    type Out;

    /// One iteration: generate the records, render them and gate them,
    /// as `observatory <cmd> --diff` does. Always the committed inputs,
    /// so every iteration is byte-checked and times the same work.
    fn iteration(&self) -> (Self::Out, Tally);

    /// Untimed: run the workload's public entry points on inputs drawn
    /// from `seed` and check the results their own way. Fixed-input
    /// workloads check nothing here.
    fn seeded_check(&self, _seed: u64) -> Tally {
        Tally::default()
    }

    /// How much an iteration slows per unit slowdown of the host speed
    /// probe: the log-log slope of iteration time over probe time,
    /// measured on a contended host. Timed iterations are scaled by the
    /// probe raised to this power.
    fn host_sensitivity(&self) -> f64 {
        1.0
    }

    /// Simulated cycles the iteration's records account for.
    fn sim_cycles(&self, out: &Self::Out) -> u64;

    /// Bytes the `metrics.render` span renders.
    fn rendered_bytes(&self, out: &Self::Out) -> usize;

    /// A one-byte change to each committed store this workload checks,
    /// fed through the workload's own gate, must fail the gate and be
    /// reported as the changed record.
    fn self_test(&self) -> Result<(), String>;

    /// Replay the iteration from outside under the caller's root span,
    /// with a span around every call into a crate. Fails an operation
    /// whose simulated cycles drift from the committed record.
    fn replay(&self, out: &Self::Out, t: &mut Tracer) -> Tally;

    /// Turn the replay's spans into this workload's per-layer metrics
    /// (the parse, render and gate spans every workload shares are
    /// read by the caller).
    fn layers(&self, out: &Self::Out, t: &Tracer, layers: &mut Layers);

    /// Per-layer measurements made outside the traced iteration.
    fn extra_layers(&self, _layers: &mut Layers) {}
}
