//! The central metric registry: every probe component id the datapath
//! designs emit, with a one-line docstring.
//!
//! Telemetry series and Chrome traces key their per-component metrics by
//! the string a design passed to
//! [`Probe::component`](fblas_sim::Probe::component). An id that exists
//! only in source is undocumented; an id that exists only here is stale.
//! The `fblas-check` `telemetry-metric-registry` rule
//! scans `crates/core`, `crates/fabric` and `crates/sparse` for `.component("…")`
//! literals and proves both directions: every emitted id is declared
//! below, and every declaration is still emitted.
//!
//! Kept sorted by id; the registry test enforces order and uniqueness.
//! The docstrings feed the rule's per-id info diagnostics.

/// `(component id, docstring)` for every metric id the shipped designs
/// emit.
pub const METRICS: &[(&str, &str)] = &[
    (
        "asum/front-end",
        "asum adder-tree front end: one mark per k-wide group entering the tree",
    ),
    (
        "asum/reducer",
        "asum reduction circuit accumulating tree outputs into the scalar result",
    ),
    (
        "asum/reduction-buffer",
        "asum reduction-circuit buffer occupancy (words)",
    ),
    (
        "asum/x-stream",
        "asum x input stream bandwidth (words per cycle)",
    ),
    (
        "axpy/lanes",
        "axpy multiply-add lanes: one mark per k-wide group issued",
    ),
    (
        "axpy/out-stream",
        "axpy result stream bandwidth (words per cycle)",
    ),
    (
        "axpy/pipeline",
        "axpy arithmetic pipeline occupancy (groups in flight)",
    ),
    (
        "axpy/x-stream",
        "axpy x input stream bandwidth (words per cycle)",
    ),
    (
        "axpy/y-stream",
        "axpy y input stream bandwidth (words per cycle)",
    ),
    (
        "col-mvm/a-stream",
        "column-major MVM matrix stream bandwidth (words per cycle)",
    ),
    (
        "col-mvm/front-end",
        "column-major MVM front end: one mark per k-wide column chunk issued",
    ),
    (
        "col-mvm/hazard-window",
        "column-major MVM accumulator hazard window occupancy (live y-slots)",
    ),
    (
        "col-mvm/lanes",
        "column-major MVM MAC lanes: one mark per in-flight MAC batch",
    ),
    (
        "dot/backlog",
        "dot product feed backlog FIFO occupancy (groups waiting on the reducer)",
    ),
    (
        "dot/front-end",
        "dot product multiplier/adder tree front end: one mark per k-wide group",
    ),
    (
        "dot/reducer",
        "dot product reduction circuit accumulating tree outputs",
    ),
    (
        "dot/reduction-buffer",
        "dot product reduction-circuit buffer occupancy (words)",
    ),
    (
        "dot/u-stream",
        "dot product u input stream bandwidth (words per cycle)",
    ),
    (
        "dot/v-stream",
        "dot product v input stream bandwidth (words per cycle)",
    ),
    (
        "fabric/pe-fleet",
        "multi-FPGA fabric PE fleet: one mark per cycle any shard issues MACs",
    ),
    (
        "fabric/ring",
        "multi-FPGA fabric interconnect: one mark per cycle any link moves words",
    ),
    (
        "mm/accumulators",
        "linear-array MM accumulator writes: one mark per C-element update",
    ),
    (
        "mm/add-pipe",
        "linear-array MM accumulation-pipe occupancy (updates in flight)",
    ),
    (
        "mm/pe-array",
        "linear-array MM PE array: one mark per cycle the PEs issue MACs",
    ),
    (
        "reduce/buffer",
        "reduction-circuit buffer occupancy (words) under the §4.3 workloads",
    ),
    (
        "reduce/circuit",
        "reduction circuit under the §4.3 workloads: one mark per accepted input",
    ),
    (
        "row-mvm/a-stream",
        "row-major MVM matrix stream bandwidth (words per cycle)",
    ),
    (
        "row-mvm/backlog",
        "row-major MVM feed backlog FIFO occupancy (groups waiting on the reducer)",
    ),
    (
        "row-mvm/front-end",
        "row-major MVM tree front end: one mark per k-wide group entering the tree",
    ),
    (
        "row-mvm/reducer",
        "row-major MVM reduction circuit accumulating per-row tree outputs",
    ),
    (
        "row-mvm/reduction-buffer",
        "row-major MVM reduction-circuit buffer occupancy (words)",
    ),
    (
        "scal/lanes",
        "scal multiplier lanes: one mark per k-wide group issued",
    ),
    (
        "scal/out-stream",
        "scal result stream bandwidth (words per cycle)",
    ),
    (
        "scal/pipeline",
        "scal multiplier pipeline occupancy (groups in flight)",
    ),
    (
        "scal/x-stream",
        "scal x input stream bandwidth (words per cycle)",
    ),
    (
        "spmv/backlog",
        "SpMV feed backlog FIFO occupancy (tree outputs waiting on the reducer)",
    ),
    (
        "spmv/entry-stream",
        "SpMV nonzero-entry stream bandwidth (entries per cycle)",
    ),
    (
        "spmv/front-end",
        "SpMV tree front end: one mark per group of nonzeros entering the tree",
    ),
    (
        "spmv/reducer",
        "SpMV reduction circuit accumulating per-row partial sums",
    ),
    (
        "spmv/reduction-buffer",
        "SpMV reduction-circuit buffer occupancy (words)",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in METRICS.windows(2) {
            assert!(pair[0].0 < pair[1].0, "{} !< {}", pair[0].0, pair[1].0);
        }
    }

    #[test]
    fn every_entry_has_a_docstring() {
        for &(id, doc) in METRICS {
            assert!(!doc.is_empty(), "{id} has an empty docstring");
            assert!(
                id.contains('/'),
                "{id}: ids are design-scoped (design/component)"
            );
        }
    }
}
