//! Static analysis for the FPGA BLAS workspace.
//!
//! Eight analyses live here:
//!
//! * [`drc`] — a **design-rule checker** that proves the paper's
//!   feasibility bounds (area, BRAM, SRAM, bandwidth, hazard and schedule
//!   legality) for a design point *before* any cycle is simulated, and
//!   computes cycle-count lower bounds the simulation must not beat.
//! * [`graph`] — a **channel-graph analyzer** over the
//!   [`fblas_sim::Topology`] each design exports: a deadlock-freedom
//!   proof (every FIFO cycle can hold its in-flight token demand), a
//!   sound steady-state throughput bound cross-validated against the
//!   committed BENCH records, and composed-bandwidth checks on chained
//!   topologies.
//! * [`lint`] — a **softfloat-purity source lint**: a dependency-free
//!   token-level scanner that rejects native `f64` arithmetic in the
//!   datapath crates, where every floating-point operation must go
//!   through the bit-accurate [`fblas_fpu::softfloat`] routines.
//! * [`fastpath`] — a **fast-path parity coverage rule**: every design
//!   overriding `Design::fast_forward` must be claimed by a randomized
//!   backend-parity test, so an accelerated replay can never ship
//!   without a bit-equality pin against cycle stepping.
//! * [`telemetry`] — a **telemetry-metric-registry rule**: every
//!   `.component("…")` id the datapath designs emit must be declared
//!   with a docstring in [`fblas_telemetry::METRICS`], and every
//!   declared id must still be emitted, so no telemetry metric is ever
//!   undocumented or stale.
//! * [`parity`] — a **paper-parity coverage rule** proving that every
//!   row of the shared [`fblas_metrics::PAPER_TOLERANCES`] table is
//!   carried by exactly one record of the committed `BENCH_0001.json`
//!   and that no record carries a stale id, so a paper figure can never
//!   silently go unchecked.
//! * [`serve`] — **serving-store conservation rules**: every tenant in
//!   every committed `SERVE_*.json` cell must balance its books
//!   (arrivals = completed + rejected + in-flight), latency digests
//!   must be monotone and honest about emptiness, and every
//!   batched/unbatched cell pair must actually demonstrate the staging
//!   amortization the front end claims.
//! * [`fabric`] — **fabric-link-budget and scaling-store rules**: every
//!   shipped multi-FPGA shard plan's steady-state traffic must fit the
//!   modeled RocketIO/RapidArray link capacities on every hop, and every
//!   committed `SCALE_*.json` row must stay at or below its §6.4
//!   linear-scaling projection with consistent speedup/efficiency
//!   arithmetic and in-tolerance divergence.
//!
//! The shared [`source`] module supplies the comment-/string-stripping
//! and tree-walking primitives the three source-level rules (`lint`,
//! `fastpath`, `telemetry`) build on. Determinism, thread containment
//! and fault-hook purity are not scanned here: the workspace
//! `clippy.toml` makes them compiler-checked `disallowed-types` and
//! `disallowed-methods` rules.
//!
//! All are exposed as libraries (used by the test suite) and through the
//! `drc` and `lint` binaries (used by CI).

#![forbid(unsafe_code)]

pub mod drc;
pub mod fabric;
pub mod fastpath;
pub mod graph;
pub mod lint;
pub mod parity;
pub mod serve;
pub mod source;
pub mod telemetry;

pub use drc::{
    check, infeasible_k10_with_rt_core, min_cycles, shipped_design_points, DesignPoint, Diagnostic,
    Kernel, Platform, Report, Severity,
};
pub use fabric::{check_scale_set, fabric_link_budget_report, fabric_link_budget_report_with_spec};
pub use fastpath::{check_fast_paths, fast_path_report, FAST_PATH_CLAIMS};
pub use graph::{
    analyze_topology, bench_cross_validation_report, shipped_topologies, topology_report,
    CycleProof, ThroughputBound,
};
pub use lint::{scan_source, scan_sources, scan_tree, LintHit};
pub use parity::{check_records, coverage_report};
pub use serve::check_serve_set;
pub use telemetry::{check_sites, metric_registry_report, scan_metric_sites, MetricSite};
