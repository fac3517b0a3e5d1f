//! Time-resolved telemetry artifacts for the SC'05 reproduction.
//!
//! The simulation layer ([`fblas_sim`]) seals one windowed
//! [`TelemSeries`](fblas_sim::TelemSeries) per harness run: busy cycles,
//! per-component FP-issue marks, stall-cause mixes, FIFO-occupancy sums
//! and completion-latency histograms per fixed cycle window. This crate
//! turns those in-memory series into persistent, reviewable artifacts:
//!
//! * [`store`] — the schema-versioned `TELEM_<n>.json` trajectory store,
//!   the telemetry analogue of `BENCH_<n>.json`: one run-length-encoded
//!   [`TelemRun`] per paper-matrix entry, byte-deterministic at any
//!   `--jobs` count and under every execution backend. It supplies only
//!   its `window` member and run encoding; envelope, load/save and
//!   trajectory naming are the shared `fblas_metrics::store` mechanism.
//! * [`phases`] — fill/steady/drain phase segmentation of a run's busy
//!   series, plus the paper's steady-state efficiency model: streaming
//!   kernels sustain `n/(n+α)` of peak (§4.2) and the blocked multiplier
//!   `m²/(m²+α)` (§5.1), where `n` is the feed length in cycles and `α`
//!   the architectural pipeline tail. [`phases::efficiency_row`] checks a
//!   measured record against its family's prediction at a stated
//!   tolerance.
//! * [`export`] — deterministic exporters: a JSONL event log (one object
//!   per window) and a Prometheus-style text snapshot, both pinned
//!   byte-for-byte by the exporter determinism suite.
//! * [`registry`] — the central metric registry: every probe component id
//!   a datapath design emits, with a docstring. The `fblas-check`
//!   `telemetry-metric-registry` rule proves source and registry agree.
//! * [`trend`] — the trend dashboard: per-run utilization timelines,
//!   stall heatmaps, the efficiency-model scoreboard and cross-PR
//!   steady-efficiency sparklines, spliced into `EXPERIMENTS.md` by
//!   `observatory trend`.
//!
//! JSON is the hand-rolled [`fblas_metrics::Json`] writer (the workspace
//! vendors no serialization crates); everything rendered here is
//! byte-deterministic by contract.

#![forbid(unsafe_code)]

pub mod export;
pub mod phases;
pub mod registry;
pub mod store;
pub mod trend;

pub use export::{jsonl_events, prometheus_snapshot};
pub use phases::{
    efficiency_row, segment, steady_model, EfficiencyRow, PhaseSplit, STEADY_MODELS, STEADY_TOL,
};
pub use registry::{lookup, METRICS};
pub use store::{TelemRun, TelemSet, TELEM_SCHEMA_VERSION};
pub use trend::{render_trend_section, splice_trend_section, TREND_BEGIN, TREND_END};
