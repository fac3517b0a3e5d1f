//! BLAS-as-a-service: a deterministic request front end over the
//! simulated FPGA fleet.
//!
//! The SC'05 designs are evaluated one kernel invocation at a time, but
//! a reconfigurable node in a real machine room is *shared*: multiple
//! tenants submit streams of BLAS requests and the node must decide
//! what to admit, how to batch and what latency it can promise. This
//! crate models that front end without sacrificing the workspace's
//! determinism contract:
//!
//! * [`rng`] — seeded `SplitMix64` streams and a fixed-point
//!   exponential quantile table (no libm, bit-identical everywhere).
//! * [`profile`] — batchable [`ShapeClass`]es calibrated against the
//!   real instrumented designs; service times in integer nanoseconds at
//!   each design's own clock, so the 170 MHz dot tree and the 164 MHz
//!   Level-2 `MvM` share one timeline.
//! * [`tenant`] — open- and closed-loop arrival generators plus
//!   admission control: FIFO queue-depth limits and integer token
//!   buckets, with honest reject accounting.
//! * [`engine`] — the discrete-event loop on
//!   [`fblas_sim::EventQueue`]: batches pack same-class requests so the
//!   DRAM->SRAM staging (the 8.0 ms vs 1.6 ms split of paper Table 4)
//!   is paid once per batch instead of once per request.
//!
//! Output is a [`fblas_metrics::ServeRecord`] per cell — counters that
//! conserve (`arrivals = completed + rejected + in-flight`, proven by
//! `fblas-check`), latency digests with p50/p95/p99/p999, throughput
//! and an SLO verdict — persisted to `SERVE_<n>.json` by `observatory
//! serve` and byte-identical at any worker count and under every
//! execution backend.

#![forbid(unsafe_code)]

pub mod engine;
pub mod profile;
pub mod rng;
pub mod tenant;

pub use engine::{run_cell, run_profiled, CellSpec};
pub use profile::{calibrate, cycles_to_ns, KernelFamily, ServiceProfile, ShapeClass};
pub use rng::{sample_exp_ns, SplitMix64, EXP_ICDF_MICRO};
pub use tenant::{ArrivalProcess, TenantSpec, TokenBucket};
