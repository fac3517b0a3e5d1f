//! Software BLAS baselines.
//!
//! §6.3 of the paper compares the FPGA design against `dgemm` from
//! vendor math libraries on contemporary CPUs (Opteron/ACML 4.1 GFLOPS,
//! Xeon/MKL 5.5 GFLOPS, Pentium 4 5.0 GFLOPS) and notes those libraries
//! apply "common software optimizations": loop unrolling, register
//! blocking and cache blocking. This crate implements that ladder of
//! optimizations — naive and cache-blocked variants of dot, gemv and
//! gemm, plus a multi-threaded gemm — serving both as correctness
//! oracles for the architecture simulations and as the measured CPU side
//! of the comparison (via the Criterion benches in `fblas-bench`).

#![forbid(unsafe_code)]

pub mod dot;
pub mod gemm;
pub mod gemv;
pub mod level1;
pub mod microkernel;

pub use dot::{dot_naive, dot_unrolled};
pub use gemm::{gemm_blocked, gemm_naive, gemm_parallel, gemm_transposed};
pub use gemv::{gemv_blocked, gemv_naive};
pub use level1::{asum, axpy, iamax, nrm2, scal};
