//! Extensions from the paper's concluding remarks (§7).
//!
//! Beyond the three BLAS operations, the authors point to follow-on
//! designs built from the same components. This crate models the one the
//! paper matrix measures:
//!
//! * [`spmv`] — floating-point **sparse** matrix-vector multiply
//!   (FPGA'05 \[32\]): the tree-based Level-2 architecture fed from a
//!   Compressed Row Storage matrix. Row lengths are arbitrary, so the
//!   reduction sets have arbitrary sizes — the workload that motivates
//!   the §4.3 circuit's "multiple sets of arbitrary size" property. The
//!   design "makes no assumption on the sparsity of the matrix".
//! * [`blocked`] — the same design applied to a matrix wider than one
//!   pass's on-chip `x` buffer, one column panel at a time.
//!
//! [`csr`] provides the Compressed Row Storage substrate both build on.

#![forbid(unsafe_code)]

pub mod blocked;
pub mod csr;
pub mod spmv;

pub use blocked::BlockedSpmv;
pub use csr::CsrMatrix;
pub use spmv::{SpmvDesign, SpmvOutcome, SpmvParams};
