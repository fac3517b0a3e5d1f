//! # fpga-blas
//!
//! A Rust reproduction of *"High Performance Linear Algebra Operations on
//! Reconfigurable Systems"* (Zhuo & Prasanna, SC 2005): an FPGA-based BLAS
//! library for reconfigurable high-end computing systems such as the Cray
//! XD1 and SRC `MAPstation`, rebuilt as a cycle-accurate architecture
//! simulation with calibrated area/clock cost models.
//!
//! The crate is an umbrella over the workspace members; see each for the
//! subsystem it implements:
//!
//! * [`sim`] — cycle-stepped dataflow simulation kernel.
//! * [`fpu`] — bit-accurate IEEE-754 binary64 softfloat and pipelined
//!   floating-point unit models (Table 2 of the paper).
//! * [`mem`] — the three-level memory hierarchy (BRAM / SRAM / DRAM) of the
//!   reconfigurable-system model (Table 1).
//! * [`system`] — FPGA device sheets, area and routing/clock models, Cray
//!   XD1 and SRC `MAPstation` platform topologies, and the §6.4 performance
//!   projections.
//! * [`blas`] — the paper's contributions: the single-adder reduction
//!   circuit (§4.3), tree-based dot product (§4.1), matrix-vector multiply
//!   (§4.2), the linear-array matrix multiplier (§5.1) and its hierarchical
//!   multi-FPGA extension (§5.2).
//! * [`sw`] — software baselines (naive / blocked / multithreaded BLAS)
//!   used as correctness oracles and as the §6.3 CPU comparison.
//! * [`sparse`] — the extension from the paper's concluding remarks: CRS
//!   sparse matrix-vector multiply on the tree-based architecture.
//!
//! ## Quickstart
//!
//! ```
//! use fpga_blas::blas::dot::{DotProductDesign, DotParams};
//! use fpga_blas::system::xd1::Xd1Node;
//!
//! // Simulate the paper's Level-1 design: k = 2 multipliers, n = 1024.
//! let node = Xd1Node::default();
//! let design = DotProductDesign::new(DotParams::table3(), &node);
//! let u: Vec<f64> = (0..1024).map(|i| i as f64).collect();
//! let v: Vec<f64> = (0..1024).map(|i| (i % 7) as f64).collect();
//! let outcome = design.run(&u, &v);
//! let expected: f64 = u.iter().zip(&v).map(|(a, b)| a * b).sum();
//! assert!((outcome.result - expected).abs() < 1e-6 * expected.abs());
//! assert!(outcome.report.sustained_flops(&outcome.clock) > 0.0);
//! ```

pub use fblas_core as blas;
pub use fblas_fpu as fpu;
pub use fblas_mem as mem;
pub use fblas_sim as sim;
pub use fblas_sparse as sparse;
pub use fblas_sw as sw;
pub use fblas_system as system;
