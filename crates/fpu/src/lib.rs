//! Floating-point substrate: bit-accurate IEEE-754 binary64 arithmetic and
//! pipelined FPGA floating-point unit models.
//!
//! The SC'05 paper uses hand-written double-precision floating-point cores
//! (Govindu et al., ERSA'05) with the following post-place-&-route
//! characteristics (paper Table 2):
//!
//! | unit       | pipeline stages | area (slices) | clock (MHz) |
//! |------------|-----------------|---------------|-------------|
//! | adder      | 14              | 892           | 170         |
//! | multiplier | 11              | 835           | 170         |
//!
//! This crate reproduces both aspects of those cores:
//!
//! * **Numerics** ([`softfloat`]): a from-scratch implementation of IEEE-754
//!   binary64 addition, subtraction and multiplication with
//!   round-to-nearest-even, gradual underflow (subnormals) and full
//!   NaN/infinity semantics. It is verified bit-exact against the host FPU
//!   (both implement the same standard), which is precisely the guarantee
//!   the paper's VHDL cores give.
//! * **Timing** ([`pipelined`]): wrapper units that issue at most one
//!   operation per cycle and deliver the result exactly α cycles later,
//!   reproducing the read-after-write hazard window that motivates the
//!   paper's reduction circuit.
//! * **Cost** ([`cost`]): the Table 2 area/latency/clock sheet used by the
//!   area and clock models in `fblas-system`.

#![forbid(unsafe_code)]

pub mod cost;
pub mod pipelined;
pub mod softfloat;

pub use cost::{UnitCost, FP_ADDER, FP_MULTIPLIER};
pub use pipelined::{PipelinedAdder, PipelinedMultiplier, ADDER_STAGES, MULTIPLIER_STAGES};
pub use softfloat::{sf_add, sf_mul, sf_sub};
