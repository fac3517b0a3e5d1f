//! A fixture that must FAIL the softfloat-purity lint, together with
//! `kernel.rs`: this file declares an `f64` accessor and does no
//! arithmetic; `kernel.rs` multiplies its results natively. Neither file
//! trips the lint alone. Never compiled.
//!
//!   cargo run --release -p fblas-check --bin lint -- crates/check/tests/lint-trips

/// A dense row-major matrix.
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Element (i, j).
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }
}
