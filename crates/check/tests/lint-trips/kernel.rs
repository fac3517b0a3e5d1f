//! The other half of the fixture: a multiply-accumulate on `Matrix::at`
//! values with the host's native `*`, which the lint must name.

use crate::matrix::Matrix;

/// One output element of A·B.
pub fn element(a: &Matrix, b: &Matrix, i: usize, j: usize, n: usize) -> f64 {
    let mut acc = 0.0;
    for q in 0..n {
        acc += a.at(i, q) * b.at(q, j);
    }
    acc
}
