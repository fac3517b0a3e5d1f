//! Workload generators for the campaign matrices: the sparse stencil
//! that the paper's motivating application, iterative solvers, produces.

use fblas_sparse::CsrMatrix;

/// Five-point 2-D Laplacian stencil on a `grid × grid` domain, with the
/// diagonal raised from 4 to 4.5 (the committed `spmv` records pin these
/// values).
pub fn laplacian_2d(grid: usize) -> CsrMatrix {
    let n = grid * grid;
    let mut trip = Vec::with_capacity(5 * n);
    for r in 0..grid {
        for c in 0..grid {
            let i = r * grid + c;
            trip.push((i, i, 4.5));
            if r > 0 {
                trip.push((i, i - grid, -1.0));
            }
            if r + 1 < grid {
                trip.push((i, i + grid, -1.0));
            }
            if c > 0 {
                trip.push((i, i - 1, -1.0));
            }
            if c + 1 < grid {
                trip.push((i, i + 1, -1.0));
            }
        }
    }
    CsrMatrix::from_triplets(n, n, &trip)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplacian_shape() {
        let m = laplacian_2d(8);
        assert_eq!(m.n_rows(), 64);
        // Interior points have 5 entries.
        assert_eq!(m.row_nnz(8 + 1), 5);
        // Corner points have 3.
        assert_eq!(m.row_nnz(0), 3);
    }
}
