//! Compressed Row Storage (CRS/CSR) sparse matrices.
//!
//! The paper's `SpMV` design \[32\] "accepts matrices in Compressed Row
//! Storage format": three arrays — values, column indices, and row
//! pointers — with no assumption about the sparsity structure.

/// A sparse matrix in Compressed Row Storage format.
///
/// # Examples
///
/// ```
/// use fblas_sparse::CsrMatrix;
///
/// let m = CsrMatrix::from_dense(&[2.0, 0.0, 0.0, 3.0], 2, 2);
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.ref_spmv(&[1.0, 2.0]), vec![2.0, 6.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes row i's entries.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from (row, col, value) triplets; duplicates are summed.
    pub fn from_triplets(n_rows: usize, n_cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; n_rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut last: Option<(usize, usize)> = None;
        for &(r, c, v) in &sorted {
            assert!(r < n_rows && c < n_cols, "triplet ({r},{c}) out of bounds");
            if last == Some((r, c)) {
                *values.last_mut().expect("duplicate follows an entry") += v;
                continue;
            }
            last = Some((r, c));
            col_idx.push(c);
            values.push(v);
            row_ptr[r + 1] += 1;
        }
        for i in 0..n_rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Self {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Build from a dense row-major matrix, dropping exact zeros.
    pub fn from_dense(data: &[f64], n_rows: usize, n_cols: usize) -> Self {
        assert_eq!(data.len(), n_rows * n_cols, "shape mismatch");
        let mut triplets = Vec::new();
        for i in 0..n_rows {
            for j in 0..n_cols {
                let v = data[i * n_cols + j];
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        Self::from_triplets(n_rows, n_cols, &triplets)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The (column, value) entries of row i.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// Number of entries in row i.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Extract columns `lo..hi` as their own CSR matrix (columns
    /// reindexed to start at zero) — the panel decomposition the blocked
    /// `SpMV` driver uses when x exceeds on-chip storage.
    pub fn column_panel(&self, lo: usize, hi: usize) -> CsrMatrix {
        assert!(lo < hi && hi <= self.n_cols, "bad panel range {lo}..{hi}");
        let mut trip = Vec::new();
        for i in 0..self.n_rows {
            for (c, v) in self.row(i) {
                if (lo..hi).contains(&c) {
                    trip.push((i, c - lo, v));
                }
            }
        }
        CsrMatrix::from_triplets(self.n_rows, hi - lo, &trip)
    }

    /// Reference y = A·x in plain f64.
    pub fn ref_spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_cols, "x length mismatch");
        (0..self.n_rows)
            .map(|i| self.row(i).map(|(c, v)| v * x[c]).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dense_roundtrip() {
        let dense = vec![1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0, 5.0];
        let m = CsrMatrix::from_dense(&dense, 3, 3);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
        assert_eq!(m.row(1).collect::<Vec<_>>(), vec![(1, 3.0)]);
        assert_eq!(m.row(2).collect::<Vec<_>>(), vec![(0, 4.0), (2, 5.0)]);
    }

    #[test]
    fn triplets_sum_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 3.0)]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 3.0)]);
        assert_eq!(m.row(1).collect::<Vec<_>>(), vec![(1, 3.0)]);
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(3, 3, &[(0, 1, 5.0)]);
        assert_eq!(m.row_nnz(0), 1);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row_nnz(2), 0);
        assert_eq!(m.ref_spmv(&[1.0, 1.0, 1.0]), vec![5.0, 0.0, 0.0]);
    }

    #[test]
    fn spmv_reference() {
        let dense = vec![2.0, 1.0, 0.0, 3.0];
        let m = CsrMatrix::from_dense(&dense, 2, 2);
        assert_eq!(m.ref_spmv(&[1.0, 2.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn column_panels_partition_the_matrix() {
        let dense = vec![1.0, 2.0, 0.0, 3.0, 0.0, 4.0, 5.0, 0.0, 6.0];
        let m = CsrMatrix::from_dense(&dense, 3, 3);
        let left = m.column_panel(0, 2);
        let right = m.column_panel(2, 3);
        assert_eq!(left.nnz() + right.nnz(), m.nnz());
        assert_eq!(left.n_cols(), 2);
        assert_eq!(right.n_cols(), 1);
        // Reindexed column: original column 2 becomes panel column 0.
        assert_eq!(right.row(1).collect::<Vec<_>>(), vec![(0, 4.0)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_triplet_rejected() {
        CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }
}
