//! Software dense matrix multiply: the §6.3 CPU comparison ladder.
//!
//! All matrices are dense row-major `&[f64]`, square n×n. Every rung of
//! the ladder — reference, cache-blocked, multi-threaded — runs through
//! the single [`gemm_panel`] loop nest, so there is exactly one numeric
//! implementation: each C element accumulates its products in
//! ascending-q order from a zero seed regardless of block size or
//! thread count, and all rungs agree bit-for-bit on **any** input (not
//! just integer data; pinned by regression tests below). The softfloat
//! analogue for the native execution backend lives in
//! [`crate::microkernel`].

/// Reference multiply: the blocked engine degenerated to one
/// whole-matrix block. Historically a separate (i, j, q) triple loop;
/// deduplicated onto [`gemm_panel`] so the crate has one numeric gemm.
pub fn gemm_naive(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    gemm_blocked(a, b, n, n.max(1))
}

/// Cache-blocked matrix multiply — the "cache blocking to maximize
/// cache reuse" optimization §2.2 lists, and the software mirror of the
/// paper's m×m on-chip blocking.
pub fn gemm_blocked(a: &[f64], b: &[f64], n: usize, block: usize) -> Vec<f64> {
    assert_eq!(a.len(), n * n, "A shape mismatch");
    assert_eq!(b.len(), n * n, "B shape mismatch");
    assert!(block > 0, "block size must be positive");
    let mut c = vec![0.0f64; n * n];
    gemm_panel(a, 0, n, n, b, block, &mut c);
    c
}

/// The one shared loop nest: multiply the A row-panel of `rows` rows
/// starting at absolute row `lo` against all of B (n×n), accumulating
/// into the `rows × n` C panel. Blocked i0/q0/j0 with an (i, q, j)
/// interior; per-element accumulation is ascending-q for every block
/// size, which is what makes the whole ladder bit-identical.
fn gemm_panel(a: &[f64], lo: usize, rows: usize, n: usize, b: &[f64], block: usize, c: &mut [f64]) {
    for i0 in (0..rows).step_by(block) {
        let imax = (i0 + block).min(rows);
        for q0 in (0..n).step_by(block) {
            let qmax = (q0 + block).min(n);
            for j0 in (0..n).step_by(block) {
                let jmax = (j0 + block).min(n);
                for i in i0..imax {
                    for q in q0..qmax {
                        let aiq = a[(lo + i) * n + q];
                        let brow = &b[q * n + j0..q * n + jmax];
                        let crow = &mut c[i * n + j0..i * n + jmax];
                        for (cv, bv) in crow.iter_mut().zip(brow) {
                            *cv += aiq * bv;
                        }
                    }
                }
            }
        }
    }
}

/// Blocked multiply over an explicitly transposed B: turns the inner
/// loop into two unit-stride streams (the "register blocking to reduce
/// the number of memory accesses" rung of §2.2's optimization ladder).
pub fn gemm_transposed(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    assert_eq!(a.len(), n * n, "A shape mismatch");
    assert_eq!(b.len(), n * n, "B shape mismatch");
    let mut bt = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            bt[j * n + i] = b[i * n + j];
        }
    }
    let mut c = vec![0.0f64; n * n];
    for i in 0..n {
        let arow = &a[i * n..(i + 1) * n];
        for j in 0..n {
            let bcol = &bt[j * n..(j + 1) * n];
            let mut acc = 0.0;
            for (av, bv) in arow.iter().zip(bcol) {
                acc += av * bv;
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Multi-threaded blocked multiply: row panels distributed over scoped
/// threads (each panel writes a disjoint slice of C, so no
/// synchronization is needed beyond the scope join).
#[expect(
    clippy::disallowed_methods,
    reason = "panels are disjoint split_at_mut slices, so output does not depend on thread count"
)]
pub fn gemm_parallel(a: &[f64], b: &[f64], n: usize, block: usize, threads: usize) -> Vec<f64> {
    assert_eq!(a.len(), n * n, "A shape mismatch");
    assert_eq!(b.len(), n * n, "B shape mismatch");
    assert!(threads >= 1, "need at least one thread");
    let mut c = vec![0.0f64; n * n];
    let rows_per = n.div_ceil(threads);
    std::thread::scope(|s| {
        let mut rest: &mut [f64] = &mut c;
        let mut row0 = 0usize;
        while row0 < n {
            let rows = rows_per.min(n - row0);
            let (panel, tail) = rest.split_at_mut(rows * n);
            rest = tail;
            let lo = row0;
            s.spawn(move || gemm_panel(a, lo, rows, n, b, block, panel));
            row0 += rows;
        }
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_pair(n: usize) -> (Vec<f64>, Vec<f64>) {
        (
            (0..n * n).map(|i| ((i * 5 + 3) % 8) as f64).collect(),
            (0..n * n).map(|i| ((i * 7 + 1) % 8) as f64).collect(),
        )
    }

    /// Deterministic xorshift64* stream of finite doubles in (-8, 8).
    fn random_vec(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 50) as f64 - 8.0
            })
            .collect()
    }

    #[test]
    fn naive_small_case() {
        let c = gemm_naive(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], 2);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    /// The dedupe regression: every rung runs the same loop nest, so the
    /// whole ladder is bit-identical on *random* (rounding-sensitive)
    /// data, not merely on exact integer workloads.
    #[test]
    fn all_rungs_bit_identical_on_random_data() {
        for n in [5usize, 16, 33] {
            let a = random_vec(n as u64, n * n);
            let b = random_vec(n as u64 + 7, n * n);
            let reference = gemm_naive(&a, &b, n);
            let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for block in [1usize, 3, 8, 64] {
                assert_eq!(
                    bits(&gemm_blocked(&a, &b, n, block)),
                    bits(&reference),
                    "n = {n}, block = {block}"
                );
            }
            for threads in [2usize, 3, 8] {
                assert_eq!(
                    bits(&gemm_parallel(&a, &b, n, 8, threads)),
                    bits(&reference),
                    "n = {n}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn blocked_matches_naive_exactly_on_integers() {
        for (n, block) in [(8, 4), (17, 5), (32, 8), (33, 16), (64, 64)] {
            let (a, b) = int_pair(n);
            assert_eq!(
                gemm_blocked(&a, &b, n, block),
                gemm_naive(&a, &b, n),
                "n = {n}, block = {block}"
            );
        }
    }

    #[test]
    fn transposed_matches_naive_exactly() {
        // Same inner-loop q order as naive ⇒ identical rounding.
        for n in [4usize, 17, 48] {
            let (a, b) = int_pair(n);
            assert_eq!(gemm_transposed(&a, &b, n), gemm_naive(&a, &b, n), "n = {n}");
        }
    }

    #[test]
    fn parallel_matches_blocked() {
        for threads in [1, 2, 3, 8] {
            let (a, b) = int_pair(48);
            assert_eq!(
                gemm_parallel(&a, &b, 48, 16, threads),
                gemm_blocked(&a, &b, 48, 16),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn identity_matrix() {
        let n = 16;
        let (_, b) = int_pair(n);
        let mut eye = vec![0.0; n * n];
        for i in 0..n {
            eye[i * n + i] = 1.0;
        }
        assert_eq!(gemm_blocked(&eye, &b, n, 8), b);
    }

    #[test]
    fn more_threads_than_rows() {
        let (a, b) = int_pair(4);
        assert_eq!(gemm_parallel(&a, &b, 4, 2, 16), gemm_naive(&a, &b, 4));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_shape() {
        gemm_naive(&[1.0], &[1.0], 2);
    }
}
