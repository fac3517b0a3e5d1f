//! Property-based tests of the matrix-multiply architectures: random
//! shapes and integer data must reproduce the oracle exactly, and the
//! measured cycle counts must track the §5.1 formulas.

use fpga_blas::blas::mm::{
    ref_matmul, BlockEngine, HierarchicalMm, HierarchicalOutcome, HierarchicalParams,
    HierarchicalTiming, LinearArrayMm, MmParams,
};
use fpga_blas::blas::mvm::DenseMatrix;
use proptest::prelude::*;

/// Legal (k, m) pairs with the hazard condition satisfied.
fn km() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        Just((1usize, 8usize)),
        Just((2, 8)),
        Just((2, 16)),
        Just((4, 16)),
        Just((4, 32)),
        Just((8, 32)),
        Just((8, 16)),
    ]
}

fn int_mat(seed: u64, n: usize) -> DenseMatrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    DenseMatrix::from_fn(n, n, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 17) % 6) as f64
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn block_engine_exact_for_any_legal_shape((k, m) in km(), seed in 0u64..1000) {
        let a = int_mat(seed, m);
        let b = int_mat(seed + 1, m);
        let mut c = vec![0.0; m * m];
        let stats = BlockEngine::new(MmParams::test(k, m)).multiply_accumulate(&a, &b, &mut c);
        let expect = ref_matmul(&a, &b);
        prop_assert_eq!(&c[..], expect.as_slice());
        prop_assert_eq!(stats.macs, (m * m * m) as u64);
        prop_assert_eq!(stats.hazard_violations, 0);
    }

    #[test]
    fn block_cycles_track_formula((k, m) in km(), seed in 0u64..100) {
        let a = int_mat(seed, m);
        let b = int_mat(seed + 7, m);
        let mut c = vec![0.0; m * m];
        let stats = BlockEngine::new(MmParams::test(k, m)).multiply_accumulate(&a, &b, &mut c);
        // fill (m²/k + k−1) + compute (m³/k + k) + MAC pipeline drain (25).
        let formula = (m * m / k + k - 1) as u64 + (m * m * m / k) as u64;
        let slack = (k + 32) as u64;
        prop_assert!(
            stats.cycles >= formula && stats.cycles <= formula + slack,
            "k={k}, m={m}: {} vs formula {formula}",
            stats.cycles
        );
    }

    #[test]
    fn full_multiply_exact_with_multiple_blocks((k, m) in km(), blocks in 1usize..3, seed in 0u64..100) {
        let n = m * blocks;
        let a = int_mat(seed, n);
        let b = int_mat(seed + 3, n);
        let out = LinearArrayMm::new(MmParams::test(k, m)).run(&a, &b);
        let expect = ref_matmul(&a, &b);
        prop_assert_eq!(out.c.as_slice(), expect.as_slice());
    }

    #[test]
    fn hierarchical_matches_linear_array((k, m) in km(), l in 1usize..3, seed in 0u64..100) {
        let b_edge = 2 * m; // b/m = 2 column-blocks
        prop_assume!(b_edge / m >= l);
        let n = b_edge;
        let a = int_mat(seed, n);
        let b = int_mat(seed + 5, n);
        let la = LinearArrayMm::new(MmParams::test(k, m)).run(&a, &b);
        let h = HierarchicalMm::new(HierarchicalParams::test(k, m, l, b_edge)).run(&a, &b);
        prop_assert_eq!(la.c.as_slice(), h.c.as_slice());
    }

    #[test]
    fn hierarchical_timing_equals_run((k, m) in km(), l in 1usize..4, blocks in 1usize..3, seed in 0u64..100) {
        // The timing-only path must report exactly what the full run
        // reports, on every field except the product.
        let b_edge = m * l; // one column-block per FPGA
        let n = b_edge * blocks;
        let a = int_mat(seed, n);
        let b = int_mat(seed + 11, n);
        let mm = HierarchicalMm::new(HierarchicalParams::test(k, m, l, b_edge));
        let HierarchicalOutcome {
            c: _,
            report,
            clock,
            dram_bytes_per_s,
            sram_bytes_per_s,
            sram_words_per_fpga,
            fill_penalty_cycles,
            hazards_per_block,
        } = mm.run(&a, &b);
        let from_run = HierarchicalTiming {
            report,
            clock,
            dram_bytes_per_s,
            sram_bytes_per_s,
            sram_words_per_fpga,
            fill_penalty_cycles,
            hazards_per_block,
        };
        prop_assert_eq!(mm.timing(&a, &b), from_run);
    }

    #[test]
    fn io_words_scale_inversely_with_m(seed in 0u64..50) {
        // Doubling m halves external words (Θ(n³/m)).
        let n = 64;
        let a = int_mat(seed, n);
        let b = int_mat(seed + 9, n);
        let w16 = LinearArrayMm::new(MmParams::test(4, 16)).run(&a, &b).report.words_in;
        let w32 = LinearArrayMm::new(MmParams::test(4, 32)).run(&a, &b).report.words_in;
        prop_assert_eq!(w16, 2 * w32);
    }
}

#[test]
fn deployment_and_direct_run_agree() {
    use fpga_blas::blas::deploy::Level3Deployment;
    use fpga_blas::system::Xd1Node;
    let n = 64;
    let a = int_mat(1, n);
    let b = int_mat(2, n);
    let dep = Level3Deployment::new(Xd1Node::default(), n).run(&a, &b);
    assert_eq!(dep.result, ref_matmul(&a, &b).as_slice());
}
