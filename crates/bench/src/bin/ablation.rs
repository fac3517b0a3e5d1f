//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. Reduction circuits: the proposed single-adder α²-buffer circuit vs
//!    every baseline, on the matrix-vector workload (many equal sets) and
//!    on an irregular-sparse workload (arbitrary set sizes).
//! 2. Matrix-vector architecture: row-major (tree + reduction circuit)
//!    vs column-major (interleaved accumulators).
//! 3. Matrix-multiply blocking: cycles and bandwidth as m varies.

use fblas_bench::{print_table, synth_int};
use fblas_core::mm::{BlockEngine, MmParams};
use fblas_core::mvm::{ColMajorMvm, DenseMatrix, MvmParams, RowMajorMvm};
use fblas_core::reduce::{
    run_sets, KoggeTreeReducer, NiHwangReducer, Pow2Reducer, Reducer, ReductionRun,
    SingleAdderReducer, StallingReducer, TwoAdderReducer,
};

const ALPHA: usize = 14;

fn bench_reducer<R: Reducer>(mut r: R, sets: &[Vec<f64>]) -> (String, usize, ReductionRun) {
    let run = run_sets(&mut r, sets);
    (r.name().to_string(), r.adders(), run)
}

fn reducer_table(title: &str, sets: &[Vec<f64>], include_pow2: bool) {
    let total: u64 = sets.iter().map(|s| s.len() as u64).sum();
    let mut runs = vec![
        bench_reducer(SingleAdderReducer::new(ALPHA), sets),
        bench_reducer(TwoAdderReducer::new(ALPHA), sets),
        bench_reducer(KoggeTreeReducer::new(ALPHA), sets),
        bench_reducer(NiHwangReducer::new(ALPHA), sets),
        bench_reducer(StallingReducer::new(ALPHA), sets),
    ];
    if include_pow2 {
        // The RAW'05 circuit only handles power-of-two set sizes.
        runs.insert(1, bench_reducer(Pow2Reducer::new(ALPHA), sets));
    }
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|(name, adders, run)| {
            vec![
                name.clone(),
                adders.to_string(),
                run.total_cycles.to_string(),
                format!("{:.2}", run.total_cycles as f64 / total as f64),
                run.stall_cycles.to_string(),
                run.buffer_high_water.to_string(),
                run.adds_issued.to_string(),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "circuit",
            "adders",
            "cycles",
            "cycles/input",
            "stalls",
            "buffer peak",
            "adds",
        ],
        &rows,
    );
}

fn main() {
    // ---- 1a. Matrix-vector workload: 256 sets of 64 (n=256, k=4) ----
    let mvm_sets: Vec<Vec<f64>> = (0..256).map(|i| synth_int(i as u64, 64, 16)).collect();
    reducer_table(
        "Ablation 1a: reduction circuits on the matrix-vector workload (256 sets × 64)",
        &mvm_sets,
        true,
    );

    // ---- 1b. Irregular sparse workload: arbitrary set sizes ----
    let sparse_sets: Vec<Vec<f64>> = (0..300)
        .map(|i| {
            let s = 1 + (i * 37 + 11) % 97;
            synth_int(i as u64, s, 16)
        })
        .collect();
    reducer_table(
        "Ablation 1b: reduction circuits on an irregular sparse workload (sizes 1..97)",
        &sparse_sets,
        false,
    );

    // ---- 2. Row-major vs column-major matrix-vector ----
    let n = 512usize;
    let a = DenseMatrix::from_rows(n, n, synth_int(3, n * n, 8));
    let x = synth_int(4, n, 8);
    let row_design = RowMajorMvm::standalone(MvmParams::with_k(4), 170.0);
    let col_design = ColMajorMvm::standalone(MvmParams::with_k(4), 170.0);
    let row = row_design.run(&a, &x);
    let col = col_design.run(&a, &x);
    assert_eq!(row.y, a.ref_mvm(&x));
    assert_eq!(col.y, a.ref_mvm(&x));
    print_table(
        &format!("Ablation 2: matrix-vector architectures (n = {n}, k = 4)"),
        &["architecture", "cycles", "% of peak", "extra hardware"],
        &[
            vec![
                "row-major (tree + reduction)".into(),
                row.report.cycles.to_string(),
                format!("{:.1}%", row.fraction_of_peak() * 100.0),
                "reduction circuit (1658 slices)".into(),
            ],
            vec![
                "column-major (interleaved acc.)".into(),
                col.report.cycles.to_string(),
                format!("{:.1}%", col.fraction_of_peak() * 100.0),
                "none, but needs n/k ≥ α".into(),
            ],
        ],
    );

    // ---- 3. Matrix-multiply blocking sweep ----
    let rows: Vec<Vec<String>> = [16usize, 32, 64]
        .iter()
        .map(|&m| {
            let p = MmParams::test(4, m);
            let a = DenseMatrix::from_rows(m, m, synth_int(7, m * m, 4));
            let b = DenseMatrix::from_rows(m, m, synth_int(8, m * m, 4));
            let mut c = vec![0.0; m * m];
            let stats = BlockEngine::new(p).multiply_accumulate(&a, &b, &mut c);
            vec![
                m.to_string(),
                stats.cycles.to_string(),
                format!("{:.2}", stats.cycles as f64 / (m * m * m / 4) as f64),
                format!("{:.3}", p.words_per_cycle()),
                (2 * m * m).to_string(),
            ]
        })
        .collect();
    print_table(
        "Ablation 3: block size m vs cycles and bandwidth (k = 4, one block multiply)",
        &[
            "m",
            "cycles",
            "cycles / (m³/k)",
            "ext. words/cycle (3k/m)",
            "on-chip words (2m²)",
        ],
        &rows,
    );
    println!(
        "\nLarger m amortizes the fill (cycles/(m³/k) → 1) and cuts external bandwidth\n\
         (3k/m), at the cost of 2m² words of BRAM — the §5.1 trade-off."
    );

    // ---- 4. Why §5.2 exists: naive multi-FPGA vs hierarchical ----
    use fblas_system::projection::{
        hierarchical_dram_bytes_per_s, naive_multi_fpga_dram_bytes_per_s,
    };
    let rows: Vec<Vec<String>> = [1usize, 6, 72]
        .iter()
        .map(|&l| {
            let naive = naive_multi_fpga_dram_bytes_per_s(8, l, 8, 130.0);
            let hier = hierarchical_dram_bytes_per_s(8, l, 2048, 130.0);
            vec![
                l.to_string(),
                format!("{:.2} GB/s", naive / 1e9),
                format!("{:.1} MB/s", hier / 1e6),
                format!("{:.0}×", naive / hier),
                if naive <= 3.2e9 {
                    "yes".into()
                } else {
                    "NO".into()
                },
                if hier <= 3.2e9 {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]
        })
        .collect();
    print_table(
        "Ablation 4: naive multi-FPGA array vs hierarchical design (k = m = 8, b = 2048)",
        &[
            "l (FPGAs)",
            "naive DRAM demand",
            "hierarchical demand",
            "ratio",
            "naive fits XD1?",
            "hierarchical fits?",
        ],
        &rows,
    );
    println!(
        "\nStretching the §5.1 array across FPGAs without SRAM blocking multiplies the\n\
         DRAM demand by l; the §5.2 design replaces the 1/m factor with 1/b = 1/2048,\n\
         which is why the paper builds the memory-hierarchy-aware version."
    );
}
