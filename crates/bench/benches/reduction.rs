//! Criterion bench: reduction-circuit simulation throughput.
//!
//! One group per workload shape (ablation 1's matrix-vector and
//! irregular-sparse comparisons). The *architectural* metrics (cycles,
//! stalls, buffers) come from `--bin ablation` and `--bin alpha_sweep`;
//! this bench tracks how fast the circuit models simulate, which bounds
//! the size of experiments the harness can run.

use criterion::{criterion_group, criterion_main, Criterion};
use fblas_bench::synth_int;
use fblas_core::reduce::{
    run_sets, KoggeTreeReducer, NiHwangReducer, SingleAdderReducer, StallingReducer,
    TwoAdderReducer,
};
use std::hint::black_box;

const ALPHA: usize = 14;

fn mvm_workload() -> Vec<Vec<f64>> {
    (0..64).map(|i| synth_int(i as u64, 64, 16)).collect()
}

fn sparse_workload() -> Vec<Vec<f64>> {
    (0..100)
        .map(|i| {
            let s = 1 + (i * 37 + 11) % 97;
            synth_int(i as u64, s, 16)
        })
        .collect()
}

fn bench_reduction(c: &mut Criterion) {
    for (wl_name, sets) in [
        ("mvm_64x64", mvm_workload()),
        ("sparse_1_97", sparse_workload()),
    ] {
        let mut g = c.benchmark_group(format!("reduction_{wl_name}"));
        g.sample_size(20);
        g.bench_function("single_adder_proposed", |b| {
            b.iter(|| black_box(run_sets(&mut SingleAdderReducer::new(ALPHA), &sets)));
        });
        g.bench_function("two_adder_fccm05", |b| {
            b.iter(|| black_box(run_sets(&mut TwoAdderReducer::new(ALPHA), &sets)));
        });
        g.bench_function("kogge_chain", |b| {
            b.iter(|| black_box(run_sets(&mut KoggeTreeReducer::new(ALPHA), &sets)));
        });
        g.bench_function("ni_hwang", |b| {
            b.iter(|| black_box(run_sets(&mut NiHwangReducer::new(ALPHA), &sets)));
        });
        g.bench_function("stalling", |b| {
            b.iter(|| black_box(run_sets(&mut StallingReducer::new(ALPHA), &sets)));
        });
        g.finish();
    }
}

criterion_group!(benches, bench_reduction);
criterion_main!(benches);
