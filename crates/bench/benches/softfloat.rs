//! Criterion bench: bit-accurate softfloat vs the host FPU.
//!
//! Quantifies the cost of simulating the paper's floating-point cores at
//! bit level — the ablation "softfloat vs native f64" from DESIGN.md.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fblas_bench::synth;
use fblas_fpu::softfloat::{add_f64, mul_f64};
use std::hint::black_box;

fn bench_softfloat(c: &mut Criterion) {
    let xs = synth(1, 4096);
    let ys = synth(2, 4096);

    let mut g = c.benchmark_group("softfloat_vs_native");
    g.throughput(criterion::Throughput::Elements(4096));

    g.bench_function("softfloat_add_4096", |b| {
        b.iter_batched(
            || (xs.clone(), ys.clone()),
            |(xs, ys)| {
                let mut acc = 0.0;
                for (x, y) in xs.iter().zip(&ys) {
                    acc = add_f64(acc, mul_f64(*x, *y));
                }
                black_box(acc)
            },
            BatchSize::SmallInput,
        );
    });

    g.bench_function("native_add_4096", |b| {
        b.iter_batched(
            || (xs.clone(), ys.clone()),
            |(xs, ys)| {
                let mut acc = 0.0;
                for (x, y) in xs.iter().zip(&ys) {
                    acc += *x * *y;
                }
                black_box(acc)
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_softfloat);
criterion_main!(benches);
