//! Criterion bench: the software gemm ladder (§6.3's CPU side).
//!
//! naive → transposed-B → cache-blocked → multithreaded, n = 256, timed
//! on the host that runs it. One throughput element is one FLOP (2n³ per
//! multiply), so the reported Melem/s read as MFLOP/s: the CPU side of
//! the paper's comparison against 4.1–5.5 GFLOPS vendor `dgemm` and the
//! FPGA design's 2.06 GFLOPS.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fblas_bench::synth;
use fblas_sw::{gemm_blocked, gemm_naive, gemm_parallel, gemm_transposed};
use std::hint::black_box;

fn bench_gemm(c: &mut Criterion) {
    let n = 256usize;
    let a = synth(1, n * n);
    let b = synth(2, n * n);
    let threads = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);

    let mut g = c.benchmark_group("sw_gemm_n256");
    g.sample_size(10);
    g.throughput(Throughput::Elements(2 * (n as u64).pow(3)));

    g.bench_function("naive", |bch| bch.iter(|| black_box(gemm_naive(&a, &b, n))));
    g.bench_function("transposed", |bch| {
        bch.iter(|| black_box(gemm_transposed(&a, &b, n)));
    });
    g.bench_function("blocked_64", |bch| {
        bch.iter(|| black_box(gemm_blocked(&a, &b, n, 64)));
    });
    g.bench_function(format!("parallel_{threads}t"), |bch| {
        bch.iter(|| black_box(gemm_parallel(&a, &b, n, 64, threads)));
    });
    g.finish();
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
