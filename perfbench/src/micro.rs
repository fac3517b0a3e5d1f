//! Layer microbenches, run only in the traced pass and never inside a
//! timed campaign iteration. Each reports min, median and max over its
//! samples, per operation.

use std::hint::black_box;
use std::time::Instant;

use fblas_core::mm::{BlockEngine, MmParams};
use fblas_core::mvm::DenseMatrix;
use fblas_fpu::softfloat::{sf_add, sf_mul};
use fblas_sim::{DelayLine, Fifo, Harness, Throttle};
use fblas_sw::microkernel;

use crate::layers::Layers;
use crate::stats::Spread;

/// Time `samples` runs of `body`, each doing `ops` operations, and
/// return the per-operation spread in nanoseconds.
fn per_op_ns(samples: usize, ops: usize, mut body: impl FnMut() -> u64) -> Spread {
    black_box(body()); // warm caches and lazy set-up
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(body());
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    Spread::of(&times)
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Softfloat operand pairs from a fixed seed: half ordinary values of
/// mixed magnitude, the rest near-total and exact cancellations,
/// subnormals, and exponent gaps wider than the significand.
fn operand_stream(len: usize) -> Vec<(u64, u64)> {
    let mut r = XorShift(0x5EED_F00D_1234_5677);
    (0..len)
        .map(|i| {
            let normal = |r: &mut XorShift| {
                let mag = f64::from((r.next() % 2001) as u32) - 1000.0;
                (mag / 7.0 + f64::from((r.next() % 97) as u32) / 13.0).to_bits()
            };
            let subnormal = |r: &mut XorShift| (r.next() >> 12) | ((r.next() & 1) << 63);
            match i % 8 {
                0..=3 => (normal(&mut r), normal(&mut r)),
                4 => {
                    let a = normal(&mut r);
                    (a, (a ^ (1 << 63)) ^ (r.next() & 0xFF))
                }
                5 => (subnormal(&mut r), subnormal(&mut r)),
                6 => (normal(&mut r), normal(&mut r).wrapping_sub(60 << 52)),
                _ => {
                    let a = normal(&mut r);
                    (a, a ^ (1 << 63))
                }
            }
        })
        .collect()
}

fn quarter_matrix(r: &mut XorShift, n: usize) -> DenseMatrix {
    DenseMatrix::from_fn(n, n, |_, _| (r.next() % 33) as f64 / 4.0 - 4.0)
}

/// Run every microbench and record its spread.
pub fn run(layers: &mut Layers) {
    let ops = 16_384;
    let stream = operand_stream(ops);
    layers.set_spread(
        "fpu.sf_add_ns",
        per_op_ns(31, ops, || {
            stream.iter().fold(0, |acc, &(a, b)| acc ^ sf_add(a, b))
        }),
    );
    layers.set_spread(
        "fpu.sf_mul_ns",
        per_op_ns(31, ops, || {
            stream.iter().fold(0, |acc, &(a, b)| acc ^ sf_mul(a, b))
        }),
    );

    let steps = 1 << 16;
    layers.set_spread(
        "sim.fifo_push_pop_ns",
        per_op_ns(31, steps, || {
            let mut fifo: Fifo<u64> = Fifo::new(8);
            let mut acc = 0;
            for i in 0..steps as u64 {
                fifo.push(black_box(i));
                acc ^= fifo.pop().unwrap_or(0);
            }
            acc
        }),
    );
    layers.set_spread(
        "sim.delay_line_step_ns",
        per_op_ns(31, steps, || {
            let mut line: DelayLine<u64> = DelayLine::new(14);
            let mut acc = 0;
            for i in 0..steps as u64 {
                acc ^= line.step(Some(black_box(i))).unwrap_or(0);
            }
            acc
        }),
    );
    layers.set_spread(
        "sim.throttle_tick_ns",
        per_op_ns(31, steps, || {
            let mut throttle = Throttle::new(black_box(0.75));
            let mut acc = 0;
            for _ in 0..steps {
                throttle.tick();
                acc += throttle.grant_up_to(1);
            }
            acc
        }),
    );

    // One BlockEngine block at the scale ladder's k=8, m=64.
    let mut r = XorShift(0xB10C_0000_0000_0001);
    let (m, k) = (64, 8);
    let (a, b) = (quarter_matrix(&mut r, m), quarter_matrix(&mut r, m));
    let engine = BlockEngine::new(MmParams::test(k, m));
    let mut h = Harness::new();
    let block = per_op_ns(9, 1, || {
        let mut c = vec![0.0; m * m];
        engine.multiply_accumulate_in(&mut h, &a, &b, &mut c).cycles
    });
    layers.set_spread(
        "core.mm_block_ms",
        Spread {
            min: block.min / 1e6,
            median: block.median / 1e6,
            max: block.max / 1e6,
        },
    );

    // The native backend's value engine.
    let n = 64;
    let (ga, gb) = (quarter_matrix(&mut r, n), quarter_matrix(&mut r, n));
    layers.set_spread(
        "sw.gemm_ns_per_mac",
        per_op_ns(9, n * n * n, || {
            microkernel::gemm(ga.as_slice(), gb.as_slice(), n)[0].to_bits()
        }),
    );
    let rows = 256;
    let va = quarter_matrix(&mut r, rows);
    let x: Vec<f64> = (0..rows).map(|i| (i % 9) as f64 * 0.25).collect();
    layers.set_spread(
        "sw.gemv_ns_per_mac",
        per_op_ns(15, rows * rows, || {
            microkernel::gemv(va.as_slice(), rows, rows, &x, None)[0].to_bits()
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_stream_has_cancellations_and_subnormals() {
        let s = operand_stream(64);
        let exp = |b: u64| (b >> 52) & 0x7FF;
        assert!(s.iter().any(|&(a, b)| exp(a) == 0 && exp(b) == 0 && a != 0));
        assert!(s
            .iter()
            .any(|&(a, b)| sf_add(a, b) == 0 || sf_add(a, b) == 1 << 63));
        assert_eq!(s, operand_stream(64), "the stream is seeded");
    }
}
