//! The paper-reproduction harness: the campaign matrices behind every
//! committed record, and the binaries that run them.
//!
//! | target | reproduces |
//! |---|---|
//! | `observatory` | every campaign: the paper matrix (`BENCH`/`TELEM`), faults, serve, scale |
//! | `verify_all` | PASS/FAIL on every paper claim, gated from one paper-matrix run |
//! | `ablation` | reduction-circuit, `MvM`-architecture and MM-blocking ablations |
//! | `alpha_sweep` | reduction-circuit buffer/latency bounds vs adder depth α |
//!
//! Run them with `cargo run --release -p fblas-bench --bin <name>`.
//! Every number the paper reports (Tables 3–4, Figures 9/11/12 and the
//! §6.3/§6.4 projections) is measured once, by one [`paper_matrix`] job,
//! and carried as a paper-parity entry on that job's record;
//! `verify_all` and `observatory diff` gate those entries, and
//! `observatory report` renders them into `EXPERIMENTS.md`.
//! `verify_all --trace <out.json>` also dumps a Chrome `trace_event`
//! timeline of the reference kernels (see [`trace`]).
//!
//! The `observatory` binary ties the records together: `observatory run`
//! executes the full paper matrix ([`paper_matrix`]) and persists a
//! `BENCH_<n>.json` trajectory file, `observatory diff` gates a fresh
//! run against a committed baseline, `observatory report` renders
//! the scoreboard into `EXPERIMENTS.md`, `observatory faults` fans
//! the seeded fault-injection campaign ([`fault_matrix`]) across the
//! same worker pool, `observatory serve` runs the BLAS-as-a-service
//! campaign ([`serve_matrix`]) and persists `SERVE_<n>.json`, and
//! `observatory scale` shards the linear-array kernels across the
//! simulated multi-FPGA fabric ([`scale_matrix`]) and persists
//! `SCALE_<n>.json` gated against the §6.4 projections. All of
//! them parse their flags through the shared, unit-tested [`cli`]
//! helpers (usage errors exit 2; gate failures exit 1).

pub mod cli;
pub mod fault_matrix;
pub mod paper_matrix;
pub mod pool;
pub mod record_sink;
pub mod scale_matrix;
pub mod serve_matrix;
pub mod trace;
pub mod workloads;

/// Render a fixed-width text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    println!("\n{title}");
    println!("+{line}+");
    let hdr: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!(" {h:<w$} "))
        .collect();
    println!("|{}|", hdr.join("|"));
    println!("+{line}+");
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect();
        println!("|{}|", cells.join("|"));
    }
    println!("+{line}+");
}

/// Deterministic pseudo-random matrix data in [-1, 1) without pulling a
/// generator into the hot path (xorshift on the index).
pub fn synth(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// Integer-valued synthetic data (exact summation in any order).
pub fn synth_int(seed: u64, len: usize, modulus: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 17) % modulus) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_is_deterministic_and_bounded() {
        let a = synth(42, 100);
        let b = synth(42, 100);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        assert_ne!(a, synth(43, 100));
    }

    #[test]
    fn synth_int_in_range() {
        let v = synth_int(7, 1000, 8);
        assert!(v.iter().all(|x| (0.0..8.0).contains(x) && x.fract() == 0.0));
    }
}
