//! One-shot artifact check: runs the paper matrix once and prints a
//! PASS/FAIL line per reproduced claim. Exit status is non-zero if any
//! claim fails its tolerance.
//!
//! ```sh
//! cargo run --release -p fblas-bench --bin verify_all
//! ```
//!
//! Every paper number is measured by exactly one job of
//! [`paper_matrix`], which carries it as a paper-parity entry on its
//! record; this binary is a view over those records. Each row of the
//! shared tolerance table ([`PAPER_TOLERANCES`]) is gated through
//! [`ParityGate`] — the same table `observatory diff` and the DRC parity
//! rule read — and a row that no record carries is a FAIL. Five
//! functional claims the records do not hold (the §4.3 reduction
//! circuit's adder count, stalls, buffer and latency bounds, and the
//! §6.4 chassis platform fit) are checked directly.
//!
//! Pass `--trace out.json` to also dump a Chrome `trace_event` timeline
//! of the reference kernels (dot, row-major `MvM`, linear-array MM block)
//! with per-component stall attribution.

use std::process::ExitCode;

use fblas_bench::paper_matrix;
use fblas_bench::synth_int;
use fblas_bench::trace::{trace_reference_kernels, TraceOption};
use fblas_core::mm::{HierarchicalMm, HierarchicalParams};
use fblas_core::reduce::{run_sets, Reducer, SingleAdderReducer};
use fblas_metrics::{ParityGate, PAPER_TOLERANCES};
use fblas_system::{Xd1Chassis, Xd1Node};

/// Gate one functional claim and print its line.
fn check_true(gate: &mut ParityGate, name: &str, cond: bool) {
    gate.check_true(name, cond);
    println!("{}", gate.last_line());
}

fn main() -> ExitCode {
    let trace = match TraceOption::parse(std::env::args().skip(1).collect()) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: verify_all [--trace <out.json>]");
            return ExitCode::from(2);
        }
    };
    let mut gate = ParityGate::new();

    println!("== Reduction circuit (§4.3) ==");
    let alpha = 14usize;
    let sets: Vec<Vec<f64>> = (0..150)
        .map(|i| synth_int(i as u64, 1 + (i * 53 + 7) % 211, 16))
        .collect();
    let total: u64 = sets.iter().map(|s| s.len() as u64).sum();
    let mut red = SingleAdderReducer::new(alpha);
    let run = run_sets(&mut red, &sets);
    check_true(&mut gate, "one floating-point adder", red.adders() == 1);
    check_true(&mut gate, "zero input stalls", run.stall_cycles == 0);
    check_true(
        &mut gate,
        "buffer within 2α²",
        run.buffer_high_water <= 2 * alpha * alpha,
    );
    check_true(
        &mut gate,
        "latency under Σs + 2α²",
        run.total_cycles < total + 2 * (alpha as u64).pow(2),
    );

    println!("\n== Paper tolerances (one paper-matrix run) ==");
    let (set, _) = paper_matrix::run_matrix(false);
    for t in PAPER_TOLERANCES {
        let carriers = set.paper_carriers(t.id);
        match carriers[..] {
            [(record, parity)] => {
                gate.check(t.id, parity.measured);
                println!("{}  [{}]", gate.last_line(), record.key());
            }
            [] => check_true(
                &mut gate,
                &format!(
                    "{}: no paper-matrix record carries `{}`",
                    t.description, t.id
                ),
                false,
            ),
            _ => check_true(
                &mut gate,
                &format!(
                    "{}: {} records carry `{}`",
                    t.description,
                    carriers.len(),
                    t.id
                ),
                false,
            ),
        }
    }

    println!("\n== §6.4 chassis platform ==");
    let fits = HierarchicalMm::new(HierarchicalParams::xd1_chassis())
        .check_platform(&Xd1Node::default(), &Xd1Chassis::default())
        .is_ok();
    check_true(&mut gate, "chassis bandwidth requirements met by XD1", fits);

    trace_reference_kernels(&trace);

    println!(
        "\n{} of {} checks failed.{}",
        gate.failures(),
        gate.checks(),
        if gate.failures() == 0 {
            " All claims reproduce."
        } else {
            ""
        }
    );
    ExitCode::from(u8::from(gate.exit_code() != 0))
}
