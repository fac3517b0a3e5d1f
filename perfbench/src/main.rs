//! Host-time benchmark of the observatory campaigns.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-cycle|paper-native|scale-ladder|serve-faults> \
//!     [--seed <n>] [--seconds <s>] [--trace 0|1]
//! ```
//!
//! Run from the repository root: the benchmark reads the committed
//! records (`BENCH_0001.json`, `TELEM_0001.json`, `baselines/seed.json`,
//! `SCALE_0001.json`, `SERVE_0001.json`, `FAULTS.json`) from the working
//! directory. The campaigns run in one process on one thread
//! (`--jobs 1`); the timed pass adds a speed-probe thread pinned to the
//! same CPU.
//!
//! `--trace 0` repeats campaign iterations for `--seconds`, setting the
//! workload up again before each one, and reports their CPU time scaled
//! to a reference host speed (`campaign_s`, `setup_s`); each iteration
//! generates, renders and gates the records on the committed inputs,
//! and every output byte is checked against the committed store. `--trace 1` runs untraced
//! iterations, replays one from outside with a span around every call
//! into a crate, runs the layer microbenches, prints where the time
//! went and writes the spans to `perfbench/out/<workload>.trace.json`.
//! Both then run the untimed check of the inputs drawn from `--seed`.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit status is 0
//! only when every check passed; 2 on a usage error or missing inputs.

mod check;
mod host;
mod layers;
mod micro;
mod paper;
mod scale;
mod serve;
mod span;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fblas_sim::ExecBackend;

use crate::check::Tally;
use crate::layers::{Layers, DERIVED};
use crate::span::Tracer;
use crate::stats::Spread;
use crate::workload::Workload;

/// The seed that reproduces the committed inputs (it is also the seed
/// the committed `FAULTS.json` was generated with).
pub const DEFAULT_SEED: u64 = 7;

const USAGE: &str =
    "usage: perfbench --workload <paper-cycle|paper-native|scale-ladder|serve-faults> \
                     [--seed <n>] [--seconds <s>] [--trace 0|1]";

/// Where the traced pass writes its spans, relative to the repository root.
const TRACE_DIR: &str = "perfbench/out";

/// Spans the replay adds that a campaign iteration does not run: a
/// re-parse of the committed stores (set-up work), serve's standalone
/// calibration per cell and the scale ladder's standalone value pass.
/// `bench.trace_overhead_ratio` leaves them out.
const REPLAY_ONLY: &[&str] = &["metrics.parse", "serve.calibrate", "core.mm_value_pass"];

struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: not a whole number: {value}"))?;
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {value}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds: out of range: {value}"));
                }
                parsed.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "paper-cycle" => drive(|| paper::Paper::setup(ExecBackend::Cycle), &args),
        "paper-native" => drive(|| paper::Paper::setup(ExecBackend::Native), &args),
        "scale-ladder" => drive(scale::Scale::setup, &args),
        "serve-faults" => drive(serve::ServeFaults::setup, &args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// A metric for the result line: name, value, unit.
type Metric = (String, f64, String);

/// Set-ups timed before the first iteration (each takes a millisecond
/// or two on the scale ladder, about ten on the others).
const SET_UPS: usize = 40;

/// Iterations every timed pass makes, however long they take: one
/// scale-ladder iteration (about 20 s) outlasts `--seconds`, and a
/// second would double the run.
const MIN_ITERATIONS: usize = 1;

/// CPU seconds of one [`host::SpeedProbe`] pass on a quiet host (an
/// Intel Xeon with AVX-512, 2 vCPUs under KVM; busy stretches take up
/// to 14 ms): the reference speed timed figures are scaled to.
const PROBE_REFERENCE_S: f64 = 0.006;

/// One piece of timed work.
struct Piece {
    from: Instant,
    to: Instant,
    /// The calling thread's CPU seconds.
    spent: f64,
    /// The probe passes run on this thread just before and just after.
    around: [f64; 2],
}

/// Timed work, each piece followed by a [`host::SpeedProbe`] pass.
struct Timed {
    probe: host::SpeedProbe,
    last_probe: f64,
    pieces: Vec<Piece>,
}

impl Timed {
    fn new() -> Self {
        let mut probe = host::SpeedProbe::new();
        probe.measure(); // warm
        let last_probe = probe.measure();
        Self {
            probe,
            last_probe,
            pieces: Vec::new(),
        }
    }

    /// Run `f`, then a probe pass; record both.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (from, t0) = (Instant::now(), host::thread_cpu_s());
        let out = f();
        let spent = host::thread_cpu_s() - t0;
        let to = Instant::now();
        let after = self.probe.measure();
        self.pieces.push(Piece {
            from,
            to,
            spent,
            around: [self.last_probe, after],
        });
        self.last_probe = after;
        out
    }

    fn raw(&self) -> Vec<f64> {
        self.pieces.iter().map(|p| p.spent).collect()
    }

    /// Each piece's CPU seconds scaled to the reference host speed by
    /// the mean of the probe passes around it and the sampler's passes
    /// during it (short pieces rest on the passes around them, long
    /// ones on the samples), raised to the work's `sensitivity`.
    fn scaled(&self, sampler: &host::SpeedSampler, sensitivity: f64) -> Vec<f64> {
        self.pieces
            .iter()
            .map(|p| {
                let mut probes = sampler.within(p.from, p.to);
                probes.extend(p.around);
                let probe = probes.iter().sum::<f64>() / probes.len() as f64;
                p.spent * (PROBE_REFERENCE_S / probe).powf(sensitivity)
            })
            .collect()
    }
}

fn drive<W: Workload>(setup: impl Fn() -> Result<W, String>, args: &Args) -> ExitCode {
    if let Err(e) = host::peak_rss_mib() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let w = match setup() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = w.self_test() {
        eprintln!("perfbench: output-check self-test failed: {e}");
        return ExitCode::from(1);
    }
    println!(
        "perfbench: workload {} seed {}{}",
        args.workload,
        args.seed,
        if args.seed == DEFAULT_SEED {
            " (default: committed inputs)"
        } else {
            ""
        }
    );
    let (mut tally, metrics) = if args.trace {
        traced(&w, args)
    } else {
        match untraced(&w, args, &setup) {
            Ok(result) => result,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let seeded = w.seeded_check(args.seed);
    println!(
        "  seed {}:   {} operations checked, {} failed",
        args.seed, seeded.attempted, seeded.failed
    );
    tally.merge(seeded);
    for note in &tally.info {
        println!("note: {note}");
    }
    for note in &tally.notes {
        println!("FAILED: {note}");
    }
    for record in &tally.differing {
        println!("FAILED: differs from the committed record: {record}");
    }
    println!("{}", result_line(&tally, &metrics));
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The timed pass: [`SET_UPS`] set-ups, then campaign iterations for
/// `--seconds` (and at least [`MIN_ITERATIONS`]), tracing off.
///
/// Both are timed in CPU seconds of this thread (at `--jobs 1` the pool
/// runs every job on the calling thread) and scaled to the reference
/// host speed by a speed probe: other tenants of a shared host slow
/// this core to less than half speed for seconds to minutes, and
/// the scaled figure is the one that repeats from run to run. A probe
/// pass follows every piece of timed work, and while the iterations run
/// a sampler thread on the same CPU adds one every [`SAMPLE_PERIOD`].
/// `campaign_s` and `setup_s` are medians of the scaled figures; the
/// raw ones are printed too.
///
/// [`SAMPLE_PERIOD`]: host::SAMPLE_PERIOD
fn untraced<W: Workload>(
    w: &W,
    args: &Args,
    setup: &impl Fn() -> Result<W, String>,
) -> Result<(Tally, Vec<Metric>), String> {
    // Set-ups first, before the sampler starts: a sampler pass landing
    // in a set-up of a few milliseconds would share the CPU with it.
    let mut set_ups = Timed::new();
    for _ in 0..SET_UPS {
        drop(set_ups.time(setup)?);
    }
    let sampler = host::SpeedSampler::start();
    let (start, cpu0) = (Instant::now(), host::cpu_s());
    let mut iterations = Timed::new();
    let mut tally = Tally::default();
    let mut rss = None;
    let cycles = loop {
        let (out, checked) = iterations.time(|| w.iteration());
        tally.merge(checked);
        // Peak after set-up and one iteration, so it does not depend on
        // how many iterations fit in the run.
        if rss.is_none() {
            rss = Some(host::peak_rss_mib()?);
        }
        if iterations.pieces.len() >= MIN_ITERATIONS && start.elapsed() >= args.seconds {
            break w.sim_cycles(&out);
        }
    };
    let end = Instant::now();
    let sampler = sampler.finish();
    let cpu = host::cpu_s() - cpu0;
    let samples = sampler.within(start, end);
    let host_probe = samples.iter().sum::<f64>() / samples.len().max(1) as f64;

    let (campaign, campaign_raw) = (
        Spread::of(&iterations.scaled(&sampler, w.host_sensitivity())),
        Spread::of(&iterations.raw()),
    );
    let (setup, setup_raw) = (
        Spread::of(&set_ups.scaled(&sampler, 1.0)),
        Spread::of(&set_ups.raw()),
    );
    let timed: f64 = iterations.raw().iter().sum();
    let probes: f64 = iterations.pieces.iter().map(|p| p.around[1]).sum();
    let elsewhere = (cpu - sampler.cpu_s - probes - timed) / timed;
    println!(
        "  set-up:    {} runs, median {:.6} s scaled (min {:.6}, max {:.6}); \
         raw CPU median {:.6} s",
        set_ups.pieces.len(),
        setup.median,
        setup.min,
        setup.max,
        setup_raw.median
    );
    println!(
        "  campaign:  {} iterations, median {:.6} s scaled (min {:.6}, max {:.6}); \
         raw CPU median {:.6} s (min {:.6}, max {:.6})",
        iterations.pieces.len(),
        campaign.median,
        campaign.min,
        campaign.max,
        campaign_raw.median,
        campaign_raw.min,
        campaign_raw.max
    );
    println!(
        "  host:      speed probe {:.3} ms per pass (reference {:.3} ms), sampler {}pinned \
         beside the campaign; {:.1}% of the campaign's CPU time ran off its thread",
        host_probe * 1e3,
        PROBE_REFERENCE_S * 1e3,
        if sampler.pinned { "" } else { "NOT " },
        elsewhere * 100.0
    );
    println!(
        "  checked:   {} operations, {} failed",
        tally.attempted, tally.failed
    );
    let rss = rss.expect("at least one iteration ran");
    let metrics = vec![
        ("campaign_s".to_string(), campaign.median, "s".to_string()),
        (
            "sim_mcycles_per_s".to_string(),
            cycles as f64 / 1e6 / campaign.median,
            "Mcycles/s".to_string(),
        ),
        ("setup_s".to_string(), setup.median, "s".to_string()),
        ("peak_rss_mib".to_string(), rss, "MiB".to_string()),
    ];
    Ok((tally, metrics))
}

/// The traced pass: untraced iterations, the traced replay of the last
/// one, the extra layer measurements and the microbenches.
fn traced<W: Workload>(w: &W, args: &Args) -> (Tally, Vec<Metric>) {
    // Two untraced iterations: the first warms caches, the faster one is
    // the baseline of the trace overhead.
    let mut tally = Tally::default();
    let mut untraced_s = f64::INFINITY;
    let mut last = None;
    for _ in 0..2 {
        let t0 = Instant::now();
        let (out, checked) = w.iteration();
        untraced_s = untraced_s.min(t0.elapsed().as_secs_f64());
        tally.merge(checked);
        last = Some(out);
    }
    let out = last.expect("two iterations ran");

    let mut t = Tracer::new();
    let replayed = t.span("iteration", |t| w.replay(&out, t));
    tally.merge(replayed);
    let root = 0;
    let traced_s = span::ns_to_s(t.spans()[root].dur_ns());

    let mut layers = Layers::default();
    w.layers(&out, &t, &mut layers);
    for (layer, span) in [
        ("metrics.parse_s", "metrics.parse"),
        ("metrics.render_s", "metrics.render"),
        ("telemetry.render_s", "telemetry.render"),
        ("check.gate_s", "check.gate"),
    ] {
        layers.set(layer, t.total_s(span));
    }
    let render_ns = t.total_s("metrics.render") * 1e9;
    layers.set(
        "metrics.render_ns_per_byte",
        render_ns / w.rendered_bytes(&out).max(1) as f64,
    );
    let replay_only: f64 = REPLAY_ONLY.iter().map(|name| t.total_s(name)).sum();
    layers.set(
        "bench.trace_overhead_ratio",
        (traced_s - replay_only) / untraced_s,
    );
    let unattributed = t.unattributed_ratio(root);
    layers.set("bench.unattributed_ratio", unattributed);
    w.extra_layers(&mut layers);
    micro::run(&mut layers);

    print!("{}", t.where_table(&args.workload, root, 12));
    println!(
        "  spans cover {:.2}% of the traced iteration ({:.6} s); {:.2}% is under no span{}",
        (1.0 - unattributed) * 100.0,
        traced_s,
        unattributed * 100.0,
        if unattributed > 0.10 {
            " — below the 90% coverage target"
        } else {
            ""
        }
    );
    println!(
        "  untraced iteration {untraced_s:.6} s, traced {traced_s:.6} s; \
         checked {} operations, {} failed",
        tally.attempted, tally.failed
    );
    let mut table =
        String::from("per-layer metrics (0 = the workload does not enter this layer):\n");
    for (name, unit, value) in layers.all() {
        let derived = if DERIVED.contains(&name) {
            "  (derived)"
        } else {
            ""
        };
        let _ = writeln!(table, "  {name:<32} {value:>16.6} {unit}{derived}");
    }
    print!("{table}");

    let path = format!("{TRACE_DIR}/{}.trace.json", args.workload);
    match std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, t.to_chrome_json()))
    {
        Ok(()) => println!("  wrote {path} ({} spans)", t.spans().len()),
        Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
    }

    let metrics = layers
        .all()
        .into_iter()
        .map(|(n, u, v)| (n.to_string(), v, u.to_string()))
        .collect();
    (tally, metrics)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "hit",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, "hit");
        assert_eq!(a.seed, 3);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
        assert_eq!(
            args(&["--workload", "x"]).expect("defaults").seed,
            DEFAULT_SEED
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "x", "--bogus", "1"]).is_err());
    }

    /// Each workload's self-test feeds a one-byte change to each of its
    /// committed stores through the workload's own gate.
    #[test]
    fn every_workload_gate_reports_a_one_byte_change() {
        // The stores are read relative to the repository root, as the
        // benchmark runs; every test that reads files uses absolute paths.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).expect("root");
        let paper = paper::Paper::setup(ExecBackend::Cycle).expect("paper set-up");
        paper.self_test().expect("paper stores");
        let scale = scale::Scale::setup().expect("scale set-up");
        scale.self_test().expect("scale store");
        let serve = serve::ServeFaults::setup().expect("serve set-up");
        serve.self_test().expect("serve and fault stores");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut t = Tally::default();
        t.add(4, 0, "x");
        let line = result_line(&t, &[("campaign_s".into(), 0.5, "s".into())]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"campaign_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
