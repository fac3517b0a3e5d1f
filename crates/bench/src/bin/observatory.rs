//! The paper-parity observatory: canonical run records, `BENCH_<n>.json`
//! trajectory files and CI regression gates.
//!
//! ```sh
//! observatory run  [--quick] [--jobs <n>] [--backend <b>] [--dir <dir>]   # measure, persist next BENCH_<n>.json + TELEM_<n>.json
//! observatory diff <baseline.json> [--quick] [--jobs <n>] [--backend <b>] # measure, gate against a baseline
//! observatory report [--dir <dir>] [--doc <md>]           # splice scoreboards into EXPERIMENTS.md
//! observatory trend  [--dir <dir>] [--doc <md>]           # splice telemetry dashboard, gate efficiency model
//! observatory faults [--quick] [--seed <s>] [--jobs <n>] [--out <json>]  # fault campaign
//! observatory serve  [--quick] [--jobs <n>] [--backend <b>] [--dir <dir>] [--diff <baseline.json>]  # serving campaign
//! observatory scale  [--quick] [--jobs <n>] [--backend <b>] [--dir <dir>] [--diff <baseline.json>]  # multi-FPGA scaling campaign
//! observatory analyze [--dir <dir>] [--verbose]           # channel-graph static analyses
//! ```
//!
//! `run` executes the full paper matrix (every kernel family behind
//! Tables 1–4 and Figures 9–12) through the instrumented harness and
//! writes the canonical record set to the next free `BENCH_<n>.json` in
//! `--dir` (default: current directory). The records are
//! byte-deterministic; host throughput (simulated cycles per second)
//! goes to a `BENCH_<n>.wallclock.json` sidecar instead.
//!
//! Windowed telemetry is on by default: the same run seals one
//! time-resolved series per simulated kernel (busy/stall/occupancy per
//! [`DEFAULT_TELEM_WINDOW`]-cycle window plus completion-latency
//! histograms) and persists them as `TELEM_<n>.json` — byte-deterministic
//! under every `--jobs` count and every backend, exactly like the record
//! set. `--telemetry-window <cycles>` overrides the window width;
//! `--no-telemetry` disables sampling (the sidecar records either way
//! via its `telemetry_enabled`/`telemetry_window` fields).
//!
//! `trend` loads the whole committed trajectory (`BENCH_*.json` plus
//! each point's `TELEM_<n>.json`, where present), renders the telemetry
//! dashboard — per-run utilization timelines with fill/steady/drain
//! phase segmentation, the stall heatmap, completion-latency digest,
//! the steady-state efficiency scoreboard against the paper's `n/(n+α)`
//! model, and cross-PR utilization sparklines — and splices it into
//! `EXPERIMENTS.md` between the telemetry markers. Exit status is
//! non-zero if any efficiency row of the latest point falls outside the
//! model tolerance, so CI gates on the paper's efficiency law holding.
//!
//! `--jobs <n>` runs the matrix entries on an n-worker pool (default:
//! the host's available parallelism). The pool merges results through a
//! deterministic ordered reducer, so the `BENCH_<n>.json` bytes are
//! identical for every `--jobs` value — only the wallclock sidecar (and
//! its speedup fields) reflects the parallelism.
//!
//! `--backend <b>` selects the execution backend: `cycle` (default)
//! steps every simulated cycle; `fast-forward` (alias `ff`) lets designs
//! replay quiescent steady-state streaming in closed form; `native`
//! additionally substitutes blocked-microkernel results where the
//! substitution is proven bit-identical. All three produce byte-identical
//! `BENCH_<n>.json` files — the sidecar records the backend and the
//! stepped-vs-simulated cycle ratio (`backend_speedup`).
//!
//! `diff` re-measures and compares against a baseline record set
//! (`baselines/seed.json` in CI): exact cycle/flop/word/stall-counter
//! equality, bounded sustained-MFLOPS drift, no bound-classification
//! flips, and every paper-parity figure still inside its tolerance band.
//! Exit status is non-zero on any regression, so CI can gate on it.
//!
//! `report` loads every committed `BENCH_*.json`, renders the
//! paper-parity scoreboard, the kernel table and the sustained-MFLOPS
//! trajectory sparklines, and splices them into `EXPERIMENTS.md` between
//! the observatory markers. When a committed `FAULTS.json` exists it also
//! splices the fault-coverage scoreboard between the fault markers, and
//! when `SCALE_*.json` stores exist it splices the latest multi-FPGA
//! scaling ladder between the scale markers.
//!
//! `faults` runs the seeded fault-injection campaign of `fblas-faults`
//! across the same worker pool: every trial is a pure function of
//! `(--seed, family, trial index)`, so the `FAULTS.json` bytes are
//! identical at any `--jobs` value. Exit status is non-zero if any
//! ABFT-covered kernel (`mvm/*`, `mm/*`) shows a silent corruption.
//!
//! `serve` runs the BLAS-as-a-service campaign of `fblas-serve` across
//! the same worker pool: seeded multi-tenant arrival streams, admission
//! control and batch scheduling over the simulated fleet, one cell per
//! pool job. Without `--diff` it persists the next free `SERVE_<n>.json`
//! in `--dir`; with `--diff <baseline>` it instead gates the fresh
//! campaign against a committed store (exact counters, digests and SLO
//! verdicts). Either way the `fblas-check` conservation and
//! batch-amortization rules must pass. The records are byte-identical
//! at any `--jobs` count and under every backend, like everything else
//! the observatory writes.
//!
//! `scale` runs the multi-FPGA scaling campaign of `fblas-fabric`:
//! every shipped shard plan (linear-array MM across 1–12 FPGAs and up
//! to two chassis, both `MvM` orientations across 1–6 FPGAs) simulated
//! over the RocketIO/RapidArray fabric model, one plan per pool job.
//! Every row is gated against the §6.4 linear-scaling projection — a
//! measured rate above the model is a hard error, divergence beyond the
//! committed tolerance a warning — and against the `fblas-check`
//! fabric-link-budget and scale-store rules. Without `--diff` it
//! persists the next free `SCALE_<n>.json` in `--dir`; with `--diff
//! <baseline>` it gates the fresh campaign against a committed store.
//! A `--dir` that is not a directory, or a `--diff` baseline that does
//! not load, exits 2 before the campaign runs. Byte-identical at any
//! `--jobs` count and under every backend.
//!
//! `analyze` runs the `fblas-check` channel-graph analyses — the
//! deadlock-freedom proof and throughput/bandwidth cuts over every
//! shipped topology — then cross-validates every committed
//! `BENCH_*.json` record against the static throughput bound rebuilt
//! from the record's own parameters. Exit status is non-zero if any
//! proof fails or any measured rate exceeds its bound.

use std::path::PathBuf;
use std::process::ExitCode;

use fblas_bench::cli;
use fblas_bench::fault_matrix::run_fault_matrix_with_jobs;
use fblas_bench::paper_matrix::{run_matrix_telemetry, run_matrix_with_backend};
use fblas_bench::scale_matrix::run_scale_matrix_with_jobs;
use fblas_bench::serve_matrix::run_serve_matrix_with_jobs;
use fblas_check::graph::{cross_validate, topology_report};
use fblas_check::{check_scale_set, check_serve_set, fabric_link_budget_report, Severity};
use fblas_metrics::{
    bench_file_name, diff_sets, faults as obs_faults, list_bench_files, next_bench_index,
    next_serve_index, report as obs_report, scale as obs_scale, serve_file_name, RecordSet,
    ScaleSet, ServeSet, WallClock,
};
use fblas_sim::{ExecBackend, DEFAULT_TELEM_WINDOW};
use fblas_telemetry::trend::TrendPoint;
use fblas_telemetry::{render_trend_section, splice_trend_section, telem_file_name, TelemSet};

fn usage() -> ExitCode {
    eprintln!(
        "usage: observatory run  [--quick] [--jobs <n>] [--backend cycle|fast-forward|native] [--dir <dir>]\n\
                                [--telemetry-window <cycles>] [--no-telemetry]\n\
                observatory diff <baseline.json> [--quick] [--jobs <n>] [--backend <b>]\n\
                observatory report [--dir <dir>] [--doc <markdown>]\n\
                observatory trend  [--dir <dir>] [--doc <markdown>]\n\
                observatory faults [--quick] [--seed <s>] [--jobs <n>] [--out <json>]\n\
                observatory serve  [--quick] [--jobs <n>] [--backend <b>] [--dir <dir>]\n\
                                [--diff <baseline.json>]\n\
                observatory scale  [--quick] [--jobs <n>] [--backend <b>] [--dir <dir>]\n\
                                [--diff <baseline.json>]\n\
                observatory analyze [--dir <dir>] [--verbose]"
    );
    ExitCode::from(2)
}

/// Unwrap a CLI parse result or exit 2 — the one funnel every usage
/// error goes through, so `run`, `diff`, `faults` and `serve` cannot
/// drift in how they reject `--jobs 0` or an unknown `--backend`.
fn or_usage_error<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Parse `--jobs` with the shared validator, exiting 2 on bad input.
fn take_jobs(args: &mut Vec<String>) -> usize {
    or_usage_error(cli::take_jobs(args))
}

/// Parse `--backend` with the shared validator, exiting 2 on bad input.
fn take_backend(args: &mut Vec<String>) -> ExecBackend {
    or_usage_error(cli::take_backend(args))
}

/// Parse `--seed` with the shared validator, exiting 2 on bad input.
fn take_seed(args: &mut Vec<String>) -> u64 {
    or_usage_error(cli::take_seed(args))
}

/// Parse the telemetry flags with the shared validator.
fn take_telemetry(args: &mut Vec<String>) -> Option<u64> {
    or_usage_error(cli::take_telemetry(args, DEFAULT_TELEM_WINDOW))
}

/// Parse `--flag <value>` with the shared helper, exiting 2 on a flag
/// missing its value.
fn take_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    or_usage_error(cli::take_value(args, flag))
}

use cli::take_flag;

fn measure(
    quick: bool,
    jobs: usize,
    backend: ExecBackend,
    telemetry: Option<u64>,
) -> (RecordSet, WallClock, Option<TelemSet>) {
    eprintln!(
        "observatory: running the {} paper matrix on {} job(s), {} backend, telemetry {}...",
        if quick { "quick" } else { "full" },
        jobs,
        backend,
        telemetry.map_or_else(|| "off".to_string(), |w| format!("window={w}")),
    );
    let (set, wall, telem) = match telemetry {
        Some(window) => {
            let (set, wall, telem) = run_matrix_telemetry(quick, jobs, backend, window);
            (set, wall, Some(telem))
        }
        None => {
            let (set, wall) = run_matrix_with_backend(quick, jobs, backend);
            (set, wall, None)
        }
    };
    eprintln!(
        "observatory: {} record(s), {} simulated cycles in {:.2}s elapsed \
         ({:.2}s summed, {:.2}x speedup, {:.2}M cycles/s, {:.2}x backend speedup)",
        set.records.len(),
        wall.total_cycles(),
        wall.elapsed_seconds,
        wall.total_seconds(),
        wall.aggregate_speedup(),
        wall.cycles_per_second() / 1e6,
        wall.backend_speedup()
    );
    (set, wall, telem)
}

fn cmd_run(mut args: Vec<String>) -> ExitCode {
    let quick = take_flag(&mut args, "--quick");
    let jobs = take_jobs(&mut args);
    let backend = take_backend(&mut args);
    let telemetry = take_telemetry(&mut args);
    let dir = PathBuf::from(take_value(&mut args, "--dir").unwrap_or_else(|| ".".into()));
    if !args.is_empty() {
        return usage();
    }
    let (set, wall, telem) = measure(quick, jobs, backend, telemetry);
    let index = next_bench_index(&dir);
    let path = dir.join(bench_file_name(index));
    if let Err(e) = set.save(&path) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let sidecar = dir.join(format!("BENCH_{index:04}.wallclock.json"));
    if let Err(e) = std::fs::write(&sidecar, wall.to_json_string()) {
        eprintln!("error: cannot write {}: {e}", sidecar.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", path.display());
    println!("wrote {} (not for committing)", sidecar.display());
    if let Some(telem) = telem {
        let telem_path = dir.join(telem_file_name(index));
        if let Err(e) = telem.save(&telem_path) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
        println!(
            "wrote {} ({} run(s))",
            telem_path.display(),
            telem.runs.len()
        );
    }
    let failing: Vec<&str> = set
        .records
        .iter()
        .flat_map(|r| &r.paper)
        .filter(|p| !p.within_tolerance())
        .map(|p| p.figure_id.as_str())
        .collect();
    if failing.is_empty() {
        println!("paper parity: all figures within tolerance");
        ExitCode::SUCCESS
    } else {
        println!("paper parity: OUT OF TOLERANCE: {}", failing.join(", "));
        ExitCode::FAILURE
    }
}

/// Validate the wallclock sidecars `diff` can see: the freshly-measured
/// one must round-trip through the schema-validating parser (a
/// self-check on the writer), and a committed sibling of the baseline —
/// `<baseline>.wallclock.json`, when present — must parse with
/// consistent telemetry-config fields. Returns an error message when
/// either check fails.
fn validate_sidecars(wall: &WallClock, baseline_path: &std::path::Path) -> Result<(), String> {
    let own = WallClock::from_json_str(&wall.to_json_string())
        .map_err(|e| format!("own sidecar failed validation: {e}"))?;
    if own.telemetry_window != wall.telemetry_window {
        return Err("own sidecar telemetry config did not round-trip".to_string());
    }
    let sibling = baseline_path.with_extension("wallclock.json");
    if sibling.exists() {
        let parsed = WallClock::load(&sibling)?;
        eprintln!(
            "observatory: baseline sidecar {} ok (backend {}, telemetry {})",
            sibling.display(),
            parsed.backend,
            parsed
                .telemetry_window
                .map_or_else(|| "off".to_string(), |w| format!("window={w}")),
        );
    }
    Ok(())
}

fn cmd_diff(mut args: Vec<String>) -> ExitCode {
    let quick = take_flag(&mut args, "--quick");
    let jobs = take_jobs(&mut args);
    let backend = take_backend(&mut args);
    let telemetry = take_telemetry(&mut args);
    if args.len() != 1 {
        return usage();
    }
    let baseline_path = PathBuf::from(&args[0]);
    let baseline = match RecordSet::load(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (run, wall, _telem) = measure(quick, jobs, backend, telemetry);
    if let Err(e) = validate_sidecars(&wall, &baseline_path) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let report = diff_sets(&baseline, &run);
    print!("{}", report.render());
    println!("\nPaper-parity scoreboard (this run):\n");
    print!("{}", obs_report::render_scoreboard(&run));
    if report.passes() {
        println!(
            "\nobservatory diff: PASS (baseline {})",
            baseline_path.display()
        );
        ExitCode::SUCCESS
    } else {
        println!(
            "\nobservatory diff: FAIL — {} regression(s) vs {}",
            report.regressions(),
            baseline_path.display()
        );
        ExitCode::FAILURE
    }
}

fn cmd_report(mut args: Vec<String>) -> ExitCode {
    let dir = PathBuf::from(take_value(&mut args, "--dir").unwrap_or_else(|| ".".into()));
    let doc =
        PathBuf::from(take_value(&mut args, "--doc").unwrap_or_else(|| "EXPERIMENTS.md".into()));
    if !args.is_empty() {
        return usage();
    }
    let mut labels = Vec::new();
    let mut runs = Vec::new();
    for (index, path) in list_bench_files(&dir) {
        match RecordSet::load(&path) {
            Ok(set) => {
                labels.push(format!("BENCH_{index:04}"));
                runs.push(set);
            }
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    let section = obs_report::render_section(&labels, &runs);
    let document = std::fs::read_to_string(&doc).unwrap_or_default();
    let mut spliced = obs_report::splice_section(&document, &section);
    let faults_path = dir.join("FAULTS.json");
    let mut fault_note = String::new();
    if faults_path.exists() {
        match fblas_metrics::FaultSet::load(&faults_path) {
            Ok(set) => {
                let section = obs_faults::render_fault_section(&set);
                spliced = obs_faults::splice_fault_section(&spliced, &section);
                fault_note = format!(" + fault coverage ({} trials)", set.records.len());
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut scale_note = String::new();
    if let Some((index, path)) = obs_scale::list_scale_files(&dir).last() {
        match ScaleSet::load(path) {
            Ok(set) => {
                let section = obs_scale::render_scale_section(&set);
                spliced = obs_scale::splice_scale_section(&spliced, &section);
                scale_note = format!(
                    " + scaling ladder (SCALE_{index:04}, {} rows)",
                    set.records.len()
                );
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Err(e) = std::fs::write(&doc, &spliced) {
        eprintln!("error: cannot write {}: {e}", doc.display());
        return ExitCode::from(2);
    }
    println!(
        "spliced {} run(s){}{} into {} ({} bytes)",
        runs.len(),
        fault_note,
        scale_note,
        doc.display(),
        spliced.len()
    );
    ExitCode::SUCCESS
}

/// `trend`: load the committed `BENCH_*.json` trajectory plus each
/// point's `TELEM_<n>.json` (older points legitimately have none),
/// render the telemetry dashboard and splice it into the document
/// between the telemetry markers. Non-zero exit if any efficiency row
/// of the latest point is outside the paper-model tolerance.
fn cmd_trend(mut args: Vec<String>) -> ExitCode {
    let dir = PathBuf::from(take_value(&mut args, "--dir").unwrap_or_else(|| ".".into()));
    let doc =
        PathBuf::from(take_value(&mut args, "--doc").unwrap_or_else(|| "EXPERIMENTS.md".into()));
    if !args.is_empty() {
        return usage();
    }
    let bench_files = list_bench_files(&dir);
    if bench_files.is_empty() {
        eprintln!("error: no BENCH_*.json found in {}", dir.display());
        return ExitCode::from(2);
    }
    let mut points = Vec::new();
    let mut with_telem = 0usize;
    for (index, path) in bench_files {
        let records = match RecordSet::load(&path) {
            Ok(set) => set,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        let telem_path = dir.join(telem_file_name(index));
        let telem = if telem_path.exists() {
            match TelemSet::load(&telem_path) {
                Ok(set) => {
                    with_telem += 1;
                    Some(set)
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        } else {
            None
        };
        points.push(TrendPoint {
            label: format!("BENCH_{index:04}"),
            records,
            telem,
        });
    }
    let (section, out_of_tol) = render_trend_section(&points);
    let document = std::fs::read_to_string(&doc).unwrap_or_default();
    let spliced = splice_trend_section(&document, &section);
    if let Err(e) = std::fs::write(&doc, &spliced) {
        eprintln!("error: cannot write {}: {e}", doc.display());
        return ExitCode::from(2);
    }
    println!(
        "spliced telemetry dashboard ({} point(s), {} with telemetry) into {}",
        points.len(),
        with_telem,
        doc.display()
    );
    if out_of_tol == 0 {
        println!("efficiency model: every streaming design within tolerance of n/(n+α)");
        ExitCode::SUCCESS
    } else {
        println!("efficiency model: FAIL — {out_of_tol} design(s) outside tolerance");
        ExitCode::FAILURE
    }
}

fn cmd_faults(mut args: Vec<String>) -> ExitCode {
    let quick = take_flag(&mut args, "--quick");
    let seed = take_seed(&mut args);
    let jobs = take_jobs(&mut args);
    let out = PathBuf::from(take_value(&mut args, "--out").unwrap_or_else(|| "FAULTS.json".into()));
    if !args.is_empty() {
        return usage();
    }
    eprintln!(
        "observatory: running the {} fault campaign (seed {}) on {} job(s)...",
        if quick { "quick" } else { "full" },
        seed,
        jobs
    );
    let set = run_fault_matrix_with_jobs(seed, quick, jobs);
    if let Err(e) = set.save(&out) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    println!("wrote {} ({} trial(s))\n", out.display(), set.records.len());
    print!("{}", obs_faults::render_fault_scoreboard(&set));
    println!("\nGraceful degradation:\n");
    print!("{}", obs_faults::render_degradation_table(&set));
    let silent = set.covered_silent_corruptions();
    if silent == 0 {
        println!("\nfault coverage: zero silent corruptions on ABFT-covered kernels");
        ExitCode::SUCCESS
    } else {
        println!("\nfault coverage: FAIL — {silent} silent corruption(s) on ABFT-covered kernels");
        ExitCode::FAILURE
    }
}

/// `analyze`: run the channel-graph analyses (deadlock-freedom proofs,
/// throughput bounds, composed-bandwidth budgets) over every shipped
/// topology, then cross-validate every committed `BENCH_*.json` against
/// the static bounds. Exit status is non-zero on any error, so CI can
/// gate on the soundness of the model.
fn cmd_analyze(mut args: Vec<String>) -> ExitCode {
    let dir = PathBuf::from(take_value(&mut args, "--dir").unwrap_or_else(|| ".".into()));
    let verbose = take_flag(&mut args, "--verbose");
    if !args.is_empty() {
        return usage();
    }
    let mut reports = topology_report();
    let bench_files = list_bench_files(&dir);
    if bench_files.is_empty() {
        eprintln!("error: no BENCH_*.json found in {}", dir.display());
        return ExitCode::from(2);
    }
    for (_index, path) in bench_files {
        match RecordSet::load(&path) {
            Ok(set) => reports.push(cross_validate(&set)),
            Err(e) => {
                eprintln!("error: cannot load {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    let mut errors = 0;
    for report in &reports {
        print!("{}", report.render(verbose));
        errors += report.count(Severity::Error);
    }
    println!(
        "analyzed {} topology/cross-validation report(s), {} error(s)",
        reports.len(),
        errors
    );
    if errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `serve`: run the BLAS-as-a-service campaign on the worker pool,
/// persist the next free `SERVE_<n>.json`, re-check the store's
/// conservation/amortization rules, and — with `--diff <baseline>` —
/// gate the fresh campaign byte-for-byte against a committed store.
/// Exit status: 2 on usage/IO errors, 1 on any failed gate.
fn cmd_serve(mut args: Vec<String>) -> ExitCode {
    let quick = take_flag(&mut args, "--quick");
    let jobs = take_jobs(&mut args);
    let backend = take_backend(&mut args);
    let dir = PathBuf::from(take_value(&mut args, "--dir").unwrap_or_else(|| ".".into()));
    let baseline = take_value(&mut args, "--diff").map(PathBuf::from);
    if !args.is_empty() {
        return usage();
    }
    eprintln!(
        "observatory: running the {} serving campaign on {} job(s), {} backend...",
        if quick { "quick" } else { "full" },
        jobs,
        backend
    );
    let set = run_serve_matrix_with_jobs(quick, jobs, backend);
    for r in &set.records {
        println!(
            "{:24} offered {:5}  completed {:5}  rejected {:4}  in-flight {:3}  \
             batches {:4}  staging {:9} ns  p99 {}  slo {}",
            r.cell,
            r.offered(),
            r.completed(),
            r.rejected(),
            r.in_flight(),
            r.batches,
            r.staging_ns,
            r.latency
                .p99()
                .map_or_else(|| "-".to_string(), |p| format!("{p} ns")),
            if r.slo_pass { "PASS" } else { "FAIL" },
        );
    }
    let report = check_serve_set(&set);
    print!("{}", report.render(false));
    if report.count(Severity::Error) > 0 {
        println!("observatory serve: FAIL — conservation/amortization rules violated");
        return ExitCode::FAILURE;
    }
    if let Some(baseline_path) = baseline {
        let baseline = match ServeSet::load(&baseline_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        let diff = fblas_metrics::diff_serve(&set, &baseline);
        print!("{}", diff.render());
        if !diff.pass() {
            println!(
                "observatory serve: FAIL — campaign drifted from {}",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
        println!(
            "observatory serve: PASS (baseline {})",
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }
    let index = next_serve_index(&dir);
    let path = dir.join(serve_file_name(index));
    if let Err(e) = set.save(&path) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    println!("wrote {} ({} cell(s))", path.display(), set.records.len());
    ExitCode::SUCCESS
}

/// `scale`: run the multi-FPGA scaling campaign on the worker pool,
/// gate every row against the §6.4 projection and the `fblas-check`
/// fabric rules, persist the next free `SCALE_<n>.json`, and — with
/// `--diff <baseline>` — gate the fresh campaign against a committed
/// store. Exit status: 2 on usage/IO errors, 1 on any failed gate.
fn cmd_scale(mut args: Vec<String>) -> ExitCode {
    let quick = take_flag(&mut args, "--quick");
    let jobs = take_jobs(&mut args);
    let backend = take_backend(&mut args);
    let dir = PathBuf::from(take_value(&mut args, "--dir").unwrap_or_else(|| ".".into()));
    let baseline_path = take_value(&mut args, "--diff").map(PathBuf::from);
    if !args.is_empty() {
        return usage();
    }
    // Reject a bad `--dir` or `--diff` before the campaign runs, not after.
    if !dir.is_dir() {
        eprintln!("error: --dir {} is not a directory", dir.display());
        return ExitCode::from(2);
    }
    let baseline = match baseline_path
        .map(|path| ScaleSet::load(&path).map(|set| (set, path)))
        .transpose()
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "observatory: running the {} scaling campaign on {} job(s), {} backend...",
        if quick { "quick" } else { "full" },
        jobs,
        backend
    );
    let set = run_scale_matrix_with_jobs(quick, jobs, backend);
    for r in &set.records {
        println!(
            "{:14} n {:4}  cycles {:9}  {:8.1} MFLOPS  speedup {:6.3}  eff {:5.3}  \
             model {:8.1}  div {:5.1}%  starved {:7}  backpressured {:7}  {}",
            r.cell(),
            r.n,
            r.cycles,
            r.sustained_mflops,
            r.speedup,
            r.efficiency,
            r.modeled_mflops,
            r.divergence * 100.0,
            r.stalls_starved,
            r.stalls_backpressured,
            if r.within_bound { "ok" } else { "OVER MODEL" },
        );
    }
    let budgets = fabric_link_budget_report();
    print!("{}", budgets.render(false));
    let report = check_scale_set(&set);
    print!("{}", report.render(false));
    if budgets.count(Severity::Error) + report.count(Severity::Error) > 0 {
        println!("observatory scale: FAIL — fabric budget/soundness rules violated");
        return ExitCode::FAILURE;
    }
    if let Some((baseline, baseline_path)) = baseline {
        let diff = fblas_metrics::diff_scale(&set, &baseline);
        print!("{}", diff.render());
        if !diff.pass() {
            println!(
                "observatory scale: FAIL — campaign drifted from {}",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
        println!(
            "observatory scale: PASS (baseline {})",
            baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }
    let index = obs_scale::next_scale_index(&dir);
    let path = dir.join(obs_scale::scale_file_name(index));
    if let Err(e) = set.save(&path) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    println!("wrote {} ({} row(s))", path.display(), set.records.len());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "run" => cmd_run(args),
        "diff" => cmd_diff(args),
        "report" => cmd_report(args),
        "trend" => cmd_trend(args),
        "faults" => cmd_faults(args),
        "serve" => cmd_serve(args),
        "scale" => cmd_scale(args),
        "analyze" => cmd_analyze(args),
        _ => usage(),
    }
}
