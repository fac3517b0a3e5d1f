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
//! Byte-identical at any `--jobs` count and under every backend.
//!
//! `run`, `serve` and `scale` share one driver: one parse of
//! `--quick/--jobs/--backend/--dir` (plus `--diff` for `serve` and
//! `scale`) that checks every argument before any simulation runs — a
//! `--dir` that is not a directory, or a `--diff` baseline that does not
//! load, exits 2 with no campaign banner — and one tail that either
//! gates against the loaded baseline or writes the next trajectory
//! point. `faults` likewise rejects an `--out` whose directory does not
//! exist before its campaign runs, and `report`, `trend` and `analyze`
//! exit 2 without touching `--doc` when `--dir` holds no
//! `BENCH_*.json`.
//!
//! `analyze` runs the `fblas-check` channel-graph analyses — the
//! deadlock-freedom proof and throughput/bandwidth cuts over every
//! shipped topology — then cross-validates every committed
//! `BENCH_*.json` record against the static throughput bound rebuilt
//! from the record's own parameters. Exit status is non-zero if any
//! proof fails or any measured rate exceeds its bound.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fblas_bench::cli::{self, take_flag, take_value};
use fblas_bench::fault_matrix::run_fault_matrix_with_jobs;
use fblas_bench::paper_matrix::{run_matrix_telemetry, run_matrix_with_backend};
use fblas_bench::scale_matrix::run_scale_matrix_with_jobs;
use fblas_bench::serve_matrix::run_serve_matrix_with_jobs;
use fblas_check::graph::{cross_validate, topology_report};
use fblas_check::{check_scale_set, check_serve_set, fabric_link_budget_report, Severity};
use fblas_metrics::{
    diff_scale, diff_serve, diff_sets, faults as obs_faults, report as obs_report,
    scale as obs_scale, ExactDiff, FaultSet, RecordSet, Row, ScaleSet, ServeSet, Store, StoreFile,
    Trajectory, WallClock, BENCH, SCALE, SERVE, TELEM,
};
use fblas_sim::{ExecBackend, DEFAULT_TELEM_WINDOW};
use fblas_telemetry::trend::TrendPoint;
use fblas_telemetry::{render_trend_section, splice_trend_section, TelemSet};

const USAGE: &str =
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
            observatory analyze [--dir <dir>] [--verbose]";

/// Why a subcommand stopped before its gate. Either way the exit
/// status is 2, which CI tells apart from a failed gate (1).
enum Stop {
    /// Malformed command line: print the usage text.
    Usage,
    /// Bad argument value or IO failure: print the message.
    Error(String),
}

impl From<String> for Stop {
    fn from(e: String) -> Self {
        Stop::Error(e)
    }
}

/// A subcommand's exit status, or why it stopped early. Every usage and
/// IO error funnels through `main`, so no subcommand can drift in how it
/// rejects `--jobs 0` or an unknown `--backend`.
type Outcome = Result<ExitCode, Stop>;

/// Reject leftover arguments.
fn no_stray(args: &[String]) -> Result<(), Stop> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(Stop::Usage)
    }
}

/// `--dir` (default: the current directory).
fn take_dir(args: &mut Vec<String>) -> Result<PathBuf, Stop> {
    Ok(PathBuf::from(
        take_value(args, "--dir")?.unwrap_or_else(|| ".".into()),
    ))
}

/// The surface `run`, `serve` and `scale` share, checked before any
/// simulation runs.
struct Campaign<B> {
    quick: bool,
    jobs: usize,
    backend: ExecBackend,
    dir: PathBuf,
    /// The `--diff` baseline and its path, already loaded.
    baseline: Option<(B, PathBuf)>,
}

impl<B: StoreFile> Campaign<B> {
    /// Take `--quick/--jobs/--backend/--dir` out of `args`, which must
    /// then be empty (subcommand-specific flags, `--diff` among them,
    /// are taken first), and check the lot: `--dir` must be a directory
    /// and the `diff` baseline, if any, must load.
    fn parse(mut args: Vec<String>, diff: Option<String>) -> Result<Self, Stop> {
        let quick = take_flag(&mut args, "--quick");
        let jobs = cli::take_jobs(&mut args)?;
        let backend = cli::take_backend(&mut args)?;
        let dir = take_dir(&mut args)?;
        no_stray(&args)?;
        if !dir.is_dir() {
            return Err(format!("--dir {} is not a directory", dir.display()).into());
        }
        let baseline = diff
            .map(|path| {
                let path = PathBuf::from(path);
                B::load(&path).map(|set| (set, path))
            })
            .transpose()?;
        Ok(Self {
            quick,
            jobs,
            backend,
            dir,
            baseline,
        })
    }

    /// Print the "running the …" banner for `what`.
    fn announce(&self, what: &str) {
        eprintln!(
            "observatory: running the {} {what} on {} job(s), {} backend...",
            if self.quick { "quick" } else { "full" },
            self.jobs,
            self.backend
        );
    }
}

impl<R: Row> Campaign<Store<R>> {
    /// The tail `serve` and `scale` share: gate `set` against the
    /// `--diff` baseline with `diff` (exit 1 on drift), or save it as
    /// the next point of `trajectory` in `--dir`.
    fn finish(
        &self,
        set: &Store<R>,
        trajectory: Trajectory,
        noun: &str,
        diff: fn(&Store<R>, &Store<R>) -> ExactDiff,
    ) -> Outcome {
        let Some((baseline, path)) = &self.baseline else {
            let path = self
                .dir
                .join(trajectory.file_name(trajectory.next_index(&self.dir)));
            set.save(&path)?;
            println!("wrote {} ({} {noun})", path.display(), set.records.len());
            return Ok(ExitCode::SUCCESS);
        };
        let diff = diff(set, baseline);
        print!("{}", diff.render());
        if diff.pass() {
            println!(
                "observatory {}: PASS (baseline {})",
                diff.label,
                path.display()
            );
            Ok(ExitCode::SUCCESS)
        } else {
            println!(
                "observatory {}: FAIL — campaign drifted from {}",
                diff.label,
                path.display()
            );
            Ok(ExitCode::FAILURE)
        }
    }
}

/// Every `BENCH_*.json` point in `dir`, oldest first. None, or one that
/// does not load, is an error, so `report`, `trend` and `analyze` stop
/// before touching anything.
fn load_bench_points(dir: &Path) -> Result<Vec<(u64, RecordSet)>, Stop> {
    let files = BENCH.list(dir);
    if files.is_empty() {
        return Err(format!("no BENCH_*.json found in {}", dir.display()).into());
    }
    Ok(files
        .into_iter()
        .map(|(index, path)| RecordSet::load(&path).map(|set| (index, set)))
        .collect::<Result<_, _>>()?)
}

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

fn cmd_run(mut args: Vec<String>) -> Outcome {
    let telemetry = cli::take_telemetry(&mut args, DEFAULT_TELEM_WINDOW)?;
    let campaign = Campaign::<RecordSet>::parse(args, None)?;
    let (set, wall, telem) = measure(campaign.quick, campaign.jobs, campaign.backend, telemetry);
    let dir = &campaign.dir;
    let index = BENCH.next_index(dir);
    let path = dir.join(BENCH.file_name(index));
    let sidecar = dir.join(BENCH.wallclock_name(index));
    set.save(&path)?;
    wall.save(&sidecar)?;
    println!("wrote {}", path.display());
    println!("wrote {} (not for committing)", sidecar.display());
    if let Some(telem) = telem {
        let telem_path = dir.join(TELEM.file_name(index));
        telem.save(&telem_path)?;
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
        Ok(ExitCode::SUCCESS)
    } else {
        println!("paper parity: OUT OF TOLERANCE: {}", failing.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

/// Validate the wallclock sidecars `diff` can see: the freshly-measured
/// one must round-trip through the schema-validating parser (a
/// self-check on the writer), and a committed sibling of the baseline —
/// `<baseline>.wallclock.json`, when present — must parse with
/// consistent telemetry-config fields. Returns an error message when
/// either check fails.
fn validate_sidecars(wall: &WallClock, baseline_path: &Path) -> Result<(), String> {
    let own = WallClock::decode(&wall.encode())
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

fn cmd_diff(mut args: Vec<String>) -> Outcome {
    let quick = take_flag(&mut args, "--quick");
    let jobs = cli::take_jobs(&mut args)?;
    let backend = cli::take_backend(&mut args)?;
    let telemetry = cli::take_telemetry(&mut args, DEFAULT_TELEM_WINDOW)?;
    let [baseline_path] = args.as_slice() else {
        return Err(Stop::Usage);
    };
    let baseline_path = PathBuf::from(baseline_path);
    let baseline = RecordSet::load(&baseline_path)?;
    let (run, wall, _telem) = measure(quick, jobs, backend, telemetry);
    validate_sidecars(&wall, &baseline_path)?;
    let report = diff_sets(&baseline, &run);
    print!("{}", report.render());
    println!("\nPaper-parity scoreboard (this run):\n");
    print!("{}", obs_report::render_scoreboard(&run));
    if report.passes() {
        println!(
            "\nobservatory diff: PASS (baseline {})",
            baseline_path.display()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "\nobservatory diff: FAIL — {} regression(s) vs {}",
            report.regressions(),
            baseline_path.display()
        );
        Ok(ExitCode::FAILURE)
    }
}

/// `--dir` and `--doc` (default `EXPERIMENTS.md`), the whole command
/// line of `report` and `trend`.
fn take_dir_and_doc(mut args: Vec<String>) -> Result<(PathBuf, PathBuf), Stop> {
    let dir = take_dir(&mut args)?;
    let doc = take_value(&mut args, "--doc")?.unwrap_or_else(|| "EXPERIMENTS.md".into());
    no_stray(&args)?;
    Ok((dir, PathBuf::from(doc)))
}

/// Overwrite the document `doc` with `text`.
fn write_doc(doc: &Path, text: &str) -> Result<(), String> {
    std::fs::write(doc, text).map_err(|e| format!("cannot write {}: {e}", doc.display()))
}

fn cmd_report(args: Vec<String>) -> Outcome {
    let (dir, doc) = take_dir_and_doc(args)?;
    let (labels, runs): (Vec<String>, Vec<RecordSet>) = load_bench_points(&dir)?
        .into_iter()
        .map(|(index, set)| (BENCH.label(index), set))
        .unzip();
    let section = obs_report::render_section(&labels, &runs);
    let document = std::fs::read_to_string(&doc).unwrap_or_default();
    let mut spliced = obs_report::splice_section(&document, &section);
    let faults_path = dir.join("FAULTS.json");
    let mut fault_note = String::new();
    if faults_path.exists() {
        let set = FaultSet::load(&faults_path)?;
        let section = obs_faults::render_fault_section(&set);
        spliced = obs_faults::splice_fault_section(&spliced, &section);
        fault_note = format!(" + fault coverage ({} trials)", set.records.len());
    }
    let mut scale_note = String::new();
    if let Some((index, path)) = SCALE.list(&dir).pop() {
        let set = ScaleSet::load(&path)?;
        let section = obs_scale::render_scale_section(&set);
        spliced = obs_scale::splice_scale_section(&spliced, &section);
        scale_note = format!(
            " + scaling ladder ({}, {} rows)",
            SCALE.label(index),
            set.records.len()
        );
    }
    write_doc(&doc, &spliced)?;
    println!(
        "spliced {} run(s){}{} into {} ({} bytes)",
        runs.len(),
        fault_note,
        scale_note,
        doc.display(),
        spliced.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// `trend`: load the committed `BENCH_*.json` trajectory plus each
/// point's `TELEM_<n>.json` (older points legitimately have none),
/// render the telemetry dashboard and splice it into the document
/// between the telemetry markers. Non-zero exit if any efficiency row
/// of the latest point is outside the paper-model tolerance.
fn cmd_trend(args: Vec<String>) -> Outcome {
    let (dir, doc) = take_dir_and_doc(args)?;
    let mut points = Vec::new();
    for (index, records) in load_bench_points(&dir)? {
        let telem_path = dir.join(TELEM.file_name(index));
        let telem = if telem_path.exists() {
            Some(TelemSet::load(&telem_path)?)
        } else {
            None
        };
        points.push(TrendPoint {
            label: BENCH.label(index),
            records,
            telem,
        });
    }
    let with_telem = points.iter().filter(|p| p.telem.is_some()).count();
    let (section, out_of_tol) = render_trend_section(&points);
    let document = std::fs::read_to_string(&doc).unwrap_or_default();
    write_doc(&doc, &splice_trend_section(&document, &section))?;
    println!(
        "spliced telemetry dashboard ({} point(s), {} with telemetry) into {}",
        points.len(),
        with_telem,
        doc.display()
    );
    if out_of_tol == 0 {
        println!("efficiency model: every streaming design within tolerance of n/(n+α)");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("efficiency model: FAIL — {out_of_tol} design(s) outside tolerance");
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_faults(mut args: Vec<String>) -> Outcome {
    let quick = take_flag(&mut args, "--quick");
    let seed = cli::take_seed(&mut args)?;
    let jobs = cli::take_jobs(&mut args)?;
    let out =
        PathBuf::from(take_value(&mut args, "--out")?.unwrap_or_else(|| "FAULTS.json".into()));
    no_stray(&args)?;
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        if !parent.is_dir() {
            return Err(format!("--out directory {} does not exist", parent.display()).into());
        }
    }
    eprintln!(
        "observatory: running the {} fault campaign (seed {}) on {} job(s)...",
        if quick { "quick" } else { "full" },
        seed,
        jobs
    );
    let set = run_fault_matrix_with_jobs(seed, quick, jobs);
    set.save(&out)?;
    println!("wrote {} ({} trial(s))\n", out.display(), set.records.len());
    print!("{}", obs_faults::render_fault_scoreboard(&set));
    println!("\nGraceful degradation:\n");
    print!("{}", obs_faults::render_degradation_table(&set));
    let silent = set.covered_silent_corruptions();
    if silent == 0 {
        println!("\nfault coverage: zero silent corruptions on ABFT-covered kernels");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("\nfault coverage: FAIL — {silent} silent corruption(s) on ABFT-covered kernels");
        Ok(ExitCode::FAILURE)
    }
}

/// `analyze`: run the channel-graph analyses (deadlock-freedom proofs,
/// throughput bounds, composed-bandwidth budgets) over every shipped
/// topology, then cross-validate every committed `BENCH_*.json` against
/// the static bounds. Exit status is non-zero on any error, so CI can
/// gate on the soundness of the model.
fn cmd_analyze(mut args: Vec<String>) -> Outcome {
    let dir = take_dir(&mut args)?;
    let verbose = take_flag(&mut args, "--verbose");
    no_stray(&args)?;
    let points = load_bench_points(&dir)?;
    let mut reports = topology_report();
    reports.extend(points.iter().map(|(_, set)| cross_validate(set)));
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
    Ok(if errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `serve`: run the BLAS-as-a-service campaign on the worker pool,
/// re-check the store's conservation/amortization rules, then persist
/// the next free `SERVE_<n>.json` or — with `--diff <baseline>` — gate
/// the fresh campaign byte-for-byte against a committed store.
/// Exit status: 2 on usage/IO errors, 1 on any failed gate.
fn cmd_serve(mut args: Vec<String>) -> Outcome {
    let diff = take_value(&mut args, "--diff")?;
    let campaign = Campaign::<ServeSet>::parse(args, diff)?;
    campaign.announce("serving campaign");
    let set = run_serve_matrix_with_jobs(campaign.quick, campaign.jobs, campaign.backend);
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
        return Ok(ExitCode::FAILURE);
    }
    campaign.finish(&set, SERVE, "cell(s)", diff_serve)
}

/// `scale`: run the multi-FPGA scaling campaign on the worker pool,
/// gate every row against the §6.4 projection and the `fblas-check`
/// fabric rules, then persist the next free `SCALE_<n>.json` or — with
/// `--diff <baseline>` — gate the fresh campaign against a committed
/// store. Exit status: 2 on usage/IO errors, 1 on any failed gate.
fn cmd_scale(mut args: Vec<String>) -> Outcome {
    let diff = take_value(&mut args, "--diff")?;
    let campaign = Campaign::<ScaleSet>::parse(args, diff)?;
    campaign.announce("scaling campaign");
    let set = run_scale_matrix_with_jobs(campaign.quick, campaign.jobs, campaign.backend);
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
        return Ok(ExitCode::FAILURE);
    }
    campaign.finish(&set, SCALE, "row(s)", diff_scale)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    let outcome = match cmd.as_str() {
        "run" => cmd_run(args),
        "diff" => cmd_diff(args),
        "report" => cmd_report(args),
        "trend" => cmd_trend(args),
        "faults" => cmd_faults(args),
        "serve" => cmd_serve(args),
        "scale" => cmd_scale(args),
        "analyze" => cmd_analyze(args),
        _ => Err(Stop::Usage),
    };
    outcome.unwrap_or_else(|stop| {
        match stop {
            Stop::Usage => eprintln!("{USAGE}"),
            Stop::Error(e) => eprintln!("error: {e}"),
        }
        ExitCode::from(2)
    })
}
