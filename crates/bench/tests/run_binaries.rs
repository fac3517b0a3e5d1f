//! Smoke tests for the bench binaries: the observatory campaigns must be
//! deterministic and self-diff clean, every CLI must reject bad
//! arguments before it does any work, and `alpha_sweep` must run to
//! completion (its internal assertions re-check the reducer bounds).
//! `verify_all` runs the full paper matrix, so it is exercised by
//! `cargo run --release` in CI; here only its argument checks run.

use std::process::Command;

use fblas_metrics::StoreFile;

fn run(bin: &str) {
    let status = Command::new(bin)
        .status()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(status.success(), "{bin} exited with {status}");
}

#[test]
fn alpha_sweep_runs() {
    run(env!("CARGO_BIN_EXE_alpha_sweep"));
}

/// `verify_all` checks its arguments before it runs the paper matrix:
/// an unknown argument, a `--trace` with no path and a trace path in a
/// missing directory each exit 2 with an `error:` line and print no
/// check line.
#[test]
fn verify_all_rejects_bad_arguments_before_running() {
    let missing = std::env::temp_dir()
        .join("fblas_verify_all_nonexistent")
        .join("t.json");
    let missing = missing.display().to_string();
    let in_missing = format!("--trace={missing}");
    let cases: [(&[&str], &str); 5] = [
        (&["--bogus"], "unknown argument `--bogus`"),
        (&["--json", "out.json"], "unknown argument `--json`"),
        (&["--trace"], "--trace requires a value"),
        (&["--trace", &missing], "does not exist"),
        (&[&in_missing], "does not exist"),
    ];
    for (args, needle) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_verify_all"))
            .args(args)
            .output()
            .expect("failed to launch verify_all");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("error:") && stderr.contains(needle),
            "{args:?}: stderr was {stderr:?}"
        );
        assert!(
            output.stdout.is_empty(),
            "{args:?}: checks ran first: {}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
}

/// `observatory run --quick` smoke: two runs into the same directory must
/// produce byte-identical BENCH files, and `observatory diff` against the
/// first file must be clean (exit 0).
#[test]
fn observatory_quick_run_is_deterministic_and_self_diffs_clean() {
    let dir = std::env::temp_dir().join("fblas_observatory_smoke");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let observatory = env!("CARGO_BIN_EXE_observatory");

    for _ in 0..2 {
        let status = Command::new(observatory)
            .args(["run", "--quick", "--dir"])
            .arg(&dir)
            .status()
            .expect("failed to launch observatory");
        assert!(status.success(), "observatory run exited with {status}");
    }
    let first = std::fs::read(dir.join("BENCH_0001.json")).expect("BENCH_0001 missing");
    let second = std::fs::read(dir.join("BENCH_0002.json")).expect("BENCH_0002 missing");
    assert_eq!(first, second, "BENCH files must be byte-identical");

    let status = Command::new(observatory)
        .args(["diff", "--quick"])
        .arg(dir.join("BENCH_0001.json"))
        .status()
        .expect("failed to launch observatory diff");
    assert!(status.success(), "self-diff must be clean, got {status}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `observatory run --jobs N` smoke: the pooled run must write BENCH
/// bytes identical to the serial run, and its wallclock sidecar must
/// carry the job count and speedup fields.
#[test]
fn observatory_parallel_run_matches_serial_bytes() {
    let observatory = env!("CARGO_BIN_EXE_observatory");
    let mut bench = Vec::new();
    for jobs in ["1", "3"] {
        let dir = std::env::temp_dir().join(format!("fblas_observatory_jobs_{jobs}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let status = Command::new(observatory)
            .args(["run", "--quick", "--jobs", jobs, "--dir"])
            .arg(&dir)
            .status()
            .expect("failed to launch observatory");
        assert!(status.success(), "--jobs {jobs} run exited with {status}");
        bench.push(std::fs::read(dir.join("BENCH_0001.json")).expect("BENCH_0001 missing"));
        let sidecar = std::fs::read_to_string(dir.join("BENCH_0001.wallclock.json"))
            .expect("wallclock sidecar missing");
        assert!(
            sidecar.contains(&format!("\"jobs\": {jobs}")),
            "sidecar must record the job count: {sidecar}"
        );
        for field in ["elapsed_seconds", "aggregate_speedup", "speedup_share"] {
            assert!(sidecar.contains(field), "sidecar lacks {field}: {sidecar}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        bench[0], bench[1],
        "BENCH bytes must not depend on the worker count"
    );
}

/// Bad `--jobs` values must be rejected up front with exit status 2 and
/// a diagnostic, not silently clamped or crashed on later.
#[test]
fn observatory_rejects_bad_jobs_values() {
    let observatory = env!("CARGO_BIN_EXE_observatory");
    for (cmd, bad) in [
        ("run", "0"),
        ("run", "four"),
        ("diff", "0"),
        ("faults", "-2"),
        ("serve", "0"),
        ("serve", "none"),
        ("scale", "0"),
        ("scale", "none"),
    ] {
        let output = Command::new(observatory)
            .args([cmd, "--quick", "--jobs", bad])
            .output()
            .expect("failed to launch observatory");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{cmd} --jobs {bad}: {:?}",
            output.status
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--jobs requires a positive integer"),
            "{cmd} --jobs {bad}: stderr was {stderr:?}"
        );
    }
}

/// Every campaign checks its arguments before it runs: a `--dir` that
/// is not a directory, a `--diff` baseline that does not load (missing,
/// nested too deep to parse, truncated, empty, or of another schema
/// version) and a `faults --out` in a missing directory all exit 2 with
/// an error, no campaign banner and no store written.
#[test]
fn observatory_rejects_bad_arguments_before_running() {
    let observatory = env!("CARGO_BIN_EXE_observatory");
    let dir = std::env::temp_dir().join("fblas_observatory_fail_fast");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let missing_dir = dir.join("nonexistent").join("x");
    let missing_baseline = dir.join("nonexistent.json");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(1_000_000)).expect("deep baseline");
    let (dir_s, missing) = (dir.display().to_string(), missing_dir.display().to_string());
    let bad_out = missing_dir.join("F.json").display().to_string();
    let (no_base, deep_s) = (
        missing_baseline.display().to_string(),
        deep.display().to_string(),
    );
    let mut cases: Vec<(Vec<String>, &str)> = [
        &["run", "--quick", "--dir", &missing][..],
        &["serve", "--quick", "--dir", &missing],
        &["serve", "--quick", "--dir", &dir_s, "--diff", &no_base],
        &["faults", "--quick", "--out", &bad_out],
        &["scale", "--quick", "--dir", &missing],
        &["scale", "--quick", "--dir", &dir_s, "--diff", &no_base],
        &["scale", "--quick", "--dir", &dir_s, "--diff", &deep_s],
        &["serve", "--quick", "--dir", &dir_s, "--diff", &deep_s],
    ]
    .iter()
    .map(|args| (args.iter().map(|a| (*a).to_string()).collect(), "error:"))
    .collect();

    // Damaged copies of each committed store, fed to the subcommand
    // that gates against that kind.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut baselines = Vec::new();
    for (store, cmd) in [
        ("BENCH", &["diff", "--quick"][..]),
        ("SERVE", &["serve", "--quick", "--diff"]),
        ("SCALE", &["scale", "--quick", "--diff"]),
    ] {
        let text =
            std::fs::read_to_string(format!("{root}/{store}_0001.json")).expect("committed store");
        let version = "\"schema_version\": ";
        assert!(text.contains(version), "{store} store lacks {version}");
        let (head, tail) = text.split_at(text.find(version).unwrap() + version.len());
        let other_schema = format!("{head}999{}", tail.trim_start_matches(char::is_numeric));
        for (damage, content, needle) in [
            (
                "truncated",
                text[..200].to_string(),
                "JSON error at byte 200",
            ),
            ("empty", String::new(), "JSON error at byte 0"),
            ("schema", other_schema, "schema version mismatch"),
        ] {
            let path = dir.join(format!("{store}-{damage}.json"));
            std::fs::write(&path, content).expect("damaged baseline");
            let mut args: Vec<String> = cmd.iter().map(|a| (*a).to_string()).collect();
            args.push(path.display().to_string());
            cases.push((args, needle));
            baselines.push(path.file_name().expect("file name").to_owned());
        }
    }

    for (args, needle) in &cases {
        let output = Command::new(observatory)
            .args(args)
            .output()
            .expect("failed to launch observatory");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{args:?}: {:?}",
            output.status
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            !stderr.contains("running the"),
            "{args:?}: the campaign ran first; stderr was {stderr:?}"
        );
        assert!(
            stderr.contains("error:") && stderr.contains(needle),
            "{args:?}: stderr was {stderr:?}"
        );
    }
    assert!(!missing_dir.exists());
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("temp dir")
        .filter_map(Result::ok)
        .map(|e| e.file_name())
        .filter(|name| name != "deep.json" && !baselines.contains(name))
        .collect();
    assert!(written.is_empty(), "wrote {written:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `report` must not splice an empty scoreboard over the committed one:
/// with no `BENCH_*.json` in `--dir` (missing or empty directory) it
/// exits 2 and leaves `--doc` byte-untouched, like `trend` and
/// `analyze`.
#[test]
fn observatory_report_leaves_doc_untouched_without_bench_points() {
    let observatory = env!("CARGO_BIN_EXE_observatory");
    let dir = std::env::temp_dir().join("fblas_observatory_report_guard");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(dir.join("empty")).expect("temp dir");
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let before = std::fs::read(committed).expect("EXPERIMENTS.md");
    let doc = dir.join("EXPERIMENTS.md");
    std::fs::write(&doc, &before).expect("doc copy");
    for cmd in ["report", "trend", "analyze"] {
        for bench_dir in [dir.join("nonexistent"), dir.join("empty")] {
            let mut command = Command::new(observatory);
            command.args([cmd, "--dir"]).arg(&bench_dir);
            if cmd != "analyze" {
                command.arg("--doc").arg(&doc);
            }
            let output = command.output().expect("failed to launch observatory");
            assert_eq!(output.status.code(), Some(2), "{cmd} {bench_dir:?}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(stderr.contains("no BENCH_*.json"), "{cmd}: {stderr:?}");
            assert!(
                std::fs::read(&doc).expect("doc copy") == before,
                "{cmd} {bench_dir:?} rewrote --doc"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Unknown `--backend` names must be rejected with exit status 2 and the
/// shared parser's diagnostic on every subcommand that accepts the flag.
#[test]
fn observatory_rejects_unknown_backends() {
    let observatory = env!("CARGO_BIN_EXE_observatory");
    for cmd in ["run", "diff", "serve", "scale"] {
        let output = Command::new(observatory)
            .args([cmd, "--quick", "--backend", "warp-drive"])
            .output()
            .expect("failed to launch observatory");
        assert_eq!(
            output.status.code(),
            Some(2),
            "{cmd} --backend warp-drive: {:?}",
            output.status
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--backend:"),
            "{cmd}: stderr was {stderr:?}"
        );
    }
}

/// `observatory serve --quick` smoke: the run must write a loadable
/// `SERVE_0001.json`, pass the conservation checks it runs internally,
/// and a `--diff` against its own output must be clean (exit 0).
#[test]
fn observatory_serve_writes_store_and_self_diffs_clean() {
    let dir = std::env::temp_dir().join("fblas_observatory_serve_smoke");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let observatory = env!("CARGO_BIN_EXE_observatory");

    for _ in 0..2 {
        let status = Command::new(observatory)
            .args(["serve", "--quick", "--dir"])
            .arg(&dir)
            .status()
            .expect("failed to launch observatory serve");
        assert!(status.success(), "observatory serve exited with {status}");
    }
    let first = std::fs::read(dir.join("SERVE_0001.json")).expect("SERVE_0001 missing");
    let second = std::fs::read(dir.join("SERVE_0002.json")).expect("SERVE_0002 missing");
    assert_eq!(first, second, "SERVE files must be byte-identical");

    let set =
        fblas_metrics::ServeSet::load(&dir.join("SERVE_0001.json")).expect("store must parse");
    assert!(!set.records.is_empty(), "serve campaign must emit records");

    let status = Command::new(observatory)
        .args(["serve", "--quick", "--diff"])
        .arg(dir.join("SERVE_0001.json"))
        .status()
        .expect("failed to launch observatory serve --diff");
    assert!(status.success(), "self-diff must be clean, got {status}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `observatory scale --quick` smoke: two runs into the same directory
/// must write byte-identical SCALE stores, the store must load and carry
/// records, a `--diff` against the first file must be clean (exit 0),
/// and a stray positional argument must be rejected with exit status 2.
#[test]
fn observatory_scale_writes_store_and_self_diffs_clean() {
    let dir = std::env::temp_dir().join("fblas_observatory_scale_smoke");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let observatory = env!("CARGO_BIN_EXE_observatory");

    for _ in 0..2 {
        let status = Command::new(observatory)
            .args(["scale", "--quick", "--dir"])
            .arg(&dir)
            .status()
            .expect("failed to launch observatory scale");
        assert!(status.success(), "observatory scale exited with {status}");
    }
    let first = std::fs::read(dir.join("SCALE_0001.json")).expect("SCALE_0001 missing");
    let second = std::fs::read(dir.join("SCALE_0002.json")).expect("SCALE_0002 missing");
    assert_eq!(first, second, "SCALE files must be byte-identical");

    let set =
        fblas_metrics::ScaleSet::load(&dir.join("SCALE_0001.json")).expect("store must parse");
    assert!(!set.records.is_empty(), "scale campaign must emit records");

    let status = Command::new(observatory)
        .args(["scale", "--quick", "--diff"])
        .arg(dir.join("SCALE_0001.json"))
        .status()
        .expect("failed to launch observatory scale --diff");
    assert!(status.success(), "self-diff must be clean, got {status}");
    std::fs::remove_dir_all(&dir).ok();

    let output = Command::new(observatory)
        .args(["scale", "--quick", "extra-positional"])
        .output()
        .expect("failed to launch observatory scale");
    assert_eq!(
        output.status.code(),
        Some(2),
        "stray positional must exit 2: {:?}",
        output.status
    );
}

/// `observatory faults` smoke: the campaign must exit clean (zero silent
/// corruptions on covered kernels), write a loadable fault set, and emit
/// byte-identical files at any worker count.
#[test]
fn observatory_fault_campaign_is_deterministic_across_jobs() {
    let observatory = env!("CARGO_BIN_EXE_observatory");
    let mut files = Vec::new();
    for jobs in ["1", "4"] {
        let out = std::env::temp_dir().join(format!("fblas_faults_jobs_{jobs}.json"));
        std::fs::remove_file(&out).ok();
        let status = Command::new(observatory)
            .args(["faults", "--quick", "--seed", "7", "--jobs", jobs, "--out"])
            .arg(&out)
            .status()
            .expect("failed to launch observatory faults");
        assert!(status.success(), "--jobs {jobs} campaign exited {status}");
        files.push(std::fs::read(&out).expect("FAULTS file missing"));
        let set = fblas_metrics::FaultSet::load(&out).expect("fault set must parse");
        assert_eq!(set.seed, 7);
        assert!(!set.records.is_empty());
        std::fs::remove_file(&out).ok();
    }
    assert_eq!(
        files[0], files[1],
        "FAULTS bytes must not depend on the worker count"
    );
}
