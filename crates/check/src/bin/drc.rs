//! `drc` — run every static analysis the workspace ships:
//!
//! * the design-rule checker over every shipped configuration;
//! * the paper-parity coverage rule (the shared tolerance table vs. the
//!   paper entries of the committed `BENCH_0001.json`);
//! * the bench-thread-containment rule over the bench sources;
//! * the fault-hook-purity rule over the whole workspace;
//! * the workspace determinism lint over the result-affecting crates;
//! * the fast-path parity coverage rule (every `fast_forward` override
//!   pinned bit-identical by the backend parity suite);
//! * the telemetry-metric-registry rule (every emitted component id
//!   declared with a docstring, every declaration still emitted);
//! * the channel-graph analyses (deadlock-freedom proofs, throughput
//!   bounds, composed-bandwidth budgets) over every shipped topology;
//! * the fabric-link-budget rule (steady-state demand vs. link rate)
//!   over every multi-FPGA plan the scaling campaign ships;
//! * the BENCH cross-validation (measured rate vs. static bound) over
//!   the committed `BENCH_0001.json`.
//!
//! Flags:
//!
//! * `--verbose` / `-v` — also print the Info diagnostics (satisfied
//!   bounds and their margins).
//! * `--format text|json` — output format (default `text`). The JSON
//!   document is `{schema_version, reports: [...], errors, warnings}`
//!   with one entry per report in run order, each carrying its full
//!   diagnostic list; byte-deterministic for a given tree.
//! * `--infeasible-fixture` — instead check the §6.2 counter-example
//!   (k = 10 PEs next to the XD1 RT core) and exit non-zero with its
//!   `§6.2-area` diagnostic, demonstrating what a violation looks like.
//!
//! Exit status (stable contract, relied on by CI):
//!
//! * `0` — every analysis ran and found zero errors;
//! * `1` — the analyses ran and at least one reported an error;
//! * `2` — usage error or an analysis could not run (unreadable tree,
//!   missing BENCH file).

use fblas_check::determinism::determinism_report;
use fblas_check::drc::{check, infeasible_k10_with_rt_core, shipped_design_points};
use fblas_check::fabric::fabric_link_budget_report;
use fblas_check::fastpath::fast_path_report;
use fblas_check::graph::{bench_cross_validation_report, topology_report};
use fblas_check::hooks::fault_hook_report;
use fblas_check::parity::coverage_report;
use fblas_check::telemetry::metric_registry_report;
use fblas_check::threads::{bench_thread_report, repo_root};
use fblas_check::{Report, Severity};
use fblas_metrics::Json;

fn usage_exit() -> ! {
    eprintln!("usage: drc [--verbose|-v] [--format text|json] [--infeasible-fixture]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut verbose = false;
    let mut json = false;
    let mut fixture = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--verbose" | "-v" => verbose = true,
            "--infeasible-fixture" => fixture = true,
            "--format" => match it.next().map(String::as_str) {
                Some("text") => json = false,
                Some("json") => json = true,
                other => {
                    eprintln!("drc: --format takes `text` or `json`, got {other:?}");
                    usage_exit();
                }
            },
            unknown => {
                eprintln!("drc: unknown argument `{unknown}`");
                usage_exit();
            }
        }
    }

    let points = if fixture {
        vec![infeasible_k10_with_rt_core()]
    } else {
        shipped_design_points()
    };

    let mut reports: Vec<Report> = points.iter().map(check).collect();
    let root = repo_root();
    let scans: [(&str, Result<Report, String>); 6] = [
        (
            "BENCH paper-parity entries",
            coverage_report(&root.join("BENCH_0001.json")),
        ),
        (
            "bench sources",
            bench_thread_report(&root).map_err(|e| e.to_string()),
        ),
        (
            "workspace sources",
            fault_hook_report(&root).map_err(|e| e.to_string()),
        ),
        (
            "policed sources",
            determinism_report(&root).map_err(|e| e.to_string()),
        ),
        (
            "fast-path sources",
            fast_path_report(&root).map_err(|e| e.to_string()),
        ),
        (
            "datapath metric sites",
            metric_registry_report(&root).map_err(|e| e.to_string()),
        ),
    ];
    for (what, scan) in scans {
        match scan {
            Ok(report) => reports.push(report),
            Err(e) => {
                eprintln!("drc: cannot scan {what}: {e}");
                std::process::exit(2);
            }
        }
    }
    reports.extend(topology_report());
    reports.push(fabric_link_budget_report());
    match bench_cross_validation_report(&root.join("BENCH_0001.json")) {
        Ok(report) => reports.push(report),
        Err(e) => {
            eprintln!("drc: cannot cross-validate BENCH records: {e}");
            std::process::exit(2);
        }
    }

    let errors: usize = reports.iter().map(|r| r.count(Severity::Error)).sum();
    let warnings: usize = reports.iter().map(|r| r.count(Severity::Warning)).sum();
    if json {
        let doc = Json::obj()
            .with("schema_version", Json::Num(1.0))
            .with(
                "reports",
                Json::Arr(reports.iter().map(Report::to_json).collect()),
            )
            .with("errors", Json::Num(errors as f64))
            .with("warnings", Json::Num(warnings as f64));
        println!("{}", doc.render());
    } else {
        for report in &reports {
            print!("{}", report.render(verbose));
        }
        println!("checked {} report(s), {} error(s)", reports.len(), errors);
    }
    if errors > 0 {
        std::process::exit(1);
    }
}
