//! The serving campaign: cells for `observatory serve`.
//!
//! Each cell is one [`CellSpec`] — a batchable request class, a tenant
//! mix, an admission policy and a batching mode. A campaign runs in two
//! rounds on the shared worker pool: one job per distinct
//! [`ShapeClass`] calibrates that class on a worker's harness, then one
//! job per cell replays its arrivals at its class's profile. Both
//! rounds parallelize exactly like the paper matrix: self-scheduled
//! workers, ordered reduction, byte-identical [`ServeSet`] at any
//! `--jobs` count and under every execution backend (calibration is
//! backend-invariant by the PR-7 parity contract).
//!
//! The campaign is built around *paired* cells: for each class and
//! load, a `b1` cell (no batching) and a `b<k>` sibling identical in
//! every other way. The pair is the experiment — the `fblas-check`
//! amortization rule and the `observatory serve` gate both require the
//! batched member to pay strictly less DRAM->SRAM staging, which is
//! the serving-side restatement of the paper's Table 4 argument that
//! data movement, not compute, dominates the Level-2 design.

use fblas_metrics::ServeSet;
use fblas_serve::{calibrate, run_profiled, CellSpec, KernelFamily, ShapeClass, TenantSpec};
use fblas_sim::ExecBackend;

use crate::pool::{run_ordered_with_backend, Job};

/// Window width for the per-tenant completion/rejection series, ns.
pub const SERVE_WINDOW_NS: u64 = 250_000;

fn class(family: KernelFamily, n: usize) -> ShapeClass {
    ShapeClass { family, n }
}

/// A batched/unbatched cell pair over the same spec.
fn pair(base: CellSpec, batch: u64) -> Vec<CellSpec> {
    let mut b1 = base.clone();
    b1.name = format!("{}/b1", base.name);
    b1.max_batch = 1;
    let mut bk = base;
    bk.name = format!("{}/b{batch}", bk.name);
    bk.max_batch = batch;
    vec![b1, bk]
}

/// The campaign cells. `quick` keeps CI fast with small classes; the
/// full campaign adds the paper-scale `mvm1024` pair whose staging
/// split is the Table 4 story itself.
pub fn serve_cells(quick: bool) -> Vec<CellSpec> {
    let mut cells = Vec::new();

    // Two open-loop tenants over the dot tree: a well-behaved stream
    // and a token-bucketed one, drained so every admitted request
    // completes.
    cells.extend(pair(
        CellSpec {
            name: "dot64/open".to_string(),
            class: class(KernelFamily::Dot, 64),
            tenants: vec![
                TenantSpec::open("batch", 4_000, 32),
                TenantSpec::open("metered", 9_000, 8).with_tokens(8, 20_000),
            ],
            seed: 11,
            max_batch: 1,
            drain: true,
            horizon_ns: 2_000_000,
            window_ns: SERVE_WINDOW_NS,
            slo_p99_ns: 400_000,
        },
        8,
    ));

    // The Level-2 design under open load: staging dominates compute,
    // so this is where batching pays the most.
    cells.extend(pair(
        CellSpec {
            name: "mvm128/open".to_string(),
            class: class(KernelFamily::Mvm, 128),
            tenants: vec![
                TenantSpec::open("batch", 400_000, 32),
                TenantSpec::open("burst", 900_000, 4),
            ],
            seed: 23,
            max_batch: 1,
            drain: true,
            horizon_ns: 20_000_000,
            window_ns: SERVE_WINDOW_NS,
            slo_p99_ns: 10_000_000,
        },
        4,
    ));

    // A closed-loop axpy tenant: population-bounded concurrency, the
    // self-throttling regime.
    cells.push(CellSpec {
        name: "axpy256/closed/b4".to_string(),
        class: class(KernelFamily::Axpy, 256),
        tenants: vec![TenantSpec::closed("think", 6, 20_000, 16)],
        seed: 37,
        max_batch: 4,
        drain: true,
        horizon_ns: 4_000_000,
        window_ns: SERVE_WINDOW_NS,
        slo_p99_ns: 300_000,
    });

    // Overload with the generators still running at the horizon and no
    // drain: the cell that exercises honest in-flight accounting and
    // both rejection paths.
    cells.push(CellSpec {
        name: "mvm128/storm/b4".to_string(),
        class: class(KernelFamily::Mvm, 128),
        tenants: vec![
            TenantSpec::open("flood", 30_000, 12),
            TenantSpec::open("metered", 60_000, 64).with_tokens(4, 2_000_000),
        ],
        seed: 53,
        max_batch: 4,
        drain: false,
        horizon_ns: 10_000_000,
        window_ns: SERVE_WINDOW_NS,
        slo_p99_ns: 5_000_000,
    });

    if !quick {
        // Paper scale: the 1024x1024 MvM whose 8.0 ms total vs 1.6 ms
        // compute split motivated the whole staging model (Table 4).
        cells.extend(pair(
            CellSpec {
                name: "mvm1024/open".to_string(),
                class: class(KernelFamily::Mvm, 1024),
                tenants: vec![
                    TenantSpec::open("batch", 20_000_000, 16),
                    TenantSpec::open("metered", 50_000_000, 8).with_tokens(4, 40_000_000),
                ],
                seed: 71,
                max_batch: 1,
                drain: true,
                horizon_ns: 400_000_000,
                window_ns: 4_000_000,
                slo_p99_ns: 400_000_000,
            },
            4,
        ));

        // A longer dot-tree run with a closed-loop tenant sharing the
        // fleet with an open stream.
        cells.push(CellSpec {
            name: "dot4096/mixed/b8".to_string(),
            class: class(KernelFamily::Dot, 4096),
            tenants: vec![
                TenantSpec::open("stream", 120_000, 32),
                TenantSpec::closed("interactive", 4, 250_000, 16),
            ],
            seed: 89,
            max_batch: 8,
            drain: true,
            horizon_ns: 40_000_000,
            window_ns: 1_000_000,
            slo_p99_ns: 4_000_000,
        });
    }

    cells
}

/// The distinct shape classes of `cells`, in first-seen order.
pub fn shape_classes(cells: &[CellSpec]) -> Vec<ShapeClass> {
    let mut classes = Vec::new();
    for cell in cells {
        if !classes.contains(&cell.class) {
            classes.push(cell.class);
        }
    }
    classes
}

/// Run the campaign on `jobs` pool workers under `backend`.
///
/// Each distinct class is calibrated once, as one pool job; then every
/// cell is one pool job at its class's profile. The ordered reducer
/// reassembles the records in cell order, so the resulting
/// [`ServeSet`] is byte-identical for every `jobs` value.
pub fn run_serve_matrix_with_jobs(quick: bool, jobs: usize, backend: ExecBackend) -> ServeSet {
    let cells = serve_cells(quick);
    let classes = shape_classes(&cells);
    let calibrations = classes
        .iter()
        .map(|&class| Job::new(&class.key(), move |harness| calibrate(harness, &class)))
        .collect();
    let profiles = run_ordered_with_backend(calibrations, jobs, backend);
    let pool_jobs: Vec<Job<fblas_metrics::ServeRecord>> = cells
        .into_iter()
        .map(|cell| {
            let label = cell.name.clone();
            let slot = classes.iter().position(|c| *c == cell.class);
            let profile = profiles[slot.expect("every cell's class is calibrated")];
            Job::new(&label, move |_| run_profiled(&cell, profile))
        })
        .collect();
    let records = run_ordered_with_backend(pool_jobs, jobs, backend);
    let mut set = ServeSet::new("observatory");
    set.records = records;
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_check::{check_serve_set, Severity};

    #[test]
    fn quick_campaign_is_sound_and_jobs_invariant() {
        let serial = run_serve_matrix_with_jobs(true, 1, ExecBackend::Cycle);
        let parallel = run_serve_matrix_with_jobs(true, 4, ExecBackend::Cycle);
        assert_eq!(
            serial.to_json_string(),
            parallel.to_json_string(),
            "serve records must not depend on worker count"
        );
        let report = check_serve_set(&serial);
        assert_eq!(report.count(Severity::Error), 0, "{}", report.render(true));
    }

    #[test]
    fn quick_campaign_exercises_every_accounting_path() {
        let set = run_serve_matrix_with_jobs(true, 2, ExecBackend::Cycle);
        let cells: Vec<&str> = set.records.iter().map(|r| r.cell.as_str()).collect();
        assert!(cells.contains(&"dot64/open/b1") && cells.contains(&"dot64/open/b8"));
        // Every counter the schema can express is non-zero somewhere.
        assert!(
            set.records.iter().any(|r| r.in_flight() > 0),
            "no in-flight cell"
        );
        assert!(
            set.records
                .iter()
                .any(|r| r.tenants.iter().any(|t| t.rejected_queue > 0)),
            "no queue rejection"
        );
        assert!(
            set.records
                .iter()
                .any(|r| r.tenants.iter().any(|t| t.rejected_tokens > 0)),
            "no token rejection"
        );
        assert!(set.records.iter().all(|r| r.completed() > 0));
    }

    #[test]
    fn full_campaign_extends_the_quick_one() {
        let quick = serve_cells(true);
        let full = serve_cells(false);
        assert!(full.len() > quick.len());
        let quick_names: Vec<&str> = quick.iter().map(|c| c.name.as_str()).collect();
        for c in &quick {
            assert!(full.iter().any(|f| f.name == c.name), "{} dropped", c.name);
        }
        assert!(!quick_names.contains(&"mvm1024/open/b4"));
        assert!(full.iter().any(|f| f.name == "mvm1024/open/b4"));
    }
}
