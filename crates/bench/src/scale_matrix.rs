//! The multi-FPGA scaling campaign: cells for `observatory scale`.
//!
//! Each cell is one shipped shard plan from `fblas-fabric` — the
//! linear-array MM dealt across 1/2/4/6 FPGAs and a two-chassis
//! twelve-FPGA point, and both `MvM` orientations split across up to six
//! FPGAs — and runs as one job on the shared worker pool. Operand data
//! is fixed per kernel and problem size, so every width of a ladder
//! multiplies the same matrices.
//!
//! The rows report only the schedule, so an MM row never computes the
//! product: [`FabricMm::timing_in`] measures one probe block and replays
//! the link schedule from it. Only `FabricMm::run_in` computes values;
//! they stay shard-invariant, and the fabric's one-shard bit-identity
//! tests pin them against the unsharded design.
//!
//! The reduction is two-pass: the pool returns raw measurements in
//! campaign order, then [`finalize`] joins every row against its
//! kernel's own one-FPGA baseline to derive speedup, efficiency and the
//! §6.4 projection (`scaled_sustained_gflops`) the gate compares
//! against. Both passes are deterministic, so the resulting
//! [`ScaleSet`] is byte-identical at any `--jobs` count and under every
//! execution backend.

use fblas_core::mvm::DenseMatrix;
use fblas_fabric::{mm_plans, mvm_plans, FabricMm, FabricMvm, MmShardPlan, MvmShardPlan};
use fblas_metrics::{ScaleRecord, ScaleSet, SCALE_SOUNDNESS_EPS};
use fblas_sim::ExecBackend;
use fblas_system::projection::scaled_sustained_gflops;

use crate::pool::{run_ordered_with_backend, Job};

/// Kernel label of the sharded linear-array matrix multiply.
pub const MM_KERNEL: &str = "mm/linear";

/// Deterministic MM operands, fixed per problem size: small exact
/// values (multiples of 1/4) so block-order changes cannot perturb a
/// ULP and the shard-invariance contract is testable bit-for-bit.
pub fn mm_operands(n: usize) -> (DenseMatrix, DenseMatrix) {
    let a = DenseMatrix::from_fn(n, n, |i, j| ((i * 3 + j * 7) % 8) as f64 - 3.5);
    let b = DenseMatrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) % 9) as f64 * 0.25);
    (a, b)
}

/// Deterministic `MvM` operands, fixed per problem size.
pub fn mvm_operands(n: usize) -> (DenseMatrix, Vec<f64>) {
    let a = DenseMatrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
    let x: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) * 0.5 - 2.5).collect();
    (a, x)
}

/// Raw-measurement skeleton: gate fields joined in by [`finalize`].
#[allow(clippy::cast_precision_loss)]
fn record_skeleton(
    kernel: &str,
    shards: u64,
    chassis: u64,
    n: u64,
    k: u64,
    m: u64,
    clock_mhz: f64,
) -> ScaleRecord {
    ScaleRecord {
        kernel: kernel.to_string(),
        shards,
        chassis,
        n,
        k,
        m,
        cycles: 0,
        flops: 0,
        words_in: 0,
        words_out: 0,
        busy_cycles: 0,
        stalls_starved: 0,
        stalls_backpressured: 0,
        link_words_forwarded: 0,
        link_congestion_cycles: 0,
        link_max_backlog_words: 0,
        clock_mhz,
        sustained_mflops: 0.0,
        baseline_cycles: 0,
        speedup: 0.0,
        efficiency: 0.0,
        modeled_mflops: 0.0,
        divergence: 0.0,
        within_bound: false,
    }
}

fn mm_job(plan: MmShardPlan) -> Job<ScaleRecord> {
    let label = format!("{MM_KERNEL}/s{}", plan.shards);
    Job::new(&label, move |harness| {
        let (a, b) = mm_operands(plan.n);
        let out = FabricMm::on_xd1(plan).timing_in(harness, &a, &b);
        let mut rec = record_skeleton(
            MM_KERNEL,
            plan.shards as u64,
            plan.chassis as u64,
            plan.n as u64,
            plan.k as u64,
            plan.m as u64,
            plan.clock_mhz,
        );
        fill_measurements(
            &mut rec,
            &out.report,
            out.starved_cycles,
            out.backpressured_cycles,
            &out.links,
        );
        rec
    })
}

fn mvm_job(plan: MvmShardPlan) -> Job<ScaleRecord> {
    let label = format!("{}/s{}", plan.orientation.kernel(), plan.shards);
    Job::new(&label, move |harness| {
        let (a, x) = mvm_operands(plan.n);
        let out = FabricMvm::on_xd1(plan).run_in(harness, &a, &x);
        let mut rec = record_skeleton(
            plan.orientation.kernel(),
            plan.shards as u64,
            1,
            plan.n as u64,
            plan.k as u64,
            0,
            plan.clock_mhz,
        );
        fill_measurements(
            &mut rec,
            &out.report,
            out.starved_cycles,
            out.backpressured_cycles,
            &out.links,
        );
        rec
    })
}

fn fill_measurements(
    rec: &mut ScaleRecord,
    report: &fblas_sim::SimReport,
    starved: u64,
    backpressured: u64,
    links: &[fblas_fabric::LinkReport],
) {
    rec.cycles = report.cycles;
    rec.flops = report.flops;
    rec.words_in = report.words_in;
    rec.words_out = report.words_out;
    rec.busy_cycles = report.busy_cycles;
    rec.stalls_starved = starved;
    rec.stalls_backpressured = backpressured;
    rec.link_words_forwarded = links.iter().map(|l| l.forwarded_words).sum();
    rec.link_congestion_cycles = links.iter().map(|l| l.congestion_cycles).sum();
    rec.link_max_backlog_words = links.iter().map(|l| l.max_backlog_words).max().unwrap_or(0);
}

/// Measured sustained MFLOPS of a raw row: flops/cycle at `clock_mhz`.
#[allow(clippy::cast_precision_loss)]
fn measured_mflops(rec: &ScaleRecord) -> f64 {
    if rec.cycles == 0 {
        return 0.0;
    }
    rec.flops as f64 * rec.clock_mhz / rec.cycles as f64
}

/// Join every raw row against its kernel's one-FPGA baseline:
/// speedup/efficiency from the measured makespans, the modeled bound
/// from the §6.4 linear-scaling projection, and the divergence verdict
/// the `observatory scale` gate reads.
#[allow(clippy::cast_precision_loss)]
pub fn finalize(mut records: Vec<ScaleRecord>) -> Vec<ScaleRecord> {
    let baselines: Vec<(String, u64, f64)> = records
        .iter()
        .filter(|r| r.shards == 1)
        .map(|r| (r.kernel.clone(), r.cycles, measured_mflops(r)))
        .collect();
    for rec in &mut records {
        let Some(&(_, base_cycles, base_mflops)) =
            baselines.iter().find(|(k, _, _)| *k == rec.kernel)
        else {
            continue;
        };
        rec.sustained_mflops = measured_mflops(rec);
        rec.baseline_cycles = base_cycles;
        rec.speedup = if rec.cycles == 0 {
            0.0
        } else {
            base_cycles as f64 / rec.cycles as f64
        };
        rec.efficiency = rec.speedup / rec.shards as f64;
        rec.modeled_mflops =
            scaled_sustained_gflops(base_mflops / 1000.0, rec.shards as usize) * 1000.0;
        rec.divergence = if rec.modeled_mflops == 0.0 {
            0.0
        } else {
            (rec.modeled_mflops - rec.sustained_mflops) / rec.modeled_mflops
        };
        rec.within_bound = rec.sustained_mflops <= rec.modeled_mflops * (1.0 + SCALE_SOUNDNESS_EPS);
    }
    records
}

/// Run the scaling campaign on `jobs` pool workers under `backend`.
///
/// Every shard plan is one pool job; the ordered reducer reassembles
/// the raw rows in ladder order and [`finalize`] joins the gate fields,
/// so the resulting [`ScaleSet`] is byte-identical for every `jobs`
/// value and every backend.
pub fn run_scale_matrix_with_jobs(quick: bool, jobs: usize, backend: ExecBackend) -> ScaleSet {
    let mut pool_jobs: Vec<Job<ScaleRecord>> = Vec::new();
    pool_jobs.extend(mm_plans(quick).into_iter().map(mm_job));
    pool_jobs.extend(mvm_plans(quick).into_iter().map(mvm_job));
    let raw = run_ordered_with_backend(pool_jobs, jobs, backend);
    let mut set = ScaleSet::new("observatory");
    set.records = finalize(raw);
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_check::{check_scale_set, Severity};

    #[test]
    fn quick_campaign_is_sound_and_jobs_invariant() {
        let serial = run_scale_matrix_with_jobs(true, 1, ExecBackend::Cycle);
        let parallel = run_scale_matrix_with_jobs(true, 4, ExecBackend::Cycle);
        assert_eq!(
            serial.to_json_string(),
            parallel.to_json_string(),
            "scale records must not depend on worker count"
        );
        let report = check_scale_set(&serial);
        assert_eq!(report.count(Severity::Error), 0, "{}", report.render(true));
    }

    #[test]
    fn every_row_scales_and_stays_under_the_model() {
        let set = run_scale_matrix_with_jobs(true, 2, ExecBackend::Cycle);
        // Three kernels × three widths.
        assert_eq!(set.records.len(), 9);
        for rec in &set.records {
            assert!(rec.within_bound, "{} exceeds its model", rec.cell());
            assert!(rec.divergence >= -SCALE_SOUNDNESS_EPS, "{}", rec.cell());
            if rec.shards == 1 {
                assert!((rec.speedup - 1.0).abs() < 1e-12);
                assert!((rec.efficiency - 1.0).abs() < 1e-12);
                assert_eq!(rec.stalls_starved, 0);
                assert_eq!(rec.link_words_forwarded, 0);
            } else {
                assert!(rec.speedup > 1.0, "{} did not speed up", rec.cell());
                assert!(rec.efficiency <= 1.0 + SCALE_SOUNDNESS_EPS);
                assert!(
                    rec.link_words_forwarded > 0,
                    "{} moved no words",
                    rec.cell()
                );
            }
        }
    }

    #[test]
    fn campaign_is_backend_invariant() {
        let cycle = run_scale_matrix_with_jobs(true, 2, ExecBackend::Cycle);
        let native = run_scale_matrix_with_jobs(true, 2, ExecBackend::Native);
        assert_eq!(cycle.to_json_string(), native.to_json_string());
    }

    #[test]
    fn full_ladder_extends_the_quick_one() {
        let quick = run_scale_matrix_with_jobs(true, 4, ExecBackend::Cycle);
        // The full ladder's extra widths exist as plans even though the
        // full campaign itself only runs under --release in CI.
        let full_mm = mm_plans(false);
        assert!(full_mm.iter().any(|p| (p.shards, p.chassis) == (12, 2)));
        assert!(full_mm.len() > mm_plans(true).len());
        assert!(quick.find("mm/linear/s1").is_some());
        assert!(quick.find("mvm/row/s4").is_some());
        assert!(quick.find("mvm/col/s2").is_some());
    }
}
