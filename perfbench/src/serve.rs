//! `serve-faults`: the full serving campaign and the full fault
//! campaign, gated by `check_serve_set`, `diff_serve` and the
//! zero-silent-corruption rule.
//!
//! Every iteration runs both public campaigns on the committed inputs
//! and byte-checks `SERVE_0001.json` and `FAULTS.json`. The seed
//! re-seeds every serve cell (`CellSpec.seed`, checked by
//! `check_serve_set`) and the fault campaign (checked by the
//! zero-silent-corruption gate) for the untimed check.

use std::hint::black_box;

use fblas_bench::fault_matrix::{
    fault_jobs, record_from_degraded, run_fault_matrix_with_jobs, FULL_TRIALS_PER_FAMILY,
};
use fblas_bench::pool::run_ordered;
use fblas_bench::serve_matrix::{run_serve_matrix_with_jobs, serve_cells};
use fblas_check::check_serve_set;
use fblas_faults::{degrade_mm, degrade_row_mvm};
use fblas_metrics::{diff_serve, FaultSet, ServeRecord, ServeSet};
use fblas_serve::{calibrate, run_cell, CellSpec, SplitMix64};
use fblas_sim::{ExecBackend, Harness};

use crate::check::{
    differing, errors, errors_except, expect_trip, mismatched, mutant, Committed, Tally,
};
use crate::layers::Layers;
use crate::span::Tracer;
use crate::stats::Spread;
use crate::workload::Workload;
use crate::DEFAULT_SEED;

/// The `fblas-check` rule that a batched cell pays strictly less staging
/// than its unbatched sibling.
const AMORTIZATION: &str = "serve-amortization";

/// The serve and fault campaigns: the committed stores and the cells.
pub struct ServeFaults {
    serve: Committed<ServeSet>,
    faults: Committed<FaultSet>,
    cells: Vec<CellSpec>,
}

/// One iteration's stores and their bytes.
pub struct ServeFaultsOut {
    serve: ServeSet,
    serve_text: String,
    faults: FaultSet,
    faults_text: String,
}

fn parse_serve(text: &str) -> Result<ServeSet, String> {
    ServeSet::from_json_str(text)
}

fn parse_faults(text: &str) -> Result<FaultSet, String> {
    FaultSet::from_json_str(text)
}

impl ServeFaults {
    /// Parse the committed SERVE and FAULTS stores and build the cells.
    pub fn setup() -> Result<Self, String> {
        Ok(Self {
            serve: Committed::load("SERVE_0001.json", parse_serve)?,
            faults: Committed::load("FAULTS.json", parse_faults)?,
            cells: serve_cells(false),
        })
    }

    fn gate(&self, out: &ServeFaultsOut) -> Tally {
        let mut tally = Tally::default();
        let (rules, why) = errors(&check_serve_set(&out.serve));
        let serve = &self.serve;
        let bytes = mismatched(&mut tally, serve.file, &out.serve_text, &serve.text, |t| {
            differing(
                t,
                (serve.file, "records"),
                &out.serve.records,
                &serve.set.records,
            )
        });
        let diff = diff_serve(&out.serve, &self.serve.set).failures as usize;
        tally.add(
            out.serve.records.len().max(self.cells.len()),
            bytes.max(rules).max(diff),
            &format!(
                "serve campaign (SERVE bytes {bytes}, serve rules {rules}, diff {diff}) {why}"
            ),
        );

        let faults = &self.faults;
        let bytes = mismatched(
            &mut tally,
            faults.file,
            &out.faults_text,
            &faults.text,
            |t| {
                differing(
                    t,
                    (faults.file, "records"),
                    &out.faults.records,
                    &faults.set.records,
                ) + differing(
                    t,
                    (faults.file, "degraded"),
                    &out.faults.degraded,
                    &faults.set.degraded,
                )
            },
        );
        let silent = out.faults.covered_silent_corruptions() as usize;
        let inexact = out.faults.degraded.iter().filter(|d| !d.exact).count();
        tally.add(
            out.faults.records.len() + out.faults.degraded.len(),
            bytes.max(silent).max(inexact),
            &format!(
                "fault campaign (FAULTS bytes {bytes}, silent corruptions {silent}, \
                 inexact degradations {inexact})"
            ),
        );
        tally
    }

    /// The committed stores as one iteration's output.
    fn committed_out(&self) -> ServeFaultsOut {
        ServeFaultsOut {
            serve: self.serve.set.clone(),
            serve_text: self.serve.text.clone(),
            faults: self.faults.set.clone(),
            faults_text: self.faults.text.clone(),
        }
    }
}

impl Workload for ServeFaults {
    type Out = ServeFaultsOut;

    fn iteration(&self) -> (ServeFaultsOut, Tally) {
        let serve = run_serve_matrix_with_jobs(false, 1, ExecBackend::Cycle);
        let faults = run_fault_matrix_with_jobs(DEFAULT_SEED, false, 1);
        let out = ServeFaultsOut {
            serve_text: serve.to_json_string(),
            faults_text: faults.to_json_string(),
            serve,
            faults,
        };
        let tally = self.gate(&out);
        (out, tally)
    }

    /// Every cell re-seeded and run through `run_cell`, gated by the
    /// serve rules; the fault campaign run with `seed`, gated by zero
    /// silent corruptions and exact degradations.
    fn seeded_check(&self, seed: u64) -> Tally {
        let mut tally = Tally::default();
        let mut h = Harness::with_backend(ExecBackend::Cycle);
        let mut serve = ServeSet::new("observatory");
        for cell in &self.cells {
            let mut cell = cell.clone();
            cell.seed =
                SplitMix64::new(cell.seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
            serve.records.push(run_cell(&mut h, &cell));
        }
        // Amortization is a claim about the committed arrival streams
        // (each batched cell meets queueing that its b1 sibling pays
        // for); a re-seeded pair may see no queueing at all. It is
        // reported here and gated on every iteration.
        let report = check_serve_set(&serve);
        let (rules, why) = errors_except(&report, &[AMORTIZATION]);
        tally.add(
            serve.records.len(),
            rules,
            &format!("serve cells re-seeded with {seed} (serve rules) {why}"),
        );
        let (unmet, why) = errors(&report);
        if unmet > rules {
            tally.inform(format!("not counted on re-seeded serve cells: {why}"));
        }

        let faults = run_fault_matrix_with_jobs(seed, false, 1);
        let silent = faults.covered_silent_corruptions() as usize;
        let inexact = faults.degraded.iter().filter(|d| !d.exact).count();
        tally.add(
            faults.records.len() + faults.degraded.len(),
            silent.max(inexact),
            &format!(
                "fault campaign seed {seed} (silent corruptions {silent}, \
                 inexact degradations {inexact})"
            ),
        );
        tally
    }

    /// The engine's queues, heaps and buckets are bound by memory
    /// latency more than the probe is: over 209 iterations on a
    /// contended host (probe 7–13 ms) iteration time grew as the probe
    /// to the power 0.76 (r = 0.95), against 1.1 for the paper matrix.
    fn host_sensitivity(&self) -> f64 {
        0.75
    }

    /// The serve engine is a discrete-event simulator on a 1 ns tick:
    /// its simulated cycles are the nanoseconds each cell's timeline
    /// spans.
    fn sim_cycles(&self, out: &ServeFaultsOut) -> u64 {
        out.serve.records.iter().map(|r| r.elapsed_ns).sum()
    }

    fn rendered_bytes(&self, out: &ServeFaultsOut) -> usize {
        out.serve_text.len() + out.faults_text.len()
    }

    fn self_test(&self) -> Result<(), String> {
        let (serve, i) = mutant(&self.serve, "records", parse_serve, |s| &s.records)?;
        let out = ServeFaultsOut {
            serve: serve.set,
            serve_text: serve.text,
            ..self.committed_out()
        };
        expect_trip(&self.gate(&out), self.serve.file, "records", i)?;
        let with_faults = |faults: Committed<FaultSet>| ServeFaultsOut {
            faults: faults.set,
            faults_text: faults.text,
            ..self.committed_out()
        };
        let (faults, i) = mutant(&self.faults, "records", parse_faults, |s| &s.records)?;
        expect_trip(
            &self.gate(&with_faults(faults)),
            self.faults.file,
            "records",
            i,
        )?;
        let (faults, i) = mutant(&self.faults, "degraded", parse_faults, |s| &s.degraded)?;
        expect_trip(
            &self.gate(&with_faults(faults)),
            self.faults.file,
            "degraded",
            i,
        )
    }

    fn replay(&self, out: &ServeFaultsOut, t: &mut Tracer) -> Tally {
        t.span("metrics.parse", |_| {
            black_box(parse_serve(&self.serve.text).is_ok());
            black_box(parse_faults(&self.faults.text).is_ok());
        });
        let mut tally = Tally::default();

        let mut h = Harness::with_backend(ExecBackend::Cycle);
        let mut serve = ServeSet::new("observatory");
        for cell in &self.cells {
            let rec = t.span("serve.cell", |_| run_cell(&mut h, cell));
            // After the cell, so it is as warm as the calibration run_cell
            // starts with.
            t.span("serve.calibrate", |_| {
                black_box(calibrate(&mut h, &cell.class))
            });
            serve.records.push(rec);
        }
        let drift = serve
            .records
            .iter()
            .zip(&out.serve.records)
            .filter(|(a, b)| a != b)
            .count();
        tally.add(
            self.cells.len(),
            drift,
            "replayed serve cells drifted from the campaign",
        );

        let mut faults = FaultSet::new("observatory faults", DEFAULT_SEED);
        for job in fault_jobs(DEFAULT_SEED, FULL_TRIALS_PER_FAMILY) {
            let rec = t.span("faults.trial", |_| run_ordered(vec![job], 1));
            faults.records.extend(rec);
        }
        t.span("faults.degrade", |_| {
            faults
                .degraded
                .push(record_from_degraded(&degrade_row_mvm(DEFAULT_SEED)));
            faults
                .degraded
                .push(record_from_degraded(&degrade_mm(DEFAULT_SEED)));
        });
        let drift = faults
            .records
            .iter()
            .zip(&out.faults.records)
            .filter(|(a, b)| a != b)
            .count();
        tally.add(
            faults.records.len(),
            drift,
            "replayed fault trials drifted from the campaign",
        );

        let (serve_text, faults_text) = t.span("metrics.render", |_| {
            (serve.to_json_string(), faults.to_json_string())
        });
        let regen = ServeFaultsOut {
            serve,
            serve_text,
            faults,
            faults_text,
        };
        tally.merge(t.span("check.gate", |_| self.gate(&regen)));
        tally
    }

    fn layers(&self, out: &ServeFaultsOut, t: &Tracer, layers: &mut Layers) {
        let calibrate = t.total_s("serve.calibrate");
        let cell = t.total_s("serve.cell");
        layers.set("serve.calibrate_s", calibrate);
        layers.set("serve.cell_s", cell);
        // run_cell calibrates its class first; the engine is the rest.
        layers.set("serve.engine_s", (cell - calibrate).max(0.0));
        if cell > 0.0 {
            let requests: u64 = out.serve.records.iter().map(ServeRecord::offered).sum();
            layers.set("serve.sim_requests_per_s", requests as f64 / cell);
        }
        let trials: Vec<f64> = t.each_s("faults.trial").iter().map(|s| s * 1e3).collect();
        if !trials.is_empty() {
            let spread = Spread::of(&trials);
            layers.set("faults.trial_ms", spread.median);
            layers.set("faults.trial_ms.max", spread.max);
        }
    }
}
