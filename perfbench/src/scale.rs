//! `scale-ladder`: the full SCALE ladder (five MM rungs, eight `MvM`
//! rows), the fabric link-budget and scale rules, and the `diff_scale`
//! gate against `SCALE_0001.json`.
//!
//! Every iteration runs `run_scale_matrix_with_jobs` on the committed
//! operands and byte-checks its rows. The seed draws exact
//! quarter-integer operands for the untimed check: one MM rung (the
//! seed picks which) and every `MvM` row, through `FabricMm::run_in` and
//! `FabricMvm::run_in`; their values must equal a naive reference
//! product, and their simulated cycles the committed row's, since
//! cycles do not depend on operand values.

use std::hint::black_box;

use fblas_bench::scale_matrix::{mm_operands, mvm_operands, run_scale_matrix_with_jobs, MM_KERNEL};
use fblas_check::{check_scale_set, fabric_link_budget_report};
use fblas_core::mm::{BlockEngine, MmParams};
use fblas_core::mvm::DenseMatrix;
use fblas_fabric::{mm_plans, mvm_plans, FabricMm, FabricMvm, MmShardPlan, MvmShardPlan};
use fblas_metrics::{diff_scale, ScaleSet};
use fblas_sim::{ExecBackend, Harness};

use crate::check::{differing, errors, expect_trip, mismatched, mutant, Committed, Tally};
use crate::layers::Layers;
use crate::span::Tracer;
use crate::workload::Workload;

/// The scaling ladder: the committed rows and the ladder's plans.
pub struct Scale {
    committed: Committed<ScaleSet>,
    mm: Vec<MmShardPlan>,
    mvm: Vec<MvmShardPlan>,
}

/// One iteration's store and its bytes.
pub struct ScaleOut {
    set: ScaleSet,
    text: String,
}

fn parse(text: &str) -> Result<ScaleSet, String> {
    ScaleSet::from_json_str(text)
}

/// Exact quarter-integers in [-4, 4] from a xorshift stream: every
/// product and partial sum of an n=384 multiply is exact in f64.
fn quarter_ints(state: &mut u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            ((*state >> 33) % 33) as f64 / 4.0 - 4.0
        })
        .collect()
}

fn naive_mm(a: &DenseMatrix, b: &DenseMatrix) -> Vec<f64> {
    let n = a.rows();
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for q in 0..n {
            let aiq = a.at(i, q);
            for j in 0..n {
                c[i * n + j] += aiq * b.at(q, j);
            }
        }
    }
    c
}

/// The SCALE cell an MM plan produces.
fn mm_cell(plan: &MmShardPlan) -> String {
    format!("{MM_KERNEL}/s{}", plan.shards)
}

/// The SCALE cell an `MvM` plan produces.
fn mvm_cell(plan: &MvmShardPlan) -> String {
    format!("{}/s{}", plan.orientation.kernel(), plan.shards)
}

impl Scale {
    /// Parse `SCALE_0001.json` and build the full ladder's plans.
    pub fn setup() -> Result<Self, String> {
        Ok(Self {
            committed: Committed::load("SCALE_0001.json", parse)?,
            mm: mm_plans(false),
            mvm: mvm_plans(false),
        })
    }

    fn gate(&self, out: &ScaleOut) -> Tally {
        let mut tally = Tally::default();
        let committed = &self.committed;
        let bytes = mismatched(
            &mut tally,
            committed.file,
            &out.text,
            &committed.text,
            |t| {
                differing(
                    t,
                    (committed.file, "records"),
                    &out.set.records,
                    &committed.set.records,
                )
            },
        );
        let (budgets, budget_why) = errors(&fabric_link_budget_report());
        let (rules, rules_why) = errors(&check_scale_set(&out.set));
        let diff = diff_scale(&out.set, &self.committed.set).failures as usize;
        let rows = out.set.records.len().max(self.committed.set.records.len());
        tally.add(
            rows,
            bytes.max(budgets).max(rules).max(diff),
            &format!(
                "scale ladder (SCALE bytes {bytes}, link budgets {budgets}, scale rules {rules}, \
                 diff {diff}) {budget_why} {rules_why}"
            ),
        );
        tally
    }

    /// Whether `cycles` simulated for `cell` differ from the committed
    /// row's.
    fn drifted(&self, cell: &str, cycles: u64) -> bool {
        let committed = self.committed.set.find(cell).map(|r| r.cycles);
        let drift = committed != Some(cycles);
        if drift {
            eprintln!("drift: {cell} simulated {cycles} cycles, committed {committed:?}");
        }
        drift
    }
}

impl Workload for Scale {
    type Out = ScaleOut;

    fn iteration(&self) -> (ScaleOut, Tally) {
        let set = run_scale_matrix_with_jobs(false, 1, ExecBackend::Cycle);
        let out = ScaleOut {
            text: set.to_json_string(),
            set,
        };
        let tally = self.gate(&out);
        (out, tally)
    }

    fn seeded_check(&self, seed: u64) -> Tally {
        let mm_n = self.mm[0].n;
        let mvm_n = self.mvm.first().map_or(0, |p| p.n);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut matrix = |n| DenseMatrix::from_rows(n, n, quarter_ints(&mut state, n * n));
        let (a, b, ma) = (matrix(mm_n), matrix(mm_n), matrix(mvm_n));
        let x = quarter_ints(&mut state, mvm_n);
        let (c_ref, y_ref) = (naive_mm(&a, &b), ma.ref_mvm(&x));

        let mut h = Harness::with_backend(ExecBackend::Cycle);
        let (mut wrong, mut drifted) = (0, 0);
        let plan = self.mm[(seed % self.mm.len() as u64) as usize];
        let out = FabricMm::on_xd1(plan).run_in(&mut h, &a, &b);
        wrong += usize::from(out.c.as_slice() != c_ref.as_slice());
        drifted += usize::from(self.drifted(&mm_cell(&plan), out.report.cycles));
        for &plan in &self.mvm {
            let out = FabricMvm::on_xd1(plan).run_in(&mut h, &ma, &x);
            wrong += usize::from(out.y != y_ref);
            drifted += usize::from(self.drifted(&mvm_cell(&plan), out.report.cycles));
        }
        let mut tally = Tally::default();
        tally.add(
            1 + self.mvm.len(),
            wrong.max(drifted),
            &format!(
                "seed {seed} operands on {} and the MvM rows (wrong values {wrong}, \
                 cycles drifted from SCALE_0001.json {drifted})",
                mm_cell(&plan)
            ),
        );
        tally
    }

    fn sim_cycles(&self, out: &ScaleOut) -> u64 {
        out.set.records.iter().map(|r| r.cycles).sum()
    }

    fn rendered_bytes(&self, out: &ScaleOut) -> usize {
        out.text.len()
    }

    fn self_test(&self) -> Result<(), String> {
        let (mutated, i) = mutant(&self.committed, "records", parse, |s| &s.records)?;
        let out = ScaleOut {
            set: mutated.set,
            text: mutated.text,
        };
        expect_trip(&self.gate(&out), self.committed.file, "records", i)
    }

    fn replay(&self, out: &ScaleOut, t: &mut Tracer) -> Tally {
        t.span("metrics.parse", |_| {
            black_box(parse(&self.committed.text).is_ok())
        });
        let mut h = Harness::with_backend(ExecBackend::Cycle);
        let plan = self.mm[0];
        let (a, b) = t.span("bench.inputs", |_| mm_operands(plan.n));

        // One rung's stage-1 value pass, block by block, in the fabric's
        // global order (pair-major, z inner) on a private harness.
        t.span("core.mm_value_pass", |t| {
            let (m, nb) = (plan.m, plan.nb());
            let engine = BlockEngine::new(MmParams::test(plan.k, m));
            let mut vh = Harness::new();
            let mut cblk = vec![0.0f64; m * m];
            for pair in 0..plan.pairs() {
                let (g, hh) = (pair / nb, pair % nb);
                cblk.iter_mut().for_each(|v| *v = 0.0);
                for z in 0..nb {
                    let ablk = DenseMatrix::from_fn(m, m, |i, q| a.at(g * m + i, z * m + q));
                    let bblk = DenseMatrix::from_fn(m, m, |q, j| b.at(z * m + q, hh * m + j));
                    t.span("core.mm_block", |_| {
                        engine.multiply_accumulate_in(&mut vh, &ablk, &bblk, &mut cblk)
                    });
                }
            }
            black_box(cblk);
        });

        // The campaign's jobs, one per plan, each building its operands.
        let mut drifted = 0;
        for plan in &self.mm {
            let cycles = t.span(&format!("fabric.mm_rung.s{}", plan.shards), |t| {
                let (a, b) = t.span("bench.inputs", |_| mm_operands(plan.n));
                FabricMm::on_xd1(*plan).run_in(&mut h, &a, &b).report.cycles
            });
            drifted += usize::from(self.drifted(&mm_cell(plan), cycles));
        }
        for plan in &self.mvm {
            let name = format!("fabric.mvm.{}", mvm_cell(plan));
            let cycles = t.span(&name, |t| {
                let (a, x) = t.span("bench.inputs", |_| mvm_operands(plan.n));
                FabricMvm::on_xd1(*plan)
                    .run_in(&mut h, &a, &x)
                    .report
                    .cycles
            });
            drifted += usize::from(self.drifted(&mvm_cell(plan), cycles));
        }
        let mut tally = Tally::default();
        tally.add(
            self.mm.len() + self.mvm.len(),
            drifted,
            "replay cycles drifted from SCALE_0001.json",
        );

        let text = t.span("metrics.render", |_| out.set.to_json_string());
        let regen = ScaleOut {
            set: out.set.clone(),
            text,
        };
        tally.merge(t.span("check.gate", |_| self.gate(&regen)));
        tally
    }

    fn layers(&self, _out: &ScaleOut, t: &Tracer, layers: &mut Layers) {
        let value_pass = t.total_s("core.mm_value_pass");
        layers.set("core.mm_value_pass_s", value_pass);
        for plan in &self.mm {
            let rung = t.total_s(&format!("fabric.mm_rung.s{}", plan.shards));
            layers.set(&format!("fabric.mm_rung_s.s{}", plan.shards), rung);
            layers.set(
                &format!("fabric.mm_schedule_s.s{}", plan.shards),
                (rung - value_pass).max(0.0),
            );
        }
        layers.set("fabric.mvm_ladder_s", t.total_prefix_s("fabric.mvm."));
    }
}
