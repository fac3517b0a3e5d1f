//! `paper-cycle` and `paper-native`: the full paper matrix with
//! telemetry, then BENCH and TELEM rendering and the `diff_sets` gate
//! against `baselines/seed.json`. Fixed inputs: the seed is ignored.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use fblas_bench::paper_matrix::{run_matrix_telemetry, run_matrix_with_backend};
use fblas_bench::record_sink::measure;
use fblas_bench::synth_int;
use fblas_bench::workloads::laplacian_2d;
use fblas_core::dot::{DotParams, DotProductDesign};
use fblas_core::level1::{AsumDesign, AxpyDesign, Level1Params, ScalDesign};
use fblas_core::mm::{HierarchicalMm, HierarchicalParams, LinearArrayMm, MmParams};
use fblas_core::mvm::{ColMajorMvm, DenseMatrix, MvmParams, RowMajorMvm};
use fblas_core::reduce::{run_sets_in, SingleAdderReducer};
use fblas_metrics::{diff_sets, RecordSet};
use fblas_sim::{ExecBackend, Harness, DEFAULT_TELEM_WINDOW};
use fblas_sparse::{SpmvDesign, SpmvParams};
use fblas_system::projection::scaled_sustained_gflops;
use fblas_system::{
    device_peak_flops, AreaModel, ChassisProjection, ClockModel, Xd1Node, XC2VP100, XC2VP50,
};
use fblas_telemetry::TelemSet;

use crate::check::{differing, expect_trip, mismatched, mutant, Committed, Tally};
use crate::layers::Layers;
use crate::span::Tracer;
use crate::stats::median;
use crate::workload::Workload;

/// The paper matrix under one execution backend.
pub struct Paper {
    backend: ExecBackend,
    bench: Committed<RecordSet>,
    telem: Committed<TelemSet>,
    seed_baseline: Committed<RecordSet>,
    /// Cycles the last replay stepped (not fast-forwarded or analytic).
    stepped: Cell<u64>,
}

/// One iteration's stores and their rendered bytes.
pub struct PaperOut {
    set: RecordSet,
    telem: TelemSet,
    bench_text: String,
    telem_text: String,
}

fn parse_bench(text: &str) -> Result<RecordSet, String> {
    RecordSet::from_json_str(text)
}

fn parse_telem(text: &str) -> Result<TelemSet, String> {
    TelemSet::from_json_str(text)
}

impl Paper {
    /// Parse the committed BENCH/TELEM stores and the diff baseline.
    pub fn setup(backend: ExecBackend) -> Result<Self, String> {
        Ok(Self {
            backend,
            bench: Committed::load("BENCH_0001.json", parse_bench)?,
            telem: Committed::load("TELEM_0001.json", parse_telem)?,
            seed_baseline: Committed::load("baselines/seed.json", parse_bench)?,
            stepped: Cell::new(0),
        })
    }

    fn gate(&self, out: &PaperOut) -> Tally {
        let mut tally = Tally::default();
        let (bench, telem) = (&self.bench, &self.telem);
        let bytes = mismatched(&mut tally, bench.file, &out.bench_text, &bench.text, |t| {
            differing(
                t,
                (bench.file, "records"),
                &out.set.records,
                &bench.set.records,
            )
        });
        let telem = mismatched(&mut tally, telem.file, &out.telem_text, &telem.text, |t| {
            differing(t, (telem.file, "runs"), &out.telem.runs, &telem.set.runs)
        });
        let diff = diff_sets(&self.seed_baseline.set, &out.set).regressions();
        let parity = out
            .set
            .records
            .iter()
            .filter(|r| r.paper.iter().any(|p| !p.within_tolerance()))
            .count();
        let jobs = out.set.records.len().max(self.bench.set.records.len());
        tally.add(
            jobs,
            bytes.max(telem).max(diff).max(parity),
            &format!(
                "paper matrix (BENCH bytes {bytes}, TELEM bytes {telem}, \
                 seed diff {diff}, parity {parity})"
            ),
        );
        tally
    }

    /// The committed BENCH and TELEM stores as one iteration's output.
    fn committed_out(&self) -> PaperOut {
        PaperOut {
            set: self.bench.set.clone(),
            telem: self.telem.set.clone(),
            bench_text: self.bench.text.clone(),
            telem_text: self.telem.text.clone(),
        }
    }
}

/// The replay's harness plus its bookkeeping: cycles stepped (not
/// fast-forwarded) and runs whose cycles drifted from the committed
/// record.
struct Replay<'a> {
    h: Harness,
    committed: &'a RecordSet,
    stepped: u64,
    runs: usize,
    drifted: usize,
}

impl Replay<'_> {
    /// Check one run's simulated cycles against the committed `key`.
    fn check(&mut self, key: &str, cycles: u64) {
        self.runs += 1;
        let committed = self.committed.find(key).map(|r| r.cycles);
        if committed != Some(cycles) {
            eprintln!("replay drift: {key} simulated {cycles} cycles, committed {committed:?}");
            self.drifted += 1;
        }
    }

    /// Run one simulated design under `layer`'s span the way the matrix
    /// does (telemetry re-enabled, stalls measured, series sealed) and
    /// check its cycles against the committed record `key`.
    fn run<T>(
        &mut self,
        t: &mut Tracer,
        layer: &str,
        key: &str,
        run: impl FnOnce(&mut Harness) -> T,
        cycles_of: impl FnOnce(&T) -> u64,
    ) -> T {
        let h = &mut self.h;
        h.enable_telemetry(DEFAULT_TELEM_WINDOW);
        let ff0 = h.ff_cycles();
        let (out, stalls) = t.span(layer, |_| measure(h, run));
        black_box(stalls);
        let cycles = cycles_of(&out);
        self.stepped += cycles - (h.ff_cycles() - ff0);
        t.span("telemetry.seal", |_| black_box(h.take_telemetry()));
        self.check(key, cycles);
        out
    }
}

impl Workload for Paper {
    type Out = PaperOut;

    fn iteration(&self) -> (PaperOut, Tally) {
        let (set, _wall, telem) =
            run_matrix_telemetry(false, 1, self.backend, DEFAULT_TELEM_WINDOW);
        let out = PaperOut {
            bench_text: set.to_json_string(),
            telem_text: telem.to_json_string(),
            set,
            telem,
        };
        let tally = self.gate(&out);
        (out, tally)
    }

    fn sim_cycles(&self, out: &PaperOut) -> u64 {
        out.set.records.iter().map(|r| r.cycles).sum()
    }

    fn rendered_bytes(&self, out: &PaperOut) -> usize {
        out.bench_text.len()
    }

    fn self_test(&self) -> Result<(), String> {
        let (bench, i) = mutant(&self.bench, "records", parse_bench, |s| &s.records)?;
        let out = PaperOut {
            set: bench.set,
            bench_text: bench.text,
            ..self.committed_out()
        };
        expect_trip(&self.gate(&out), self.bench.file, "records", i)?;
        let (telem, i) = mutant(&self.telem, "runs", parse_telem, |s| &s.runs)?;
        let out = PaperOut {
            telem: telem.set,
            telem_text: telem.text,
            ..self.committed_out()
        };
        expect_trip(&self.gate(&out), self.telem.file, "runs", i)
    }

    fn replay(&self, out: &PaperOut, t: &mut Tracer) -> Tally {
        t.span("metrics.parse", |_| {
            black_box(parse_bench(&self.seed_baseline.text).is_ok());
        });
        let mut r = Replay {
            h: Harness::with_backend(self.backend),
            committed: &self.bench.set,
            stepped: 0,
            runs: 0,
            drifted: 0,
        };
        let n = 2048usize;

        t.span("job.dot", |t| {
            let (d, u, v) = t.span("bench.inputs", |_| {
                let d = DotProductDesign::new(DotParams::table3(), &Xd1Node::default());
                (d, synth_int(1, n, 8), synth_int(2, n, 8))
            });
            let key = format!("dot[k=2,n={n}]");
            let o = r.run(
                t,
                "core.level1",
                &key,
                |h| d.run_in(h, &u, &v),
                |o| o.report.cycles,
            );
            t.span("bench.reference", |_| {
                let want: f64 = u.iter().zip(&v).map(|(a, b)| a * b).sum();
                assert_eq!(o.result, want, "dot result mismatch");
            });
        });
        t.span("job.axpy", |t| {
            let (d, x, y) = t.span("bench.inputs", |_| {
                let d = AxpyDesign::new(Level1Params::with_k(2));
                (d, synth_int(5, n, 8), synth_int(6, n, 8))
            });
            let key = format!("axpy[k=2,n={n}]");
            r.run(
                t,
                "core.level1",
                &key,
                |h| d.run_in(h, 3.0, &x, &y),
                |o| o.report.cycles,
            );
        });
        t.span("job.scal", |t| {
            let (d, x) = t.span("bench.inputs", |_| {
                (ScalDesign::new(Level1Params::with_k(2)), synth_int(5, n, 8))
            });
            let key = format!("scal[k=2,n={n}]");
            r.run(
                t,
                "core.level1",
                &key,
                |h| d.run_in(h, 3.0, &x),
                |o| o.report.cycles,
            );
        });
        t.span("job.asum", |t| {
            let an = 1000usize;
            let (d, x) = t.span("bench.inputs", |_| {
                (
                    AsumDesign::new(Level1Params::with_k(4)),
                    synth_int(7, an, 8),
                )
            });
            let key = format!("asum[k=4,n={an}]");
            r.run(
                t,
                "core.level1",
                &key,
                |h| d.run_in(h, &x),
                |o| o.report.cycles,
            );
        });

        t.span("job.mvm/row", |t| {
            let (d, a, x) = t.span("bench.inputs", |_| {
                let d = RowMajorMvm::new(MvmParams::table3(), &Xd1Node::default());
                let a = DenseMatrix::from_rows(n, n, synth_int(3, n * n, 8));
                (d, a, synth_int(4, n, 8))
            });
            let key = format!("mvm/row[k=4,n={n}]");
            let o = r.run(
                t,
                "core.mvm_row",
                &key,
                |h| d.run_in(h, &a, &x),
                |o| o.report.cycles,
            );
            t.span("bench.reference", |_| {
                assert_eq!(o.y, a.ref_mvm(&x), "row-major mvm mismatch");
            });
        });
        t.span("job.mvm/col", |t| {
            let cn = 512usize;
            let (d, a, x) = t.span("bench.inputs", |_| {
                let d = ColMajorMvm::new(MvmParams::with_k(4), &Xd1Node::default());
                let a = DenseMatrix::from_rows(cn, cn, synth_int(8, cn * cn, 8));
                (d, a, synth_int(9, cn, 8))
            });
            let key = format!("mvm/col[k=4,n={cn}]");
            let o = r.run(
                t,
                "core.mvm_col",
                &key,
                |h| d.run_in(h, &a, &x),
                |o| o.report.cycles,
            );
            t.span("bench.reference", |_| {
                assert_eq!(o.y, a.ref_mvm(&x), "col-major mvm mismatch");
            });
        });
        t.span("job.mvm/xd1-l2", |t| {
            let n2 = 1024usize;
            let (d, a, x) = t.span("bench.inputs", |_| {
                let clock = ClockModel::default().xd1_l2();
                let d = RowMajorMvm::standalone(MvmParams::table3(), clock.mhz());
                let a = DenseMatrix::from_rows(n2, n2, synth_int(5, n2 * n2, 8));
                (d, a, synth_int(6, n2, 8))
            });
            let key = format!("mvm/xd1-l2[k=4,n={n2}]");
            r.run(
                t,
                "core.mvm_xd1_l2",
                &key,
                |h| d.run_in(h, &a, &x),
                |o| o.report.cycles,
            );
        });

        t.span("job.mm/linear", |t| {
            let (d, a, b) = t.span("bench.inputs", |_| {
                let d = LinearArrayMm::new(MmParams::test(4, 16));
                let a = DenseMatrix::from_rows(32, 32, synth_int(5, 32 * 32, 4));
                let b = DenseMatrix::from_rows(32, 32, synth_int(6, 32 * 32, 4));
                (d, a, b)
            });
            let key = "mm/linear[k=4,m=16,n=32]";
            r.run(
                t,
                "core.mm_linear",
                key,
                |h| d.run_in(h, &a, &b),
                |o| o.report.cycles,
            );
        });
        t.span("job.mm/hierarchical", |t| {
            let n3 = 512usize;
            let (d, a, b) = t.span("bench.inputs", |_| {
                let d = HierarchicalMm::new(HierarchicalParams::xd1_single_node());
                let a = DenseMatrix::from_rows(n3, n3, synth_int(7, n3 * n3, 4));
                let b = DenseMatrix::from_rows(n3, n3, synth_int(8, n3 * n3, 4));
                (d, a, b)
            });
            // Analytic: no harness, so no stepped cycles.
            let o = t.span("core.mm_hierarchical", |_| d.run(&a, &b));
            r.check("mm/hierarchical[b=512,k=8,m=8,n=512]", o.report.cycles);
        });

        t.span("job.reduce/single-adder", |t| {
            let n_sets = 150usize;
            let sets: Vec<Vec<f64>> = t.span("bench.inputs", |_| {
                (0..n_sets)
                    .map(|i| synth_int(i as u64, 1 + (i * 53 + 7) % 211, 16))
                    .collect()
            });
            let mut red = SingleAdderReducer::new(14);
            let key = format!("reduce/single-adder[alpha=14,sets={n_sets}]");
            r.run(
                t,
                "core.reduce",
                &key,
                |h| run_sets_in(h, &mut red, &sets),
                |o| o.total_cycles,
            );
        });
        t.span("job.spmv", |t| {
            let grid = 32usize;
            let (d, a, x) = t.span("bench.inputs", |_| {
                let d = SpmvDesign::new(SpmvParams::with_k(4));
                (d, laplacian_2d(grid), synth_int(11, grid * grid, 8))
            });
            let key = format!("spmv[k=4,n={}]", grid * grid);
            r.run(
                t,
                "sparse.spmv",
                &key,
                |h| d.run_in(h, &a, &x),
                |o| o.report.cycles,
            );
        });

        t.span("system.models", |_| {
            let area = AreaModel::default();
            let clocks = ClockModel::default();
            black_box((
                clocks.mm_mhz(1),
                clocks.mm_mhz(10),
                area.max_pes(&XC2VP50),
                device_peak_flops(&XC2VP50, &area, 170.0),
                scaled_sustained_gflops(2.06, 6),
                scaled_sustained_gflops(2.06, 72),
                ChassisProjection::xd1(XC2VP50).point(1600, 200.0),
                ChassisProjection::xd1(XC2VP100).point(1600, 200.0),
            ));
        });

        let bench_text = t.span("metrics.render", |_| out.set.to_json_string());
        let telem_text = t.span("telemetry.render", |_| out.telem.to_json_string());
        let regen = PaperOut {
            set: out.set.clone(),
            telem: out.telem.clone(),
            bench_text,
            telem_text,
        };
        let gate = t.span("check.gate", |_| self.gate(&regen));

        let mut tally = Tally::default();
        tally.add(
            r.runs,
            r.drifted,
            "replay cycles drifted from BENCH_0001.json",
        );
        tally.merge(gate);
        self.stepped.set(r.stepped);
        tally
    }

    fn layers(&self, _out: &PaperOut, t: &Tracer, layers: &mut Layers) {
        for (layer, span) in [
            ("core.level1_s", "core.level1"),
            ("core.mvm_row_s", "core.mvm_row"),
            ("core.mvm_col_s", "core.mvm_col"),
            ("core.mvm_xd1_l2_s", "core.mvm_xd1_l2"),
            ("core.mm_linear_s", "core.mm_linear"),
            ("core.reduce_s", "core.reduce"),
            ("sparse.spmv_s", "sparse.spmv"),
            ("core.mm_hierarchical_s", "core.mm_hierarchical"),
        ] {
            layers.set(layer, t.total_s(span));
        }
        let stepped = self.stepped.get();
        layers.set("sim.stepped_cycles", stepped as f64);
        let design_s: f64 = [
            "core.level1",
            "core.mvm_row",
            "core.mvm_col",
            "core.mvm_xd1_l2",
            "core.mm_linear",
            "core.reduce",
            "sparse.spmv",
        ]
        .iter()
        .map(|s| t.total_s(s))
        .sum();
        if stepped > 0 {
            layers.set("sim.ns_per_stepped_cycle", design_s * 1e9 / stepped as f64);
        }
    }

    /// `run_matrix_telemetry` ÷ `run_matrix_with_backend`, medians of
    /// three interleaved pairs.
    fn extra_layers(&self, layers: &mut Layers) {
        let mut with = Vec::new();
        let mut without = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            black_box(run_matrix_telemetry(
                false,
                1,
                self.backend,
                DEFAULT_TELEM_WINDOW,
            ));
            with.push(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            black_box(run_matrix_with_backend(false, 1, self.backend));
            without.push(t0.elapsed().as_secs_f64());
        }
        layers.set(
            "sim.telemetry_overhead_ratio",
            median(&with) / median(&without),
        );
    }
}
