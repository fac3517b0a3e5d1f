//! Shared `--json <out.json>` support for the bench binaries.
//!
//! Every table/figure binary accepts `--json <path>` (also spelled
//! `--json=<path>`). When the flag is present the binary pushes a
//! [`RunRecord`] for each measurement it derives into a [`RecordSink`]
//! and, on exit, writes the whole [`RecordSet`] — the same canonical,
//! schema-versioned format the `observatory` binary persists as
//! `BENCH_<n>.json` — to the path. Without the flag the sink is inert,
//! so binaries push unconditionally.

use std::path::PathBuf;

use fblas_metrics::{RecordSet, RunRecord, StallBreakdown, StoreFile};
use fblas_sim::Harness;

/// Result of scanning the process arguments for `--json`, plus the
/// records collected so far.
pub struct RecordSink {
    path: Option<PathBuf>,
    set: RecordSet,
}

/// Compile-time audit: sinks hold only owned data, so a future parallel
/// binary can move one into a worker or collect records across threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RecordSink>();
};

impl RecordSink {
    /// Scan `std::env::args` for `--json <path>` / `--json=<path>`.
    ///
    /// `generator` names the producing binary in the record set.
    /// Exits with an error message when the flag is given without a path.
    pub fn from_args(generator: &str) -> Self {
        let mut args = std::env::args().skip(1);
        let mut path = None;
        while let Some(arg) = args.next() {
            if arg == "--json" {
                match args.next() {
                    Some(p) => path = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("error: --json requires a path argument");
                        std::process::exit(2);
                    }
                }
            } else if let Some(p) = arg.strip_prefix("--json=") {
                path = Some(PathBuf::from(p));
            }
        }
        Self {
            path,
            set: RecordSet::new(generator),
        }
    }

    /// Whether a record file was requested.
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Collect one record (cheap; kept even when disabled so callers
    /// need no conditionals).
    pub fn push(&mut self, record: RunRecord) {
        self.set.push(record);
    }

    /// Write the collected records, if a path was requested. Exits with
    /// an error message on I/O failure.
    pub fn write(&self) {
        let Some(path) = &self.path else { return };
        match self.set.save(path) {
            Ok(()) => eprintln!("records: wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write records: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// Run one kernel through `harness` and attribute the stalls it caused.
///
/// Snapshots the probe's aggregated per-cause stall totals around the
/// run, so binaries that share one harness across many kernels still get
/// per-run [`StallBreakdown`]s.
pub fn measure<T>(
    harness: &mut Harness,
    run: impl FnOnce(&mut Harness) -> T,
) -> (T, StallBreakdown) {
    let before = harness.probe().stall_totals();
    let out = run(harness);
    let after = harness.probe().stall_totals();
    (out, StallBreakdown::from_delta(before, after))
}

/// Record one representative run of each simulated kernel family — the
/// same kernels [`crate::trace::trace_reference_kernels`] puts on a
/// timeline — so `--json` is meaningful on binaries whose own tables
/// are purely analytic (cost models, projections).
pub fn record_reference_kernels(sink: &mut RecordSink) {
    use fblas_core::dot::{DotParams, DotProductDesign};
    use fblas_core::mm::{LinearArrayMm, MmParams};
    use fblas_core::mvm::{DenseMatrix, MvmParams, RowMajorMvm};

    if !sink.enabled() {
        return;
    }
    let mut h = Harness::new();

    let n = 256usize;
    let u = crate::synth_int(1, n, 8);
    let v = crate::synth_int(2, n, 8);
    let design = DotProductDesign::standalone(DotParams::table3(), 170.0);
    let (out, stalls) = measure(&mut h, |h| design.run_in(h, &u, &v));
    sink.push(RunRecord::from_sim(
        "dot",
        &[("k", 2), ("n", n as i64)],
        out.report,
        stalls,
        out.clock.mhz(),
        0,
    ));

    let a = DenseMatrix::from_rows(64, 64, crate::synth_int(3, 64 * 64, 8));
    let x = crate::synth_int(4, 64, 8);
    let mvm = RowMajorMvm::standalone(MvmParams::with_k(4), 170.0);
    let (out, stalls) = measure(&mut h, |h| mvm.run_in(h, &a, &x));
    sink.push(RunRecord::from_sim(
        "mvm/row",
        &[("k", 4), ("n", 64)],
        out.report,
        stalls,
        out.clock.mhz(),
        0,
    ));

    let m = 16usize;
    let nn = 32usize;
    let ma = DenseMatrix::from_rows(nn, nn, crate::synth_int(5, nn * nn, 4));
    let mb = DenseMatrix::from_rows(nn, nn, crate::synth_int(6, nn * nn, 4));
    let mm = LinearArrayMm::new(MmParams::test(4, m));
    let (out, stalls) = measure(&mut h, |h| mm.run_in(h, &ma, &mb));
    sink.push(RunRecord::from_sim(
        "mm/linear",
        &[("k", 4), ("m", m as i64), ("n", nn as i64)],
        out.report,
        stalls,
        out.clock.mhz(),
        0,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_core::dot::{DotParams, DotProductDesign};

    #[test]
    fn measure_attributes_stalls_per_run() {
        let mut h = Harness::new();
        let design = DotProductDesign::standalone(DotParams::table3(), 170.0);
        let u = crate::synth_int(1, 128, 8);
        let v = crate::synth_int(2, 128, 8);
        let (first, s1) = measure(&mut h, |h| design.run_in(h, &u, &v));
        let (second, s2) = measure(&mut h, |h| design.run_in(h, &u, &v));
        // Identical runs through one shared harness yield identical
        // per-run deltas (the snapshots isolate them).
        assert_eq!(first.report, second.report);
        assert_eq!(s1, s2);
    }
}
