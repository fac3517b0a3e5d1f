//! `--trace <out.json>` support for `verify_all`.
//!
//! When the flag is present, [`trace_reference_kernels`] routes one
//! representative run of each simulated kernel family through a single
//! deep-probed [`Harness`] and writes the merged Chrome `trace_event`
//! JSON to the path. Open the file in `chrome://tracing` or
//! <https://ui.perfetto.dev> to see per-component busy/stall spans (with
//! stall-cause attribution) and FIFO-occupancy counter tracks.

use std::path::{Path, PathBuf};

use fblas_sim::Harness;

use crate::cli;

/// Telemetry window for traced runs. Much finer than the
/// [`fblas_sim::DEFAULT_TELEM_WINDOW`] the observatory uses: trace
/// kernels are a few hundred cycles, and the counter tracks are for
/// *looking at* in a trace viewer, so ~4-cycle-per-pixel resolution
/// beats RLE compactness here.
pub const TRACE_TELEM_WINDOW: u64 = 64;

/// The parsed `--trace` flag: where to write the trace, if anywhere.
pub struct TraceOption {
    path: Option<PathBuf>,
}

impl TraceOption {
    /// Parse the arguments of a binary whose only flag is
    /// `--trace <path>` (also spelled `--trace=<path>`).
    ///
    /// Any other argument, a `--trace` with no path, and a path whose
    /// parent directory does not exist are errors, so the caller can
    /// exit before doing any work.
    pub fn parse(mut args: Vec<String>) -> Result<Self, String> {
        let path = cli::take_value(&mut args, "--trace")?.map(PathBuf::from);
        if let Some(stray) = args.first() {
            return Err(format!("unknown argument `{stray}`"));
        }
        let parent = path
            .as_deref()
            .and_then(Path::parent)
            .filter(|p| !p.as_os_str().is_empty());
        if let Some(parent) = parent.filter(|p| !p.is_dir()) {
            return Err(format!(
                "--trace directory {} does not exist",
                parent.display()
            ));
        }
        Ok(Self { path })
    }
}

/// Trace one representative run of each simulated kernel family — dot
/// product (§4.2), row-major matrix-vector (§4.4), and the linear-array
/// matrix multiply (§5.1) — on a single timeline, if a trace was
/// requested. Exits with an error message on I/O failure.
///
/// Sizes are kept small because the point of the trace is
/// component/stall structure, not the full-size run. The harness also
/// runs windowed telemetry at [`TRACE_TELEM_WINDOW`] cycles, so the
/// written trace carries the per-window busy/stall counter tracks next
/// to the waveforms.
pub fn trace_reference_kernels(trace: &TraceOption) {
    use fblas_core::dot::{DotParams, DotProductDesign};
    use fblas_core::mm::{LinearArrayMm, MmParams};
    use fblas_core::mvm::{DenseMatrix, MvmParams, RowMajorMvm};

    let Some(path) = &trace.path else { return };
    let mut h = Harness::deep();
    h.enable_telemetry(TRACE_TELEM_WINDOW);

    let n = 256usize;
    let u = crate::synth_int(1, n, 8);
    let v = crate::synth_int(2, n, 8);
    DotProductDesign::standalone(DotParams::table3(), 170.0).run_in(&mut h, &u, &v);

    let a = DenseMatrix::from_rows(64, 64, crate::synth_int(3, 64 * 64, 8));
    let x = crate::synth_int(4, 64, 8);
    RowMajorMvm::standalone(MvmParams::with_k(4), 170.0).run_in(&mut h, &a, &x);

    let m = 16usize;
    let nn = 32usize;
    let ma = DenseMatrix::from_rows(nn, nn, crate::synth_int(5, nn * nn, 4));
    let mb = DenseMatrix::from_rows(nn, nn, crate::synth_int(6, nn * nn, 4));
    LinearArrayMm::new(MmParams::test(4, m)).run_in(&mut h, &ma, &mb);

    match h.probe().write_chrome_trace(path) {
        Ok(()) => eprintln!("trace: wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write trace {}: {e}", path.display());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A parsed `--trace` path receives a Chrome trace envelope carrying
    /// the three reference kernels' components. (Rejected arguments are
    /// covered end to end by `run_binaries`.)
    #[test]
    fn reference_kernels_write_a_chrome_trace() {
        let out = std::env::temp_dir().join("fblas_reference_kernels_trace.json");
        let trace = TraceOption::parse(vec![format!("--trace={}", out.display())])
            .expect("a path in an existing directory");
        trace_reference_kernels(&trace);
        let text = std::fs::read_to_string(&out).expect("trace file missing");
        std::fs::remove_file(&out).ok();
        assert!(text.starts_with("{\"displayTimeUnit\""), "bad envelope");
        for needle in [
            "traceEvents",
            "dot/front-end",
            "mm/pe-array",
            "row-mvm/front-end",
        ] {
            assert!(text.contains(needle), "trace lacks {needle:?}");
        }
    }
}
