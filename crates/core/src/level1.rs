//! Additional Level-1 BLAS streaming designs: axpy, scal, asum, nrm2.
//!
//! The paper studies dot product as *the* representative Level-1
//! operation (§4.1) because it is the only one that needs the reduction
//! circuit; a usable BLAS library also ships the other Level-1 routines,
//! and on the reconfigurable-system model they are straightforward
//! streaming designs built from the same parts:
//!
//! * [`AxpyDesign`] — y ← a·x + y: k multiplier/adder lanes, 2k words in
//!   and k words out per cycle (the most bandwidth-hungry Level-1 op:
//!   3 words of traffic per 2 flops).
//! * [`ScalDesign`] — x ← a·x: k multiplier lanes, k words each way.
//! * [`AsumDesign`] — Σ|xᵢ|: magnitude extraction is free in hardware
//!   (drop the sign bit), then the §4.1 adder tree + §4.3 reduction
//!   circuit accumulate, exactly like dot product with one input stream.
//! * [`nrm2`] — ‖x‖₂ via the dot-product design plus a host-side square
//!   root (XD1's intended FPGA/processor split; a hardware sqrt unit
//!   would pipeline the same way as the adder).
//!
//! These are extensions beyond the paper's evaluation; DESIGN.md lists
//! them as such.

use crate::dot::{DotOutcome, DotParams, DotProductDesign};
use crate::reduce::{ReduceInput, Reducer, SingleAdderReducer};
use crate::report::SimReport;
use fblas_fpu::softfloat::{add_f64, mul_f64, SIGN_MASK};
use fblas_fpu::{ADDER_STAGES, MULTIPLIER_STAGES};
use fblas_mem::{ReadChannel, WriteChannel};
use fblas_sim::{
    flip_f64_bit, BusyRuns, ClockDomain, DelayLine, DepthRuns, Design, EdgeKind, ExecBackend,
    FaultKind, FaultSpec, Harness, Probe, ProbeId, StallCause, StallRuns, Topology,
};
use fblas_system::io_bound_peak_dot;

/// Parameters of the streaming Level-1 designs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Level1Params {
    /// Parallel lanes.
    pub k: usize,
    /// Adder pipeline depth α.
    pub adder_stages: usize,
    /// Multiplier pipeline depth.
    pub mult_stages: usize,
    /// Words per cycle each input stream sustains.
    pub words_per_cycle_per_stream: f64,
}

impl Level1Params {
    /// A k-lane configuration fed at full rate.
    pub fn with_k(k: usize) -> Self {
        Self {
            k,
            adder_stages: ADDER_STAGES,
            mult_stages: MULTIPLIER_STAGES,
            words_per_cycle_per_stream: k as f64,
        }
    }
}

/// Result of a streaming Level-1 run producing a vector.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The output vector.
    pub result: Vec<f64>,
    /// Cycle/flop/word accounting.
    pub report: SimReport,
    /// Clock domain (tree-design rate, 170 MHz).
    pub clock: ClockDomain,
}

/// y ← a·x + y on k multiplier/adder lanes.
///
/// # Examples
///
/// ```
/// use fblas_core::level1::{AxpyDesign, Level1Params};
///
/// let axpy = AxpyDesign::new(Level1Params::with_k(2));
/// let out = axpy.run(2.0, &[1.0, 2.0, 3.0], &[10.0, 10.0, 10.0]);
/// assert_eq!(out.result, vec![12.0, 14.0, 16.0]);
/// ```
#[derive(Debug, Clone)]
pub struct AxpyDesign {
    params: Level1Params,
    clock: ClockDomain,
}

impl AxpyDesign {
    /// Instantiate at the tree-design clock.
    pub fn new(params: Level1Params) -> Self {
        Self {
            params,
            clock: ClockDomain::from_mhz(170.0),
        }
    }

    /// The parameter set.
    pub fn params(&self) -> &Level1Params {
        &self.params
    }

    /// Static channel graph: two input streams into k lockstep
    /// multiplier/adder lanes, one output stream. Feed-forward — no
    /// feedback loop, so deadlock-freedom is structural.
    pub fn topology(&self) -> Topology {
        let p = &self.params;
        let mut t = Topology::new(format!("axpy[k={}]", p.k));
        let x = t.source("x-stream");
        let y = t.source("y-stream");
        let mult = t.pe("mult-bank", p.k as f64);
        let add = t.pe("adder-bank", p.k as f64);
        let out = t.sink("out-stream");
        let rate = p.words_per_cycle_per_stream;
        t.edge(
            "x-feed",
            x,
            mult,
            EdgeKind::Channel {
                words_per_cycle: rate,
                flops_per_word: 1.0,
            },
        );
        t.edge(
            "y-feed",
            y,
            add,
            EdgeKind::Channel {
                words_per_cycle: rate,
                flops_per_word: 1.0,
            },
        );
        t.edge(
            "mult-pipe",
            mult,
            add,
            EdgeKind::Delay {
                stages: p.mult_stages,
            },
        );
        let tail = t.junction("out-port");
        t.edge(
            "add-pipe",
            add,
            tail,
            EdgeKind::Delay {
                stages: p.adder_stages,
            },
        );
        t.edge(
            "out-feed",
            tail,
            out,
            EdgeKind::Channel {
                words_per_cycle: rate,
                flops_per_word: 0.0,
            },
        );
        t
    }

    /// Compute `a·x + y`, cycle by cycle.
    pub fn run(&self, a: f64, x: &[f64], y: &[f64]) -> StreamOutcome {
        self.run_in(&mut Harness::new(), a, x, y)
    }

    /// [`AxpyDesign::run`] through a caller-supplied harness, so the
    /// run's stall attribution and channel waveforms land in the
    /// caller's probe.
    pub fn run_in(&self, harness: &mut Harness, a: f64, x: &[f64], y: &[f64]) -> StreamOutcome {
        assert_eq!(x.len(), y.len(), "axpy needs equal-length vectors");
        let k = self.params.k;
        let n = x.len();
        let rate = self.params.words_per_cycle_per_stream;
        let mut run = AxpyRun {
            a,
            k,
            n,
            x_ch: ReadChannel::new(x.to_vec(), rate),
            y_ch: ReadChannel::new(y.to_vec(), rate),
            out_ch: WriteChannel::with_capacity(rate, n),
            // Lockstep lanes: multiply then add, one batch per cycle.
            pipe: DelayLine::new(self.params.mult_stages + self.params.adder_stages),
            xb: Vec::with_capacity(k),
            yb: Vec::with_capacity(k),
            fed: 0,
            limit: (n as u64 + 64) * 16 + 100_000,
            // Rate precondition for fast-forwarding (k as f64 is exact).
            // Rate accounting, not datapath. lint: allow(native-f64)
            full_rate: rate >= k as f64,
            ids: None,
        };
        let report = harness.run(&mut run);

        // Native backend: the numeric answer comes from the `fblas-sw`
        // softfloat microkernel (never while faults are armed — see
        // DESIGN.md §13).
        let result = if harness.backend().native_results() && !harness.faults_armed() {
            fblas_sw::microkernel::axpy(a, x, y)
        } else {
            run.out_ch.into_data()
        };

        StreamOutcome {
            result,
            report,
            clock: self.clock,
        }
    }
}

/// Probe components of one axpy run.
#[derive(Debug, Clone, Copy)]
struct AxpyIds {
    lanes: ProbeId,
    x_stream: ProbeId,
    y_stream: ProbeId,
    out_stream: ProbeId,
    pipeline: ProbeId,
}

/// One in-flight axpy computation as a harness [`Design`].
struct AxpyRun {
    a: f64,
    k: usize,
    n: usize,
    x_ch: ReadChannel,
    y_ch: ReadChannel,
    out_ch: WriteChannel,
    pipe: DelayLine<Vec<f64>>,
    xb: Vec<f64>,
    yb: Vec<f64>,
    fed: usize,
    limit: u64,
    // All three streams sustain k words/cycle — the precondition of the
    // fused fast-forward replay (batch t fires at cycle t, emerges at
    // t + pipeline latency, and the output port never back-pressures).
    full_rate: bool,
    ids: Option<AxpyIds>,
}

impl Design for AxpyRun {
    fn name(&self) -> &str {
        "axpy"
    }

    fn setup(&mut self, probe: &mut Probe) {
        self.ids = Some(AxpyIds {
            lanes: probe.component("axpy/lanes"),
            x_stream: probe.component("axpy/x-stream"),
            y_stream: probe.component("axpy/y-stream"),
            out_stream: probe.component("axpy/out-stream"),
            pipeline: probe.component("axpy/pipeline"),
        });
    }

    fn cycle(&mut self, probe: &mut Probe) {
        let ids = self.ids.expect("setup registered components");
        self.x_ch.tick();
        self.y_ch.tick();
        self.out_ch.tick();

        let mut batch_in = None;
        if self.fed < self.n {
            let want = self.k.min(self.n - self.fed);
            let got_x = self.x_ch.read_up_to(want - self.xb.len(), &mut self.xb);
            let got_y = self.y_ch.read_up_to(want - self.yb.len(), &mut self.yb);
            probe.io_in((got_x + got_y) as u64);
            if self.xb.len() == want && self.yb.len() == want {
                let batch: Vec<f64> = self
                    .xb
                    .drain(..)
                    .zip(self.yb.drain(..))
                    .map(|(xi, yi)| add_f64(mul_f64(self.a, xi), yi))
                    .collect();
                self.fed += want;
                probe.busy(ids.lanes);
                probe.flops(2 * want as u64);
                batch_in = Some(batch);
            } else {
                probe.stall(ids.lanes, StallCause::InputStarved);
            }
        } else {
            probe.stall(ids.lanes, StallCause::Drain);
        }
        if let Some(batch) = self.pipe.step(batch_in) {
            for v in batch {
                assert!(self.out_ch.write(v), "output bandwidth must match input");
                probe.io_out(1);
            }
        }

        self.pipe.probe_occupancy(probe, ids.pipeline);
        self.x_ch.probe_utilization(probe, ids.x_stream);
        self.y_ch.probe_utilization(probe, ids.y_stream);
        self.out_ch.probe_utilization(probe, ids.out_stream);
    }

    fn done(&self) -> bool {
        self.out_ch.words_written() >= self.n
    }

    fn cycle_limit(&self) -> u64 {
        self.limit
    }

    fn progress(&self) -> Option<u64> {
        Some(self.fed as u64 + self.out_ch.words_written() as u64)
    }

    /// Fused replay (DESIGN.md §13): at full rate the schedule is the
    /// closed form "batch t fires at cycle t, emerges at t + P", so the
    /// whole run collapses to `groups + P` cycles. Probe counters are
    /// reconstructed analytically through the batched recording API —
    /// bit-identical to the stepped run's, as the parity suites assert —
    /// and the elementwise values are computed in one flat pass.
    fn fast_forward(&mut self, probe: &mut Probe, backend: ExecBackend) -> u64 {
        if !self.full_rate {
            return 0;
        }
        let ids = self.ids.expect("setup registered components");
        let n = self.n as u64;
        let k = self.k as u64;
        let groups = n.div_ceil(k.max(1));
        let pipe_lat = self.pipe.latency() as u64;
        let native = backend.native_results();
        let total = groups + pipe_lat;
        assert!(
            total < self.limit,
            "axpy: simulation exceeded cycle limit {}",
            self.limit
        );

        // Values, in stream order. Under the native backend zeros are
        // pushed — the answer is substituted from the microkernel.
        for i in 0..self.n {
            let v = if native {
                0.0
            } else {
                add_f64(mul_f64(self.a, self.x_ch.data()[i]), self.y_ch.data()[i])
            };
            self.out_ch.push_unthrottled(v);
        }
        self.fed = self.n;

        // Counter reconstruction, positioned so windowed telemetry (if
        // enabled) lands on the same per-window vectors the stepped run
        // produces: groups fire at cycles 1..=groups, the pipeline
        // drains through groups+1..=total.
        probe.io_in(2 * n);
        probe.flops(2 * n);
        probe.io_out(n);
        probe.record_busy_marks_at(ids.lanes, 1, groups);
        probe.record_busy_cycles_at(1, groups);
        probe.record_stalls_at(ids.lanes, StallCause::Drain, groups + 1, pipe_lat);
        let mut pipe_runs = DepthRuns::new(ids.pipeline);
        for t in 1..=total {
            let in_flight = t.min(groups) - t.saturating_sub(pipe_lat).min(groups);
            pipe_runs.push(probe, in_flight as usize);
        }
        pipe_runs.finish(probe);
        // Stream-rate histograms: delta k per full group, the ragged
        // tail once, 0 elsewhere — the inputs drain at the end while
        // the output fills at the head (trailing by the pipe latency).
        let tail = n - (groups - 1) * k;
        let full = if tail == k { groups } else { groups - 1 };
        for id in [ids.x_stream, ids.y_stream] {
            probe.record_depths_at(id, k as usize, 1, full);
            probe.record_depths_at(id, tail as usize, full + 1, groups - full);
            probe.record_depths_at(id, 0, groups + 1, pipe_lat);
            probe.record_rate_base(id, n);
        }
        probe.record_depths_at(ids.out_stream, 0, 1, pipe_lat);
        probe.record_depths_at(ids.out_stream, k as usize, pipe_lat + 1, full);
        probe.record_depths_at(
            ids.out_stream,
            tail as usize,
            pipe_lat + full + 1,
            groups - full,
        );
        probe.record_rate_base(ids.out_stream, n);
        total
    }

    fn drain(&mut self, probe: &mut Probe) {
        // Completion latency: every batch spends exactly the pipeline
        // latency between firing and emerging — recorded here so the
        // stepped and fast-forwarded paths share one source.
        let ids = self.ids.expect("setup registered components");
        let groups = (self.n as u64).div_ceil(self.k.max(1) as u64);
        probe.record_latencies(ids.lanes, self.pipe.latency() as u64, groups);
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "fault delivery: the harness calls inject only while a fault is armed"
    )]
    fn inject(&mut self, fault: &FaultSpec) -> bool {
        match fault.kind {
            // Lane 0 of the in-flight batch at `stage`: all lanes are
            // identical registers, so one lane stands for the bank.
            FaultKind::PipelineBitFlip { stage, bit } => self
                .pipe
                .fault_mutate(stage, |batch| batch[0] = flip_f64_bit(batch[0], bit)),
            FaultKind::BufferBitFlip { slot, bit } => {
                if self.xb.is_empty() {
                    return false;
                }
                let idx = slot % self.xb.len();
                self.xb[idx] = flip_f64_bit(self.xb[idx], bit);
                true
            }
            FaultKind::ChannelStall { beats } => self.x_ch.fault_drop_beats(beats),
            // No reduction circuit in this design: stuck-at faults on
            // reduction state have nothing to land on.
            FaultKind::StuckAtZero { .. } => false,
        }
    }
}

/// x ← a·x on k multiplier lanes.
#[derive(Debug, Clone)]
pub struct ScalDesign {
    params: Level1Params,
    clock: ClockDomain,
}

impl ScalDesign {
    /// Instantiate at the tree-design clock.
    pub fn new(params: Level1Params) -> Self {
        Self {
            params,
            clock: ClockDomain::from_mhz(170.0),
        }
    }

    /// Static channel graph: one input stream through k multipliers to
    /// one output stream. Feed-forward, trivially deadlock-free.
    pub fn topology(&self) -> Topology {
        let p = &self.params;
        let mut t = Topology::new(format!("scal[k={}]", p.k));
        let x = t.source("x-stream");
        let mult = t.pe("mult-bank", p.k as f64);
        let out = t.sink("out-stream");
        let rate = p.words_per_cycle_per_stream;
        t.edge(
            "x-feed",
            x,
            mult,
            EdgeKind::Channel {
                words_per_cycle: rate,
                flops_per_word: 1.0,
            },
        );
        let tail = t.junction("out-port");
        t.edge(
            "mult-pipe",
            mult,
            tail,
            EdgeKind::Delay {
                stages: p.mult_stages,
            },
        );
        t.edge(
            "out-feed",
            tail,
            out,
            EdgeKind::Channel {
                words_per_cycle: rate,
                flops_per_word: 0.0,
            },
        );
        t
    }

    /// Compute `a·x`, cycle by cycle.
    pub fn run(&self, a: f64, x: &[f64]) -> StreamOutcome {
        self.run_in(&mut Harness::new(), a, x)
    }

    /// [`ScalDesign::run`] through a caller-supplied harness.
    pub fn run_in(&self, harness: &mut Harness, a: f64, x: &[f64]) -> StreamOutcome {
        let k = self.params.k;
        let n = x.len();
        let rate = self.params.words_per_cycle_per_stream;
        let mut run = ScalRun {
            a,
            k,
            n,
            x_ch: ReadChannel::new(x.to_vec(), rate),
            out_ch: WriteChannel::with_capacity(rate, n),
            pipe: DelayLine::new(self.params.mult_stages),
            xb: Vec::with_capacity(k),
            fed: 0,
            limit: (n as u64 + 64) * 16 + 100_000,
            // Rate precondition for fast-forwarding (k as f64 is exact).
            // Rate accounting, not datapath. lint: allow(native-f64)
            full_rate: rate >= k as f64,
            ids: None,
        };
        let report = harness.run(&mut run);

        // Native backend: microkernel result, never under armed faults.
        let result = if harness.backend().native_results() && !harness.faults_armed() {
            fblas_sw::microkernel::scal(a, x)
        } else {
            run.out_ch.into_data()
        };

        StreamOutcome {
            result,
            report,
            clock: self.clock,
        }
    }
}

/// Probe components of one scal run.
#[derive(Debug, Clone, Copy)]
struct ScalIds {
    lanes: ProbeId,
    x_stream: ProbeId,
    out_stream: ProbeId,
    pipeline: ProbeId,
}

/// One in-flight scal computation as a harness [`Design`].
struct ScalRun {
    a: f64,
    k: usize,
    n: usize,
    x_ch: ReadChannel,
    out_ch: WriteChannel,
    pipe: DelayLine<Vec<f64>>,
    xb: Vec<f64>,
    fed: usize,
    limit: u64,
    // Both streams sustain k words/cycle (fast-forward precondition).
    full_rate: bool,
    ids: Option<ScalIds>,
}

impl Design for ScalRun {
    fn name(&self) -> &str {
        "scal"
    }

    fn setup(&mut self, probe: &mut Probe) {
        self.ids = Some(ScalIds {
            lanes: probe.component("scal/lanes"),
            x_stream: probe.component("scal/x-stream"),
            out_stream: probe.component("scal/out-stream"),
            pipeline: probe.component("scal/pipeline"),
        });
    }

    fn cycle(&mut self, probe: &mut Probe) {
        let ids = self.ids.expect("setup registered components");
        self.x_ch.tick();
        self.out_ch.tick();

        let mut batch_in = None;
        if self.fed < self.n {
            let want = self.k.min(self.n - self.fed);
            let got = self.x_ch.read_up_to(want - self.xb.len(), &mut self.xb);
            probe.io_in(got as u64);
            if self.xb.len() == want {
                let batch: Vec<f64> = self.xb.drain(..).map(|xi| mul_f64(self.a, xi)).collect();
                self.fed += want;
                probe.busy(ids.lanes);
                probe.flops(want as u64);
                batch_in = Some(batch);
            } else {
                probe.stall(ids.lanes, StallCause::InputStarved);
            }
        } else {
            probe.stall(ids.lanes, StallCause::Drain);
        }
        if let Some(batch) = self.pipe.step(batch_in) {
            for v in batch {
                assert!(self.out_ch.write(v), "output bandwidth must match input");
                probe.io_out(1);
            }
        }

        self.pipe.probe_occupancy(probe, ids.pipeline);
        self.x_ch.probe_utilization(probe, ids.x_stream);
        self.out_ch.probe_utilization(probe, ids.out_stream);
    }

    fn done(&self) -> bool {
        self.out_ch.words_written() >= self.n
    }

    fn cycle_limit(&self) -> u64 {
        self.limit
    }

    fn progress(&self) -> Option<u64> {
        Some(self.fed as u64 + self.out_ch.words_written() as u64)
    }

    /// Fused replay (DESIGN.md §13), same closed-form schedule as axpy
    /// with the multiplier-only pipeline and a single input stream.
    fn fast_forward(&mut self, probe: &mut Probe, backend: ExecBackend) -> u64 {
        if !self.full_rate {
            return 0;
        }
        let ids = self.ids.expect("setup registered components");
        let n = self.n as u64;
        let k = self.k as u64;
        let groups = n.div_ceil(k.max(1));
        let pipe_lat = self.pipe.latency() as u64;
        let native = backend.native_results();
        let total = groups + pipe_lat;
        assert!(
            total < self.limit,
            "scal: simulation exceeded cycle limit {}",
            self.limit
        );

        for i in 0..self.n {
            let v = if native {
                0.0
            } else {
                mul_f64(self.a, self.x_ch.data()[i])
            };
            self.out_ch.push_unthrottled(v);
        }
        self.fed = self.n;

        probe.io_in(n);
        probe.flops(n);
        probe.io_out(n);
        probe.record_busy_marks_at(ids.lanes, 1, groups);
        probe.record_busy_cycles_at(1, groups);
        probe.record_stalls_at(ids.lanes, StallCause::Drain, groups + 1, pipe_lat);
        let mut pipe_runs = DepthRuns::new(ids.pipeline);
        for t in 1..=total {
            let in_flight = t.min(groups) - t.saturating_sub(pipe_lat).min(groups);
            pipe_runs.push(probe, in_flight as usize);
        }
        pipe_runs.finish(probe);
        let tail = n - (groups - 1) * k;
        let full = if tail == k { groups } else { groups - 1 };
        probe.record_depths_at(ids.x_stream, k as usize, 1, full);
        probe.record_depths_at(ids.x_stream, tail as usize, full + 1, groups - full);
        probe.record_depths_at(ids.x_stream, 0, groups + 1, pipe_lat);
        probe.record_rate_base(ids.x_stream, n);
        probe.record_depths_at(ids.out_stream, 0, 1, pipe_lat);
        probe.record_depths_at(ids.out_stream, k as usize, pipe_lat + 1, full);
        probe.record_depths_at(
            ids.out_stream,
            tail as usize,
            pipe_lat + full + 1,
            groups - full,
        );
        probe.record_rate_base(ids.out_stream, n);
        total
    }

    fn drain(&mut self, probe: &mut Probe) {
        // Completion latency: constant pipeline transit per batch,
        // shared by the stepped and fast-forwarded paths.
        let ids = self.ids.expect("setup registered components");
        let groups = (self.n as u64).div_ceil(self.k.max(1) as u64);
        probe.record_latencies(ids.lanes, self.pipe.latency() as u64, groups);
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "fault delivery: the harness calls inject only while a fault is armed"
    )]
    fn inject(&mut self, fault: &FaultSpec) -> bool {
        match fault.kind {
            FaultKind::PipelineBitFlip { stage, bit } => self
                .pipe
                .fault_mutate(stage, |batch| batch[0] = flip_f64_bit(batch[0], bit)),
            FaultKind::BufferBitFlip { slot, bit } => {
                if self.xb.is_empty() {
                    return false;
                }
                let idx = slot % self.xb.len();
                self.xb[idx] = flip_f64_bit(self.xb[idx], bit);
                true
            }
            FaultKind::ChannelStall { beats } => self.x_ch.fault_drop_beats(beats),
            FaultKind::StuckAtZero { .. } => false,
        }
    }
}

/// Result of an asum run.
#[derive(Debug, Clone)]
pub struct AsumOutcome {
    /// Σ|xᵢ|.
    pub result: f64,
    /// Cycle/flop/word accounting.
    pub report: SimReport,
    /// Clock domain.
    pub clock: ClockDomain,
    /// I/O-bound peak under the exercised bandwidth.
    pub peak_flops: f64,
}

/// Σ|xᵢ| via the adder tree and the reduction circuit.
#[derive(Debug, Clone)]
pub struct AsumDesign {
    params: Level1Params,
    clock: ClockDomain,
}

impl AsumDesign {
    /// Instantiate at the tree-design clock.
    pub fn new(params: Level1Params) -> Self {
        assert!(
            params.k.is_power_of_two(),
            "adder tree needs power-of-two k"
        );
        Self {
            params,
            clock: ClockDomain::from_mhz(170.0),
        }
    }

    /// Static channel graph: the magnitude/adder-tree front end feeding
    /// the §4.3 reduction circuit. The only feedback cycle is the
    /// reduction loop (the circuit never back-pressures the tree, so no
    /// backlog gate exists in this design).
    pub fn topology(&self) -> Topology {
        let p = &self.params;
        let mut t = Topology::new(format!("asum[k={}]", p.k));
        let x = t.source("x-stream");
        let tree = t.pe("magnitude-tree", (p.k - 1) as f64);
        let reducer = t.pe("reduction", 1.0);
        let out = t.sink("result");
        t.edge(
            "x-feed",
            x,
            tree,
            EdgeKind::Channel {
                words_per_cycle: p.words_per_cycle_per_stream,
                flops_per_word: 1.0,
            },
        );
        t.edge(
            "tree-pipe",
            tree,
            reducer,
            EdgeKind::Delay {
                stages: (p.k.ilog2() as usize * p.adder_stages).max(1),
            },
        );
        crate::topology::attach_reduction_loop(&mut t, reducer, p.adder_stages);
        t.edge(
            "result-port",
            reducer,
            out,
            EdgeKind::Channel {
                words_per_cycle: 1.0,
                flops_per_word: 0.0,
            },
        );
        t
    }

    /// Compute Σ|xᵢ| with the paper's reduction circuit.
    pub fn run(&self, x: &[f64]) -> AsumOutcome {
        self.run_in(&mut Harness::new(), x)
    }

    /// [`AsumDesign::run`] through a caller-supplied harness.
    ///
    /// Busy-cycle note: asum counts a cycle as busy when the lockstep
    /// magnitude/tree front end fires *or* the reduction circuit accepts
    /// a value — the workspace-wide definition (≥1 FP unit issued work
    /// that cycle), matching the dot-product design. A pre-harness
    /// version counted only front-end fires, undercounting the
    /// reduction-drain tail by ~tree-latency cycles.
    pub fn run_in(&self, harness: &mut Harness, x: &[f64]) -> AsumOutcome {
        assert!(!x.is_empty(), "asum of an empty vector");
        let k = self.params.k;
        let n = x.len();
        let mut run = AsumRun {
            k,
            n,
            groups: n.div_ceil(k),
            x_ch: ReadChannel::new(x.to_vec(), self.params.words_per_cycle_per_stream),
            // |x| is a wire-level operation (clear bit 63): zero latency, no
            // flops — then the dot-product tree/reduction path applies.
            tree: DelayLine::new((k.ilog2() as usize * self.params.adder_stages).max(1)),
            reducer: SingleAdderReducer::new(self.params.adder_stages),
            buf: Vec::with_capacity(k),
            groups_in: 0,
            result: None,
            limit: (n as u64 + 64) * 16 + 100_000,
            // Rate precondition for fast-forwarding (k as f64 is exact).
            // Rate accounting, not datapath. lint: allow(native-f64)
            full_rate: self.params.words_per_cycle_per_stream >= k as f64,
            ids: None,
        };
        let report = harness.run(&mut run);

        // Native backend: microkernel result, never under armed faults.
        let result = if harness.backend().native_results() && !harness.faults_armed() {
            fblas_sw::microkernel::asum(x)
        } else {
            run.result.expect("harness exits on result")
        };

        AsumOutcome {
            result,
            report,
            clock: self.clock,
            peak_flops: io_bound_peak_dot(
                // Bandwidth accounting. lint: allow(native-f64)
                self.params.words_per_cycle_per_stream * 8.0 * self.clock.hz(),
            ),
        }
    }
}

/// Probe components of one asum run.
#[derive(Debug, Clone, Copy)]
struct AsumIds {
    front_end: ProbeId,
    x_stream: ProbeId,
    reducer: ProbeId,
    reduction_buffer: ProbeId,
}

/// One in-flight asum computation as a harness [`Design`].
struct AsumRun {
    k: usize,
    n: usize,
    groups: usize,
    x_ch: ReadChannel,
    tree: DelayLine<(f64, bool)>,
    reducer: SingleAdderReducer,
    buf: Vec<f64>,
    groups_in: usize,
    result: Option<f64>,
    limit: u64,
    // The stream sustains k words/cycle (fast-forward precondition; the
    // reducer is always the §4.3 circuit, which never back-pressures).
    full_rate: bool,
    ids: Option<AsumIds>,
}

impl Design for AsumRun {
    fn name(&self) -> &str {
        "asum"
    }

    fn setup(&mut self, probe: &mut Probe) {
        self.ids = Some(AsumIds {
            front_end: probe.component("asum/front-end"),
            x_stream: probe.component("asum/x-stream"),
            reducer: probe.component("asum/reducer"),
            reduction_buffer: probe.component("asum/reduction-buffer"),
        });
    }

    fn cycle(&mut self, probe: &mut Probe) {
        let ids = self.ids.expect("setup registered components");
        self.x_ch.tick();

        let mut tree_in = None;
        if self.groups_in < self.groups {
            let want = self.k.min(self.n - self.groups_in * self.k);
            let got = self.x_ch.read_up_to(want - self.buf.len(), &mut self.buf);
            probe.io_in(got as u64);
            if self.buf.len() == want {
                let mags: Vec<f64> = self
                    .buf
                    .drain(..)
                    .map(|v| f64::from_bits(v.to_bits() & !SIGN_MASK))
                    .collect();
                self.groups_in += 1;
                probe.busy(ids.front_end);
                // want−1 tree adds plus the free magnitude op on the
                // last lane: totals n over the run (n−1 adds + 1).
                probe.flops(want as u64);
                tree_in = Some((balanced(&mags), self.groups_in == self.groups));
            } else {
                probe.stall(ids.front_end, StallCause::InputStarved);
            }
        } else {
            probe.stall(ids.front_end, StallCause::Drain);
        }
        let red_in = self.tree.step(tree_in).map(|(value, last)| ReduceInput {
            set_id: 0,
            value,
            last,
        });
        if red_in.is_some() {
            probe.busy(ids.reducer);
        } else if self.groups_in == self.groups {
            probe.stall(ids.reducer, StallCause::Drain);
        }
        if let Some(ev) = self.reducer.tick(red_in) {
            self.result = Some(ev.value);
            probe.io_out(1);
            // Completion latency of the single result: the whole run.
            let rc = probe.run_cycle();
            probe.latency(ids.reducer, rc);
        }

        probe.sample_depth(ids.reduction_buffer, self.reducer.buffered());
        self.x_ch.probe_utilization(probe, ids.x_stream);
    }

    fn done(&self) -> bool {
        self.result.is_some()
    }

    fn cycle_limit(&self) -> u64 {
        self.limit
    }

    fn progress(&self) -> Option<u64> {
        Some(self.groups_in as u64 + self.reducer.adds_issued())
    }

    /// Fused replay (DESIGN.md §13): the dot-product schedule with one
    /// stream and no backlog gate — group t fires at cycle t and its
    /// balanced magnitude sum reaches the reduction circuit
    /// tree-latency cycles later.
    fn fast_forward(&mut self, probe: &mut Probe, backend: ExecBackend) -> u64 {
        if !self.full_rate {
            return 0;
        }
        let ids = self.ids.expect("setup registered components");
        let n = self.n as u64;
        let groups = self.groups as u64;
        let latency = self.tree.latency() as u64;
        let native = backend.native_results();
        let mut mags: Vec<f64> = Vec::with_capacity(self.k);
        let mut busy_runs = BusyRuns::new();
        let mut drain_runs = StallRuns::new(ids.reducer, StallCause::Drain);
        let mut buffer_runs = DepthRuns::new(ids.reduction_buffer);
        let mut t: u64 = 0;
        while self.result.is_none() {
            t += 1;
            assert!(
                t < self.limit,
                "asum: simulation exceeded cycle limit {}",
                self.limit
            );
            let feeding = t <= groups;
            let red_in = if t > latency && t <= groups + latency {
                let g = t - latency;
                let value = if native {
                    0.0
                } else {
                    let lo = (g as usize - 1) * self.k;
                    let hi = (lo + self.k).min(self.n);
                    mags.clear();
                    for v in &self.x_ch.data()[lo..hi] {
                        mags.push(f64::from_bits(v.to_bits() & !SIGN_MASK));
                    }
                    balanced(&mags)
                };
                Some(ReduceInput {
                    set_id: 0,
                    value,
                    last: g == groups,
                })
            } else {
                None
            };
            if feeding || red_in.is_some() {
                busy_runs.mark(probe, t);
            }
            if red_in.is_none() && t >= groups {
                drain_runs.mark(probe, t);
            }
            if let Some(ev) = self.reducer.tick(red_in) {
                self.result = Some(ev.value);
            }
            buffer_runs.push(probe, self.reducer.buffered());
        }
        self.groups_in = self.groups;
        busy_runs.finish(probe);
        drain_runs.finish(probe);
        buffer_runs.finish(probe);

        probe.io_in(n);
        probe.flops(n);
        probe.io_out(1);
        probe.record_busy_marks_at(ids.front_end, 1, groups);
        probe.record_busy_marks_at(ids.reducer, latency + 1, groups);
        // Every post-feed cycle stalls the front end; the reducer's own
        // drain gaps were positioned in the loop.
        probe.record_stalls_at(ids.front_end, StallCause::Drain, groups + 1, t - groups);
        let tail = n - (groups - 1) * self.k as u64;
        let full = if tail == self.k as u64 {
            groups
        } else {
            groups - 1
        };
        probe.record_depths_at(ids.x_stream, self.k, 1, full);
        probe.record_depths_at(ids.x_stream, tail as usize, full + 1, groups - full);
        probe.record_depths_at(ids.x_stream, 0, groups + 1, t - groups);
        probe.record_rate_base(ids.x_stream, n);
        // The single result emerges on the final cycle.
        probe.record_latencies(ids.reducer, t, 1);
        t
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "fault delivery: the harness calls inject only while a fault is armed"
    )]
    fn inject(&mut self, fault: &FaultSpec) -> bool {
        match fault.kind {
            FaultKind::PipelineBitFlip { stage, bit } => self
                .tree
                .fault_mutate(stage, |t| t.0 = flip_f64_bit(t.0, bit)),
            FaultKind::BufferBitFlip { slot, bit } => {
                if self.buf.is_empty() {
                    return false;
                }
                let idx = slot % self.buf.len();
                self.buf[idx] = flip_f64_bit(self.buf[idx], bit);
                true
            }
            FaultKind::ChannelStall { beats } => self.x_ch.fault_drop_beats(beats),
            FaultKind::StuckAtZero { slot, bit } => self.reducer.fault_stuck_at(slot, bit),
        }
    }
}

/// ‖x‖₂ via the dot-product design; the square root runs on the host
/// processor (the XD1 split of control vs compute).
pub fn nrm2(design: &DotProductDesign, x: &[f64]) -> (f64, DotOutcome) {
    let out = design.run(x, x);
    (out.result.sqrt(), out)
}

/// Convenience constructor for the dot design used by [`nrm2`].
pub fn nrm2_design(k: usize) -> DotProductDesign {
    DotProductDesign::standalone(DotParams::with_k(k), 170.0)
}

/// Balanced-tree association of the lane values.
fn balanced(vals: &[f64]) -> f64 {
    match vals.len() {
        0 => 0.0,
        1 => vals[0],
        n => {
            let mid = n / 2;
            add_f64(balanced(&vals[..mid]), balanced(&vals[mid..]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_vec(seed: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7 + seed * 3 + 1) % 16) as f64 - 8.0)
            .collect()
    }

    #[test]
    fn axpy_matches_reference() {
        for n in [1usize, 7, 64, 1000] {
            let x = int_vec(1, n);
            let y = int_vec(2, n);
            let out = AxpyDesign::new(Level1Params::with_k(4)).run(3.0, &x, &y);
            let expect: Vec<f64> = x.iter().zip(&y).map(|(xi, yi)| 3.0 * xi + yi).collect();
            assert_eq!(out.result, expect, "n = {n}");
        }
    }

    #[test]
    fn axpy_is_io_bound_near_one_group_per_cycle() {
        let n = 4096;
        let x = int_vec(1, n);
        let y = int_vec(2, n);
        let out = AxpyDesign::new(Level1Params::with_k(4)).run(2.0, &x, &y);
        let lower = (n / 4) as u64;
        assert!(out.report.cycles >= lower);
        assert!(
            out.report.cycles < lower + 64,
            "cycles {}",
            out.report.cycles
        );
    }

    #[test]
    fn scal_matches_reference() {
        let x = int_vec(3, 513);
        let out = ScalDesign::new(Level1Params::with_k(4)).run(-2.5, &x);
        let expect: Vec<f64> = x.iter().map(|xi| -2.5 * xi).collect();
        assert_eq!(out.result, expect);
    }

    #[test]
    fn scal_zero_scales_to_signed_zero() {
        let out = ScalDesign::new(Level1Params::with_k(2)).run(0.0, &[1.0, -2.0]);
        assert_eq!(out.result[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(out.result[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn asum_matches_reference() {
        for n in [1usize, 5, 64, 777] {
            let x = int_vec(4, n);
            let out = AsumDesign::new(Level1Params::with_k(4)).run(&x);
            let expect: f64 = x.iter().map(|v| v.abs()).sum();
            assert_eq!(out.result, expect, "n = {n}");
        }
    }

    #[test]
    fn asum_handles_negative_zero() {
        let out = AsumDesign::new(Level1Params::with_k(2)).run(&[-0.0, -1.0, 2.0]);
        assert_eq!(out.result, 3.0);
    }

    #[test]
    fn asum_busy_counts_reduction_accepts() {
        // The unified busy definition: front-end fires plus the cycles
        // where the reduction circuit accepts tree output after the
        // stream drains. Strictly more than the n/k fires alone.
        let x = int_vec(4, 1000);
        let out = AsumDesign::new(Level1Params::with_k(4)).run(&x);
        assert!(
            out.report.busy_cycles > 250,
            "busy {} should exceed the 250 front-end fires",
            out.report.busy_cycles
        );
        assert!(out.report.busy_cycles < out.report.cycles);
    }

    #[test]
    fn nrm2_matches_reference() {
        let x = int_vec(5, 256);
        let (norm, out) = nrm2(&nrm2_design(2), &x);
        let expect: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert_eq!(norm, expect);
        assert_eq!(out.report.flops, 2 * 256);
    }

    #[test]
    fn axpy_flop_and_word_accounting() {
        let x = int_vec(1, 100);
        let y = int_vec(2, 100);
        let out = AxpyDesign::new(Level1Params::with_k(2)).run(1.0, &x, &y);
        assert_eq!(out.report.flops, 200);
        assert_eq!(out.report.words_in, 200);
        assert_eq!(out.report.words_out, 100);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn axpy_mismatched_lengths_rejected() {
        AxpyDesign::new(Level1Params::with_k(2)).run(1.0, &[1.0], &[1.0, 2.0]);
    }

    /// Tentpole parity: each streaming design replays bit-identically
    /// (results and probe-derived reports) under fast-forward and
    /// native, while skipping the cycle stepper entirely.
    #[test]
    fn backends_agree_bit_for_bit() {
        for n in [1usize, 3, 63, 1000] {
            let x = int_vec(1, n);
            let y = int_vec(2, n);
            let backends = || {
                [
                    Harness::new(),
                    Harness::with_backend(ExecBackend::FastForward),
                    Harness::with_backend(ExecBackend::Native),
                ]
            };

            let axpy = AxpyDesign::new(Level1Params::with_k(4));
            let [mut cy, mut ff, mut nat] = backends();
            let out_cy = axpy.run_in(&mut cy, 3.0, &x, &y);
            let out_ff = axpy.run_in(&mut ff, 3.0, &x, &y);
            let out_nat = axpy.run_in(&mut nat, 3.0, &x, &y);
            assert_eq!(ff.ff_cycles(), out_cy.report.cycles, "axpy n = {n}");
            assert_eq!(out_ff.result, out_cy.result, "axpy n = {n}");
            assert_eq!(out_ff.report, out_cy.report, "axpy n = {n}");
            assert_eq!(out_nat.result, out_cy.result, "axpy n = {n}");
            assert_eq!(out_nat.report, out_cy.report, "axpy n = {n}");
            assert_eq!(cy.probe().stall_totals(), ff.probe().stall_totals());

            let scal = ScalDesign::new(Level1Params::with_k(4));
            let [mut cy, mut ff, mut nat] = backends();
            let out_cy = scal.run_in(&mut cy, -2.5, &x);
            let out_ff = scal.run_in(&mut ff, -2.5, &x);
            let out_nat = scal.run_in(&mut nat, -2.5, &x);
            assert_eq!(ff.ff_cycles(), out_cy.report.cycles, "scal n = {n}");
            assert_eq!(out_ff.result, out_cy.result, "scal n = {n}");
            assert_eq!(out_ff.report, out_cy.report, "scal n = {n}");
            assert_eq!(out_nat.result, out_cy.result, "scal n = {n}");
            assert_eq!(out_nat.report, out_cy.report, "scal n = {n}");
            assert_eq!(cy.probe().stall_totals(), ff.probe().stall_totals());

            let asum = AsumDesign::new(Level1Params::with_k(4));
            let [mut cy, mut ff, mut nat] = backends();
            let out_cy = asum.run_in(&mut cy, &x);
            let out_ff = asum.run_in(&mut ff, &x);
            let out_nat = asum.run_in(&mut nat, &x);
            assert_eq!(ff.ff_cycles(), out_cy.report.cycles, "asum n = {n}");
            assert_eq!(out_ff.result.to_bits(), out_cy.result.to_bits());
            assert_eq!(out_ff.report, out_cy.report, "asum n = {n}");
            assert_eq!(out_nat.result.to_bits(), out_cy.result.to_bits());
            assert_eq!(out_nat.report, out_cy.report, "asum n = {n}");
            assert_eq!(cy.probe().stall_totals(), ff.probe().stall_totals());
        }
    }
}
