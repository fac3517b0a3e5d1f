//! Channel-graph analyzer: deadlock-freedom proofs, sound throughput
//! bounds, and composed-bandwidth budgets over [`fblas_sim::Topology`].
//!
//! Every shipped design exports its architecture as a static channel
//! graph (`topology()`); this module proves three properties of that
//! graph without simulating a cycle:
//!
//! 1. **Deadlock freedom** (`graph-deadlock`). For every directed simple
//!    cycle, the elastic storage on the cycle (the sum of its FIFO
//!    depths) must cover the tokens in flight around it: with `L` total
//!    pipeline-delay stages and a minimum initiation interval `ii` among
//!    the cycle's nodes, at most `⌈L / ii⌉` tokens are in flight at once
//!    (at least one — a loop must hold the token it circulates). An
//!    undersized cycle is exactly the §4.2/§5.1 hazard: the column-major
//!    `MvM` needs `⌈n/k⌉ ≥ α` slots in its y-rotation and the linear-array
//!    MM needs `m²/k ≥ α` in its C′-rotation, or tokens re-arrive before
//!    the buffer can accept them and the array wedges. A cycle made only
//!    of [`EdgeKind::Wire`] edges is a combinational loop — always an
//!    error.
//! 2. **Throughput soundness** (`throughput-soundness`). The steady-state
//!    rate is cut twice: the compute cut (total FP issue capacity) and
//!    the I/O cut (input-channel words/cycle × FLOPs unlocked per word).
//!    `min(cuts) × clock` is a *sound upper bound*: no measured BENCH
//!    record may exceed it. [`bench_cross_validation_report`] checks every
//!    simulated record in the committed BENCH set against the bound built
//!    from the very same design parameters; a violation means the static
//!    model is wrong (unsound), a wide gap (`model-divergence`) means the
//!    model has drifted from what the simulator does.
//! 3. **Composed bandwidth** (`composition-bandwidth`). When topologies
//!    are chained ([`Topology::chain`]), the bridged junctions forward
//!    words between kernels; a junction whose outgoing channel capacity
//!    is below its incoming delivery rate under-provisions the link and
//!    silently degrades the composed pipeline below both kernels' own
//!    bounds.

use std::path::Path;

use fblas_core::dot::{DotParams, DotProductDesign};
use fblas_core::level1::{AsumDesign, AxpyDesign, Level1Params, ScalDesign};
use fblas_core::mm::{HierarchicalMm, HierarchicalParams, LinearArrayMm, MmParams};
use fblas_core::mvm::{ColMajorMvm, MvmParams, RowMajorMvm};
use fblas_core::reduce::SingleAdderReducer;
use fblas_fabric::{FabricMm, FabricMvm, MmShardPlan, MvmShardPlan, Orientation};
use fblas_metrics::{RecordKind, RecordSet, RunRecord, StoreFile};
use fblas_sim::{EdgeKind, NodeRole, Topology};
use fblas_sparse::{SpmvDesign, SpmvParams};

use crate::drc::{Diagnostic, Report, Severity};

/// Upper bound on enumerated simple cycles per topology; the shipped
/// graphs have a handful, so hitting this means a malformed export.
const CYCLE_CAP: usize = 10_000;

/// Relative slack for the soundness comparison: a measured rate may
/// exceed the static bound only by floating-point noise.
const SOUNDNESS_EPS: f64 = 1e-9;

/// A measured rate this far below the bound (as a fraction of the bound)
/// earns a `model-divergence` warning: the static model no longer
/// describes what the simulator does.
const DIVERGENCE_GAP: f64 = 0.40;

/// Proof obligations for one directed simple cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleProof {
    /// Node names around the cycle, starting from its smallest node id.
    pub path: Vec<String>,
    /// Total pipeline-delay stages on the cycle.
    pub delay_stages: usize,
    /// Smallest initiation interval among the cycle's nodes.
    pub min_initiation_interval: u64,
    /// Token storage on the cycle (sum of FIFO depths).
    pub capacity: usize,
    /// True if every edge on the cycle is a zero-latency wire.
    pub combinational: bool,
}

impl CycleProof {
    /// Tokens simultaneously in flight around the cycle: `⌈L / ii⌉`,
    /// never less than the one token the loop circulates.
    pub fn required_tokens(&self) -> usize {
        (self.delay_stages as u64)
            .div_ceil(self.min_initiation_interval)
            .max(1) as usize
    }

    /// True if the cycle can always drain: enough storage for its
    /// in-flight tokens and at least one real (non-wire) element.
    pub fn is_deadlock_free(&self) -> bool {
        !self.combinational && self.capacity >= self.required_tokens()
    }
}

/// The two cuts bounding a topology's steady-state rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputBound {
    /// Total FP issue capacity, FLOPs per cycle.
    pub compute_flops_per_cycle: f64,
    /// FLOPs per cycle the input channels can unlock.
    pub io_flops_per_cycle: f64,
    /// Clock the bound is evaluated at, MHz.
    pub clock_mhz: f64,
}

impl ThroughputBound {
    /// The binding cut in MFLOP/s: `min(compute, io) × clock`.
    pub fn mflops(&self) -> f64 {
        self.compute_flops_per_cycle.min(self.io_flops_per_cycle) * self.clock_mhz
    }

    /// Which cut binds, for diagnostics.
    pub fn binding_cut(&self) -> &'static str {
        if self.compute_flops_per_cycle <= self.io_flops_per_cycle {
            "compute"
        } else {
            "io"
        }
    }
}

/// The static throughput bound of `topology` at `clock_mhz`.
pub fn throughput_bound(topology: &Topology, clock_mhz: f64) -> ThroughputBound {
    ThroughputBound {
        compute_flops_per_cycle: topology.compute_flops_per_cycle(),
        io_flops_per_cycle: topology.input_flops_per_cycle(),
        clock_mhz,
    }
}

/// Enumerate every directed simple cycle of `topology` (capped at
/// [`CYCLE_CAP`]) with its proof obligations. Each cycle is reported
/// once, anchored at its smallest node id.
pub fn enumerate_cycles(topology: &Topology) -> Vec<CycleProof> {
    let n = topology.nodes.len();
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ei, e) in topology.edges.iter().enumerate() {
        out_edges[e.from.0].push(ei);
    }
    let mut proofs = Vec::new();
    // Anchored DFS: cycles through nodes < start were already reported
    // when those nodes anchored the search, so each simple cycle is
    // found exactly once.
    for start in 0..n {
        let mut stack: Vec<usize> = vec![start];
        let mut on_path = vec![false; n];
        on_path[start] = true;
        let mut edge_path: Vec<usize> = Vec::new();
        // Iterative DFS with an explicit iterator stack.
        let mut iters: Vec<usize> = vec![0];
        while let Some(&node) = stack.last() {
            let idx = *iters.last().expect("iterator per stack frame");
            if let Some(&ei) = out_edges[node].get(idx) {
                *iters.last_mut().expect("frame") += 1;
                let next = topology.edges[ei].to.0;
                if next == start {
                    edge_path.push(ei);
                    proofs.push(prove(topology, &stack, &edge_path));
                    edge_path.pop();
                    if proofs.len() >= CYCLE_CAP {
                        return proofs;
                    }
                } else if next > start && !on_path[next] {
                    on_path[next] = true;
                    stack.push(next);
                    edge_path.push(ei);
                    iters.push(0);
                }
            } else {
                iters.pop();
                stack.pop();
                on_path[node] = false;
                edge_path.pop();
            }
        }
    }
    proofs
}

/// Build the proof record for one cycle given its node and edge path.
fn prove(topology: &Topology, nodes: &[usize], edges: &[usize]) -> CycleProof {
    let mut delay_stages = 0usize;
    let mut capacity = 0usize;
    let mut combinational = true;
    for &ei in edges {
        match topology.edges[ei].kind {
            EdgeKind::Fifo { depth } => {
                capacity += depth;
                combinational = false;
            }
            EdgeKind::Delay { stages } => {
                delay_stages += stages;
                combinational = false;
            }
            // A channel in a loop would model a memory round-trip; it
            // contributes neither storage nor delay to the proof but is
            // not a zero-latency wire either.
            EdgeKind::Channel { .. } => combinational = false,
            EdgeKind::Wire => {}
        }
    }
    CycleProof {
        path: nodes
            .iter()
            .map(|&i| topology.nodes[i].name.clone())
            .collect(),
        delay_stages,
        min_initiation_interval: nodes
            .iter()
            .map(|&i| topology.nodes[i].initiation_interval)
            .min()
            .unwrap_or(1),
        capacity,
        combinational,
    }
}

/// Run the structural analyses (deadlock freedom, throughput cut,
/// composed bandwidth) over one topology.
pub fn analyze_topology(topology: &Topology, clock_mhz: f64) -> Report {
    let mut diagnostics = Vec::new();
    let cycles = enumerate_cycles(topology);
    if cycles.len() >= CYCLE_CAP {
        diagnostics.push(Diagnostic {
            rule_id: "graph-deadlock",
            severity: Severity::Error,
            message: format!(
                "cycle enumeration hit the {CYCLE_CAP}-cycle cap — the exported graph is \
                 malformed (shipped designs have a handful of feedback loops)"
            ),
            quantities: vec![("cycles", cycles.len() as f64)],
        });
    }
    if cycles.is_empty() {
        diagnostics.push(Diagnostic {
            rule_id: "graph-deadlock",
            severity: Severity::Info,
            message: "feed-forward graph (no cycles): deadlock-free by construction".to_string(),
            quantities: vec![],
        });
    }
    for c in &cycles {
        let loop_name = c.path.join(" -> ");
        if c.combinational {
            diagnostics.push(Diagnostic {
                rule_id: "graph-deadlock",
                severity: Severity::Error,
                message: format!("combinational loop (wire-only cycle): {loop_name}"),
                quantities: vec![],
            });
        } else if c.is_deadlock_free() {
            diagnostics.push(Diagnostic {
                rule_id: "graph-deadlock",
                severity: Severity::Info,
                message: format!(
                    "cycle {loop_name}: capacity {} >= {} tokens in flight",
                    c.capacity,
                    c.required_tokens()
                ),
                quantities: vec![
                    ("capacity", c.capacity as f64),
                    ("required", c.required_tokens() as f64),
                ],
            });
        } else {
            diagnostics.push(Diagnostic {
                rule_id: "graph-deadlock",
                severity: Severity::Error,
                message: format!(
                    "cycle {loop_name}: {} delay stages put {} tokens in flight but the \
                     loop buffers only {} — the array wedges once the FIFO fills \
                     (the §4.2/§5.1 rotation hazard)",
                    c.delay_stages,
                    c.required_tokens(),
                    c.capacity
                ),
                quantities: vec![
                    ("capacity", c.capacity as f64),
                    ("required", c.required_tokens() as f64),
                    ("delay_stages", c.delay_stages as f64),
                ],
            });
        }
    }
    let bound = throughput_bound(topology, clock_mhz);
    diagnostics.push(Diagnostic {
        rule_id: "throughput-bound",
        severity: Severity::Info,
        message: format!(
            "steady-state bound {:.3} MFLOP/s at {} MHz ({} cut binds)",
            bound.mflops(),
            clock_mhz,
            bound.binding_cut()
        ),
        quantities: vec![
            ("compute_flops_per_cycle", bound.compute_flops_per_cycle),
            ("io_flops_per_cycle", bound.io_flops_per_cycle),
            ("bound_mflops", bound.mflops()),
        ],
    });
    diagnostics.extend(composition_diagnostics(topology));
    Report {
        design: topology.name.clone(),
        diagnostics,
    }
}

/// Composed-bandwidth budget: every forwarding junction that bridges two
/// channels must have outgoing capacity covering its incoming delivery
/// rate, or the chained link throttles the composition.
fn composition_diagnostics(topology: &Topology) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (ni, node) in topology.nodes.iter().enumerate() {
        if node.role != NodeRole::Junction || node.flops_per_cycle > 0.0 {
            continue;
        }
        let rate = |filter: &dyn Fn(&fblas_sim::Edge) -> bool| -> f64 {
            topology
                .edges
                .iter()
                .filter(|e| filter(e))
                .filter_map(|e| match e.kind {
                    EdgeKind::Channel {
                        words_per_cycle, ..
                    } => Some(words_per_cycle),
                    _ => None,
                })
                .sum()
        };
        let inbound = rate(&|e| e.to.0 == ni);
        let outbound = rate(&|e| e.from.0 == ni);
        if inbound <= 0.0 || outbound <= 0.0 {
            continue; // not a channel-to-channel bridge
        }
        if outbound < inbound * (1.0 - SOUNDNESS_EPS) {
            diags.push(Diagnostic {
                rule_id: "composition-bandwidth",
                severity: Severity::Error,
                message: format!(
                    "junction {}: outgoing channel capacity {outbound:.3} words/cycle \
                     cannot carry the {inbound:.3} words/cycle delivered to it — the \
                     chained link under-provisions the composition",
                    node.name
                ),
                quantities: vec![("inbound", inbound), ("outbound", outbound)],
            });
        } else {
            diags.push(Diagnostic {
                rule_id: "composition-bandwidth",
                severity: Severity::Info,
                message: format!(
                    "junction {}: link capacity {outbound:.3} covers delivery {inbound:.3} \
                     words/cycle",
                    node.name
                ),
                quantities: vec![("inbound", inbound), ("outbound", outbound)],
            });
        }
    }
    diags
}

/// Every shipped design point's channel graph with the clock (MHz) its
/// BENCH record runs at — the set [`topology_report`] analyzes and the
/// tests prove deadlock-free. Beyond the single-FPGA designs the set
/// carries a chained composition (`scal` feeding `axpy`,
/// `y = β·(α·x) + z`) exercising the composed-bandwidth rule on a
/// bridged link, and four multi-FPGA fabric compositions whose ring and
/// trunk channels the analyzer must prove just like any on-chip FIFO.
pub fn shipped_topologies() -> Vec<(Topology, f64)> {
    let scal = ScalDesign::new(Level1Params::with_k(2)).topology();
    let axpy = AxpyDesign::new(Level1Params::with_k(2)).topology();
    let fused_rate = scal.output_words_per_cycle();
    let fused = scal.chain(
        &axpy,
        "out-stream",
        "x-stream",
        EdgeKind::Channel {
            words_per_cycle: fused_rate,
            flops_per_word: 0.0,
        },
    );
    vec![
        (
            DotProductDesign::standalone(DotParams::table3(), 170.0).topology(),
            170.0,
        ),
        (AxpyDesign::new(Level1Params::with_k(2)).topology(), 170.0),
        (ScalDesign::new(Level1Params::with_k(2)).topology(), 170.0),
        (AsumDesign::new(Level1Params::with_k(4)).topology(), 170.0),
        (
            RowMajorMvm::standalone(MvmParams::table3(), 170.0).topology(),
            170.0,
        ),
        (
            ColMajorMvm::standalone(MvmParams::with_k(4), 170.0).topology(512),
            170.0,
        ),
        (
            RowMajorMvm::standalone(MvmParams::table3(), 164.0).topology(),
            164.0,
        ),
        (LinearArrayMm::new(MmParams::test(4, 16)).topology(), 145.0),
        (
            HierarchicalMm::new(HierarchicalParams::xd1_single_node()).topology(),
            130.0,
        ),
        (SingleAdderReducer::new(14).topology(), 170.0),
        (SpmvDesign::new(SpmvParams::with_k(4)).topology(), 170.0),
        (fused, 170.0),
        // The multi-FPGA fabric compositions: a full six-FPGA chassis,
        // the two-chassis twelve-FPGA §6.4.1 point, and both sharded
        // MvM orientations.
        (
            FabricMm::on_xd1(MmShardPlan {
                n: 384,
                k: 8,
                m: 64,
                shards: 6,
                chassis: 1,
                clock_mhz: 130.0,
            })
            .topology(),
            130.0,
        ),
        (
            FabricMm::on_xd1(MmShardPlan {
                n: 384,
                k: 8,
                m: 64,
                shards: 12,
                chassis: 2,
                clock_mhz: 130.0,
            })
            .topology(),
            130.0,
        ),
        (
            FabricMvm::on_xd1(MvmShardPlan {
                orientation: Orientation::Row,
                n: 384,
                k: 4,
                shards: 4,
                clock_mhz: 164.0,
            })
            .topology(),
            164.0,
        ),
        (
            FabricMvm::on_xd1(MvmShardPlan {
                orientation: Orientation::Col,
                n: 384,
                k: 4,
                shards: 6,
                clock_mhz: 164.0,
            })
            .topology(),
            164.0,
        ),
    ]
}

/// Analyze every shipped topology; one report per design point.
pub fn topology_report() -> Vec<Report> {
    shipped_topologies()
        .iter()
        .map(|(t, clock)| analyze_topology(t, *clock))
        .collect()
}

/// Integer config value from a BENCH record.
fn cfg(record: &RunRecord, key: &str) -> Option<usize> {
    record
        .config
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| usize::try_from(*v).ok())
}

/// Rebuild the channel graph a simulated BENCH record measured, from the
/// record's own kernel name and config. Returns `None` for a kernel the
/// registry does not know (a coverage error for simulated records).
pub fn topology_for_record(record: &RunRecord) -> Option<Topology> {
    let k = cfg(record, "k");
    match record.kernel.as_str() {
        "dot" => {
            Some(DotProductDesign::standalone(DotParams::with_k(k?), record.clock_mhz).topology())
        }
        "axpy" => Some(AxpyDesign::new(Level1Params::with_k(k?)).topology()),
        "scal" => Some(ScalDesign::new(Level1Params::with_k(k?)).topology()),
        "asum" => Some(AsumDesign::new(Level1Params::with_k(k?)).topology()),
        "mvm/row" | "mvm/xd1-l2" => {
            Some(RowMajorMvm::standalone(MvmParams::with_k(k?), record.clock_mhz).topology())
        }
        "mvm/col" => Some(
            ColMajorMvm::standalone(MvmParams::with_k(k?), record.clock_mhz)
                .topology(cfg(record, "n")?),
        ),
        "mm/linear" => Some(LinearArrayMm::new(MmParams::test(k?, cfg(record, "m")?)).topology()),
        "mm/hierarchical" => {
            // The registry knows the one shipped hierarchical point; a
            // record with a different shape is unregistered (None).
            let hp = HierarchicalParams::xd1_single_node();
            (k? == hp.mm.k && cfg(record, "m")? == hp.mm.m && cfg(record, "b")? == hp.b)
                .then(|| HierarchicalMm::new(hp).topology())
        }
        "reduce/single-adder" => Some(SingleAdderReducer::new(cfg(record, "alpha")?).topology()),
        "spmv" => Some(SpmvDesign::new(SpmvParams::with_k(k?)).topology()),
        _ => None,
    }
}

/// Cross-validate every simulated record in a BENCH set against the
/// static throughput bound of the topology rebuilt from the record's own
/// parameters. `measured > bound` is a soundness error (the static model
/// is wrong); a gap wider than [`DIVERGENCE_GAP`] is a model-divergence
/// warning; modeled records carry no measurement and are skipped.
pub fn cross_validate(set: &RecordSet) -> Report {
    let mut diagnostics = Vec::new();
    let mut validated = 0usize;
    for record in &set.records {
        if record.kind != RecordKind::Simulated {
            continue;
        }
        let Some(topology) = topology_for_record(record) else {
            diagnostics.push(Diagnostic {
                rule_id: "throughput-soundness",
                severity: Severity::Error,
                message: format!(
                    "simulated record {} has no registered topology — every measured \
                     kernel must export a channel graph for the bound to be checked",
                    record.key()
                ),
                quantities: vec![],
            });
            continue;
        };
        // Deadlock freedom of the measured configuration rides along:
        // the record was produced by a run, so a failed proof here means
        // the static model (not the hardware) is wrong.
        for c in enumerate_cycles(&topology) {
            if !c.is_deadlock_free() {
                diagnostics.push(Diagnostic {
                    rule_id: "graph-deadlock",
                    severity: Severity::Error,
                    message: format!(
                        "record {}: cycle {} fails the storage proof (capacity {} < {})",
                        record.key(),
                        c.path.join(" -> "),
                        c.capacity,
                        c.required_tokens()
                    ),
                    quantities: vec![],
                });
            }
        }
        let bound = throughput_bound(&topology, record.clock_mhz).mflops();
        let measured = record.sustained_mflops;
        validated += 1;
        if measured > bound * (1.0 + SOUNDNESS_EPS) {
            diagnostics.push(Diagnostic {
                rule_id: "throughput-soundness",
                severity: Severity::Error,
                message: format!(
                    "record {}: measured {measured:.3} MFLOP/s exceeds the static bound \
                     {bound:.3} — the channel-graph model is unsound for this design",
                    record.key()
                ),
                quantities: vec![("measured_mflops", measured), ("bound_mflops", bound)],
            });
        } else if measured < bound * (1.0 - DIVERGENCE_GAP) {
            diagnostics.push(Diagnostic {
                rule_id: "model-divergence",
                severity: Severity::Warning,
                message: format!(
                    "record {}: measured {measured:.3} MFLOP/s is more than {:.0}% below \
                     the static bound {bound:.3} — the graph model has drifted from the \
                     simulator",
                    record.key(),
                    DIVERGENCE_GAP * 100.0
                ),
                quantities: vec![("measured_mflops", measured), ("bound_mflops", bound)],
            });
        } else {
            diagnostics.push(Diagnostic {
                rule_id: "throughput-soundness",
                severity: Severity::Info,
                message: format!(
                    "record {}: measured {measured:.3} <= bound {bound:.3} MFLOP/s \
                     (headroom {:.1}%)",
                    record.key(),
                    (1.0 - measured / bound) * 100.0
                ),
                quantities: vec![("measured_mflops", measured), ("bound_mflops", bound)],
            });
        }
    }
    if validated == 0 {
        diagnostics.push(Diagnostic {
            rule_id: "throughput-soundness",
            severity: Severity::Warning,
            message: "no simulated record was cross-validated — BENCH set empty or rule stale?"
                .to_string(),
            quantities: vec![],
        });
    }
    Report {
        design: format!("BENCH cross-validation ({})", set.generator),
        diagnostics,
    }
}

/// [`cross_validate`] over a BENCH JSON file on disk.
pub fn bench_cross_validation_report(path: &Path) -> Result<Report, String> {
    Ok(cross_validate(&RecordSet::load(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::repo_root;

    fn looped(depth: usize, stages: usize) -> Topology {
        let mut t = Topology::new("loop");
        let src = t.source("in");
        let pe = t.pe("acc", 1.0);
        t.edge(
            "feed",
            src,
            pe,
            EdgeKind::Channel {
                words_per_cycle: 1.0,
                flops_per_word: 1.0,
            },
        );
        let buf = t.junction("buf");
        t.edge("pipe", pe, buf, EdgeKind::Delay { stages });
        t.edge("store", buf, pe, EdgeKind::Fifo { depth });
        t
    }

    #[test]
    fn sized_loop_proves_undersized_loop_fails() {
        let ok = enumerate_cycles(&looped(14, 14));
        assert_eq!(ok.len(), 1);
        assert!(ok[0].is_deadlock_free());
        assert_eq!(ok[0].required_tokens(), 14);
        let bad = analyze_topology(&looped(13, 14), 100.0);
        assert!(!bad.is_feasible());
        assert!(
            bad.rule("graph-deadlock")[0]
                .message
                .contains("rotation hazard")
                || bad
                    .diagnostics
                    .iter()
                    .any(|d| d.severity == Severity::Error)
        );
    }

    #[test]
    fn wire_only_cycle_is_combinational() {
        let mut t = Topology::new("comb");
        let a = t.pe("a", 1.0);
        let b = t.pe("b", 1.0);
        t.edge("ab", a, b, EdgeKind::Wire);
        t.edge("ba", b, a, EdgeKind::Wire);
        let report = analyze_topology(&t, 100.0);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("combinational")));
    }

    #[test]
    fn zero_delay_fifo_loop_still_needs_one_slot() {
        let proofs = enumerate_cycles(&looped(0, 0));
        // A Fifo{0} loop with no delay still circulates one token.
        assert_eq!(proofs[0].required_tokens(), 1);
        assert!(!proofs[0].is_deadlock_free());
    }

    #[test]
    fn bound_takes_the_smaller_cut() {
        let t = looped(14, 14);
        let b = throughput_bound(&t, 100.0);
        assert_eq!(b.compute_flops_per_cycle, 1.0);
        assert_eq!(b.io_flops_per_cycle, 1.0);
        assert_eq!(b.mflops(), 100.0);
    }

    #[test]
    fn undersized_chain_link_is_flagged() {
        let scal = ScalDesign::new(Level1Params::with_k(2)).topology();
        let axpy = AxpyDesign::new(Level1Params::with_k(2)).topology();
        let starved = scal.chain(
            &axpy,
            "out-stream",
            "x-stream",
            EdgeKind::Channel {
                words_per_cycle: 0.5,
                flops_per_word: 0.0,
            },
        );
        let report = analyze_topology(&starved, 170.0);
        assert!(report
            .rule("composition-bandwidth")
            .iter()
            .any(|d| d.severity == Severity::Error));
    }

    /// The tentpole acceptance bar: every shipped design point's graph
    /// passes all three analyses with zero errors.
    #[test]
    fn shipped_topologies_all_pass() {
        let reports = topology_report();
        assert_eq!(reports.len(), 16);
        for report in &reports {
            assert!(
                report.is_feasible(),
                "{} fails:\n{}",
                report.design,
                report.render(true)
            );
        }
        // Every feedback design actually exercises the proof.
        let proven: usize = shipped_topologies()
            .iter()
            .map(|(t, _)| enumerate_cycles(t).len())
            .sum();
        assert!(
            proven >= 6,
            "expected the shipped loops to be proven, got {proven}"
        );
    }

    /// The committed BENCH set satisfies `measured <= bound` for every
    /// simulated record, with no divergence warnings.
    #[test]
    fn committed_bench_records_are_sound() {
        let report =
            bench_cross_validation_report(&repo_root().join("BENCH_0001.json")).expect("load");
        assert!(
            report.is_feasible(),
            "soundness errors:\n{}",
            report.render(true)
        );
        assert_eq!(
            report.count(Severity::Warning),
            0,
            "divergence warnings:\n{}",
            report.render(true)
        );
        assert!(
            report.count(Severity::Info) >= 11,
            "all sim records validated"
        );
    }

    #[test]
    fn inflated_measurement_is_caught_as_unsound() {
        let text = std::fs::read_to_string(repo_root().join("BENCH_0001.json")).expect("read");
        let mut set = RecordSet::from_json_str(&text).expect("parse");
        let rec = set
            .records
            .iter_mut()
            .find(|r| r.kind == RecordKind::Simulated)
            .expect("a simulated record");
        rec.sustained_mflops *= 100.0;
        let report = cross_validate(&set);
        assert!(!report.is_feasible());
        assert!(report
            .rule("throughput-soundness")
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("unsound")));
    }

    #[test]
    fn unknown_simulated_kernel_is_a_coverage_error() {
        let mut set = RecordSet::new("test");
        set.push(RunRecord::modeled("mystery", &[("k", 4)], 170.0, 0));
        set.records[0].kind = RecordKind::Simulated;
        set.records[0].sustained_mflops = 1.0;
        let report = cross_validate(&set);
        assert!(!report.is_feasible());
        assert!(report.diagnostics[0]
            .message
            .contains("no registered topology"));
    }

    #[test]
    fn empty_set_is_a_stale_warning() {
        let report = cross_validate(&RecordSet::new("empty"));
        assert!(report.is_feasible());
        assert_eq!(report.count(Severity::Warning), 1);
    }
}
