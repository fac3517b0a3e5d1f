//! The proposed reduction circuit (paper §4.3): one pipelined adder, two
//! buffers of size α², multiple input sets of arbitrary size, and the
//! input is **never** stalled.
//!
//! # How the hazard is avoided
//!
//! The circuit never issues an addition whose operands include a value
//! that is still inside the adder pipeline. Each tracked set holds a pool
//! of *available* items plus a count of *pending* results in flight:
//!
//! * While a set is streaming in, its first α values are simply buffered.
//!   From the (α+1)-th value on, each new input is paired with one
//!   available buffered item of the same set and issued to the adder; the
//!   result returns to the set's pool α cycles later. The pool's
//!   availability balance never goes negative: by the time the (α+1)-th
//!   pairing would be issued, the first pairing's result has already
//!   returned (results are routed on the same clock edge before the next
//!   issue — the `peek` in `tick`). A streaming set therefore occupies at
//!   most α buffer slots, exactly the paper's bound.
//! * On cycles when the input does not need the adder (the first α values
//!   of a large set, every value of a small set, or idle input), the adder
//!   works for *completed* sets instead: the scheduler walks completed
//!   sets oldest-first and pairs two available items of the first set that
//!   has two. Because only architecturally-committed values are paired,
//!   this is hazard-free by construction, and walking oldest-first
//!   interleaves additions across sets exactly as the paper's
//!   column-by-column read of `Buf_red` does.
//!
//! The paper proves (report [29]) that its schedule needs at most two α²
//! buffers and finishes p sets in fewer than Σsᵢ + 2α² cycles. This
//! implementation enforces the same buffer bound with a hard assertion on
//! every cycle and the test-suite checks the latency bound across
//! adversarial workloads.

use super::{ReduceEvent, ReduceInput, Reducer};
use fblas_fpu::PipelinedAdder;
use fblas_sim::{EdgeKind, Histogram, Topology};
use std::collections::VecDeque;

/// Per-set state: the paper's "row" of a buffer.
#[derive(Debug)]
struct Row {
    set_id: u64,
    /// Architecturally committed items of this set.
    avail: Vec<f64>,
    /// Additions of this set currently inside the adder pipeline.
    pending: usize,
    /// True once the set's last input has arrived.
    complete: bool,
}

impl Row {
    fn items(&self) -> usize {
        self.avail.len() + self.pending
    }
}

/// The paper's single-adder reduction circuit.
///
/// # Examples
///
/// ```
/// use fblas_core::reduce::{run_sets, Reducer, SingleAdderReducer};
///
/// // Three sets of different sizes, delivered one value per cycle.
/// let sets = vec![vec![1.0; 20], vec![2.0; 3], vec![0.5; 40]];
/// let mut circuit = SingleAdderReducer::with_paper_adder(); // α = 14
/// let run = run_sets(&mut circuit, &sets);
///
/// assert_eq!(run.stall_cycles, 0);             // input never stalls
/// assert_eq!(circuit.adders(), 1);             // one FP adder
/// assert!(run.buffer_high_water <= 2 * 14 * 14); // within 2α² words
/// let mut sums: Vec<f64> = run.results.iter().map(|e| e.value).collect();
/// sums.sort_by(f64::total_cmp);
/// assert_eq!(sums, vec![6.0, 20.0, 20.0]);
/// ```
#[derive(Debug)]
pub struct SingleAdderReducer {
    alpha: usize,
    rows: VecDeque<Row>,
    adder: PipelinedAdder<u64>,
    out_queue: VecDeque<ReduceEvent>,
    cycles: u64,
    adds_issued: u64,
    stored_items: usize,
    high_water: usize,
    occupancy: Histogram,
}

impl SingleAdderReducer {
    /// Create the circuit for an adder with `alpha` pipeline stages.
    pub fn new(alpha: usize) -> Self {
        assert!(alpha >= 2, "a pipelined adder has at least 2 stages");
        Self {
            alpha,
            rows: VecDeque::new(),
            adder: PipelinedAdder::with_stages(alpha),
            out_queue: VecDeque::new(),
            cycles: 0,
            adds_issued: 0,
            stored_items: 0,
            high_water: 0,
            occupancy: Histogram::new(2 * alpha * alpha + 1),
        }
    }

    /// Create the circuit for the paper's 14-stage adder.
    pub fn with_paper_adder() -> Self {
        Self::new(fblas_fpu::ADDER_STAGES)
    }

    /// The adder pipeline depth α.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// The claimed buffer capacity: two buffers of α² words.
    pub fn buffer_capacity(&self) -> usize {
        2 * self.alpha * self.alpha
    }

    /// Static channel graph (§4.3): one input stream into the single
    /// pipelined adder, whose partial results circulate through the two
    /// α²-word buffers — the feedback loop Theorem 1's buffer bound
    /// keeps deadlock-free at full input rate.
    pub fn topology(&self) -> Topology {
        let mut t = Topology::new(format!("reduce-single-adder[alpha={}]", self.alpha));
        let input = t.source("input-stream");
        let reducer = t.pe("reduction", 1.0);
        let out = t.sink("results");
        t.edge(
            "input-feed",
            input,
            reducer,
            EdgeKind::Channel {
                words_per_cycle: 1.0,
                flops_per_word: 1.0,
            },
        );
        crate::topology::attach_reduction_loop(&mut t, reducer, self.alpha);
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

    fn row_mut(&mut self, set_id: u64) -> &mut Row {
        self.rows
            .iter_mut()
            .find(|r| r.set_id == set_id)
            .expect("result for unknown set")
    }

    /// Per-cycle distribution of buffered words, for sizing analyses
    /// (what fraction of the 2α² budget is typically occupied).
    pub fn occupancy_histogram(&self) -> &Histogram {
        &self.occupancy
    }

    /// Words currently buffered (committed + in-flight), for live traces.
    pub fn buffered_words(&self) -> usize {
        self.stored_items
    }

    fn note_items(&mut self) {
        self.occupancy.record(self.stored_items);
        self.high_water = self.high_water.max(self.stored_items);
        assert!(
            self.stored_items <= self.buffer_capacity(),
            "buffer bound violated: {} items exceed 2α² = {}",
            self.stored_items,
            self.buffer_capacity()
        );
    }
}

impl Reducer for SingleAdderReducer {
    fn name(&self) -> &'static str {
        "single-adder α² (proposed)"
    }

    fn adders(&self) -> usize {
        1
    }

    /// The proposed circuit never exerts back-pressure.
    fn ready(&self) -> bool {
        true
    }

    /// `ready()` is constantly true and the §4.3 schedule pairs values
    /// by arrival time and set boundaries only — never by value — so
    /// owning designs may fast-forward their streaming phase around
    /// this circuit.
    fn never_stalls(&self) -> bool {
        true
    }

    fn tick(&mut self, input: Option<ReduceInput>) -> Option<ReduceEvent> {
        self.cycles += 1;

        // 1. Route the result emerging this cycle before any issue
        //    decision — hardware sees it on the same clock edge.
        if let Some(out) = self.adder.peek().copied() {
            let row = self.row_mut(out.tag);
            row.pending -= 1;
            row.avail.push(out.value);
        }

        // 2. Choose the adder operation. The input path has priority: an
        //    input that arrives while its set already holds α items *is*
        //    the adder's left operand this cycle.
        let mut op: Option<(f64, f64, u64)> = None;
        if let Some(inp) = input {
            let need_new_row = match self.rows.back() {
                Some(r) if !r.complete => {
                    assert_eq!(
                        r.set_id, inp.set_id,
                        "sets must be delivered sequentially: set {} still open",
                        r.set_id
                    );
                    false
                }
                _ => true,
            };
            if need_new_row {
                self.rows.push_back(Row {
                    set_id: inp.set_id,
                    avail: Vec::with_capacity(self.alpha),
                    pending: 0,
                    complete: false,
                });
            }
            let alpha = self.alpha;
            let row = self.rows.back_mut().expect("row just ensured");
            if row.items() < alpha {
                row.avail.push(inp.value);
                self.stored_items += 1;
            } else {
                let partner = row
                    .avail
                    .pop()
                    .expect("availability balance: a streaming set always has a committed item");
                row.pending += 1;
                op = Some((inp.value, partner, inp.set_id));
            }
            if inp.last {
                self.rows.back_mut().expect("row exists").complete = true;
            }
        }

        // 3. If the input path left the adder free, reduce completed sets,
        //    oldest first (Buf_red's column-by-column interleave).
        if op.is_none() {
            if let Some(row) = self
                .rows
                .iter_mut()
                .find(|r| r.complete && r.avail.len() >= 2)
            {
                let a = row.avail.pop().expect("len >= 2");
                let b = row.avail.pop().expect("len >= 2");
                row.pending += 1;
                op = Some((a, b, row.set_id));
                self.stored_items -= 1;
            }
        }

        if op.is_some() {
            self.adds_issued += 1;
        }
        self.adder.step(op);

        // 4. Retire fully reduced sets to the output port.
        while let Some(pos) = self
            .rows
            .iter()
            .position(|r| r.complete && r.pending == 0 && r.avail.len() == 1)
        {
            let row = self.rows.remove(pos).expect("position valid");
            self.stored_items -= 1;
            self.out_queue.push_back(ReduceEvent {
                set_id: row.set_id,
                value: row.avail[0],
            });
        }

        self.note_items();
        self.out_queue.pop_front()
    }

    fn is_done(&self) -> bool {
        self.rows.is_empty() && self.out_queue.is_empty() && self.adder.is_empty()
    }

    fn cycles(&self) -> u64 {
        self.cycles
    }

    fn adds_issued(&self) -> u64 {
        self.adds_issued
    }

    fn buffer_high_water(&self) -> usize {
        self.high_water
    }

    fn buffered(&self) -> usize {
        self.stored_items
    }

    /// Targets the architecturally committed words (`avail` pools, oldest
    /// row first, push order within a row); in-flight adder state is not
    /// addressable here — use the pipeline hooks for that.
    fn fault_stuck_at(&mut self, slot: usize, bit: u32) -> bool {
        let total: usize = self.rows.iter().map(|r| r.avail.len()).sum();
        if total == 0 {
            return false;
        }
        let mut idx = slot % total;
        for row in &mut self.rows {
            if idx < row.avail.len() {
                row.avail[idx] = fblas_sim::clear_f64_bit(row.avail[idx], bit);
                return true;
            }
            idx -= row.avail.len();
        }
        unreachable!("idx reduced modulo the total avail count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::{reference_sums, run_sets, testutil::integer_sets};

    const ALPHA: usize = 14;

    fn check_exact(sizes: &[usize]) -> crate::reduce::ReductionRun {
        let sets = integer_sets(sizes);
        let mut r = SingleAdderReducer::new(ALPHA);
        let run = run_sets(&mut r, &sets);
        let expected = reference_sums(&sets);
        assert_eq!(run.results.len(), sets.len());
        let mut got = vec![f64::NAN; sets.len()];
        for ev in &run.results {
            got[ev.set_id as usize] = ev.value;
        }
        for (i, (&g, &e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g, e, "set {i}: got {g}, expected {e}");
        }
        run
    }

    #[test]
    fn single_large_set() {
        check_exact(&[1000]);
    }

    #[test]
    fn single_tiny_sets() {
        check_exact(&[1]);
        check_exact(&[2]);
        check_exact(&[3]);
    }

    #[test]
    fn set_sizes_around_alpha() {
        check_exact(&[ALPHA - 1, ALPHA, ALPHA + 1, 2 * ALPHA, 2 * ALPHA + 1]);
    }

    #[test]
    fn many_mixed_sets() {
        check_exact(&[5, 100, 1, 17, 64, 2, 333, 14, 15, 28, 1, 1, 9]);
    }

    #[test]
    fn flood_of_singletons() {
        check_exact(&vec![1; 200]);
    }

    #[test]
    fn flood_of_pairs() {
        check_exact(&vec![2; 150]);
    }

    #[test]
    fn never_stalls_input() {
        let sets = integer_sets(&[1, 50, 2, 14, 300, 1, 7]);
        let mut r = SingleAdderReducer::new(ALPHA);
        let run = run_sets(&mut r, &sets);
        assert_eq!(run.stall_cycles, 0, "proposed circuit must never stall");
    }

    #[test]
    fn buffer_stays_within_two_alpha_squared() {
        // The in-circuit assertion enforces the bound on every cycle; this
        // test exercises adversarial mixes and reads the high-water mark.
        for sizes in [
            vec![1usize; 300],
            vec![2; 200],
            vec![ALPHA + 1; 60],
            vec![ALPHA * 2; 40],
            vec![3, 1, ALPHA, 500, 1, 1, ALPHA + 1, 29, 2, 2, 2, 100],
        ] {
            let sets = integer_sets(&sizes);
            let mut r = SingleAdderReducer::new(ALPHA);
            let run = run_sets(&mut r, &sets);
            assert!(
                run.buffer_high_water <= 2 * ALPHA * ALPHA,
                "sizes {sizes:?}: high water {}",
                run.buffer_high_water
            );
        }
    }

    #[test]
    fn latency_bound_sum_plus_two_alpha_squared() {
        // Paper: p sets reduce in fewer than Σsᵢ + 2α² cycles.
        for sizes in [
            vec![1000usize],
            vec![64; 20],
            vec![1; 100],
            vec![5, 100, 1, 17, 64, 2, 333, 14, 15],
        ] {
            let sets = integer_sets(&sizes);
            let total: u64 = sizes.iter().map(|&s| s as u64).sum();
            let mut r = SingleAdderReducer::new(ALPHA);
            let run = run_sets(&mut r, &sets);
            let bound = total + 2 * (ALPHA as u64 * ALPHA as u64);
            assert!(
                run.total_cycles < bound,
                "sizes {sizes:?}: {} cycles ≥ bound {bound}",
                run.total_cycles
            );
        }
    }

    #[test]
    fn exactly_one_add_per_input_beyond_first() {
        // Reducing a set of size s needs exactly s − 1 additions; the
        // circuit performs no redundant work.
        let sets = integer_sets(&[17, 4, 1, 99]);
        let total: u64 = sets.iter().map(|s| s.len() as u64).sum();
        let mut r = SingleAdderReducer::new(ALPHA);
        let run = run_sets(&mut r, &sets);
        assert_eq!(run.adds_issued, total - sets.len() as u64);
    }

    #[test]
    fn small_alpha_still_correct() {
        let sets = integer_sets(&[9, 3, 1, 20, 2]);
        let mut r = SingleAdderReducer::new(2);
        let run = run_sets(&mut r, &sets);
        let expected = reference_sums(&sets);
        for ev in &run.results {
            assert_eq!(ev.value, expected[ev.set_id as usize]);
        }
    }

    #[test]
    fn occupancy_histogram_tracks_distribution() {
        let sets = integer_sets(&[40, 40, 40, 40]);
        let mut r = SingleAdderReducer::new(ALPHA);
        run_sets(&mut r, &sets);
        let h = r.occupancy_histogram();
        assert!(h.samples() > 0);
        assert_eq!(h.max_seen(), r.buffer_high_water());
        assert!(h.percentile(1.0) <= 2 * ALPHA * ALPHA);
        assert!(h.mean() <= r.buffer_high_water() as f64);
    }

    #[test]
    fn works_with_paper_adder_depth() {
        let r = SingleAdderReducer::with_paper_adder();
        assert_eq!(r.alpha(), 14);
        assert_eq!(r.buffer_capacity(), 392);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "unit test of the fault hook itself"
    )]
    fn fault_stuck_at_clears_a_buffered_bit_or_masks_when_empty() {
        use crate::reduce::ReduceInput;
        let mut r = SingleAdderReducer::new(4);
        assert!(!r.fault_stuck_at(0, 52), "empty circuit masks the fault");
        // Buffer three values of an open set (fewer than α, all committed).
        for &v in &[3.0, 5.0, 7.0] {
            r.tick(Some(ReduceInput {
                set_id: 0,
                value: v,
                last: false,
            }));
        }
        // Slot 1 is 5.0 = 1.25·2²; clearing exponent bit 52 makes 2.5.
        assert!(r.fault_stuck_at(1, 52));
        r.tick(Some(ReduceInput {
            set_id: 0,
            value: 1.0,
            last: true,
        }));
        let mut result = None;
        for _ in 0..200 {
            if let Some(ev) = r.tick(None) {
                result = Some(ev);
            }
            if r.is_done() {
                break;
            }
        }
        assert_eq!(result.expect("set retires").value, 3.0 + 2.5 + 7.0 + 1.0);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "unit test of the fault hook itself"
    )]
    fn reducers_without_exposed_storage_mask_stuck_at_faults() {
        let mut r = crate::reduce::StallingReducer::new(4);
        assert!(!r.fault_stuck_at(0, 5), "trait default masks");
    }

    #[test]
    fn negative_and_fractional_values_sum_correctly() {
        // Powers of two and their negatives sum exactly in any order.
        let sets: Vec<Vec<f64>> = vec![
            (0..40)
                .map(|i| if i % 2 == 0 { 0.5 } else { -0.25 })
                .collect(),
            (0..33).map(|i| 2.0f64.powi(i % 8)).collect(),
        ];
        let mut r = SingleAdderReducer::new(ALPHA);
        let run = run_sets(&mut r, &sets);
        let expected = reference_sums(&sets);
        for ev in &run.results {
            assert_eq!(ev.value, expected[ev.set_id as usize]);
        }
    }
}
