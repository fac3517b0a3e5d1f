//! The authors' RAW'05 single-adder reduction circuit \[28\]: binary-merge
//! with a Θ(lg s) buffer, restricted to power-of-two set sizes.
//!
//! One register per tree level holds at most one pending partial; an
//! arriving value (from the input or from the adder output) either parks
//! in its level's register or pairs with the value already there, issuing
//! one addition whose result belongs to the next level. A set of 2ᵗ
//! values therefore needs only t registers and one adder — but a set
//! whose size is not a power of two would leave unmerged residue in the
//! registers, which is exactly the limitation (§2.3: "the size of each
//! set must be a power of 2") that the SC'05 circuit removes.
//!
//! The single adder is shared by all levels; pending pair-operations wait
//! in a small queue (also Θ(lg s): at most one per level).

use super::{ReduceEvent, ReduceInput, Reducer};
use fblas_fpu::PipelinedAdder;
use std::collections::VecDeque;

/// A partial sum spanning `2^level` original inputs.
#[derive(Debug, Clone, Copy)]
struct Partial {
    value: f64,
    set_id: u64,
    level: u32,
}

/// The RAW'05 power-of-two single-adder reduction circuit.
#[derive(Debug)]
pub struct Pow2Reducer {
    adder: PipelinedAdder<(u64, u32)>,
    /// One holding register per tree level.
    levels: Vec<Option<Partial>>,
    /// Pair-operations awaiting the shared adder.
    pending_ops: VecDeque<(Partial, Partial)>,
    /// Size (log2) of each announced set.
    set_log2: std::collections::BTreeMap<u64, u32>,
    current_set: Option<u64>,
    current_count: u64,
    open_sets: usize,
    out_queue: VecDeque<ReduceEvent>,
    cycles: u64,
    adds_issued: u64,
    high_water: usize,
}

impl Pow2Reducer {
    /// Create the circuit for an `alpha`-stage adder.
    pub fn new(alpha: usize) -> Self {
        Self {
            adder: PipelinedAdder::with_stages(alpha),
            levels: Vec::new(),
            pending_ops: VecDeque::new(),
            set_log2: std::collections::BTreeMap::new(),
            current_set: None,
            current_count: 0,
            open_sets: 0,
            out_queue: VecDeque::new(),
            cycles: 0,
            adds_issued: 0,
            high_water: 0,
        }
    }

    /// Route a partial: emit if it spans its whole set, else park or pair.
    fn place(&mut self, p: Partial) {
        if let Some(&lg) = self.set_log2.get(&p.set_id) {
            if p.level == lg {
                self.out_queue.push_back(ReduceEvent {
                    set_id: p.set_id,
                    value: p.value,
                });
                self.open_sets -= 1;
                return;
            }
        }
        let li = p.level as usize;
        if li >= self.levels.len() {
            self.levels.resize(li + 1, None);
        }
        match self.levels[li].take() {
            None => self.levels[li] = Some(p),
            Some(held) => {
                assert_eq!(
                    held.set_id, p.set_id,
                    "power-of-two sets always pair within a level; residue \
                     means a non-power-of-two set was fed"
                );
                self.pending_ops.push_back((held, p));
            }
        }
    }

    fn buffered_now(&self) -> usize {
        self.levels.iter().filter(|l| l.is_some()).count() + 2 * self.pending_ops.len()
    }
}

impl Reducer for Pow2Reducer {
    fn name(&self) -> &'static str {
        "power-of-two Θ(lg s) single-adder (RAW'05)"
    }

    fn adders(&self) -> usize {
        1
    }

    /// Accepts one value per cycle as long as the op queue is not backed
    /// up (it cannot back up beyond one op per level in practice).
    fn ready(&self) -> bool {
        self.pending_ops.len() < 2 * (self.levels.len() + 2)
    }

    fn tick(&mut self, input: Option<ReduceInput>) -> Option<ReduceEvent> {
        self.cycles += 1;

        // Route the addition emerging this cycle.
        if let Some(out) = self.adder.peek().copied() {
            let (set_id, level) = out.tag;
            self.place(Partial {
                value: out.value,
                set_id,
                level,
            });
        }

        // Absorb the input value at level 0.
        if let Some(inp) = input {
            if self.current_set != Some(inp.set_id) {
                assert!(
                    self.current_set.is_none(),
                    "sets must be delivered sequentially"
                );
                self.current_set = Some(inp.set_id);
                self.current_count = 0;
                self.open_sets += 1;
            }
            self.current_count += 1;
            if inp.last {
                assert!(
                    self.current_count.is_power_of_two(),
                    "RAW'05 circuit requires power-of-two set sizes, got {}",
                    self.current_count
                );
                self.set_log2.insert(inp.set_id, self.current_count.ilog2());
                self.current_set = None;
            }
            self.place(Partial {
                value: inp.value,
                set_id: inp.set_id,
                level: 0,
            });
        }

        // Issue one queued pair-operation on the shared adder.
        let op = self.pending_ops.pop_front().map(|(a, b)| {
            self.adds_issued += 1;
            (a.value, b.value, (a.set_id, a.level + 1))
        });
        self.adder.step(op);

        self.high_water = self.high_water.max(self.buffered_now());
        self.out_queue.pop_front()
    }

    fn is_done(&self) -> bool {
        self.open_sets == 0 && self.out_queue.is_empty()
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
        self.buffered_now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::{reference_sums, run_sets, testutil::integer_sets};

    #[test]
    fn power_of_two_sets_exact() {
        let sets = integer_sets(&[1, 2, 4, 64, 8, 256, 16]);
        let mut r = Pow2Reducer::new(14);
        let run = run_sets(&mut r, &sets);
        let expected = reference_sums(&sets);
        for ev in &run.results {
            assert_eq!(ev.value, expected[ev.set_id as usize]);
        }
        assert_eq!(r.adders(), 1);
    }

    #[test]
    fn buffer_is_logarithmic() {
        let sets = integer_sets(&[1024, 512, 1024]);
        let mut r = Pow2Reducer::new(14);
        let run = run_sets(&mut r, &sets);
        // lg(1024) = 10 level registers plus a short op queue.
        assert!(run.buffer_high_water <= 24, "got {}", run.buffer_high_water);
    }

    #[test]
    fn back_to_back_sets_no_stall() {
        let sets = integer_sets(&[64; 20]);
        let mut r = Pow2Reducer::new(14);
        let run = run_sets(&mut r, &sets);
        assert_eq!(run.stall_cycles, 0);
        let expected = reference_sums(&sets);
        for ev in &run.results {
            assert_eq!(ev.value, expected[ev.set_id as usize]);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        let sets = integer_sets(&[5]);
        let mut r = Pow2Reducer::new(14);
        run_sets(&mut r, &sets);
    }

    #[test]
    fn work_conservation() {
        let sets = integer_sets(&[32, 16, 8]);
        let mut r = Pow2Reducer::new(14);
        let run = run_sets(&mut r, &sets);
        assert_eq!(run.adds_issued, 31 + 15 + 7);
    }
}
