//! Bounded FIFO with occupancy tracking.
//!
//! The paper's central buffer-size claims (the reduction circuit needs two
//! buffers of size α², the matrix-multiply PE needs two local stores of
//! size m²/k) are verified in this workspace by running the architectures
//! and observing the high-water mark of the FIFOs/buffers involved —
//! [`Fifo`] records that mark and panics on overflow, so an architecture
//! that violates its claimed bound fails its tests loudly.

use std::collections::VecDeque;

/// Rejection returned by [`Fifo::try_push`]: the queue was at capacity.
/// Carries the rejected item back to the caller so a back-pressured
/// architecture can hold it and retry on a later cycle.
pub struct FifoFull<T>(pub T);

impl<T> std::fmt::Debug for FifoFull<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FifoFull")
    }
}

impl<T> std::fmt::Display for FifoFull<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("fifo at capacity")
    }
}

/// A bounded first-in first-out queue that records its high-water mark.
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    items: VecDeque<T>,
    capacity: usize,
    high_water: usize,
    total_pushed: u64,
}

impl<T> Fifo<T> {
    /// Create a FIFO with the given capacity.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be >= 1");
        Self {
            items: VecDeque::with_capacity(capacity),
            capacity,
            high_water: 0,
            total_pushed: 0,
        }
    }

    /// Push an item.
    ///
    /// # Panics
    /// Panics if the FIFO is full: in a hardware model, pushing into a full
    /// buffer is data loss and always a scheduling bug.
    pub fn push(&mut self, item: T) {
        assert!(
            self.items.len() < self.capacity,
            "fifo overflow: capacity {} exceeded",
            self.capacity
        );
        self.items.push_back(item);
        self.total_pushed += 1;
        self.high_water = self.high_water.max(self.items.len());
    }

    /// Try to push an item, returning [`FifoFull`] (carrying the item
    /// back) if at capacity. This is the back-pressure form: use it where
    /// the architecture handles a full buffer by stalling; use [`Fifo::push`]
    /// where a full buffer violates a claimed bound and must panic.
    pub fn try_push(&mut self, item: T) -> Result<(), FifoFull<T>> {
        if self.items.len() < self.capacity {
            self.push(item);
            Ok(())
        } else {
            Err(FifoFull(item))
        }
    }

    /// Pop the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peek at the oldest item without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Current number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True if at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Maximum occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total number of items ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Iterate over the items from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Sample the current occupancy into a probe: feeds the component's
    /// occupancy histogram, high-water mark and (deep mode) waveform.
    /// Call once per cycle from the owning design.
    pub fn probe_occupancy(&self, probe: &mut crate::Probe, id: crate::ProbeId) {
        probe.sample_depth(id, self.items.len());
    }

    /// Fault-injection hook: mutate the item in `slot` (0 = oldest,
    /// reduced modulo the current occupancy), modelling an SEU in a
    /// buffer cell. Returns false when the FIFO is empty — the fault hit
    /// unoccupied storage and is architecturally masked.
    ///
    /// Only call this from a [`Design::inject`](crate::Design::inject)
    /// implementation (a `disallowed-methods` entry in `clippy.toml`):
    /// that path runs solely while a fault schedule is armed, keeping
    /// ordinary simulation provably unperturbed.
    pub fn fault_mutate(&mut self, slot: usize, f: impl FnOnce(&mut T)) -> bool {
        if self.items.is_empty() {
            return false;
        }
        let idx = slot % self.items.len();
        f(&mut self.items[idx]);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut f = Fifo::new(4);
        for i in 0..4 {
            f.push(i);
        }
        assert_eq!(
            (0..4).map(|_| f.pop().unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn high_water_mark_tracks_peak_not_current() {
        let mut f = Fifo::new(8);
        f.push(1);
        f.push(2);
        f.push(3);
        f.pop();
        f.pop();
        assert_eq!(f.len(), 1);
        assert_eq!(f.high_water(), 3);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut f = Fifo::new(2);
        f.push(1);
        f.push(2);
        f.push(3);
    }

    #[test]
    fn try_push_returns_item_when_full() {
        let mut f = Fifo::new(1);
        assert!(f.try_push(10).is_ok());
        let FifoFull(rejected) = f.try_push(11).unwrap_err();
        assert_eq!(rejected, 11);
        assert!(f.is_full());
        assert_eq!(f.total_pushed(), 1, "rejected pushes are not counted");
    }

    #[test]
    #[should_panic(expected = "fifo capacity must be >= 1")]
    fn depth_zero_fifo_is_rejected_at_construction() {
        // A zero-capacity buffer can never accept the token it owes the
        // loop it sits on (the graph analyzer's `required >= 1` floor);
        // the model refuses to build one rather than deadlock later.
        let _ = Fifo::<u64>::new(0);
    }

    #[test]
    fn depth_one_fifo_cycles_full_empty_full() {
        let mut f = Fifo::new(1);
        assert!(f.is_empty() && !f.is_full());
        assert!(f.try_push(1).is_ok());
        assert!(f.is_full());
        // At depth 1, a second push must fail *until* the slot drains —
        // there is no in-between occupancy.
        assert!(f.try_push(2).is_err());
        assert_eq!(f.pop(), Some(1));
        assert!(f.is_empty());
        assert!(f.try_push(2).is_ok(), "drained slot accepts again");
        assert_eq!(f.high_water(), 1);
        assert_eq!(f.total_pushed(), 2);
    }

    #[test]
    fn front_does_not_consume() {
        let mut f = Fifo::new(2);
        f.push(42);
        assert_eq!(f.front(), Some(&42));
        assert_eq!(f.len(), 1);
        assert_eq!(f.pop(), Some(42));
        assert!(f.is_empty());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "unit test of the fault hook itself"
    )]
    fn fault_mutate_hits_occupied_slots_and_misses_empty() {
        let mut f = Fifo::new(4);
        assert!(!f.fault_mutate(0, |v: &mut u64| *v ^= 1), "empty fifo");
        f.push(8u64);
        f.push(16u64);
        // slot reduced modulo occupancy: 5 % 2 = 1 targets the newest.
        assert!(f.fault_mutate(5, |v| *v ^= 1));
        assert_eq!(f.pop(), Some(8));
        assert_eq!(f.pop(), Some(17));
    }

    #[test]
    fn total_pushed_counts_lifetime_items() {
        let mut f = Fifo::new(2);
        for i in 0..10 {
            f.push(i);
            f.pop();
        }
        assert_eq!(f.total_pushed(), 10);
    }
}
