//! Bounded on-chip local stores with access accounting.
//!
//! Every claim the paper makes about storage sizes — "the size of required
//! on-chip memory is n words" (§4.2), "two local storage of size m²/k"
//! (§5.1), "one storage of size 2b/l" (§5.2) — is enforced here: a
//! [`LocalStore`] is constructed with its claimed capacity and panics on
//! any access outside it, so the architecture simulations cannot quietly
//! use more memory than the design budgets.

/// A fixed-capacity word store (register file or BRAM block).
#[derive(Debug, Clone)]
pub struct LocalStore {
    name: String,
    words: Vec<f64>,
    reads: u64,
    writes: u64,
}

impl LocalStore {
    /// Create a zero-initialized store of `capacity` words.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        Self {
            name: name.into(),
            words: vec![0.0; capacity],
            reads: 0,
            writes: 0,
        }
    }

    /// Capacity in words.
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Read the word at `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds — a capacity violation is a design
    /// bug, not a runtime condition.
    pub fn read(&mut self, idx: usize) -> f64 {
        assert!(
            idx < self.words.len(),
            "{}: read index {idx} out of capacity {}",
            self.name,
            self.words.len()
        );
        self.reads += 1;
        self.words[idx]
    }

    /// Write `v` to `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn write(&mut self, idx: usize, v: f64) {
        assert!(
            idx < self.words.len(),
            "{}: write index {idx} out of capacity {}",
            self.name,
            self.words.len()
        );
        self.writes += 1;
        self.words[idx] = v;
    }

    /// Bulk-initialize the store (counts as one write per word).
    pub fn load(&mut self, data: &[f64]) {
        assert!(
            data.len() <= self.words.len(),
            "{}: load of {} words exceeds capacity {}",
            self.name,
            data.len(),
            self.words.len()
        );
        self.words[..data.len()].copy_from_slice(data);
        self.writes += data.len() as u64;
    }

    /// View of the current contents.
    pub fn contents(&self) -> &[f64] {
        &self.words
    }

    /// Total reads performed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total writes performed.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Store name (used in panic messages and reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fault-injection hook: mutate the stored word at `idx` (reduced
    /// modulo the capacity), modelling an SEU in a BRAM cell. Does not
    /// touch the access counters — a particle strike is not a port
    /// access. Returns false for a zero-capacity store.
    ///
    /// Only call this from a [`fblas_sim::Design::inject`] implementation
    /// (a `disallowed-methods` entry in `clippy.toml`).
    pub fn fault_mutate(&mut self, idx: usize, f: impl FnOnce(&mut f64)) -> bool {
        if self.words.is_empty() {
            return false;
        }
        let i = idx % self.words.len();
        f(&mut self.words[i]);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_back_written_value() {
        let mut s = LocalStore::new("x", 8);
        s.write(3, 2.5);
        assert_eq!(s.read(3), 2.5);
        assert_eq!(s.read(0), 0.0);
    }

    #[test]
    fn access_counters() {
        let mut s = LocalStore::new("c'", 4);
        s.write(0, 1.0);
        s.write(1, 2.0);
        s.read(0);
        assert_eq!(s.writes(), 2);
        assert_eq!(s.reads(), 1);
    }

    #[test]
    fn load_initializes_prefix() {
        let mut s = LocalStore::new("x", 4);
        s.load(&[9.0, 8.0]);
        assert_eq!(s.contents(), &[9.0, 8.0, 0.0, 0.0]);
        assert_eq!(s.writes(), 2);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "unit test of the fault hook itself"
    )]
    fn fault_mutate_leaves_access_counters_alone() {
        let mut s = LocalStore::new("y'", 2);
        s.write(1, 4.0);
        assert!(s.fault_mutate(3, |v| *v = -*v), "idx reduced mod capacity");
        assert_eq!(s.contents(), &[0.0, -4.0]);
        assert_eq!(s.writes(), 1, "a fault is not a port access");
        assert!(!LocalStore::new("empty", 0).fault_mutate(0, |_| {}));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn read_beyond_capacity_panics() {
        let mut s = LocalStore::new("x", 2);
        s.read(2);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn write_beyond_capacity_panics() {
        let mut s = LocalStore::new("x", 2);
        s.write(5, 1.0);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_load_panics() {
        let mut s = LocalStore::new("x", 2);
        s.load(&[1.0, 2.0, 3.0]);
    }
}
