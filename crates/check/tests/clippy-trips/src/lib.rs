//! One violation of every rule in the workspace `clippy.toml`. Clippy
//! must reject each; nothing here is ever run.

use fblas_core::reduce::Reducer;
use fblas_fpu::{PipelinedAdder, PipelinedMultiplier};
use fblas_mem::{LocalStore, ReadChannel};
use fblas_sim::{DelayLine, Fifo};

/// Wall clocks.
pub fn clocks() -> (std::time::Instant, std::time::SystemTime) {
    (std::time::Instant::now(), std::time::SystemTime::now())
}

/// Per-process hash seeds.
pub fn hashes() -> (
    std::collections::HashMap<u8, u8>,
    std::collections::HashSet<u8>,
    std::hash::RandomState,
) {
    (
        std::collections::HashMap::default(),
        std::collections::HashSet::default(),
        std::hash::RandomState::new(),
    )
}

/// Host parallelism and threads outside the worker pool.
pub fn threads() {
    let _ = std::thread::available_parallelism();
    let _ = std::thread::spawn(|| {}).join();
    std::thread::scope(|_| {});
    let _ = std::thread::Builder::new();
}

/// Fault hooks outside any `Design::inject` body.
pub fn hooks(
    fifo: &mut Fifo<f64>,
    delay: &mut DelayLine<f64>,
    adder: &mut PipelinedAdder,
    multiplier: &mut PipelinedMultiplier,
    channel: &mut ReadChannel,
    store: &mut LocalStore,
    reducer: &mut dyn Reducer,
) -> bool {
    fifo.fault_mutate(0, |v| *v = 0.0)
        | delay.fault_mutate(0, |v| *v = 0.0)
        | adder.fault_flip_in_flight(0, 0)
        | multiplier.fault_flip_in_flight(0, 0)
        | channel.fault_drop_beats(1)
        | store.fault_mutate(0, |v| *v = 0.0)
        | reducer.fault_stuck_at(0, 0)
}
