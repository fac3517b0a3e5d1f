//! What the host reports about this process: peak resident memory
//! (`/proc/self/status`) and CPU time (`clock_gettime`), and how fast
//! this CPU runs code right now (a fixed probe kernel, sampled by a
//! thread pinned beside the caller).

use std::hint::black_box;
use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

/// Linux's clock ids for the CPU time of the whole process and of the
/// calling thread.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// 64-bit words of the CPU mask handed to `sched_setaffinity`.
const CPU_MASK_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn sched_getcpu() -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

fn clock_s(clock: c_int) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; the call writes only it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds this process has run, user plus system, all threads.
pub fn cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has run, user plus system.
pub fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Pin the calling thread to `cpu`; false if the host refuses.
fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u64; CPU_MASK_WORDS];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable CPU set of the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Edge of the probe's matrices: three 64×64 f64 tiles stay in L2.
const PROBE_N: usize = 64;

/// Multiply-accumulate passes over the tiles per probe.
const PROBE_MM_PASSES: usize = 48;

/// Bytes of the probe's record-like text.
const PROBE_TEXT_BYTES: usize = 64 * 1024;

/// Scans of the text per probe.
const PROBE_SCANS: usize = 36;

/// Pretty-printed, record-like text (quoted keys and names, integers,
/// braces), generated from a fixed xorshift stream.
fn record_text() -> Vec<u8> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut text = Vec::with_capacity(PROBE_TEXT_BYTES + 64);
    while text.len() < PROBE_TEXT_BYTES {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let line = match state % 8 {
            0 => "    {\n".to_string(),
            1 => "    },\n".to_string(),
            2 | 3 => format!(
                "      \"name_{}\": \"cell{}/b{}\",\n",
                state % 97,
                state % 13,
                state % 5
            ),
            _ => format!(
                "      \"field_{}\": {},\n",
                state % 89,
                (state >> 20) % 1_000_000
            ),
        };
        text.extend_from_slice(line.as_bytes());
    }
    text
}

/// Token counts of one scan: quotes, digits outside strings, openers
/// and commas.
fn scan(text: &[u8]) -> [u64; 4] {
    let mut counts = [0u64; 4];
    let mut in_string = false;
    for &b in text {
        match b {
            b'"' => {
                in_string = !in_string;
                counts[0] += 1;
            }
            b'0'..=b'9' if !in_string => counts[1] += 1,
            b'{' | b'[' => counts[2] += 1,
            b',' => counts[3] += 1,
            _ => {}
        }
    }
    counts
}

/// A fixed kernel, owned by the benchmark, whose CPU time says how fast
/// the host runs code at this moment.
///
/// On a shared host the core's other tenants take its execution ports
/// and caches for stretches of a fraction of a second to minutes, and
/// the campaigns then run up to two and a half times as slow. The
/// probe does, in about equal parts on a quiet host, the two kinds of
/// work whose slowdown tracks the campaigns' most closely (a
/// latency-bound chain does not slow at all): a tiled f64 matrix
/// multiply (throughput) and a branchy scan of record-like text (the
/// stores' parsers, the simulator's control flow).
pub struct SpeedProbe {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    text: Vec<u8>,
    counts: [u64; 4],
}

impl SpeedProbe {
    /// Tiles with small exact integers and a fixed text, so every pass
    /// computes the same.
    pub fn new() -> Self {
        let n = PROBE_N * PROBE_N;
        Self {
            a: (0..n).map(|i| (i % 7) as f64).collect(),
            b: (0..n).map(|i| (i % 5) as f64).collect(),
            c: vec![0.0; n],
            text: record_text(),
            counts: [0; 4],
        }
    }

    /// The calling thread's CPU seconds for one probe pass (about 6 ms
    /// on a quiet host).
    pub fn measure(&mut self) -> f64 {
        let n = PROBE_N;
        let t0 = thread_cpu_s();
        self.c.iter_mut().for_each(|v| *v = 0.0);
        for _ in 0..PROBE_MM_PASSES {
            for i in 0..n {
                for k in 0..n {
                    let aik = self.a[i * n + k];
                    let row = &mut self.c[i * n..(i + 1) * n];
                    for (cij, bkj) in row.iter_mut().zip(&self.b[k * n..(k + 1) * n]) {
                        *cij += aik * bkj;
                    }
                }
            }
        }
        black_box(&self.c);
        for _ in 0..PROBE_SCANS {
            self.counts = scan(black_box(&self.text));
        }
        thread_cpu_s() - t0
    }
}

/// Time between two probe samples.
pub const SAMPLE_PERIOD: Duration = Duration::from_millis(100);

/// Probe samples: when each ended and its CPU seconds.
type Samples = Arc<Mutex<Vec<(Instant, f64)>>>;

/// A thread that runs the [`SpeedProbe`] every [`SAMPLE_PERIOD`] on the
/// CPU the caller runs on, so the samples see the contention the
/// caller's timed work sees while it runs.
pub struct SpeedSampler {
    samples: Samples,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<f64>>,
    /// Whether the caller and the sampler are pinned to one CPU.
    pub pinned: bool,
    /// CPU seconds the sampler thread ran, once it has ended.
    pub cpu_s: f64,
}

impl SpeedSampler {
    /// Pin the calling thread to the CPU it is on and start sampling on
    /// that CPU.
    pub fn start() -> Self {
        // SAFETY: no arguments; returns the caller's CPU or -1.
        let cpu = usize::try_from(unsafe { sched_getcpu() }).ok();
        let caller_pinned = cpu.is_some_and(pin_to);
        let samples = Samples::default();
        let stop = Arc::new(AtomicBool::new(false));
        let (into, stopped) = (Arc::clone(&samples), Arc::clone(&stop));
        let (pinned_tx, pinned_rx) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let _ = pinned_tx.send(cpu.is_some_and(pin_to));
            let mut probe = SpeedProbe::new();
            probe.measure(); // warm
            while !stopped.load(Ordering::Relaxed) {
                std::thread::sleep(SAMPLE_PERIOD);
                let spent = probe.measure();
                into.lock()
                    .expect("sampler lock")
                    .push((Instant::now(), spent));
            }
            thread_cpu_s()
        });
        let pinned = caller_pinned && pinned_rx.recv().unwrap_or(false);
        Self {
            samples,
            stop,
            thread: Some(thread),
            pinned,
            cpu_s: 0.0,
        }
    }

    /// CPU seconds of the samples that ended from `from` to `to`.
    pub fn within(&self, from: Instant, to: Instant) -> Vec<f64> {
        let samples = self.samples.lock().expect("sampler lock");
        samples
            .iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .map(|&(_, spent)| spent)
            .collect()
    }

    /// Stop the thread and wait for it to end.
    pub fn finish(mut self) -> Self {
        self.join();
        self
    }

    fn join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            self.cpu_s = thread.join().expect("sampler thread");
        }
    }
}

impl Drop for SpeedSampler {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().expect("linux") > 0.0);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let (p0, t0) = (cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_s() > p0 && thread_cpu_s() > t0, "{x}");
    }

    #[test]
    fn probe_computes_the_same_every_pass() {
        let mut p = SpeedProbe::new();
        assert!(p.measure() > 0.0);
        let (c, counts) = (p.c.clone(), p.counts);
        p.measure();
        assert_eq!((&p.c, p.counts), (&c, counts));
        // c = a·b, once per pass; one entry checked by hand.
        let n = PROBE_N;
        let c00: f64 = (0..n).map(|k| p.a[k] * p.b[k * n]).sum();
        assert_eq!(p.c[0], c00 * PROBE_MM_PASSES as f64);
        // Every string closes, and every kind of token occurs.
        assert!(counts[0] % 2 == 0 && counts.iter().all(|&k| k > 0));
        assert!(p.text.len() >= PROBE_TEXT_BYTES);
    }

    #[test]
    fn sampler_samples_while_running_and_stops() {
        let sampler = SpeedSampler::start();
        let from = Instant::now();
        std::thread::sleep(SAMPLE_PERIOD * 3);
        let to = Instant::now();
        let sampler = sampler.finish();
        let samples = sampler.within(from, to);
        assert!(!samples.is_empty() && samples.iter().all(|&s| s > 0.0));
        assert!(sampler.thread.is_none() && sampler.cpu_s > 0.0);
        let later = to + Duration::from_secs(60);
        assert!(sampler.within(later, later).is_empty());
    }
}
