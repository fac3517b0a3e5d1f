//! Persistence: the schema-versioned `TELEM_<n>.json` trajectory store.
//!
//! One [`TelemSet`] is what `observatory run` persists next to each
//! `BENCH_<n>.json`: the schema version, the generator, the telemetry
//! window width and one [`TelemRun`] per simulated paper-matrix entry,
//! keyed by the entry's record identity key. Window vectors are
//! run-length encoded as `[value, run]` pairs — steady-state streaming
//! produces long constant stretches, so the committed store stays
//! reviewable — and decode losslessly because the window count is fixed
//! by `ceil(cycles / window)`.
//!
//! The store inherits the record set's determinism contract: no
//! timestamps, no host information, byte-identical at any `--jobs`
//! count and under every execution backend (the telemetry parity suites
//! prove the underlying series equal; this module only serializes them).
//!
//! The envelope, load/save and the `TELEM_<n>.json` trajectory naming
//! ([`fblas_metrics::TELEM`]) are the shared `fblas_metrics::store`
//! mechanism; `observatory trend` reads the points oldest-first.

use fblas_metrics::json::{rle_decode, rle_encode, Members};
use fblas_metrics::{rows, Envelope, Json, StoreFile};
use fblas_sim::{CompSeries, LogHistogram, StallCause, TelemSeries};

/// Version of the telemetry store schema. Bump on any field change;
/// readers reject mismatches so a stale store cannot be reinterpreted.
pub const TELEM_SCHEMA_VERSION: u64 = 1;

const ENVELOPE: Envelope = Envelope {
    kind: "telemetry",
    version: TELEM_SCHEMA_VERSION,
};

/// One simulated run's telemetry, keyed by its record identity key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemRun {
    /// Record identity key, e.g. `dot[k=2,n=2048]`.
    pub key: String,
    /// The sealed windowed series of the run.
    pub series: TelemSeries,
}

/// An ordered collection of telemetry runs from one matrix execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemSet {
    /// Tool that produced the set, e.g. `"observatory"`.
    pub generator: String,
    /// Window width in cycles (shared by every run in the set).
    pub window: u64,
    /// The runs, in record order.
    pub runs: Vec<TelemRun>,
}

fn histogram_to_json(h: &LogHistogram) -> Json {
    let buckets = Json::Arr(
        h.nonzero_buckets()
            .into_iter()
            .map(|(idx, count)| Json::Arr(vec![Json::Num(idx as f64), Json::Num(count as f64)]))
            .collect(),
    );
    let [p50, p95, p99, p999] = h.quantiles();
    Json::obj()
        .with("samples", Json::Num(h.samples() as f64))
        .with("min", Json::Num(h.min() as f64))
        .with("max", Json::Num(h.max() as f64))
        .with("buckets", buckets)
        .with("p50", Json::Num(p50 as f64))
        .with("p95", Json::Num(p95 as f64))
        .with("p99", Json::Num(p99 as f64))
        .with("p999", Json::Num(p999 as f64))
}

fn histogram_from_json(json: &Json, what: &str) -> Result<LogHistogram, String> {
    let what = format!("{what}: latency");
    let m = Members::new(json, &what);
    let mut pairs = Vec::new();
    for b in m.get("buckets", Json::as_arr)? {
        let items = b
            .as_arr()
            .filter(|a| a.len() == 2)
            .ok_or_else(|| format!("{what} buckets are [index, count] pairs"))?;
        let idx = items[0]
            .as_u64()
            .filter(|&i| i <= LogHistogram::bucket_index(u64::MAX) as u64)
            .ok_or_else(|| format!("{what} bucket index is not a bucket"))?;
        let count = items[1]
            .as_u64()
            .ok_or_else(|| format!("{what} bucket count is not an integer"))?;
        pairs.push((idx as usize, count));
    }
    let h = LogHistogram::from_parts(&pairs, m.u64("min")?, m.u64("max")?);
    let samples = m.u64("samples")?;
    if h.samples() != samples {
        return Err(format!(
            "{what} buckets sum to {} samples, header says {samples}",
            h.samples()
        ));
    }
    Ok(h)
}

fn comp_to_json(c: &CompSeries) -> Json {
    let stalls = Json::Obj(
        StallCause::ALL
            .iter()
            .map(|&cause| {
                (
                    cause.name().to_string(),
                    rle_encode(&c.stalls[cause.index()]),
                )
            })
            .collect(),
    );
    Json::obj()
        .with("name", Json::Str(c.name.clone()))
        .with("busy", rle_encode(&c.busy))
        .with("stalls", stalls)
        .with("depth_sum", rle_encode(&c.depth_sum))
        .with("depth_samples", rle_encode(&c.depth_samples))
        .with("latency", histogram_to_json(&c.latency))
}

fn comp_from_json(json: &Json, windows: usize) -> Result<CompSeries, String> {
    let name = Members::new(json, "component").str("name")?.to_string();
    let m = Members::new(json, &name);
    let stalls_json = Members::new(m.value("stalls")?, &name);
    let mut stalls: [Vec<u64>; 4] = Default::default();
    for &cause in &StallCause::ALL {
        let what = format!("{name}.stalls.{}", cause.name());
        stalls[cause.index()] = rle_decode(stalls_json.value(cause.name())?, windows, &what)?;
    }
    let series = |key: &str| rle_decode(m.value(key)?, windows, &format!("{name}.{key}"));
    Ok(CompSeries {
        busy: series("busy")?,
        stalls,
        depth_sum: series("depth_sum")?,
        depth_samples: series("depth_samples")?,
        latency: histogram_from_json(m.value("latency")?, &name)?,
        name,
    })
}

impl TelemSet {
    /// An empty set for `generator` at the given window width.
    pub fn new(generator: &str, window: u64) -> Self {
        assert!(window >= 1, "telemetry window must be at least one cycle");
        Self {
            generator: generator.to_string(),
            window,
            runs: Vec::new(),
        }
    }

    /// Append one run's series under its record key.
    ///
    /// # Panics
    /// Panics if the series was recorded at a different window width —
    /// mixing widths in one store would make windows incomparable.
    pub fn push(&mut self, key: &str, series: TelemSeries) {
        assert_eq!(
            series.window, self.window,
            "{key}: series window {} != store window {}",
            series.window, self.window
        );
        self.runs.push(TelemRun {
            key: key.to_string(),
            series,
        });
    }

    /// Find a run by its record identity key.
    pub fn find(&self, key: &str) -> Option<&TelemRun> {
        self.runs.iter().find(|r| r.key == key)
    }

    /// Serialize to the canonical byte-deterministic JSON document.
    pub fn to_json_string(&self) -> String {
        let runs = Json::Arr(
            self.runs
                .iter()
                .map(|r| {
                    Json::obj()
                        .with("key", Json::Str(r.key.clone()))
                        .with("cycles", Json::Num(r.series.cycles as f64))
                        .with("busy", rle_encode(&r.series.busy))
                        .with(
                            "comps",
                            Json::Arr(r.series.comps.iter().map(comp_to_json).collect()),
                        )
                })
                .collect(),
        );
        ENVELOPE
            .begin(&self.generator)
            .with("window", Json::Num(self.window as f64))
            .with("runs", runs)
            .render()
    }

    /// Parse a document produced by [`TelemSet::to_json_string`].
    ///
    /// Rejects schema-version mismatches outright, like the record
    /// store: telemetry written by a different schema must be
    /// regenerated, not reinterpreted.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let (doc, generator) = ENVELOPE.open(text)?;
        let window = doc
            .get("window")
            .and_then(Json::as_u64)
            .filter(|&w| w >= 1)
            .ok_or_else(|| "document missing positive 'window'".to_string())?;
        let runs = rows(&doc, "runs", |run| {
            let key = Members::new(run, "run").str("key")?.to_string();
            let m = Members::new(run, &key);
            let cycles = m.u64("cycles")?;
            let windows = if cycles == 0 {
                0
            } else {
                cycles.div_ceil(window) as usize
            };
            let busy = rle_decode(m.value("busy")?, windows, &format!("{key}.busy"))?;
            let comps = m
                .get("comps", Json::as_arr)?
                .iter()
                .map(|c| comp_from_json(c, windows).map_err(|e| format!("{key}: {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(TelemRun {
                key,
                series: TelemSeries {
                    cycles,
                    window,
                    busy,
                    comps,
                },
            })
        })?;
        Ok(Self {
            generator,
            window,
            runs,
        })
    }
}

impl StoreFile for TelemSet {
    fn encode(&self) -> String {
        self.to_json_string()
    }

    fn decode(text: &str) -> Result<Self, String> {
        Self::from_json_str(text)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A small synthetic store: one dot-like run with a front end busy
    /// through the first two windows, a reducer with a drain tail and a
    /// latency sample, over 10 cycles at window 4.
    pub fn sample_set() -> TelemSet {
        let mut front = CompSeries {
            name: "dot/front-end".to_string(),
            busy: vec![4, 4, 0],
            ..CompSeries::default()
        };
        front.stalls[StallCause::Drain.index()] = vec![0, 0, 2];
        front.depth_sum = vec![8, 8, 0];
        front.depth_samples = vec![4, 4, 0];
        let mut reducer = CompSeries {
            name: "dot/reducer".to_string(),
            busy: vec![3, 4, 1],
            ..CompSeries::default()
        };
        reducer.stalls[StallCause::Drain.index()] = vec![1, 0, 1];
        reducer.latency.record(10);
        for c in [&mut front, &mut reducer] {
            for s in &mut c.stalls {
                s.resize(3, 0);
            }
            c.depth_sum.resize(3, 0);
            c.depth_samples.resize(3, 0);
        }
        let series = TelemSeries {
            cycles: 10,
            window: 4,
            busy: vec![4, 4, 2],
            comps: vec![front, reducer],
        };
        let mut set = TelemSet::new("unit-test", 4);
        set.push("dot[k=2,n=16]", series);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::sample_set;
    use super::*;

    #[test]
    fn set_round_trips_losslessly() {
        let set = sample_set();
        let text = set.to_json_string();
        let parsed = TelemSet::from_json_str(&text).unwrap();
        assert_eq!(parsed, set);
        assert!(parsed.find("dot[k=2,n=16]").is_some());
        assert!(parsed.find("dot[k=2,n=17]").is_none());
    }

    #[test]
    fn serialization_is_byte_deterministic() {
        assert_eq!(sample_set().to_json_string(), sample_set().to_json_string());
    }

    #[test]
    fn schema_version_bump_is_detected() {
        let text = sample_set().to_json_string().replacen(
            &format!("\"schema_version\": {TELEM_SCHEMA_VERSION}"),
            &format!("\"schema_version\": {}", TELEM_SCHEMA_VERSION + 1),
            1,
        );
        let err = TelemSet::from_json_str(&text).unwrap_err();
        assert!(err.contains("schema version mismatch"), "{err}");
    }

    #[test]
    fn latency_histograms_survive_the_store() {
        let set = sample_set();
        let parsed = TelemSet::from_json_str(&set.to_json_string()).unwrap();
        let reducer = &parsed.runs[0].series.comps[1];
        assert_eq!(reducer.latency.samples(), 1);
        assert_eq!(reducer.latency.min(), 10);
        assert_eq!(reducer.latency.max(), 10);
        // A damaged bucket index is an error, not an allocation of its size.
        let damaged = Json::parse(r#"{"samples": 1, "min": 1, "max": 1, "buckets": [[1e15, 1]]}"#);
        let err = histogram_from_json(&damaged.unwrap(), "t").unwrap_err();
        assert!(err.contains("not a bucket"), "{err}");
    }

    /// Every committed store parses and re-renders to its exact bytes.
    #[test]
    fn committed_stores_round_trip_byte_identically() {
        use fblas_metrics::{FaultSet, RecordSet, ScaleSet, ServeSet};
        fn check<T: StoreFile>(file: &str) {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(file);
            let bytes = std::fs::read_to_string(&path).unwrap();
            let set = T::load(&path).unwrap_or_else(|e| panic!("{e}"));
            assert!(
                set.encode() == bytes,
                "{file} does not re-render byte-identically"
            );
        }
        check::<RecordSet>("BENCH_0001.json");
        check::<RecordSet>("baselines/seed.json");
        check::<TelemSet>("TELEM_0001.json");
        check::<ServeSet>("SERVE_0001.json");
        check::<ScaleSet>("SCALE_0001.json");
        check::<FaultSet>("FAULTS.json");
    }

    #[test]
    fn mixed_window_push_panics() {
        let set = sample_set();
        let mut other = TelemSet::new("t", 8);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            other.push("x", set.runs[0].series.clone());
        }));
        assert!(r.is_err(), "window mismatch must panic");
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    const COMMITTED: &str = include_str!("../../../TELEM_0001.json");

    /// Arbitrary text, mostly JSON punctuation and digits.
    fn arb_text() -> impl Strategy<Value = String> {
        const JSONISH: &[u8] = b"{}[]\",:-.e0123456789 \\nul";
        prop::collection::vec(
            prop_oneof![
                (0..JSONISH.len()).prop_map(|i| char::from(JSONISH[i])),
                any::<u32>().prop_map(|c| char::from_u32(c % 0x11_0000).unwrap_or('?')),
            ],
            0..32,
        )
        .prop_map(|chars| chars.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn parser_never_panics(text in arb_text()) {
            let _ = TelemSet::from_json_str(&text);
        }

        /// Damage the committed store (cut a span, splice in arbitrary
        /// text) so the decoder sees almost-valid runs.
        #[test]
        fn parser_never_panics_on_a_damaged_committed_store(
            at in 0..COMMITTED.len(),
            cut in 0..24usize,
            junk in arb_text(),
        ) {
            let end = (at + cut).min(COMMITTED.len());
            prop_assume!(COMMITTED.is_char_boundary(at) && COMMITTED.is_char_boundary(end));
            let damaged = format!("{}{junk}{}", &COMMITTED[..at], &COMMITTED[end..]);
            let _ = TelemSet::from_json_str(&damaged);
        }
    }
}
