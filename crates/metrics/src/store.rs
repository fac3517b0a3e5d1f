//! The one store mechanism behind every committed record file.
//!
//! Every campaign persists a schema-versioned JSON document: `BENCH`,
//! `TELEM`, `SERVE` and `SCALE` trajectory points plus `FAULTS.json`.
//! They share one envelope (`schema_version`, `generator`, then the
//! kind's own members and row arrays), one trajectory naming scheme and
//! one load/save path. This module owns all of it; a kind supplies only
//! what is unique to it:
//!
//! * [`Row`] — a row kind's [`Envelope`], identity key and JSON
//!   encode/decode. [`Store<R>`] is the `{schema_version, generator,
//!   records}` document over such rows; [`RecordSet`],
//!   [`ServeSet`](crate::ServeSet) and [`ScaleSet`](crate::ScaleSet) are
//!   aliases of it. Documents with extra members
//!   ([`FaultSet`](crate::FaultSet), `TelemSet`) build on [`Envelope`]
//!   and [`rows`] directly.
//! * [`StoreFile`] — `load`/`save` with path-prefixed errors, written
//!   once for every document type.
//! * [`Trajectory`] — the `<PREFIX>_<n>.json` convention: [`BENCH`],
//!   [`TELEM`], [`SERVE`] and [`SCALE`].
//! * [`diff_exact`] — the exact gate of a regenerated campaign against a
//!   committed store; a kind passes its label and drift-cause summary.
//!
//! Documents serialize deterministically — no timestamps, no host
//! information — so re-running an unchanged tree produces byte-identical
//! files.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::record::RunRecord;

/// A document persisted as one canonical JSON file.
pub trait StoreFile: Sized {
    /// Render the canonical document.
    fn encode(&self) -> String;

    /// Parse a document produced by [`StoreFile::encode`].
    fn decode(text: &str) -> Result<Self, String>;

    /// Read and parse the file at `path`.
    fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::decode(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Write the canonical document to `path`.
    fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.encode())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// The header every store document opens with: the kind named in
/// diagnostics and the schema version its readers speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Kind named in diagnostics, e.g. `scale`.
    pub kind: &'static str,
    /// Schema version written, and the only one accepted on read.
    pub version: u64,
}

impl Envelope {
    /// A document holding `schema_version` and `generator`; the caller
    /// appends the kind's members in byte-contract order.
    pub fn begin(self, generator: &str) -> Json {
        Json::obj()
            .with("schema_version", Json::Num(self.version as f64))
            .with("generator", Json::Str(generator.to_string()))
    }

    /// Parse `text` and check its envelope, returning the document and
    /// its generator. A schema-version mismatch is rejected outright: a
    /// document written by a different schema must be regenerated, not
    /// reinterpreted.
    pub fn open(self, text: &str) -> Result<(Json, String), String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let found = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("document missing 'schema_version'")?;
        if found != self.version {
            return Err(format!(
                "{} schema version mismatch: file has v{found}, this tool speaks v{} \
                 — regenerate the store",
                self.kind, self.version
            ));
        }
        let generator = doc
            .get("generator")
            .and_then(Json::as_str)
            .ok_or("document missing 'generator'")?
            .to_string();
        Ok((doc, generator))
    }
}

/// Decode the row array `name` of a store document.
pub fn rows<T>(
    doc: &Json,
    name: &str,
    decode: impl FnMut(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    doc.get(name)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("document missing '{name}' array"))?
        .iter()
        .map(decode)
        .collect()
}

/// What a row kind of a [`Store`] supplies.
pub trait Row: Sized {
    /// The envelope of the row kind's store documents.
    const ENVELOPE: Envelope;

    /// Identity key within a store, e.g. `dot[k=2,n=2048]`.
    fn identity(&self) -> String;

    /// Serialize to the canonical JSON tree (member order fixed).
    fn to_json(&self) -> Json;

    /// Deserialize from the canonical JSON tree.
    fn from_json(json: &Json) -> Result<Self, String>;
}

/// An ordered collection of rows from one run: the
/// `{schema_version, generator, records}` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Store<R> {
    /// Tool that produced the set, e.g. `"observatory"`, `"observatory-quick"`.
    pub generator: String,
    /// The rows, in run order.
    pub records: Vec<R>,
}

/// The paper-matrix record set, persisted as `BENCH_<n>.json`.
pub type RecordSet = Store<RunRecord>;

impl<R: Row> Store<R> {
    /// An empty set for `generator`.
    pub fn new(generator: &str) -> Self {
        Self {
            generator: generator.to_string(),
            records: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, record: R) {
        self.records.push(record);
    }

    /// Find a row by its identity key.
    pub fn find(&self, key: &str) -> Option<&R> {
        self.records.iter().find(|r| r.identity() == key)
    }

    /// Serialize to the canonical byte-deterministic JSON document.
    pub fn to_json_string(&self) -> String {
        R::ENVELOPE
            .begin(&self.generator)
            .with(
                "records",
                Json::Arr(self.records.iter().map(R::to_json).collect()),
            )
            .render()
    }

    /// Parse a document produced by [`Store::to_json_string`].
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let (doc, generator) = R::ENVELOPE.open(text)?;
        let records = rows(&doc, "records", R::from_json)?;
        Ok(Self { generator, records })
    }
}

impl<R: Row> StoreFile for Store<R> {
    fn encode(&self) -> String {
        self.to_json_string()
    }

    fn decode(text: &str) -> Result<Self, String> {
        Self::from_json_str(text)
    }
}

/// Result of exactly gating a regenerated campaign against a baseline
/// store.
#[derive(Debug, Clone)]
pub struct ExactDiff {
    /// Store kind named in the verdict line, e.g. `scale`.
    pub label: &'static str,
    /// Human-readable per-row findings, in baseline order.
    pub lines: Vec<String>,
    /// Number of gate failures (0 means the diff passes).
    pub failures: u64,
}

impl ExactDiff {
    /// Whether the regenerated campaign matches the baseline.
    pub fn pass(&self) -> bool {
        self.failures == 0
    }

    /// Render the findings (one line each) followed by a verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        if self.pass() {
            out.push_str(&format!("{} diff: PASS\n", self.label));
        } else {
            out.push_str(&format!(
                "{} diff: FAIL ({} finding(s))\n",
                self.label, self.failures
            ));
        }
        out
    }
}

/// Strict comparison of a regenerated campaign against a committed
/// baseline.
///
/// Campaigns are deterministic end to end, so the gate is exact: every
/// baseline row must exist, by identity key, with every field equal.
/// A drifted row is reported with `causes(current, baseline)`, the
/// kind's summary of what moved. Rows present only in `current` are
/// informational (new cells are how a campaign grows) and do not fail
/// the gate.
pub fn diff_exact<R: Row + PartialEq>(
    current: &Store<R>,
    baseline: &Store<R>,
    label: &'static str,
    causes: impl Fn(&R, &R) -> Vec<String>,
) -> ExactDiff {
    let mut diff = ExactDiff {
        label,
        lines: Vec::new(),
        failures: 0,
    };
    for base in &baseline.records {
        let key = base.identity();
        match current.find(&key) {
            None => {
                diff.lines
                    .push(format!("{key}: MISSING from regenerated campaign"));
                diff.failures += 1;
            }
            Some(cur) if cur == base => diff.lines.push(format!("{key}: ok")),
            Some(cur) => {
                let mut found = causes(cur, base);
                if found.is_empty() {
                    found.push("field drift outside summarized counters".to_string());
                }
                diff.lines
                    .push(format!("{key}: DRIFT — {}", found.join("; ")));
                diff.failures += 1;
            }
        }
    }
    for cur in &current.records {
        let key = cur.identity();
        if baseline.find(&key).is_none() {
            diff.lines
                .push(format!("{key}: new cell (not in baseline)"));
        }
    }
    diff
}

/// The `<PREFIX>_<n>.json` naming convention of one store kind.
///
/// Committed points live at the repository root as `BENCH_0001.json`,
/// `BENCH_0002.json`, …; [`Trajectory::next_index`] finds the first
/// free index and [`Trajectory::list`] returns the points in index
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trajectory {
    /// File-name prefix, e.g. `BENCH`.
    pub prefix: &'static str,
}

/// The paper-matrix record trajectory.
pub const BENCH: Trajectory = Trajectory { prefix: "BENCH" };
/// The windowed-telemetry trajectory, one point per `BENCH` point.
pub const TELEM: Trajectory = Trajectory { prefix: "TELEM" };
/// The serving-campaign trajectory.
pub const SERVE: Trajectory = Trajectory { prefix: "SERVE" };
/// The multi-FPGA scaling trajectory.
pub const SCALE: Trajectory = Trajectory { prefix: "SCALE" };

impl Trajectory {
    /// Label of point `index`: `BENCH_0007`.
    pub fn label(self, index: u64) -> String {
        format!("{}_{index:04}", self.prefix)
    }

    /// File name of point `index`: `BENCH_0007.json`.
    pub fn file_name(self, index: u64) -> String {
        format!("{}.json", self.label(index))
    }

    /// File name of point `index`'s host-time sidecar:
    /// `BENCH_0007.wallclock.json`.
    pub fn wallclock_name(self, index: u64) -> String {
        format!("{}.wallclock.json", self.label(index))
    }

    /// Parse an index out of a `<PREFIX>_<n>.json` file name. Sidecars
    /// (any `.` before `.json`) are not points.
    pub fn parse_index(self, name: &str) -> Option<u64> {
        let rest = name
            .strip_prefix(self.prefix)?
            .strip_prefix('_')?
            .strip_suffix(".json")?;
        if rest.contains('.') {
            return None;
        }
        rest.parse().ok()
    }

    /// The points in `dir`, sorted by index.
    pub fn list(self, dir: &Path) -> Vec<(u64, PathBuf)> {
        let mut found = Vec::new();
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                if let Some(index) = entry.file_name().to_str().and_then(|n| self.parse_index(n)) {
                    found.push((index, entry.path()));
                }
            }
        }
        found.sort_by_key(|&(index, _)| index);
        found
    }

    /// First unused index in `dir` (1-based).
    pub fn next_index(self, dir: &Path) -> u64 {
        self.list(dir).last().map_or(1, |&(index, _)| index + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{StallBreakdown, SCHEMA_VERSION};
    use fblas_sim::SimReport;

    fn sample_set() -> RecordSet {
        let mut set = RecordSet::new("unit-test");
        set.push(
            RunRecord::from_sim(
                "dot",
                &[("k", 2), ("n", 64)],
                SimReport {
                    cycles: 40,
                    flops: 128,
                    words_in: 128,
                    words_out: 1,
                    busy_cycles: 32,
                },
                StallBreakdown::default(),
                170.0,
                5220,
            )
            .with_paper("table3.dot.mflops", 544.0),
        );
        set.push(RunRecord::modeled("mm/model", &[("k", 10)], 125.0, 21580));
        set
    }

    #[test]
    fn set_round_trips() {
        let set = sample_set();
        let text = set.to_json_string();
        let parsed = RecordSet::from_json_str(&text).unwrap();
        assert_eq!(parsed, set);
        assert!(parsed.find("dot[k=2,n=64]").is_some());
        assert!(parsed.find("dot[k=2,n=65]").is_none());
    }

    #[test]
    fn serialization_is_byte_deterministic() {
        assert_eq!(sample_set().to_json_string(), sample_set().to_json_string());
    }

    #[test]
    fn schema_version_bump_is_detected() {
        let text = sample_set().to_json_string().replacen(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            &format!("\"schema_version\": {}", SCHEMA_VERSION + 1),
            1,
        );
        let err = RecordSet::from_json_str(&text).unwrap_err();
        assert!(err.contains("schema version mismatch"), "{err}");
    }

    /// IO and parse errors from `load`/`save` start with the path; a
    /// schema mismatch names the kind and says to regenerate.
    #[test]
    fn load_and_save_errors_name_the_path_and_kind() {
        let path = std::env::temp_dir().join(format!("fblas-bump-{}.json", std::process::id()));
        let bumped = sample_set().to_json_string().replacen(
            "\"schema_version\": 1",
            "\"schema_version\": 9",
            1,
        );
        std::fs::write(&path, bumped).unwrap();
        let err = RecordSet::load(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        let expected = format!(
            "{}: bench schema version mismatch: file has v9, this tool speaks v1 — regenerate the store",
            path.display()
        );
        assert_eq!(err, expected);
        let missing = Path::new("no/such/dir/BENCH_0001.json");
        let err = RecordSet::load(missing).unwrap_err();
        assert!(
            err.starts_with("cannot read no/such/dir/BENCH_0001.json"),
            "{err}"
        );
        let err = sample_set().save(missing).unwrap_err();
        assert!(
            err.starts_with("cannot write no/such/dir/BENCH_0001.json"),
            "{err}"
        );
    }

    /// Every kind names, parses, lists and indexes its points the same
    /// way; sidecars and other kinds' files are not points.
    #[test]
    fn trajectory_naming_scan_and_next_index_for_every_kind() {
        let dir = std::env::temp_dir().join(format!("fblas-trajectory-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let set = sample_set();
        for (kind, other) in [
            (BENCH, TELEM),
            (TELEM, SERVE),
            (SERVE, SCALE),
            (SCALE, BENCH),
        ] {
            let p = kind.prefix;
            assert_eq!(kind.file_name(3), format!("{p}_0003.json"));
            assert_eq!(kind.label(12), format!("{p}_0012"));
            assert_eq!(kind.wallclock_name(3), format!("{p}_0003.wallclock.json"));
            assert_eq!(kind.parse_index(&kind.file_name(3)), Some(3));
            assert_eq!(kind.parse_index(&format!("{p}_12.json")), Some(12));
            assert_eq!(kind.parse_index(&kind.wallclock_name(3)), None);
            assert_eq!(kind.parse_index(&format!("{p}_1.2.json")), None);
            assert_eq!(kind.parse_index(&format!("{p}_x.json")), None);
            assert_eq!(kind.parse_index(&format!("{p}0003.json")), None);
            assert_eq!(kind.parse_index(&other.file_name(3)), None);
            assert_eq!(kind.parse_index("baseline.json"), None);

            assert_eq!(kind.next_index(&dir), 1);
            set.save(&dir.join(kind.file_name(1))).unwrap();
            set.save(&dir.join(kind.file_name(3))).unwrap();
            std::fs::write(dir.join(kind.wallclock_name(3)), "{}").unwrap();
            let files = kind.list(&dir);
            assert_eq!(files.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [1, 3]);
            assert_eq!(kind.next_index(&dir), 4);
            assert_eq!(RecordSet::load(&files[1].1).unwrap(), set);
            for (_, path) in files {
                std::fs::remove_file(path).unwrap();
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exact_diff_reports_ok_drift_missing_and_new_rows() {
        let set = sample_set();
        let no_causes = |_: &RunRecord, _: &RunRecord| Vec::new();
        let diff = diff_exact(&set, &set, "bench", no_causes);
        assert!(diff.pass());
        assert_eq!(diff.lines, ["dot[k=2,n=64]: ok", "mm/model[k=10]: ok"]);
        assert!(diff.render().ends_with("bench diff: PASS\n"));

        let mut drifted = set.clone();
        drifted.records[0].cycles += 1;
        let diff = diff_exact(&drifted, &set, "bench", |cur, base| {
            vec![format!("cycles {} != baseline {}", cur.cycles, base.cycles)]
        });
        assert_eq!(diff.failures, 1);
        assert_eq!(
            diff.lines[0],
            "dot[k=2,n=64]: DRIFT — cycles 41 != baseline 40"
        );
        assert!(diff.render().ends_with("bench diff: FAIL (1 finding(s))\n"));
        let diff = diff_exact(&drifted, &set, "bench", no_causes);
        assert!(diff.lines[0].ends_with("DRIFT — field drift outside summarized counters"));

        let mut shrunk = set.clone();
        shrunk.records.pop();
        let diff = diff_exact(&shrunk, &set, "bench", no_causes);
        assert_eq!(diff.failures, 1);
        assert_eq!(
            diff.lines[1],
            "mm/model[k=10]: MISSING from regenerated campaign"
        );
        let diff = diff_exact(&set, &shrunk, "bench", no_causes);
        assert!(diff.pass());
        assert_eq!(diff.lines[1], "mm/model[k=10]: new cell (not in baseline)");
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use crate::json::properties::arb_text;
    use crate::{FaultSet, ScaleSet, ServeSet};
    use proptest::prelude::*;

    const COMMITTED: [&str; 4] = [
        include_str!("../../../BENCH_0001.json"),
        include_str!("../../../SERVE_0001.json"),
        include_str!("../../../SCALE_0001.json"),
        include_str!("../../../FAULTS.json"),
    ];

    fn parse(kind: usize, text: &str) {
        let _ = match kind {
            0 => RecordSet::from_json_str(text).map(drop),
            1 => ServeSet::from_json_str(text).map(drop),
            2 => ScaleSet::from_json_str(text).map(drop),
            _ => FaultSet::from_json_str(text).map(drop),
        };
    }

    fn boundary(text: &str, mut at: usize) -> usize {
        at = at.min(text.len());
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        at
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn store_parsers_never_panic(kind in 0..4usize, text in arb_text()) {
            parse(kind, &text);
        }

        /// Damage a committed file (cut a span, splice in arbitrary
        /// text) so the decoders see almost-valid rows.
        #[test]
        fn store_parsers_never_panic_on_damaged_committed_files(
            kind in 0..4usize,
            at in 0.0f64..1.0,
            cut in 0..24usize,
            junk in arb_text(),
        ) {
            let text = COMMITTED[kind];
            let start = boundary(text, (at * text.len() as f64) as usize);
            let end = boundary(text, start + cut);
            parse(kind, &format!("{}{junk}{}", &text[..start], &text[end..]));
        }
    }
}
