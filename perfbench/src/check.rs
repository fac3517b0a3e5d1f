//! Output checks: committed records, byte for byte, plus the
//! `fblas-check` rules and gates the observatory runs.
//!
//! An operation is one pool job (one record, row, cell or trial). A
//! record fails when it is missing, not equal to the committed record,
//! or when a gate rejects it; [`Tally`] counts attempts and failures
//! across every iteration of a run.

use std::ops::Range;
use std::path::Path;

/// Attempted and failed operations, with one note per failure kind.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// What failed, for the report (deduplicated).
    pub notes: Vec<String>,
    /// Findings reported but not counted as failures (deduplicated).
    pub info: Vec<String>,
    /// Committed records a fresh record differed from, as `FILE key[i]`
    /// (deduplicated).
    pub differing: Vec<String>,
}

impl Tally {
    /// Count `attempted` operations of which `failed` failed; `what`
    /// names the check for the report when anything failed.
    pub fn add(&mut self, attempted: usize, failed: usize, what: &str) {
        self.attempted += attempted as u64;
        let failed = failed.min(attempted);
        self.failed += failed as u64;
        if failed > 0 {
            let note = format!("{what}: {failed} of {attempted} failed");
            if !self.notes.contains(&note) {
                self.notes.push(note);
            }
        }
    }

    /// Record a finding that is reported but not counted as a failure.
    pub fn inform(&mut self, what: String) {
        if !self.info.contains(&what) {
            self.info.push(what);
        }
    }

    /// Name a committed record that a fresh record differed from.
    pub fn differs(&mut self, record: String) {
        if !self.differing.contains(&record) {
            self.differing.push(record);
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if !self.notes.contains(&n) {
                self.notes.push(n);
            }
        }
        for n in other.info {
            self.inform(n);
        }
        for r in other.differing {
            self.differs(r);
        }
    }
}

/// Error count of an `fblas-check` report and its error messages,
/// leaving out errors of the rules named in `except`.
pub fn errors_except(report: &fblas_check::Report, except: &[&str]) -> (usize, String) {
    let msgs: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == fblas_check::Severity::Error && !except.contains(&d.rule_id))
        .map(|d| format!("[{}] {}", d.rule_id, d.message))
        .collect();
    (msgs.len(), msgs.join("; "))
}

/// Error count of an `fblas-check` report and its error messages.
pub fn errors(report: &fblas_check::Report) -> (usize, String) {
    errors_except(report, &[])
}

/// A committed store: its exact bytes and its parsed records.
pub struct Committed<S> {
    /// File name, relative to the checkout root.
    pub file: &'static str,
    /// The committed bytes.
    pub text: String,
    /// The parsed store.
    pub set: S,
}

impl<S> Committed<S> {
    /// Read and parse `file` with `parse`.
    pub fn load(
        file: &'static str,
        parse: impl FnOnce(&str) -> Result<S, String>,
    ) -> Result<Self, String> {
        let text = std::fs::read_to_string(Path::new(file))
            .map_err(|e| format!("cannot read committed {file}: {e}"))?;
        let set = parse(&text).map_err(|e| format!("cannot parse committed {file}: {e}"))?;
        Ok(Self { file, text, set })
    }
}

/// Failures of a fresh rendering of `file` against the committed
/// bytes: none when the bytes are equal, else the records `records`
/// counts (and names, with [`differing`]), or one when every record is
/// equal and the bytes differ outside them.
pub fn mismatched(
    tally: &mut Tally,
    file: &str,
    fresh_text: &str,
    committed_text: &str,
    records: impl FnOnce(&mut Tally) -> usize,
) -> usize {
    if fresh_text == committed_text {
        return 0;
    }
    match records(tally) {
        0 => {
            tally.differs(format!("{file} (outside its records)"));
            1
        }
        n => n,
    }
}

/// Count the records of `fresh` that are missing from, or differ from,
/// the committed record at the same position in the `key` array of
/// `file`, and name each in `tally.differing` as `FILE key[i]`.
pub fn differing<R: PartialEq>(
    tally: &mut Tally,
    (file, key): (&str, &str),
    fresh: &[R],
    committed: &[R],
) -> usize {
    let n = fresh.len().max(committed.len());
    let differ: Vec<usize> = (0..n)
        .filter(|&i| fresh.get(i) != committed.get(i))
        .collect();
    for &i in &differ {
        tally.differs(format!("{file} {key}[{i}]"));
    }
    differ.len()
}

/// Byte ranges of the records of the `key` array in a store as the
/// repository's stores render it: the array opens on a line
/// `  "key": [`, each record on a line `    {` and closes on `    }`
/// or `    },`.
pub fn record_spans(text: &str, key: &str) -> Vec<Range<usize>> {
    let open = format!("\n  \"{key}\": [\n");
    let Some(at) = text.find(&open) else {
        return Vec::new();
    };
    let mut spans = Vec::new();
    let mut start = None;
    let mut pos = at + open.len();
    for line in text[pos..].split_inclusive('\n') {
        let body = line.trim_end_matches('\n');
        match body {
            "    {" => start = Some(pos),
            "    }" | "    }," => {
                if let Some(s) = start.take() {
                    spans.push(s..pos + body.len());
                }
            }
            "  ]" | "  ]," => break,
            _ => {}
        }
        pos += line.len();
    }
    spans
}

/// The committed store with one byte changed: the first digit of a
/// number in the middle record of its `key` array, the first number
/// whose change still parses and changes that record (a store rejects,
/// say, a run length that no longer matches its series). Returns the
/// mutated store and that record's index.
pub fn mutant<S, R: PartialEq>(
    committed: &Committed<S>,
    key: &str,
    parse: impl Fn(&str) -> Result<S, String>,
    records: impl Fn(&S) -> &[R],
) -> Result<(Committed<S>, usize), String> {
    let file = committed.file;
    let spans = record_spans(&committed.text, key);
    let index = spans.len() / 2;
    let span = spans
        .get(index)
        .ok_or_else(|| format!("{file}: no records under \"{key}\""))?;
    let text = committed.text.as_bytes();
    span.clone()
        .filter(|&at| text[at].is_ascii_digit() && text[at - 1] == b' ')
        .find_map(|at| {
            let mut bytes = text.to_vec();
            bytes[at] = if bytes[at] == b'9' {
                b'1'
            } else {
                bytes[at] + 1
            };
            let text = String::from_utf8(bytes).ok()?;
            let set = parse(&text).ok()?;
            let changed = records(&set).get(index) != records(&committed.set).get(index);
            changed.then_some((Committed { file, text, set }, index))
        })
        .ok_or_else(|| format!("{file}: no one-digit change to {key}[{index}] parses"))
}

/// Self-test verdict on a workload gate's tally for a store with one
/// byte changed in `key[index]`: the gate must fail and must name that
/// record, and only that record, as differing.
pub fn expect_trip(tally: &Tally, file: &str, key: &str, index: usize) -> Result<(), String> {
    let want = vec![format!("{file} {key}[{index}]")];
    if tally.failed == 0 || tally.differing != want {
        return Err(format!(
            "a one-byte change to {file} {key}[{index}] was not reported as that record failing \
             (failed {}, differing {:?})",
            tally.failed, tally.differing
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_metrics::{FaultSet, RecordSet, ScaleSet, ServeSet};
    use fblas_telemetry::TelemSet;

    fn load<S>(file: &'static str, parse: impl FnOnce(&str) -> Result<S, String>) -> Committed<S> {
        let path = format!("{}/../{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).expect("committed store present");
        let set = parse(&text).expect("committed store parses");
        Committed { file, text, set }
    }

    /// Every committed store's record spans match its parsed records,
    /// and its mutant differs from it in the middle record alone.
    fn mutant_changes_one_record<S, R: PartialEq>(
        file: &'static str,
        key: &str,
        parse: impl Fn(&str) -> Result<S, String> + Copy,
        records: impl Fn(&S) -> &[R],
    ) {
        let committed = load(file, parse);
        let n = records(&committed.set).len();
        assert_eq!(record_spans(&committed.text, key).len(), n, "{file} {key}");
        let (mutated, index) = mutant(&committed, key, parse, &records).expect(file);
        assert_eq!(mutated.text.len(), committed.text.len());
        let differ: Vec<usize> = (0..n)
            .filter(|&i| records(&mutated.set)[i] != records(&committed.set)[i])
            .collect();
        assert_eq!(differ, vec![index], "{file} {key}");
        let mut tally = Tally::default();
        let failed = mismatched(&mut tally, file, &mutated.text, &committed.text, |t| {
            differing(
                t,
                (file, key),
                records(&mutated.set),
                records(&committed.set),
            )
        });
        assert_eq!(failed, 1);
        assert!(expect_trip(&Tally { failed: 1, ..tally }, file, key, index).is_ok());
    }

    #[test]
    fn one_byte_mutation_of_every_committed_store_changes_one_record() {
        mutant_changes_one_record(
            "BENCH_0001.json",
            "records",
            RecordSet::from_json_str,
            |s| &s.records,
        );
        mutant_changes_one_record("TELEM_0001.json", "runs", TelemSet::from_json_str, |s| {
            &s.runs
        });
        mutant_changes_one_record("SCALE_0001.json", "records", ScaleSet::from_json_str, |s| {
            &s.records
        });
        mutant_changes_one_record("SERVE_0001.json", "records", ServeSet::from_json_str, |s| {
            &s.records
        });
        mutant_changes_one_record("FAULTS.json", "records", FaultSet::from_json_str, |s| {
            &s.records
        });
        mutant_changes_one_record("FAULTS.json", "degraded", FaultSet::from_json_str, |s| {
            &s.degraded
        });
    }

    #[test]
    fn identical_text_has_no_failures_and_envelope_drift_has_one() {
        let recs = [1, 2, 3];
        let at = ("F", "records");
        let mut t = Tally::default();
        let same = |t: &mut Tally| differing(t, at, &recs, &recs);
        assert_eq!(mismatched(&mut t, "F", "a", "a", same), 0);
        assert!(t.differing.is_empty());
        assert_eq!(mismatched(&mut t, "F", "a", "b", same), 1);
        assert_eq!(t.differing, vec!["F (outside its records)"]);
        let mut t = Tally::default();
        let fewer = |t: &mut Tally| differing(t, at, &recs[..2], &recs);
        assert_eq!(mismatched(&mut t, "F", "a", "b", fewer), 1);
        let changed = |t: &mut Tally| differing(t, at, &[1, 5, 6], &recs);
        assert_eq!(mismatched(&mut t, "F", "a", "b", changed), 2);
        assert_eq!(t.differing, vec!["F records[2]", "F records[1]"]);
    }

    #[test]
    fn a_trip_must_name_exactly_the_mutated_record() {
        let mut t = Tally::default();
        t.add(3, 1, "x");
        assert!(expect_trip(&t, "F", "records", 1).is_err());
        t.differs("F records[1]".to_string());
        assert!(expect_trip(&t, "F", "records", 1).is_ok());
        assert!(expect_trip(&t, "F", "records", 2).is_err());
        t.differs("G records[0]".to_string());
        assert!(expect_trip(&t, "F", "records", 1).is_err());
    }

    #[test]
    fn tally_caps_failures_at_attempts() {
        let mut t = Tally::default();
        t.add(3, 5, "x");
        t.add(2, 0, "y");
        assert_eq!((t.attempted, t.failed), (5, 3));
        assert_eq!(t.notes.len(), 1);
    }
}
