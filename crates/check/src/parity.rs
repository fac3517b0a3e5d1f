//! Paper-parity coverage: every tolerance in the shared table must be
//! carried by exactly one committed BENCH record, and every record's
//! paper entry must name a row of the table.
//!
//! [`fblas_metrics::PAPER_TOLERANCES`] is the single source of truth for
//! the paper's headline numbers. The paper matrix measures each of them
//! once and attaches it to the measuring job's record as a paper-parity
//! entry; `verify_all` and `observatory diff` gate those entries at run
//! time. This module checks the committed record set *statically*:
//! [`coverage_report`] reads `BENCH_0001.json` and proves the records and
//! the table agree. An entry naming an id the table lacks, an id carried
//! by two records, or a table row no record carries is an
//! [`Severity::Error`] before a single benchmark runs. The `drc` binary
//! appends this report to its sweep, so the same CI gate that proves
//! feasibility also proves parity coverage.

use std::path::Path;

use crate::drc::{Diagnostic, Report, Severity};
use fblas_metrics::{lookup, RecordSet, StoreFile, PAPER_TOLERANCES};

/// Check the paper entries of one record set against the shared
/// tolerance table.
///
/// Exposed separately from [`coverage_report`] so tests can feed
/// deliberately broken record sets through the same logic.
pub fn check_records(set: &RecordSet) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Every carried id must exist in the table.
    for r in &set.records {
        for p in r.paper.iter().filter(|p| lookup(&p.figure_id).is_none()) {
            diags.push(Diagnostic {
                rule_id: "parity-coverage",
                severity: Severity::Error,
                message: format!(
                    "record {} carries `{}` but the shared tolerance table has \
                     no such row — stale entry or renamed id",
                    r.key(),
                    p.figure_id
                ),
                quantities: vec![],
            });
        }
    }

    // Every table row must be carried by exactly one record.
    for t in PAPER_TOLERANCES {
        let carriers = set.paper_carriers(t.id);
        match carriers[..] {
            [(r, p)] => diags.push(Diagnostic {
                rule_id: "parity-coverage",
                severity: Severity::Info,
                message: format!(
                    "record {} carries {}: {} vs paper {} {}",
                    r.key(),
                    t.id,
                    p.measured,
                    t.paper,
                    t.unit
                ),
                quantities: vec![("paper", t.paper), ("tol_frac", t.tol_frac)],
            }),
            [] => diags.push(Diagnostic {
                rule_id: "parity-coverage",
                severity: Severity::Error,
                message: format!(
                    "tolerance `{}` ({}) is in the shared table but no record \
                     carries it — the paper figure would go unchecked",
                    t.id, t.description
                ),
                quantities: vec![("paper", t.paper), ("tol_frac", t.tol_frac)],
            }),
            _ => diags.push(Diagnostic {
                rule_id: "parity-coverage",
                severity: Severity::Error,
                message: format!(
                    "tolerance `{}` is carried by {} records ({}) — each paper \
                     figure must be measured once",
                    t.id,
                    carriers.len(),
                    carriers
                        .iter()
                        .map(|(r, _)| r.key())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                quantities: vec![],
            }),
        }
    }

    diags
}

/// The parity-coverage report over the record set committed at `path`
/// (`BENCH_0001.json`).
pub fn coverage_report(path: &Path) -> Result<Report, String> {
    Ok(Report {
        design: "paper-parity coverage".to_string(),
        diagnostics: check_records(&RecordSet::load(path)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::repo_root;
    use fblas_metrics::RunRecord;

    fn errors(diags: Vec<Diagnostic>) -> Vec<String> {
        diags
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.message)
            .collect()
    }

    /// A set carrying every table row once, on one modeled record each.
    fn covering_set() -> RecordSet {
        let mut set = RecordSet::new("test");
        for (i, t) in PAPER_TOLERANCES.iter().enumerate() {
            set.push(
                RunRecord::modeled("model/test", &[("i", i as i64)], 100.0, 0)
                    .with_paper(t.id, t.paper),
            );
        }
        set
    }

    #[test]
    fn committed_records_cover_the_whole_table() {
        let report = coverage_report(&repo_root().join("BENCH_0001.json")).expect("load");
        assert!(
            report.is_feasible(),
            "parity coverage has errors:\n{}",
            report.render(true)
        );
        // One Info diagnostic per table row — full, non-overlapping cover.
        assert_eq!(report.count(Severity::Info), PAPER_TOLERANCES.len());
    }

    #[test]
    fn full_cover_is_clean() {
        let errs = errors(check_records(&covering_set()));
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn unknown_id_is_an_error() {
        let mut set = covering_set();
        set.push(
            RunRecord::modeled("model/ghost", &[], 100.0, 0).with_paper("no.such.figure", 1.0),
        );
        let errs = errors(check_records(&set)).join("\n");
        assert!(
            errs.contains("model/ghost") && errs.contains("no.such.figure"),
            "{errs}"
        );
    }

    #[test]
    fn duplicated_id_is_an_error() {
        let mut set = covering_set();
        let id = PAPER_TOLERANCES[0].id;
        set.push(RunRecord::modeled("model/twin", &[], 100.0, 0).with_paper(id, 1.0));
        let errs = errors(check_records(&set));
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(
            errs[0].contains(id) && errs[0].contains("2 records") && errs[0].contains("model/twin"),
            "{errs:?}"
        );
    }

    #[test]
    fn unclaimed_row_is_an_error() {
        let mut set = covering_set();
        let dropped = set.records.pop().expect("non-empty");
        let errs = errors(check_records(&set));
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains(&dropped.paper[0].figure_id), "{errs:?}");
        // An empty set leaves every table row uncarried.
        let none = check_records(&RecordSet::new("empty"));
        assert_eq!(errors(none).len(), PAPER_TOLERANCES.len());
    }
}
