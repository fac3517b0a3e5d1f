//! Serving-store conservation and soundness rules.
//!
//! The `SERVE_<n>.json` stores are commitments: an admission-control
//! record claiming "we completed C, rejected R and stranded F" must
//! actually balance against the A requests that arrived, or the honest
//! reject accounting is fiction. This module re-checks every committed
//! (or freshly generated) [`ServeSet`] from first principles:
//!
//! * **queue conservation** — for every tenant in every cell,
//!   `arrivals == completed + rejected_queue + rejected_tokens +
//!   in_flight`, and the windowed completion/rejection series sum to the
//!   counters they claim to observe;
//! * **digest sanity** — latency quantiles are monotone
//!   (`min <= p50 <= p95 <= p99 <= p999 <= max`), only non-empty digests
//!   carry quantiles, and sample counts equal completions;
//! * **timeline sanity** — modeled busy time (staging + compute) fits
//!   inside the elapsed makespan, and a draining cell strands nothing;
//! * **batch amortization** — wherever a campaign carries a
//!   batched/unbatched cell pair (same kernel, size, seed, horizon and
//!   drain mode, `max_batch > 1` vs `== 1`), the batched cell must pay
//!   strictly less staging and no more total busy time: the tentpole
//!   claim of the serving front end, re-derived from the committed
//!   numbers instead of trusted.

use fblas_metrics::{ServeRecord, ServeSet, TenantRecord};

use crate::drc::{Diagnostic, Report, Severity};

fn diag(
    rule_id: &'static str,
    severity: Severity,
    message: String,
    quantities: Vec<(&'static str, f64)>,
) -> Diagnostic {
    Diagnostic {
        rule_id,
        severity,
        message,
        quantities,
    }
}

fn check_tenant(cell: &str, t: &TenantRecord, out: &mut Vec<Diagnostic>) {
    let accounted = t.completed + t.rejected_queue + t.rejected_tokens + t.in_flight;
    if t.arrivals == accounted {
        out.push(diag(
            "serve-conservation",
            Severity::Info,
            format!(
                "{cell}/{}: {} arrivals = {} completed + {} rejected + {} in flight",
                t.name,
                t.arrivals,
                t.completed,
                t.rejected(),
                t.in_flight
            ),
            vec![("arrivals", t.arrivals as f64)],
        ));
    } else {
        out.push(diag(
            "serve-conservation",
            Severity::Error,
            format!(
                "{cell}/{}: {} arrivals but books account for {accounted}",
                t.name, t.arrivals
            ),
            vec![
                ("arrivals", t.arrivals as f64),
                ("accounted", accounted as f64),
            ],
        ));
    }
    let series_completed: u64 = t.completions.iter().sum();
    if series_completed != t.completed {
        out.push(diag(
            "serve-series",
            Severity::Error,
            format!(
                "{cell}/{}: completion series sums to {series_completed}, counter says {}",
                t.name, t.completed
            ),
            vec![],
        ));
    }
    let series_rejected: u64 = t.rejections.iter().sum();
    if series_rejected != t.rejected() {
        out.push(diag(
            "serve-series",
            Severity::Error,
            format!(
                "{cell}/{}: rejection series sums to {series_rejected}, counters say {}",
                t.name,
                t.rejected()
            ),
            vec![],
        ));
    }
    check_digest(&format!("{cell}/{}", t.name), &t.latency, t.completed, out);
}

fn check_digest(
    what: &str,
    d: &fblas_metrics::LatencyDigest,
    expected_samples: u64,
    out: &mut Vec<Diagnostic>,
) {
    if d.samples != expected_samples {
        out.push(diag(
            "serve-digest",
            Severity::Error,
            format!(
                "{what}: digest has {} samples, {expected_samples} requests completed",
                d.samples
            ),
            vec![],
        ));
    }
    match d.quantiles {
        None if d.samples != 0 => out.push(diag(
            "serve-digest",
            Severity::Error,
            format!("{what}: {} samples but no quantiles", d.samples),
            vec![],
        )),
        Some(q) if d.samples == 0 => out.push(diag(
            "serve-digest",
            Severity::Error,
            format!("{what}: empty digest carries quantiles {q:?}"),
            vec![],
        )),
        Some([p50, p95, p99, p999]) => {
            let chain = [d.min, p50, p95, p99, p999, d.max];
            if chain.windows(2).all(|w| w[0] <= w[1]) {
                out.push(diag(
                    "serve-digest",
                    Severity::Info,
                    format!("{what}: quantiles monotone (p50={p50} <= p999={p999} ns)"),
                    vec![("p99", p99 as f64)],
                ));
            } else {
                out.push(diag(
                    "serve-digest",
                    Severity::Error,
                    format!("{what}: quantile chain not monotone: {chain:?}"),
                    vec![],
                ));
            }
        }
        None => {}
    }
}

fn check_cell(r: &ServeRecord, out: &mut Vec<Diagnostic>) {
    for t in &r.tenants {
        check_tenant(&r.cell, t, out);
    }
    check_digest(&r.cell, &r.latency, r.completed(), out);
    if r.busy_ns() > r.elapsed_ns {
        out.push(diag(
            "serve-timeline",
            Severity::Error,
            format!(
                "{}: busy {} ns exceeds elapsed {} ns — the single fleet cannot overlap itself",
                r.cell,
                r.busy_ns(),
                r.elapsed_ns
            ),
            vec![
                ("busy_ns", r.busy_ns() as f64),
                ("elapsed_ns", r.elapsed_ns as f64),
            ],
        ));
    }
    if r.drain && r.in_flight() > 0 {
        out.push(diag(
            "serve-timeline",
            Severity::Error,
            format!(
                "{}: a draining cell stranded {} request(s) in flight",
                r.cell,
                r.in_flight()
            ),
            vec![],
        ));
    }
    if r.max_batch >= 1 && r.batches > 0 && r.completed() > r.batches * r.max_batch {
        out.push(diag(
            "serve-timeline",
            Severity::Error,
            format!(
                "{}: {} completions cannot fit in {} batches of at most {}",
                r.cell,
                r.completed(),
                r.batches,
                r.max_batch
            ),
            vec![],
        ));
    }
}

/// True when two cells form a batched/unbatched comparison pair.
fn paired(batched: &ServeRecord, unbatched: &ServeRecord) -> bool {
    batched.max_batch > 1
        && unbatched.max_batch == 1
        && batched.kernel == unbatched.kernel
        && batched.n == unbatched.n
        && batched.seed == unbatched.seed
        && batched.horizon_ns == unbatched.horizon_ns
        && batched.drain == unbatched.drain
}

fn check_amortization(set: &ServeSet, out: &mut Vec<Diagnostic>) {
    for b in &set.records {
        for u in &set.records {
            if !paired(b, u) {
                continue;
            }
            if b.staging_ns < u.staging_ns && b.busy_ns() <= u.busy_ns() {
                out.push(diag(
                    "serve-amortization",
                    Severity::Info,
                    format!(
                        "{} vs {}: batching cuts staging {} -> {} ns",
                        u.cell, b.cell, u.staging_ns, b.staging_ns
                    ),
                    vec![
                        ("batched_staging_ns", b.staging_ns as f64),
                        ("unbatched_staging_ns", u.staging_ns as f64),
                    ],
                ));
            } else {
                out.push(diag(
                    "serve-amortization",
                    Severity::Error,
                    format!(
                        "{} does not beat {}: staging {} vs {} ns, busy {} vs {} ns",
                        b.cell,
                        u.cell,
                        b.staging_ns,
                        u.staging_ns,
                        b.busy_ns(),
                        u.busy_ns()
                    ),
                    vec![],
                ));
            }
        }
    }
}

/// Re-check a serving store from first principles.
pub fn check_serve_set(set: &ServeSet) -> Report {
    let mut diagnostics = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for r in &set.records {
        if seen.contains(&r.cell.as_str()) {
            diagnostics.push(diag(
                "serve-identity",
                Severity::Error,
                format!("duplicate cell identity '{}'", r.cell),
                vec![],
            ));
        }
        seen.push(&r.cell);
        check_cell(r, &mut diagnostics);
    }
    check_amortization(set, &mut diagnostics);
    Report {
        design: format!("serve store ({} cells)", set.records.len()),
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fblas_metrics::LatencyDigest;
    use fblas_sim::Harness;

    /// A tiny genuine campaign: one batched/unbatched dot pair produced
    /// by the real engine, so the rule set is exercised against the
    /// artifact it will meet in CI.
    fn real_set() -> ServeSet {
        use fblas_serve::{run_cell, CellSpec, KernelFamily, ShapeClass, TenantSpec};
        let base = CellSpec {
            name: String::new(),
            class: ShapeClass {
                family: KernelFamily::Dot,
                n: 64,
            },
            tenants: vec![
                TenantSpec::open("alpha", 4_000, 16),
                TenantSpec::open("beta", 9_000, 4).with_tokens(8, 20_000),
            ],
            seed: 7,
            max_batch: 1,
            drain: true,
            horizon_ns: 1_000_000,
            window_ns: 250_000,
            slo_p99_ns: 1_000_000,
        };
        let mut set = ServeSet::new("unit-test");
        let mut h = Harness::new();
        let mut b1 = base.clone();
        b1.name = "dot64/open/b1".to_string();
        set.records.push(run_cell(&mut h, &b1));
        let mut b8 = base;
        b8.name = "dot64/open/b8".to_string();
        b8.max_batch = 8;
        set.records.push(run_cell(&mut h, &b8));
        set
    }

    #[test]
    fn real_campaign_passes_all_rules() {
        let report = check_serve_set(&real_set());
        assert_eq!(report.count(Severity::Error), 0, "{}", report.render(true));
        // The amortization pair was found and verified.
        assert!(!report.rule("serve-amortization").is_empty());
        assert!(report
            .rule("serve-amortization")
            .iter()
            .all(|d| d.severity == Severity::Info));
    }

    #[test]
    fn broken_books_are_detected() {
        let mut set = real_set();
        set.records[0].tenants[0].completed += 1;
        let report = check_serve_set(&set);
        assert!(
            report
                .rule("serve-conservation")
                .iter()
                .any(|d| d.severity == Severity::Error),
            "{}",
            report.render(true)
        );
    }

    #[test]
    fn non_monotone_quantiles_are_detected() {
        let mut set = real_set();
        if let Some(q) = &mut set.records[1].latency.quantiles {
            q.swap(0, 3);
        }
        let report = check_serve_set(&set);
        assert!(report
            .rule("serve-digest")
            .iter()
            .any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn empty_digest_with_samples_is_detected() {
        let mut set = real_set();
        set.records[0].tenants[0].latency = LatencyDigest {
            samples: set.records[0].tenants[0].completed,
            min: 0,
            max: 0,
            quantiles: None,
        };
        let report = check_serve_set(&set);
        assert!(report
            .rule("serve-digest")
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("no quantiles")));
    }

    #[test]
    fn lost_amortization_is_detected() {
        let mut set = real_set();
        // Claim the batched cell paid *more* staging than the unbatched.
        let unbatched_staging = set.records[0].staging_ns;
        set.records[1].staging_ns = unbatched_staging + 1;
        let report = check_serve_set(&set);
        assert!(report
            .rule("serve-amortization")
            .iter()
            .any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn duplicate_cells_are_detected() {
        let mut set = real_set();
        let dup = set.records[0].clone();
        set.records.push(dup);
        let report = check_serve_set(&set);
        assert!(report
            .rule("serve-identity")
            .iter()
            .any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn overfull_batches_are_detected() {
        let mut set = real_set();
        set.records[1].batches = 1; // far fewer than completed/max_batch allows
        let report = check_serve_set(&set);
        assert!(report
            .rule("serve-timeline")
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("cannot fit")));
    }
}
