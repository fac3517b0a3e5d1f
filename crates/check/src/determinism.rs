//! Workspace determinism lint: result-affecting code must be a pure
//! function of its inputs.
//!
//! The observatory's whole regression story (DESIGN.md §10) rests on
//! `BENCH_<n>.json` being byte-identical across machines, worker counts
//! and reruns. That property dies the moment result-affecting code reads
//! an ambient value: a wall clock ([`std::time::Instant`],
//! [`std::time::SystemTime`]), the host's CPU count
//! (`available_parallelism`), an ambient RNG (`thread_rng`), or —
//! subtlest of all — the iteration order of a `HashMap`/`HashSet`, which
//! is seeded per process. This rule scans the result-affecting crates
//! (`core`, `sim`, `fpu`, `metrics`, `faults`, `bench`) at the token
//! level (comments and strings stripped) and reports a
//! [`Severity::Error`] for any such read in production code.
//!
//! Hash containers with *keyed* access (`get`/`insert`/`entry`) are
//! fine — only order-revealing operations (`iter`, `keys`, `values`,
//! `drain`, `retain`, `for .. in map`) are flagged. A small allowlist
//! covers the sites whose ambient reads are proven not to affect
//! results: the worker pool's thread-count default (its ordered reducer
//! keeps output identical at any count), and the wall-clock sidecars
//! that are never written into committed records. Test code is exempt.

use std::io;
use std::path::Path;

use crate::drc::{Diagnostic, Report, Severity};
use crate::source::{strip, walk_rs_files};

/// The result-affecting source trees, relative to the repo root. The
/// `sw` crate joined the list when its blocked microkernel became the
/// native backend's value engine: its outputs now land in committed
/// records, so it is held to the same no-ambient-reads bar.
pub const DETERMINISM_ROOTS: &[&str] = &[
    "crates/core/src",
    "crates/sim/src",
    "crates/fpu/src",
    "crates/metrics/src",
    "crates/faults/src",
    "crates/bench/src",
    "crates/sw/src",
    "crates/serve/src",
    "crates/fabric/src",
];

/// Ambient reads proven harmless, as `(file, class)` pairs. Each entry
/// is reported as [`Severity::Info`] so the sweep shows live coverage.
pub const ALLOWED_SITES: &[(&str, &str)] = &[
    // Worker-count default only: the pool's ordered reducer makes the
    // merged output identical at any worker count (DESIGN.md §10).
    ("crates/bench/src/pool.rs", "host-parallelism"),
    // Wall-clock sidecar printed to stderr; never enters a RunRecord.
    ("crates/bench/src/paper_matrix.rs", "wall-clock"),
];

/// Direct ambient-read patterns: whitespace-squeezed substring match on
/// stripped source, with the class each belongs to.
const DIRECT_PATTERNS: &[(&str, &str)] = &[
    ("Instant::now", "wall-clock"),
    ("SystemTime", "wall-clock"),
    ("thread_rng", "ambient-rng"),
    ("rand::random", "ambient-rng"),
    ("RandomState", "ambient-rng"),
    ("available_parallelism", "host-parallelism"),
];

/// Order-revealing methods on a hash container.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// One ambient read found by the scanner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterminismSite {
    /// Repo-root-relative path of the file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Pattern class: `wall-clock`, `ambient-rng`, `host-parallelism`
    /// or `hash-iteration`.
    pub class: &'static str,
    /// What matched (the pattern, or the offending expression).
    pub what: String,
    /// Whether the `(file, class)` pair is on [`ALLOWED_SITES`].
    pub allowed: bool,
}

/// Identifier/punctuation token with its 1-based source line.
fn tokenize(stripped: &str) -> Vec<(String, usize)> {
    let mut toks = Vec::new();
    for (li, line) in stripped.lines().enumerate() {
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push((chars[start..i].iter().collect(), li + 1));
            } else if c == ':' && chars.get(i + 1) == Some(&':') {
                toks.push(("::".to_string(), li + 1));
                i += 2;
            } else if !c.is_whitespace() {
                toks.push((c.to_string(), li + 1));
                i += 1;
            } else {
                i += 1;
            }
        }
    }
    toks
}

/// Per-line mask of `#[cfg(test)]` scopes (brace-tracked, like the
/// fault-hook rule's scanner).
fn test_mask(stripped: &str) -> Vec<bool> {
    let mut mask = Vec::new();
    let mut depth = 0usize;
    let mut test_scopes: Vec<usize> = Vec::new();
    let mut pending = false;
    for line in stripped.lines() {
        let squeezed: String = line.chars().filter(|c| !c.is_whitespace()).collect();
        if squeezed.contains("#[cfg(test)]") {
            pending = true;
        }
        mask.push(!test_scopes.is_empty() || pending);
        for c in squeezed.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending {
                        test_scopes.push(depth);
                        pending = false;
                    }
                }
                '}' => {
                    if test_scopes.last() == Some(&depth) {
                        test_scopes.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
        }
    }
    mask
}

/// Identifiers bound to a `HashMap`/`HashSet` in this file: field or
/// `let` declarations (`x: HashMap<..>`) and direct constructions
/// (`x = HashMap::new()`), with optional path prefix and `&`/`mut`.
fn hash_idents(toks: &[(String, usize)]) -> Vec<String> {
    let mut idents = Vec::new();
    for i in 0..toks.len() {
        if toks[i].0 != "HashMap" && toks[i].0 != "HashSet" {
            continue;
        }
        // Walk back over the type path (`std :: collections ::`) and
        // reference markers to the `:` or `=` that introduced it.
        let mut j = i;
        while j > 0 {
            let prev = &toks[j - 1].0;
            let is_path_component = prev != "::"
                && prev.chars().next().is_some_and(char::is_alphabetic)
                && toks.get(j).is_some_and(|t| t.0 == "::");
            if prev == "::" || prev == "&" || prev == "mut" || is_path_component {
                j -= 1;
            } else {
                break;
            }
        }
        if j >= 2 && (toks[j - 1].0 == ":" || toks[j - 1].0 == "=") {
            let name = &toks[j - 2].0;
            if name
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
            {
                idents.push(name.clone());
            }
        }
    }
    idents.sort();
    idents.dedup();
    idents
}

/// Scan one source file (already labelled repo-relative) for ambient
/// reads and hash-order dependence.
pub fn scan_source(file_label: &str, source: &str) -> Vec<DeterminismSite> {
    let stripped = strip(source);
    let in_test = test_mask(&stripped);
    let exempt = |line: usize| in_test.get(line - 1).copied().unwrap_or(false);
    let allowed = |class: &str| ALLOWED_SITES.contains(&(file_label, class));
    let mut sites = Vec::new();
    for (i, line) in stripped.lines().enumerate() {
        let squeezed: String = line.chars().filter(|c| !c.is_whitespace()).collect();
        for (pattern, class) in DIRECT_PATTERNS {
            if squeezed.contains(pattern) && !exempt(i + 1) {
                sites.push(DeterminismSite {
                    file: file_label.to_string(),
                    line: i + 1,
                    class,
                    what: (*pattern).to_string(),
                    allowed: allowed(class),
                });
            }
        }
    }
    let toks = tokenize(&stripped);
    let hashes = hash_idents(&toks);
    let is_hash = |t: &str| hashes.iter().any(|h| h == t);
    for i in 0..toks.len() {
        let (tok, line) = (&toks[i].0, toks[i].1);
        if exempt(line) {
            continue;
        }
        // `map.iter()` and friends: an order-revealing method on a
        // known hash container.
        if tok == "."
            && i >= 1
            && is_hash(&toks[i - 1].0)
            && toks
                .get(i + 1)
                .is_some_and(|t| ITER_METHODS.contains(&t.0.as_str()))
            && toks.get(i + 2).is_some_and(|t| t.0 == "(")
        {
            sites.push(DeterminismSite {
                file: file_label.to_string(),
                line,
                class: "hash-iteration",
                what: format!("{}.{}()", toks[i - 1].0, toks[i + 1].0),
                allowed: allowed("hash-iteration"),
            });
        }
        // `for x in [&mut] map {`: direct iteration of the container.
        if tok == "in" {
            let mut j = i + 1;
            while toks.get(j).is_some_and(|t| t.0 == "&" || t.0 == "mut") {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| is_hash(&t.0))
                && toks.get(j + 1).is_some_and(|t| t.0 == "{")
            {
                sites.push(DeterminismSite {
                    file: file_label.to_string(),
                    line,
                    class: "hash-iteration",
                    what: format!("for .. in {}", toks[j].0),
                    allowed: allowed("hash-iteration"),
                });
            }
        }
    }
    sites.sort_by_key(|s| s.line);
    sites
}

/// Scan every policed tree under `repo_root`.
pub fn scan_workspace(repo_root: &Path) -> io::Result<Vec<DeterminismSite>> {
    let mut sites = Vec::new();
    for tree in DETERMINISM_ROOTS {
        let root = repo_root.join(tree);
        if !root.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("policed source tree {} not found", root.display()),
            ));
        }
        for (label, source) in walk_rs_files(&root, repo_root)? {
            sites.extend(scan_source(&label, &source));
        }
    }
    Ok(sites)
}

/// Turn scanned sites into rule diagnostics: allowlisted sites surface
/// as Info (live coverage), everything else is an Error.
pub fn diagnostics(sites: &[DeterminismSite]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for site in sites {
        if site.allowed {
            diags.push(Diagnostic {
                rule_id: "workspace-determinism",
                severity: Severity::Info,
                message: format!(
                    "{}:{}: `{}` ({}) at an allowlisted site",
                    site.file, site.line, site.what, site.class
                ),
                quantities: vec![],
            });
        } else {
            diags.push(Diagnostic {
                rule_id: "workspace-determinism",
                severity: Severity::Error,
                message: format!(
                    "{}:{}: `{}` ({}) in result-affecting code — BENCH byte-determinism \
                     forbids ambient reads outside the allowlist (see DESIGN.md §12)",
                    site.file, site.line, site.what, site.class
                ),
                quantities: vec![],
            });
        }
    }
    if !sites.iter().any(|s| s.allowed) {
        diags.push(Diagnostic {
            rule_id: "workspace-determinism",
            severity: Severity::Warning,
            message: "no allowlisted ambient read found — pool/sidecar moved or rule stale?"
                .to_string(),
            quantities: vec![],
        });
    }
    diags
}

/// The determinism report over the repository at `repo_root`.
pub fn determinism_report(repo_root: &Path) -> io::Result<Report> {
    Ok(Report {
        design: "workspace determinism".to_string(),
        diagnostics: diagnostics(&scan_workspace(repo_root)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::repo_root;

    #[test]
    fn wall_clock_and_rng_reads_are_errors() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }";
        let sites = scan_source("crates/sim/src/x.rs", src);
        assert_eq!(sites.len(), 2, "{sites:?}");
        assert!(sites.iter().all(|s| !s.allowed));
        let diags = diagnostics(&sites);
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Error && d.message.contains("wall-clock")));
    }

    #[test]
    fn allowlisted_pool_parallelism_is_info() {
        let src = "fn d() -> usize { std::thread::available_parallelism().map_or(1, f) }";
        let sites = scan_source("crates/bench/src/pool.rs", src);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].allowed);
        // The same read elsewhere is an error.
        let rogue = scan_source("crates/core/src/x.rs", src);
        assert!(!rogue[0].allowed);
    }

    #[test]
    fn hash_iteration_is_flagged_keyed_access_is_not() {
        let src = "struct S { m: HashMap<u64, u32> }\n\
                   fn f(s: &S) { let _ = s.m.get(&1); }\n\
                   fn g(m: &HashMap<u64, u32>) { for kv in m { drop(kv); } }\n\
                   fn h(m: &mut HashMap<u64, u32>) { m.insert(1, 2); let _k = m.keys(); }\n";
        let sites = scan_source("crates/core/src/x.rs", src);
        // Line 3: `for kv in m {`; line 4: `m.keys()` — but not
        // `get`/`insert`. `m.keys()` without call parens is not counted;
        // make it a call:
        assert!(sites
            .iter()
            .any(|s| s.line == 3 && s.class == "hash-iteration"));
        assert!(!sites.iter().any(|s| s.what.contains("get")));
        let called = scan_source(
            "crates/core/src/y.rs",
            "fn f(m: &HashMap<u64,u32>) { for k in m.keys() { drop(k); } }",
        );
        assert_eq!(called.len(), 1, "{called:?}");
        assert_eq!(called[0].what, "m.keys()");
    }

    #[test]
    fn qualified_paths_and_field_decls_bind_hash_idents() {
        let src = "struct R { set_log2: std::collections::HashMap<u64, u32> }\n\
                   fn f(r: &R) { let _ = r.set_log2.iter(); }\n";
        let sites = scan_source("crates/core/src/x.rs", src);
        assert_eq!(sites.len(), 1, "{sites:?}");
        assert_eq!(sites[0].what, "set_log2.iter()");
    }

    #[test]
    fn cfg_test_scopes_and_comments_are_exempt() {
        let src = "// Instant::now is banned\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { let _ = Instant::now(); let m: HashMap<u8,u8> = x(); m.iter(); }\n\
                   }\n";
        assert!(scan_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn missing_allowlisted_site_is_a_warning() {
        let diags = diagnostics(&[]);
        assert!(diags
            .iter()
            .any(|d| d.severity == Severity::Warning && d.message.contains("rule stale")));
    }

    /// The live tree must pass: every ambient read sits on the
    /// allowlist, and the allowlisted sites still exist.
    #[test]
    fn shipped_workspace_is_deterministic() {
        let report = determinism_report(&repo_root()).expect("scan");
        assert!(
            report.is_feasible(),
            "determinism errors:\n{}",
            report.render(true)
        );
        assert!(
            report.count(Severity::Info) > 0,
            "allowlisted sites not seen"
        );
        assert_eq!(report.count(Severity::Warning), 0);
    }
}
