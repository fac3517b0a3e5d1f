//! Softfloat-purity lint: no native `f64` arithmetic in the datapath.
//!
//! The repository's central correctness claim is that every floating-point
//! value flowing through a simulated architecture is produced by the
//! bit-accurate [`fblas_fpu::softfloat`] routines — `sf_add`, `sf_mul` and
//! friends — never by the host's native `+ - * /`. Reference oracles
//! (`ref_*`, `*_naive`) and performance *accounting* (bytes/s, words per
//! cycle, GFLOPS, fractions of peak) legitimately use native arithmetic;
//! everything else in the datapath crates must not.
//!
//! This module is a dependency-free token-level scanner. It is not a type
//! checker: it strips comments, strings and `#[cfg(test)]` items, then
//! flags the binary operators `+ - * / += -= *= /=` whenever either
//! operand shows evidence of being an `f64` — a float literal, an
//! identifier declared `: f64` in the same file, a call of a function
//! declared `-> f64` in *any* scanned file (so `m.at(i, j) * x` fires
//! although `DenseMatrix::at` lives in another module), or an `as f64`
//! cast. Escapes, in decreasing order of preference:
//!
//! 1. route the value through `fblas_fpu` (the point of the lint);
//! 2. name the function so it is recognisably an oracle (`ref_*`,
//!    `reference_*`, `*_naive`) or accounting (see
//!    [`ACCOUNTING_NAME_PATTERNS`]);
//! 3. an explicit `// lint: allow(native-f64)` on the offending line or
//!    the line above it.

use std::collections::BTreeSet;
use std::io;
use std::path::Path;

use crate::source::{file_label, strip, walk_rs_files};

/// One native-float-arithmetic finding.
#[derive(Debug, Clone, PartialEq)]
pub struct LintHit {
    /// File the hit is in (as the path was given to the scanner).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Which operator fired and what made its operand float-typed.
    pub reason: String,
}

impl std::fmt::Display for LintHit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}\n    {}",
            self.file, self.line, self.reason, self.snippet
        )
    }
}

/// The paths (relative to the repository root) the lint polices. The
/// `sim` crate hosts the timing machinery (token buckets, delay lines)
/// and the software *baselines* in `sw` are oracles by definition — but
/// `sw`'s blocked microkernel is the native backend's value engine and
/// must route every FLOP through softfloat just like the datapath, so
/// it is policed too.
pub const DATAPATH_PATHS: &[&str] = &[
    "crates/core/src",
    "crates/fpu/src/pipelined.rs",
    "crates/mem/src",
    "crates/sw/src/microkernel.rs",
    "crates/fabric/src",
];

/// Function-name fragments that mark a function as performance
/// *accounting* rather than datapath: rates, clocks, capacities and
/// efficiency metrics are host-side arithmetic about the hardware, not
/// values inside it.
pub const ACCOUNTING_NAME_PATTERNS: &[&str] = &[
    "bytes_per_s",
    "per_cycle",
    "per_fpga",
    "gflops",
    "flops",
    "fraction",
    "bandwidth",
    "occupancy",
    "mhz",
    "hz",
    "peak",
    "rate",
    "utilization",
    "efficiency",
    "cycles",
    "latency",
    "speedup",
    "seconds",
];

/// Assertion macros: their bodies compute predicates about the design
/// (feasibility checks, invariants), never datapath values — arithmetic
/// inside them is verification, not value flow.
const ASSERT_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "panic",
    "unreachable",
];

/// Marker comment that silences the lint for one line (or the next).
const ALLOW_MARKER: &str = "lint: allow(native-f64)";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ident,
    Int,
    Float,
    Punct,
}

#[derive(Debug, Clone)]
struct Tok {
    text: String,
    line: usize,
    kind: Kind,
}

fn tokenize(stripped: &str) -> Vec<Tok> {
    let chars: Vec<char> = stripped.chars().collect();
    let mut toks = Vec::new();
    let mut line = 1;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            toks.push(Tok {
                text: chars[start..i].iter().collect(),
                line,
                kind: Kind::Ident,
            });
        } else if c.is_ascii_digit() {
            let (tok, end) = lex_number(&chars, i, line);
            toks.push(tok);
            i = end;
        } else {
            // Multi-character operators that must not be mistaken for
            // arithmetic (or that the arithmetic check needs whole).
            let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
            let op = match two.as_str() {
                "->" | "=>" | "::" | "==" | "!=" | "<=" | ">=" | "&&" | "||" | ".." | "<<"
                | ">>" | "+=" | "-=" | "*=" | "/=" | "%=" => {
                    i += 2;
                    two
                }
                _ => {
                    i += 1;
                    c.to_string()
                }
            };
            toks.push(Tok {
                text: op,
                line,
                kind: Kind::Punct,
            });
        }
    }
    toks
}

fn lex_number(chars: &[char], start: usize, line: usize) -> (Tok, usize) {
    let mut i = start;
    let mut is_float = false;
    if chars[i] == '0' && matches!(chars.get(i + 1), Some('x' | 'o' | 'b')) {
        i += 2;
        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
    } else {
        while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
            i += 1;
        }
        if i < chars.len() && chars[i] == '.' && chars.get(i + 1) != Some(&'.') {
            // `1.0` is a float; `0..n` is a range.
            is_float = true;
            i += 1;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                i += 1;
            }
        }
        if i < chars.len() && (chars[i] == 'e' || chars[i] == 'E') {
            let mut j = i + 1;
            if matches!(chars.get(j), Some('+' | '-')) {
                j += 1;
            }
            if chars.get(j).is_some_and(char::is_ascii_digit) {
                is_float = true;
                i = j;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '_') {
                    i += 1;
                }
            }
        }
        // Type suffix decides when present: 1f64 is a float, 1u64 is not.
        let suffix_start = i;
        while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
            i += 1;
        }
        let suffix: String = chars[suffix_start..i].iter().collect();
        if suffix.starts_with("f32") || suffix.starts_with("f64") {
            is_float = true;
        } else if !suffix.is_empty() {
            is_float = false;
        }
    }
    (
        Tok {
            text: chars[start..i].iter().collect(),
            line,
            kind: if is_float { Kind::Float } else { Kind::Int },
        },
        i,
    )
}

/// Does this function name mark an allowlisted oracle or accounting fn?
fn allowlisted_fn(name: &str) -> bool {
    name.starts_with("ref_")
        || name.starts_with("reference_")
        || name.contains("naive")
        || ACCOUNTING_NAME_PATTERNS.iter().any(|p| name.contains(p))
}

/// Indices of tokens inside skipped regions: `#[cfg(test)]` items and the
/// bodies of allowlisted functions.
fn skipped_mask(toks: &[Tok]) -> Vec<bool> {
    let mut skip = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && matches(toks, i + 1, &["[", "cfg", "(", "test", ")", "]"]) {
            let item_start = i;
            i += 7;
            // Skip any further attributes, then the item itself.
            while i < toks.len() && toks[i].text == "#" {
                i = skip_balanced(toks, i + 1, "[", "]");
            }
            i = skip_item(toks, i);
            for s in skip.iter_mut().take(i).skip(item_start) {
                *s = true;
            }
        } else if toks[i].text == "fn"
            && toks
                .get(i + 1)
                .is_some_and(|t| t.kind == Kind::Ident && allowlisted_fn(&t.text))
        {
            let item_start = i;
            i = skip_item(toks, i);
            for s in skip.iter_mut().take(i).skip(item_start) {
                *s = true;
            }
        } else if toks[i].kind == Kind::Ident
            && ASSERT_MACROS.contains(&toks[i].text.as_str())
            && toks.get(i + 1).is_some_and(|t| t.text == "!")
        {
            let item_start = i;
            i = skip_balanced(toks, i + 2, "(", ")");
            for s in skip.iter_mut().take(i).skip(item_start) {
                *s = true;
            }
        } else {
            i += 1;
        }
    }
    skip
}

fn matches(toks: &[Tok], at: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(j, p)| toks.get(at + j).is_some_and(|t| t.text == *p))
}

/// Skip past one balanced `open … close` group starting at or after `i`.
fn skip_balanced(toks: &[Tok], mut i: usize, open: &str, close: &str) -> usize {
    while i < toks.len() && toks[i].text != open {
        i += 1;
    }
    let mut depth = 0;
    while i < toks.len() {
        if toks[i].text == open {
            depth += 1;
        } else if toks[i].text == close {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Skip one item (to its closing brace, or to `;` for brace-less items).
fn skip_item(toks: &[Tok], mut i: usize) -> usize {
    while i < toks.len() {
        match toks[i].text.as_str() {
            "{" => return skip_balanced(toks, i, "{", "}"),
            ";" => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Names of functions declared `fn name ( … ) -> f64` (or `f32`).
fn float_fns(toks: &[Tok]) -> impl Iterator<Item = String> + '_ {
    (0..toks.len()).filter_map(|w| {
        if toks[w].text != "fn" || !toks.get(w + 1).is_some_and(|t| t.kind == Kind::Ident) {
            return None;
        }
        let sig_end = skip_balanced(toks, w + 2, "(", ")");
        let returns_float = toks.get(sig_end).is_some_and(|t| t.text == "->")
            && toks
                .get(sig_end + 1)
                .is_some_and(|t| t.text == "f64" || t.text == "f32");
        returns_float.then(|| toks[w + 1].text.clone())
    })
}

/// Identifiers with local evidence of `f64` type: `name: f64` bindings,
/// parameters and fields. `float_fns` seeds the set.
fn collect_floaty_idents(toks: &[Tok], float_fns: &BTreeSet<String>) -> BTreeSet<String> {
    let mut floaty = float_fns.clone();
    for w in 0..toks.len() {
        // `ident : [& mut] f64`
        if toks[w].kind == Kind::Ident && toks.get(w + 1).is_some_and(|t| t.text == ":") {
            let mut j = w + 2;
            while toks
                .get(j)
                .is_some_and(|t| t.text == "&" || t.text == "mut")
            {
                j += 1;
            }
            if toks
                .get(j)
                .is_some_and(|t| t.text == "f64" || t.text == "f32")
            {
                floaty.insert(toks[w].text.clone());
            }
        }
    }
    floaty
}

/// Why an operand looks float-typed, or `None` if it does not.
fn float_evidence(
    toks: &[Tok],
    idx: usize,
    floaty: &BTreeSet<String>,
    backwards: bool,
) -> Option<String> {
    let t = toks.get(idx)?;
    match t.kind {
        Kind::Float => Some(format!("float literal `{}`", t.text)),
        Kind::Ident if floaty.contains(&t.text) => Some(format!("`{}` is declared f64", t.text)),
        Kind::Punct if backwards && t.text == ")" => {
            // Walk back over the group: an `as f64` cast ends just inside,
            // and a call of an `-> f64` function names it just outside.
            let open = matching_open(toks, idx)?;
            if toks
                .get(idx.checked_sub(1)?)
                .is_some_and(|t| t.text == "f64")
            {
                return Some("`as f64` cast".to_string());
            }
            let callee = toks.get(open.checked_sub(1)?)?;
            if callee.kind == Kind::Ident && floaty.contains(&callee.text) {
                return Some(format!("call of `{}` returning f64", callee.text));
            }
            None
        }
        _ => None,
    }
}

fn matching_open(toks: &[Tok], close: usize) -> Option<usize> {
    let mut depth = 0;
    for i in (0..=close).rev() {
        match toks[i].text.as_str() {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Could the token end an expression (making a following `-`/`*` binary)?
fn ends_expression(t: &Tok) -> bool {
    matches!(t.kind, Kind::Ident | Kind::Int | Kind::Float) || t.text == ")" || t.text == "]"
}

/// Scan one source file for native f64 arithmetic. `file_label` is used
/// in the returned hits; `source` is the file contents.
pub fn scan_source(file_label: &str, source: &str) -> Vec<LintHit> {
    scan_sources(&[(file_label.to_string(), source.to_string())])
}

/// Scan `(label, source)` files as one program: every `-> f64` function
/// declared in any of them is float evidence in all of them.
pub fn scan_sources(files: &[(String, String)]) -> Vec<LintHit> {
    let toks: Vec<Vec<Tok>> = files
        .iter()
        .map(|(_, source)| tokenize(&strip(source)))
        .collect();
    let float_fns: BTreeSet<String> = toks.iter().flat_map(|t| float_fns(t)).collect();
    files
        .iter()
        .zip(&toks)
        .flat_map(|((label, source), toks)| scan_tokens(label, source, toks, &float_fns))
        .collect()
}

/// The hits in one tokenized file, given the program's `-> f64` names.
fn scan_tokens(
    file_label: &str,
    source: &str,
    toks: &[Tok],
    float_fns: &BTreeSet<String>,
) -> Vec<LintHit> {
    let raw_lines: Vec<&str> = source.lines().collect();
    let allowed_line = |line: usize| -> bool {
        // 1-based; the marker counts on the line itself or the one above.
        [line, line.saturating_sub(1)].iter().any(|&l| {
            l >= 1
                && raw_lines
                    .get(l - 1)
                    .is_some_and(|s| s.contains(ALLOW_MARKER))
        })
    };

    let skip = skipped_mask(toks);
    let floaty = collect_floaty_idents(toks, float_fns);

    let mut hits = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if skip[i] || t.kind != Kind::Punct {
            continue;
        }
        let op = t.text.as_str();
        let compound = matches!(op, "+=" | "-=" | "*=" | "/=");
        let simple = matches!(op, "+" | "-" | "*" | "/");
        if !compound && !simple {
            continue;
        }
        // `+ - *` can be unary/deref: require a completed expression on
        // the left for the simple forms.
        if simple
            && !i
                .checked_sub(1)
                .and_then(|p| toks.get(p))
                .is_some_and(ends_expression)
        {
            continue;
        }
        let evidence = i
            .checked_sub(1)
            .and_then(|p| float_evidence(toks, p, &floaty, true))
            .or_else(|| float_evidence(toks, i + 1, &floaty, false));
        let Some(evidence) = evidence else { continue };
        if allowed_line(t.line) {
            continue;
        }
        hits.push(LintHit {
            file: file_label.to_string(),
            line: t.line,
            snippet: raw_lines
                .get(t.line - 1)
                .map_or_else(String::new, |s| s.trim().to_string()),
            reason: format!("native `{op}` on f64 ({evidence}) — use fblas_fpu::softfloat"),
        });
    }
    hits
}

/// Scan every `.rs` file under the [`DATAPATH_PATHS`] of `repo_root`,
/// as one program (see [`scan_sources`]).
pub fn scan_tree(repo_root: &Path) -> io::Result<Vec<LintHit>> {
    let mut files = Vec::new();
    for rel in DATAPATH_PATHS {
        let path = repo_root.join(rel);
        if path.is_file() {
            let source = std::fs::read_to_string(&path)?;
            files.push((file_label(&path, repo_root), source));
        } else if path.is_dir() {
            files.extend(walk_rs_files(&path, repo_root)?);
        } else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("datapath path {} not found", path.display()),
            ));
        }
    }
    Ok(scan_sources(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_native_f64_arithmetic() {
        let src = "fn datapath(a: f64, b: f64) -> f64 { a * b }";
        let hits = scan_source("x.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].reason.contains('*'), "{}", hits[0].reason);
    }

    #[test]
    fn flags_float_literals_and_compound_assign() {
        let hits = scan_source("x.rs", "fn f(mut acc: f64) { acc += 1.5; }");
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn ignores_integer_arithmetic() {
        let src = "fn f(n: usize, k: usize) -> usize { n * n / k + 1 }";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn ignores_reference_oracles_and_accounting() {
        let src = "fn ref_dot(u: &[f64], v: &[f64]) -> f64 {\n\
                   u.iter().zip(v).map(|(a, b)| a * b).sum()\n}\n\
                   fn bytes_per_s(w: f64, hz: f64) -> f64 { w * 8.0 * hz }";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn ignores_cfg_test_blocks() {
        let src = "#[cfg(test)]\nmod tests {\n fn t(a: f64) -> f64 { a + 1.0 } }";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn allow_marker_silences_the_line() {
        let src = "fn f(a: f64) -> f64 {\n // lint: allow(native-f64)\n a + 1.0\n}";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let src = "fn f() { let _ = \"a * 1.0\"; } // a + 2.0\n/// a / 3.0\nfn g() {}";
        assert!(scan_source("x.rs", src).is_empty());
    }

    #[test]
    fn as_f64_cast_feeding_arithmetic_fires() {
        let hits = scan_source("x.rs", "fn f(n: usize, x: f64) { let _ = (n as f64) * x; }");
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].reason.contains("cast") || hits[0].reason.contains("f64"));
    }

    #[test]
    fn ranges_are_not_floats() {
        assert!(scan_source("x.rs", "fn f() { for _ in 0..10 {} }").is_empty());
    }

    #[test]
    fn f64_accessor_declared_in_another_file_fires() {
        // The accessor is declared in one file and multiplied in another:
        // each file alone shows no float evidence at the `*`.
        let matrix = "pub struct M { d: Vec<f64> }\n\
                      impl M { pub fn at(&self, i: usize) -> f64 { self.d[i] } }";
        let kernel = "fn k(a: &M, b: &M, i: usize) {\n let _ = a.at(i) * b.at(i);\n}";
        assert!(scan_source("kernel.rs", kernel).is_empty());
        let files = [
            ("matrix.rs".to_string(), matrix.to_string()),
            ("kernel.rs".to_string(), kernel.to_string()),
        ];
        let hits = scan_sources(&files);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].file.as_str(), hits[0].line), ("kernel.rs", 2));
        assert!(
            hits[0].reason.contains("call of `at`"),
            "{}",
            hits[0].reason
        );
    }

    #[test]
    fn cross_file_fixture_trips_on_its_kernel_line() {
        // The directory CI points the lint binary at; it must fail.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let files = walk_rs_files(&root.join("tests/lint-trips"), root).expect("fixture");
        let hits = scan_sources(&files);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 10);
        assert!(
            hits[0].file.ends_with("lint-trips/kernel.rs"),
            "{}",
            hits[0].file
        );
    }

    #[test]
    fn unary_minus_alone_does_not_fire() {
        // Unary minus is sign introduction, not an arithmetic op.
        assert!(scan_source("x.rs", "fn f(x: f64) { let _ = [-1.0, x]; }").is_empty());
    }
}
