//! Shared source-scanning utilities for the token-level rules.
//!
//! Every source-level rule in this crate — softfloat purity
//! ([`crate::lint`]), fast-path parity coverage ([`crate::fastpath`]) and
//! the telemetry metric registry ([`crate::telemetry`]) — needs the same
//! two primitives:
//!
//! * [`strip`] — replace comments, strings and char literals with spaces
//!   while preserving line structure, so rules never fire on prose and
//!   reported line numbers stay correct;
//! * [`walk_rs_files`] — deterministically (sorted) walk a source tree
//!   and yield each `.rs` file as a repo-root-relative label plus its
//!   contents, so every rule labels findings identically.
//!
//! Both live here once, so a fix to (say) raw-string handling reaches
//! every rule at once. Rules a compiler can check (determinism, thread
//! containment, fault-hook purity) are not scanned at all: they are
//! `disallowed-types`/`disallowed-methods` entries in `clippy.toml`.

use std::fs;
use std::io;
use std::path::{Component, Path, PathBuf};

/// Replace comments, strings and char literals with spaces, preserving
/// line structure so token line numbers stay correct. Handles nested
/// block comments, raw strings (`r"…"`, `r#"…"#`), escapes, and the
/// char-literal/lifetime ambiguity.
pub fn strip(source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 1;
            out.push_str("  ");
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if chars[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        } else if c == 'r' && (next == Some('"') || next == Some('#')) && is_raw_string(&chars, i) {
            i = skip_raw_string(&chars, i, &mut out);
        } else if c == '"' {
            out.push(' ');
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                if chars[i] == '\\' {
                    out.push(' ');
                    i += 1;
                }
                if i < chars.len() {
                    out.push(if chars[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            out.push(' ');
            i += 1;
        } else if c == '\'' {
            // Char literal vs lifetime: a literal closes within a few
            // characters; a lifetime is ' followed by an identifier.
            if let Some(end) = char_literal_end(&chars, i) {
                for _ in i..=end {
                    out.push(' ');
                }
                i = end + 1;
            } else {
                out.push(c);
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

fn is_raw_string(chars: &[char], i: usize) -> bool {
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn skip_raw_string(chars: &[char], start: usize, out: &mut String) -> usize {
    let mut i = start + 1;
    let mut hashes = 0;
    out.push(' ');
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        out.push(' ');
        i += 1;
    }
    out.push(' ');
    i += 1; // the opening quote
    while i < chars.len() {
        if chars[i] == '"' {
            let mut ok = true;
            for h in 0..hashes {
                if chars.get(i + 1 + h) != Some(&'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                for _ in 0..=hashes {
                    out.push(' ');
                }
                return i + 1 + hashes;
            }
        }
        out.push(if chars[i] == '\n' { '\n' } else { ' ' });
        i += 1;
    }
    i
}

fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    // 'x'  '\n'  '\u{1F600}' — scan to a closing quote within bounds.
    let mut j = i + 1;
    if chars.get(j) == Some(&'\\') {
        j += 1;
        if chars.get(j) == Some(&'u') {
            while j < chars.len() && chars[j] != '}' {
                j += 1;
            }
        }
        j += 1;
    } else {
        j += 1;
    }
    (chars.get(j) == Some(&'\'')).then_some(j)
}

/// Repo-root-relative label for a path, with `/` separators on every
/// platform (the form all rule allowlists are written in). A path that
/// stays absolute keeps its leading `/`.
pub fn file_label(path: &Path, repo_root: &Path) -> String {
    path.strip_prefix(repo_root)
        .unwrap_or(path)
        .components()
        .map(|c| match c {
            Component::RootDir => "".into(),
            _ => c.as_os_str().to_string_lossy(),
        })
        .collect::<Vec<_>>()
        .join("/")
}

/// Recursively collect every `.rs` file under `root` in sorted order as
/// `(repo-root-relative label, contents)` pairs. Sorted traversal keeps
/// every rule's finding order deterministic across platforms.
pub fn walk_rs_files(root: &Path, repo_root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    walk(root, repo_root, &mut files)?;
    Ok(files)
}

fn walk(dir: &Path, repo_root: &Path, files: &mut Vec<(String, String)>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, repo_root, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let label = file_label(&path, repo_root);
            let source = fs::read_to_string(&path)?;
            files.push((label, source));
        }
    }
    Ok(())
}

/// Repo root as seen from this crate's build-time manifest location.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/check has a workspace root two levels up")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_preserves_line_count() {
        let src = "fn a() {}\n/* multi\nline */\nlet s = \"x\ny\";\n";
        assert_eq!(strip(src).lines().count(), src.lines().count());
    }

    #[test]
    fn strip_blanks_comments_strings_chars() {
        let s = strip("let c = 'x'; // note\nlet s = \"str\"; /* b */");
        assert!(!s.contains("note"));
        assert!(!s.contains("str"));
        assert!(!s.contains('x'));
        assert!(s.contains("let c ="));
    }

    #[test]
    fn strip_handles_raw_strings_and_lifetimes() {
        let s = strip("fn f<'a>(x: &'a str) { let r = r#\"raw \" body\"#; }");
        assert!(s.contains("'a"), "lifetimes survive: {s}");
        assert!(!s.contains("raw"), "raw string blanked: {s}");
    }

    #[test]
    fn labels_outside_the_root_keep_the_path_as_given() {
        let empty = Path::new("");
        assert_eq!(file_label(Path::new("/a/b.rs"), empty), "/a/b.rs");
        assert_eq!(file_label(Path::new("./a/b.rs"), empty), "./a/b.rs");
        assert_eq!(
            file_label(Path::new("/r/a/b.rs"), Path::new("/r")),
            "a/b.rs"
        );
    }

    #[test]
    fn walk_is_sorted_and_labelled() {
        let root = repo_root();
        let files = walk_rs_files(&root.join("crates/check/src"), &root).expect("walk");
        assert!(files.iter().any(|(l, _)| l == "crates/check/src/lib.rs"));
        let labels: Vec<&String> = files.iter().map(|(l, _)| l).collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(labels, sorted, "deterministic traversal order");
    }
}
