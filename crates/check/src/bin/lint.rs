//! `lint` — softfloat-purity scan of the datapath crates.
//!
//! With no arguments, scans the workspace's datapath paths (resolved
//! relative to this crate's manifest). With arguments, scans exactly the
//! given files/directories instead, as one program — used by the tests
//! and CI to point the scanner at fixtures. Exit status 0 iff no native
//! f64 arithmetic is found.

use std::path::Path;

use fblas_check::lint::{scan_sources, scan_tree, LintHit};
use fblas_check::source::{repo_root, walk_rs_files};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.is_empty() {
        scan_tree(&repo_root())
    } else {
        scan_paths(&args)
    };
    match result {
        Ok(hits) => {
            for hit in &hits {
                println!("{hit}");
            }
            if hits.is_empty() {
                println!("lint: datapath is softfloat-pure");
            } else {
                println!("lint: {} native f64 arithmetic site(s)", hits.len());
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("lint: {e}");
            std::process::exit(2);
        }
    }
}

/// Scan the arguments as one program; a directory is walked in sorted
/// order and its files are labelled with the `/`-joined path as given.
fn scan_paths(args: &[String]) -> std::io::Result<Vec<LintHit>> {
    let mut files = Vec::new();
    for arg in args {
        let path = Path::new(arg);
        if path.is_dir() {
            files.extend(walk_rs_files(path, Path::new(""))?);
        } else {
            files.push((arg.clone(), std::fs::read_to_string(path)?));
        }
    }
    Ok(scan_sources(&files))
}
