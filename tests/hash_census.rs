//! Hash-collection census: nothing a world runs iterates a hash map.
//! `std`'s hash maps seed their keys per process and per thread, so a
//! `HashMap` walked in a host or a transport would make a run depend on
//! which thread ran it. The simulation crates keep ordered collections
//! only; this test holds them to it (test modules may hash freely).

use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose code runs inside a world or reduces its results.
const CRATES: [&str; 7] = ["sim", "http", "proxy", "quic", "tcp", "transport", "core"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(line number, line)` of `text` up to its test module, skipping `//`
/// comment lines. A `#[cfg(test)]` on a single item (a test-only helper
/// method) does not end the non-test code; one on a `mod` does.
fn non_test_lines(text: &str) -> Vec<(usize, &str)> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (n, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        let next = lines.get(n + 1).map_or("", |l| l.trim_start());
        if trimmed.starts_with("#[cfg(test)]") && next.starts_with("mod ") {
            break;
        }
        if !trimmed.starts_with("//") {
            out.push((n + 1, *line));
        }
    }
    out
}

#[test]
fn simulation_crates_name_no_hash_collections() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for krate in CRATES {
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
    }
    assert!(files.len() > CRATES.len(), "crate sources not found");
    let mut found = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source file");
        for (n, line) in non_test_lines(&text) {
            if line.contains("HashMap") || line.contains("HashSet") {
                let name = file.strip_prefix(&root).unwrap_or(file);
                found.push(format!("{}:{n}: {}", name.display(), line.trim()));
            }
        }
    }
    assert!(
        found.is_empty(),
        "non-test simulation code names a hash collection; use a BTreeMap \
         or BTreeSet so iteration order is the key order:\n{}",
        found.join("\n")
    );
}
