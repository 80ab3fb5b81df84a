//! Knob census: run settings are arguments, not environment. `repro`
//! builds one `RunConfig` from its flags (README's flag table) and hands
//! it to every experiment, so no product source reads the process
//! environment, the tests read only their re-bless switch, and the
//! default worker count is resolved only where a program starts.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The calls that read the environment.
const READERS: [&str; 4] = ["env::var(", "env::var_os(", "env::vars(", "env::vars_os("];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

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

/// Every `.rs` file under `crates/*/<sub>`.
fn crate_files(sub: &str) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for krate in fs::read_dir(repo_root().join("crates")).expect("crates/") {
        let dir = krate.expect("directory entry").path().join(sub);
        if dir.is_dir() {
            rust_files(&dir, &mut files);
        }
    }
    files
}

/// `path`'s lines that are not `//` comments, numbered from 1.
fn code_lines(path: &Path) -> Vec<(usize, String)> {
    let text = fs::read_to_string(path).expect("readable source file");
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim_start().starts_with("//"))
        .map(|(n, l)| (n + 1, l.to_string()))
        .collect()
}

/// `file:line` of every code line in `files` that contains one of `needles`.
fn sites(files: &[PathBuf], needles: &[&str]) -> Vec<String> {
    let mut found = Vec::new();
    for file in files {
        for (n, line) in code_lines(file) {
            if needles.iter().any(|needle| line.contains(needle)) {
                found.push(format!("{}:{n}", file.display()));
            }
        }
    }
    found
}

/// The product takes no setting from the process environment: nothing
/// under `crates/*/src` reads it or sets it. The vendored proptest shim
/// is a dev-dependency that only tests link; its `PROPTEST_CASES` is a
/// test setting.
#[test]
fn no_crate_source_reads_the_environment() {
    let files: Vec<PathBuf> = crate_files("src")
        .into_iter()
        .filter(|f| !f.components().any(|c| c.as_os_str() == "proptest-shim"))
        .collect();
    let mut needles = READERS.to_vec();
    needles.extend(["env::set_var(", "env::remove_var(", "LONGLOOK_"]);
    let found = sites(&files, &needles);
    assert!(
        found.is_empty(),
        "product code reads or sets the environment; take the setting as an \
         argument instead: {found:?}"
    );
}

/// The tests name one `LONGLOOK_*` variable: the golden suites' re-bless
/// switch.
#[test]
fn tests_read_only_the_bless_switch() {
    let mut files = crate_files("tests");
    rust_files(&repo_root().join("tests"), &mut files);
    rust_files(&repo_root().join("examples"), &mut files);
    let mut names = BTreeSet::new();
    for file in files.iter().filter(|f| !f.ends_with("knob_census.rs")) {
        for (_, line) in code_lines(file) {
            for (at, _) in line.match_indices("LONGLOOK_") {
                let name: String = line[at..]
                    .chars()
                    .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                    .collect();
                names.insert(name);
            }
        }
    }
    assert_eq!(names, BTreeSet::from(["LONGLOOK_BLESS".to_string()]));
}

/// `Parallelism::auto()` (one worker per hardware thread) is a default
/// for programs, not for the library: every library runner and every
/// experiment takes its `Parallelism` from the caller. So under
/// `crates/*/src` only the binaries call it; tests and examples may.
#[test]
fn only_the_harness_resolves_parallelism_from_the_environment() {
    let bins = repo_root().join("crates/bench/src/bin");
    let files: Vec<PathBuf> = crate_files("src")
        .into_iter()
        .filter(|f| !f.starts_with(&bins))
        .collect();
    let callers = sites(&files, &["Parallelism::auto"]);
    assert!(
        callers.is_empty(),
        "library code resolves Parallelism::auto() itself instead of taking \
         `par` from its caller: {callers:?}"
    );
}
