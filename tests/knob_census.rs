//! Knob census: the `LONGLOOK_*` environment variables the code reads are
//! exactly the rows of README's environment table, plus the two
//! test-only names below. "Fewer knobs" is an executable fact, and the
//! README cannot drift from the code: adding an env read without a README
//! row (or leaving a row behind after deleting the read) fails here.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Read by tests only, so deliberately absent from the README table:
/// the golden suites' re-bless switch and the knob parser's own unit test.
const TEST_ONLY: [&str; 2] = ["LONGLOOK_BLESS", "LONGLOOK_TEST_KNOB"];

/// The calls that read the environment.
const READERS: [&str; 3] = ["env::var(", "env::var_os(", "env_knob("];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_files(dir: &Path, recurse: bool, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if recurse {
                rust_files(&path, true, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The value of `const NAME: … = "…";` in `src`, if declared there.
fn const_str<'a>(src: &'a str, name: &str) -> Option<&'a str> {
    let decl = src.find(&format!("const {name}:"))?;
    let rest = &src[decl..src[decl..].find(';')? + decl];
    let open = rest.find('"')? + 1;
    Some(&rest[open..open + rest[open..].find('"')?])
}

/// Every name a reader call in `path` is handed: a string literal, or a
/// SCREAMING_CASE constant resolved in the same file. A lower-case first
/// argument is a parameter being passed through (the parser's own body)
/// and names no knob.
fn knobs_read_in(path: &Path, found: &mut BTreeSet<String>) {
    let text = fs::read_to_string(path).expect("readable source file");
    let code: String = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .flat_map(|l| [l, "\n"])
        .collect();
    for reader in READERS {
        for (at, _) in code.match_indices(reader) {
            let arg = code[at + reader.len()..].trim_start();
            let arg = &arg[..arg.find([',', ')']).expect("call has an argument list")];
            let name = match arg.strip_prefix('"') {
                Some(lit) => lit.trim_end_matches('"'),
                None => {
                    let ident = arg.rsplit("::").next().expect("rsplit yields one item");
                    if ident.chars().any(|c| c.is_ascii_lowercase()) {
                        continue;
                    }
                    const_str(&code, ident).unwrap_or_else(|| {
                        panic!("{}: cannot resolve `{arg}` to a literal", path.display())
                    })
                }
            };
            if name.starts_with("LONGLOOK_") {
                found.insert(name.to_string());
            }
        }
    }
}

/// The first-column names of README's environment-variable table.
fn readme_rows() -> BTreeSet<String> {
    let readme = fs::read_to_string(repo_root().join("README.md")).expect("README.md");
    readme
        .lines()
        .filter_map(|l| l.strip_prefix("| `LONGLOOK_"))
        .map(|rest| {
            format!(
                "LONGLOOK_{}",
                &rest[..rest.find('`').expect("closing tick")]
            )
        })
        .collect()
}

/// Every `.rs` file under `crates/*/src`, skipping the crates named.
fn crate_sources(skip: &[&str]) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for krate in fs::read_dir(repo_root().join("crates")).expect("crates/") {
        let krate = krate.expect("directory entry").path();
        let src = krate.join("src");
        if src.is_dir() && !skip.iter().any(|s| krate.ends_with(s)) {
            rust_files(&src, true, &mut files);
        }
    }
    files
}

/// `LONGLOOK_JOBS` is a knob of the `repro` harness, not of the library:
/// every library runner takes its `Parallelism` from the caller, so only
/// `crates/bench` resolves the session default.
#[test]
fn only_the_harness_resolves_parallelism_from_the_environment() {
    let mut callers = Vec::new();
    for file in crate_sources(&["bench"]) {
        let text = fs::read_to_string(&file).expect("readable source file");
        for (n, line) in text.lines().enumerate() {
            if !line.trim_start().starts_with("//") && line.contains("Parallelism::auto") {
                callers.push(format!("{}:{}", file.display(), n + 1));
            }
        }
    }
    assert!(
        callers.is_empty(),
        "library code resolves Parallelism::auto() itself instead of taking \
         `par` from its caller: {callers:?}"
    );
}

#[test]
fn env_reads_match_the_readme_table() {
    let root = repo_root();
    let mut files = crate_sources(&[]);
    rust_files(&root.join("tests"), false, &mut files);
    let mut found = BTreeSet::new();
    for file in &files {
        // This file names the test-only knobs without reading them.
        if !file.ends_with("knob_census.rs") {
            knobs_read_in(file, &mut found);
        }
    }

    let mut expected = readme_rows();
    assert!(!expected.is_empty(), "README environment table not found");
    expected.extend(TEST_ONLY.map(String::from));
    assert_eq!(
        found, expected,
        "LONGLOOK_* variables read by the code (left) must equal README's \
         table plus the test-only names (right)"
    );
}
