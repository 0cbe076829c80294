//! Enforces the zero-unwrap policy on the non-test code of the nine crates
//! that sit on the request path: they must surface typed errors
//! (`PrivacyError`, `ShufflerError`, `EncodingError`, `ExperimentError`,
//! `CoreError`, `SimError`, `LinalgError`, `BanditError`, `DatasetError`),
//! never panic. Test modules (everything at and below a file's first
//! `#[cfg(test)]` in column 0, the rule `scripts/nontest_lines.sh` counts
//! by) and comment/doc lines — doc-comment examples included — are exempt.
//! An indented `#[cfg(test)]` gates one field, statement or method and
//! does not end the scan: the code below it is scanned.
//!
//! The scan reads each `src/` directory flat, without descending. That
//! misses nothing: the only library `src/` subdirectories in the workspace,
//! `encoding/src/kmeans/` and `bandit/src/linucb/`, hold modules their
//! parent declares below its `#[cfg(test)]` line, compiled only in tests
//! (`bench/src/bin/` holds binaries of an ungated crate).

use std::fs;
use std::path::{Path, PathBuf};

/// The gated crates, by directory under `crates/`.
const GATED_CRATES: [&str; 9] = [
    "privacy",
    "shuffler",
    "encoding",
    "experiments",
    "core",
    "sim",
    "linalg",
    "bandit",
    "datasets",
];

/// Panic-path constructs forbidden outside test code. `.unwrap_or*` /
/// `.ok_or*` combinators are fine (they are the non-panicking
/// alternatives); the scan matches the exact panicking spellings.
const FORBIDDEN: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// Whether `line` opens a file's test module: a `#[cfg(test)]` in column
/// 0.
fn opens_test_module(line: &str) -> bool {
    line.starts_with("#[cfg(test)]")
}

fn non_test_violations(source: &str) -> Vec<(usize, String)> {
    let mut violations = Vec::new();
    for (number, line) in source.lines().enumerate() {
        if opens_test_module(line) {
            break;
        }
        if line.trim_start().starts_with("//") {
            continue;
        }
        if FORBIDDEN.iter().any(|needle| line.contains(needle)) {
            violations.push((number + 1, line.to_owned()));
        }
    }
    violations
}

/// The `.rs` files directly under `dir`, sorted.
fn sources(dir: &Path) -> Vec<PathBuf> {
    let mut sources: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read src dir")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .collect();
    sources.sort();
    sources
}

#[test]
fn no_unwrap_or_expect_in_non_test_source() {
    let crates = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut report = String::new();
    for name in GATED_CRATES {
        let src = crates.join(name).join("src");
        let sources = sources(&src);
        assert!(
            !sources.is_empty(),
            "no sources found under {}",
            src.display()
        );
        for path in sources {
            let source = fs::read_to_string(&path).expect("read source file");
            for (line, text) in non_test_violations(&source) {
                report.push_str(&format!("{}:{line}: {}\n", path.display(), text.trim()));
            }
        }
    }
    assert!(
        report.is_empty(),
        "panic-path constructs in non-test code (convert to typed error \
         returns):\n{report}"
    );
}

/// Pins the flat-scan assumption of the file header: every module file in
/// a `src/<parent>/` subdirectory of a gated crate is declared by
/// `src/<parent>.rs` below that file's first column-0 `#[cfg(test)]`.
#[test]
fn flat_scan_misses_no_compiled_module() {
    let crates = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut report = String::new();
    for name in GATED_CRATES {
        let src = crates.join(name).join("src");
        for entry in fs::read_dir(&src).expect("read src dir") {
            let dir = entry.expect("read src entry").path();
            if !dir.is_dir() {
                continue;
            }
            let parent = dir.with_extension("rs");
            let parent_source = fs::read_to_string(&parent).expect("read parent module");
            let gate = parent_source
                .lines()
                .position(opens_test_module)
                .unwrap_or(usize::MAX);
            let lines: Vec<&str> = parent_source.lines().map(str::trim).collect();
            for child in sources(&dir) {
                let stem = child.file_stem().and_then(|s| s.to_str()).expect("stem");
                let declaration = format!("mod {stem};");
                let declared_at = lines.iter().position(|line| line.ends_with(&declaration));
                if !declared_at.is_some_and(|at| at > gate) {
                    report.push_str(&format!(
                        "{} is not declared below the test module of {}\n",
                        child.display(),
                        parent.display()
                    ));
                }
            }
        }
    }
    assert!(
        report.is_empty(),
        "the flat scan would skip compiled code:\n{report}"
    );
}

#[test]
fn scanner_catches_the_constructs_it_claims_to() {
    let sample = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }";
    let violations = non_test_violations(sample);
    assert_eq!(violations.len(), 1, "test module is exempt, body is not");
    assert_eq!(violations[0].0, 1);
    // Comment and doc lines are exempt; `unwrap_or` is not a violation.
    assert!(non_test_violations("// x.unwrap()\n/// y.expect(\"\")").is_empty());
    assert!(non_test_violations("let v = x.unwrap_or(0);").is_empty());
    assert_eq!(
        non_test_violations("_ => unreachable!(\"promoted\"),").len(),
        1
    );
}

#[test]
fn an_indented_cfg_test_does_not_end_the_scan() {
    let sample = "struct S {\n    #[cfg(test)]\n    count: u64,\n}\n\
                  fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }";
    let violations = non_test_violations(sample);
    assert_eq!(violations.len(), 1, "only the test module is exempt");
    assert_eq!(violations[0].0, 5);
}
