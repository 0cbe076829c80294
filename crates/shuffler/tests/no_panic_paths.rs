//! Enforces the zero-unwrap policy on `crates/shuffler/src` non-test code —
//! the same bar `crates/core` and `crates/linalg` hold by manual audit,
//! made mechanical: request-path code must surface typed
//! `ShufflerError`s, never panic. Test modules (everything at and below the
//! first `#[cfg(test)]` of a file) and comment/doc lines are exempt.

use std::fs;
use std::path::PathBuf;

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

fn non_test_violations(source: &str) -> Vec<(usize, String)> {
    let mut violations = Vec::new();
    for (number, line) in source.lines().enumerate() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        if FORBIDDEN.iter().any(|needle| line.contains(needle)) {
            violations.push((number + 1, line.to_owned()));
        }
    }
    violations
}

#[test]
fn no_unwrap_or_expect_in_non_test_source() {
    let src = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut entries: Vec<PathBuf> = fs::read_dir(&src)
        .expect("read src dir")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .collect();
    entries.sort();
    assert!(
        !entries.is_empty(),
        "no sources found under {}",
        src.display()
    );
    let mut report = String::new();
    for path in entries {
        let source = fs::read_to_string(&path).expect("read source file");
        for (line, text) in non_test_violations(&source) {
            report.push_str(&format!("{}:{line}: {}\n", path.display(), text.trim()));
        }
    }
    assert!(
        report.is_empty(),
        "panic-path constructs in non-test shuffler code (convert to typed \
         ShufflerError returns):\n{report}"
    );
}

#[test]
fn scanner_catches_the_constructs_it_claims_to() {
    let sample = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }";
    let violations = non_test_violations(sample);
    assert_eq!(violations.len(), 1, "test module is exempt, body is not");
    assert_eq!(violations[0].0, 1);
    assert!(non_test_violations("// x.unwrap()\n/// y.expect(\"\")").is_empty());
    assert!(non_test_violations("let v = x.unwrap_or(0);").is_empty());
}
