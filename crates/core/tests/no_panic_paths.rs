//! Enforces the zero-unwrap policy on `crates/core/src` non-test code, on
//! the pattern of `crates/encoding/tests/no_panic_paths.rs`: the agent,
//! pool, join buffer, server and model service sit on the request path and
//! must surface typed `CoreError`s, never panic. The last site, the
//! `unreachable!` in `LocalAgent::policy_mut`, went when the copy-on-write
//! promotion was restructured to need none. Test modules (everything at and
//! below the first `#[cfg(test)]` of a file) and comment/doc lines —
//! doc-comment examples included — are exempt.

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
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
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
    let mut sources: Vec<PathBuf> = fs::read_dir(&src)
        .expect("read src dir")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .collect();
    sources.sort();
    assert!(
        !sources.is_empty(),
        "no sources found under {}",
        src.display()
    );
    let mut report = String::new();
    for path in sources {
        let source = fs::read_to_string(&path).expect("read source file");
        for (line, text) in non_test_violations(&source) {
            report.push_str(&format!("{}:{line}: {}\n", path.display(), text.trim()));
        }
    }
    assert!(
        report.is_empty(),
        "panic-path constructs in non-test core code (convert to typed \
         CoreError returns):\n{report}"
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
    assert_eq!(
        non_test_violations("_ => unreachable!(\"promoted\"),").len(),
        1
    );
}
