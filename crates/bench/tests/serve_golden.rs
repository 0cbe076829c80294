//! Golden pin of the `BENCH_serve.json` schema and the harness's
//! deterministic summary.
//!
//! The golden file `tests/golden/tiny_serve.json` holds the *redacted*
//! report of [`ServeConfig::tiny`]: full schema (so field renames and
//! layout changes surface in review) with every wall-clock-derived and
//! worker-partition-dependent field zeroed (so the comparison is stable on
//! any machine). Regenerate deliberately with:
//!
//! ```text
//! P2B_REGENERATE_GOLDEN=1 cargo test -p p2b-bench --test serve_golden
//! ```
//!
//! The suite also pins the two determinism contracts directly: the same
//! configuration must produce a byte-identical redacted report across runs,
//! and the deterministic summary must not change with the worker count.

use p2b_bench::serve::{run_full, ServeConfig, SloConfig};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("tiny_serve.json")
}

fn tiny_redacted_json(workers: usize) -> String {
    let mut config = ServeConfig::tiny();
    config.workers = workers;
    let slo = SloConfig::for_config(&config);
    let report = run_full(&config, &slo, "tiny").unwrap();
    assert!(
        report.slo.pass,
        "the tiny configuration must satisfy its own default SLOs: {:?}",
        report.slo.violations
    );
    serde_json::to_string_pretty(&report.redacted()).expect("reports serialize")
}

#[test]
fn tiny_report_matches_the_golden_file() {
    let actual = tiny_redacted_json(ServeConfig::tiny().workers);
    let path = golden_path();
    if std::env::var("P2B_REGENERATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("golden dir is creatable");
        std::fs::write(&path, &actual).expect("golden file is writable");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {}; run with P2B_REGENERATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "redacted serve report diverged from the golden file; if the change \
         is intentional, regenerate with P2B_REGENERATE_GOLDEN=1"
    );
}

#[test]
fn deterministic_summary_is_worker_count_invariant() {
    // The golden runs at tiny's default worker count; re-running at 1 and 3
    // workers must leave the redacted report — including every count in the
    // deterministic summary — byte-identical.
    let base = tiny_redacted_json(ServeConfig::tiny().workers);
    for workers in [1usize, 3] {
        assert_eq!(
            tiny_redacted_json(workers),
            base,
            "deterministic summary changed between worker counts \
             ({workers} vs {})",
            ServeConfig::tiny().workers
        );
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    assert_eq!(
        tiny_redacted_json(2),
        tiny_redacted_json(2),
        "two runs of the same configuration must produce byte-identical \
         redacted reports"
    );
}
