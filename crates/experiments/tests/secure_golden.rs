//! Golden-file coverage for the secure-aggregation regime: the full
//! five-regime axis crossed with LinUCB on the synthetic benchmark must
//! serialize byte-for-byte identically to the checked-in goldens, at *both*
//! cell worker counts 1 and 4 — pinning that the share-split/recombine
//! round trip (exact wrapping-`i128` group arithmetic, see
//! `p2b_core::SecureIngestService`) is invariant to thread scheduling at
//! the artifact level, the same bar the central-DP golden holds for its
//! counter-based noise lanes.
//!
//! The schema stays frozen: secure-aggregation rows ride the existing
//! (epsilon, delta) columns, left empty — the regime is a trust split, not
//! a DP mechanism.
//!
//! To regenerate after a deliberate behavior change:
//! `P2B_REGENERATE_GOLDEN=1 cargo test -p p2b_experiments --test secure_golden`

use p2b_experiments::{
    matrix_to_csv, matrix_to_json, run_matrix, MatrixConfig, MatrixResult, PrivacyRegime,
    ScenarioKind,
};
use std::path::PathBuf;

/// The five-regime golden matrix: every privacy regime (including the
/// secure-aggregation comparison) crossed with LinUCB on the synthetic
/// benchmark, at a deliberately tiny scale.
fn golden_config() -> MatrixConfig {
    let mut config = MatrixConfig::smoke()
        .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
        .with_regimes(PrivacyRegime::ALL.to_vec())
        .with_seed(151);
    config.num_users = 24;
    config.interactions_per_user = 5;
    config.record_every = 40;
    config.flush_every_reports = 8;
    config
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn run_golden_matrix(cell_workers: usize) -> MatrixResult {
    let mut config = golden_config();
    config.cell_workers = cell_workers;
    run_matrix(&config).expect("golden matrix runs")
}

fn check_against_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("P2B_REGENERATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert!(
        expected == actual,
        "{name} drifted from its golden file; if the change is deliberate, regenerate with \
         P2B_REGENERATE_GOLDEN=1 cargo test -p p2b_experiments --test secure_golden"
    );
}

#[test]
fn tiny_secure_json_matches_golden_at_both_worker_counts() {
    let serial = run_golden_matrix(1);
    let json = matrix_to_json(&serial).expect("serialize");
    check_against_golden("tiny_secure.json", &json);
    // The same cells computed on 4 workers must be identical: recombined
    // share sums are exact group elements, never a function of scheduling.
    // (The emitted config block records the worker count, so the comparison
    // is on the cells, not the config echo.)
    let threaded = run_golden_matrix(4);
    assert_eq!(
        serial.cells, threaded.cells,
        "secure-agg cells must be identical across worker counts"
    );
    // Round trip: the emitted JSON deserializes back to the same result.
    let parsed: MatrixResult = serde_json::from_str(&json).expect("parse emitted JSON");
    assert_eq!(parsed, serial);
}

#[test]
fn tiny_secure_csv_matches_golden_at_both_worker_counts() {
    let serial = run_golden_matrix(1);
    let csv = matrix_to_csv(&serial);
    check_against_golden("tiny_secure.csv", &csv);
    let threaded = run_golden_matrix(4);
    assert_eq!(
        csv,
        matrix_to_csv(&threaded),
        "secure-agg cells must be byte-identical across worker counts"
    );
    // Schema freeze: the header is exactly the established column set — the
    // fifth regime rides the existing columns rather than widening them.
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().expect("header"),
        "scenario,regime,policy,repeat,seed,round,cumulative_reward,cumulative_regret,\
         average_reward,epsilon,delta"
    );
    let mut secure_rows = 0usize;
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 11, "malformed row: {line}");
        if fields[1] == PrivacyRegime::SecureAgg.key() {
            secure_rows += 1;
            assert!(
                fields[9].is_empty() && fields[10].is_empty(),
                "secure-agg rows must not claim an (epsilon, delta): {line}"
            );
        }
    }
    assert!(secure_rows > 0, "golden must contain secure-agg rows");
}

#[test]
fn secure_golden_contains_all_five_regimes() {
    let result = run_golden_matrix(1);
    assert_eq!(PrivacyRegime::ALL.len(), 5);
    for &regime in &PrivacyRegime::ALL {
        assert!(
            result.cells.iter().any(|c| c.spec.regime == regime),
            "regime {regime} missing from the five-regime golden"
        );
    }
}
