//! Golden-file coverage for the JSON/CSV emitters: a tiny two-cell matrix
//! (one per private regime) must serialize byte-for-byte identically to the
//! checked-in goldens, and two runs of the same configuration must emit
//! byte-identical output.
//!
//! To regenerate after a deliberate behavior change:
//! `P2B_REGENERATE_GOLDEN=1 cargo test -p p2b_experiments --test emitter_golden`

use p2b_experiments::{
    matrix_to_csv, matrix_to_json, run_matrix, MatrixConfig, MatrixResult, PrivacyRegime,
    ScenarioKind,
};
use std::path::PathBuf;

/// The golden matrix: both private regimes on the synthetic benchmark, at a
/// deliberately tiny scale.
fn golden_config() -> MatrixConfig {
    let mut config = MatrixConfig::smoke()
        .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
        .with_regimes(vec![PrivacyRegime::LocalDp, PrivacyRegime::P2bShuffle])
        .with_seed(97);
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

fn run_golden_matrix() -> MatrixResult {
    run_matrix(&golden_config()).expect("golden matrix runs")
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
         P2B_REGENERATE_GOLDEN=1 cargo test -p p2b_experiments --test emitter_golden"
    );
}

#[test]
fn tiny_matrix_json_matches_golden_and_round_trips() {
    let result = run_golden_matrix();
    let json = matrix_to_json(&result).expect("serialize");
    check_against_golden("tiny_matrix.json", &json);
    // Round trip: the emitted JSON deserializes back to the same result.
    let parsed: MatrixResult = serde_json::from_str(&json).expect("parse emitted JSON");
    assert_eq!(parsed, result);
}

#[test]
fn tiny_matrix_csv_matches_golden() {
    let result = run_golden_matrix();
    let csv = matrix_to_csv(&result);
    check_against_golden("tiny_matrix.csv", &csv);
    // Schema sanity: header plus one row per recorded point, guarantees on
    // every private row.
    let mut lines = csv.lines();
    let header = lines.next().expect("header");
    assert_eq!(
        header,
        "scenario,regime,policy,repeat,seed,round,cumulative_reward,cumulative_regret,\
         average_reward,epsilon,delta"
    );
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 11, "malformed row: {line}");
        assert!(!fields[9].is_empty(), "private cells must record epsilon");
        assert!(!fields[10].is_empty(), "private cells must record delta");
    }
}

#[test]
fn two_runs_with_the_same_seed_emit_byte_identical_output() {
    let a = run_golden_matrix();
    let b = run_golden_matrix();
    assert_eq!(
        matrix_to_json(&a).unwrap(),
        matrix_to_json(&b).unwrap(),
        "JSON emitter must be deterministic"
    );
    assert_eq!(
        matrix_to_csv(&a),
        matrix_to_csv(&b),
        "CSV emitter must be deterministic"
    );
}

#[test]
fn different_seeds_change_the_output() {
    let a = run_golden_matrix();
    let b = run_matrix(&golden_config().with_seed(98)).unwrap();
    assert_ne!(matrix_to_csv(&a), matrix_to_csv(&b));
}
