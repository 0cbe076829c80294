//! Golden-file coverage for the non-stationary matrix cells: the
//! drift/churn/delayed scenarios crossed with the non-private and P2B
//! regimes must serialize byte-for-byte identically to the checked-in
//! goldens, at any cell-worker count.
//!
//! To regenerate after a deliberate behavior change:
//! `P2B_REGENERATE_GOLDEN=1 cargo test -p p2b_experiments --test nonstationary_golden`

use p2b_experiments::{
    matrix_to_csv, matrix_to_json, run_matrix, MatrixConfig, MatrixResult, PrivacyRegime,
    ScenarioKind,
};
use std::path::PathBuf;

/// The 3×2 golden matrix: every non-stationary scenario crossed with the
/// non-private ceiling and the P2B shuffle regime. 40 users × 5
/// interactions = 200 rounds per cell, enough to cross the drift period
/// (150) and the churn rotation period (100) at least once.
fn golden_config() -> MatrixConfig {
    let mut config = MatrixConfig::smoke()
        .with_scenarios(vec![
            ScenarioKind::SyntheticDrift,
            ScenarioKind::SyntheticChurn,
            ScenarioKind::SyntheticDelayed,
        ])
        .with_regimes(vec![PrivacyRegime::NonPrivate, PrivacyRegime::P2bShuffle])
        .with_seed(131);
    config.num_users = 40;
    config.interactions_per_user = 5;
    config.record_every = 50;
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
    run_matrix(&golden_config()).expect("non-stationary golden matrix runs")
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
         P2B_REGENERATE_GOLDEN=1 cargo test -p p2b_experiments --test nonstationary_golden"
    );
}

#[test]
fn nonstationary_matrix_json_matches_golden_and_round_trips() {
    let result = run_golden_matrix();
    let json = matrix_to_json(&result).expect("serialize");
    check_against_golden("tiny_nonstationary.json", &json);
    let parsed: MatrixResult = serde_json::from_str(&json).expect("parse emitted JSON");
    assert_eq!(parsed, result);
}

#[test]
fn nonstationary_matrix_csv_matches_golden() {
    let result = run_golden_matrix();
    let csv = matrix_to_csv(&result);
    check_against_golden("tiny_nonstationary.csv", &csv);
    // Every new scenario contributes regret-series rows under its key.
    for key in ["synthetic_drift", "synthetic_churn", "synthetic_delayed"] {
        assert!(
            csv.lines().any(|l| l.starts_with(key)),
            "{key} rows missing from the CSV emitter"
        );
    }
}

#[test]
fn nonstationary_cells_are_byte_deterministic_at_any_worker_count() {
    let mut serial = golden_config();
    serial.cell_workers = 1;
    let mut threaded = golden_config();
    threaded.cell_workers = 4;
    let a = run_matrix(&serial).expect("serial run");
    let b = run_matrix(&threaded).expect("threaded run");
    // The emitted JSON embeds the configuration (including `cell_workers`),
    // so worker-count invariance is pinned on the cells and the CSV series.
    assert_eq!(
        a.cells, b.cells,
        "cells must not depend on the worker count"
    );
    assert_eq!(
        matrix_to_csv(&a),
        matrix_to_csv(&b),
        "CSV must not depend on the worker count"
    );
}

#[test]
fn delayed_rewards_lose_feedback_but_still_learn() {
    let result = run_golden_matrix();
    let delayed = result
        .cell(ScenarioKind::SyntheticDelayed, PrivacyRegime::NonPrivate)
        .expect("delayed cell ran");
    // The lost-conversion tail means not every opportunity could share.
    let stationary_budget = delayed.rounds;
    assert!(delayed.shared_reports <= stationary_budget);
    assert!(delayed.final_cumulative_reward > 0.0);

    // Drift and churn cells keep full regret series for re-plotting.
    for kind in [ScenarioKind::SyntheticDrift, ScenarioKind::SyntheticChurn] {
        let cell = result
            .cell(kind, PrivacyRegime::P2bShuffle)
            .expect("cell ran");
        assert!(!cell.series.is_empty());
        assert!(cell.final_cumulative_regret >= -1e-9);
        assert!(cell.epsilon.is_some(), "P2B cells report their achieved ε");
    }
}
