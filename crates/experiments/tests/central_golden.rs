//! Golden-file coverage for the four-regime matrix including the central-DP
//! tree-aggregation curator: the full regime axis crossed with LinUCB on the
//! synthetic benchmark must serialize byte-for-byte identically to the
//! checked-in goldens, at *both* worker counts 1 and 4 — pinning the
//! counter-based noise lanes' worker-count invariance at the artifact level.
//!
//! The pre-existing `tiny_matrix` / `tiny_nonstationary` goldens are asserted
//! untouched by the central-DP upgrade in their own suites; this file adds
//! the schema-freeze check that the emitted *header* is unchanged, so the
//! central regime rides the existing columns rather than widening the schema.
//!
//! To regenerate after a deliberate behavior change:
//! `P2B_REGENERATE_GOLDEN=1 cargo test -p p2b_experiments --test central_golden`

use p2b_experiments::{
    matrix_to_csv, matrix_to_json, run_matrix, MatrixConfig, MatrixResult, PrivacyRegime,
    ScenarioKind,
};
use std::path::PathBuf;

/// The four regimes this golden has always covered. Pinned explicitly (not
/// `PrivacyRegime::ALL`) so later regime additions — like the fifth,
/// secure-aggregation regime, pinned by its own `secure_golden` suite —
/// cannot drift these checked-in files.
const GOLDEN_REGIMES: [PrivacyRegime; 4] = [
    PrivacyRegime::NonPrivate,
    PrivacyRegime::LocalDp,
    PrivacyRegime::P2bShuffle,
    PrivacyRegime::CentralDp,
];

/// The four-regime golden matrix: the original regime axis crossed with
/// LinUCB (the only policy the central curator can rebuild) on the synthetic
/// benchmark, at a deliberately tiny scale.
fn golden_config() -> MatrixConfig {
    let mut config = MatrixConfig::smoke()
        .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
        .with_regimes(GOLDEN_REGIMES.to_vec())
        .with_seed(131);
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
         P2B_REGENERATE_GOLDEN=1 cargo test -p p2b_experiments --test central_golden"
    );
}

#[test]
fn tiny_central_json_matches_golden_at_both_worker_counts() {
    let serial = run_golden_matrix(1);
    let json = matrix_to_json(&serial).expect("serialize");
    check_against_golden("tiny_central.json", &json);
    // The same cells computed on 4 workers must be identical: the curator's
    // tree noise is a pure function of (seed, node, coordinate), never of
    // scheduling. (The emitted config block records the worker count, so the
    // comparison is on the cells, not the config echo.)
    let threaded = run_golden_matrix(4);
    assert_eq!(
        serial.cells, threaded.cells,
        "central-DP cells must be identical across worker counts"
    );
    // Round trip: the emitted JSON deserializes back to the same result.
    let parsed: MatrixResult = serde_json::from_str(&json).expect("parse emitted JSON");
    assert_eq!(parsed, serial);
}

#[test]
fn tiny_central_csv_matches_golden_at_both_worker_counts() {
    let serial = run_golden_matrix(1);
    let csv = matrix_to_csv(&serial);
    check_against_golden("tiny_central.csv", &csv);
    let threaded = run_golden_matrix(4);
    assert_eq!(
        csv,
        matrix_to_csv(&threaded),
        "central-DP cells must be byte-identical across worker counts"
    );
    // Schema freeze: the header is exactly the pre-central-DP column set —
    // the new regime rides the existing (epsilon, delta) columns.
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().expect("header"),
        "scenario,regime,policy,repeat,seed,round,cumulative_reward,cumulative_regret,\
         average_reward,epsilon,delta"
    );
    let mut central_rows = 0usize;
    for line in lines {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 11, "malformed row: {line}");
        if fields[1] == PrivacyRegime::CentralDp.key() {
            central_rows += 1;
            assert!(!fields[9].is_empty(), "central rows must record epsilon");
            assert!(!fields[10].is_empty(), "central rows must record delta");
        }
    }
    assert!(central_rows > 0, "golden must contain central-DP rows");
}

#[test]
fn central_golden_contains_all_four_regimes() {
    let result = run_golden_matrix(1);
    for &regime in &GOLDEN_REGIMES {
        assert!(
            result.cells.iter().any(|c| c.spec.regime == regime),
            "regime {regime} missing from the four-regime golden"
        );
    }
}
