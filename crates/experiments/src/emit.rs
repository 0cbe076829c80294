//! JSON and CSV emitters for matrix results.
//!
//! Both emitters are deterministic: two runs of the same configuration
//! produce byte-identical files, which the golden-file tests and the CI
//! smoke step rely on.

use crate::{ExperimentError, MatrixResult};
use std::fmt::Write as _;
use std::path::Path;

/// Renders a matrix result as pretty-printed JSON.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] when serialization fails.
pub fn matrix_to_json(result: &MatrixResult) -> Result<String, ExperimentError> {
    serde_json::to_string_pretty(result).map_err(|e| ExperimentError::InvalidConfig {
        parameter: "result",
        message: format!("serialization failed: {e}"),
    })
}

/// Renders a matrix result as CSV: one row per recorded series point, so the
/// per-round regret / CTR curves can be re-plotted directly. The achieved
/// privacy guarantee of the cell is repeated on every row (empty for the
/// non-private regime).
#[must_use]
pub fn matrix_to_csv(result: &MatrixResult) -> String {
    let mut out = String::new();
    out.push_str(
        "scenario,regime,policy,repeat,seed,round,cumulative_reward,cumulative_regret,\
         average_reward,epsilon,delta\n",
    );
    for cell in &result.cells {
        let epsilon = cell.epsilon.map_or_else(String::new, |e| e.to_string());
        let delta = cell.delta.map_or_else(String::new, |d| d.to_string());
        for p in &cell.series {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{}",
                cell.spec.scenario.key(),
                cell.spec.regime.key(),
                cell.spec.policy.key(),
                cell.spec.repeat,
                cell.spec.seed,
                p.round,
                p.cumulative_reward,
                p.cumulative_regret,
                p.average_reward,
                epsilon,
                delta,
            );
        }
    }
    out
}

/// Writes the JSON form of a matrix result, creating parent directories.
///
/// # Errors
///
/// Propagates serialization and filesystem errors.
pub fn write_matrix_json(path: &Path, result: &MatrixResult) -> Result<(), ExperimentError> {
    write_file(path, &matrix_to_json(result)?)
}

/// Writes the CSV form of a matrix result, creating parent directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_matrix_csv(path: &Path, result: &MatrixResult) -> Result<(), ExperimentError> {
    write_file(path, &matrix_to_csv(result))
}

fn write_file(path: &Path, contents: &str) -> Result<(), ExperimentError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, contents)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_matrix, MatrixConfig, PrivacyRegime, ScenarioKind};

    fn tiny_result() -> MatrixResult {
        let config = MatrixConfig::smoke()
            .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
            .with_regimes(vec![PrivacyRegime::NonPrivate, PrivacyRegime::P2bShuffle])
            .with_seed(3);
        let mut config = config;
        config.num_users = 30;
        config.record_every = 50;
        run_matrix(&config).unwrap()
    }

    #[test]
    fn csv_has_a_row_per_series_point_plus_header() {
        let result = tiny_result();
        let csv = matrix_to_csv(&result);
        let expected_rows: usize = result.cells.iter().map(|c| c.series.len()).sum();
        assert_eq!(csv.lines().count(), expected_rows + 1);
        assert!(csv.starts_with("scenario,regime,policy"));
        assert!(csv.contains("p2b_shuffle"));
        // Non-private rows end with two empty guarantee columns.
        let non_private_row = csv
            .lines()
            .find(|l| l.contains("non_private"))
            .expect("non-private rows present");
        assert!(non_private_row.ends_with(",,"));
    }

    #[test]
    fn json_round_trips_through_serde() {
        let result = tiny_result();
        let json = matrix_to_json(&result).unwrap();
        let parsed: MatrixResult = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, result);
    }

    #[test]
    fn emitters_are_deterministic() {
        let a = tiny_result();
        let b = tiny_result();
        assert_eq!(matrix_to_json(&a).unwrap(), matrix_to_json(&b).unwrap());
        assert_eq!(matrix_to_csv(&a), matrix_to_csv(&b));
    }

    #[test]
    fn files_are_written_with_parents() {
        let result = tiny_result();
        let dir = std::env::temp_dir().join("p2b_experiments_emit_test");
        let json_path = dir.join("nested").join("matrix.json");
        let csv_path = dir.join("nested").join("matrix.csv");
        write_matrix_json(&json_path, &result).unwrap();
        write_matrix_csv(&csv_path, &result).unwrap();
        assert_eq!(
            std::fs::read_to_string(&json_path).unwrap(),
            matrix_to_json(&result).unwrap()
        );
        assert_eq!(
            std::fs::read_to_string(&csv_path).unwrap(),
            matrix_to_csv(&result)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
