//! Shared plumbing for the figure-reproduction binaries and Criterion benches.
//!
//! Every binary in `src/bin/` regenerates one figure or table of the paper:
//! it runs the relevant experiment through [`p2b_sim`], prints the data series
//! as an aligned text table, and writes the same series as JSON under
//! `target/experiments/` so the numbers can be re-plotted and are recorded in
//! EXPERIMENTS.md.
//!
//! The experiment *scale* defaults to a laptop-friendly fraction of the
//! paper's setup (the paper sweeps up to 10⁶ users and 3 000 agents); set the
//! environment variable `P2B_SCALE=full` to run the original sizes, or
//! `P2B_SCALE=quick` for a smoke-test pass.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod failure;
pub mod histogram;
pub mod serve;

pub use failure::BenchFailure;
pub use histogram::{bucket_lower_bound, bucket_of, LatencyHistogram, LatencySummary};
pub use serve::{DeterministicSummary, ServeConfig, ServeReport, SloConfig};

use p2b_sim::{Regime, SeriesPoint};
use std::path::PathBuf;

/// Experiment scale selected via the `P2B_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minimal sizes for CI smoke tests (`P2B_SCALE=quick`).
    Quick,
    /// Default laptop-friendly sizes.
    Default,
    /// The paper's original sizes (`P2B_SCALE=full`).
    Full,
}

impl Scale {
    /// Reads the scale from the `P2B_SCALE` environment variable.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("P2B_SCALE").unwrap_or_default().as_str() {
            "quick" => Scale::Quick,
            "full" => Scale::Full,
            _ => Scale::Default,
        }
    }

    /// Picks one of three values according to the scale.
    #[must_use]
    pub fn pick<T>(&self, quick: T, default: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

/// Directory where figure binaries write their JSON result series.
#[must_use]
pub fn experiments_dir() -> PathBuf {
    PathBuf::from("target").join("experiments")
}

/// Prints a result series as an aligned table: one row per swept value, one
/// column per regime.
pub fn print_series(title: &str, series: &[SeriesPoint]) {
    println!("\n=== {title} ===");
    println!(
        "{:>14} {:>12} {:>18} {:>18}",
        "x", "cold", "warm non-private", "warm private (P2B)"
    );
    for point in series {
        let fetch = |regime: Regime| {
            point
                .outcome(regime)
                .map_or_else(|| "-".to_owned(), |o| format!("{:.4}", o.average_reward))
        };
        println!(
            "{:>14.3} {:>12} {:>18} {:>18}",
            point.value,
            fetch(Regime::Cold),
            fetch(Regime::WarmNonPrivate),
            fetch(Regime::WarmPrivate),
        );
    }
}

/// Writes a series to `target/experiments/<name>.json` and reports the path.
///
/// # Errors
///
/// Propagates filesystem errors from the underlying writer.
pub fn save_series(name: &str, series: &[SeriesPoint]) -> Result<PathBuf, p2b_sim::SimError> {
    let path = experiments_dir().join(format!("{name}.json"));
    p2b_sim::write_series_json(&path, series)?;
    println!("series written to {}", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_picks_the_matching_value() {
        assert_eq!(Scale::Quick.pick(1, 2, 3), 1);
        assert_eq!(Scale::Default.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn experiments_dir_is_under_target() {
        assert!(experiments_dir().starts_with("target"));
    }
}
