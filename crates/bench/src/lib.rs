//! Shared plumbing for the bench binaries and Criterion benches.
//!
//! `figures` is the one figure binary: it runs the scenario matrix and draws
//! Figs. 2–7 and Table 1 from `p2b_experiments` (`run_matrix`, `run_cell`
//! and, for Figs. 6–7 and Table 1, `run_held_out`). It prints each section
//! as an aligned text table and writes the same data as JSON under
//! [`experiments_dir`], so the numbers can be re-plotted. `p2b-serve` runs
//! the closed serving loop ([`serve`]).
//!
//! The experiment *scale* defaults to a laptop-friendly fraction of the
//! paper's setup (the paper sweeps up to 10⁶ users and 3 000 agents); set the
//! environment variable `P2B_SCALE=full` to run the original sizes, or
//! `P2B_SCALE=quick` for a smoke-test pass. Any other non-empty value is a
//! usage error ([`Scale::from_env`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod failure;
pub mod histogram;
pub mod serve;

pub use failure::BenchFailure;
pub use histogram::{bucket_lower_bound, bucket_of, LatencyHistogram, LatencySummary};
pub use serve::{DeterministicSummary, ServeConfig, ServeReport, SloConfig};

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
    /// Reads the scale from the `P2B_SCALE` environment variable; unset
    /// reads as [`Scale::Default`].
    ///
    /// # Errors
    ///
    /// Returns [`BenchFailure::Usage`] for a value other than `quick`,
    /// `full` or empty, or one that is not valid Unicode.
    pub fn from_env() -> Result<Self, BenchFailure> {
        match std::env::var("P2B_SCALE") {
            Ok(value) => Self::parse(&value),
            Err(std::env::VarError::NotPresent) => Ok(Scale::Default),
            Err(e) => Err(BenchFailure::Usage(format!("P2B_SCALE: {e}"))),
        }
    }

    /// Parses a `P2B_SCALE` value: `quick`, `full`, or empty for the default
    /// scale. Any other value is a usage error, so a misspelt `full` cannot
    /// quietly run at the default size.
    fn parse(value: &str) -> Result<Self, BenchFailure> {
        match value {
            "" => Ok(Scale::Default),
            "quick" => Ok(Scale::Quick),
            "full" => Ok(Scale::Full),
            other => Err(BenchFailure::Usage(format!(
                "P2B_SCALE must be `quick`, `full` or empty, got {other:?}"
            ))),
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

/// Directory where the `figures` binary writes its JSON and CSV results.
#[must_use]
pub fn experiments_dir() -> PathBuf {
    PathBuf::from("target").join("experiments")
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
    fn scale_parse_rejects_unknown_values() {
        assert_eq!(Scale::parse(""), Ok(Scale::Default));
        assert_eq!(Scale::parse("quick"), Ok(Scale::Quick));
        assert_eq!(Scale::parse("full"), Ok(Scale::Full));
        for bad in ["FULL", "ful", "Quick", "default", " full"] {
            let failure = Scale::parse(bad).unwrap_err();
            assert_eq!(failure.exit_code(), 2, "{bad:?} must be a usage error");
        }
    }

    #[test]
    fn experiments_dir_is_under_target() {
        assert!(experiments_dir().starts_with("target"));
    }
}
