//! Config-driven scenario-matrix experiment harness for the P2B
//! reproduction.
//!
//! The paper's core empirical claim (Malekzadeh et al., MLSys 2020,
//! Figures 4–7) is that P2B's encode-then-shuffle pipeline retains most of
//! the non-private baseline's utility, while purely local randomization
//! (RAPPOR-style randomized response, the regime of LDP bandit work such as
//! Han et al.) pays a steep per-report utility price. This crate makes that
//! claim a single reproducible artifact: a **scenario registry**
//! ([`ScenarioKind`]) crossed with a **privacy-regime axis**
//! ([`PrivacyRegime`]), every cell running the paper's LinUCB
//! ([`p2b_bandit::LinUcb`]), executed by [`run_matrix`] with seeded
//! determinism and per-cell repeats, streaming per-round regret / CTR plus the achieved (ε, δ) — per batch, from the
//! [`p2b_privacy::AmplificationLedger`] — into JSON and CSV emitters
//! ([`write_matrix_json`], [`write_matrix_csv`]).
//!
//! Each regime lives in exactly one place: a report channel in the private
//! `channel` module (immediate fold, randomized-response fold, shuffled,
//! tree curator, secure aggregation), built by the only `match` over
//! [`PrivacyRegime`] that constructs state. [`run_cell`] is a single
//! regime-blind loop over that channel. The two aggregating regimes share
//! one statistics-leaf layout, [`p2b_bandit::ArmSums::leaf`] and its
//! inverse [`p2b_bandit::ArmSums::from_leaf`], and every channel that
//! publishes from sums installs them with [`p2b_bandit::LinUcb::set_arm`].
//!
//! [`run_held_out`] runs the held-out protocol of the paper's Figs. 6–7 and
//! Table 1 on the same per-user loop: the first
//! [`HELD_OUT_TRAIN_FRACTION`] of a cell's users train and share, with a
//! reporting opportunity every [`HELD_OUT_REPORT_EVERY`] interactions, and
//! the rest are scored from the final central policy (warm) and from a
//! fresh one (cold). [`ScenarioKind::HELD_OUT`] lists its paper-shaped
//! logged workloads.
//!
//! The `figures` binary in `p2b-bench` runs the matrix and draws Figs. 2–7
//! and Table 1 from this harness end-to-end (cold baselines included); see
//! `docs/REPRODUCING.md` for the exact commands and the expected output
//! schema.
//!
//! # Example
//!
//! ```
//! use p2b_experiments::{run_matrix, MatrixConfig, PrivacyRegime, ScenarioKind};
//!
//! # fn main() -> Result<(), p2b_experiments::ExperimentError> {
//! let mut config = MatrixConfig::smoke()
//!     .with_scenarios(vec![ScenarioKind::SyntheticGaussian])
//!     .with_regimes(vec![PrivacyRegime::NonPrivate, PrivacyRegime::P2bShuffle])
//!     .with_seed(1);
//! config.num_users = 40;
//! let result = run_matrix(&config)?;
//! assert_eq!(result.cells.len(), 2);
//! let p2b = result
//!     .cell(ScenarioKind::SyntheticGaussian, PrivacyRegime::P2bShuffle)
//!     .expect("cell ran");
//! assert!(p2b.epsilon.is_some(), "P2B cells report their achieved ε");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod channel;
mod emit;
mod error;
mod held_out;
#[cfg(test)]
mod logged;
mod matrix;
mod policy;
mod regime;
mod scenario;
#[cfg(test)]
mod synthetic;

pub use channel::{CENTRAL_LEAF_SENSITIVITY, CENTRAL_SIGMA, CENTRAL_TARGET_DELTA};
pub use emit::{matrix_to_csv, matrix_to_json, write_matrix_csv, write_matrix_json};
pub use error::ExperimentError;
pub use held_out::{run_held_out, HeldOutResult, HELD_OUT_REPORT_EVERY, HELD_OUT_TRAIN_FRACTION};
pub use matrix::{
    run_cell, run_matrix, BatchGuarantee, CellResult, CellSpec, MatrixConfig, MatrixResult,
    RoundPoint,
};
pub use policy::PolicyKind;
pub use regime::PrivacyRegime;
pub(crate) use scenario::ScenarioData;
pub use scenario::{
    ScenarioKind, ScenarioShape, CHURN_COHORTS, CHURN_ROTATION_PERIOD, DELAYED_MAX_REWARD_DELAY,
    DRIFT_PERIOD_ROUNDS,
};
