//! The held-out protocol of the paper's Figs. 6–7 and Table 1: the first
//! [`HELD_OUT_TRAIN_FRACTION`] of a cell's users train and share, and the
//! rest are test users, scored twice over the same rounds — once
//! warm-started from the final central policy, once from a fresh policy
//! ("cold").
//!
//! The training phase is [`crate::run_cell`]'s own per-user loop with one
//! change of cadence: a training user gets a reporting opportunity after
//! every [`HELD_OUT_REPORT_EVERY`]-th interaction instead of one at the end
//! of its rounds. Both knobs are documented constants rather than
//! [`MatrixConfig`] fields, like [`crate::CENTRAL_SIGMA`]: the config's
//! serialized form is schema-frozen by the emitter goldens.

use crate::matrix::{Cell, Rounds};
use crate::{CellResult, CellSpec, ExperimentError, MatrixConfig, RoundPoint};
use p2b_bandit::LinUcb;
use p2b_shuffler::splitmix64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Share of a held-out run's users that train and share (the paper's
/// 70 %); the rest are test users.
pub const HELD_OUT_TRAIN_FRACTION: f64 = 0.7;

/// Interactions between a training user's reporting opportunities in a
/// held-out run (the paper's T = 10 for Figs. 6–7).
pub const HELD_OUT_REPORT_EVERY: u64 = 10;

/// What one held-out run produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeldOutResult {
    /// The training phase as a cell: the training users' rounds, the
    /// reports they shared, and the regime's guarantee claim.
    pub training: CellResult,
    /// The test users, each warm-started from the final central policy.
    /// `round` counts their interactions; `average_reward` is the accuracy
    /// (multi-label) or CTR (Criteo) the paper reports.
    pub warm: RoundPoint,
    /// The same test users over the same rounds, each starting from a fresh
    /// policy. Nothing any regime shares reaches them, so at a given seed
    /// this score is the same for every regime.
    pub cold: RoundPoint,
}

/// Runs the held-out protocol for one cell.
///
/// The first [`HELD_OUT_TRAIN_FRACTION`] of `config.num_users` (rounded,
/// and leaving at least one user on each side) play exactly as in
/// [`crate::run_cell`], except that each has a reporting opportunity after
/// every [`HELD_OUT_REPORT_EVERY`]-th interaction. After the trailing flush
/// the remaining users play the rounds that follow the training users'
/// twice, from one RNG seeded by `spec.seed` alone: once from the final
/// central policy (`warm`), once from a fresh policy (`cold`).
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for fewer than two users, for
/// fewer interactions per user than [`HELD_OUT_REPORT_EVERY`] (a training
/// user would never report), and for everything [`crate::run_cell`]
/// rejects; propagates workload, policy, encoder, privacy and engine
/// errors.
pub fn run_held_out(
    config: &MatrixConfig,
    spec: CellSpec,
) -> Result<HeldOutResult, ExperimentError> {
    if config.num_users < 2 {
        return Err(ExperimentError::InvalidConfig {
            parameter: "num_users",
            message: "a held-out run needs at least two users (one train, one test)".to_owned(),
        });
    }
    if config.interactions_per_user < HELD_OUT_REPORT_EVERY {
        return Err(ExperimentError::InvalidConfig {
            parameter: "interactions_per_user",
            message: format!(
                "must be at least the held-out report cadence {HELD_OUT_REPORT_EVERY}, got {}",
                config.interactions_per_user
            ),
        });
    }
    let num_users = config.num_users as f64;
    let num_train = (num_users * HELD_OUT_TRAIN_FRACTION)
        .round()
        .clamp(1.0, num_users - 1.0) as usize;
    let interactions = config.interactions_per_user;
    let max_reports = num_train as u64 * (interactions / HELD_OUT_REPORT_EVERY);
    let mut cell = Cell::open(config, spec, max_reports)?;

    // The test users' rounds follow the training users'. They are replayed
    // on a copy of the workload as it was before any user played, driven by
    // an RNG of their own, so no regime's draws can move them.
    let mut test_rng = StdRng::seed_from_u64(splitmix64(spec.seed));
    let mut test_start = cell.rounds.scenario.clone();
    for _ in 0..num_train as u64 * interactions {
        test_start.next_round(&mut test_rng);
    }
    let fresh = LinUcb::new(config.linucb(&test_start))?;

    cell.run_users(config, num_train, HELD_OUT_REPORT_EVERY)?;
    let training = cell.finish();
    let score = |policy: &LinUcb| {
        let mut rounds = Rounds::new(spec, test_start.clone(), test_rng.clone(), u64::MAX);
        for user in num_train..config.num_users {
            let mut local = policy.clone();
            // Test users share nothing: their one opportunity goes unused.
            rounds.play_user(interactions, user, &mut local, interactions, |_, _| Ok(()))?;
        }
        Ok::<RoundPoint, ExperimentError>(rounds.point())
    };
    Ok(HeldOutResult {
        training,
        warm: score(&cell.central)?,
        cold: score(&fresh)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PolicyKind, PrivacyRegime, ScenarioKind};

    fn spec(scenario: ScenarioKind, regime: PrivacyRegime, seed: u64) -> CellSpec {
        CellSpec {
            scenario,
            regime,
            policy: PolicyKind::LinUcb,
            repeat: 0,
            seed,
        }
    }

    fn small() -> MatrixConfig {
        let mut config = MatrixConfig::smoke();
        config.num_users = 30;
        config.interactions_per_user = 20;
        config.shape.logged_instances = 600;
        config
    }

    #[test]
    fn cold_is_bit_identical_across_regimes_and_runs_repeat() {
        let config = small();
        for scenario in [ScenarioKind::TextMining, ScenarioKind::SyntheticChurn] {
            let runs: Vec<HeldOutResult> = PrivacyRegime::ALL
                .iter()
                .map(|&regime| run_held_out(&config, spec(scenario, regime, 5)).unwrap())
                .collect();
            for run in &runs {
                assert_eq!(run.cold, runs[0].cold, "{scenario}");
                assert_eq!(run.cold.round, 9 * 20);
            }
            for (regime, run) in PrivacyRegime::ALL.iter().zip(&runs) {
                let again = run_held_out(&config, spec(scenario, *regime, 5)).unwrap();
                assert_eq!(&again, run, "{scenario} {regime}");
            }
        }
    }

    #[test]
    fn training_users_report_after_every_tenth_interaction() {
        let mut config = small();
        // p must stay below 1; at this p every opportunity is taken.
        config.participation = 1.0 - 1e-9;
        let result = run_held_out(
            &config,
            spec(ScenarioKind::MultiLabel, PrivacyRegime::NonPrivate, 3),
        )
        .unwrap();
        // 21 training users × 20 interactions, two opportunities each.
        assert_eq!(result.training.rounds, 21 * 20);
        assert_eq!(result.training.submitted_reports, 21 * 2);
        assert_eq!(result.training.shared_reports, 21 * 2);
    }

    #[test]
    fn rejects_runs_without_a_test_user_or_a_report() {
        let cell = spec(ScenarioKind::MultiLabel, PrivacyRegime::NonPrivate, 1);
        let mut one_user = small();
        one_user.num_users = 1;
        assert!(run_held_out(&one_user, cell).is_err());
        let mut short = small();
        short.interactions_per_user = HELD_OUT_REPORT_EVERY - 1;
        assert!(run_held_out(&short, cell).is_err());
    }
}
