//! Tests of synthetic populations under the paper's three regimes (Section 5):
//! cold, warm non-private and warm private (P2B), each one [`run_cell`] on
//! the synthetic-Gaussian scenario.
//!
//! The cold baseline is a regime that releases only at a flush, run with a
//! release cadence longer than the run: the central policy changes only
//! after the last user, so every device learns from its own feedback alone.

#[cfg(test)]
mod tests {
    use crate::{
        run_cell, CellResult, CellSpec, MatrixConfig, PolicyKind, PrivacyRegime, ScenarioKind,
    };

    /// The synthetic environment at the paper's reward scale β = 0.1.
    fn small_config(context_dimension: usize, num_actions: usize, users: usize) -> MatrixConfig {
        let mut config = MatrixConfig::new();
        config.shape.context_dimension = context_dimension;
        config.shape.num_actions = num_actions;
        config.shape.beta = 0.1;
        config.shape.noise_variance = 0.01;
        config.num_users = users;
        config.interactions_per_user = 10;
        config.num_codes = 16;
        config.encoder_corpus_size = 256;
        config.shuffler_threshold = 2;
        config.seed = 42;
        config
    }

    fn cell(config: &MatrixConfig, regime: PrivacyRegime) -> CellResult {
        let spec = CellSpec {
            scenario: ScenarioKind::SyntheticGaussian,
            regime,
            policy: PolicyKind::LinUcb,
            repeat: 0,
            seed: config.seed,
        };
        run_cell(config, spec).unwrap()
    }

    fn cold(config: &MatrixConfig) -> CellResult {
        let mut cold = config.clone();
        cold.flush_every_reports = usize::MAX;
        cell(&cold, PrivacyRegime::SecureAgg)
    }

    #[test]
    fn validates_configuration() {
        let spec = CellSpec {
            scenario: ScenarioKind::SyntheticGaussian,
            regime: PrivacyRegime::SecureAgg,
            policy: PolicyKind::LinUcb,
            repeat: 0,
            seed: 42,
        };
        let mut empty = small_config(4, 5, 0);
        empty.flush_every_reports = usize::MAX;
        assert!(run_cell(&empty, spec).is_err());
        let mut bad = small_config(4, 5, 10);
        bad.encoder_corpus_size = 4;
        let private = CellSpec {
            regime: PrivacyRegime::P2bShuffle,
            ..spec
        };
        assert!(run_cell(&bad, private).is_err());
    }

    #[test]
    fn all_regimes_produce_rewards_in_range() {
        let config = small_config(4, 5, 30);
        for outcome in [
            cold(&config),
            cell(&config, PrivacyRegime::NonPrivate),
            cell(&config, PrivacyRegime::P2bShuffle),
        ] {
            assert_eq!(outcome.rounds, 300);
            assert!(outcome.average_reward >= 0.0 && outcome.average_reward <= 0.2);
            assert!(outcome.final_cumulative_regret >= -1e-9);
        }
    }

    #[test]
    fn epsilon_reporting_follows_the_regime() {
        let cold = cold(&small_config(4, 5, 5));
        // Nothing reaches a device, and the cold cell claims no (ε, δ).
        assert_eq!(cold.epsilon, None);
        assert_eq!(cold.delta, None);
        assert!(cold.submitted_reports <= 5);

        let non_private = cell(&small_config(4, 5, 5), PrivacyRegime::NonPrivate);
        assert_eq!(non_private.epsilon, None);
        // One reporting opportunity per user, taken with p = 0.5.
        assert!(non_private.shared_reports <= 5);

        let private = cell(&small_config(4, 5, 20), PrivacyRegime::P2bShuffle);
        let eps = private.epsilon.unwrap();
        assert!((eps - std::f64::consts::LN_2).abs() < 1e-12);
        assert!(private.shared_reports <= 20);
    }

    #[test]
    fn warm_non_private_beats_cold_for_moderate_populations() {
        // The paper's headline qualitative result at small scale: with enough
        // users, warm models beat cold ones because each user only sees T=10
        // interactions. A stronger reward scale than the paper's beta = 0.1 is
        // used so the ordering is unambiguous with only a few hundred users.
        let mut config = small_config(5, 10, 400);
        config.shape.beta = 0.8;
        config.shape.noise_variance = 0.0025;
        let cold = cold(&config);
        let warm = cell(&config, PrivacyRegime::NonPrivate);
        assert!(
            warm.average_reward > cold.average_reward,
            "warm {:.4} should beat cold {:.4}",
            warm.average_reward,
            cold.average_reward
        );
    }

    #[test]
    fn same_seed_is_reproducible() {
        let config = small_config(4, 6, 25);
        let a = cell(&config, PrivacyRegime::P2bShuffle);
        let b = cell(&config, PrivacyRegime::P2bShuffle);
        assert_eq!(a, b);
    }
}
