//! Tests of the held-out protocol on logged workloads ([`run_held_out`]
//! over [`ScenarioKind::MultiLabel`]): 70 % of the users train and share,
//! the rest are test users scored from the final central policy (warm) and
//! from a fresh one (cold).

#[cfg(test)]
mod tests {
    use crate::{
        run_held_out, CellSpec, HeldOutResult, MatrixConfig, PolicyKind, PrivacyRegime,
        ScenarioKind,
    };

    /// A clustered multi-label workload of `num_users` users with
    /// `per_user` fresh instances each, k = 8 codes and threshold l = 2.
    fn config(num_users: usize, per_user: u64) -> MatrixConfig {
        let mut config = MatrixConfig::held_out(ScenarioKind::MultiLabel, num_users, per_user);
        config.num_codes = 8;
        config.shuffler_threshold = 2;
        config
    }

    fn run(config: &MatrixConfig, regime: PrivacyRegime, seed: u64) -> HeldOutResult {
        run_held_out(config, spec(regime, seed)).unwrap()
    }

    fn spec(regime: PrivacyRegime, seed: u64) -> CellSpec {
        CellSpec {
            scenario: ScenarioKind::MultiLabel,
            regime,
            policy: PolicyKind::LinUcb,
            repeat: 0,
            seed,
        }
    }

    #[test]
    fn validates_configuration_and_inputs() {
        let mut bad = config(4, 10);
        bad.participation = 1.5;
        assert!(run_held_out(&bad, spec(PrivacyRegime::NonPrivate, 0)).is_err());
        let single = config(1, 10);
        assert!(run_held_out(&single, spec(PrivacyRegime::NonPrivate, 0)).is_err());
        // Too many codes for the tiny encoder corpus.
        let mut too_many_codes = config(4, 10);
        too_many_codes.num_codes = 10_000;
        assert!(run_held_out(&too_many_codes, spec(PrivacyRegime::P2bShuffle, 0)).is_err());
    }

    #[test]
    fn all_regimes_produce_valid_outcomes() {
        let config = config(20, 25);
        let runs: Vec<HeldOutResult> = PrivacyRegime::ALL
            .iter()
            .map(|&regime| run(&config, regime, 1))
            .collect();
        for (regime, outcome) in PrivacyRegime::ALL.iter().zip(&runs) {
            for score in [outcome.warm, outcome.cold] {
                assert!(score.average_reward >= 0.0 && score.average_reward <= 1.0);
                assert!(score.round > 0);
            }
            // Cold is the same whatever the regime shared: no report reaches
            // it.
            assert_eq!(outcome.cold, runs[0].cold, "{regime}");
            match regime {
                PrivacyRegime::NonPrivate => {
                    assert!(outcome.training.shared_reports > 0);
                    assert_eq!(outcome.training.epsilon, None);
                }
                PrivacyRegime::P2bShuffle => {
                    assert!(outcome.training.epsilon.unwrap() > 0.0);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn test_interactions_only_cover_test_agents() {
        let outcome = run(&config(10, 20), PrivacyRegime::NonPrivate, 2);
        // 10 users, 70% train → 7 train, 3 test users × 20 interactions each.
        assert_eq!(outcome.cold.round, 60);
        assert_eq!(outcome.warm.round, 60);
        assert_eq!(outcome.training.rounds, 140);
    }

    #[test]
    fn warm_non_private_beats_cold_on_clustered_data() {
        let outcome = run(&config(80, 40), PrivacyRegime::NonPrivate, 3);
        assert!(
            outcome.warm.average_reward > outcome.cold.average_reward,
            "warm {:.3} should beat cold {:.3}",
            outcome.warm.average_reward,
            outcome.cold.average_reward
        );
    }

    #[test]
    fn reproducible_for_a_fixed_seed() {
        let config = config(12, 15);
        let a = run(&config, PrivacyRegime::P2bShuffle, 4);
        let b = run(&config, PrivacyRegime::P2bShuffle, 4);
        assert_eq!(a, b);
    }
}
