//! Population simulation over the synthetic preference benchmark
//! (Figures 4 and 5 of the paper).

use crate::{Regime, RegimeOutcome, SimError};
use p2b_bandit::{ContextualPolicy, LinUcb, LinUcbConfig, RewardTracker};
use p2b_core::{P2bConfig, P2bSystem};
use p2b_datasets::{ContextualEnvironment, SyntheticConfig, SyntheticPreferenceEnvironment};
use p2b_encoding::{KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use p2b_privacy::{amplified_epsilon, Participation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of one population run (one regime at one population size).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Sharing regime to simulate.
    pub regime: Regime,
    /// Number of users `U`.
    pub num_users: usize,
    /// Local interactions per user `T`.
    pub interactions_per_user: u64,
    /// Number of encoder codes `k` (paper: 2¹⁰ for the synthetic benchmark).
    pub num_codes: usize,
    /// Participation probability `p`.
    pub participation: f64,
    /// Shuffler threshold / crowd-blending `l`.
    pub shuffler_threshold: usize,
    /// Run a shuffling round whenever this many reports are pending; each
    /// round is one thresholded batch.
    pub flush_every_reports: usize,
    /// Number of contexts sampled to fit the k-means encoder.
    pub encoder_corpus_size: usize,
    /// LinUCB exploration parameter α.
    pub alpha: f64,
    /// Random seed (environment, encoder and all agents derive from it).
    pub seed: u64,
}

impl PopulationConfig {
    /// Creates a configuration with the paper's synthetic-benchmark defaults:
    /// `T = 10`, `k = 2¹⁰`, `p = 0.5`, threshold 10, α = 1.
    #[must_use]
    pub fn new(regime: Regime, num_users: usize) -> Self {
        Self {
            regime,
            num_users,
            interactions_per_user: 10,
            num_codes: 1 << 10,
            participation: 0.5,
            shuffler_threshold: 10,
            flush_every_reports: 256,
            encoder_corpus_size: 4096,
            alpha: 1.0,
            seed: 0,
        }
    }

    /// Sets the number of local interactions per user.
    #[must_use]
    pub fn with_interactions_per_user(mut self, interactions: u64) -> Self {
        self.interactions_per_user = interactions;
        self
    }

    /// Sets the number of encoder codes `k`.
    #[must_use]
    pub fn with_num_codes(mut self, num_codes: usize) -> Self {
        self.num_codes = num_codes;
        self
    }

    /// Sets the shuffler threshold.
    #[must_use]
    pub fn with_shuffler_threshold(mut self, threshold: usize) -> Self {
        self.shuffler_threshold = threshold;
        self
    }

    /// Sets the encoder training corpus size.
    #[must_use]
    pub fn with_encoder_corpus_size(mut self, size: usize) -> Self {
        self.encoder_corpus_size = size;
        self
    }

    /// Sets the random seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.num_users == 0 {
            return Err(SimError::InvalidConfig {
                parameter: "num_users",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.interactions_per_user == 0 {
            return Err(SimError::InvalidConfig {
                parameter: "interactions_per_user",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.num_codes == 0 {
            return Err(SimError::InvalidConfig {
                parameter: "num_codes",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.flush_every_reports == 0 {
            return Err(SimError::InvalidConfig {
                parameter: "flush_every_reports",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.encoder_corpus_size < self.num_codes {
            return Err(SimError::InvalidConfig {
                parameter: "encoder_corpus_size",
                message: format!(
                    "must be at least num_codes ({}), got {}",
                    self.num_codes, self.encoder_corpus_size
                ),
            });
        }
        Ok(())
    }
}

/// Runs one regime over the synthetic preference benchmark with a population
/// of `U` users, each observing `T` interactions, and returns the aggregate
/// outcome. This is the primitive behind Figures 4 and 5.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for invalid configurations and
/// propagates environment / system errors.
pub fn run_synthetic_population(
    env_config: SyntheticConfig,
    config: PopulationConfig,
) -> Result<RegimeOutcome, SimError> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut env = SyntheticPreferenceEnvironment::new(env_config, &mut rng)?;
    let mut tracker = RewardTracker::new();
    // Pseudo-regret is measured against *expected* rewards so that reward
    // noise (which can push a realized reward above the optimal mean) never
    // makes the cumulative regret negative.
    let mut regret = 0.0f64;

    let local_config = LinUcbConfig::new(env_config.context_dimension, env_config.num_actions)
        .with_alpha(config.alpha);

    let (reports_to_server, epsilon) = match config.regime {
        Regime::Cold => {
            for _ in 0..config.num_users {
                let mut policy = LinUcb::new(local_config)?;
                simulate_user(
                    &mut env,
                    &mut policy,
                    config.interactions_per_user,
                    &mut tracker,
                    &mut regret,
                    &mut rng,
                )?;
            }
            (0, Some(0.0))
        }
        Regime::WarmNonPrivate => {
            let mut central = LinUcb::new(local_config)?;
            let mut shared = 0u64;
            let participation = Participation::new(config.participation)?;
            for _ in 0..config.num_users {
                let mut policy = LinUcb::new(local_config)?;
                policy.merge(&central)?;
                for step in 0..config.interactions_per_user {
                    let context = env.sample_context(&mut rng);
                    let action = policy.select_action(&context, &mut rng)?;
                    let reward = env.sample_reward(&context, action.index(), &mut rng)?;
                    let expected = env.expected_reward(&context, action.index())?;
                    let optimum = env.optimal_reward(&context)?;
                    policy.update(&context, action, reward)?;
                    // Non-private agents follow the same reporting cadence as
                    // P2B (one opportunity every T interactions, taken with
                    // probability p) but send the *raw* context vector. This
                    // isolates the cost of the encoding + shuffling privacy
                    // machinery from the amount of shared data; see DESIGN.md.
                    if (step + 1) % config.interactions_per_user.min(10) == 0
                        && rand::Rng::gen::<f64>(&mut rng) < participation.value()
                    {
                        central.update(&context, action, reward)?;
                        shared += 1;
                    }
                    tracker.record(reward);
                    regret += optimum - expected;
                }
            }
            (shared, None)
        }
        Regime::WarmPrivate => {
            // Fit the encoder on a public corpus of contexts drawn from the
            // same distribution (uniform over the simplex).
            let corpus: Vec<Vector> = (0..config.encoder_corpus_size)
                .map(|_| env.sample_context(&mut rng))
                .collect();
            let encoder = KMeansEncoder::fit(
                &corpus,
                KMeansConfig::new(config.num_codes).with_iterations(30),
                &mut rng,
            )?;
            let p2b_config = P2bConfig::new(env_config.context_dimension, env_config.num_actions)
                .with_alpha(config.alpha)
                .with_participation(config.participation)
                .with_local_interactions(config.interactions_per_user.min(10))
                .with_shuffler_threshold(config.shuffler_threshold)
                // Pending passes `flush_every_reports` by at most one user's
                // reports, so every round fits in one engine batch.
                .with_shuffler_batch_size(
                    config.flush_every_reports + config.interactions_per_user as usize,
                );
            let mut system = P2bSystem::new(p2b_config, Arc::new(encoder))?;
            let mut pending = Vec::new();
            for _ in 0..config.num_users {
                let mut agent = system.make_warm_agent()?;
                for _ in 0..config.interactions_per_user {
                    let context = env.sample_context(&mut rng);
                    let action = agent.select_action(&context, &mut rng)?;
                    let reward = env.sample_reward(&context, action.index(), &mut rng)?;
                    let expected = env.expected_reward(&context, action.index())?;
                    let optimum = env.optimal_reward(&context)?;
                    agent.observe_reward(&context, action, reward, &mut rng)?;
                    tracker.record(reward);
                    regret += optimum - expected;
                }
                pending.extend(agent.take_reports());
                if pending.len() >= config.flush_every_reports {
                    system.streaming_round(std::mem::take(&mut pending), rng.gen())?;
                }
            }
            system.streaming_round(pending, rng.gen())?;
            let epsilon = amplified_epsilon(Participation::new(config.participation)?, 0.0)?;
            (system.server().ingested_reports(), Some(epsilon))
        }
    };

    Ok(RegimeOutcome {
        regime: config.regime,
        average_reward: tracker.average_reward(),
        reward_stddev: tracker.reward_stddev(),
        cumulative_regret: regret,
        interactions: tracker.count(),
        reports_to_server,
        epsilon,
    })
}

/// Runs one user's local interactions with a standalone policy (cold regime).
fn simulate_user(
    env: &mut SyntheticPreferenceEnvironment,
    policy: &mut LinUcb,
    interactions: u64,
    tracker: &mut RewardTracker,
    regret: &mut f64,
    rng: &mut StdRng,
) -> Result<(), SimError> {
    for _ in 0..interactions {
        let context = env.sample_context(rng);
        let action = policy.select_action(&context, rng)?;
        let reward = env.sample_reward(&context, action.index(), rng)?;
        let expected = env.expected_reward(&context, action.index())?;
        let optimum = env.optimal_reward(&context)?;
        policy.update(&context, action, reward)?;
        tracker.record(reward);
        *regret += optimum - expected;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(regime: Regime, users: usize) -> PopulationConfig {
        PopulationConfig::new(regime, users)
            .with_interactions_per_user(10)
            .with_num_codes(16)
            .with_encoder_corpus_size(256)
            .with_shuffler_threshold(2)
            .with_seed(42)
    }

    #[test]
    fn validates_configuration() {
        let env = SyntheticConfig::new(4, 5);
        assert!(run_synthetic_population(env, small_config(Regime::Cold, 0)).is_err());
        let mut bad = small_config(Regime::WarmPrivate, 10);
        bad.encoder_corpus_size = 4;
        assert!(run_synthetic_population(env, bad).is_err());
    }

    #[test]
    fn all_regimes_produce_rewards_in_range() {
        let env = SyntheticConfig::new(4, 5);
        for regime in Regime::ALL {
            let outcome = run_synthetic_population(env, small_config(regime, 30)).unwrap();
            assert_eq!(outcome.interactions, 300);
            assert!(outcome.average_reward >= 0.0 && outcome.average_reward <= 0.2);
            assert!(outcome.cumulative_regret >= -1e-9);
        }
    }

    #[test]
    fn epsilon_reporting_follows_the_regime() {
        let env = SyntheticConfig::new(4, 5);
        let cold = run_synthetic_population(env, small_config(Regime::Cold, 5)).unwrap();
        assert_eq!(cold.epsilon, Some(0.0));
        assert_eq!(cold.reports_to_server, 0);

        let non_private =
            run_synthetic_population(env, small_config(Regime::WarmNonPrivate, 5)).unwrap();
        assert_eq!(non_private.epsilon, None);
        // One reporting opportunity per user (T = 10), taken with p = 0.5.
        assert!(non_private.reports_to_server <= 5);

        let private = run_synthetic_population(env, small_config(Regime::WarmPrivate, 20)).unwrap();
        let eps = private.epsilon.unwrap();
        assert!((eps - std::f64::consts::LN_2).abs() < 1e-12);
        assert!(private.reports_to_server <= 20);
    }

    #[test]
    fn warm_non_private_beats_cold_for_moderate_populations() {
        // The paper's headline qualitative result at small scale: with enough
        // users, warm models beat cold ones because each user only sees T=10
        // interactions. A stronger reward scale than the paper's beta = 0.1 is
        // used so the ordering is unambiguous with only a few hundred users.
        let env = SyntheticConfig::new(5, 10)
            .with_beta(0.8)
            .with_noise_variance(0.0025);
        let cold = run_synthetic_population(env, small_config(Regime::Cold, 400)).unwrap();
        let warm =
            run_synthetic_population(env, small_config(Regime::WarmNonPrivate, 400)).unwrap();
        assert!(
            warm.average_reward > cold.average_reward,
            "warm {:.4} should beat cold {:.4}",
            warm.average_reward,
            cold.average_reward
        );
    }

    #[test]
    fn same_seed_is_reproducible() {
        let env = SyntheticConfig::new(4, 6);
        let a = run_synthetic_population(env, small_config(Regime::WarmPrivate, 25)).unwrap();
        let b = run_synthetic_population(env, small_config(Regime::WarmPrivate, 25)).unwrap();
        assert_eq!(a, b);
    }
}
