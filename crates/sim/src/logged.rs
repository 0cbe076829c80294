//! Experiments driven by logged per-agent sample streams: multi-label
//! classification (Figure 6) and Criteo-like advertising (Figure 7).

use crate::{Regime, RegimeOutcome, SimError};
use p2b_bandit::{ContextualPolicy, LinUcb, LinUcbConfig, RewardTracker};
use p2b_core::{P2bConfig, P2bSystem};
use p2b_datasets::{LoggedImpression, MultiLabelInstance};
use p2b_encoding::{KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use p2b_privacy::{amplified_epsilon, Participation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One logged example an agent can interact with: a context plus the reward
/// of every possible action.
///
/// Both multi-label instances (reward 1 when the proposed label is among the
/// true labels) and Criteo impressions (reward 1 when the proposed action
/// matches the logged, clicked action) satisfy this interface, which lets a
/// single experiment driver cover Figures 6 and 7.
pub trait LoggedExample: Send + Sync {
    /// The observed context.
    fn context(&self) -> &Vector;
    /// Reward of proposing `action` for this example, in `[0, 1]`.
    fn reward(&self, action: usize) -> f64;
}

impl LoggedExample for MultiLabelInstance {
    fn context(&self) -> &Vector {
        MultiLabelInstance::context(self)
    }
    fn reward(&self, action: usize) -> f64 {
        MultiLabelInstance::reward(self, action)
    }
}

impl LoggedExample for LoggedImpression {
    fn context(&self) -> &Vector {
        LoggedImpression::context(self)
    }
    fn reward(&self, action: usize) -> f64 {
        LoggedImpression::reward(self, action)
    }
}

/// Configuration of a logged-data experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoggedExperimentConfig {
    /// Sharing regime to simulate.
    pub regime: Regime,
    /// Context dimension of the examples.
    pub context_dimension: usize,
    /// Number of actions (labels / product codes).
    pub num_actions: usize,
    /// Fraction of agents that participate in training / sharing; the rest
    /// are test agents whose accuracy (average reward) is reported
    /// (paper: 0.7).
    pub train_fraction: f64,
    /// Number of encoder codes `k` (paper: 2⁵ for Figures 6 and 7, 2⁷ for the
    /// second Criteo setting).
    pub num_codes: usize,
    /// Participation probability `p`.
    pub participation: f64,
    /// Local interactions `T` between reporting opportunities.
    pub local_interactions: u64,
    /// Shuffler threshold / crowd-blending `l` (paper: 10).
    pub shuffler_threshold: usize,
    /// Run a shuffling round whenever this many reports are pending; each
    /// round is one thresholded batch.
    pub flush_every_reports: usize,
    /// LinUCB exploration parameter α.
    pub alpha: f64,
    /// Random seed.
    pub seed: u64,
}

impl LoggedExperimentConfig {
    /// Creates a configuration with the paper's defaults for the logged-data
    /// experiments: 70 % train agents, `k = 2⁵`, `p = 0.5`, `T = 10`,
    /// threshold 10, α = 1.
    #[must_use]
    pub fn new(regime: Regime, context_dimension: usize, num_actions: usize) -> Self {
        Self {
            regime,
            context_dimension,
            num_actions,
            train_fraction: 0.7,
            num_codes: 1 << 5,
            participation: 0.5,
            local_interactions: 10,
            shuffler_threshold: 10,
            // Large shuffling batches: at the scales this crate simulates, the
            // crowd-blending threshold is only meaningful when reports from
            // many agents are shuffled together, so by default (almost) all
            // training reports land in a single batch.
            flush_every_reports: 4096,
            alpha: 1.0,
            seed: 0,
        }
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

    /// Sets the train fraction.
    #[must_use]
    pub fn with_train_fraction(mut self, train_fraction: f64) -> Self {
        self.train_fraction = train_fraction;
        self
    }

    /// Sets the random seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.context_dimension == 0 || self.num_actions == 0 {
            return Err(SimError::InvalidConfig {
                parameter: "dimensions",
                message: "context_dimension and num_actions must be at least 1".to_owned(),
            });
        }
        if !(0.0..1.0).contains(&self.train_fraction) || self.train_fraction <= 0.0 {
            return Err(SimError::InvalidConfig {
                parameter: "train_fraction",
                message: format!(
                    "must lie strictly inside (0, 1), got {}",
                    self.train_fraction
                ),
            });
        }
        if self.num_codes == 0 || self.local_interactions == 0 || self.flush_every_reports == 0 {
            return Err(SimError::InvalidConfig {
                parameter: "num_codes/local_interactions/flush_every_reports",
                message: "must all be at least 1".to_owned(),
            });
        }
        Ok(())
    }
}

/// Runs one regime over per-agent streams of logged examples and returns the
/// test-agent outcome (accuracy for multi-label data, CTR for Criteo data).
///
/// `agent_samples[i]` is the sequence of examples agent `i` interacts with.
/// The first `train_fraction` of the agents are training agents: in the warm
/// regimes they share data (raw or via P2B) and build the central model. The
/// remaining agents are test agents: they start from the final central model
/// (or cold, in the cold regime) and their average reward is what the figure
/// reports.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for invalid configurations or when
/// fewer than two agents are provided, and propagates system errors.
pub fn run_logged_experiment<E: LoggedExample>(
    agent_samples: &[Vec<E>],
    config: LoggedExperimentConfig,
) -> Result<RegimeOutcome, SimError> {
    config.validate()?;
    if agent_samples.len() < 2 {
        return Err(SimError::InvalidConfig {
            parameter: "agent_samples",
            message: "need at least two agents (one train, one test)".to_owned(),
        });
    }
    let num_train = ((agent_samples.len() as f64) * config.train_fraction)
        .round()
        .clamp(1.0, (agent_samples.len() - 1) as f64) as usize;
    let (train_agents, test_agents) = agent_samples.split_at(num_train);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut tracker = RewardTracker::new();
    let local_config =
        LinUcbConfig::new(config.context_dimension, config.num_actions).with_alpha(config.alpha);

    let (reports_to_server, epsilon) = match config.regime {
        Regime::Cold => {
            for samples in test_agents {
                let mut policy = LinUcb::new(local_config)?;
                run_agent_locally(&mut policy, samples, &mut tracker, &mut rng)?;
            }
            (0, Some(0.0))
        }
        Regime::WarmNonPrivate => {
            let mut central = LinUcb::new(local_config)?;
            let mut shared = 0u64;
            let participation = Participation::new(config.participation)?;
            for samples in train_agents {
                let mut policy = LinUcb::new(local_config)?;
                policy.merge(&central)?;
                for (step, example) in samples.iter().enumerate() {
                    let context = example.context();
                    let action = policy.select_action(context, &mut rng)?;
                    let reward = example.reward(action.index());
                    policy.update(context, action, reward)?;
                    // Same reporting cadence as P2B (every T interactions,
                    // with probability p), but the raw context is shared;
                    // see DESIGN.md for the rationale.
                    if (step as u64 + 1) % config.local_interactions == 0
                        && rand::Rng::gen::<f64>(&mut rng) < participation.value()
                    {
                        central.update(context, action, reward)?;
                        shared += 1;
                    }
                }
            }
            for samples in test_agents {
                let mut policy = LinUcb::new(local_config)?;
                policy.merge(&central)?;
                run_agent_locally(&mut policy, samples, &mut tracker, &mut rng)?;
            }
            (shared, None)
        }
        Regime::WarmPrivate => {
            // Fit the encoder on the training agents' contexts (public side
            // information in the paper's setup: the encoder is fitted once and
            // shipped to devices).
            let corpus: Vec<Vector> = train_agents
                .iter()
                .flat_map(|samples| samples.iter().map(|e| e.context().clone()))
                .collect();
            if corpus.len() < config.num_codes {
                return Err(SimError::InvalidConfig {
                    parameter: "num_codes",
                    message: format!(
                        "training corpus has {} contexts, fewer than num_codes = {}",
                        corpus.len(),
                        config.num_codes
                    ),
                });
            }
            let encoder = KMeansEncoder::fit(
                &corpus,
                KMeansConfig::new(config.num_codes).with_iterations(30),
                &mut rng,
            )?;
            let p2b_config = P2bConfig::new(config.context_dimension, config.num_actions)
                .with_alpha(config.alpha)
                .with_participation(config.participation)
                .with_local_interactions(config.local_interactions)
                .with_shuffler_threshold(config.shuffler_threshold)
                // Pending passes `flush_every_reports` by at most one agent's
                // reports, so every round fits in one engine batch.
                .with_shuffler_batch_size(
                    config.flush_every_reports
                        + train_agents.iter().map(Vec::len).max().unwrap_or(0),
                );
            let mut system = P2bSystem::new(p2b_config, Arc::new(encoder))?;

            let mut pending = Vec::new();
            for samples in train_agents {
                let mut agent = system.make_warm_agent()?;
                for example in samples {
                    let context = example.context();
                    let action = agent.select_action(context, &mut rng)?;
                    let reward = example.reward(action.index());
                    agent.observe_reward(context, action, reward, &mut rng)?;
                }
                pending.extend(agent.take_reports());
                if pending.len() >= config.flush_every_reports {
                    system.streaming_round(std::mem::take(&mut pending), rng.gen())?;
                }
            }
            system.streaming_round(pending, rng.gen())?;

            for samples in test_agents {
                let mut agent = system.make_warm_agent()?;
                for example in samples {
                    let context = example.context();
                    let action = agent.select_action(context, &mut rng)?;
                    let reward = example.reward(action.index());
                    agent.observe_reward(context, action, reward, &mut rng)?;
                    tracker.record(reward);
                }
            }
            let epsilon = amplified_epsilon(Participation::new(config.participation)?, 0.0)?;
            (system.server().ingested_reports(), Some(epsilon))
        }
    };

    Ok(RegimeOutcome {
        regime: config.regime,
        average_reward: tracker.average_reward(),
        reward_stddev: tracker.reward_stddev(),
        cumulative_regret: tracker.cumulative_regret(),
        interactions: tracker.count(),
        reports_to_server,
        epsilon,
    })
}

/// Runs one agent over its samples with a standalone policy, recording rewards.
fn run_agent_locally<E: LoggedExample>(
    policy: &mut LinUcb,
    samples: &[E],
    tracker: &mut RewardTracker,
    rng: &mut StdRng,
) -> Result<(), SimError> {
    for example in samples {
        let context = example.context();
        let action = policy.select_action(context, rng)?;
        let reward = example.reward(action.index());
        policy.update(context, action, reward)?;
        tracker.record(reward);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2b_datasets::{MultiLabelConfig, MultiLabelDataset};

    /// Builds per-agent sample lists from a small clustered multi-label dataset.
    fn agent_samples(
        num_agents: usize,
        per_agent: usize,
        seed: u64,
    ) -> Vec<Vec<MultiLabelInstance>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dataset = MultiLabelDataset::generate(
            MultiLabelConfig::new(num_agents * per_agent, 6, 5),
            &mut rng,
        )
        .unwrap();
        dataset
            .split_agents(num_agents, per_agent, &mut rng)
            .unwrap()
    }

    fn config(regime: Regime) -> LoggedExperimentConfig {
        LoggedExperimentConfig::new(regime, 6, 5)
            .with_num_codes(8)
            .with_shuffler_threshold(2)
            .with_seed(7)
    }

    #[test]
    fn validates_configuration_and_inputs() {
        let samples = agent_samples(4, 10, 0);
        let mut bad = config(Regime::Cold);
        bad.train_fraction = 1.5;
        assert!(run_logged_experiment(&samples, bad).is_err());
        let single: Vec<Vec<MultiLabelInstance>> = samples[..1].to_vec();
        assert!(run_logged_experiment(&single, config(Regime::Cold)).is_err());
        // Too many codes for the tiny training corpus.
        let too_many_codes = config(Regime::WarmPrivate).with_num_codes(10_000);
        assert!(run_logged_experiment(&samples, too_many_codes).is_err());
    }

    #[test]
    fn all_regimes_produce_valid_outcomes() {
        let samples = agent_samples(20, 25, 1);
        for regime in Regime::ALL {
            let outcome = run_logged_experiment(&samples, config(regime)).unwrap();
            assert!(outcome.average_reward >= 0.0 && outcome.average_reward <= 1.0);
            assert!(outcome.interactions > 0);
            match regime {
                Regime::Cold => {
                    assert_eq!(outcome.reports_to_server, 0);
                    assert_eq!(outcome.epsilon, Some(0.0));
                }
                Regime::WarmNonPrivate => {
                    assert!(outcome.reports_to_server > 0);
                    assert_eq!(outcome.epsilon, None);
                }
                Regime::WarmPrivate => {
                    assert!(outcome.epsilon.unwrap() > 0.0);
                }
            }
        }
    }

    #[test]
    fn test_interactions_only_cover_test_agents() {
        let samples = agent_samples(10, 20, 2);
        let outcome = run_logged_experiment(&samples, config(Regime::Cold)).unwrap();
        // 10 agents, 70% train → 7 train, 3 test agents × 20 samples each.
        assert_eq!(outcome.interactions, 60);
    }

    #[test]
    fn warm_non_private_beats_cold_on_clustered_data() {
        let samples = agent_samples(80, 40, 3);
        let cold = run_logged_experiment(&samples, config(Regime::Cold)).unwrap();
        let warm = run_logged_experiment(&samples, config(Regime::WarmNonPrivate)).unwrap();
        assert!(
            warm.average_reward > cold.average_reward,
            "warm {:.3} should beat cold {:.3}",
            warm.average_reward,
            cold.average_reward
        );
    }

    #[test]
    fn reproducible_for_a_fixed_seed() {
        let samples = agent_samples(12, 15, 4);
        let a = run_logged_experiment(&samples, config(Regime::WarmPrivate)).unwrap();
        let b = run_logged_experiment(&samples, config(Regime::WarmPrivate)).unwrap();
        assert_eq!(a, b);
    }
}
