//! The scenario axis of the experiment matrix: which workload generates the
//! contexts and rewards of a cell.
//!
//! Scenarios reuse the workload substrate of [`p2b_datasets`]: the synthetic
//! preference benchmark of Section 5.1 (in Gaussian-noise and Bernoulli-click
//! reward flavors), the multi-label classification workload of Section 5.2,
//! and the Criteo-like advertising workload of Section 5.3.

use crate::ExperimentError;
use p2b_datasets::{
    CohortChurnConfig, CohortChurnEnvironment, ContextualEnvironment, CriteoConfig,
    CriteoLikeGenerator, DriftConfig, DriftingPreferenceEnvironment, LoggedImpression,
    MultiLabelConfig, MultiLabelDataset, SyntheticConfig, SyntheticPreferenceEnvironment,
};
use p2b_linalg::Vector;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Rounds between drift steps of [`ScenarioKind::SyntheticDrift`].
///
/// The non-stationary scenario knobs are fixed, documented constants rather
/// than [`crate::MatrixConfig`] fields: the matrix configuration's
/// serialized schema is frozen by the golden result files, while the
/// underlying generators ([`p2b_datasets::DriftConfig`],
/// [`p2b_datasets::CohortChurnConfig`], [`p2b_core::RewardJoinBuffer`])
/// expose the full knobs for direct use.
pub const DRIFT_PERIOD_ROUNDS: u64 = 150;
/// Rounds between cohort replacements of [`ScenarioKind::SyntheticChurn`].
pub const CHURN_ROTATION_PERIOD: u64 = 100;
/// Concurrently active cohorts of [`ScenarioKind::SyntheticChurn`].
pub const CHURN_COHORTS: usize = 4;
/// Join window (in interactions) of [`ScenarioKind::SyntheticDelayed`]:
/// rewards arrive up to this many rounds late; scheduled delays are drawn
/// from one round more, so the overflow share expires as lost feedback.
pub const DELAYED_MAX_REWARD_DELAY: u64 = 2;

/// Which workload a matrix cell runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// Synthetic preference benchmark with Gaussian reward noise
    /// (Section 5.1, Figures 4 and 5).
    SyntheticGaussian,
    /// Synthetic preference benchmark with Bernoulli (click-like) rewards.
    SyntheticBernoulli,
    /// Clustered multi-label classification with bandit feedback
    /// (Section 5.2, Figure 6).
    MultiLabel,
    /// Criteo-like online advertising from logged impressions
    /// (Section 5.3, Figure 7).
    CriteoLike,
    /// Preference drift: the synthetic benchmark's reward means rotate by
    /// one action every [`DRIFT_PERIOD_ROUNDS`] rounds
    /// ([`p2b_datasets::DriftingPreferenceEnvironment`]).
    SyntheticDrift,
    /// User churn: contexts follow a rotating cohort population
    /// ([`p2b_datasets::CohortChurnEnvironment`], rotation every
    /// [`CHURN_ROTATION_PERIOD`] rounds).
    SyntheticChurn,
    /// Delayed rewards: the stationary synthetic benchmark, but local
    /// updates and shared reports only see rewards that joined their
    /// decision within [`DELAYED_MAX_REWARD_DELAY`] rounds
    /// ([`p2b_core::RewardJoinBuffer`]); later rewards are lost.
    SyntheticDelayed,
    /// MediaMill-like multi-label classification, d = 20, A = 40
    /// ([`p2b_datasets::MultiLabelDataset::mediamill_like`]; Section 5.2,
    /// Figure 6).
    MediaMill,
    /// TextMining-like multi-label classification, d = 20, A = 22
    /// ([`p2b_datasets::MultiLabelDataset::textmining_like`]; Section 5.2,
    /// Figure 6).
    TextMining,
    /// The Criteo-like click log at the paper's shape, d = 10, A = 40
    /// ([`p2b_datasets::CriteoConfig::new`]; Section 5.3, Figure 7).
    Criteo,
}

impl ScenarioKind {
    /// Every scenario: the paper's workloads in presentation order,
    /// followed by the non-stationary axis.
    pub const ALL: [ScenarioKind; 7] = [
        ScenarioKind::SyntheticGaussian,
        ScenarioKind::SyntheticBernoulli,
        ScenarioKind::MultiLabel,
        ScenarioKind::CriteoLike,
        ScenarioKind::SyntheticDrift,
        ScenarioKind::SyntheticChurn,
        ScenarioKind::SyntheticDelayed,
    ];

    /// The paper-shaped logged workloads of Figs. 6–7 and Table 1, which
    /// [`crate::run_held_out`] scores on held-out users (configured by
    /// [`crate::MatrixConfig::held_out`]). They stay out of
    /// [`ScenarioKind::ALL`], so the default matrix does not move.
    pub const HELD_OUT: [ScenarioKind; 3] = [
        ScenarioKind::MediaMill,
        ScenarioKind::TextMining,
        ScenarioKind::Criteo,
    ];

    /// Stable identifier used in result files and CSV rows.
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            ScenarioKind::SyntheticGaussian => "synthetic_gaussian",
            ScenarioKind::SyntheticBernoulli => "synthetic_bernoulli",
            ScenarioKind::MultiLabel => "multilabel",
            ScenarioKind::CriteoLike => "criteo_like",
            ScenarioKind::SyntheticDrift => "synthetic_drift",
            ScenarioKind::SyntheticChurn => "synthetic_churn",
            ScenarioKind::SyntheticDelayed => "synthetic_delayed",
            ScenarioKind::MediaMill => "mediamill",
            ScenarioKind::TextMining => "textmining",
            ScenarioKind::Criteo => "criteo",
        }
    }

    /// The paper figure this scenario's utility-vs-privacy comparison
    /// corresponds to.
    #[must_use]
    pub fn paper_figure(&self) -> &'static str {
        match self {
            ScenarioKind::SyntheticGaussian => "Fig. 4-5",
            ScenarioKind::SyntheticBernoulli => "Fig. 4-5 (Bernoulli)",
            ScenarioKind::MultiLabel => "Fig. 6",
            ScenarioKind::CriteoLike => "Fig. 7",
            ScenarioKind::SyntheticDrift => "beyond paper: preference drift",
            ScenarioKind::SyntheticChurn => "beyond paper: user churn",
            ScenarioKind::SyntheticDelayed => "beyond paper: delayed rewards",
            ScenarioKind::MediaMill | ScenarioKind::TextMining => "Fig. 6, Table 1",
            ScenarioKind::Criteo => "Fig. 7, Table 1",
        }
    }

    /// The delayed-reward join window of this scenario, in rounds; zero
    /// means every reward is observed in the round it was earned.
    #[must_use]
    pub fn max_reward_delay(&self) -> u64 {
        match self {
            ScenarioKind::SyntheticDelayed => DELAYED_MAX_REWARD_DELAY,
            _ => 0,
        }
    }
}

impl fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key())
    }
}

/// Shape parameters shared by every scenario of one matrix run.
///
/// Synthetic scenarios honor `context_dimension` / `num_actions` exactly; the
/// logged scenarios (multi-label, Criteo-like) use their own paper-faithful
/// shapes scaled down by `logged_instances`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioShape {
    /// Context dimension `d` of the synthetic scenarios.
    pub context_dimension: usize,
    /// Number of actions `A` of the synthetic scenarios.
    pub num_actions: usize,
    /// Reward scale `β` of the synthetic scenarios.
    pub beta: f64,
    /// Gaussian reward-noise variance `σ²` of the synthetic-Gaussian scenario.
    pub noise_variance: f64,
    /// Number of logged instances generated for the multi-label and
    /// Criteo-like scenarios (rounds cycle through them).
    pub logged_instances: usize,
}

impl Default for ScenarioShape {
    fn default() -> Self {
        Self {
            context_dimension: 6,
            num_actions: 8,
            // A stronger reward scale than the paper's β = 0.1 keeps the
            // regime ordering visible at small (CI-friendly) scales.
            beta: 0.8,
            noise_variance: 0.0025,
            logged_instances: 512,
        }
    }
}

/// One round's worth of data handed to the cell runner: the observed context
/// plus a reward oracle over every action.
pub(crate) struct Round {
    /// The observed context.
    pub context: Vector,
    /// Index of the backing logged instance (`None` for synthetic rounds).
    logged_index: Option<usize>,
}

/// A materialized scenario: the source of contexts and rewards for one cell.
///
/// Synthetic scenarios sample fresh contexts every round; logged scenarios
/// cycle deterministically through their generated instances.
#[derive(Clone)]
pub(crate) enum ScenarioData {
    Synthetic(SyntheticPreferenceEnvironment),
    /// Preference drift: round-aware, advanced at every `next_round`.
    Drifting {
        env: DriftingPreferenceEnvironment,
        started: bool,
    },
    /// Cohort churn: round-aware, advanced at every `next_round`.
    Churning {
        env: CohortChurnEnvironment,
        started: bool,
    },
    Logged {
        contexts: Vec<Vector>,
        /// `rewards[i][a]` is the reward of action `a` on instance `i`.
        rewards: Vec<Vec<f64>>,
        cursor: usize,
    },
}

impl ScenarioData {
    /// Builds the workload behind `kind`, seeding all generation from `rng`.
    pub fn build(
        kind: ScenarioKind,
        shape: &ScenarioShape,
        rng: &mut StdRng,
    ) -> Result<Self, ExperimentError> {
        match kind {
            ScenarioKind::SyntheticGaussian => {
                let config = SyntheticConfig::new(shape.context_dimension, shape.num_actions)
                    .with_beta(shape.beta)
                    .with_noise_variance(shape.noise_variance);
                Ok(ScenarioData::Synthetic(
                    SyntheticPreferenceEnvironment::new(config, rng)?,
                ))
            }
            ScenarioKind::SyntheticBernoulli => {
                let config = SyntheticConfig::new(shape.context_dimension, shape.num_actions)
                    .with_beta(shape.beta)
                    .with_bernoulli_rewards();
                Ok(ScenarioData::Synthetic(
                    SyntheticPreferenceEnvironment::new(config, rng)?,
                ))
            }
            ScenarioKind::SyntheticDrift => {
                let config = SyntheticConfig::new(shape.context_dimension, shape.num_actions)
                    .with_beta(shape.beta)
                    .with_noise_variance(shape.noise_variance);
                Ok(ScenarioData::Drifting {
                    env: DriftingPreferenceEnvironment::new(
                        config,
                        DriftConfig::new(crate::DRIFT_PERIOD_ROUNDS),
                        rng,
                    )?,
                    started: false,
                })
            }
            ScenarioKind::SyntheticChurn => {
                let config = SyntheticConfig::new(shape.context_dimension, shape.num_actions)
                    .with_beta(shape.beta)
                    .with_noise_variance(shape.noise_variance);
                Ok(ScenarioData::Churning {
                    env: CohortChurnEnvironment::new(
                        CohortChurnConfig::new(config)
                            .with_num_cohorts(crate::CHURN_COHORTS)
                            .with_rotation_period(crate::CHURN_ROTATION_PERIOD),
                        rng,
                    )?,
                    started: false,
                })
            }
            ScenarioKind::SyntheticDelayed => {
                // The environment is the stationary benchmark; the delay
                // lives in the cell runner's reward-join buffer.
                let config = SyntheticConfig::new(shape.context_dimension, shape.num_actions)
                    .with_beta(shape.beta)
                    .with_noise_variance(shape.noise_variance);
                Ok(ScenarioData::Synthetic(
                    SyntheticPreferenceEnvironment::new(config, rng)?,
                ))
            }
            ScenarioKind::MultiLabel => {
                let config = MultiLabelConfig::new(shape.logged_instances, 10, 8).with_clusters(12);
                Ok(Self::multi_label(&MultiLabelDataset::generate(
                    config, rng,
                )?))
            }
            ScenarioKind::MediaMill => Ok(Self::multi_label(&MultiLabelDataset::mediamill_like(
                shape.logged_instances,
                rng,
            )?)),
            ScenarioKind::TextMining => Ok(Self::multi_label(&MultiLabelDataset::textmining_like(
                shape.logged_instances,
                rng,
            )?)),
            ScenarioKind::CriteoLike => {
                let config = CriteoConfig::new()
                    .with_context_dimension(10)
                    .with_product_codes(8);
                let generator = CriteoLikeGenerator::new(config, rng)?;
                // The generator drops impressions outside the top-A product
                // codes, so oversample to land near the requested count.
                let impressions = generator.generate(shape.logged_instances * 2, rng)?;
                let count = shape.logged_instances.max(1);
                Ok(Self::impressions(
                    &impressions,
                    count,
                    config.num_product_codes,
                ))
            }
            ScenarioKind::Criteo => {
                let config = CriteoConfig::new();
                let generator = CriteoLikeGenerator::new(config, rng)?;
                // Oversample, then top up until the requested count is met.
                let wanted = shape.logged_instances.max(1);
                let mut impressions = generator.generate(wanted * 2, rng)?;
                while impressions.len() < wanted {
                    impressions.extend(generator.generate(wanted, rng)?);
                }
                Ok(Self::impressions(
                    &impressions,
                    wanted,
                    config.num_product_codes,
                ))
            }
        }
    }

    /// A logged workload over every instance of a multi-label dataset.
    fn multi_label(dataset: &MultiLabelDataset) -> Self {
        let num_labels = dataset.num_labels();
        let (contexts, rewards) = dataset
            .instances()
            .iter()
            .map(|inst| {
                let per_action: Vec<f64> = (0..num_labels).map(|a| inst.reward(a)).collect();
                (inst.context().clone(), per_action)
            })
            .unzip();
        ScenarioData::Logged {
            contexts,
            rewards,
            cursor: 0,
        }
    }

    /// A logged workload over the first `count` impressions of a click log
    /// with `num_actions` product codes.
    fn impressions(impressions: &[LoggedImpression], count: usize, num_actions: usize) -> Self {
        let (contexts, rewards) = impressions
            .iter()
            .take(count)
            .map(|imp| {
                let per_action: Vec<f64> = (0..num_actions).map(|a| imp.reward(a)).collect();
                (imp.context().clone(), per_action)
            })
            .unzip();
        ScenarioData::Logged {
            contexts,
            rewards,
            cursor: 0,
        }
    }

    /// Dimension of the contexts this scenario produces.
    pub fn context_dimension(&self) -> usize {
        match self {
            ScenarioData::Synthetic(env) => env.context_dimension(),
            ScenarioData::Drifting { env, .. } => env.context_dimension(),
            ScenarioData::Churning { env, .. } => env.context_dimension(),
            ScenarioData::Logged { contexts, .. } => {
                contexts.first().map_or(0, p2b_linalg::Vector::len)
            }
        }
    }

    /// Number of actions an agent selects between.
    pub fn num_actions(&self) -> usize {
        match self {
            ScenarioData::Synthetic(env) => env.num_actions(),
            ScenarioData::Drifting { env, .. } => env.num_actions(),
            ScenarioData::Churning { env, .. } => env.num_actions(),
            ScenarioData::Logged { rewards, .. } => rewards.first().map_or(0, Vec::len),
        }
    }

    /// Produces the next round's context. Round-aware (drifting/churning)
    /// scenarios advance their clock here, so every reward query between
    /// two `next_round` calls sees one consistent environment state.
    pub fn next_round(&mut self, rng: &mut StdRng) -> Round {
        match self {
            ScenarioData::Synthetic(env) => Round {
                context: env.sample_context(rng),
                logged_index: None,
            },
            ScenarioData::Drifting { env, started } => {
                if *started {
                    env.advance_round();
                }
                *started = true;
                Round {
                    context: env.sample_context(rng),
                    logged_index: None,
                }
            }
            ScenarioData::Churning { env, started } => {
                if *started {
                    env.advance_round(rng);
                }
                *started = true;
                Round {
                    context: env.sample_context(rng),
                    logged_index: None,
                }
            }
            ScenarioData::Logged {
                contexts, cursor, ..
            } => {
                let index = *cursor;
                *cursor = (*cursor + 1) % contexts.len();
                Round {
                    context: contexts[index].clone(),
                    logged_index: Some(index),
                }
            }
        }
    }

    /// Samples the realized reward of proposing `action` this round.
    pub fn sample_reward(
        &mut self,
        round: &Round,
        action: usize,
        rng: &mut StdRng,
    ) -> Result<f64, ExperimentError> {
        match (self, round.logged_index) {
            (ScenarioData::Synthetic(env), _) => {
                Ok(env.sample_reward(&round.context, action, rng)?)
            }
            (ScenarioData::Drifting { env, .. }, _) => {
                Ok(env.sample_reward(&round.context, action, rng)?)
            }
            (ScenarioData::Churning { env, .. }, _) => {
                Ok(env.sample_reward(&round.context, action, rng)?)
            }
            (ScenarioData::Logged { rewards, .. }, Some(index)) => Ok(rewards[index][action]),
            (ScenarioData::Logged { .. }, None) => Err(ExperimentError::InvalidConfig {
                parameter: "round",
                message: "logged scenario received a synthetic round".to_owned(),
            }),
        }
    }

    /// Expected reward of `action` this round (used for regret accounting).
    pub fn expected_reward(&self, round: &Round, action: usize) -> Result<f64, ExperimentError> {
        match (self, round.logged_index) {
            (ScenarioData::Synthetic(env), _) => Ok(env.expected_reward(&round.context, action)?),
            (ScenarioData::Drifting { env, .. }, _) => {
                Ok(env.expected_reward(&round.context, action)?)
            }
            (ScenarioData::Churning { env, .. }, _) => {
                Ok(env.expected_reward(&round.context, action)?)
            }
            (ScenarioData::Logged { rewards, .. }, Some(index)) => Ok(rewards[index][action]),
            (ScenarioData::Logged { .. }, None) => Err(ExperimentError::InvalidConfig {
                parameter: "round",
                message: "logged scenario received a synthetic round".to_owned(),
            }),
        }
    }

    /// Expected reward of the best action this round.
    pub fn optimal_reward(&self, round: &Round) -> Result<f64, ExperimentError> {
        match (self, round.logged_index) {
            (ScenarioData::Synthetic(env), _) => Ok(env.optimal_reward(&round.context)?),
            (ScenarioData::Drifting { env, .. }, _) => Ok(env.optimal_reward(&round.context)?),
            (ScenarioData::Churning { env, .. }, _) => Ok(env.optimal_reward(&round.context)?),
            (ScenarioData::Logged { rewards, .. }, Some(index)) => Ok(rewards[index]
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)),
            (ScenarioData::Logged { .. }, None) => Err(ExperimentError::InvalidConfig {
                parameter: "round",
                message: "logged scenario received a synthetic round".to_owned(),
            }),
        }
    }

    /// Samples a public corpus of contexts to fit the encoder on — from the
    /// context distribution for synthetic scenarios, from the logged contexts
    /// (cycling) otherwise. Mirrors the paper's setup where the encoder is
    /// fitted once on public/historical data and shipped to devices.
    ///
    /// Round-aware scenarios sample from their *initial* state, exactly like
    /// a production encoder fitted on historical data before the
    /// non-stationarity it will face.
    pub fn encoder_corpus(&mut self, size: usize, rng: &mut StdRng) -> Vec<Vector> {
        match self {
            ScenarioData::Synthetic(env) => (0..size).map(|_| env.sample_context(rng)).collect(),
            ScenarioData::Drifting { env, .. } => {
                (0..size).map(|_| env.sample_context(rng)).collect()
            }
            ScenarioData::Churning { env, .. } => {
                (0..size).map(|_| env.sample_context(rng)).collect()
            }
            ScenarioData::Logged { contexts, .. } => (0..size)
                .map(|i| contexts[i % contexts.len()].clone())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Every scenario, the held-out workloads included.
    fn every_kind() -> impl Iterator<Item = ScenarioKind> {
        ScenarioKind::ALL.into_iter().chain(ScenarioKind::HELD_OUT)
    }

    #[test]
    fn keys_and_figures_are_distinct() {
        let keys: std::collections::HashSet<_> = every_kind().map(|k| k.key()).collect();
        assert_eq!(keys.len(), every_kind().count());
        assert!(ScenarioKind::HELD_OUT
            .iter()
            .all(|k| !ScenarioKind::ALL.contains(k)));
        assert_eq!(ScenarioKind::MultiLabel.to_string(), "multilabel");
        assert!(ScenarioKind::CriteoLike.paper_figure().contains('7'));
    }

    #[test]
    fn every_scenario_builds_and_produces_consistent_rounds() {
        let shape = ScenarioShape {
            logged_instances: 64,
            ..ScenarioShape::default()
        };
        for kind in every_kind() {
            let mut rng = StdRng::seed_from_u64(3);
            let mut data = ScenarioData::build(kind, &shape, &mut rng).unwrap();
            assert!(data.context_dimension() > 0, "{kind}");
            assert!(data.num_actions() > 1, "{kind}");
            for _ in 0..10 {
                let round = data.next_round(&mut rng);
                assert_eq!(round.context.len(), data.context_dimension());
                let optimal = data.optimal_reward(&round).unwrap();
                for a in 0..data.num_actions() {
                    let expected = data.expected_reward(&round, a).unwrap();
                    let realized = data.sample_reward(&round, a, &mut rng).unwrap();
                    assert!((0.0..=1.0).contains(&realized), "{kind} reward {realized}");
                    assert!(expected <= optimal + 1e-12);
                }
            }
            let corpus = data.encoder_corpus(16, &mut rng);
            assert_eq!(corpus.len(), 16);
        }
    }

    #[test]
    fn held_out_scenarios_have_the_papers_shapes() {
        let shape = ScenarioShape {
            logged_instances: 300,
            ..ScenarioShape::default()
        };
        for (kind, d, a) in [
            (ScenarioKind::MediaMill, 20, 40),
            (ScenarioKind::TextMining, 20, 22),
            (ScenarioKind::Criteo, 10, 40),
        ] {
            let data = ScenarioData::build(kind, &shape, &mut StdRng::seed_from_u64(1)).unwrap();
            assert_eq!(
                (data.context_dimension(), data.num_actions()),
                (d, a),
                "{kind}"
            );
            // The log holds exactly the requested instances, so rounds cycle
            // only after `logged_instances` of them.
            let ScenarioData::Logged { contexts, .. } = &data else {
                panic!("{kind} is a logged scenario");
            };
            assert_eq!(contexts.len(), 300, "{kind}");
        }
    }

    #[test]
    fn logged_rounds_cycle_deterministically() {
        let shape = ScenarioShape {
            logged_instances: 8,
            ..ScenarioShape::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut data = ScenarioData::build(ScenarioKind::MultiLabel, &shape, &mut rng).unwrap();
        let first = data.next_round(&mut rng).context;
        for _ in 0..7 {
            data.next_round(&mut rng);
        }
        let wrapped = data.next_round(&mut rng).context;
        assert_eq!(first.as_slice(), wrapped.as_slice());
    }
}
