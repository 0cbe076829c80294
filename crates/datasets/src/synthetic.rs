//! The synthetic preference benchmark of Section 5.1.

use crate::environment::check_action;
use crate::{ContextualEnvironment, DatasetError};
use p2b_linalg::{softmax, Matrix, Vector};
use rand::Rng;
use rand_distr::{Distribution, Normal, StandardNormal};
use serde::{Deserialize, Serialize};

/// Configuration of a [`SyntheticPreferenceEnvironment`].
///
/// Defaults follow the paper: `β = 0.1`, `σ² = 0.01`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Context dimension `d`.
    pub context_dimension: usize,
    /// Number of actions `A`.
    pub num_actions: usize,
    /// Reward scaling factor `β ∈ [0, 1]`.
    pub beta: f64,
    /// Variance `σ²` of the additive Gaussian reward noise.
    pub noise_variance: f64,
    /// When `true`, realized rewards are Bernoulli draws with the mean
    /// `β·softmax(Wx)_a` instead of the mean plus Gaussian noise. Expected
    /// rewards (and hence regret accounting) are identical in both modes.
    pub bernoulli_rewards: bool,
}

impl SyntheticConfig {
    /// Creates a configuration with the paper's default `β = 0.1`,
    /// `σ² = 0.01` and Gaussian reward noise.
    #[must_use]
    pub fn new(context_dimension: usize, num_actions: usize) -> Self {
        Self {
            context_dimension,
            num_actions,
            beta: 0.1,
            noise_variance: 0.01,
            bernoulli_rewards: false,
        }
    }

    /// Sets the reward scaling factor `β`.
    #[must_use]
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the reward noise variance `σ²`.
    #[must_use]
    pub fn with_noise_variance(mut self, noise_variance: f64) -> Self {
        self.noise_variance = noise_variance;
        self
    }

    /// Switches realized rewards to Bernoulli draws with mean
    /// `β·softmax(Wx)_a` (click-like 0/1 feedback).
    #[must_use]
    pub fn with_bernoulli_rewards(mut self) -> Self {
        self.bernoulli_rewards = true;
        self
    }

    fn validate(&self) -> Result<(), DatasetError> {
        if self.context_dimension == 0 {
            return Err(DatasetError::InvalidConfig {
                parameter: "context_dimension",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.num_actions == 0 {
            return Err(DatasetError::InvalidConfig {
                parameter: "num_actions",
                message: "must be at least 1".to_owned(),
            });
        }
        if !self.beta.is_finite() || !(0.0..=1.0).contains(&self.beta) {
            return Err(DatasetError::InvalidConfig {
                parameter: "beta",
                message: format!("must lie in [0, 1], got {}", self.beta),
            });
        }
        if !self.noise_variance.is_finite() || self.noise_variance < 0.0 {
            return Err(DatasetError::InvalidConfig {
                parameter: "noise_variance",
                message: format!(
                    "must be a finite non-negative number, got {}",
                    self.noise_variance
                ),
            });
        }
        Ok(())
    }
}

/// The synthetic preference benchmark.
///
/// A fixed random weight matrix `W ∈ ℝ^{A×d}` relates contexts to action
/// preferences. The mean reward of action `a` under context `x` is
/// `r̄_{t,a} = β·softmax(Wx)_a + z` with `z ~ 𝒩(0, σ²)`; sampled rewards are
/// clipped to `[0, 1]` to satisfy the bandit setting's reward range.
/// Contexts are drawn uniformly from the probability simplex (normalized
/// exponentials), matching P2B's assumption of normalized context vectors
/// with no informative prior.
#[derive(Debug, Clone)]
pub struct SyntheticPreferenceEnvironment {
    config: SyntheticConfig,
    weights: Matrix,
}

impl SyntheticPreferenceEnvironment {
    /// Creates an environment with a freshly sampled weight matrix.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] for invalid configurations.
    pub fn new<R: Rng + ?Sized>(
        config: SyntheticConfig,
        rng: &mut R,
    ) -> Result<Self, DatasetError> {
        config.validate()?;
        let mut rows = Vec::with_capacity(config.num_actions);
        for _ in 0..config.num_actions {
            let row: Vec<f64> = (0..config.context_dimension)
                .map(|_| {
                    let x: f64 = StandardNormal.sample(rng);
                    // Spread the preferences so the softmax is peaked: the best
                    // action for a context then carries most of the β reward
                    // mass, which is what makes the cold/warm gap of Figure 4
                    // observable above the reward noise.
                    8.0 * x
                })
                .collect();
            rows.push(row);
        }
        let weights = Matrix::from_rows(&rows)?;
        Ok(Self { config, weights })
    }

    /// The configuration of this environment.
    #[must_use]
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }

    /// The latent preference weight matrix `W`.
    #[must_use]
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mean rewards `β·softmax(Wx)` of every action under `context`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Linalg`] when the context dimension is wrong.
    pub fn mean_rewards(&self, context: &Vector) -> Result<Vec<f64>, DatasetError> {
        let logits = self.weights.matvec(context)?;
        Ok(softmax(logits.as_slice())
            .into_iter()
            .map(|p| self.config.beta * p)
            .collect())
    }

    /// The index of the best action under `context`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Linalg`] when the context dimension is wrong.
    pub fn optimal_action(&self, context: &Vector) -> Result<usize, DatasetError> {
        let means = self.mean_rewards(context)?;
        Ok(p2b_linalg::argmax(&means).unwrap_or(0))
    }
}

impl ContextualEnvironment for SyntheticPreferenceEnvironment {
    fn context_dimension(&self) -> usize {
        self.config.context_dimension
    }

    fn num_actions(&self) -> usize {
        self.config.num_actions
    }

    fn sample_context(&mut self, rng: &mut dyn rand::RngCore) -> Vector {
        // Uniform Dirichlet(1, ..., 1) sample: normalized exponentials.
        let raw: Vec<f64> = (0..self.config.context_dimension)
            .map(|_| {
                let u: f64 = (*rng).gen::<f64>().max(1e-12);
                -u.ln()
            })
            .collect();
        // Normalization fails only on an empty vector, which construction
        // rules out; an empty one would come back unchanged.
        let context = Vector::from(raw);
        context.normalized_l1().unwrap_or(context)
    }

    fn sample_reward(
        &mut self,
        context: &Vector,
        action: usize,
        rng: &mut dyn rand::RngCore,
    ) -> Result<f64, DatasetError> {
        let mean = self.expected_reward(context, action)?;
        if self.config.bernoulli_rewards {
            let draw: f64 = (*rng).gen();
            return Ok(if draw < mean { 1.0 } else { 0.0 });
        }
        let noise = if self.config.noise_variance > 0.0 {
            let normal = Normal::new(0.0, self.config.noise_variance.sqrt()).map_err(|_| {
                DatasetError::InvalidConfig {
                    parameter: "noise_variance",
                    message: "not representable".to_owned(),
                }
            })?;
            normal.sample(&mut *rng)
        } else {
            0.0
        };
        Ok((mean + noise).clamp(0.0, 1.0))
    }

    fn expected_reward(&self, context: &Vector, action: usize) -> Result<f64, DatasetError> {
        check_action(self.config.num_actions, action)?;
        let means = self.mean_rewards(context)?;
        Ok(means[action])
    }

    fn name(&self) -> &'static str {
        "synthetic-preference"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn env(d: usize, a: usize, seed: u64) -> SyntheticPreferenceEnvironment {
        let mut rng = StdRng::seed_from_u64(seed);
        SyntheticPreferenceEnvironment::new(SyntheticConfig::new(d, a), &mut rng).unwrap()
    }

    #[test]
    fn rejects_invalid_configurations() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(SyntheticPreferenceEnvironment::new(SyntheticConfig::new(0, 5), &mut rng).is_err());
        assert!(SyntheticPreferenceEnvironment::new(SyntheticConfig::new(5, 0), &mut rng).is_err());
        assert!(SyntheticPreferenceEnvironment::new(
            SyntheticConfig::new(5, 5).with_beta(1.5),
            &mut rng
        )
        .is_err());
        assert!(SyntheticPreferenceEnvironment::new(
            SyntheticConfig::new(5, 5).with_noise_variance(-0.1),
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn contexts_live_on_the_simplex() {
        let mut env = env(10, 20, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let ctx = env.sample_context(&mut rng);
            assert_eq!(ctx.len(), 10);
            assert!((ctx.sum() - 1.0).abs() < 1e-9);
            assert!(ctx.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn mean_rewards_sum_to_beta_and_are_bounded() {
        let env = env(5, 10, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let ctx = {
            let mut e = env.clone();
            e.sample_context(&mut rng)
        };
        let means = env.mean_rewards(&ctx).unwrap();
        assert_eq!(means.len(), 10);
        assert!((means.iter().sum::<f64>() - 0.1).abs() < 1e-9);
        assert!(means.iter().all(|&m| (0.0..=0.1).contains(&m)));
    }

    #[test]
    fn sampled_rewards_stay_in_unit_interval() {
        let mut env = env(5, 10, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let ctx = env.sample_context(&mut rng);
        for action in 0..10 {
            for _ in 0..20 {
                let r = env.sample_reward(&ctx, action, &mut rng).unwrap();
                assert!((0.0..=1.0).contains(&r));
            }
        }
    }

    #[test]
    fn expected_reward_validates_action() {
        let env = env(5, 10, 7);
        let ctx = Vector::filled(5, 0.2);
        assert!(env.expected_reward(&ctx, 10).is_err());
        assert!(env.expected_reward(&ctx, 9).is_ok());
    }

    #[test]
    fn optimal_action_maximizes_expected_reward() {
        let env = env(4, 6, 8);
        let ctx = Vector::from(vec![0.4, 0.3, 0.2, 0.1]);
        let best = env.optimal_action(&ctx).unwrap();
        let best_reward = env.expected_reward(&ctx, best).unwrap();
        for a in 0..6 {
            assert!(env.expected_reward(&ctx, a).unwrap() <= best_reward + 1e-12);
        }
        assert!((env.optimal_reward(&ctx).unwrap() - best_reward).abs() < 1e-12);
    }

    #[test]
    fn different_contexts_can_prefer_different_actions() {
        // With a spread-out weight matrix, at least two of a handful of very
        // different contexts should have different optimal actions.
        let env = env(6, 12, 9);
        let optima: std::collections::HashSet<usize> = (0..6)
            .map(|i| env.optimal_action(&Vector::basis(6, i)).unwrap())
            .collect();
        assert!(
            optima.len() > 1,
            "environment has a context-independent optimum"
        );
    }

    #[test]
    fn zero_noise_makes_rewards_deterministic() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut env = SyntheticPreferenceEnvironment::new(
            SyntheticConfig::new(4, 5).with_noise_variance(0.0),
            &mut rng,
        )
        .unwrap();
        let ctx = Vector::filled(4, 0.25);
        let a = env.sample_reward(&ctx, 2, &mut rng).unwrap();
        let b = env.sample_reward(&ctx, 2, &mut rng).unwrap();
        assert_eq!(a, b);
        assert!((a - env.expected_reward(&ctx, 2).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn bernoulli_rewards_are_binary_with_the_right_rate() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut env = SyntheticPreferenceEnvironment::new(
            SyntheticConfig::new(4, 3)
                .with_beta(0.9)
                .with_bernoulli_rewards(),
            &mut rng,
        )
        .unwrap();
        let ctx = env.sample_context(&mut rng);
        let mean = env.expected_reward(&ctx, 1).unwrap();
        let trials = 20_000;
        let mut hits = 0u32;
        for _ in 0..trials {
            let r = env.sample_reward(&ctx, 1, &mut rng).unwrap();
            assert!(r == 0.0 || r == 1.0, "Bernoulli rewards must be 0/1");
            if r == 1.0 {
                hits += 1;
            }
        }
        let rate = f64::from(hits) / f64::from(trials);
        assert!(
            (rate - mean).abs() < 0.02,
            "observed click rate {rate}, expected {mean}"
        );
    }
}
