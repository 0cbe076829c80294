//! User churn as a cohort-churn environment.
//!
//! The paper's deployment population is never static — users install, go
//! quiet and return. [`CohortChurnEnvironment`] is the population-composition
//! view of that churn for the experiment matrix: contexts are drawn from a
//! rotating set of *cohorts* (tight context clusters standing in for user
//! segments); every [`CohortChurnConfig::rotation_period`] rounds the oldest
//! cohort departs and a freshly sampled one arrives, so the context
//! distribution the encoder and policies face keeps moving while the latent
//! reward weights stay fixed.

use crate::{ContextualEnvironment, DatasetError, SyntheticConfig, SyntheticPreferenceEnvironment};
use p2b_linalg::Vector;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a [`CohortChurnEnvironment`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CohortChurnConfig {
    /// The stationary reward model (dimension, actions, β, noise).
    pub synthetic: SyntheticConfig,
    /// Number of concurrently active cohorts.
    pub num_cohorts: usize,
    /// Rounds between cohort replacements (oldest out, fresh one in).
    pub rotation_period: u64,
    /// Mixing weight of the cohort center in a sampled context
    /// (`0` = ignore cohorts, `1` = contexts sit exactly on the center).
    pub concentration: f64,
}

impl CohortChurnConfig {
    /// Creates a cohort-churn configuration with 4 cohorts, rotation every
    /// 50 rounds and concentration 0.8.
    #[must_use]
    pub fn new(synthetic: SyntheticConfig) -> Self {
        Self {
            synthetic,
            num_cohorts: 4,
            rotation_period: 50,
            concentration: 0.8,
        }
    }

    /// Sets the number of concurrently active cohorts.
    #[must_use]
    pub fn with_num_cohorts(mut self, num_cohorts: usize) -> Self {
        self.num_cohorts = num_cohorts;
        self
    }

    /// Sets the rotation period in rounds.
    #[must_use]
    pub fn with_rotation_period(mut self, rotation_period: u64) -> Self {
        self.rotation_period = rotation_period;
        self
    }

    fn validate(&self) -> Result<(), DatasetError> {
        if self.num_cohorts == 0 {
            return Err(DatasetError::InvalidConfig {
                parameter: "num_cohorts",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.rotation_period == 0 {
            return Err(DatasetError::InvalidConfig {
                parameter: "rotation_period",
                message: "must be at least 1".to_owned(),
            });
        }
        if !self.concentration.is_finite() || !(0.0..=1.0).contains(&self.concentration) {
            return Err(DatasetError::InvalidConfig {
                parameter: "concentration",
                message: format!("must lie in [0, 1], got {}", self.concentration),
            });
        }
        Ok(())
    }
}

/// The population-composition view of user churn; see the module docs.
#[derive(Debug, Clone)]
pub struct CohortChurnEnvironment {
    config: CohortChurnConfig,
    base: SyntheticPreferenceEnvironment,
    cohorts: Vec<Vector>,
    round: u64,
    rotations: u64,
}

impl CohortChurnEnvironment {
    /// Creates the environment, sampling the latent reward weights and the
    /// initial cohort centers from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] for invalid configurations.
    pub fn new<R: Rng>(config: CohortChurnConfig, rng: &mut R) -> Result<Self, DatasetError> {
        config.validate()?;
        let mut base = SyntheticPreferenceEnvironment::new(config.synthetic, rng)?;
        let cohorts = (0..config.num_cohorts)
            .map(|_| base.sample_context(rng))
            .collect();
        Ok(Self {
            config,
            base,
            cohorts,
            round: 0,
            rotations: 0,
        })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &CohortChurnConfig {
        &self.config
    }

    /// Number of cohort replacements performed so far.
    #[must_use]
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// The active cohort centers.
    #[must_use]
    pub fn cohorts(&self) -> &[Vector] {
        &self.cohorts
    }

    /// Advances one round; on rotation boundaries the oldest cohort departs
    /// and a freshly sampled center (drawn from `rng`) arrives.
    pub fn advance_round(&mut self, rng: &mut dyn rand::RngCore) {
        self.round += 1;
        if self.round % self.config.rotation_period == 0 {
            self.cohorts.remove(0);
            let fresh = self.base.sample_context(rng);
            self.cohorts.push(fresh);
            self.rotations += 1;
        }
    }
}

impl ContextualEnvironment for CohortChurnEnvironment {
    fn context_dimension(&self) -> usize {
        self.base.context_dimension()
    }

    fn num_actions(&self) -> usize {
        self.base.num_actions()
    }

    fn sample_context(&mut self, rng: &mut dyn rand::RngCore) -> Vector {
        let cohort = (*rng).gen_range(0..self.cohorts.len());
        let center = self.cohorts[cohort].clone();
        let fresh = self.base.sample_context(rng);
        // Convex mix of the cohort center and an individual draw: both are
        // simplex points, so the mix is one too.
        let c = self.config.concentration;
        let mixed: Vec<f64> = center
            .iter()
            .zip(fresh.iter())
            .map(|(&m, &f)| c * m + (1.0 - c) * f)
            .collect();
        // Normalization fails only on an empty vector, which construction
        // rules out; an empty one would come back unchanged.
        let context = Vector::from(mixed);
        context.normalized_l1().unwrap_or(context)
    }

    /// The base environment's means: churn moves the contexts, not the
    /// reward model.
    fn mean_rewards_into(
        &self,
        context: &Vector,
        means: &mut Vec<f64>,
    ) -> Result<(), DatasetError> {
        self.base.mean_rewards_into(context, means)
    }

    fn realize_reward(&self, mean: f64, rng: &mut dyn rand::RngCore) -> Result<f64, DatasetError> {
        self.base.realize_reward(mean, rng)
    }

    fn name(&self) -> &'static str {
        "cohort-churn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cohort_environment_rotates_on_schedule() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = CohortChurnConfig::new(SyntheticConfig::new(4, 3)).with_rotation_period(10);
        let mut env = CohortChurnEnvironment::new(config, &mut rng).unwrap();
        let before = env.cohorts().to_vec();
        for _ in 0..9 {
            env.advance_round(&mut rng);
        }
        assert_eq!(env.rotations(), 0);
        env.advance_round(&mut rng);
        assert_eq!(env.rotations(), 1);
        let after = env.cohorts();
        assert_eq!(after.len(), before.len());
        // The oldest departed, the rest shifted down.
        assert_eq!(after[0].as_slice(), before[1].as_slice());
    }

    #[test]
    fn cohort_contexts_stay_on_the_simplex() {
        let mut rng = StdRng::seed_from_u64(6);
        let config = CohortChurnConfig::new(SyntheticConfig::new(6, 4));
        let mut env = CohortChurnEnvironment::new(config, &mut rng).unwrap();
        for _ in 0..50 {
            let ctx = env.sample_context(&mut rng);
            assert_eq!(ctx.len(), 6);
            assert!((ctx.sum() - 1.0).abs() < 1e-9);
            assert!(ctx.iter().all(|&x| x >= 0.0));
            env.advance_round(&mut rng);
        }
    }

    #[test]
    fn cohort_validation_rejects_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        let base = SyntheticConfig::new(4, 3);
        assert!(CohortChurnEnvironment::new(
            CohortChurnConfig::new(base).with_num_cohorts(0),
            &mut rng
        )
        .is_err());
        assert!(CohortChurnEnvironment::new(
            CohortChurnConfig::new(base).with_rotation_period(0),
            &mut rng
        )
        .is_err());
        let mut bad = CohortChurnConfig::new(base);
        bad.concentration = 1.5;
        assert!(CohortChurnEnvironment::new(bad, &mut rng).is_err());
    }
}
