//! Preference drift: the synthetic benchmark with rotating reward means.
//!
//! Warm-starting from a privatized central model is stress-tested hardest
//! when the reward structure is *non-stationary* — the regime LDP bandit
//! work (Han et al., *Generalized Linear Bandits with Local Differential
//! Privacy*) and multi-party contextual-bandit work (Hannun et al.) care
//! about. [`DriftingPreferenceEnvironment`] makes the stationary benchmark
//! of Section 5.1 drift: every [`DriftConfig::period_rounds`] rounds the
//! action→reward mapping rotates by one position, so the action that used
//! to be optimal for a context hands its reward mass to the next one.
//! Policies (and the warm starts feeding them) must keep re-learning.

use crate::{ContextualEnvironment, DatasetError, SyntheticConfig, SyntheticPreferenceEnvironment};
use p2b_linalg::Vector;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of a [`DriftingPreferenceEnvironment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Rounds between drift steps: after every `period_rounds` rounds the
    /// reward means rotate by one action.
    pub period_rounds: u64,
}

impl DriftConfig {
    /// Creates a drift configuration rotating every `period_rounds` rounds.
    #[must_use]
    pub fn new(period_rounds: u64) -> Self {
        Self { period_rounds }
    }

    fn validate(&self) -> Result<(), DatasetError> {
        if self.period_rounds == 0 {
            return Err(DatasetError::InvalidConfig {
                parameter: "period_rounds",
                message: "must be at least 1".to_owned(),
            });
        }
        Ok(())
    }
}

/// The synthetic preference benchmark with rotating reward means.
///
/// Wraps a [`SyntheticPreferenceEnvironment`]; at round `t` the mean reward
/// of action `a` is the base environment's mean of action
/// `(a + t / period) mod A`. The context distribution is untouched — only
/// the reward structure drifts, which isolates the policy's (and warm
/// start's) tracking ability from encoder effects.
///
/// The environment is round-aware: callers advance it explicitly with
/// [`DriftingPreferenceEnvironment::advance_round`], so one environment can
/// serve any number of users per round.
#[derive(Debug, Clone)]
pub struct DriftingPreferenceEnvironment {
    base: SyntheticPreferenceEnvironment,
    drift: DriftConfig,
    round: u64,
}

impl DriftingPreferenceEnvironment {
    /// Creates a drifting environment over a freshly sampled base benchmark.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] for invalid configurations.
    pub fn new<R: Rng + ?Sized>(
        config: SyntheticConfig,
        drift: DriftConfig,
        rng: &mut R,
    ) -> Result<Self, DatasetError> {
        drift.validate()?;
        Ok(Self {
            base: SyntheticPreferenceEnvironment::new(config, rng)?,
            drift,
            round: 0,
        })
    }

    /// The drift configuration.
    #[must_use]
    pub fn drift(&self) -> &DriftConfig {
        &self.drift
    }

    /// The current round.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The current rotation offset applied to action indices.
    #[must_use]
    pub fn shift(&self) -> usize {
        let num_actions = self.base.config().num_actions as u64;
        ((self.round / self.drift.period_rounds) % num_actions) as usize
    }

    /// Advances the environment by one round.
    pub fn advance_round(&mut self) {
        self.round += 1;
    }
}

impl ContextualEnvironment for DriftingPreferenceEnvironment {
    fn context_dimension(&self) -> usize {
        self.base.context_dimension()
    }

    fn num_actions(&self) -> usize {
        self.base.num_actions()
    }

    fn sample_context(&mut self, rng: &mut dyn rand::RngCore) -> Vector {
        self.base.sample_context(rng)
    }

    /// The base environment's means, rotated: entry `a` is the base mean
    /// of action `(a + shift) mod A`.
    fn mean_rewards_into(
        &self,
        context: &Vector,
        means: &mut Vec<f64>,
    ) -> Result<(), DatasetError> {
        self.base.mean_rewards_into(context, means)?;
        means.rotate_left(self.shift());
        Ok(())
    }

    fn realize_reward(&self, mean: f64, rng: &mut dyn rand::RngCore) -> Result<f64, DatasetError> {
        self.base.realize_reward(mean, rng)
    }

    fn name(&self) -> &'static str {
        "synthetic-drift"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn env(period: u64) -> DriftingPreferenceEnvironment {
        let mut rng = StdRng::seed_from_u64(1);
        DriftingPreferenceEnvironment::new(
            SyntheticConfig::new(4, 3).with_beta(0.9),
            DriftConfig::new(period),
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn rejects_zero_period() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(DriftingPreferenceEnvironment::new(
            SyntheticConfig::new(4, 3),
            DriftConfig::new(0),
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn before_the_first_period_rewards_match_the_base() {
        let drifting = env(10);
        // Same seed, same construction stream: the base environment carries
        // the same latent weight matrix.
        let base = SyntheticPreferenceEnvironment::new(
            SyntheticConfig::new(4, 3).with_beta(0.9),
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap();
        let ctx = Vector::from(vec![0.4, 0.3, 0.2, 0.1]);
        for a in 0..3 {
            assert_eq!(
                drifting.expected_reward(&ctx, a).unwrap().to_bits(),
                base.expected_reward(&ctx, a).unwrap().to_bits()
            );
        }
        assert_eq!(drifting.shift(), 0);
    }

    #[test]
    fn rotation_moves_the_optimal_action() {
        let mut env = env(5);
        let ctx = Vector::from(vec![0.7, 0.1, 0.1, 0.1]);
        let means_before: Vec<f64> = (0..3)
            .map(|a| env.expected_reward(&ctx, a).unwrap())
            .collect();
        for _ in 0..5 {
            env.advance_round();
        }
        assert_eq!(env.shift(), 1);
        let means_after: Vec<f64> = (0..3)
            .map(|a| env.expected_reward(&ctx, a).unwrap())
            .collect();
        // A one-step rotation: action a now pays what a+1 paid before.
        for a in 0..3 {
            assert_eq!(
                means_after[a].to_bits(),
                means_before[(a + 1) % 3].to_bits()
            );
        }
    }

    #[test]
    fn shift_wraps_around_the_action_count() {
        let mut env = env(1);
        for _ in 0..3 {
            env.advance_round();
        }
        assert_eq!(env.shift(), 0, "3 steps over 3 actions wraps to identity");
        assert_eq!(env.round(), 3);
    }

    #[test]
    fn out_of_range_actions_still_error() {
        let env = env(4);
        let ctx = Vector::filled(4, 0.25);
        assert!(env.expected_reward(&ctx, 3).is_err());
    }

    #[test]
    fn sampled_rewards_follow_the_rotated_means() {
        // Zero noise makes sampling exact, so the rotation is observable
        // without any statistical tolerance.
        let mut rng = StdRng::seed_from_u64(9);
        let mut env = DriftingPreferenceEnvironment::new(
            SyntheticConfig::new(4, 3)
                .with_beta(0.9)
                .with_noise_variance(0.0),
            DriftConfig::new(2),
            &mut rng,
        )
        .unwrap();
        let ctx = env.sample_context(&mut rng);
        for _ in 0..4 {
            env.advance_round();
        }
        for action in 0..3 {
            let expected = env.expected_reward(&ctx, action).unwrap();
            let sampled = env.sample_reward(&ctx, action, &mut rng).unwrap();
            assert_eq!(sampled.to_bits(), expected.to_bits());
        }
    }
}
