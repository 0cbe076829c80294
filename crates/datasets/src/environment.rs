//! The contextual-environment abstraction driven by the simulation engine.

use crate::DatasetError;
use p2b_linalg::Vector;
use rand::RngCore;

/// A stochastic contextual-bandit environment.
///
/// At each round the environment produces a context; the agent proposes an
/// action; the environment reveals the (bandit-feedback) reward of that
/// action only. Environments also expose the *expected* reward of every
/// action so the harness can compute the per-round optimum and hence regret,
/// something the real world would not reveal but a simulator can.
///
/// The reward side is two required methods: [`Self::mean_rewards_into`]
/// writes every action's mean reward under a context, and
/// [`Self::realize_reward`] turns one mean into a realized reward (the
/// noise step). A caller that needs several rewards of one round evaluates
/// the mean vector once and reads it; [`Self::expected_reward`],
/// [`Self::optimal_reward`] and [`Self::sample_reward`] are that read for a
/// single query, each evaluating the vector afresh.
///
/// The trait is object-safe so experiments can hold `Box<dyn ContextualEnvironment>`.
pub trait ContextualEnvironment: Send {
    /// Dimension of the context vectors produced by this environment.
    fn context_dimension(&self) -> usize;

    /// Number of actions an agent may propose.
    fn num_actions(&self) -> usize;

    /// Draws the next context.
    fn sample_context(&mut self, rng: &mut dyn RngCore) -> Vector;

    /// Replaces the contents of `means` with the expected reward (no noise)
    /// of every action under `context`, indexed by action: the one
    /// evaluation of the environment's reward model. Draws no randomness.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Linalg`] when the context is malformed.
    fn mean_rewards_into(&self, context: &Vector, means: &mut Vec<f64>)
        -> Result<(), DatasetError>;

    /// A realized reward of an action whose expected reward is `mean`: the
    /// environment's noise step, which draws from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] when the noise model cannot
    /// be represented.
    fn realize_reward(&self, mean: f64, rng: &mut dyn RngCore) -> Result<f64, DatasetError>;

    /// Samples the reward of proposing `action` under `context`: its
    /// [`Self::expected_reward`], then [`Self::realize_reward`].
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidAction`] when the action is out of
    /// range and [`DatasetError::Linalg`] when the context is malformed.
    fn sample_reward(
        &mut self,
        context: &Vector,
        action: usize,
        rng: &mut dyn RngCore,
    ) -> Result<f64, DatasetError> {
        let mean = self.expected_reward(context, action)?;
        self.realize_reward(mean, rng)
    }

    /// Expected reward of `action` under `context` (no noise): entry
    /// `action` of [`Self::mean_rewards_into`].
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Self::sample_reward`].
    fn expected_reward(&self, context: &Vector, action: usize) -> Result<f64, DatasetError> {
        check_action(self.num_actions(), action)?;
        let mut means = Vec::with_capacity(self.num_actions());
        self.mean_rewards_into(context, &mut means)?;
        Ok(means[action])
    }

    /// Expected reward of the best action under `context` — the per-round
    /// optimum used for regret accounting: the largest entry of
    /// [`Self::mean_rewards_into`] ([`best_mean`]).
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::Linalg`] when the context is malformed.
    fn optimal_reward(&self, context: &Vector) -> Result<f64, DatasetError> {
        let mut means = Vec::with_capacity(self.num_actions());
        self.mean_rewards_into(context, &mut means)?;
        Ok(best_mean(&means))
    }

    /// Short human-readable environment name for experiment reports.
    fn name(&self) -> &'static str;
}

/// The largest of `means`, folded from `-∞` in action order: the per-round
/// optimum of a mean-reward vector (`-∞` for no actions).
#[must_use]
pub fn best_mean(means: &[f64]) -> f64 {
    means.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Validates an action index against the environment's action count.
pub(crate) fn check_action(num_actions: usize, action: usize) -> Result<(), DatasetError> {
    if action >= num_actions {
        return Err(DatasetError::InvalidAction {
            action,
            num_actions,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal deterministic environment used to test the default method.
    struct Toy;

    impl ContextualEnvironment for Toy {
        fn context_dimension(&self) -> usize {
            1
        }
        fn num_actions(&self) -> usize {
            3
        }
        fn sample_context(&mut self, _rng: &mut dyn RngCore) -> Vector {
            Vector::from(vec![1.0])
        }
        fn mean_rewards_into(
            &self,
            _context: &Vector,
            means: &mut Vec<f64>,
        ) -> Result<(), DatasetError> {
            means.clear();
            means.extend((0..3).map(|action| f64::from(action) / 4.0));
            Ok(())
        }
        fn realize_reward(&self, mean: f64, _rng: &mut dyn RngCore) -> Result<f64, DatasetError> {
            Ok(mean)
        }
        fn name(&self) -> &'static str {
            "toy"
        }
    }

    #[test]
    fn optimal_reward_is_the_max_over_actions() {
        let toy = Toy;
        let ctx = Vector::from(vec![1.0]);
        assert!((toy.optimal_reward(&ctx).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn provided_rewards_read_the_mean_vector() {
        let mut toy = Toy;
        let ctx = Vector::from(vec![1.0]);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        assert_eq!(toy.expected_reward(&ctx, 1).unwrap(), 0.25);
        assert_eq!(toy.sample_reward(&ctx, 2, &mut rng).unwrap(), 0.5);
        assert!(toy.expected_reward(&ctx, 3).is_err());
        assert!(toy.sample_reward(&ctx, 3, &mut rng).is_err());
        assert_eq!(best_mean(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn check_action_validates_range() {
        assert!(check_action(3, 2).is_ok());
        assert!(check_action(3, 3).is_err());
    }
}
