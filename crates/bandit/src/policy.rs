//! The per-report contextual-bandit loop and its input checks.

use crate::BanditError;
use p2b_linalg::Vector;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Reward obtained for a proposed action, constrained to `[0, 1]` as in the
/// paper's problem statement (`r_{t,a} ∈ [0, 1]`).
pub type Reward = f64;

/// A selected arm / action.
///
/// Newtype over the arm index so that the action space cannot be confused
/// with context codes or label indices elsewhere in the workspace.
///
/// ```
/// let a = p2b_bandit::Action::new(3);
/// assert_eq!(a.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Action(usize);

impl Action {
    /// Wraps an arm index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// The underlying arm index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for Action {
    fn from(index: usize) -> Self {
        Self(index)
    }
}

impl From<Action> for usize {
    fn from(action: Action) -> Self {
        action.0
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// The per-report contextual-bandit loop, implemented by [`crate::LinUcb`].
///
/// At each round the agent observes a `d`-dimensional context, proposes one
/// of `A` actions and then observes the reward of the *chosen* action only
/// (bandit feedback). Selection is deterministic given the RNG passed in,
/// so that experiments are reproducible from a seed. The shape of a model
/// is read from its configuration ([`crate::LinUcb::config`]).
pub trait ContextualPolicy: Send {
    /// Proposes an action for the observed context.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::ContextDimensionMismatch`] when the context
    /// dimension is wrong.
    fn select_action(
        &mut self,
        context: &Vector,
        rng: &mut dyn rand::RngCore,
    ) -> Result<Action, BanditError>;

    /// Feeds back the reward observed for `action` under `context`.
    ///
    /// # Errors
    ///
    /// Returns [`BanditError::InvalidAction`] for out-of-range actions,
    /// [`BanditError::InvalidReward`] for rewards outside `[0, 1]`,
    /// [`BanditError::ContextDimensionMismatch`] for mis-sized contexts and
    /// [`BanditError::InvalidConfig`] (parameter `"context"`) for a context
    /// holding a NaN or infinite coordinate, which would poison the arm's
    /// statistics for good. A rejected update leaves the policy untouched.
    fn update(
        &mut self,
        context: &Vector,
        action: Action,
        reward: Reward,
    ) -> Result<(), BanditError>;

    /// Total number of `update` calls the policy has absorbed.
    fn observations(&self) -> u64;
}

/// Validates that a context matches the expected dimension.
pub(crate) fn check_context(expected: usize, context: &Vector) -> Result<(), BanditError> {
    if context.len() != expected {
        return Err(BanditError::ContextDimensionMismatch {
            expected,
            found: context.len(),
        });
    }
    Ok(())
}

/// Validates that every context coordinate is a finite number: one NaN or
/// infinite coordinate folded into an arm poisons its design for good.
pub(crate) fn check_finite(context: &Vector) -> Result<(), BanditError> {
    if context.iter().any(|x| !x.is_finite()) {
        return Err(BanditError::InvalidConfig {
            parameter: "context",
            message: "every coordinate must be a finite number".to_owned(),
        });
    }
    Ok(())
}

/// Validates that an action index is within range.
pub(crate) fn check_action(num_actions: usize, action: Action) -> Result<(), BanditError> {
    if action.index() >= num_actions {
        return Err(BanditError::InvalidAction {
            action: action.index(),
            num_actions,
        });
    }
    Ok(())
}

/// Validates that a reward lies in `[0, 1]`.
pub(crate) fn check_reward(reward: Reward) -> Result<(), BanditError> {
    if !reward.is_finite() || !(0.0..=1.0).contains(&reward) {
        return Err(BanditError::InvalidReward { reward });
    }
    Ok(())
}

/// Draws a uniformly random action: LinUCB's fallback when no arm scores.
pub(crate) fn random_action(num_actions: usize, rng: &mut dyn rand::RngCore) -> Action {
    // `gen_range` needs a `Rng`, which `&mut dyn RngCore` provides via the
    // blanket impl for mutable references.
    let idx = (*rng).gen_range(0..num_actions);
    Action::new(idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_round_trips_through_usize() {
        let a = Action::from(5usize);
        assert_eq!(usize::from(a), 5);
        assert_eq!(a.to_string(), "a5");
    }

    #[test]
    fn validators_accept_valid_input() {
        assert!(check_context(3, &Vector::zeros(3)).is_ok());
        assert!(check_finite(&Vector::from(vec![0.0, -1.0, 1e300])).is_ok());
        assert!(check_action(4, Action::new(3)).is_ok());
        assert!(check_reward(0.0).is_ok());
        assert!(check_reward(1.0).is_ok());
    }

    #[test]
    fn validators_reject_invalid_input() {
        assert!(check_context(3, &Vector::zeros(2)).is_err());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(check_finite(&Vector::from(vec![0.5, bad])).is_err());
        }
        assert!(check_action(4, Action::new(4)).is_err());
        assert!(check_reward(-0.1).is_err());
        assert!(check_reward(1.1).is_err());
        assert!(check_reward(f64::NAN).is_err());
    }

    #[test]
    fn random_action_is_in_range() {
        let mut rng = rand::rngs::mock::StepRng::new(42, 13);
        for _ in 0..50 {
            let a = random_action(7, &mut rng);
            assert!(a.index() < 7);
        }
    }
}
