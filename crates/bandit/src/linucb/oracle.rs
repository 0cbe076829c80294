//! Test-only reference implementations the agreement suites pin the
//! maintained paths against. They read the per-arm [`RankOneInverse`]
//! source of truth directly — state no public accessor exposes — which is
//! why they (and the suites importing them) live inside the crate.
//!
//! * **Select** — the scalar one-arm-at-a-time rule that predates the score
//!   arena: per arm, solve `θ_a = A_a⁻¹ b_a`, take `θ_aᵀx`, add
//!   `α·√(xᵀA_a⁻¹x)` (two temporary vectors per arm), then the historical
//!   tie-breaking loop. [`LinUcb::scores`] / [`LinUcb::select_action_with`]
//!   must stay bit-for-bit equal to it, randomness consumption included.
//! * **Install** — the merge of whole models: every arm of `other` merged
//!   into this model's ([`RankOneInverse::merge_design`] over the other
//!   arm's design and update count), reward vectors and pulls summed, every
//!   arm re-synced. Merging per-report shard models into a cold one
//!   rebuilds the model their updates describe; [`LinUcb::set_arm`] from
//!   the owning shard's [`ArmSums`] must land on the same bits, because a
//!   per-report update runs the design arithmetic of [`ArmSums::fold`] at
//!   `n = 1` and a shard that never saw an arm adds exactly `+0.0` to it.
//!
//! [`RankOneInverse`]: p2b_linalg::RankOneInverse
//! [`RankOneInverse::merge_design`]: p2b_linalg::RankOneInverse::merge_design
//! [`ArmSums`]: crate::ArmSums
//! [`ArmSums::fold`]: crate::ArmSums::fold

use super::{Arm, LinUcb};
use crate::policy::{check_context, random_action};
use crate::{Action, BanditError};
use p2b_linalg::Vector;
use std::sync::Arc;

impl Arm {
    /// Upper confidence bound `θ_aᵀ x + α √(xᵀ A_a⁻¹ x)`.
    fn upper_confidence_bound(&self, context: &Vector, alpha: f64) -> Result<f64, BanditError> {
        let theta = self.inverse.solve(&self.reward_vector)?;
        let estimate = theta.dot(context)?;
        let bonus = self.inverse.quadratic_form(context)?.max(0.0).sqrt();
        Ok(estimate + alpha * bonus)
    }
}

impl LinUcb {
    /// Upper-confidence-bound scores via the scalar path.
    pub(crate) fn scores_reference(&self, context: &Vector) -> Result<Vec<f64>, BanditError> {
        check_context(self.config.context_dimension, context)?;
        self.arms
            .iter()
            .map(|arm| arm.upper_confidence_bound(context, self.config.alpha))
            .collect()
    }

    /// The scalar selection path: one arm at a time, then the tie-breaking
    /// rule written out independently of `pick_best`.
    pub(crate) fn select_action_reference(
        &self,
        context: &Vector,
        rng: &mut dyn rand::RngCore,
    ) -> Result<Action, BanditError> {
        check_context(self.config.context_dimension, context)?;
        let mut best_score = f64::NEG_INFINITY;
        let mut best: Vec<usize> = Vec::new();
        for (idx, arm) in self.arms.iter().enumerate() {
            let score = arm.upper_confidence_bound(context, self.config.alpha)?;
            if score > best_score + 1e-12 {
                best_score = score;
                best.clear();
                best.push(idx);
            } else if (score - best_score).abs() <= 1e-12 {
                best.push(idx);
            }
        }
        if best.is_empty() {
            // All scores were NaN (cannot happen with validated inputs, but we
            // keep the policy total): fall back to a uniform random action.
            return Ok(random_action(self.config.num_actions, rng));
        }
        let choice = if best.len() == 1 {
            best[0]
        } else {
            use rand::Rng as _;
            best[(*rng).gen_range(0..best.len())]
        };
        Ok(Action::new(choice))
    }

    /// Merges the sufficient statistics of another model of the same shape
    /// into this one, arm by arm.
    pub(crate) fn merge(&mut self, other: &LinUcb) -> Result<(), BanditError> {
        if other.config.context_dimension != self.config.context_dimension
            || other.config.num_actions != self.config.num_actions
        {
            return Err(BanditError::InvalidConfig {
                parameter: "merge",
                message: "incompatible models".to_owned(),
            });
        }
        for (mine, theirs) in self.arms.iter_mut().zip(other.arms.iter()) {
            let mine = Arc::make_mut(mine);
            mine.inverse.merge_design(
                theirs.inverse.design(),
                other.config.regularizer,
                theirs.inverse.update_count(),
            )?;
            mine.reward_vector = mine.reward_vector.add(&theirs.reward_vector)?;
            mine.pulls += theirs.pulls;
        }
        self.observations += other.observations;
        for idx in 0..self.config.num_actions {
            self.sync_arm(idx)?;
        }
        Ok(())
    }
}
