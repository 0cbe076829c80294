//! Test-only reference implementations the agreement suites pin the
//! maintained paths against. They read the per-arm Cholesky factor and
//! reward vector directly — state the public accessors expose only in
//! part — which is why they (and the suites importing them) live inside
//! the crate.
//!
//! * **Select** — the historical scalar one-arm-at-a-time rule: per arm,
//!   solve `θ_a = A_a⁻¹ b_a` afresh, take `θ_aᵀx`, add `α·√(xᵀA_a⁻¹x)`
//!   (temporary vectors per arm), then the historical tie-breaking loop.
//!   [`LinUcb::scores`] / [`LinUcb::select_action_with`] must stay
//!   bit-for-bit equal to it, randomness consumption included.
//! * **Merge** — the merge of whole models: every arm's design rebuilt
//!   from its factor (`LDLᵀ`), the two designs summed minus one prior
//!   `λI`, factored afresh, reward vectors and pulls summed, every arm
//!   re-synced. Merging per-report shard models into a cold one rebuilds,
//!   up to rounding, the model their updates describe; [`LinUcb::set_arm`]
//!   from the owning shard's [`ArmSums`] must land within a stated bound
//!   of it.
//!
//! [`ArmSums`]: crate::ArmSums

use super::{decode_leaf, Arm, LinUcb};
use crate::policy::{check_context, random_action};
use crate::{Action, ArmSums, BanditError, LinUcbConfig};
use p2b_linalg::{Cholesky, Vector};
use std::sync::Arc;

impl ArmSums {
    /// The sums [`crate::BuiltArm::from_leaf`] factors: a summed leaf's
    /// ridge-repaired design, reward vector and pulls, without the factor.
    pub(crate) fn from_leaf(leaf: &[f64], config: &LinUcbConfig) -> Result<Self, BanditError> {
        let (design, _, reward_vector, pulls) = decode_leaf(leaf, config)?;
        Ok(Self {
            design,
            reward_vector,
            pulls,
        })
    }
}

impl Arm {
    /// Upper confidence bound `θ_aᵀ x + α √(xᵀ A_a⁻¹ x)`.
    fn upper_confidence_bound(&self, context: &Vector, alpha: f64) -> Result<f64, BanditError> {
        let theta = self.factor.solve(&self.reward_vector)?;
        let estimate = theta.dot(context)?;
        let mut lane = vec![0.0; context.len()];
        let bonus = (self.factor)
            .quadratic_form_inverse(context.as_slice(), &mut lane)?
            .sqrt();
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
        let prior = other.config.regularizer;
        for (mine, theirs) in self.arms.iter_mut().zip(other.arms.iter()) {
            let mine = Arc::make_mut(mine);
            let mut design = mine.factor.reconstruct();
            design.add_assign(&theirs.factor.reconstruct())?;
            for i in 0..design.rows() {
                design.set(i, i, design.get(i, i) - prior);
            }
            mine.factor = Cholesky::new(&design)?;
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
