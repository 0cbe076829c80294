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
//! * **Update** — the sync-per-fold coalesced update: every fold re-syncs
//!   its arm (θ, stamp, arena lanes) immediately. [`LinUcb::update_batch_with`]
//!   defers that sync to once per touched arm per batch and must land on
//!   the same model bits.
//!
//! [`RankOneInverse`]: p2b_linalg::RankOneInverse

use super::{Arm, CoalescedUpdate, LinUcb};
use crate::policy::{check_action, check_context, random_action};
use crate::{Action, BanditError};
use p2b_linalg::{UpdateScratch, Vector};
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

    /// One coalesced fold followed immediately by its arm's sync.
    fn update_coalesced_reference(&mut self, update: &CoalescedUpdate) -> Result<(), BanditError> {
        check_context(self.config.context_dimension, update.context())?;
        check_action(self.config.num_actions, update.action())?;
        let idx = update.action().index();
        let arm = Arc::make_mut(&mut self.arms[idx]);
        arm.inverse.update_weighted_with(
            update.context(),
            update.count() as f64,
            &mut UpdateScratch::new(),
        )?;
        arm.reward_vector
            .axpy(update.reward_sum(), update.context())?;
        arm.pulls += update.count();
        self.observations += update.count();
        self.sync_arm(idx)?;
        Ok(())
    }

    /// The sync-per-fold batch update: the first failing update aborts the
    /// batch, earlier updates stay applied (each leaves the model valid).
    pub(crate) fn update_batch_reference(
        &mut self,
        updates: &[CoalescedUpdate],
    ) -> Result<u64, BanditError> {
        let mut folded = 0u64;
        for update in updates {
            self.update_coalesced_reference(update)?;
            folded += update.count();
        }
        Ok(folded)
    }
}
