//! Routing coalesced sufficient statistics through secure aggregation and
//! assembling epoch models from the recombined sums.
//!
//! This is the core-side half of the secure-aggregation regime. The
//! [`p2b_shuffler::SecureAggEngine`] owns the `k` shard workers and the
//! share arithmetic; the statistics-leaf layout is
//! [`p2b_bandit::ArmSums::leaf`] / [`ArmSums::from_leaf`], the one layout
//! every aggregating regime shares; this module owns the model lifecycle
//! between the two:
//!
//! ```text
//!   group (x, a, n, s) ──▶ ArmSums::leaf [n·vec(xxᵀ) | s·x | n]
//!                                          │ fixed-point encode + split
//!                                          ▼
//!                            k aggregator shards (shares only)
//!                                          │ finish() at epoch boundary
//!                                          ▼
//!               recombined i128 sums ──▶ cumulative totals (wrapping Σ)
//!                                          │ decode + ArmSums::from_leaf
//!                                          ▼
//!              LinUcb::new + set_arm of every arm (published model)
//! ```
//!
//! A group of `n` reports sharing context `x` with reward sum `s`
//! contributes `n·x xᵀ` to the Gram block, `s·x` to the reward block and `n`
//! to the pull counter — exactly the sum of its `n` per-report leaves, in
//! one submission.
//!
//! Determinism: the recombined sums are exact group elements (wrapping
//! `i128` addition), so the assembled model is bit-identical across shard
//! counts, submission interleavings and mask seeds. Epoch totals accumulate
//! with the same wrapping addition, so multi-epoch assembly keeps the
//! guarantee. `xᵢxⱼ` and `xⱼxᵢ` are the same `f64` product and encode to
//! the same fixed-point word, so the decoded Gram block is symmetric and
//! the decoder's symmetrization returns it unchanged.

use crate::CoreError;
use p2b_bandit::{Action, ArmSums, LinUcb, LinUcbConfig};
use p2b_linalg::Vector;
use p2b_privacy::{decode_fixed, fnv1a};
use p2b_shuffler::{SecureAggEngine, SecureAggHandle};

/// A model service ingesting coalesced groups through `k`-shard secure
/// aggregation and publishing epoch models from the recombined sums.
///
/// The service never sees an individual contribution in the clear once it
/// has been split: each group — `n` observations of context `x` on arm
/// `a` with reward sum `s` — is converted to a weighted statistics leaf
/// and handed to the share engine, and only the recombined
/// per-arm sums — equal to what a single trusted accumulator would have
/// computed — come back at [`SecureIngestService::assemble`].
///
/// # Examples
///
/// ```
/// use p2b_bandit::{Action, ContextualPolicy, LinUcbConfig};
/// use p2b_core::SecureIngestService;
/// use p2b_linalg::Vector;
///
/// # fn main() -> Result<(), p2b_core::CoreError> {
/// let config = LinUcbConfig::new(2, 2);
/// let mut service = SecureIngestService::new(config, 2, 7)?;
/// // Three observations of one context on arm 0, with reward sum 2.
/// service.ingest(&Vector::from(vec![0.6, 0.8]), Action::new(0), 3, 2.0)?;
/// let model = service.assemble()?;
/// assert_eq!(model.observations(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SecureIngestService {
    config: LinUcbConfig,
    engine: SecureAggEngine,
    handle: SecureAggHandle,
    /// Cumulative recombined fixed-point sums, `num_actions × (d² + d + 1)`,
    /// carried across epochs with wrapping addition (exact).
    totals: Vec<i128>,
    seed: u64,
    epoch: u64,
    ingested: u64,
}

impl SecureIngestService {
    /// Creates the service and starts the first epoch's shard workers.
    ///
    /// `shards` is the aggregator count `k`; the assembled model does not
    /// depend on it (see the module docs), only the trust split does.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shuffler`] when `shards` is zero or the engine
    /// configuration is otherwise degenerate.
    pub fn new(config: LinUcbConfig, shards: usize, seed: u64) -> Result<Self, CoreError> {
        let leaf_dimension = ArmSums::leaf_dimension(config.context_dimension);
        let engine = SecureAggEngine::builder(config.num_actions, leaf_dimension)
            .shards(shards)
            .build()?;
        let handle = engine.spawn(epoch_seed(seed, 0));
        Ok(Self {
            config,
            totals: vec![0i128; config.num_actions * leaf_dimension],
            engine,
            handle,
            seed,
            epoch: 0,
            ingested: 0,
        })
    }

    /// The number of aggregator shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.engine.shards()
    }

    /// The per-arm statistics-leaf dimension, `d² + d + 1`.
    #[must_use]
    pub fn leaf_dimension(&self) -> usize {
        self.engine.dimension()
    }

    /// The number of completed assembly epochs.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total groups ingested since construction.
    #[must_use]
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Splits one group — `count` observations of `context` on `action`,
    /// rewards summing to `reward_sum` — into shares and routes them to the
    /// shard workers.
    ///
    /// [`ArmSums::leaf`] clips the context to the unit L2 ball and the
    /// reward sum to `[0, n]`, so every leaf coordinate is bounded by the
    /// group count `n` and stays inside the fixed-point dynamic range for
    /// any `n ≤` [`p2b_privacy::FIXED_POINT_MAX_ABS`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EncoderMismatch`] when the context dimension
    /// differs from the configured one, and [`CoreError::Shuffler`] when a
    /// leaf coordinate is not finite or falls outside the fixed-point range,
    /// the arm is out of range, or the engine has shut down.
    pub fn ingest(
        &mut self,
        context: &Vector,
        action: Action,
        count: u64,
        reward_sum: f64,
    ) -> Result<(), CoreError> {
        let d = self.config.context_dimension;
        if context.len() != d {
            return Err(CoreError::EncoderMismatch {
                expected: d,
                found: context.len(),
            });
        }
        let leaf = ArmSums::leaf(context, count, reward_sum);
        self.handle.submit(action.index(), &leaf)?;
        self.ingested += 1;
        Ok(())
    }

    /// Closes the current epoch: joins the shard workers, folds their
    /// recombined sums into the cumulative totals, assembles a servable
    /// model and starts the next epoch's workers.
    ///
    /// The published model is rebuilt from the *cumulative* totals, so each
    /// epoch's model reflects everything ingested since construction — the
    /// snapshot semantics of the plaintext model service.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Shuffler`] if a shard worker terminated
    /// abnormally and [`CoreError::Bandit`] if the decoded statistics
    /// cannot form a positive-definite design even after the ridge repair.
    pub fn assemble(&mut self) -> Result<LinUcb, CoreError> {
        self.epoch += 1;
        let next = self.engine.spawn(epoch_seed(self.seed, self.epoch));
        let handle = std::mem::replace(&mut self.handle, next);
        let output = handle.finish()?;
        let leaf_dimension = self.leaf_dimension();
        for (arm, totals) in self.totals.chunks_mut(leaf_dimension).enumerate() {
            for (total, &sum) in totals.iter_mut().zip(output.arm_sums(arm)?) {
                *total = total.wrapping_add(sum);
            }
        }
        // The decoded Gram is PSD up to ~2⁻⁴⁸ quantization, so λI almost
        // always suffices; the repair only escalates if rounding ever tips
        // an eigenvalue negative.
        let mut model = LinUcb::new(self.config)?;
        for (arm, totals) in self.totals.chunks(leaf_dimension).enumerate() {
            let decoded: Vec<f64> = totals.iter().copied().map(decode_fixed).collect();
            let sums = ArmSums::from_leaf(&decoded, &self.config)?;
            model.set_arm(Action::new(arm), &sums)?;
        }
        Ok(model)
    }

    /// FNV-1a digest over the cumulative recombined totals (little-endian
    /// bytes, arms in order). Byte-identical across shard counts and
    /// reruns; the bench crate's `ingest_golden` test pins the committed
    /// values.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(self.totals.iter().flat_map(|value| value.to_le_bytes()))
    }
}

/// Derives the mask seed for one epoch's share session. The recombined
/// sums are seed-independent (masks cancel exactly), so the derivation
/// only has to keep distinct epochs on distinct mask lanes.
fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2b_bandit::ContextualPolicy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `count` observations of one context on one arm, with their reward sum.
    type Group = (Vector, Action, u64, f64);

    fn update(context: Vec<f64>, action: usize, count: u64, reward_sum: f64) -> Group {
        (
            Vector::from(context),
            Action::new(action),
            count,
            reward_sum,
        )
    }

    fn feed(service: &mut SecureIngestService, group: &Group) -> Result<(), CoreError> {
        let (context, action, count, reward_sum) = group;
        service.ingest(context, *action, *count, *reward_sum)
    }

    fn traffic() -> Vec<Group> {
        vec![
            update(vec![0.6, 0.8, 0.0], 0, 3, 2.0),
            update(vec![0.0, 1.0, 0.0], 1, 5, 4.5),
            update(vec![0.3, 0.3, 0.9], 0, 2, 0.5),
            update(vec![2.0, 0.0, 0.0], 1, 7, 6.0), // clipped to the unit ball
        ]
    }

    #[test]
    fn assembled_model_is_bit_identical_across_shard_counts() {
        let run = |shards: usize, seed: u64| {
            let mut service =
                SecureIngestService::new(LinUcbConfig::new(3, 2), shards, seed).unwrap();
            for update in &traffic() {
                feed(&mut service, update).unwrap();
            }
            let model = service.assemble().unwrap();
            (service.digest(), model)
        };
        let (reference_digest, reference_model) = run(1, 11);
        for shards in [2usize, 4] {
            // Different mask seeds on purpose: recombination cancels them.
            let (digest, model) = run(shards, 997 * shards as u64);
            assert_eq!(digest, reference_digest, "shards={shards}");
            assert_eq!(model.observations(), reference_model.observations());
            let probe = Vector::from(vec![0.5, 0.5, 0.5]);
            let a = model.scores(&probe).unwrap();
            let b = reference_model.scores(&probe).unwrap();
            for arm in 0..2 {
                assert_eq!(a[arm].to_bits(), b[arm].to_bits(), "arm {arm} score");
            }
        }
    }

    /// The secure path's fixed-point error against the plaintext fold, at
    /// d = 16, coordinate by coordinate.
    ///
    /// The plaintext reference folds the same updates into [`ArmSums`] and
    /// installs them with `set_arm`. Contexts lie in the unit ball, so the
    /// leaf's clip is the identity. Per design or reward coordinate, with
    /// `L` leaves summed into the arm, `u = 2⁻⁵³` and `M = λ + Σ n` bounding
    /// every partial sum (`|n·xᵢxⱼ| ≤ n`, `|s·xᵢ| ≤ n`):
    ///
    /// * encoding rounds each leaf coordinate to the 2⁻⁴⁸ grid, at most
    ///   2⁻⁴⁹ off, and the wrapping `i128` sum adds no error, so the
    ///   quantization error is at most `L·2⁻⁴⁹`;
    /// * each leaf and fold term is one or two roundings from the exact
    ///   `n·xᵢxⱼ` or `s·xᵢ` (`≤ 2u·n`, so `≤ 2u·M` summed, per side);
    /// * the plaintext fold's recursive sum adds at most `(L + 1)·u·M`;
    /// * decoding the summed word and the read-back's `+ λ` round once
    ///   each, and each install's `λ + (A − λ)` twice per side.
    ///
    /// So the two models agree within `L·2⁻⁴⁹ + (L + 11)·u·M` per
    /// coordinate.
    #[test]
    fn assembled_model_matches_the_plaintext_fold_up_to_quantization() {
        let (d, arms) = (16usize, 3usize);
        let config = LinUcbConfig::new(d, arms);
        let mut rng = StdRng::seed_from_u64(41);
        let updates: Vec<Group> = (0..48)
            .map(|_| {
                // |xᵢ| ≤ 1/d keeps ‖x‖₂ ≤ 1/√d, inside the unit ball.
                let context: Vec<f64> = (0..d)
                    .map(|_| rng.gen_range(-1.0f64..=1.0) / d as f64)
                    .collect();
                let count = rng.gen_range(1u64..=20);
                let reward_sum = rng.gen_range(0.0..=count as f64);
                update(context, rng.gen_range(0..arms), count, reward_sum)
            })
            .collect();
        let mut service = SecureIngestService::new(config, 2, 3).unwrap();
        let mut sums = vec![ArmSums::new(&config).unwrap(); arms];
        for update in &updates {
            feed(&mut service, update).unwrap();
            let (context, action, count, reward_sum) = update;
            sums[action.index()]
                .fold(context, *count, *reward_sum)
                .unwrap();
        }
        let model = service.assemble().unwrap();
        let mut reference = LinUcb::new(config).unwrap();
        for (arm, arm_sums) in sums.iter().enumerate() {
            reference.set_arm(Action::new(arm), arm_sums).unwrap();
        }
        assert_eq!(model.observations(), reference.observations());

        let u = f64::EPSILON / 2.0;
        let grid_half_step = 0.5 / p2b_privacy::FIXED_POINT_SCALE;
        for arm in 0..arms {
            let action = Action::new(arm);
            let routed = updates.iter().filter(|u| u.1 == action);
            let leaves = routed.clone().count() as f64;
            let mass = config.regularizer + routed.map(|u| u.2 as f64).sum::<f64>();
            let bound = leaves * grid_half_step + (leaves + 11.0) * u * mass;
            assert_eq!(model.pulls(action), reference.pulls(action));
            let secure = model.design(action).unwrap().as_slice();
            let plain = reference.design(action).unwrap().as_slice();
            let vectors = [
                (secure, plain),
                (
                    model.reward_vector(action).unwrap().as_slice(),
                    reference.reward_vector(action).unwrap().as_slice(),
                ),
            ];
            for (block, (secure, plain)) in vectors.iter().enumerate() {
                for (k, (x, y)) in secure.iter().zip(plain.iter()).enumerate() {
                    assert!(
                        (x - y).abs() <= bound,
                        "arm {arm}, block {block}, coordinate {k}: secure {x} vs plaintext {y}, \
                         bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn totals_accumulate_across_epochs() {
        let mut service = SecureIngestService::new(LinUcbConfig::new(2, 2), 3, 5).unwrap();
        feed(&mut service, &update(vec![0.5, 0.5], 0, 2, 1.0)).unwrap();
        let first = service.assemble().unwrap();
        assert_eq!(first.observations(), 2);
        assert_eq!(service.epoch(), 1);
        feed(&mut service, &update(vec![0.5, 0.5], 1, 3, 2.0)).unwrap();
        let second = service.assemble().unwrap();
        // The second epoch's model reflects both epochs' ingests.
        assert_eq!(second.observations(), 5);
        assert_eq!(service.epoch(), 2);
        assert_eq!(service.ingested(), 2);
    }

    #[test]
    fn context_dimension_mismatch_is_a_typed_error() {
        let mut service = SecureIngestService::new(LinUcbConfig::new(3, 2), 1, 1).unwrap();
        let err = feed(&mut service, &update(vec![1.0, 0.0], 0, 1, 0.5)).unwrap_err();
        assert!(matches!(
            err,
            CoreError::EncoderMismatch {
                expected: 3,
                found: 2
            }
        ));
    }

    #[test]
    fn oversized_group_counts_error_rather_than_wrap() {
        let mut service = SecureIngestService::new(LinUcbConfig::new(2, 1), 1, 1).unwrap();
        let oversized = update(vec![1.0, 0.0], 0, 1 << 40, 0.0);
        assert!(matches!(
            feed(&mut service, &oversized).unwrap_err(),
            CoreError::Shuffler(_)
        ));
        // A rejected update is not counted as ingested.
        assert_eq!(service.ingested(), 0);
    }

    #[test]
    fn zero_shards_is_rejected_at_construction() {
        assert!(matches!(
            SecureIngestService::new(LinUcbConfig::new(2, 2), 0, 1).unwrap_err(),
            CoreError::Shuffler(_)
        ));
    }

    #[test]
    fn empty_epoch_publishes_the_prior_model() {
        let mut service = SecureIngestService::new(LinUcbConfig::new(2, 2), 2, 9).unwrap();
        feed(&mut service, &update(vec![0.8, 0.6], 0, 2, 1.5)).unwrap();
        let first = service.assemble().unwrap();
        let digest_after_first = service.digest();
        let second = service.assemble().unwrap();
        assert_eq!(service.digest(), digest_after_first);
        assert_eq!(first.observations(), second.observations());
    }
}
