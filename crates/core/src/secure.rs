//! Routing coalesced sufficient statistics through secure aggregation and
//! assembling epoch models from the recombined sums.
//!
//! This is the core-side half of the secure-aggregation regime. The
//! [`p2b_shuffler::SecureAggEngine`] owns the `k` shard workers and the
//! share arithmetic; the statistics-leaf layout is
//! [`p2b_bandit::ArmStatistics::leaf`] / [`ArmStatistics::from_leaf`], the
//! one layout every aggregating regime shares; this module owns the model
//! lifecycle between the two:
//!
//! ```text
//!   CoalescedUpdate (x, a, n, s) ──▶ ArmStatistics::leaf [n·vec(xxᵀ) | s·x | n]
//!                                          │ fixed-point encode + split
//!                                          ▼
//!                            k aggregator shards (shares only)
//!                                          │ finish() at epoch boundary
//!                                          ▼
//!               recombined i128 sums ──▶ cumulative totals (wrapping Σ)
//!                                          │ decode + ArmStatistics::from_leaf
//!                                          ▼
//!                    LinUcb::from_sufficient_statistics (published model)
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
use p2b_bandit::{ArmStatistics, CoalescedUpdate, LinUcb, LinUcbConfig};
use p2b_privacy::{decode_fixed, fnv1a};
use p2b_shuffler::{SecureAggEngine, SecureAggHandle};

/// A model service ingesting coalesced updates through `k`-shard secure
/// aggregation and publishing epoch models from the recombined sums.
///
/// The service never sees an individual contribution in the clear once it
/// has been split: each [`CoalescedUpdate`] is converted to a weighted
/// statistics leaf and handed to the share engine, and only the recombined
/// per-arm sums — equal to what a single trusted accumulator would have
/// computed — come back at [`SecureIngestService::assemble`].
///
/// # Examples
///
/// ```
/// use p2b_bandit::{Action, CoalescedUpdate, ContextualPolicy, LinUcbConfig};
/// use p2b_core::SecureIngestService;
/// use p2b_linalg::Vector;
///
/// # fn main() -> Result<(), p2b_core::CoreError> {
/// let config = LinUcbConfig::new(2, 2);
/// let mut service = SecureIngestService::new(config, 2, 7)?;
/// let update = CoalescedUpdate::new(
///     Vector::from(vec![0.6, 0.8]),
///     Action::new(0),
///     3,
///     2.0,
/// )?;
/// service.ingest(&update)?;
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
        let leaf_dimension = ArmStatistics::leaf_dimension(config.context_dimension);
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

    /// Total coalesced updates ingested since construction.
    #[must_use]
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Splits one coalesced update into shares and routes them to the shard
    /// workers.
    ///
    /// [`ArmStatistics::leaf`] clips the context to the unit L2 ball and the
    /// reward sum to `[0, n]`, so every leaf coordinate is bounded by the
    /// group count `n` and stays inside the fixed-point dynamic range for
    /// any `n ≤` [`p2b_privacy::FIXED_POINT_MAX_ABS`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EncoderMismatch`] when the update's context
    /// dimension differs from the configured one, and
    /// [`CoreError::Shuffler`] when a leaf coordinate falls outside the
    /// fixed-point range or the engine has shut down.
    pub fn ingest(&mut self, update: &CoalescedUpdate) -> Result<(), CoreError> {
        let d = self.config.context_dimension;
        let context = update.context();
        if context.len() != d {
            return Err(CoreError::EncoderMismatch {
                expected: d,
                found: context.len(),
            });
        }
        let leaf = ArmStatistics::leaf(context, update.count(), update.reward_sum());
        self.handle.submit(update.action().index(), &leaf)?;
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
        let statistics = self
            .totals
            .chunks(leaf_dimension)
            .map(|arm| {
                let decoded: Vec<f64> = arm.iter().copied().map(decode_fixed).collect();
                ArmStatistics::from_leaf(
                    &decoded,
                    self.config.context_dimension,
                    self.config.regularizer,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LinUcb::from_sufficient_statistics(
            self.config,
            &statistics,
        )?)
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
    use p2b_bandit::{Action, ContextualPolicy};
    use p2b_linalg::{Matrix, Vector};

    fn update(context: Vec<f64>, action: usize, count: u64, reward_sum: f64) -> CoalescedUpdate {
        CoalescedUpdate::new(
            Vector::from(context),
            Action::new(action),
            count,
            reward_sum,
        )
        .unwrap()
    }

    fn traffic() -> Vec<CoalescedUpdate> {
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
                service.ingest(update).unwrap();
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

    #[test]
    fn assembled_model_matches_the_plaintext_fold_up_to_quantization() {
        let mut service = SecureIngestService::new(LinUcbConfig::new(2, 2), 2, 3).unwrap();
        let updates = vec![
            update(vec![0.6, 0.8], 0, 4, 3.0),
            update(vec![1.0, 0.0], 1, 2, 1.0),
        ];
        for update in &updates {
            service.ingest(update).unwrap();
        }
        let model = service.assemble().unwrap();
        // Plaintext reference: the same weighted leaves folded in f64.
        let config = LinUcbConfig::new(2, 2);
        let mut statistics = Vec::new();
        for arm in 0..2 {
            let mut design = Matrix::zeros(2, 2);
            let mut reward = vec![0.0f64; 2];
            let mut pulls = 0u64;
            for u in updates.iter().filter(|u| u.action().index() == arm) {
                let n = u.count() as f64;
                for (i, slot) in reward.iter_mut().enumerate() {
                    for j in 0..2 {
                        design.set(i, j, design.get(i, j) + n * u.context()[i] * u.context()[j]);
                    }
                    *slot += u.reward_sum() * u.context()[i];
                }
                pulls += u.count();
            }
            for i in 0..2 {
                design.set(i, i, design.get(i, i) + config.regularizer);
            }
            statistics.push(ArmStatistics {
                design,
                reward_vector: Vector::from(reward),
                pulls,
            });
        }
        let reference = LinUcb::from_sufficient_statistics(config, &statistics).unwrap();
        assert_eq!(model.observations(), reference.observations());
        let probe = Vector::from(vec![0.3, 0.7]);
        let a = model.scores(&probe).unwrap();
        let b = reference.scores(&probe).unwrap();
        for arm in 0..2 {
            assert!(
                (a[arm] - b[arm]).abs() < 1e-9,
                "arm {arm}: secure {} vs plaintext {}",
                a[arm],
                b[arm]
            );
        }
    }

    #[test]
    fn totals_accumulate_across_epochs() {
        let mut service = SecureIngestService::new(LinUcbConfig::new(2, 2), 3, 5).unwrap();
        service.ingest(&update(vec![0.5, 0.5], 0, 2, 1.0)).unwrap();
        let first = service.assemble().unwrap();
        assert_eq!(first.observations(), 2);
        assert_eq!(service.epoch(), 1);
        service.ingest(&update(vec![0.5, 0.5], 1, 3, 2.0)).unwrap();
        let second = service.assemble().unwrap();
        // The second epoch's model reflects both epochs' ingests.
        assert_eq!(second.observations(), 5);
        assert_eq!(service.epoch(), 2);
        assert_eq!(service.ingested(), 2);
    }

    #[test]
    fn context_dimension_mismatch_is_a_typed_error() {
        let mut service = SecureIngestService::new(LinUcbConfig::new(3, 2), 1, 1).unwrap();
        let err = service
            .ingest(&update(vec![1.0, 0.0], 0, 1, 0.5))
            .unwrap_err();
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
            service.ingest(&oversized).unwrap_err(),
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
        service.ingest(&update(vec![0.8, 0.6], 0, 2, 1.5)).unwrap();
        let first = service.assemble().unwrap();
        let digest_after_first = service.digest();
        let second = service.assemble().unwrap();
        assert_eq!(service.digest(), digest_after_first);
        assert_eq!(first.observations(), second.observations());
    }
}
