//! Routing coalesced sufficient statistics through secure aggregation and
//! assembling epoch models from the recombined sums.
//!
//! The secure-aggregation regime (Hannun et al., *Privacy-Preserving
//! Multi-Party Contextual Bandits*) replaces the trusted shuffler with `k`
//! aggregating parties, none of which sees a plaintext contribution. Each
//! party is one masked accumulator ([`Parties`]); the share arithmetic is
//! [`p2b_privacy::SecretSharer`], and the statistics-leaf layout is
//! [`p2b_bandit::ArmSums::leaf`] / [`ArmSums::from_leaf`], the one layout
//! every aggregating regime shares:
//!
//! ```text
//!   group (x, a, n, s) ──▶ ArmSums::leaf [n·vec(xxᵀ) | s·x | n]
//!                                          │ fixed-point encode + split
//!                     ┌──── share 0 ───────┼──── share k−1 ────┐
//!                     ▼                                        ▼
//!               accumulator 0        …               accumulator k−1
//!                     └──────────── recombine (wrapping Σ) ────┘
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
//! The parties live in one process, so their separation is a property of
//! the type, not of threads: share `j` of a coordinate only ever reaches
//! accumulator `j`, and only the recombined sum leaves [`Parties`]. As in
//! [`p2b_privacy::SecretSharer`], the guarantee is architectural, not
//! cryptographic.
//!
//! Determinism: the recombined sums are exact group elements (wrapping
//! `i128` addition), so the assembled model is bit-identical across party
//! counts, submission orders and mask seeds. The accumulators are
//! cumulative across epochs with the same wrapping addition, so
//! multi-epoch assembly keeps the guarantee. `xᵢxⱼ` and `xⱼxᵢ` are the same
//! `f64` product and encode to the same fixed-point word, so the decoded
//! Gram block is symmetric and the decoder's symmetrization returns it
//! unchanged.

use crate::CoreError;
use p2b_bandit::{Action, ArmSums, BanditError, LinUcb, LinUcbConfig};
use p2b_linalg::Vector;
use p2b_privacy::{decode_fixed, encode_fixed, fnv1a, SecretSharer};

/// The `k` aggregating parties: one masked accumulator of
/// `arms × dimension` fixed-point words each.
///
/// [`Parties::add`] splits every coordinate of a leaf into `k` additive
/// shares and adds share `j` to accumulator `j` only; each accumulator
/// alone is uniform noise, and [`Parties::recombine`], their wrapping sum,
/// is the exact plaintext sum.
#[derive(Debug)]
struct Parties {
    sharer: SecretSharer,
    arms: usize,
    dimension: usize,
    /// Party `j`'s accumulator, arm-major: the wrapping sum of every share
    /// `j` it was handed.
    accumulators: Vec<Vec<i128>>,
    /// The mask lane of the next accepted leaf.
    counter: u64,
    /// One leaf's encoded words, reused across calls.
    encoded: Vec<i128>,
    /// One coordinate's `k` shares, reused across calls.
    shares: Vec<i128>,
}

impl Parties {
    /// `parties` empty accumulators whose masks `seed` drives.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Privacy`] when `parties` is zero and
    /// [`CoreError::Bandit`] when `arms` or `dimension` is.
    fn new(seed: u64, parties: usize, arms: usize, dimension: usize) -> Result<Self, CoreError> {
        for (parameter, value) in [("arms", arms), ("dimension", dimension)] {
            if value == 0 {
                return Err(BanditError::InvalidConfig {
                    parameter,
                    message: "must be at least 1".to_owned(),
                }
                .into());
            }
        }
        Ok(Self {
            sharer: SecretSharer::new(seed, parties)?,
            arms,
            dimension,
            accumulators: vec![vec![0; arms * dimension]; parties],
            counter: 0,
            encoded: vec![0; dimension],
            shares: vec![0; parties],
        })
    }

    /// Splits `leaf` into shares and adds share `j` of each coordinate to
    /// arm `arm` of accumulator `j`. An accepted leaf allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Bandit`] for an out-of-range arm or a mis-sized
    /// leaf, and [`CoreError::Privacy`] for a coordinate that is not finite
    /// or lies outside ±[`p2b_privacy::FIXED_POINT_MAX_ABS`]. A rejected
    /// leaf reaches no accumulator and takes no mask lane.
    fn add(&mut self, arm: usize, leaf: &[f64]) -> Result<(), CoreError> {
        if arm >= self.arms {
            return Err(BanditError::InvalidAction {
                action: arm,
                num_actions: self.arms,
            }
            .into());
        }
        if leaf.len() != self.dimension {
            return Err(BanditError::InvalidConfig {
                parameter: "leaf",
                message: format!(
                    "expected {} coordinates, got {}",
                    self.dimension,
                    leaf.len()
                ),
            }
            .into());
        }
        for (word, &value) in self.encoded.iter_mut().zip(leaf) {
            *word = encode_fixed(value)?;
        }
        let counter = self.counter;
        self.counter += 1;
        let base = arm * self.dimension;
        for (coord, &word) in self.encoded.iter().enumerate() {
            self.sharer
                .split_into(counter, coord, word, &mut self.shares)?;
            for (accumulator, &share) in self.accumulators.iter_mut().zip(&self.shares) {
                let slot = &mut accumulator[base + coord];
                *slot = slot.wrapping_add(share);
            }
        }
        Ok(())
    }

    /// The wrapping sum of the `k` accumulators: the exact plaintext
    /// fixed-point sums of every leaf added, arm-major.
    fn recombine(&self) -> Vec<i128> {
        let mut sums = vec![0i128; self.arms * self.dimension];
        for accumulator in &self.accumulators {
            for (sum, &word) in sums.iter_mut().zip(accumulator) {
                *sum = sum.wrapping_add(word);
            }
        }
        sums
    }
}

/// A model service ingesting coalesced groups through `k`-party secure
/// aggregation and publishing epoch models from the recombined sums.
///
/// The service never sees an individual contribution in the clear once it
/// has been split: each group — `n` observations of context `x` on arm
/// `a` with reward sum `s` — is converted to a weighted statistics leaf
/// and secret-shared across the parties, and only the recombined
/// per-arm sums — equal to what a single trusted accumulator would have
/// computed — come back at [`SecureIngestService::assemble`]. It starts no
/// thread.
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
    parties: Parties,
    epoch: u64,
    ingested: u64,
}

impl SecureIngestService {
    /// Creates the service with `shards` empty parties.
    ///
    /// `shards` is the party count `k`; the assembled model does not
    /// depend on it (see the module docs), only the trust split does.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Privacy`] when `shards` is zero and
    /// [`CoreError::Bandit`] for an invalid configuration.
    pub fn new(config: LinUcbConfig, shards: usize, seed: u64) -> Result<Self, CoreError> {
        // Validates the configuration (at least one arm, a valid ridge).
        ArmSums::new(&config)?;
        let leaf_dimension = ArmSums::leaf_dimension(config.context_dimension);
        Ok(Self {
            config,
            parties: Parties::new(seed, shards, config.num_actions, leaf_dimension)?,
            epoch: 0,
            ingested: 0,
        })
    }

    /// The number of aggregating parties.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.parties.accumulators.len()
    }

    /// The per-arm statistics-leaf dimension, `d² + d + 1`.
    #[must_use]
    pub fn leaf_dimension(&self) -> usize {
        self.parties.dimension
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
    /// rewards summing to `reward_sum` — into shares, one per party.
    ///
    /// [`ArmSums::leaf`] clips the context to the unit L2 ball and the
    /// reward sum to `[0, n]`, so every leaf coordinate is bounded by the
    /// group count `n` and stays inside the fixed-point dynamic range for
    /// any `n ≤` [`p2b_privacy::FIXED_POINT_MAX_ABS`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EncoderMismatch`] when the context dimension
    /// differs from the configured one, [`CoreError::Bandit`] when the
    /// action is out of range, and [`CoreError::Privacy`] when a leaf
    /// coordinate falls outside the fixed-point range. A rejected group is
    /// not counted.
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
        self.parties.add(action.index(), &leaf)?;
        self.ingested += 1;
        Ok(())
    }

    /// Closes the current epoch: recombines the parties' accumulators and
    /// assembles a servable model from them.
    ///
    /// The accumulators are cumulative, so each epoch's model reflects
    /// everything ingested since construction — the snapshot semantics of
    /// the plaintext model service.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Bandit`] if the decoded statistics cannot form
    /// a positive-definite design even after the ridge repair.
    pub fn assemble(&mut self) -> Result<LinUcb, CoreError> {
        self.epoch += 1;
        // The decoded Gram is PSD up to ~2⁻⁴⁸ quantization, so λI almost
        // always suffices; the repair only escalates if rounding ever tips
        // an eigenvalue negative.
        let mut model = LinUcb::new(self.config)?;
        let totals = self.parties.recombine();
        for (arm, totals) in totals.chunks(self.leaf_dimension()).enumerate() {
            let decoded: Vec<f64> = totals.iter().copied().map(decode_fixed).collect();
            let sums = ArmSums::from_leaf(&decoded, &self.config)?;
            model.set_arm(Action::new(arm), &sums)?;
        }
        Ok(model)
    }

    /// FNV-1a digest over the recombined totals (little-endian bytes, arms
    /// in order). Byte-identical across party counts and reruns; the bench
    /// crate's `ingest_golden` test pins the committed values.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(
            self.parties
                .recombine()
                .iter()
                .flat_map(|value| value.to_le_bytes()),
        )
    }
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
            CoreError::Privacy(_)
        ));
        // A rejected update is not counted as ingested.
        assert_eq!(service.ingested(), 0);
    }

    #[test]
    fn an_out_of_range_action_is_a_typed_error_and_not_counted() {
        let mut service = SecureIngestService::new(LinUcbConfig::new(2, 2), 2, 1).unwrap();
        assert!(matches!(
            feed(&mut service, &update(vec![1.0, 0.0], 2, 1, 0.5)).unwrap_err(),
            CoreError::Bandit(BanditError::InvalidAction {
                action: 2,
                num_actions: 2
            })
        ));
        assert_eq!(service.ingested(), 0);
        assert_eq!(service.assemble().unwrap().observations(), 0);
    }

    #[test]
    fn zero_shards_is_rejected_at_construction() {
        assert!(matches!(
            SecureIngestService::new(LinUcbConfig::new(2, 2), 0, 1).unwrap_err(),
            CoreError::Privacy(_)
        ));
        assert!(matches!(
            SecureIngestService::new(LinUcbConfig::new(2, 0), 2, 1).unwrap_err(),
            CoreError::Bandit(_)
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

    #[test]
    fn builder_validates_every_knob() {
        assert!(matches!(
            Parties::new(1, 2, 3, 0).unwrap_err(),
            CoreError::Bandit(_)
        ));
        assert!(matches!(
            Parties::new(1, 2, 0, 3).unwrap_err(),
            CoreError::Bandit(_)
        ));
        assert!(matches!(
            Parties::new(1, 0, 2, 3).unwrap_err(),
            CoreError::Privacy(_)
        ));
        assert_eq!(Parties::new(1, 4, 2, 3).unwrap().accumulators.len(), 4);
    }

    #[test]
    fn add_validates_arm_dimension_and_range() {
        let mut parties = Parties::new(1, 2, 2, 3).unwrap();
        assert!(parties.add(2, &[0.0; 3]).is_err(), "arm out of range");
        assert!(parties.add(0, &[0.0; 2]).is_err(), "dimension mismatch");
        assert!(
            parties
                .add(0, &[p2b_privacy::FIXED_POINT_MAX_ABS * 2.0, 0.0, 0.0])
                .is_err(),
            "out-of-range coordinate errors rather than wraps"
        );
        // A rejected leaf reaches no party and takes no mask lane.
        assert_eq!(parties.counter, 0);
        assert!(parties.accumulators.iter().flatten().all(|&word| word == 0));
        parties.add(0, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(parties.counter, 1);
    }

    #[test]
    fn recombined_sums_are_bit_identical_across_shard_counts() {
        let run = |shards: usize, seed: u64| {
            let mut parties = Parties::new(seed, shards, 3, 4).unwrap();
            for i in 0..50u32 {
                let x = f64::from(i) * 0.125 - 3.0;
                parties.add((i % 3) as usize, &[x * x, x, -x, 1.0]).unwrap();
            }
            parties
        };
        let reference = run(1, 11).recombine();
        for shards in [2usize, 4] {
            // Different seeds draw different masks, but masks cancel.
            let parties = run(shards, 997 * shards as u64);
            assert_eq!(parties.recombine(), reference, "shards={shards}");
            // No single party holds the plaintext sums.
            for accumulator in &parties.accumulators {
                assert_ne!(accumulator, &reference, "shards={shards}");
            }
        }
    }

    #[test]
    fn single_shard_matches_plaintext_fixed_point_sums() {
        let mut parties = Parties::new(5, 1, 2, 2).unwrap();
        parties.add(0, &[1.5, 2.0]).unwrap();
        parties.add(0, &[0.25, -1.0]).unwrap();
        let plaintext = |a: f64, b: f64| encode_fixed(a).unwrap() + encode_fixed(b).unwrap();
        let expected = vec![plaintext(1.5, 0.25), plaintext(2.0, -1.0), 0, 0];
        assert_eq!(parties.accumulators, vec![expected.clone()]);
        assert_eq!(parties.recombine(), expected);
        let decoded: Vec<f64> = expected.into_iter().map(decode_fixed).collect();
        assert_eq!(decoded, vec![1.75, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn empty_run_yields_zero_sums() {
        let parties = Parties::new(0, 3, 2, 3).unwrap();
        assert_eq!(parties.recombine(), vec![0i128; 6]);
        let mut service = SecureIngestService::new(LinUcbConfig::new(2, 2), 3, 0).unwrap();
        let empty = SecureIngestService::new(LinUcbConfig::new(2, 2), 1, 0).unwrap();
        assert_eq!(service.digest(), empty.digest());
        assert_eq!(service.assemble().unwrap().observations(), 0);
    }

    #[test]
    fn the_mask_counter_runs_across_epochs() {
        // A mask lane reused for a second leaf would let a party subtract
        // two of its shares and read the difference of two contributions,
        // so the lanes never restart, not even at an epoch boundary.
        let mut service = SecureIngestService::new(LinUcbConfig::new(2, 2), 2, 3).unwrap();
        feed(&mut service, &update(vec![0.6, 0.8], 0, 1, 1.0)).unwrap();
        service.assemble().unwrap();
        assert_eq!(service.parties.counter, 1);
        feed(&mut service, &update(vec![0.6, 0.8], 1, 1, 1.0)).unwrap();
        service.assemble().unwrap();
        assert_eq!(service.parties.counter, 2);
    }
}
