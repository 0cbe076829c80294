//! The secure-aggregation shard engine: `k` workers, each folding only its
//! own additive-share stream.
//!
//! Where the [`ShufflerEngine`](crate::ShufflerEngine) trusts the shuffler
//! with plaintext reports (and buys privacy via anonymity + crowd
//! blending), the [`SecureAggEngine`] removes that trust for the
//! sufficient-statistics ingest path: a submitted contribution is
//! fixed-point encoded and additively secret-shared
//! ([`p2b_privacy::SecretSharer`]) **before** it leaves the submitting
//! side, and each aggregator shard receives — and folds — only its own
//! share stream:
//!
//! ```text
//!  agent leaf ──encode──▶ split ──share 0──▶ shard worker 0 ─┐
//!  [vec(xxᵀ)|r·x|1]        │    ──share 1──▶ shard worker 1 ─┼─▶ recombine
//!                          ⋮         ⋮               ⋮        │   (wrapping Σ)
//!                               ──share k-1▶ shard worker k-1┘      │
//!                                                                   ▼
//!                                                      exact plaintext sum
//! ```
//!
//! Each worker's accumulator is a uniformly-masked value that reveals
//! nothing in isolation; only the wrapping sum of all `k` accumulators
//! equals the plaintext total. Because wrapping `i128` addition is an
//! abelian group operation, the recombined sums are **bit-identical for
//! any shard count and any fold order** — the correctness bar the bench
//! stage and CI byte-diff pin at k ∈ {1, 2, 4}.
//!
//! See the [`p2b_privacy::SecretSharer`] docs for the mask construction
//! and the trust-model caveat (deterministic statistical masks standing in
//! for cryptographic pairwise PRGs).

use crate::{ShardPool, ShufflerError, SHARD_QUEUE_CAPACITY};
use crossbeam::channel::Receiver;
use p2b_privacy::{decode_fixed, encode_fixed, SecretSharer};
use std::sync::atomic::{AtomicU64, Ordering};

/// Builder for a [`SecureAggEngine`].
///
/// Obtained from [`SecureAggEngine::builder`]; the minimal spell is
/// `builder(arms, dimension).shards(k).build()`.
#[derive(Debug, Clone)]
pub struct SecureAggBuilder {
    arms: usize,
    dimension: usize,
    shards: usize,
}

impl SecureAggBuilder {
    fn new(arms: usize, dimension: usize) -> Self {
        Self {
            arms,
            dimension,
            shards: 1,
        }
    }

    /// Number of aggregator shards `k` (default 1). Each shard owns one
    /// worker thread, one bounded share queue of [`SHARD_QUEUE_CAPACITY`]
    /// and one masked accumulator; the trust guarantee is that any `k − 1`
    /// of them together still see only uniform noise.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Validates the configuration and produces the engine description.
    ///
    /// # Errors
    ///
    /// Returns [`ShufflerError::InvalidConfig`] when `arms`, `dimension` or
    /// `shards` is zero — the degenerate configurations that would otherwise truncate or divide by zero at
    /// runtime.
    pub fn build(self) -> Result<SecureAggEngine, ShufflerError> {
        if self.arms == 0 {
            return Err(ShufflerError::InvalidConfig {
                parameter: "arms",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.dimension == 0 {
            return Err(ShufflerError::InvalidConfig {
                parameter: "dimension",
                message: "must be at least 1".to_owned(),
            });
        }
        if self.shards == 0 {
            return Err(ShufflerError::InvalidConfig {
                parameter: "shards",
                message: "must be at least 1".to_owned(),
            });
        }
        // Construct the sharer here, where the error path already exists,
        // so `spawn` stays infallible (`shards ≥ 1` was just checked).
        let sharer =
            SecretSharer::new(0, self.shards).map_err(|e| ShufflerError::InvalidConfig {
                parameter: "shards",
                message: e.to_string(),
            })?;
        Ok(SecureAggEngine {
            arms: self.arms,
            dimension: self.dimension,
            shards: self.shards,
            sharer,
        })
    }
}

/// One shard's share of one per-arm contribution.
#[derive(Debug)]
struct ShareMessage {
    arm: usize,
    shares: Vec<i128>,
}

/// A `k`-shard secure-aggregation engine description (passive, like
/// [`ShufflerEngine`](crate::ShufflerEngine)); [`SecureAggEngine::spawn`]
/// starts the shard workers and returns a handle.
///
/// # Examples
///
/// ```
/// use p2b_shuffler::SecureAggEngine;
///
/// # fn main() -> Result<(), p2b_shuffler::ShufflerError> {
/// let engine = SecureAggEngine::builder(2, 3).shards(2).build()?;
/// let handle = engine.spawn(7);
/// handle.submit(0, &[1.0, 2.0, 1.0])?;
/// handle.submit(0, &[1.0, 0.0, 1.0])?;
/// handle.submit(1, &[0.5, 0.5, 1.0])?;
/// let output = handle.finish()?;
/// assert_eq!(output.contributions(), 3);
/// assert_eq!(output.decoded_arm(0)?, vec![2.0, 2.0, 2.0]);
/// assert_eq!(output.decoded_arm(1)?, vec![0.5, 0.5, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SecureAggEngine {
    arms: usize,
    dimension: usize,
    shards: usize,
    sharer: SecretSharer,
}

impl SecureAggEngine {
    /// Starts building an engine aggregating `arms` per-arm vectors of the
    /// given `dimension` (e.g. `d² + d + 1` for LinUCB sufficient
    /// statistics).
    #[must_use]
    pub fn builder(arms: usize, dimension: usize) -> SecureAggBuilder {
        SecureAggBuilder::new(arms, dimension)
    }

    /// The number of aggregator shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The per-arm vector dimension.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// The number of arms.
    #[must_use]
    pub fn arms(&self) -> usize {
        self.arms
    }

    /// Starts the `k` shard workers. `seed` drives the share-mask lanes;
    /// the **recombined** sums do not depend on it (masks cancel exactly),
    /// only the individual shares do.
    #[must_use]
    pub fn spawn(&self, seed: u64) -> SecureAggHandle {
        let (arms, dimension) = (self.arms, self.dimension);
        SecureAggHandle {
            shards: ShardPool::spawn(self.shards, SHARD_QUEUE_CAPACITY, move |_, shares| {
                run_shard_worker(&shares, arms, dimension)
            }),
            counter: AtomicU64::new(0),
            sharer: self.sharer.reseeded(seed),
            arms,
            dimension,
        }
    }
}

/// One shard worker: folds its own share stream into a flat
/// `arms × dimension` masked accumulator and returns it on channel close.
fn run_shard_worker(rx: &Receiver<ShareMessage>, arms: usize, dimension: usize) -> Vec<i128> {
    let mut accumulator = vec![0i128; arms * dimension];
    for message in rx.iter() {
        let base = message.arm * dimension;
        for (slot, share) in accumulator[base..base + dimension]
            .iter_mut()
            .zip(&message.shares)
        {
            *slot = slot.wrapping_add(*share);
        }
    }
    accumulator
}

/// Handle to a running [`SecureAggEngine`].
///
/// `submit` may be called from any number of threads sharing the handle by
/// reference; the recombined output is independent of submission
/// interleaving (wrapping sums commute). Dropping the handle joins the
/// workers and discards their accumulators.
#[derive(Debug)]
pub struct SecureAggHandle {
    shards: ShardPool<ShareMessage, Vec<i128>>,
    counter: AtomicU64,
    sharer: SecretSharer,
    arms: usize,
    dimension: usize,
}

impl SecureAggHandle {
    /// Splits one per-arm contribution into `k` shares and sends share `j`
    /// to shard worker `j`. The plaintext leaf never reaches any worker.
    ///
    /// Blocks while a target shard's bounded queue is full (backpressure).
    ///
    /// # Errors
    ///
    /// Returns [`ShufflerError::InvalidReport`] when `arm` is out of range,
    /// `leaf` has the wrong dimension, or any coordinate is outside the
    /// fixed-point dynamic range (±[`p2b_privacy::FIXED_POINT_MAX_ABS`]);
    /// [`ShufflerError::PipelineClosed`] if a shard worker has died.
    pub fn submit(&self, arm: usize, leaf: &[f64]) -> Result<(), ShufflerError> {
        if arm >= self.arms {
            return Err(ShufflerError::InvalidReport {
                message: format!("arm {arm} out of range (engine has {} arms)", self.arms),
            });
        }
        if leaf.len() != self.dimension {
            return Err(ShufflerError::InvalidReport {
                message: format!(
                    "leaf dimension mismatch: expected {}, got {}",
                    self.dimension,
                    leaf.len()
                ),
            });
        }
        // Encode every coordinate before claiming a counter slot, so a
        // rejected leaf neither consumes a mask lane nor counts as
        // submitted.
        let mut encoded = Vec::with_capacity(self.dimension);
        for &value in leaf {
            encoded.push(
                encode_fixed(value).map_err(|e| ShufflerError::InvalidReport {
                    message: e.to_string(),
                })?,
            );
        }
        let counter = self.counter.fetch_add(1, Ordering::Relaxed);
        let shards = self.shards.shards();
        let mut messages: Vec<Vec<i128>> =
            (0..shards).map(|_| vec![0i128; self.dimension]).collect();
        let mut shares = vec![0i128; shards];
        for (coord, &value) in encoded.iter().enumerate() {
            self.sharer
                .split_into(counter, coord, value, &mut shares)
                .map_err(|e| ShufflerError::InvalidReport {
                    message: e.to_string(),
                })?;
            for (message, &share) in messages.iter_mut().zip(&shares) {
                message[coord] = share;
            }
        }
        for (shard, shares) in messages.into_iter().enumerate() {
            self.shards.send(shard, ShareMessage { arm, shares })?;
        }
        Ok(())
    }

    /// Number of contributions submitted through this handle so far.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// Closes the share queues, joins the `k` workers and recombines their
    /// masked accumulators into the exact plaintext sums.
    ///
    /// # Errors
    ///
    /// Returns [`ShufflerError::PipelineClosed`] if a shard worker
    /// terminated abnormally (its accumulator is unrecoverable).
    pub fn finish(self) -> Result<SecureAggOutput, ShufflerError> {
        let accumulators = self.shards.join()?;
        let mut sums = vec![0i128; self.arms * self.dimension];
        for accumulator in &accumulators {
            for (sum, &value) in sums.iter_mut().zip(accumulator) {
                *sum = sum.wrapping_add(value);
            }
        }
        Ok(SecureAggOutput {
            arms: self.arms,
            dimension: self.dimension,
            contributions: self.counter.load(Ordering::Relaxed),
            sums,
        })
    }
}

/// The recombined result of a secure-aggregation run: exact plaintext
/// fixed-point sums, `arms × dimension`, equal bit for bit to what a
/// single trusted accumulator would have computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecureAggOutput {
    arms: usize,
    dimension: usize,
    contributions: u64,
    sums: Vec<i128>,
}

impl SecureAggOutput {
    /// Number of contributions aggregated.
    #[must_use]
    pub fn contributions(&self) -> u64 {
        self.contributions
    }

    /// The per-arm vector dimension.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// The recombined fixed-point sums of one arm.
    ///
    /// # Errors
    ///
    /// Returns [`ShufflerError::InvalidReport`] for an out-of-range arm.
    pub fn arm_sums(&self, arm: usize) -> Result<&[i128], ShufflerError> {
        if arm >= self.arms {
            return Err(ShufflerError::InvalidReport {
                message: format!("arm {arm} out of range (output has {} arms)", self.arms),
            });
        }
        let base = arm * self.dimension;
        Ok(&self.sums[base..base + self.dimension])
    }

    /// The recombined sums of one arm decoded back to f64
    /// ([`p2b_privacy::decode_fixed`] per coordinate).
    ///
    /// # Errors
    ///
    /// Returns [`ShufflerError::InvalidReport`] for an out-of-range arm.
    pub fn decoded_arm(&self, arm: usize) -> Result<Vec<f64>, ShufflerError> {
        Ok(self
            .arm_sums(arm)?
            .iter()
            .copied()
            .map(decode_fixed)
            .collect())
    }

    /// FNV-1a digest over the recombined sums (little-endian bytes, arms in
    /// order). Because the sums are exact group elements, the digest is
    /// byte-identical across shard counts, fold orders and reruns — the
    /// value the bench stage asserts on in-process and CI byte-diffs.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for value in &self.sums {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2b_privacy::FIXED_POINT_MAX_ABS;

    #[test]
    fn builder_validates_every_knob() {
        assert!(SecureAggEngine::builder(0, 3).build().is_err());
        assert!(SecureAggEngine::builder(2, 0).build().is_err());
        assert!(SecureAggEngine::builder(2, 3).shards(0).build().is_err());
        assert!(SecureAggEngine::builder(2, 3).shards(4).build().is_ok());
    }

    #[test]
    fn submit_validates_arm_dimension_and_range() {
        let handle = SecureAggEngine::builder(2, 3)
            .shards(2)
            .build()
            .unwrap()
            .spawn(1);
        assert!(handle.submit(2, &[0.0; 3]).is_err(), "arm out of range");
        assert!(handle.submit(0, &[0.0; 2]).is_err(), "dimension mismatch");
        assert!(
            handle
                .submit(0, &[FIXED_POINT_MAX_ABS * 2.0, 0.0, 0.0])
                .is_err(),
            "out-of-range coordinate errors rather than wraps"
        );
        assert!(handle.submit(0, &[1.0, 2.0, 3.0]).is_ok());
        assert_eq!(handle.submitted(), 1);
    }

    #[test]
    fn recombined_sums_are_bit_identical_across_shard_counts() {
        let run = |shards: usize, seed: u64| {
            let handle = SecureAggEngine::builder(3, 4)
                .shards(shards)
                .build()
                .unwrap()
                .spawn(seed);
            for i in 0..50u32 {
                let arm = (i % 3) as usize;
                let x = f64::from(i) * 0.125 - 3.0;
                handle.submit(arm, &[x * x, x, -x, 1.0]).unwrap();
            }
            handle.finish().unwrap()
        };
        let reference = run(1, 11);
        for shards in [2usize, 4] {
            // Different seeds produce different masks, but masks cancel:
            // the recombined output is identical regardless.
            let output = run(shards, 997 * shards as u64);
            assert_eq!(output, reference, "shards={shards}");
            assert_eq!(output.digest(), reference.digest());
        }
    }

    #[test]
    fn single_shard_matches_plaintext_fixed_point_sums() {
        let handle = SecureAggEngine::builder(1, 2)
            .shards(1)
            .build()
            .unwrap()
            .spawn(5);
        handle.submit(0, &[1.5, 2.0]).unwrap();
        handle.submit(0, &[0.25, -1.0]).unwrap();
        let output = handle.finish().unwrap();
        assert_eq!(output.decoded_arm(0).unwrap(), vec![1.75, 1.0]);
        assert!(output.decoded_arm(1).is_err());
        assert!(output.arm_sums(1).is_err());
    }

    #[test]
    fn submissions_interleaved_across_threads_recombine_identically() {
        let sequential = {
            let handle = SecureAggEngine::builder(2, 2)
                .shards(2)
                .build()
                .unwrap()
                .spawn(9);
            for i in 0..200u32 {
                handle
                    .submit((i % 2) as usize, &[f64::from(i) * 0.5, 1.0])
                    .unwrap();
            }
            handle.finish().unwrap()
        };
        let threaded = {
            let handle = SecureAggEngine::builder(2, 2)
                .shards(2)
                .build()
                .unwrap()
                .spawn(31);
            std::thread::scope(|scope| {
                for t in 0..4u32 {
                    let handle_ref = &handle;
                    scope.spawn(move || {
                        for i in (t * 50)..(t * 50 + 50) {
                            handle_ref
                                .submit((i % 2) as usize, &[f64::from(i) * 0.5, 1.0])
                                .unwrap();
                        }
                    });
                }
            });
            handle.finish().unwrap()
        };
        assert_eq!(sequential, threaded);
    }

    #[test]
    fn empty_run_yields_zero_sums() {
        let output = SecureAggEngine::builder(2, 3)
            .shards(3)
            .build()
            .unwrap()
            .spawn(0)
            .finish()
            .unwrap();
        assert_eq!(output.contributions(), 0);
        assert_eq!(output.arm_sums(0).unwrap(), &[0i128; 3]);
        assert_eq!(output.arm_sums(1).unwrap(), &[0i128; 3]);
    }

    #[test]
    fn submit_after_finish_is_rejected_via_fresh_handle_semantics() {
        let engine = SecureAggEngine::builder(1, 1).shards(2).build().unwrap();
        let first = engine.spawn(1);
        first.submit(0, &[1.0]).unwrap();
        let _ = first.finish();
        let second = engine.spawn(2);
        second.submit(0, &[2.0]).unwrap();
        let output = second.finish().unwrap();
        assert_eq!(output.decoded_arm(0).unwrap(), vec![2.0]);
    }
}
