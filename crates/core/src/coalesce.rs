//! Grouping shuffled report batches into coalesced sufficient statistics.
//!
//! Every report in a [`ShuffledBatch`] that carries the same context code
//! shares the same model-context vector, so the batch's information content
//! for LinUCB is fully captured by per-`(code, action)` sufficient
//! statistics: an observation count and a reward sum. Coalescing a batch of
//! `N` reports over `K` distinct pairs turns `N` `O(d²)` model updates into
//! `K`, and computes each code's context vector exactly once.
//!
//! Equivalence argument: LinUCB's per-arm statistics are
//! `A_a = λI + Σ x xᵀ` and `b_a = Σ r·x`, both *sums* over the batch — so
//! grouping commutes with folding up to floating-point rounding. The
//! property suite (`crates/core/tests/coalesce_equivalence.rs`) checks the
//! coalesced fold against a per-report oracle to 1e-9 across report
//! orderings and shard counts.
//!
//! The grouping state lives in a persistent [`Coalescer`] owned by the
//! server: the pair→slot index, the slot table and the code→vector memo all
//! keep their capacity across flushes, so steady-state coalescing allocates
//! only the output `Vec<CoalescedUpdate>` that the model service consumes.

use crate::{CodeRepresentation, CoreError};
use p2b_bandit::{Action, CoalescedUpdate};
use p2b_encoding::{ContextCode, Encoder};
use p2b_linalg::Vector;
use p2b_shuffler::ShuffledBatch;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// The result of coalescing one shuffled batch.
#[derive(Debug, Clone)]
pub(crate) struct CoalescedBatch {
    /// One update per distinct `(code, action)` pair, ordered by the pair —
    /// a deterministic order, independent of the batch's shuffled report
    /// order (the sums themselves accumulate in report order).
    pub(crate) updates: Vec<CoalescedUpdate>,
    /// Reports covered by `updates`.
    pub(crate) accepted: u64,
}

/// Reusable grouping state for [`Coalescer::coalesce`]: coalescing runs once
/// per flush on the serving hot path, and rebuilding an ordered map plus a
/// vector memo per flush showed up as steady allocator churn in the ingest
/// benchmarks.
///
/// The coalescer accumulates into a flat slot table addressed through a
/// `HashMap` index — both `clear()`ed, not dropped, between batches — and
/// sorts the slots by pair key before emission. Per-group sums accumulate in
/// report order and groups are emitted in pair order, so the updates equal
/// those of an ordered-map grouping bit for bit.
#[derive(Debug, Default)]
pub(crate) struct Coalescer {
    /// `(code, action)` → slot in `groups`; capacity persists across batches.
    index: HashMap<(usize, usize), usize>,
    /// Accumulation slots, in first-seen order during the fold; sorted by
    /// pair key before emission to recover the deterministic group order.
    groups: Vec<((usize, usize), (u64, f64))>,
    /// Code → context-vector memo, shared across every batch this coalescer
    /// sees, so each distinct code's vector is materialized once per server
    /// lifetime. Sound because the owning server's encoder and
    /// representation are fixed at construction and `vector` is
    /// deterministic per code.
    vectors: HashMap<usize, Vector>,
}

impl Coalescer {
    /// Groups a shuffled batch by `(code, action)` into coalesced sufficient
    /// statistics, skipping (not failing on) reports whose code or action
    /// fall outside the configured ranges — the server cannot assume every
    /// client is well behaved.
    pub(crate) fn coalesce(
        &mut self,
        representation: CodeRepresentation,
        encoder: &dyn Encoder,
        num_actions: usize,
        batch: &ShuffledBatch,
    ) -> Result<CoalescedBatch, CoreError> {
        self.index.clear();
        self.groups.clear();
        let mut accepted = 0u64;
        for report in batch.reports() {
            if report.code() >= encoder.num_codes() || report.action() >= num_actions {
                continue;
            }
            let key = (report.code(), report.action());
            let slot = match self.index.entry(key) {
                Entry::Occupied(entry) => *entry.get(),
                Entry::Vacant(entry) => {
                    let slot = self.groups.len();
                    self.groups.push((key, (0, 0.0)));
                    entry.insert(slot);
                    slot
                }
            };
            let group = &mut self.groups[slot].1;
            group.0 += 1;
            group.1 += report.reward();
            accepted += 1;
        }
        // Emission order must not depend on hasher randomization or the
        // batch's shuffled report order; sorting by the pair key reproduces
        // the ordered-map iteration the reference formulation used.
        self.groups.sort_unstable_by_key(|&(key, _)| key);
        let mut updates = Vec::with_capacity(self.groups.len());
        for &((code, action), (count, reward_sum)) in &self.groups {
            let context = match self.vectors.entry(code) {
                Entry::Occupied(entry) => entry.get().clone(),
                Entry::Vacant(entry) => entry
                    .insert(representation.vector(encoder, ContextCode::new(code))?)
                    .clone(),
            };
            // Each reward lies in [0, 1], but accumulation rounding could
            // nudge the sum marginally past `count`; clamp instead of
            // rejecting.
            let reward_sum = reward_sum.min(count as f64);
            updates.push(
                CoalescedUpdate::new(context, Action::new(action), count, reward_sum)
                    .map_err(CoreError::Bandit)?,
            );
        }
        Ok(CoalescedBatch { updates, accepted })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2b_encoding::{KMeansConfig, KMeansEncoder};
    use p2b_shuffler::{EncodedReport, RawReport, Shuffler, ShufflerConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn encoder() -> KMeansEncoder {
        let mut rng = StdRng::seed_from_u64(11);
        let corpus: Vec<Vector> = (0..40)
            .map(|i| {
                let mut v = vec![0.1; 4];
                v[i % 4] = 1.0;
                Vector::from(v).normalized_l1().unwrap()
            })
            .collect();
        KMeansEncoder::fit(&corpus, KMeansConfig::new(4), &mut rng).unwrap()
    }

    fn batch(reports: Vec<(usize, usize, f64)>, seed: u64) -> ShuffledBatch {
        let shuffler = Shuffler::new(ShufflerConfig::new(1)).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = reports
            .into_iter()
            .enumerate()
            .map(|(i, (code, action, reward))| {
                RawReport::new(
                    format!("a{i}"),
                    EncodedReport::new(code, action, reward).unwrap(),
                )
            })
            .collect();
        shuffler.process(raw, &mut rng)
    }

    #[test]
    fn reused_coalescer_matches_a_fresh_one_bit_for_bit() {
        let enc = encoder();
        let mut reused = Coalescer::default();
        for seed in 0..4u64 {
            let reports: Vec<(usize, usize, f64)> = (0..30)
                .map(|i| {
                    (
                        (i + seed as usize) % 3,
                        i % 2,
                        f64::from(u8::from(i % 5 == 0)),
                    )
                })
                .collect();
            let b = batch(reports, seed);
            let mut fresh = Coalescer::default();
            let warm = reused
                .coalesce(CodeRepresentation::Centroid, &enc, 2, &b)
                .unwrap();
            let cold = fresh
                .coalesce(CodeRepresentation::Centroid, &enc, 2, &b)
                .unwrap();
            assert_eq!(warm.accepted, cold.accepted);
            assert_eq!(warm.updates.len(), cold.updates.len());
            for (w, c) in warm.updates.iter().zip(cold.updates.iter()) {
                assert_eq!(w.action(), c.action());
                assert_eq!(w.count(), c.count());
                assert_eq!(w.reward_sum().to_bits(), c.reward_sum().to_bits());
                for (a, b) in w.context().iter().zip(c.context().iter()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn groups_are_emitted_in_pair_order_with_report_order_sums() {
        let enc = encoder();
        let mut coalescer = Coalescer::default();
        // Reports arrive pair-interleaved; emission must come back sorted by
        // (code, action) no matter the arrival order.
        let b = batch(
            vec![(1, 0, 1.0), (0, 1, 0.5), (0, 0, 0.25), (1, 0, 0.75)],
            7,
        );
        let out = coalescer
            .coalesce(CodeRepresentation::Centroid, &enc, 2, &b)
            .unwrap();
        assert_eq!(out.accepted, 4);
        let keys: Vec<(usize, u64)> = out
            .updates
            .iter()
            .map(|u| (u.action().index(), u.count()))
            .collect();
        assert_eq!(keys, vec![(0, 1), (1, 1), (0, 2)]);
    }

    #[test]
    fn out_of_range_reports_are_skipped_not_fatal() {
        let enc = encoder();
        let mut coalescer = Coalescer::default();
        let b = batch(vec![(99, 0, 1.0), (0, 9, 1.0), (0, 0, 1.0)], 3);
        let out = coalescer
            .coalesce(CodeRepresentation::Centroid, &enc, 2, &b)
            .unwrap();
        assert_eq!(out.accepted, 1);
        assert_eq!(out.updates.len(), 1);
    }
}
