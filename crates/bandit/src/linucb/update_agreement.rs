//! Agreement pins between the batched ingest path and the sync-per-fold
//! oracle.
//!
//! [`LinUcb::update_batch_with`] threads a caller-owned [`IngestScratch`]
//! through the weighted Sherman–Morrison kernel and defers the arena sync to
//! **once per touched arm per batch**; the oracle in [`super::oracle`]
//! re-syncs after every fold. Both must produce **bit-for-bit** identical
//! models: designs, reward vectors, pulls, thetas, arena-resident scores,
//! and the downstream action stream an agent would draw from the model. The
//! epoch-assembly primitive (`set_arm`) is pinned here too: installing each
//! arm from its owning shard's [`ArmSums`] must reproduce the bits of a full
//! merge of every shard model. The suites that need only public API
//! (touched-order, `set_arm`'s cold-start contract and errors) live in
//! `tests/update_agreement.rs`.

use crate::{
    Action, ArmSums, CoalescedUpdate, ContextualPolicy, IngestScratch, LinUcb, LinUcbConfig,
};
use p2b_linalg::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_context(d: usize, rng: &mut StdRng) -> Vector {
    let raw: Vector = (0..d).map(|_| rng.gen_range(0.0f64..1.0)).collect();
    raw.normalized_l1().unwrap()
}

/// A random batch of well-formed coalesced updates: counts in `1..20`,
/// reward sums in `[0, count]`, actions across the whole arm range.
fn random_batch(d: usize, a: usize, len: usize, rng: &mut StdRng) -> Vec<CoalescedUpdate> {
    (0..len)
        .map(|_| {
            let count = rng.gen_range(1u64..20);
            let reward_sum = rng.gen_range(0.0..=count as f64);
            CoalescedUpdate::new(
                random_context(d, rng),
                Action::new(rng.gen_range(0..a)),
                count,
                reward_sum,
            )
            .unwrap()
        })
        .collect()
}

/// Asserts two models carry bit-identical state: observation counts, per-arm
/// pulls, design matrices, reward vectors, thetas, and the arena-resident
/// scores actually served to agents.
fn check_models_bit_identical(left: &LinUcb, right: &LinUcb, seed: u64) {
    let d = left.config().context_dimension;
    let a = left.config().num_actions;
    prop_assert_eq!(left.observations(), right.observations());
    for arm in 0..a {
        let action = Action::new(arm);
        prop_assert_eq!(left.pulls(action).unwrap(), right.pulls(action).unwrap());
        let (dl, dr) = (left.design(action).unwrap(), right.design(action).unwrap());
        for (x, y) in dl.as_slice().iter().zip(dr.as_slice().iter()) {
            prop_assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "design bits diverged on arm {}",
                arm
            );
        }
        let (bl, br) = (
            left.reward_vector(action).unwrap(),
            right.reward_vector(action).unwrap(),
        );
        for (x, y) in bl.iter().zip(br.iter()) {
            prop_assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "reward vector diverged on arm {}",
                arm
            );
        }
        let (tl, tr) = (left.theta(action).unwrap(), right.theta(action).unwrap());
        for (x, y) in tl.iter().zip(tr.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "theta diverged on arm {}", arm);
        }
    }
    // Scores go through the flat arena — this is what pins the deferred
    // sync: a missed one leaves the arm's θ, stamp and lanes behind its
    // statistics and shows up here even when the statistics above agree.
    let mut ctx_rng = StdRng::seed_from_u64(seed.wrapping_add(101));
    for _ in 0..4 {
        let ctx = random_context(d, &mut ctx_rng);
        let (sl, sr) = (left.scores(&ctx).unwrap(), right.scores(&ctx).unwrap());
        for (arm, (x, y)) in sl.iter().zip(sr.iter()).enumerate() {
            prop_assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "arena score diverged on arm {}",
                arm
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over random dims, arm counts and batch shapes, the batched scratch
    /// path must produce models bit-identical to the sync-per-fold reference
    /// — state, scores, and the downstream action stream drawn with
    /// identical RNGs.
    #[test]
    fn scratch_ingest_paths_are_bit_identical_to_the_reference(
        seed in any::<u64>(),
        d in 1usize..8,
        a in 1usize..10,
        batches in 1usize..4,
        len in 1usize..12,
    ) {
        let mut reference = LinUcb::new(LinUcbConfig::new(d, a)).unwrap();
        let mut batched = LinUcb::new(LinUcbConfig::new(d, a)).unwrap();
        let mut scratch = IngestScratch::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..batches {
            let batch = random_batch(d, a, len, &mut rng);
            let folded_reference = reference.update_batch_reference(&batch).unwrap();
            let folded_batched = batched.update_batch_with(&batch, &mut scratch).unwrap();
            prop_assert_eq!(folded_reference, folded_batched);
            check_models_bit_identical(&reference, &batched, seed);
        }

        // The models must be indistinguishable downstream: identical action
        // streams under identical randomness.
        let mut ctx_rng = StdRng::seed_from_u64(seed.wrapping_add(7));
        let mut rng_reference = StdRng::seed_from_u64(seed.wrapping_mul(3).wrapping_add(1));
        let mut rng_batched = rng_reference.clone();
        for _ in 0..10 {
            let ctx = random_context(d, &mut ctx_rng);
            let via_reference = reference.select_action(&ctx, &mut rng_reference).unwrap();
            let via_batched = batched.select_action(&ctx, &mut rng_batched).unwrap();
            prop_assert_eq!(via_reference, via_batched);
        }
        prop_assert_eq!(&rng_reference, &rng_batched);
    }

    /// Re-deriving every arm of a stale model via `set_arm` from its owning
    /// shard's sums reproduces a full from-scratch merge of both shard
    /// models bit-for-bit — the epoch assembly primitive. Shards own arms by
    /// `action % 2`, as the ingest shards do.
    #[test]
    fn set_arm_rebuild_matches_a_full_merge(
        seed in any::<u64>(),
        d in 1usize..6,
        a in 1usize..6,
        len in 1usize..10,
    ) {
        let config = LinUcbConfig::new(d, a);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shards = [LinUcb::new(config).unwrap(), LinUcb::new(config).unwrap()];
        let mut sums: Vec<ArmSums> = (0..a).map(|_| ArmSums::new(&config).unwrap()).collect();
        for _ in 0..2 {
            let batch = random_batch(d, a, len, &mut rng);
            for (owner, shard) in shards.iter_mut().enumerate() {
                let partition: Vec<CoalescedUpdate> = batch
                    .iter()
                    .filter(|update| update.action().index() % 2 == owner)
                    .cloned()
                    .collect();
                shard.update_batch_reference(&partition).unwrap();
            }
            for update in &batch {
                sums[update.action().index()].fold(update).unwrap();
            }
        }

        // Reference: a from-scratch rebuild over both shards.
        let mut rebuilt = LinUcb::new(config).unwrap();
        rebuilt.merge(&shards[0]).unwrap();
        rebuilt.merge(&shards[1]).unwrap();

        // Incremental: start from a *stale* assembly (shard one only, an
        // extra batch folded in) and re-derive every arm.
        let mut incremental = LinUcb::new(config).unwrap();
        incremental.merge(&shards[0]).unwrap();
        incremental.update_batch_reference(&random_batch(d, a, len, &mut rng)).unwrap();
        for (arm, arm_sums) in sums.iter().enumerate() {
            incremental.set_arm(Action::new(arm), arm_sums).unwrap();
        }
        check_models_bit_identical(&rebuilt, &incremental, seed);
    }
}

/// A failing update mid-batch must leave the model internally consistent:
/// the folds before the failure stay applied and their arms are re-synced,
/// so the model equals a reference that folded the valid prefix.
#[test]
fn mid_batch_failure_keeps_touched_arms_synced() {
    let mut rng = StdRng::seed_from_u64(3);
    let (d, a) = (4, 3);
    let mut reference = LinUcb::new(LinUcbConfig::new(d, a)).unwrap();
    let mut fast = LinUcb::new(LinUcbConfig::new(d, a)).unwrap();
    let mut scratch = IngestScratch::new();

    let prefix = random_batch(d, a, 6, &mut rng);
    let mut batch = prefix.clone();
    // A mis-dimensioned context passes construction but fails at fold time.
    batch.push(CoalescedUpdate::new(Vector::zeros(d + 1), Action::new(0), 1, 1.0).unwrap());
    batch.extend(random_batch(d, a, 2, &mut rng));

    reference.update_batch_reference(&prefix).unwrap();
    assert!(fast.update_batch_with(&batch, &mut scratch).is_err());

    assert_eq!(reference.observations(), fast.observations());
    let probe = random_context(d, &mut rng);
    let scores_reference = reference.scores(&probe).unwrap();
    let scores_fast = fast.scores(&probe).unwrap();
    for (x, y) in scores_reference.iter().zip(scores_fast.iter()) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "arena lanes must reflect the applied prefix after a failed batch"
        );
    }
}

/// One scratch serves models of different shapes back to back: every
/// `ensure_*` resize leaves no stale state behind.
#[test]
fn one_ingest_scratch_serves_models_of_different_shapes() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut scratch = IngestScratch::new();
    for &(d, a) in &[(2usize, 3usize), (6, 2), (3, 7), (2, 3)] {
        let mut reference = LinUcb::new(LinUcbConfig::new(d, a)).unwrap();
        let mut fast = LinUcb::new(LinUcbConfig::new(d, a)).unwrap();
        let batch = random_batch(d, a, 8, &mut rng);
        reference.update_batch_reference(&batch).unwrap();
        fast.update_batch_with(&batch, &mut scratch).unwrap();
        assert_eq!(reference.observations(), fast.observations());
        let probe = random_context(d, &mut rng);
        let scores_reference = reference.scores(&probe).unwrap();
        let scores_fast = fast.scores(&probe).unwrap();
        for (x, y) in scores_reference.iter().zip(scores_fast.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
