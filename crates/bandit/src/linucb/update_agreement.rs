//! Agreement pins for the one way sums become a model, [`LinUcb::set_arm`].
//!
//! * **Install ≡ merge.** Installing each arm from its owning shard's
//!   [`ArmSums`] must reproduce, bit for bit, the test-only merge of every
//!   shard's per-report model in [`super::oracle`]: designs, reward
//!   vectors, pulls, thetas, arena-resident scores. A per-report update runs
//!   the design arithmetic of [`ArmSums::fold`] at `n = 1`, which is why
//!   the shards here are fed single reports.
//! * **Leaf ≡ fold.** The aggregating regimes sum flat leaves and read them
//!   back with [`ArmSums::from_leaf`]; the ingest shards fold. Over the
//!   same updates, with contexts in the unit ball (where the leaf clips
//!   nothing), the two sums install models with equal pulls and reward
//!   vectors, no ridge boost, and designs and thetas within a derived
//!   bound.
//!
//! The suites that need only public API (`set_arm`'s cold-start contract,
//! its errors, the per-report oracle at a refresh boundary) live in
//! `tests/update_agreement.rs`.

use crate::{Action, ArmSums, ContextualPolicy, LinUcb, LinUcbConfig};

/// `count` observations of one context on one arm, with their reward sum.
type Group = (Vector, Action, u64, f64);
use p2b_linalg::{RankOneInverse, Vector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_context(d: usize, rng: &mut StdRng) -> Vector {
    let raw: Vector = (0..d).map(|_| rng.gen_range(0.0f64..1.0)).collect();
    raw.normalized_l1().unwrap()
}

/// A random batch of well-formed groups: counts in
/// `1..=max_count`, reward sums in `[0, count]`, actions across the whole
/// arm range.
fn random_batch(d: usize, a: usize, len: usize, max_count: u64, rng: &mut StdRng) -> Vec<Group> {
    (0..len)
        .map(|_| {
            let count = rng.gen_range(1..=max_count);
            let reward_sum = rng.gen_range(0.0..=count as f64);
            let context = random_context(d, rng);
            (context, Action::new(rng.gen_range(0..a)), count, reward_sum)
        })
        .collect()
}

/// Feeds single-report groups through the per-report path.
fn update_per_report(model: &mut LinUcb, reports: &[Group]) {
    for (context, action, count, reward) in reports {
        assert_eq!(*count, 1);
        model.update(context, *action, *reward).unwrap();
    }
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
    // Scores go through the flat arena: a missed sync leaves the arm's θ,
    // stamp and lanes behind its statistics and shows up here even when the
    // statistics above agree.
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

/// Drives clones of both models through one refresh interval of plain
/// updates on `arm` and checks them bit-identical after. The interval's
/// refresh lands on the update that brings the arm's update count to a
/// multiple of the interval, so an install that lost or miscounted its
/// folds refreshes at another step and diverges.
fn check_refresh_schedule(left: &LinUcb, right: &LinUcb, arm: usize, seed: u64) {
    let d = left.config().context_dimension;
    let (mut left, mut right) = (left.clone(), right.clone());
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(202));
    let contexts: Vec<Vector> = (0..3).map(|_| random_context(d, &mut rng)).collect();
    for step in 0..RankOneInverse::DEFAULT_REFRESH_INTERVAL {
        let context = &contexts[step as usize % contexts.len()];
        let reward = (step % 2) as f64;
        left.update(context, Action::new(arm), reward).unwrap();
        right.update(context, Action::new(arm), reward).unwrap();
    }
    check_models_bit_identical(&left, &right, seed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Re-deriving every arm of a stale model via `set_arm` from its owning
    /// shard's sums reproduces a full from-scratch merge of both shard
    /// models bit-for-bit — the epoch assembly primitive — and on the
    /// inverse refresh schedule too. Shards own arms by `action % 2`, as the
    /// ingest shards do.
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
            let batch = random_batch(d, a, len, 1, &mut rng);
            for (owner, shard) in shards.iter_mut().enumerate() {
                let partition: Vec<Group> = batch
                    .iter()
                    .filter(|group| group.1.index() % 2 == owner)
                    .cloned()
                    .collect();
                update_per_report(shard, &partition);
            }
            for (context, action, count, reward_sum) in &batch {
                sums[action.index()].fold(context, *count, *reward_sum).unwrap();
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
        update_per_report(&mut incremental, &random_batch(d, a, len, 1, &mut rng));
        for (arm, arm_sums) in sums.iter().enumerate() {
            incremental.set_arm(Action::new(arm), arm_sums).unwrap();
        }
        check_models_bit_identical(&rebuilt, &incremental, seed);
        check_refresh_schedule(&rebuilt, &incremental, (seed % a as u64) as usize, seed);
    }

    /// Summed leaves read back by `from_leaf` and the fold of the same
    /// updates install the same model, up to a stated floating-point bound.
    ///
    /// With `u = 2⁻⁵³`, `L` updates, `N = Σ n` pulls, prior `λ` and
    /// contexts in the unit ball (so `|n·xᵢxⱼ| ≤ n` and the leaf's clip is
    /// the identity):
    ///
    /// * the reward vectors are bit-equal: both paths add the same products
    ///   `s·xᵢ` to zero in the same order;
    /// * each Gram term is one or two roundings (≤ `2u·n`) away from the
    ///   exact `n·xᵢxⱼ` on either path, each recursive sum of `L + 1` terms
    ///   bounded by `λ + N` adds at most `L·u·(λ + N)`, and the install's
    ///   `λ + (A − λ)` two roundings more per path, so the designs agree
    ///   within `tol_A = (2L + 10)·u·(λ + N)` per coordinate;
    /// * the designs' eigenvalues lie in `[λ, λ + N]` and `‖θ‖ ≤ N/λ`, so a
    ///   design gap of spectral norm `≤ d·tol_A` moves θ by at most
    ///   `d·tol_A·N/λ²`, and each path's Cholesky inverse and solve add at
    ///   most `8d²·u·κ·‖θ‖` with `κ ≤ (λ + N)/λ`.
    ///
    /// No ridge boost fires: the read-back design is exactly the summed
    /// Gram block plus `λ` on the diagonal.
    #[test]
    fn summed_leaves_install_the_model_the_fold_installs(
        seed in any::<u64>(),
        d in 1usize..8,
        len in 1usize..40,
    ) {
        let config = LinUcbConfig::new(d, 1);
        let lambda = config.regularizer;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut folded = ArmSums::new(&config).unwrap();
        let mut summed = vec![0.0f64; ArmSums::leaf_dimension(d)];
        let mut pulls = 0u64;
        for _ in 0..len {
            // |xᵢ| ≤ 1/d keeps ‖x‖₂ ≤ 1/√d ≤ 1, strictly inside the clip.
            let context: Vector =
                (0..d).map(|_| rng.gen_range(-1.0f64..=1.0) / d as f64).collect();
            let count = rng.gen_range(1u64..=10);
            let reward_sum = rng.gen_range(0.0..=count as f64);
            folded.fold(&context, count, reward_sum).unwrap();
            let leaf = ArmSums::leaf(&context, count, reward_sum);
            for (total, term) in summed.iter_mut().zip(leaf) {
                *total += term;
            }
            pulls += count;
        }
        let read = ArmSums::from_leaf(&summed, &config).unwrap();
        for i in 0..d {
            prop_assert_eq!(
                read.design.get(i, i).to_bits(),
                (summed[i * d + i] + lambda).to_bits(),
                "the ridge repair boosted coordinate {}",
                i
            );
        }

        let install = |sums: &ArmSums| {
            let mut model = LinUcb::new(config).unwrap();
            model.set_arm(Action::new(0), sums).unwrap();
            model
        };
        let (from_leaf, from_fold) = (install(&read), install(&folded));
        let arm = Action::new(0);
        prop_assert_eq!(from_leaf.pulls(arm).unwrap(), pulls);
        prop_assert_eq!(from_fold.pulls(arm).unwrap(), pulls);
        prop_assert_eq!(from_leaf.observations(), from_fold.observations());
        let (bl, bf) = (
            from_leaf.reward_vector(arm).unwrap(),
            from_fold.reward_vector(arm).unwrap(),
        );
        for (x, y) in bl.iter().zip(bf.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }

        let u = f64::EPSILON / 2.0;
        let (n, l, dim) = (pulls as f64, len as f64, d as f64);
        let tol_design = (2.0 * l + 10.0) * u * (lambda + n);
        let kappa = (lambda + n) / lambda;
        let tol_theta =
            dim * tol_design * n / (lambda * lambda) + 2.0 * 8.0 * dim * dim * u * kappa * n / lambda;
        let gap = from_leaf
            .design(arm)
            .unwrap()
            .max_abs_diff(from_fold.design(arm).unwrap())
            .unwrap();
        prop_assert!(gap <= tol_design, "design gap {} > {}", gap, tol_design);
        let (tl, tf) = (from_leaf.theta(arm).unwrap(), from_fold.theta(arm).unwrap());
        for (x, y) in tl.iter().zip(tf.iter()) {
            prop_assert!((x - y).abs() <= tol_theta, "theta gap {} > {}", (x - y).abs(), tol_theta);
        }
    }
}
