//! Agreement pins for the one way sums become a model, [`LinUcb::set_arm`].
//!
//! * **Install ≡ install.** Re-deriving every arm of a stale model from
//!   the owning shard's [`ArmSums`] lands on the bits of installing the
//!   same sums into a cold model: factors, reward vectors, pulls, thetas,
//!   arena-resident scores.
//! * **Install ≈ merge.** The test-only merge of every shard's per-report
//!   model in [`super::oracle`] describes the same statistics by another
//!   route (rank-one factor updates, then `LDLᵀ` summed and factored
//!   afresh), so it agrees with the install within a stated bound, with
//!   bit-equal reward vectors and equal pulls.
//! * **Leaf ≡ fold.** The aggregating regimes sum flat leaves and read them
//!   back with [`crate::BuiltArm::from_leaf`]; the ingest shards fold. Over the
//!   same updates, with contexts in the unit ball (where the leaf clips
//!   nothing), the two sums install models with equal pulls and reward
//!   vectors, no ridge boost, and designs and thetas within a derived
//!   bound.
//!
//! The suites that need only public API (`set_arm`'s cold-start contract,
//! its errors, the per-report path as an oracle of an install) live in
//! `tests/update_agreement.rs`.

use crate::{Action, ArmSums, ContextualPolicy, LinUcb, LinUcbConfig};

/// `count` observations of one context on one arm, with their reward sum.
type Group = (Vector, Action, u64, f64);
use p2b_linalg::Vector;
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
/// pulls, factors, reward vectors, thetas, and the arena-resident scores
/// actually served to agents.
fn check_models_bit_identical(left: &LinUcb, right: &LinUcb, seed: u64) {
    let d = left.config().context_dimension;
    let a = left.config().num_actions;
    prop_assert_eq!(left.observations(), right.observations());
    for arm in 0..a {
        let action = Action::new(arm);
        prop_assert_eq!(left.pulls(action).unwrap(), right.pulls(action).unwrap());
        let (fl, fr) = (left.factor(action).unwrap(), right.factor(action).unwrap());
        for (x, y) in fl.packed().iter().zip(fr.packed()) {
            prop_assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "factor bits diverged on arm {}",
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
    // Scores read the cached θ: a missed sync leaves the arm's θ and stamp
    // behind its statistics and shows up here even when the statistics above
    // agree.
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

/// Asserts two models describe the same statistics up to rounding: equal
/// observation counts and pulls, bit-equal reward vectors, and thetas and
/// arena-resident scores within `1e-10·(1 + |value|)`. The models here see
/// at most 20 unit-ball reports per arm, so every design has condition
/// number at most 21 and each route's rank-one updates, factorization and
/// solves stay a few hundred `u = 2⁻⁵³` from the exact values.
fn check_models_close(left: &LinUcb, right: &LinUcb, seed: u64) {
    let d = left.config().context_dimension;
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-10 * (1.0 + x.abs().max(y.abs()));
    prop_assert_eq!(left.observations(), right.observations());
    for arm in 0..left.config().num_actions {
        let action = Action::new(arm);
        prop_assert_eq!(left.pulls(action).unwrap(), right.pulls(action).unwrap());
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
            prop_assert!(close(*x, *y), "theta {} vs {} on arm {}", x, y, arm);
        }
    }
    let mut ctx_rng = StdRng::seed_from_u64(seed.wrapping_add(101));
    for _ in 0..4 {
        let ctx = random_context(d, &mut ctx_rng);
        let (sl, sr) = (left.scores(&ctx).unwrap(), right.scores(&ctx).unwrap());
        for (arm, (x, y)) in sl.iter().zip(sr.iter()).enumerate() {
            prop_assert!(close(*x, *y), "score {} vs {} on arm {}", x, y, arm);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Re-deriving every arm of a stale model via `set_arm` from its owning
    /// shard's sums — the epoch assembly primitive — lands on the bits of a
    /// cold model installed from the same sums, and within the bound of
    /// [`check_models_close`] of a full from-scratch merge of both shard
    /// models. Shards own arms by `action % 2`, as the ingest shards do.
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
        let mut fresh = LinUcb::new(config).unwrap();
        for (arm, arm_sums) in sums.iter().enumerate() {
            incremental.set_arm(Action::new(arm), arm_sums).unwrap();
            fresh.set_arm(Action::new(arm), arm_sums).unwrap();
        }
        check_models_bit_identical(&fresh, &incremental, seed);
        check_models_close(&rebuilt, &incremental, seed);
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
    ///   bounded by `λ + N` adds at most `L·u·(λ + N)`, and the read-back's
    ///   `+ λ` one rounding more, so the designs agree within
    ///   `tol_A = (2L + 10)·u·(λ + N)` per coordinate;
    /// * the designs' eigenvalues lie in `[λ, λ + N]` and `‖θ‖ ≤ N/λ`, so a
    ///   design gap of spectral norm `≤ d·tol_A` moves θ by at most
    ///   `d·tol_A·N/λ²`, and each path's factorization and two triangular
    ///   solves add at most `8d²·u·κ·‖θ‖` with `κ ≤ (λ + N)/λ`.
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
        let gap = read.design.max_abs_diff(&folded.design).unwrap();
        prop_assert!(gap <= tol_design, "design gap {} > {}", gap, tol_design);
        let (tl, tf) = (from_leaf.theta(arm).unwrap(), from_fold.theta(arm).unwrap());
        for (x, y) in tl.iter().zip(tf.iter()) {
            prop_assert!((x - y).abs() <= tol_theta, "theta gap {} > {}", (x - y).abs(), tol_theta);
        }
    }
}
