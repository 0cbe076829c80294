//! Agreement pin between the arena scoring path and the scalar oracle.
//!
//! The flat arena path (`scores` / `select_action_with` and the trait
//! `select_action`) must be **bit-for-bit** equal to the scalar reference in
//! [`super::oracle`] — the f64 source of truth. The typed shape errors are
//! pinned from public API alone, in `tests/select_agreement.rs`.

use crate::{ContextualPolicy, LinUcb, LinUcbConfig, SelectScratch};
use p2b_linalg::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Trains a LinUCB model on a deterministic synthetic stream.
fn train(d: usize, a: usize, rounds: usize, seed: u64) -> LinUcb {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut policy = LinUcb::new(LinUcbConfig::new(d, a)).unwrap();
    for _ in 0..rounds {
        let ctx = random_context(d, &mut rng);
        let action = policy.select_action(&ctx, &mut rng).unwrap();
        let reward = if action.index() == ctx.argmax().unwrap_or(0) % a {
            1.0
        } else {
            0.0
        };
        policy.update(&ctx, action, reward).unwrap();
    }
    policy
}

fn random_context(d: usize, rng: &mut StdRng) -> Vector {
    let raw: Vector = (0..d).map(|_| rng.gen_range(0.0f64..1.0)).collect();
    raw.normalized_l1().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over random dims, arm counts, training lengths and seeds, the trait
    /// path, the scratch path and the scalar reference path must pick the
    /// same action given identical RNG streams — and the score vectors must
    /// be bit-identical.
    #[test]
    fn all_select_paths_agree_over_random_models(
        seed in any::<u64>(),
        d in 1usize..8,
        a in 1usize..10,
        rounds in 0usize..40,
    ) {
        let mut policy = train(d, a, rounds, seed);
        let frozen = policy.clone();
        let mut scratch = SelectScratch::new();
        let mut ctx_rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        let mut rng_trait = StdRng::seed_from_u64(seed.wrapping_mul(3).wrapping_add(7));
        let mut rng_with = rng_trait.clone();
        let mut rng_reference = rng_trait.clone();
        for _ in 0..12 {
            let ctx = random_context(d, &mut ctx_rng);

            let scores = frozen.scores(&ctx).unwrap();
            let reference = frozen.scores_reference(&ctx).unwrap();
            for (arm, (s, r)) in scores.iter().zip(reference.iter()).enumerate() {
                prop_assert_eq!(
                    s.to_bits(),
                    r.to_bits(),
                    "arena score for arm {} diverged from the scalar reference",
                    arm
                );
            }

            let via_trait = policy.select_action(&ctx, &mut rng_trait).unwrap();
            let via_with = frozen
                .select_action_with(&ctx, &mut rng_with, &mut scratch)
                .unwrap();
            let via_reference = frozen
                .select_action_reference(&ctx, &mut rng_reference)
                .unwrap();
            prop_assert_eq!(via_trait, via_with);
            prop_assert_eq!(via_with, via_reference);
        }
        // All three paths must have consumed randomness identically.
        prop_assert_eq!(&rng_trait, &rng_with);
        prop_assert_eq!(&rng_with, &rng_reference);
    }
}
