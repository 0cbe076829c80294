//! Agreement pins for the derived f32 scoring tier.
//!
//! The f64 arena path (`scores` / `select_action_with` and the trait
//! `select_action`) is pinned bit-for-bit against the scalar oracle inside
//! the crate (`src/linucb/select_agreement.rs` — the oracle reads state no
//! public accessor exposes). What needs only public API lives here: the
//! derived f32 tier ([`F32Scorer`]), whose *chosen actions* are pinned
//! against the f64 path across golden seeds, and the typed shape errors.

use p2b_bandit::{
    ContextualPolicy, F32Scorer, LinUcb, LinUcbConfig, SelectScratch, SelectScratchF32,
};
use p2b_linalg::Vector;
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

/// The f32 tier's *chosen actions* are pinned against the f64 path across
/// golden seeds: deterministic models, deterministic contexts, identical RNG
/// streams. (Scores differ by ~1e-7 relative error, but the argmax — what
/// the system actually serves — must not.)
#[test]
fn f32_tier_chosen_actions_match_f64_on_golden_seeds() {
    for seed in [0u64, 7, 42, 1234, 99991] {
        let policy = train(6, 8, 300, seed);
        let scorer = F32Scorer::new(&policy);
        let mut scratch64 = SelectScratch::new();
        let mut scratch32 = SelectScratchF32::new();
        let mut ctx_rng = StdRng::seed_from_u64(seed.wrapping_add(17));
        let mut rng64 = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(1));
        let mut rng32 = rng64.clone();
        for round in 0..200 {
            let ctx = random_context(6, &mut ctx_rng);
            let a64 = policy
                .select_action_with(&ctx, &mut rng64, &mut scratch64)
                .unwrap();
            let a32 = scorer
                .select_action_with(&ctx, &mut rng32, &mut scratch32)
                .unwrap();
            assert_eq!(
                a64, a32,
                "seed {seed}, round {round}: f32 tier chose a different action"
            );
        }
        assert_eq!(rng64, rng32, "seed {seed}: RNG streams diverged");
    }
}

/// Cold-start models tie across all arms in both tiers: the f32 widening
/// preserves exact equality, so the shared tie-breaking consumes the same
/// randomness and picks the same arm.
#[test]
fn f32_tier_matches_f64_on_cold_start_ties() {
    let policy = LinUcb::new(LinUcbConfig::new(4, 10)).unwrap();
    let scorer = F32Scorer::new(&policy);
    let ctx = Vector::from(vec![0.25; 4]);
    let mut scratch64 = SelectScratch::new();
    let mut scratch32 = SelectScratchF32::new();
    let mut rng64 = StdRng::seed_from_u64(5);
    let mut rng32 = StdRng::seed_from_u64(5);
    for _ in 0..50 {
        let a64 = policy
            .select_action_with(&ctx, &mut rng64, &mut scratch64)
            .unwrap();
        let a32 = scorer
            .select_action_with(&ctx, &mut rng32, &mut scratch32)
            .unwrap();
        assert_eq!(a64, a32);
    }
}

/// Negative shape tests: the scratch-based paths return typed errors, never
/// panic, for mis-sized contexts.
#[test]
fn scratch_paths_reject_mis_sized_contexts() {
    let policy = train(3, 4, 10, 1);
    let scorer = F32Scorer::new(&policy);
    let mut scratch = SelectScratch::new();
    let mut scratch32 = SelectScratchF32::new();
    let mut rng = StdRng::seed_from_u64(0);
    let wrong = Vector::zeros(2);
    assert!(policy
        .select_action_with(&wrong, &mut rng, &mut scratch)
        .is_err());
    assert!(scorer
        .select_action_with(&wrong, &mut rng, &mut scratch32)
        .is_err());
    assert!(policy.scores(&wrong).is_err());
}
