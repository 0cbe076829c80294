//! Public-API pins for the select path.
//!
//! The one-arm score kernel's paths (`scores` / `select_action_with` and
//! the trait `select_action`) are pinned bit-for-bit against the scalar
//! oracle inside the crate (`src/linucb/select_agreement.rs` — the oracle reads state no
//! public accessor exposes). What needs only public API lives here: the
//! typed shape errors.

use p2b_bandit::{ContextualPolicy, LinUcb, LinUcbConfig, SelectScratch};
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

/// Negative shape tests: the scratch-based paths return typed errors, never
/// panic, for mis-sized contexts.
#[test]
fn scratch_paths_reject_mis_sized_contexts() {
    let policy = train(3, 4, 10, 1);
    let mut scratch = SelectScratch::new();
    let mut rng = StdRng::seed_from_u64(0);
    let wrong = Vector::zeros(2);
    assert!(policy
        .select_action_with(&wrong, &mut rng, &mut scratch)
        .is_err());
    assert!(policy.scores(&wrong).is_err());
}
