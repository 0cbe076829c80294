//! Property-based integration tests for LinUCB through the
//! [`ContextualPolicy`] methods every caller drives.

use p2b_bandit::{Action, ContextualPolicy, LinUcb, LinUcbConfig};
use p2b_linalg::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A cold-start LinUCB over `d`-dimensional contexts and `a` arms.
fn linucb(d: usize, a: usize) -> LinUcb {
    LinUcb::new(LinUcbConfig::new(d, a)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// LinUCB returns an in-range action for any valid context and accepts
    /// the resulting update without error.
    #[test]
    fn policies_always_return_valid_actions(
        seed in any::<u64>(),
        d in 1usize..6,
        a in 1usize..8,
        raw in prop::collection::vec(0.0f64..1.0, 1..6),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut context_data = raw.clone();
        context_data.resize(d, 0.5);
        let context = Vector::from(context_data).normalized_l1().unwrap();
        let mut policy = linucb(d, a);
        let action = policy.select_action(&context, &mut rng).unwrap();
        prop_assert!(action.index() < a);
        policy.update(&context, action, 0.5).unwrap();
        prop_assert_eq!(policy.observations(), 1);
    }

    /// LinUCB rejects contexts whose dimension does not match the configuration.
    #[test]
    fn policies_reject_mis_sized_contexts(seed in any::<u64>(), d in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let wrong = Vector::zeros(d - 1);
        let mut policy = linucb(d, 3);
        prop_assert!(policy.select_action(&wrong, &mut rng).is_err());
        prop_assert!(policy.update(&wrong, Action::new(0), 0.5).is_err());
    }

    /// Rewards outside [0, 1] are rejected.
    #[test]
    fn policies_reject_out_of_range_rewards(bad in prop_oneof![Just(-0.5f64), Just(1.5f64), Just(f64::NAN)]) {
        let ctx = Vector::from(vec![0.5, 0.5]);
        let mut policy = linucb(2, 2);
        prop_assert!(policy.update(&ctx, Action::new(0), bad).is_err());
    }
}

/// A simple deterministic environment where arm (i mod A) is optimal for
/// basis-vector context e_i. LinUCB must beat the random baseline.
#[test]
fn learning_policies_beat_random_baseline() {
    let d = 4;
    let a = 4;
    let rounds = 1500;

    let run = |policy: &mut LinUcb, seed: u64| -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut total = 0.0;
        for t in 0..rounds {
            let ctx = Vector::basis(d, t % d);
            let action = policy.select_action(&ctx, &mut rng).unwrap();
            let reward = if action.index() == t % a { 1.0 } else { 0.0 };
            policy.update(&ctx, action, reward).unwrap();
            total += reward;
        }
        total / rounds as f64
    };

    let r_linucb = run(&mut linucb(d, a), 1);
    // The random baseline: a uniform draw over the arms each round.
    let mut rng = StdRng::seed_from_u64(4);
    let random_hits = (0..rounds).filter(|t| rng.gen_range(0..a) == t % a).count();
    let r_random = random_hits as f64 / rounds as f64;

    assert!(
        r_linucb > r_random + 0.2,
        "LinUCB {r_linucb:.3} vs random {r_random:.3}"
    );
}

/// LinUCB warm-started from a server snapshot should reach high reward
/// faster than a cold model over a short horizon — the micro-scale version
/// of the paper's cold/warm comparison.
#[test]
fn warm_started_linucb_outperforms_cold_start_on_short_horizon() {
    let d = 3;
    let a = 5;
    let ctxs: Vec<Vector> = (0..d).map(|i| Vector::basis(d, i)).collect();
    let optimal = |ctx: &Vector| ctx.argmax().unwrap() % a;

    // Train a "server" model on plenty of data.
    let mut server = LinUcb::new(LinUcbConfig::new(d, a)).unwrap();
    let mut rng = StdRng::seed_from_u64(10);
    for t in 0..3000 {
        let ctx = &ctxs[t % d];
        let action = server.select_action(ctx, &mut rng).unwrap();
        let reward = if action.index() == optimal(ctx) {
            1.0
        } else {
            0.0
        };
        server.update(ctx, action, reward).unwrap();
    }

    let evaluate = |policy: &mut LinUcb, seed: u64| -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut total = 0.0;
        for t in 0..30 {
            let ctx = &ctxs[t % d];
            let action = policy.select_action(ctx, &mut rng).unwrap();
            let reward = if action.index() == optimal(ctx) {
                1.0
            } else {
                0.0
            };
            policy.update(ctx, action, reward).unwrap();
            total += reward;
        }
        total / 30.0
    };

    let mut cold = LinUcb::new(LinUcbConfig::new(d, a)).unwrap();
    // A warm agent starts from the server's snapshot.
    let mut warm = server.clone();

    let cold_reward = evaluate(&mut cold, 20);
    let warm_reward = evaluate(&mut warm, 21);
    assert!(
        warm_reward > cold_reward,
        "warm {warm_reward:.3} should beat cold {cold_reward:.3} on a 30-step horizon"
    );
}
