//! Agreement pin between the memoized select path and the full sweep.
//!
//! A long-lived [`SelectScratch`] remembers its last sweep and re-scores
//! only the arms whose content stamp has changed since. Whatever happens to
//! the models between two decisions — `update`, `set_arm` of one arm or of
//! several, the test-only `merge`, `clone` — and whichever model the
//! scratch is handed next (a diverged clone, a model of another shape or α),
//! every decision through it must be **bit-for-bit** the decision of a fresh
//! scratch (the sweep), of the trait `select_action` and of the scalar
//! reference in [`super::oracle`]: same score vector, same action, same
//! randomness consumed. A stale remembered score — a mutation path that
//! forgot to re-stamp its arm, a stamp shared by two different arms, a
//! context or α the memo confused with another — fails here.
//!
//! Half the mutations are made while a clone of the model is alive, so the
//! mutated model shares its score mirror and leaves the written arms' lanes
//! stale; the other half are made on a model that owns its mirror alone and
//! writes them through. The decisions right after — memo hit, memo miss,
//! `scores`, the trait path — must read a stale arm off its own state and a
//! written-through arm off its lanes, and a sweep that forgot to re-score a
//! stale lane fails here too.

use crate::{Action, ArmSums, ContextualPolicy, LinUcb, LinUcbConfig, SelectScratch};
use p2b_linalg::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn random_context(d: usize, rng: &mut StdRng) -> Vector {
    (0..d).map(|_| rng.gen_range(0.0f64..1.0)).collect()
}

/// A few contexts to come back to, so that most decisions find the scratch
/// holding their context. The first has a zero coordinate and the second is
/// its twin with that zero negated: numerically equal, different bits.
fn context_pool(d: usize, rng: &mut StdRng) -> Vec<Vector> {
    let mut zeroed = random_context(d, rng).as_slice().to_vec();
    zeroed[0] = 0.0;
    let mut negated = zeroed.clone();
    negated[0] = -0.0;
    vec![
        Vector::from(zeroed),
        Vector::from(negated),
        random_context(d, rng),
    ]
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// One decision four ways, on RNGs that must stay in lockstep.
fn check_decision(
    model: &LinUcb,
    context: &Vector,
    scratch: &mut SelectScratch,
    rngs: &mut [StdRng; 4],
) {
    let [rng_memo, rng_fresh, rng_trait, rng_oracle] = rngs;
    let via_memo = model
        .select_action_with(context, rng_memo, scratch)
        .unwrap();
    // Nothing is stale right after a decision, so this reads back the score
    // vector the decision was taken on without scoring anything.
    let remembered = bits(model.memo_scores(context, &mut scratch.memo).unwrap());
    let via_fresh = model
        .select_action_with(context, rng_fresh, &mut SelectScratch::new())
        .unwrap();
    // The trait path brings a clone's mirror up to date before it sweeps.
    let via_trait = model.clone().select_action(context, rng_trait).unwrap();
    let via_oracle = model.select_action_reference(context, rng_oracle).unwrap();
    prop_assert_eq!(
        &remembered,
        &bits(&model.scores(context).unwrap()),
        "remembered scores diverged from a fresh sweep"
    );
    prop_assert_eq!(
        &remembered,
        &bits(&model.scores_reference(context).unwrap()),
        "remembered scores diverged from the scalar reference"
    );
    prop_assert_eq!(via_memo, via_fresh);
    prop_assert_eq!(via_memo, via_trait);
    prop_assert_eq!(via_memo, via_oracle);
    prop_assert_eq!(&*rng_memo, &*rng_fresh);
    prop_assert_eq!(&*rng_memo, &*rng_trait);
    prop_assert_eq!(&*rng_memo, &*rng_oracle);
}

/// Mutates `models[m]` and decides on it. With `shared`, a clone of the
/// model is alive across the mutation: nothing is copied, every arm the
/// mutation re-stamps is left stale, and the clone (whose lanes are not)
/// decides too. Otherwise the model owns its mirror alone and writes every
/// re-stamped arm through. The first decision primes the memo, so the
/// second finds its context and re-scores the written arms (a hit), while
/// the fresh scratch sweeps the mirror (a miss).
fn mutate_and_decide(
    models: &mut [LinUcb; 3],
    m: usize,
    shared: bool,
    context: &Vector,
    scratch: &mut SelectScratch,
    rngs: &mut [StdRng; 4],
    mutate: impl FnOnce(&mut [LinUcb; 3]),
) {
    check_decision(&models[m], context, scratch, rngs);
    let before = models[m].stamps.clone();
    let source = if shared {
        Some(models[m].clone())
    } else {
        // Models start as clones of one another and may share a mirror
        // still: take it for this model alone, stale lanes and all.
        Arc::make_mut(&mut models[m].arena);
        None
    };
    let mirror = Arc::as_ptr(&models[m].arena);
    let stale = source.as_ref().map(LinUcb::stale_lanes);
    mutate(models);
    let model = &models[m];
    prop_assert!(
        std::ptr::eq(mirror, Arc::as_ptr(&model.arena)),
        "a mutation copied the mirror"
    );
    let restamped: Vec<usize> = (0..before.len())
        .filter(|&arm| before[arm] != model.stamps[arm])
        .collect();
    prop_assert!(!restamped.is_empty(), "a mutation re-stamped no arm");
    for arm in restamped {
        let fresh = model.arena.loaded_stamps()[arm] == model.stamps[arm];
        prop_assert_eq!(
            fresh,
            !shared,
            "arm {} written through a shared mirror, or left stale in an owned one",
            arm
        );
    }
    check_decision(model, context, scratch, rngs);
    if let Some(source) = source {
        prop_assert_eq!(Some(source.stale_lanes()), stale);
        check_decision(&source, context, scratch, rngs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One scratch, three models — two that start as clones and diverge, one
    /// of another shape and α — and a seeded interleaving of decisions with
    /// every way a model can change.
    #[test]
    fn one_scratch_agrees_with_the_sweep_across_mutations_and_models(
        seed in any::<u64>(),
        d in 1usize..8,
        a in 1usize..10,
        steps in 1usize..80,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let twin = LinUcb::new(LinUcbConfig::new(d, a)).unwrap();
        let other = LinUcb::new(LinUcbConfig::new(d + 1, a + 2).with_alpha(0.5)).unwrap();
        // Models 0 and 1 share a shape and can merge into each other.
        let mut models = [twin.clone(), twin, other];
        let pools = [context_pool(d, &mut rng), context_pool(d + 1, &mut rng)];
        let mut scratch = SelectScratch::new();
        let mut rngs = {
            let base = StdRng::seed_from_u64(seed.wrapping_mul(3).wrapping_add(7));
            [base.clone(), base.clone(), base.clone(), base]
        };
        for _ in 0..steps {
            let m = rng.gen_range(0..3usize);
            let (dim, arms) = {
                let config = models[m].config();
                (config.context_dimension, config.num_actions)
            };
            let pool = &pools[usize::from(m == 2)];
            let context = if rng.gen_range(0..8) == 0 {
                random_context(dim, &mut rng)
            } else {
                pool[rng.gen_range(0..pool.len())].clone()
            };
            let arm = Action::new(rng.gen_range(0..arms));
            // Half the steps decide; the rest change the model they drew,
            // half of those while a clone shares its mirror.
            let shared = rng.gen_bool(0.5);
            let (scratch, rngs) = (&mut scratch, &mut rngs);
            match rng.gen_range(0..10) {
                0..=4 => check_decision(&models[m], &context, scratch, rngs),
                5 => {
                    let reward = rng.gen_range(0.0..=1.0);
                    mutate_and_decide(&mut models, m, shared, &context, scratch, rngs, |models| {
                        models[m].update(&context, arm, reward).unwrap();
                    });
                }
                6 => {
                    // An assembly: sums of a few pooled contexts installed
                    // into every arm they were routed to.
                    let config = *models[m].config();
                    let mut sums = vec![ArmSums::new(&config).unwrap(); arms];
                    let mut touched = Vec::new();
                    for _ in 0..rng.gen_range(1..4usize) {
                        let count = rng.gen_range(1u64..5);
                        let target = rng.gen_range(0..arms);
                        let context = &pool[rng.gen_range(0..pool.len())];
                        let reward_sum = rng.gen_range(0.0..=count as f64);
                        sums[target].fold(context, count, reward_sum).unwrap();
                        touched.push(target);
                    }
                    mutate_and_decide(&mut models, m, shared, &context, scratch, rngs, |models| {
                        for &target in &touched {
                            models[m].set_arm(Action::new(target), &sums[target]).unwrap();
                        }
                    });
                }
                7 if m < 2 => {
                    mutate_and_decide(&mut models, m, shared, &context, scratch, rngs, |models| {
                        let from = models[1 - m].clone();
                        models[m].merge(&from).unwrap();
                    });
                }
                8 => {
                    // Sums of a few pooled contexts; none at all installs a
                    // cold arm.
                    let mut sums = ArmSums::new(models[m].config()).unwrap();
                    for _ in 0..rng.gen_range(0..3usize) {
                        let count = rng.gen_range(1u64..5);
                        let context = &pool[rng.gen_range(0..pool.len())];
                        let reward_sum = rng.gen_range(0.0..=count as f64);
                        sums.fold(context, count, reward_sum).unwrap();
                    }
                    mutate_and_decide(&mut models, m, shared, &context, scratch, rngs, |models| {
                        models[m].set_arm(arm, &sums).unwrap();
                    });
                }
                9 if m < 2 => models[m] = models[1 - m].clone(),
                _ => {}
            }
        }
        // Whatever the interleaving left behind, every pooled context still
        // decides the same way on every model, before and after its mirror
        // is brought up to date.
        for (m, model) in models.iter_mut().enumerate() {
            for context in &pools[usize::from(m == 2)] {
                check_decision(model, context, &mut scratch, &mut rngs);
            }
            model.sync_mirror().unwrap();
            prop_assert_eq!(model.stale_lanes(), 0);
            for context in &pools[usize::from(m == 2)] {
                check_decision(model, context, &mut scratch, &mut rngs);
            }
        }
    }
}
