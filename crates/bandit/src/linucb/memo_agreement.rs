//! Agreement pin between the memoized select path and the full sweep.
//!
//! A long-lived [`SelectScratch`] remembers its last sweep and re-scores
//! only the arms whose content stamp has changed since. Whatever happens to
//! the models between two decisions — `update`, `update_batch_with`,
//! `merge`, `reset_arm` + `merge_arm`, `clone` — and whichever model the
//! scratch is handed next (a diverged clone, a model of another shape or α),
//! every decision through it must be **bit-for-bit** the decision of a fresh
//! scratch (the sweep) and of the scalar reference in [`super::oracle`]:
//! same score vector, same action, same randomness consumed. A stale
//! remembered score — a mutation path that forgot to re-stamp its arm, a
//! stamp shared by two different arms, a context or α the memo confused
//! with another — fails here.

use crate::{
    Action, CoalescedUpdate, ContextualPolicy, IngestScratch, LinUcb, LinUcbConfig, SelectScratch,
};
use p2b_linalg::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// One decision three ways, on RNGs that must stay in lockstep.
fn check_decision(
    model: &LinUcb,
    context: &Vector,
    scratch: &mut SelectScratch,
    rngs: &mut [StdRng; 3],
) {
    let [rng_memo, rng_fresh, rng_oracle] = rngs;
    let via_memo = model
        .select_action_with(context, rng_memo, scratch)
        .unwrap();
    // Nothing is stale right after a decision, so this reads back the score
    // vector the decision was taken on without scoring anything.
    let remembered = bits(
        model
            .arena
            .ucb_scores_memo(context.as_slice(), model.config.alpha, &mut scratch.memo)
            .unwrap(),
    );
    let via_fresh = model
        .select_action_with(context, rng_fresh, &mut SelectScratch::new())
        .unwrap();
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
    prop_assert_eq!(via_memo, via_oracle);
    prop_assert_eq!(&*rng_memo, &*rng_fresh);
    prop_assert_eq!(&*rng_memo, &*rng_oracle);
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
        let mut ingest = IngestScratch::new();
        let mut rngs = {
            let base = StdRng::seed_from_u64(seed.wrapping_mul(3).wrapping_add(7));
            [base.clone(), base.clone(), base]
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
            // Half the steps decide; the rest change the model they drew.
            match rng.gen_range(0..10) {
                0..=4 => check_decision(&models[m], &context, &mut scratch, &mut rngs),
                5 => models[m].update(&context, arm, rng.gen_range(0.0..=1.0)).unwrap(),
                6 => {
                    let batch: Vec<CoalescedUpdate> = (0..rng.gen_range(1..4usize))
                        .map(|_| {
                            let count = rng.gen_range(1u64..5);
                            CoalescedUpdate::new(
                                pool[rng.gen_range(0..pool.len())].clone(),
                                Action::new(rng.gen_range(0..arms)),
                                count,
                                rng.gen_range(0.0..=count as f64),
                            )
                            .unwrap()
                        })
                        .collect();
                    models[m].update_batch_with(&batch, &mut ingest).unwrap();
                }
                7 if m < 2 => {
                    let from = models[1 - m].clone();
                    models[m].merge(&from).unwrap();
                }
                8 if m < 2 => {
                    let from = models[1 - m].clone();
                    models[m].reset_arm(arm).unwrap();
                    models[m].merge_arm(arm, &from).unwrap();
                }
                9 if m < 2 => models[m] = models[1 - m].clone(),
                _ => {}
            }
        }
        // Whatever the interleaving left behind, every pooled context still
        // decides the same way on every model.
        for (m, model) in models.iter().enumerate() {
            for context in &pools[usize::from(m == 2)] {
                check_decision(model, context, &mut scratch, &mut rngs);
            }
        }
    }
}
