//! Public-API pins for the LinUCB ingest path.
//!
//! The bit-identity of [`LinUcb::update_batch_with`] against the
//! sync-per-fold oracle — and of `set_arm` against a full merge — is pinned
//! inside the crate (`src/linucb/update_agreement.rs`; the oracle is
//! test-only and not exported). What needs only public API lives here: the
//! touched-arm report, `set_arm`'s cold-start contract, and the typed errors
//! of the per-arm install.

use p2b_bandit::{
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After a batched fold, [`IngestScratch::touched`] lists exactly the
    /// distinct arms the batch mutated, in order of first touch.
    #[test]
    fn touched_reports_distinct_arms_in_first_touch_order(
        seed in any::<u64>(),
        d in 1usize..6,
        a in 1usize..8,
        len in 1usize..20,
    ) {
        let mut model = LinUcb::new(LinUcbConfig::new(d, a)).unwrap();
        let mut scratch = IngestScratch::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = random_batch(d, a, len, &mut rng);
        model.update_batch_with(&batch, &mut scratch).unwrap();
        let mut expected = Vec::new();
        for update in &batch {
            let idx = update.action().index();
            if !expected.contains(&idx) {
                expected.push(idx);
            }
        }
        prop_assert_eq!(scratch.touched(), expected.as_slice());
    }
}

/// Installing cold sums restores an arm's cold-start statistics (and only
/// its own): other arms keep their exact bits and the observation count
/// drops by the reset arm's pulls.
#[test]
fn set_arm_with_cold_sums_restores_cold_start_statistics() {
    let mut rng = StdRng::seed_from_u64(21);
    let (d, a) = (3, 4);
    let mut model = LinUcb::new(LinUcbConfig::new(d, a)).unwrap();
    model
        .update_batch_with(&random_batch(d, a, 20, &mut rng), &mut IngestScratch::new())
        .unwrap();
    let cold = LinUcb::new(LinUcbConfig::new(d, a)).unwrap();

    let target = Action::new(1);
    let before = model.clone();
    let target_pulls = model.pulls(target).unwrap();
    model
        .set_arm(target, &ArmSums::new(model.config()).unwrap())
        .unwrap();

    assert_eq!(model.pulls(target).unwrap(), 0);
    assert_eq!(
        model.observations(),
        before.observations() - target_pulls,
        "observations must drop by exactly the reset arm's pulls"
    );
    for (x, y) in model
        .design(target)
        .unwrap()
        .as_slice()
        .iter()
        .zip(cold.design(target).unwrap().as_slice().iter())
    {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    for arm in 0..a {
        if arm == target.index() {
            continue;
        }
        let action = Action::new(arm);
        assert_eq!(model.pulls(action).unwrap(), before.pulls(action).unwrap());
        for (x, y) in model
            .design(action)
            .unwrap()
            .as_slice()
            .iter()
            .zip(before.design(action).unwrap().as_slice().iter())
        {
            assert_eq!(x.to_bits(), y.to_bits(), "untouched arm {arm} changed");
        }
    }
}

/// `set_arm` rejects sums of another dimension and out-of-range arms with
/// typed errors, never panics.
#[test]
fn set_arm_rejects_incompatible_inputs() {
    let mut model = LinUcb::new(LinUcbConfig::new(3, 4)).unwrap();
    let mut fewer_arms = LinUcb::new(LinUcbConfig::new(3, 2)).unwrap();
    let other_dim = ArmSums::new(&LinUcbConfig::new(5, 4)).unwrap();
    let compatible = ArmSums::new(model.config()).unwrap();
    assert!(model.set_arm(Action::new(0), &other_dim).is_err());
    assert!(fewer_arms.set_arm(Action::new(3), &compatible).is_err());
    assert!(model.set_arm(Action::new(9), &compatible).is_err());
    assert!(model.set_arm(Action::new(4), &compatible).is_err());
    assert!(model.set_arm(Action::new(0), &compatible).is_ok());
}

/// A sums fold rejects a mis-sized context without touching the sums, and
/// installing the sums equals merging a model that ran the batch fold.
#[test]
fn installed_sums_equal_a_merged_batch_fold() {
    let mut rng = StdRng::seed_from_u64(5);
    let config = LinUcbConfig::new(3, 1);
    let mut sums = ArmSums::new(&config).unwrap();
    let cold = sums.clone();
    let wrong_dim = CoalescedUpdate::new(Vector::zeros(4), Action::new(0), 1, 0.5).unwrap();
    assert!(sums.fold(&wrong_dim).is_err());
    assert_eq!(sums, cold);

    let batch = random_batch(3, 1, 12, &mut rng);
    let mut folded = LinUcb::new(config).unwrap();
    folded
        .update_batch_with(&batch, &mut IngestScratch::new())
        .unwrap();
    let mut merged = LinUcb::new(config).unwrap();
    merged.merge(&folded).unwrap();
    for update in &batch {
        sums.fold(update).unwrap();
    }
    let mut installed = LinUcb::new(config).unwrap();
    installed.set_arm(Action::new(0), &sums).unwrap();
    let action = Action::new(0);
    assert_eq!(installed.observations(), merged.observations());
    assert_eq!(installed.pulls(action), merged.pulls(action));
    assert_eq!(installed.design(action), merged.design(action));
    assert_eq!(
        installed.reward_vector(action),
        merged.reward_vector(action)
    );
    assert_eq!(installed.theta(action), merged.theta(action));
}
