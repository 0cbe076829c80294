//! Public-API pins for [`LinUcb::set_arm`], the one way sums become a
//! model.
//!
//! Its bit-identity against a merge of per-report shard models, and the
//! agreement of summed leaves with the fold, are pinned inside the crate
//! (`src/linucb/update_agreement.rs`; the merge oracle is test-only and not
//! exported). What needs only public API lives here: `set_arm`'s cold-start
//! contract, the typed errors of the per-arm install, and the per-report
//! path as an oracle at a refresh boundary.

use p2b_bandit::{Action, ArmSums, ContextualPolicy, LinUcb, LinUcbConfig};
use p2b_linalg::{RankOneInverse, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_context(d: usize, rng: &mut StdRng) -> Vector {
    let raw: Vector = (0..d).map(|_| rng.gen_range(0.0f64..1.0)).collect();
    raw.normalized_l1().unwrap()
}

/// A random batch of well-formed `(context, action, count, reward sum)`
/// groups: counts in `1..20`, reward sums in `[0, count]`, actions across
/// the whole arm range.
fn random_batch(
    d: usize,
    a: usize,
    len: usize,
    rng: &mut StdRng,
) -> Vec<(Vector, Action, u64, f64)> {
    (0..len)
        .map(|_| {
            let count = rng.gen_range(1u64..20);
            let reward_sum = rng.gen_range(0.0..=count as f64);
            let context = random_context(d, rng);
            (context, Action::new(rng.gen_range(0..a)), count, reward_sum)
        })
        .collect()
}

/// Installing cold sums restores an arm's cold-start statistics (and only
/// its own): other arms keep their exact bits and the observation count
/// drops by the reset arm's pulls.
#[test]
fn set_arm_with_cold_sums_restores_cold_start_statistics() {
    let mut rng = StdRng::seed_from_u64(21);
    let (d, a) = (3, 4);
    let mut model = LinUcb::new(LinUcbConfig::new(d, a)).unwrap();
    for (context, action, count, reward_sum) in random_batch(d, a, 20, &mut rng) {
        model
            .update(&context, action, reward_sum / count as f64)
            .unwrap();
    }
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
/// installing the sums of single reports equals the per-report path bit for
/// bit once that path's update count lands on a refresh: the per-report
/// update runs the fold's design arithmetic at `n = 1`, the install
/// computes `λI + (A − λI)`, which is `A` exactly at `λ = 1`, and both then
/// hold the inverse of the one exact refresh of the same design. The
/// install inherits the fold count, so the two also refresh together later.
#[test]
fn installed_sums_equal_the_per_report_fold_at_a_refresh() {
    let mut rng = StdRng::seed_from_u64(5);
    let config = LinUcbConfig::new(3, 1);
    let mut sums = ArmSums::new(&config).unwrap();
    let cold = sums.clone();
    assert!(sums.fold(&Vector::zeros(4), 1, 0.5).is_err());
    assert_eq!(sums, cold);

    let action = Action::new(0);
    let mut per_report = LinUcb::new(config).unwrap();
    for _ in 0..RankOneInverse::DEFAULT_REFRESH_INTERVAL {
        let reward = rng.gen_range(0.0..=1.0);
        let context = random_context(3, &mut rng);
        per_report.update(&context, action, reward).unwrap();
        sums.fold(&context, 1, reward).unwrap();
    }
    let mut installed = LinUcb::new(config).unwrap();
    installed.set_arm(action, &sums).unwrap();
    assert_eq!(installed.observations(), per_report.observations());
    assert_eq!(installed.pulls(action), per_report.pulls(action));
    assert_eq!(installed.design(action), per_report.design(action));
    assert_eq!(
        installed.reward_vector(action),
        per_report.reward_vector(action)
    );
    assert_eq!(installed.theta(action), per_report.theta(action));
    let probe = random_context(3, &mut rng);
    assert_eq!(
        installed.scores(&probe).unwrap(),
        per_report.scores(&probe).unwrap()
    );

    // The install inherits the fold count, so both models refresh on the
    // same later update and stay equal through a second interval.
    for step in 0..RankOneInverse::DEFAULT_REFRESH_INTERVAL {
        let context = random_context(3, &mut rng);
        let reward = (step % 2) as f64;
        installed.update(&context, action, reward).unwrap();
        per_report.update(&context, action, reward).unwrap();
    }
    assert_eq!(installed.design(action), per_report.design(action));
    assert_eq!(installed.theta(action), per_report.theta(action));
}
