//! Public-API pins for [`LinUcb::set_arm`], the one way sums become a
//! model.
//!
//! Its agreement with a merge of per-report shard models, and of summed
//! leaves with the fold, are pinned inside the crate
//! (`src/linucb/update_agreement.rs`; the merge oracle is test-only and not
//! exported). What needs only public API lives here: `set_arm`'s cold-start
//! contract, the typed errors of the per-arm install, and the per-report
//! path as an oracle of an install.

use p2b_bandit::{Action, ArmSums, ContextualPolicy, LinUcb, LinUcbConfig};
use p2b_linalg::Vector;
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
        .factor(target)
        .unwrap()
        .packed()
        .iter()
        .zip(cold.factor(target).unwrap().packed())
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
            .factor(action)
            .unwrap()
            .packed()
            .iter()
            .zip(before.factor(action).unwrap().packed())
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

/// `|x − y| ≤ 1e-9·(1 + max(|x|, |y|))`.
fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()))
}

/// A sums fold rejects a mis-sized context without touching the sums, and
/// installing the sums of single reports matches the per-report path: the
/// per-report update runs the fold's reward-vector arithmetic at `n = 1`,
/// so reward vectors, pulls and observations are equal bit for bit; its
/// design lives only in the factor its rank-one updates keep, while the
/// install factors the summed design once, so θ and scores agree within
/// `1e-9·(1 + |value|)` — after 4 096 reports (designs of condition number
/// at most 4 097 over unit-ball contexts) and again after 4 096 more
/// reports folded into both.
#[test]
fn installed_sums_match_the_per_report_fold() {
    let mut rng = StdRng::seed_from_u64(5);
    let config = LinUcbConfig::new(3, 1);
    let mut sums = ArmSums::new(&config).unwrap();
    let cold = sums.clone();
    assert!(sums.fold(&Vector::zeros(4), 1, 0.5).is_err());
    assert_eq!(sums, cold);

    let action = Action::new(0);
    let mut per_report = LinUcb::new(config).unwrap();
    for _ in 0..4096 {
        let reward = rng.gen_range(0.0..=1.0);
        let context = random_context(3, &mut rng);
        per_report.update(&context, action, reward).unwrap();
        sums.fold(&context, 1, reward).unwrap();
    }
    let mut installed = LinUcb::new(config).unwrap();
    installed.set_arm(action, &sums).unwrap();
    assert_eq!(installed.observations(), per_report.observations());
    assert_eq!(installed.pulls(action), per_report.pulls(action));
    assert_eq!(
        installed.reward_vector(action),
        per_report.reward_vector(action)
    );
    let agree = |installed: &LinUcb, per_report: &LinUcb, probe: &Vector| {
        let (ti, tp) = (
            installed.theta(action).unwrap(),
            per_report.theta(action).unwrap(),
        );
        for (x, y) in ti.iter().zip(tp.iter()) {
            assert!(close(*x, *y), "theta {x} vs {y}");
        }
        let (si, sp) = (
            installed.scores(probe).unwrap(),
            per_report.scores(probe).unwrap(),
        );
        assert!(close(si[0], sp[0]), "score {} vs {}", si[0], sp[0]);
    };
    agree(&installed, &per_report, &random_context(3, &mut rng));

    for step in 0..4096 {
        let context = random_context(3, &mut rng);
        let reward = (step % 2) as f64;
        installed.update(&context, action, reward).unwrap();
        per_report.update(&context, action, reward).unwrap();
    }
    agree(&installed, &per_report, &random_context(3, &mut rng));
}
