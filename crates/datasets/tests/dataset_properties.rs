//! Property-based tests for the workload substrate.

use p2b_datasets::{
    CohortChurnConfig, CohortChurnEnvironment, ContextualEnvironment, CriteoConfig,
    CriteoLikeGenerator, DriftConfig, DriftingPreferenceEnvironment, MultiLabelConfig,
    MultiLabelDataset, SyntheticConfig, SyntheticPreferenceEnvironment,
};
use p2b_linalg::{softmax, Vector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `β·softmax(Wx)` through the allocating kernels, one step at a time: the
/// synthetic benchmark's mean vector as it was first computed.
fn reference_means(env: &SyntheticPreferenceEnvironment, context: &Vector) -> Vec<f64> {
    let logits = env.weights().matvec(context).unwrap();
    softmax(logits.as_slice())
        .into_iter()
        .map(|p| env.config().beta * p)
        .collect()
}

/// Holds `env`'s mean vector under `context` bit-equal to `expected`, each
/// entry bit-equal to the action's `expected_reward`, and `optimal_reward`
/// equal to the vector's largest entry.
fn check_mean_vector(env: &dyn ContextualEnvironment, context: &Vector, expected: &[f64]) {
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    // A stale, longer buffer is replaced, not appended to.
    let mut means = vec![f64::NAN; expected.len() + 3];
    env.mean_rewards_into(context, &mut means).unwrap();
    prop_assert_eq!(bits(&means), bits(expected));
    for (action, mean) in means.iter().enumerate() {
        prop_assert_eq!(
            env.expected_reward(context, action).unwrap().to_bits(),
            mean.to_bits()
        );
    }
    let max = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    prop_assert_eq!(
        env.optimal_reward(context).unwrap().to_bits(),
        max.to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The synthetic environment always produces simplex contexts and rewards
    /// inside [0, 1], for any dimension/action combination.
    #[test]
    fn synthetic_environment_invariants(
        d in 2usize..16,
        a in 2usize..30,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut env =
            SyntheticPreferenceEnvironment::new(SyntheticConfig::new(d, a), &mut rng).unwrap();
        for _ in 0..5 {
            let ctx = env.sample_context(&mut rng);
            prop_assert_eq!(ctx.len(), d);
            prop_assert!((ctx.sum() - 1.0).abs() < 1e-9);
            for action in 0..a {
                let r = env.sample_reward(&ctx, action, &mut rng).unwrap();
                prop_assert!((0.0..=1.0).contains(&r));
                let mean = env.expected_reward(&ctx, action).unwrap();
                prop_assert!((0.0..=0.1 + 1e-12).contains(&mean));
            }
            let opt = env.optimal_reward(&ctx).unwrap();
            for action in 0..a {
                prop_assert!(env.expected_reward(&ctx, action).unwrap() <= opt + 1e-12);
            }
        }
    }

    /// Each environment's one mean-vector evaluation is what every
    /// per-action query reads: the synthetic benchmark's vector is the
    /// reference `β·softmax(Wx)` bit for bit, the drifting one is it rotated
    /// by the current shift — over every rotation and a wrap — and the
    /// churning one is it unrotated.
    #[test]
    fn mean_vectors_match_the_per_action_queries(
        d in 2usize..10,
        a in 2usize..12,
        period in 1u64..4,
        seed in any::<u64>(),
    ) {
        let config = SyntheticConfig::new(d, a).with_beta(0.8);
        // One seed per environment: each draws the same weights first.
        let mut base =
            SyntheticPreferenceEnvironment::new(config, &mut StdRng::seed_from_u64(seed)).unwrap();
        let mut drifting = DriftingPreferenceEnvironment::new(
            config,
            DriftConfig::new(period),
            &mut StdRng::seed_from_u64(seed),
        ).unwrap();
        let mut churning = CohortChurnEnvironment::new(
            CohortChurnConfig::new(config).with_rotation_period(period),
            &mut StdRng::seed_from_u64(seed),
        ).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        for _ in 0..(a as u64 + 2) * period {
            let context = base.sample_context(&mut rng);
            let reference = reference_means(&base, &context);
            check_mean_vector(&base, &context, &reference);
            let shift = drifting.shift();
            let rotated: Vec<f64> = (0..a).map(|action| reference[(action + shift) % a]).collect();
            check_mean_vector(&drifting, &context, &rotated);
            check_mean_vector(&churning, &context, &reference);
            drifting.advance_round();
            churning.advance_round(&mut rng);
        }
    }

    /// Multi-label instances never carry labels outside the configured range
    /// and the reward function agrees with label membership.
    #[test]
    fn multilabel_rewards_match_membership(
        instances in 50usize..200,
        labels in 3usize..12,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = MultiLabelDataset::generate(
            MultiLabelConfig::new(instances, 8, labels),
            &mut rng,
        ).unwrap();
        prop_assert_eq!(ds.len(), instances);
        for instance in ds.instances() {
            for action in 0..labels {
                let expected = if instance.labels().contains(&action) { 1.0 } else { 0.0 };
                prop_assert_eq!(instance.reward(action), expected);
            }
        }
    }

    /// Agent splits never duplicate an instance (sampling without replacement).
    #[test]
    fn multilabel_split_has_no_duplicates(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = MultiLabelDataset::generate(MultiLabelConfig::new(600, 6, 5), &mut rng).unwrap();
        let agents = ds.split_agents(5, 100, &mut rng).unwrap();
        // Serialize contexts to compare identity-ish: with continuous noise the
        // probability of two generated instances being bitwise identical is
        // negligible, so duplicates indicate replacement.
        let mut seen = std::collections::HashSet::new();
        let mut duplicates = 0usize;
        for agent in &agents {
            for inst in agent {
                let key: Vec<u64> = inst.context().iter().map(|x| x.to_bits()).collect();
                if !seen.insert(key) {
                    duplicates += 1;
                }
            }
        }
        prop_assert!(duplicates <= 1, "found {duplicates} duplicated instances");
    }

    /// Criteo impressions always carry codes below the configured action count.
    #[test]
    fn criteo_codes_are_in_range(codes in 4usize..16, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let generator = CriteoLikeGenerator::new(
            CriteoConfig::new().with_product_codes(codes),
            &mut rng,
        ).unwrap();
        let impressions = generator.generate(2000, &mut rng).unwrap();
        prop_assert!(!impressions.is_empty());
        for imp in &impressions {
            prop_assert!(imp.product_code() < codes);
            prop_assert!((imp.context().sum() - 1.0).abs() < 1e-9);
        }
    }
}
