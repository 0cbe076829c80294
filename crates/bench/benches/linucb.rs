//! Micro-benchmarks of the LinUCB hot path: action selection and model
//! updates at the dimensions used by the paper's experiments, and one
//! arm's fold and score at the matrix, serve and ingest dimensions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2b_bandit::{Action, ContextualPolicy, LinUcb, LinUcbConfig, SelectScratch};
use p2b_linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_context(dimension: usize, rng: &mut StdRng) -> Vector {
    let raw: Vec<f64> = (0..dimension).map(|_| rng.gen::<f64>()).collect();
    Vector::from(raw).normalized_l1().expect("non-empty")
}

fn bench_select_action(c: &mut Criterion) {
    let mut group = c.benchmark_group("linucb_select_action");
    for &(dimension, actions) in &[(10usize, 10usize), (10, 50), (20, 20)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("d{dimension}_a{actions}")),
            &(dimension, actions),
            |b, &(dimension, actions)| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut policy = LinUcb::new(LinUcbConfig::new(dimension, actions)).unwrap();
                // Pre-train so the benchmark measures the steady state.
                for _ in 0..200 {
                    let ctx = random_context(dimension, &mut rng);
                    let action = policy.select_action(&ctx, &mut rng).unwrap();
                    policy.update(&ctx, action, 0.5).unwrap();
                }
                let ctx = random_context(dimension, &mut rng);
                b.iter(|| policy.select_action(&ctx, &mut rng).unwrap());
            },
        );
    }
    group.finish();
}

fn bench_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("linucb_update");
    for &dimension in &[10usize, 20] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("d{dimension}")),
            &dimension,
            |b, &dimension| {
                let mut rng = StdRng::seed_from_u64(2);
                let mut policy = LinUcb::new(LinUcbConfig::new(dimension, 20)).unwrap();
                let ctx = random_context(dimension, &mut rng);
                b.iter(|| {
                    policy
                        .update(&ctx, p2b_bandit::Action::new(3), 1.0)
                        .unwrap();
                });
            },
        );
    }
    group.finish();
}

/// Dimensions of the matrix (6), serve (16) and ingest (32) workloads.
const ARM_DIMENSIONS: [usize; 3] = [6, 16, 32];

/// A one-arm model trained on 200 folds, and 64 contexts to cycle through.
fn trained_arm(dimension: usize, seed: u64) -> (LinUcb, Vec<Vector>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let contexts: Vec<Vector> = (0..64)
        .map(|_| random_context(dimension, &mut rng))
        .collect();
    let mut policy = LinUcb::new(LinUcbConfig::new(dimension, 1)).unwrap();
    for ctx in contexts.iter().cycle().take(200) {
        policy.update(ctx, Action::new(0), 0.5).unwrap();
    }
    (policy, contexts)
}

/// One per-report fold into an arm the model owns: the statistics update
/// and the θ re-solve that follows it.
fn bench_arm_fold(c: &mut Criterion) {
    let mut group = c.benchmark_group("arm_fold");
    for dimension in ARM_DIMENSIONS {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("d{dimension}")),
            &dimension,
            |b, &dimension| {
                let (mut policy, contexts) = trained_arm(dimension, 3);
                let mut next = contexts.iter().cycle();
                b.iter(|| {
                    let ctx = next.next().unwrap();
                    policy.update(ctx, Action::new(0), 1.0).unwrap();
                });
            },
        );
    }
    group.finish();
}

/// One arm scored against a context the select memo has not seen: the
/// exploration bonus and the estimate, then the argmax over one score.
fn bench_arm_score(c: &mut Criterion) {
    let mut group = c.benchmark_group("arm_score");
    for dimension in ARM_DIMENSIONS {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("d{dimension}")),
            &dimension,
            |b, &dimension| {
                let (policy, contexts) = trained_arm(dimension, 4);
                let mut rng = StdRng::seed_from_u64(5);
                let mut scratch = SelectScratch::new();
                let mut next = contexts.iter().cycle();
                b.iter(|| {
                    let ctx = next.next().unwrap();
                    policy
                        .select_action_with(ctx, &mut rng, &mut scratch)
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_select_action,
    bench_update,
    bench_arm_fold,
    bench_arm_score
);
criterion_main!(benches);
