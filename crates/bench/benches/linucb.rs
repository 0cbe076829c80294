//! Micro-benchmarks of the LinUCB hot path: action selection and model
//! updates at the dimensions used by the paper's experiments, and the exact
//! inverse an arm's build and periodic refresh compute from its factor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2b_bandit::{ContextualPolicy, LinUcb, LinUcbConfig};
use p2b_linalg::{Cholesky, Matrix, Vector};
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

/// `Cholesky::inverse` of a design `I + Σ 3·x xᵀ` over `4d` contexts: the
/// all-columns kernel every arm build (`BuiltArm::new`) and every periodic
/// refresh runs once.
fn bench_inverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholesky_inverse");
    for &dimension in &[16usize, 32] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("d{dimension}")),
            &dimension,
            |b, &dimension| {
                let mut rng = StdRng::seed_from_u64(3);
                let mut design = Matrix::identity(dimension);
                for _ in 0..4 * dimension {
                    let x = random_context(dimension, &mut rng);
                    design.add_outer_product(&x, 3.0).unwrap();
                }
                let factor = Cholesky::new(&design).unwrap();
                b.iter(|| factor.inverse());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_select_action, bench_update, bench_inverse);
criterion_main!(benches);
