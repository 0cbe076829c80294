//! Micro-benchmarks of the LinUCB select path over identical trained
//! models, both through one long-lived `SelectScratch`:
//!
//! * `select_miss` — contexts alternate, so the scratch's memo never holds
//!   the decision's context and every decision re-scores all arms with the
//!   one-arm kernel (allocation-free once warm; pinned bit-for-bit against
//!   the scalar oracle by `p2b_bandit`'s in-crate `select_agreement` suite);
//! * `select_memo` — the other side of the same call: one context, one
//!   reward folded into the chosen arm between decisions, so each decision
//!   re-scores exactly that arm (`memo_agreement` pins it equal to a fresh
//!   scratch).
//!
//! This bench gives per-decision latencies under criterion's measurement
//! loop; `bash benchmark/run.sh` reports the same path end to end as the
//! `bandit.select` / `core.agent.select` layers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2b_bandit::{ContextualPolicy, LinUcb, LinUcbConfig, SelectScratch};
use p2b_linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Model shapes spanning the paper's experiment grid: small frequent
/// decisions up to the wide-code regime.
const SHAPES: [(usize, usize); 3] = [(10usize, 10usize), (16, 50), (32, 100)];

fn random_context(dimension: usize, rng: &mut StdRng) -> Vector {
    let raw: Vec<f64> = (0..dimension).map(|_| rng.gen::<f64>()).collect();
    Vector::from(raw).normalized_l1().expect("non-empty")
}

/// Pre-trains a model so every path scores non-trivial statistics.
fn trained(dimension: usize, actions: usize) -> LinUcb {
    let mut rng = StdRng::seed_from_u64(dimension as u64 * 31 + actions as u64);
    let mut policy = LinUcb::new(LinUcbConfig::new(dimension, actions)).unwrap();
    for _ in 0..300 {
        let ctx = random_context(dimension, &mut rng);
        let action = policy.select_action(&ctx, &mut rng).unwrap();
        policy
            .update(&ctx, action, f64::from(rng.gen_range(0..2u8)))
            .unwrap();
    }
    policy
}

fn bench_select_miss(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_miss");
    for &(dimension, actions) in &SHAPES {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("d{dimension}_a{actions}")),
            &(dimension, actions),
            |b, &(dimension, actions)| {
                let policy = trained(dimension, actions);
                let mut rng = StdRng::seed_from_u64(1);
                // Two contexts are enough: the memo holds one.
                let contexts = [
                    random_context(dimension, &mut rng),
                    random_context(dimension, &mut rng),
                ];
                let mut scratch = SelectScratch::new();
                let mut turn = 0usize;
                b.iter(|| {
                    turn ^= 1;
                    policy
                        .select_action_with(&contexts[turn], &mut rng, &mut scratch)
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_select_memo(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_memo");
    for &(dimension, actions) in &SHAPES {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("d{dimension}_a{actions}")),
            &(dimension, actions),
            |b, &(dimension, actions)| {
                let mut policy = trained(dimension, actions);
                let mut rng = StdRng::seed_from_u64(1);
                let ctx = random_context(dimension, &mut rng);
                let mut scratch = SelectScratch::new();
                // The fold is timed too: it is what makes the next decision
                // re-score an arm, and `benches/linucb.rs` times it alone.
                b.iter(|| {
                    let action = policy
                        .select_action_with(&ctx, &mut rng, &mut scratch)
                        .unwrap();
                    policy.update(&ctx, action, 1.0).unwrap();
                    action
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_select_miss, bench_select_memo);
criterion_main!(benches);
