//! End-to-end benchmark: one full P2B user session (warm-start, T local
//! interactions, randomized reporting) plus the server-side streaming round
//! (shuffler engine, then the coalesced fold).

use criterion::{criterion_group, criterion_main, Criterion};
use p2b_core::{P2bConfig, P2bSystem};
use p2b_encoding::{KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn simplex_context(dimension: usize, rng: &mut StdRng) -> Vector {
    let raw: Vec<f64> = (0..dimension).map(|_| rng.gen::<f64>()).collect();
    Vector::from(raw).normalized_l1().expect("non-empty")
}

fn build_system(dimension: usize, actions: usize, codes: usize, rng: &mut StdRng) -> P2bSystem {
    let corpus: Vec<Vector> = (0..codes * 4)
        .map(|_| simplex_context(dimension, rng))
        .collect();
    let encoder =
        KMeansEncoder::fit(&corpus, KMeansConfig::new(codes).with_iterations(10), rng).unwrap();
    P2bSystem::new(
        P2bConfig::new(dimension, actions).with_shuffler_threshold(2),
        Arc::new(encoder),
    )
    .unwrap()
}

fn bench_user_session(c: &mut Criterion) {
    c.bench_function("p2b_user_session_d10_a20_t10", |b| {
        let mut rng = StdRng::seed_from_u64(1);
        let mut system = build_system(10, 20, 128, &mut rng);
        b.iter(|| {
            let mut agent = system.make_warm_agent().unwrap();
            for _ in 0..10 {
                let ctx = simplex_context(10, &mut rng);
                let action = agent.select_action(&ctx, &mut rng).unwrap();
                let reward = if action.index() % 2 == 0 { 1.0 } else { 0.0 };
                agent
                    .observe_reward(&ctx, action, reward, &mut rng)
                    .unwrap();
            }
            agent.take_reports()
        });
    });
}

fn bench_streaming_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("p2b_streaming_round");
    group.sample_size(20);
    group.bench_function("50_agent_sessions", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter_batched(
            || {
                let mut system = build_system(10, 20, 32, &mut rng);
                let mut fill_rng = StdRng::seed_from_u64(3);
                let mut reports = Vec::new();
                for _ in 0..50 {
                    let mut agent = system.make_warm_agent().unwrap();
                    for _ in 0..10 {
                        let ctx = simplex_context(10, &mut fill_rng);
                        let action = agent.select_action(&ctx, &mut fill_rng).unwrap();
                        agent
                            .observe_reward(&ctx, action, 1.0, &mut fill_rng)
                            .unwrap();
                    }
                    reports.extend(agent.take_reports());
                }
                (system, reports)
            },
            |(mut system, reports)| system.streaming_round(reports, 4).unwrap(),
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_user_session, bench_streaming_round);
criterion_main!(benches);
