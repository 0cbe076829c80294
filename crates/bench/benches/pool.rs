//! Micro-benchmarks of an `AgentPool` checkout with an empty closure, so
//! only the pool's own bookkeeping is timed:
//!
//! * `hit_checkout` — 128 keys, all resident: a key lookup and an LRU
//!   relink per checkout (allocation-free, pinned by `p2b_core`'s
//!   `pool_allocations` test);
//! * `churn_checkout` — 1 024 keys over a 64-agent budget, 80 % of the
//!   checkouts on 20 % of the keys: most misses dehydrate the
//!   least-recently-used resident and rehydrate the key's dormant agent.
//!
//! `bash benchmark/run.sh` reports the same checkouts end to end as the
//! `core.pool.decide` / `core.pool.fold` layers.

use criterion::{criterion_group, criterion_main, Criterion};
use p2b_core::{AgentPool, AgentPoolConfig, AgentSource, P2bConfig, P2bSystem};
use p2b_encoding::{KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const DIMENSION: usize = 16;
const ACTIONS: usize = 10;

fn source() -> AgentSource {
    let mut rng = StdRng::seed_from_u64(5);
    let corpus: Vec<Vector> = (0..256)
        .map(|_| {
            let raw: Vec<f64> = (0..DIMENSION).map(|_| rng.gen::<f64>()).collect();
            Vector::from(raw).normalized_l1().unwrap()
        })
        .collect();
    let encoder = Arc::new(KMeansEncoder::fit(&corpus, KMeansConfig::new(8), &mut rng).unwrap());
    let mut system = P2bSystem::new(P2bConfig::new(DIMENSION, ACTIONS), encoder).unwrap();
    AgentSource::capture(&mut system).unwrap()
}

/// Times checkouts of `keys` in turn, cycling, after one warming pass.
fn time_checkouts(c: &mut Criterion, name: &str, budget: usize, keys: &[u64]) {
    let source = source();
    let mut pool = AgentPool::new(AgentPoolConfig::bounded(budget)).unwrap();
    for &key in keys {
        pool.with_agent_at(&source, key, |_| Ok(())).unwrap();
    }
    let mut turn = 0;
    c.benchmark_group("pool").bench_function(name, |b| {
        b.iter(|| {
            let key = keys[turn];
            turn = (turn + 1) % keys.len();
            pool.with_agent_at(&source, key, |_| Ok(())).unwrap();
        });
    });
}

fn bench_hit_checkout(c: &mut Criterion) {
    let keys: Vec<u64> = (0..128).collect();
    time_checkouts(c, "hit_checkout", 128, &keys);
}

fn bench_churn_checkout(c: &mut Criterion) {
    // 80 % of the draws land on the 204 hot keys, the rest on the 820 cold
    // ones; a long fixed stream keeps the sampling out of the timed loop.
    let mut rng = StdRng::seed_from_u64(7);
    let keys: Vec<u64> = (0..65_536)
        .map(|_| {
            if rng.gen_bool(0.8) {
                rng.gen_range(0..204)
            } else {
                rng.gen_range(204..1_024)
            }
        })
        .collect();
    time_checkouts(c, "churn_checkout", 64, &keys);
}

criterion_group!(benches, bench_hit_checkout, bench_churn_checkout);
criterion_main!(benches);
