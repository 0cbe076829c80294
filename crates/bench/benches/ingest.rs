//! Micro-benchmarks of central-model batch ingestion: the sequential
//! per-report path against the coalescing sufficient-statistics path, at
//! the code-reuse levels produced by crowd-blending thresholds; plus the
//! model-level update path (batch-deferred scratch sync) underneath the
//! server, epoch assembly under sparse flushes, and the secure-aggregation
//! share pipeline. The models these stages fold are pinned bit for bit by
//! the `ingest_golden` test.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use p2b_bandit::{Action, CoalescedUpdate, ContextualPolicy, IngestScratch, LinUcb, LinUcbConfig};
use p2b_core::{CentralServer, ModelService, P2bConfig, SecureIngestService};
use p2b_encoding::{Encoder, KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use p2b_shuffler::{EncodedReport, RawReport, ShuffledBatch, Shuffler, ShufflerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const DIMENSION: usize = 16;
const ACTIONS: usize = 10;
const CODES: usize = 32;
const BATCH: usize = 1_024;

fn encoder() -> Arc<dyn Encoder> {
    let mut rng = StdRng::seed_from_u64(3);
    let corpus: Vec<Vector> = (0..CODES * 8)
        .map(|i| {
            let mut raw = vec![0.05; DIMENSION];
            raw[i % DIMENSION] = 1.0 + 0.05 * ((i / DIMENSION) % 5) as f64;
            Vector::from(raw).normalized_l1().expect("non-empty")
        })
        .collect();
    Arc::new(
        KMeansEncoder::fit(
            &corpus,
            KMeansConfig::new(CODES).with_iterations(8),
            &mut rng,
        )
        .expect("corpus is larger than k"),
    )
}

/// One shuffled batch over `codes` distinct codes: reuse = BATCH / (codes·A).
fn batch(codes: usize) -> ShuffledBatch {
    let shuffler = Shuffler::new(ShufflerConfig::new(1)).expect("threshold 1 is valid");
    let mut rng = StdRng::seed_from_u64(17);
    let raw: Vec<RawReport> = (0..BATCH)
        .map(|i| {
            RawReport::with_timestamp(
                "bench",
                i as u64,
                EncodedReport::new(
                    rng.gen_range(0..codes),
                    rng.gen_range(0..ACTIONS),
                    f64::from(rng.gen_range(0..2u8)),
                )
                .expect("rewards 0/1 are valid"),
            )
        })
        .collect();
    shuffler.process(raw, &mut rng)
}

fn bench_ingest(c: &mut Criterion) {
    let encoder = encoder();
    let mut group = c.benchmark_group("central_ingest");
    // 32 codes → ~3x reuse; 8 codes → ~13x reuse (the post-threshold regime).
    for &codes in &[32usize, 8] {
        let shuffled = batch(codes);
        // Each iteration folds one batch AND assembles the epoch snapshot:
        // assembly synchronizes with every ingest shard, so the timing
        // covers the actual model work, not just the dispatch.
        group.bench_with_input(
            BenchmarkId::new("sequential", format!("codes{codes}")),
            &shuffled,
            |b, shuffled| {
                let config = P2bConfig::new(DIMENSION, ACTIONS);
                let mut server = CentralServer::new(&config, Arc::clone(&encoder)).unwrap();
                b.iter(|| {
                    server.ingest_batch(shuffled).unwrap();
                    server.model().unwrap().observations()
                });
            },
        );
        for &shards in &[1usize, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("coalesced_s{shards}"), format!("codes{codes}")),
                &shuffled,
                |b, shuffled| {
                    let config = P2bConfig::new(DIMENSION, ACTIONS).with_ingest_shards(shards);
                    let mut server = CentralServer::new(&config, Arc::clone(&encoder)).unwrap();
                    b.iter(|| {
                        server.ingest_batch_coalesced(shuffled).unwrap();
                        server.model().unwrap().observations()
                    });
                },
            );
        }
    }
    group.finish();
}

/// One coalesced batch at a model shape for the update-path benchmark.
fn update_batch(dimension: usize, actions: usize, len: usize) -> Vec<CoalescedUpdate> {
    let mut rng = StdRng::seed_from_u64(29);
    (0..len)
        .map(|_| {
            let raw: Vec<f64> = (0..dimension).map(|_| rng.gen_range(0.0f64..1.0)).collect();
            let context = Vector::from(raw).normalized_l1().expect("non-empty");
            let count = rng.gen_range(1u64..10);
            let reward_sum = rng.gen_range(0.0..=count as f64);
            CoalescedUpdate::new(
                context,
                Action::new(rng.gen_range(0..actions)),
                count,
                reward_sum,
            )
            .expect("generated updates are well-formed")
        })
        .collect()
}

/// The model-level update path underneath the server: each iteration folds
/// one coalesced batch into a fresh model through the scratch path that
/// defers the theta solve and arena scatter to once per touched arm per
/// batch. Shapes span the native 10-arm stream and the wide 32-arm regime.
fn bench_update_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_update");
    for &(dimension, actions) in &[(DIMENSION, ACTIONS), (DIMENSION, 32usize)] {
        let updates = update_batch(dimension, actions, BATCH);
        let shape = format!("d{dimension}a{actions}");
        group.bench_with_input(
            BenchmarkId::new("scratch", &shape),
            &updates,
            |b, updates| {
                let mut scratch = IngestScratch::new();
                b.iter_batched(
                    || LinUcb::new(LinUcbConfig::new(dimension, actions)).unwrap(),
                    |mut model| {
                        model.update_batch_with(updates, &mut scratch).unwrap();
                        model.observations()
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

/// Epoch assembly under sparse flushes: each iteration folds one
/// single-report update into one arm of a warm 32-arm model service and
/// re-assembles the served model over the dirty-arm union.
fn bench_epoch_assembly(c: &mut Criterion) {
    const ARMS: usize = 32;
    let mut rng = StdRng::seed_from_u64(71);
    let updates: Vec<CoalescedUpdate> = (0..ARMS)
        .map(|arm| {
            let raw: Vec<f64> = (0..DIMENSION).map(|_| rng.gen_range(0.0f64..1.0)).collect();
            let context = Vector::from(raw).normalized_l1().expect("non-empty");
            CoalescedUpdate::new(context, Action::new(arm), 1, 1.0).unwrap()
        })
        .collect();
    let mut group = c.benchmark_group("epoch_assembly");
    for &shards in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("sparse_flush", format!("s{shards}")),
            &shards,
            |b, &shards| {
                let config = LinUcbConfig::new(DIMENSION, ARMS);
                let mut service = ModelService::spawn(config, shards).unwrap();
                // Warm every arm and take the full first assembly untimed.
                service.ingest(updates.clone()).unwrap();
                service.assemble().unwrap();
                let mut next = updates.iter().cycle();
                b.iter(|| {
                    service.ingest(vec![next.next().unwrap().clone()]).unwrap();
                    service.assemble().unwrap().0.observations()
                });
            },
        );
    }
    group.finish();
}

/// Secure-aggregation ingest: each iteration secret-shares one coalesced
/// batch across `k` aggregator shards, then closes the share epoch and
/// republishes the model from the recombined sums.
fn bench_secure_agg_ingest(c: &mut Criterion) {
    let updates = update_batch(DIMENSION, ACTIONS, 128);
    let mut group = c.benchmark_group("secure_agg_ingest");
    for &shards in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("recombined", format!("s{shards}")),
            &updates,
            |b, updates| {
                let config = LinUcbConfig::new(DIMENSION, ACTIONS);
                let mut service = SecureIngestService::new(config, shards, 5).unwrap();
                b.iter(|| {
                    service.ingest_batch(updates).unwrap();
                    service.assemble().unwrap().observations()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest,
    bench_update_path,
    bench_epoch_assembly,
    bench_secure_agg_ingest
);
criterion_main!(benches);
