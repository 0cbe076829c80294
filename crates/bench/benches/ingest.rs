//! Micro-benchmarks of central-model batch ingestion: the coalescing
//! sufficient-statistics path at the code-reuse levels produced by
//! crowd-blending thresholds; plus the model-level update path (per-arm
//! sums folded, each touched arm installed once), epoch assembly under
//! sparse flushes, and the secure-aggregation share pipeline. The models
//! the server, assembly and secure stages fold are pinned bit for bit by
//! the `ingest_golden` test.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use p2b_bandit::{Action, ArmSums, ContextualPolicy, LinUcb, LinUcbConfig};
use p2b_core::{CentralServer, Centroids, ModelService, P2bConfig, SecureIngestService};
use p2b_encoding::{Encoder, KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use p2b_shuffler::{
    EncodedReport, RawReport, ReleasedCell, ShuffledBatch, Shuffler, ShufflerConfig,
};
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

/// `count` observations of one context on one arm, with their reward sum.
type Group = (Vector, Action, u64, f64);

/// One coalesced batch at a model shape for the update-path benchmark.
fn update_batch(dimension: usize, actions: usize, len: usize) -> Vec<Group> {
    let mut rng = StdRng::seed_from_u64(29);
    (0..len)
        .map(|_| {
            let raw: Vec<f64> = (0..dimension).map(|_| rng.gen_range(0.0f64..1.0)).collect();
            let context = Vector::from(raw).normalized_l1().expect("non-empty");
            let count = rng.gen_range(1u64..10);
            let reward_sum = rng.gen_range(0.0..=count as f64);
            (
                context,
                Action::new(rng.gen_range(0..actions)),
                count,
                reward_sum,
            )
        })
        .collect()
}

/// The model-level update path, as an ingest shard and the assembly run
/// it: each iteration folds one coalesced batch into cold per-arm sums and
/// installs every touched arm into a fresh model with one refresh each.
/// Shapes span the native 10-arm stream and the wide 32-arm regime.
fn bench_update_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_update");
    for &(dimension, actions) in &[(DIMENSION, ACTIONS), (DIMENSION, 32usize)] {
        let updates = update_batch(dimension, actions, BATCH);
        let shape = format!("d{dimension}a{actions}");
        group.bench_with_input(BenchmarkId::new("sums", &shape), &updates, |b, updates| {
            let config = LinUcbConfig::new(dimension, actions);
            let cold = ArmSums::new(&config).unwrap();
            b.iter_batched(
                || (LinUcb::new(config).unwrap(), vec![cold.clone(); actions]),
                |(mut model, mut sums)| {
                    let mut touched = vec![false; actions];
                    for (context, action, count, reward_sum) in updates {
                        let arm = action.index();
                        sums[arm].fold(context, *count, *reward_sum).unwrap();
                        touched[arm] = true;
                    }
                    for (arm, arm_sums) in sums.iter().enumerate() {
                        if touched[arm] {
                            model.set_arm(Action::new(arm), arm_sums).unwrap();
                        }
                    }
                    model.observations()
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Epoch assembly under sparse flushes: each iteration folds one
/// single-report cell into one arm of a warm 32-arm model service and
/// re-assembles the served model over the dirty-arm union.
fn bench_epoch_assembly(c: &mut Criterion) {
    const ARMS: usize = 32;
    let mut rng = StdRng::seed_from_u64(71);
    // One random context per arm, as code `arm` of the centroid table.
    let contexts: Vec<Vector> = (0..ARMS)
        .map(|_| {
            let raw: Vec<f64> = (0..DIMENSION).map(|_| rng.gen_range(0.0f64..1.0)).collect();
            Vector::from(raw).normalized_l1().expect("non-empty")
        })
        .collect();
    let centroids = Arc::new(Centroids::new(contexts).unwrap());
    let cells: Vec<ReleasedCell> = (0..ARMS)
        .map(|arm| ReleasedCell::of(&EncodedReport::new(arm, arm, 1.0).unwrap()))
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
                service.ingest(&cells, &centroids).unwrap();
                service.assemble().unwrap();
                let mut next = cells.iter().cycle();
                b.iter(|| {
                    let cell = next.next().unwrap();
                    service
                        .ingest(std::slice::from_ref(cell), &centroids)
                        .unwrap();
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
                    for (context, action, count, reward_sum) in updates {
                        service
                            .ingest(context, *action, *count, *reward_sum)
                            .unwrap();
                    }
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
