//! Benchmarks of the shuffler: the synchronous kernel (anonymize,
//! tabulate, threshold) over batches of the size a deployment would
//! accumulate between rounds, and the streaming engine end to end, from 4
//! producers and from one at a serving flush's size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2b_shuffler::{EncodedReport, RawReport, Shuffler, ShufflerConfig, ShufflerEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn batch(size: usize, codes: usize, rng: &mut StdRng) -> Vec<RawReport> {
    (0..size)
        .map(|i| {
            let code = rng.gen_range(0..codes);
            let action = rng.gen_range(0..40);
            RawReport::with_timestamp(
                format!("agent-{i}"),
                i as u64,
                EncodedReport::new(code, action, f64::from(rng.gen_range(0..2u8))).unwrap(),
            )
        })
        .collect()
}

fn bench_process(c: &mut Criterion) {
    let mut group = c.benchmark_group("shuffler_process");
    group.sample_size(20);
    for &size in &[1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let shuffler = Shuffler::new(ShufflerConfig::new(10)).unwrap();
            let mut rng = StdRng::seed_from_u64(4);
            b.iter_batched(
                || batch(size, 32, &mut rng),
                |reports| shuffler.process(reports, &mut StdRng::seed_from_u64(5)),
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Producer threads of the engine benchmark.
const PRODUCERS: usize = 4;
const REPORTS_PER_PRODUCER: usize = 5_000;
/// Reports in one flush of the serving loop (`serve_steady`, `serve_churn`),
/// which submits them from one thread into one 2 048-report batch.
const SERVE_FLUSH_REPORTS: usize = 1_200;

/// `len` reports from `producer`, over 32 codes and 10 actions.
fn stream(producer: usize, len: usize) -> Vec<RawReport> {
    let mut rng = StdRng::seed_from_u64(producer as u64 + 7);
    (0..len)
        .map(|i| {
            RawReport::with_timestamp(
                format!("producer-{producer}"),
                i as u64,
                EncodedReport::new(rng.gen_range(0..32), rng.gen_range(0..10), 1.0).unwrap(),
            )
        })
        .collect()
}

/// Sampled end-to-end times of the streaming engine, spawn → submit →
/// finish: 4 producers submit a fixed report stream into 2 048-report
/// batches, and one producer submits a serving flush into one batch (its
/// reports are cloned outside the timed routine). The same engine under the
/// whole ingest path is the `ingest_bulk` workload of
/// `bash benchmark/run.sh`.
fn bench_engine(c: &mut Criterion) {
    let streams: Vec<Vec<RawReport>> = (0..PRODUCERS)
        .map(|producer| stream(producer, REPORTS_PER_PRODUCER))
        .collect();
    let engine = ShufflerEngine::builder(ShufflerConfig::new(10))
        .batch_size(2_048)
        .build()
        .unwrap();
    let mut group = c.benchmark_group("shuffler_engine");
    group.sample_size(10);
    group.bench_function("4_producers", |b| {
        b.iter(|| {
            let handle = engine.spawn();
            std::thread::scope(|scope| {
                for stream in &streams {
                    let handle = &handle;
                    scope.spawn(move || {
                        for report in stream.iter().cloned() {
                            handle.submit(report).unwrap();
                        }
                    });
                }
            });
            handle.finish()
        });
    });
    let flush = stream(0, SERVE_FLUSH_REPORTS);
    group.bench_function("1_producer_serve_flush", |b| {
        b.iter_batched(
            || flush.clone(),
            |reports| {
                let handle = engine.spawn();
                for report in reports {
                    handle.submit(report).unwrap();
                }
                handle.finish()
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_process, bench_engine);
criterion_main!(benches);
