//! Criterion benchmark of the sharded shuffler engine across shard counts.
//!
//! Sampled end-to-end times: 4 producers submit a fixed report stream, and
//! one measurement covers spawn → submit → finish. The same engine under the
//! whole ingest path is the `ingest_bulk` workload of `bash benchmark/run.sh`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2b_shuffler::{EncodedReport, RawReport, ShufflerConfig, ShufflerEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PRODUCERS: usize = 4;
const REPORTS_PER_PRODUCER: usize = 5_000;

fn streams() -> Vec<Vec<RawReport>> {
    (0..PRODUCERS)
        .map(|producer| {
            let mut rng = StdRng::seed_from_u64(producer as u64 + 7);
            (0..REPORTS_PER_PRODUCER)
                .map(|i| {
                    RawReport::with_timestamp(
                        format!("producer-{producer}"),
                        i as u64,
                        EncodedReport::new(rng.gen_range(0..32), rng.gen_range(0..10), 1.0)
                            .unwrap(),
                    )
                })
                .collect()
        })
        .collect()
}

fn bench_shard_scaling(c: &mut Criterion) {
    let streams = streams();
    let mut group = c.benchmark_group("sharded_engine");
    group.sample_size(10);
    for &shards in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                let engine = ShufflerEngine::builder(ShufflerConfig::new(10))
                    .shards(shards)
                    .batch_size(2_048)
                    .build()
                    .unwrap();
                b.iter(|| {
                    let handle = engine.spawn();
                    std::thread::scope(|scope| {
                        for stream in &streams {
                            let handle_ref = &handle;
                            scope.spawn(move || {
                                for report in stream.iter().cloned() {
                                    handle_ref.submit(report).unwrap();
                                }
                            });
                        }
                    });
                    handle.finish()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_shard_scaling);
criterion_main!(benches);
