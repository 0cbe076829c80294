//! Micro-benchmarks of the encoding path: k-means fitting and per-context
//! encoding at the paper's code-space sizes (k = 2⁵ … 2¹⁰).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2b_encoding::{Encoder, KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn corpus(dimension: usize, size: usize, rng: &mut StdRng) -> Vec<Vector> {
    (0..size)
        .map(|_| {
            let raw: Vec<f64> = (0..dimension).map(|_| rng.gen::<f64>()).collect();
            Vector::from(raw).normalized_l1().expect("non-empty")
        })
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_encode");
    for &num_codes in &[32usize, 128, 1024] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{num_codes}")),
            &num_codes,
            |b, &num_codes| {
                let mut rng = StdRng::seed_from_u64(2);
                let data = corpus(10, num_codes.max(512) * 2, &mut rng);
                let encoder = KMeansEncoder::fit(
                    &data,
                    KMeansConfig::new(num_codes).with_iterations(10),
                    &mut rng,
                )
                .unwrap();
                let probe = &data[0];
                b.iter(|| encoder.encode(probe).unwrap());
            },
        );
    }
    group.finish();
}

/// `kmeans_encode` above times one probe of a uniform corpus. The scan rules
/// centroids out by how close the context lies to one of them, so its two
/// sides each get a number here, at the largest code space the paper uses:
/// an encoder fitted on jittered copies of 1 024 contexts encodes (i) those
/// contexts, where nearly every centroid is dropped after a short prefix, and
/// (ii) uniform points unrelated to the fit, where none is.
fn bench_encode_clustered(c: &mut Criterion) {
    const CODES: usize = 1024;
    const DIMENSION: usize = 16;
    let mut rng = StdRng::seed_from_u64(4);
    // A simplex point with a few dominant coordinates, or one within ±5 % per
    // coordinate of `centre`: the contexts of the repo benchmark's workloads.
    let mut point = |centre: Option<&Vector>| {
        let raw: Vec<f64> = match centre {
            Some(centre) => centre
                .iter()
                .map(|x| x * (1.0 + 0.1 * (rng.gen::<f64>() - 0.5)))
                .collect(),
            None => (0..DIMENSION)
                .map(|_| 0.02 + rng.gen::<f64>().powi(4))
                .collect(),
        };
        Vector::from(raw).normalized_l1().expect("non-empty")
    };
    let centres: Vec<Vector> = (0..CODES).map(|_| point(None)).collect();
    let data: Vec<Vector> = centres
        .iter()
        .flat_map(|centre| [centre; 8])
        .map(|centre| point(Some(centre)))
        .collect();
    let encoder = KMeansEncoder::fit(
        &data,
        KMeansConfig::new(CODES).with_iterations(10),
        &mut rng,
    )
    .unwrap();
    let uniform = corpus(DIMENSION, CODES, &mut rng);

    let mut group = c.benchmark_group("kmeans_encode_k1024_d16");
    for (name, queries) in [("centre_queries", &centres), ("uniform_queries", &uniform)] {
        group.bench_function(name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % queries.len();
                encoder.encode(&queries[i]).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_fit");
    group.sample_size(10);
    for &num_codes in &[32usize, 128] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{num_codes}")),
            &num_codes,
            |b, &num_codes| {
                let mut rng = StdRng::seed_from_u64(3);
                let data = corpus(10, 2048, &mut rng);
                b.iter(|| {
                    KMeansEncoder::fit(
                        &data,
                        KMeansConfig::new(num_codes).with_iterations(10),
                        &mut rng,
                    )
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_encode, bench_encode_clustered, bench_fit);
criterion_main!(benches);
