//! Agreement pin between the blocked, prefix-bounded `CentroidIndex` scan and
//! the scalar oracle.
//!
//! The index must return **the same centroid and the same distance, bit for
//! bit**, as [`super::oracle::nearest_centroid`] — for every code-space size
//! around the block width, every dimension around the prefix length,
//! duplicated centroids, contexts equal to a centroid, signed zeros,
//! non-finite coordinates and overflowing distances, and after any sequence
//! of `set` calls (how `fit` keeps the index in step with its centroids).
//! Beside it: the machine-independent cost of a scan (terms evaluated) pinned
//! on a corpus of the `serve_churn` shape, and one seeded `fit` pinned to a
//! digest recorded from the commit before the index existed.

use super::oracle::nearest_centroid;
use super::{CentroidIndex, KMeansConfig, KMeansEncoder, Nearest, LANES, PREFIX, SPAN};
use crate::Encoder;
use p2b_linalg::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

/// A coordinate from a mixture that makes ties, signed zeros and overflowing
/// distances common instead of measure-zero.
fn coordinate(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..10) {
        0 => 0.0,
        1 => -0.0,
        // A coarse grid: distinct centroids at exactly equal distances.
        2..=4 => f64::from(rng.gen_range(-2i32..=2)) * 0.25,
        // (±1e200 − x)² overflows to +∞: the all-infinite case.
        5 if rng.gen_range(0..8) == 0 => 1e200 * f64::from(rng.gen_range(-1i32..=1)),
        _ => rng.gen_range(-1.0f64..1.0),
    }
}

fn point(d: usize, rng: &mut StdRng) -> Vector {
    (0..d).map(|_| coordinate(rng)).collect()
}

/// `k` centroids, about a quarter of them bit-copies of an earlier one.
fn centroids(k: usize, d: usize, rng: &mut StdRng) -> Vec<Vector> {
    let mut centroids: Vec<Vector> = Vec::with_capacity(k);
    for i in 0..k {
        let centroid = if i > 0 && rng.gen_range(0..4) == 0 {
            centroids[rng.gen_range(0..i)].clone()
        } else {
            point(d, rng)
        };
        centroids.push(centroid);
    }
    centroids
}

/// Queries of every kind the suite promises: fresh points, bit-copies of a
/// centroid, jittered copies, and each of those with NaN / +∞ / −∞ at the
/// first, a middle and the last dimension.
fn queries(centroids: &[Vector], d: usize, rng: &mut StdRng) -> Vec<Vector> {
    let mut queries = Vec::new();
    for _ in 0..4 {
        let centre = &centroids[rng.gen_range(0..centroids.len())];
        queries.push(point(d, rng));
        queries.push(centre.clone());
        queries.push(
            centre
                .iter()
                .map(|c| c + rng.gen_range(-0.01f64..0.01))
                .collect(),
        );
    }
    for base in queries.clone().iter().take(6) {
        for at in [0, d / 2, d - 1] {
            let mut poisoned = base.clone();
            poisoned.as_mut_slice()[at] = NON_FINITE[rng.gen_range(0..NON_FINITE.len())];
            queries.push(poisoned);
        }
    }
    queries
}

/// Index ≡ oracle on one query: the index, the distance bits, and a cost that
/// never exceeds one evaluation per stored element. Returns the checked scan.
fn assert_agrees(index: &CentroidIndex, centroids: &[Vector], x: &Vector) -> Nearest {
    let (oracle_index, oracle_distance) = nearest_centroid(centroids, x).unwrap();
    let nearest = index.nearest(x.as_slice());
    assert_eq!(
        (nearest.index, nearest.distance.to_bits()),
        (oracle_index, oracle_distance.to_bits()),
        "k = {}, x = {x:?}: index says ({}, {:e}), oracle ({oracle_index}, {oracle_distance:e})",
        centroids.len(),
        nearest.index,
        nearest.distance,
    );
    let lanes = centroids.len().div_ceil(LANES) * LANES;
    assert!(nearest.evaluations >= lanes * PREFIX.min(x.len()));
    assert!(
        nearest.evaluations <= lanes * x.len(),
        "a term was evaluated twice"
    );
    nearest
}

/// One shape, start to finish: a fresh index, then `moves` centroid
/// replacements mirrored through `set`, checked after every one.
fn check_shape(seed: u64, k: usize, d: usize, moves: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centroids = centroids(k, d, &mut rng);
    let mut index = CentroidIndex::new(&centroids, d);
    for x in queries(&centroids, d, &mut rng) {
        assert_agrees(&index, &centroids, &x);
    }
    for _ in 0..moves {
        let i = rng.gen_range(0..k);
        centroids[i] = if rng.gen_range(0..3) == 0 {
            centroids[rng.gen_range(0..k)].clone()
        } else {
            point(d, &mut rng)
        };
        index.set(i, &centroids[i]);
        let moved = centroids[i].clone();
        assert_agrees(&index, &centroids, &moved);
        assert_agrees(&index, &centroids, &point(d, &mut rng));
    }
    for x in queries(&centroids, d, &mut rng) {
        assert_agrees(&index, &centroids, &x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn index_agrees_with_the_scalar_scan_over_random_shapes(
        seed in any::<u64>(),
        k in 1usize..=70,
        d in 1usize..=20,
        moves in 0usize..24,
    ) {
        check_shape(seed, k, d, moves);
    }
}

/// The random shapes above hit any one `(k, d)` pair rarely; the edges the
/// layout has — fewer centroids than lanes, exactly one block, a ragged last
/// block, fewer dimensions than the prefix, exactly the prefix — are each
/// visited here.
#[test]
fn index_agrees_with_the_scalar_scan_at_every_small_shape() {
    for k in 1..=(4 * LANES + 1) {
        for d in 1..=(2 * PREFIX + 1) {
            check_shape((k * 100 + d) as u64, k, d, 4);
        }
    }
}

/// The tie rule, with the blocks finished out of index order. The decoy's
/// zero prefix makes its block the seed, so the twin at 37 is finished before
/// the twin at 3 — which must still win, as it does the oracle's strict `<`.
#[test]
fn lowest_index_wins_when_its_block_is_finished_later() {
    let d = 6;
    let mut centroids = vec![Vector::filled(d, 9.0); 5 * LANES];
    let x = Vector::filled(d, 0.5);
    let twin = Vector::from(vec![0.5, 0.5, 0.5, 0.25, 0.5, 0.5]);
    let decoy = Vector::from(vec![0.5, 0.5, 0.5, 0.5, 3.0, 0.5]);
    centroids[3] = twin.clone();
    centroids[37] = twin;
    centroids[38] = decoy;
    let index = CentroidIndex::new(&centroids, d);
    let nearest = assert_agrees(&index, &centroids, &x);
    assert_eq!((nearest.index, nearest.distance), (3, 0.0625));
    // Prefix of five blocks, then blocks 4 and 0 finished and no other.
    assert_eq!(nearest.evaluations, (5 * PREFIX + 2 * (d - PREFIX)) * LANES);
}

/// Code spaces past one span of the scratch: the first span's best bounds the
/// second, whose blocks are offset.
#[test]
fn index_agrees_with_the_scalar_scan_past_one_span() {
    let mut rng = StdRng::seed_from_u64(17);
    let (k, d) = (SPAN * LANES + 9 * LANES + 3, 5);
    let centroids = centroids(k, d, &mut rng);
    let index = CentroidIndex::new(&centroids, d);
    for x in queries(&centroids, d, &mut rng) {
        assert_agrees(&index, &centroids, &x);
    }
    // The answer in the last, ragged block of the second span.
    assert_eq!(
        assert_agrees(&index, &centroids, &centroids[k - 1]).distance,
        0.0
    );
}

// ── The cost of a scan, machine-independently ───────────────────────────

/// A point of the simplex with a few dominant coordinates, or one within
/// ±5 % per coordinate of `centre`: the contexts of the repo benchmark's
/// serve workloads.
fn simplex_point(d: usize, centre: Option<&Vector>, rng: &mut StdRng) -> Vector {
    let raw: Vector = match centre {
        Some(centre) => centre
            .iter()
            .map(|x| x * (1.0 + 0.1 * (rng.gen::<f64>() - 0.5)))
            .collect(),
        // Plain products, not `powi`, whose rounding std leaves unspecified:
        // the pinned totals and digest below are functions of these bits.
        None => (0..d)
            .map(|_| {
                let u = rng.gen::<f64>();
                0.02 + (u * u) * (u * u)
            })
            .collect(),
    };
    raw.normalized_l1().unwrap()
}

/// ROADMAP's "distance evaluations per encode". An encoder fitted on eight
/// jittered samples of each of 1 024 contexts (k = 1 024, d = 16, the
/// `serve_churn` shape) encodes those contexts for a little over the prefix
/// of every centroid; contexts unrelated to the fit cost more, and never
/// more than one evaluation per stored element. The totals are exact: they
/// depend on IEEE arithmetic and the seeded generator only.
#[test]
fn evaluations_per_encode_are_pinned_on_a_clustered_corpus() {
    let (k, d) = (1024, 16);
    let mut rng = StdRng::seed_from_u64(11);
    let contexts: Vec<Vector> = (0..k).map(|_| simplex_point(d, None, &mut rng)).collect();
    let mut corpus = Vec::with_capacity(k * 8);
    for context in &contexts {
        for _ in 0..8 {
            corpus.push(simplex_point(d, Some(context), &mut rng));
        }
    }
    let encoder =
        KMeansEncoder::fit(&corpus, KMeansConfig::new(k).with_iterations(10), &mut rng).unwrap();
    let total = |queries: &[Vector]| -> usize {
        queries
            .iter()
            .map(|x| assert_agrees(&encoder.index, encoder.centroids(), x).evaluations)
            .sum()
    };

    // Centre queries: the prefix of all 1 024 centroids is 4 096 terms, a
    // finished block 96 more.
    let centre = total(&contexts);
    assert_eq!(centre, CENTRE_EVALUATIONS);
    assert!((centre as f64) < 0.35 * (k * d * contexts.len()) as f64);

    // Uniform points of the cube, normalised: nothing to do with the fit.
    let uniform: Vec<Vector> = (0..256)
        .map(|_| {
            let raw: Vector = (0..d).map(|_| rng.gen::<f64>()).collect();
            raw.normalized_l1().unwrap()
        })
        .collect();
    let unclustered = total(&uniform);
    assert_eq!(unclustered, UNIFORM_EVALUATIONS);
    assert!(unclustered <= k * d * uniform.len());
}

/// 1 024 centre queries: the prefix of every centroid (4 096 terms) and 5.3
/// finished blocks (96 terms each) a query, 0.28 of the 16 384 a full scan
/// evaluates.
const CENTRE_EVALUATIONS: usize = 1024 * 4096 + 5430 * 96;
/// 256 uniform queries: 127.7 of the 128 blocks finished a query.
const UNIFORM_EVALUATIONS: usize = 256 * 4096 + 32_683 * 96;

// ── `fit` is bit-identical to the commit before the index ───────────────

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Seeding (bounded distances), mini-batch assignment with replacement, the
/// `set` after every move and the final assignment all feed this digest:
/// every centroid's bits, the statistics, and the generator's position after
/// the fit. The value was recorded by running this test's body against the
/// scalar `fit` at the parent commit.
#[test]
fn seeded_fit_matches_the_digest_recorded_before_the_index() {
    let mut rng = StdRng::seed_from_u64(2024);
    let contexts: Vec<Vector> = (0..40).map(|_| simplex_point(6, None, &mut rng)).collect();
    let corpus: Vec<Vector> = (0..600)
        .map(|i| simplex_point(6, Some(&contexts[i % 40]), &mut rng))
        .collect();
    let config = KMeansConfig::new(40).with_iterations(20);
    let encoder = KMeansEncoder::fit(&corpus, config, &mut rng).unwrap();

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for centroid in encoder.centroids() {
        for x in centroid.iter() {
            fnv1a(&mut digest, x.to_bits());
        }
    }
    let stats = encoder.stats();
    for &size in &stats.cluster_sizes {
        fnv1a(&mut digest, size as u64);
    }
    fnv1a(&mut digest, stats.min_cluster_size as u64);
    fnv1a(&mut digest, stats.max_cluster_size as u64);
    fnv1a(&mut digest, stats.mean_distortion.to_bits());
    fnv1a(&mut digest, rng.gen::<u64>());
    assert_eq!(digest, FIT_DIGEST, "digest = {digest:#018x}");
}

const FIT_DIGEST: u64 = 0x133d_2f9b_3eab_e037;
