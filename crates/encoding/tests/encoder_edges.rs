//! Edge-case coverage for the k-means encoder: empty context vectors, constant
//! features and duplicated corpus points must produce errors or stable
//! codes — never panics. A production encoder fit runs on whatever
//! historical corpus exists, and serving traffic includes malformed
//! contexts; both ends must degrade gracefully.

use p2b_encoding::{Encoder, EncodingError, KMeansConfig, KMeansEncoder};
use p2b_linalg::Vector;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn duplicated_corpus(copies: usize) -> Vec<Vector> {
    (0..copies)
        .map(|_| Vector::from(vec![0.25, 0.25, 0.25, 0.25]))
        .collect()
}

fn constant_feature_corpus(copies: usize) -> Vec<Vector> {
    // Two features carry all the mass, two are constant zero.
    (0..copies)
        .map(|_| {
            Vector::from(vec![0.5, 0.5, 0.0, 0.0])
                .normalized_l1()
                .expect("non-empty")
        })
        .collect()
}

// ── k-means ──────────────────────────────────────────────────────────────

#[test]
fn kmeans_fit_on_duplicate_points_encodes_stably() {
    let mut rng = StdRng::seed_from_u64(0);
    // 40 identical points, k = 4: every centroid collapses onto the same
    // location. The fit must not panic and encoding must be deterministic.
    let encoder = KMeansEncoder::fit(&duplicated_corpus(40), KMeansConfig::new(4), &mut rng)
        .expect("duplicate corpora are degenerate but fittable");
    let probe = Vector::from(vec![0.25; 4]);
    let code = encoder.encode(&probe).expect("encoding succeeds");
    for _ in 0..10 {
        assert_eq!(
            encoder.encode(&probe).unwrap(),
            code,
            "codes must be stable"
        );
    }
    assert!(code.value() < encoder.num_codes());
}

#[test]
fn kmeans_fit_on_constant_features_encodes_stably() {
    let mut rng = StdRng::seed_from_u64(1);
    let corpus = constant_feature_corpus(40);
    let encoder = KMeansEncoder::fit(&corpus, KMeansConfig::new(2), &mut rng)
        .expect("constant-feature corpora are fittable");
    let code = encoder.encode(&corpus[0]).expect("encoding succeeds");
    assert_eq!(encoder.encode(&corpus[7]).unwrap(), code);
    // Representatives of every code stay finite and well-shaped.
    for c in 0..encoder.num_codes() {
        let rep = encoder
            .representative(p2b_encoding::ContextCode::new(c))
            .expect("representative exists");
        assert_eq!(rep.len(), 4);
        assert!(rep.iter().all(|x| x.is_finite()));
    }
}

#[test]
fn kmeans_rejects_empty_and_undersized_corpora() {
    let mut rng = StdRng::seed_from_u64(2);
    assert!(
        KMeansEncoder::fit(&[], KMeansConfig::new(2), &mut rng).is_err(),
        "an empty corpus cannot seed k-means++"
    );
    assert!(
        KMeansEncoder::fit(&duplicated_corpus(3), KMeansConfig::new(8), &mut rng).is_err(),
        "fewer samples than clusters is insufficient data"
    );
}

#[test]
fn kmeans_encode_rejects_the_empty_context() {
    let mut rng = StdRng::seed_from_u64(3);
    let encoder =
        KMeansEncoder::fit(&duplicated_corpus(8), KMeansConfig::new(1), &mut rng).unwrap();
    assert!(
        encoder.encode(&Vector::from(Vec::new())).is_err(),
        "a zero-dimensional context is a dimension mismatch, not a panic"
    );
}

// ── Non-finite contexts ──────────────────────────────────────────────────

/// A NaN distance or projection loses every comparison, so an unchecked
/// encoder answers with whatever its scan starts from — code 0 for k-means —
/// and the agent decides and reports on a context it never saw. The encoder
/// must name the offending coordinate instead, on `encode` and on the corpus
/// it is fitted on.
#[test]
fn every_encoder_rejects_non_finite_contexts_with_a_typed_error() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut corpus: Vec<Vector> = (0..24)
        .map(|i| {
            Vector::from(vec![1.0 + f64::from(i % 4), 1.0, 2.0, 0.5])
                .normalized_l1()
                .expect("non-empty")
        })
        .collect();
    let kmeans = KMeansEncoder::fit(&corpus, KMeansConfig::new(4), &mut rng).unwrap();

    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for index in 0..4 {
            let mut context = corpus[0].clone();
            context.as_mut_slice()[index] = bad;
            assert_eq!(
                kmeans.encode(&context),
                Err(EncodingError::NonFiniteContext { index }),
                "{} encoded a context whose coordinate {index} is {bad}",
                kmeans.name()
            );
        }
    }
    // The first offender is the one named; a wrong length is still reported
    // as a wrong length.
    assert_eq!(
        kmeans.encode(&Vector::from(vec![0.1, f64::NAN, f64::INFINITY, 0.2])),
        Err(EncodingError::NonFiniteContext { index: 1 })
    );
    assert!(matches!(
        kmeans.encode(&Vector::from(vec![f64::NAN; 3])),
        Err(EncodingError::DimensionMismatch { .. })
    ));

    // One poisoned sample anywhere in a corpus fails the fit.
    corpus[17].as_mut_slice()[2] = f64::NAN;
    assert_eq!(
        KMeansEncoder::fit(&corpus, KMeansConfig::new(4), &mut rng).err(),
        Some(EncodingError::NonFiniteContext { index: 2 })
    );
}
