//! Property-based tests for the encoding subsystem.

use p2b_encoding::{
    enumerate_simplex_grid, simplex_cardinality, Encoder, KMeansConfig, KMeansEncoder,
};
use p2b_linalg::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The stars-and-bars cardinality matches an explicit enumeration for
    /// small dimensions.
    #[test]
    fn cardinality_matches_enumeration(d in 2usize..5) {
        let grid = enumerate_simplex_grid(d, 1, 100_000).unwrap();
        prop_assert_eq!(grid.len() as u128, simplex_cardinality(d, 1).unwrap());
    }

    /// Pascal's rule: C(10^q + d - 1, d - 1) satisfies the recurrence obtained
    /// by conditioning on the units assigned to the last coordinate.
    #[test]
    fn cardinality_satisfies_pascal_recurrence(d in 2usize..6) {
        // n(d, q) = sum_{u=0}^{10^q} n(d-1 over remaining units) collapses to
        // the hockey-stick identity; we verify the simpler Pascal relation
        // C(m, r) = C(m-1, r-1) + C(m-1, r) at m = 10 + d - 1, r = d - 1 via
        // cardinalities of neighbouring dimensions.
        let n_d = simplex_cardinality(d, 1).unwrap();
        let n_d_minus = simplex_cardinality(d - 1, 1).unwrap();
        // C(10 + d - 1, d - 1) - C(10 + d - 2, d - 2) = C(10 + d - 2, d - 1)
        let m = 10 + d as u128 - 2;
        let r = d as u128 - 1;
        // Compute C(m, r) directly with a simple product (small numbers).
        let mut expect = 1u128;
        for i in 0..r {
            expect = expect * (m - i) / (i + 1);
        }
        prop_assert_eq!(n_d - n_d_minus, expect);
    }

    /// The k-means encoder maps arbitrary valid contexts to codes within
    /// range and provides representatives of the right dimension.
    #[test]
    fn encoders_produce_in_range_codes(seed in any::<u64>(), raw in prop::collection::vec(0.01f64..1.0, 4)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus: Vec<Vector> = (0..40)
            .map(|i| {
                let mut v = vec![0.1; 4];
                v[i % 4] = 1.0;
                Vector::from(v).normalized_l1().unwrap()
            })
            .collect();
        let context = Vector::from(raw).normalized_l1().unwrap();

        let kmeans = KMeansEncoder::fit(&corpus, KMeansConfig::new(4), &mut rng).unwrap();
        let code = kmeans.encode(&context).unwrap();
        prop_assert!(code.value() < kmeans.num_codes());
        let rep = kmeans.representative(code).unwrap();
        prop_assert_eq!(rep.len(), 4);
    }

    /// k-means cluster sizes always add up to the corpus size and the minimum
    /// cluster size never exceeds the mean corpus share.
    #[test]
    fn kmeans_cluster_sizes_are_consistent(seed in any::<u64>(), k in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus: Vec<Vector> = (0..60)
            .map(|i| {
                let mut v = vec![0.05; 6];
                v[i % 6] = 1.0;
                Vector::from(v).normalized_l1().unwrap()
            })
            .collect();
        let encoder = KMeansEncoder::fit(&corpus, KMeansConfig::new(k), &mut rng).unwrap();
        let stats = encoder.stats();
        prop_assert_eq!(stats.cluster_sizes.iter().sum::<usize>(), corpus.len());
        prop_assert!(stats.min_cluster_size <= corpus.len() / stats.occupied_codes().max(1));
    }
}
