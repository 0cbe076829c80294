//! Property-based tests for the linear-algebra substrate.

use p2b_linalg::{softmax, Cholesky, Matrix, Vector};
use proptest::prelude::*;

/// Strategy producing small finite vectors of the given length.
fn vector(len: usize) -> impl Strategy<Value = Vector> {
    prop::collection::vec(-10.0f64..10.0, len).prop_map(Vector::from)
}

proptest! {
    #[test]
    fn dot_product_is_commutative(a in vector(6), b in vector(6)) {
        let ab = a.dot(&b).unwrap();
        let ba = b.dot(&a).unwrap();
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn cauchy_schwarz_holds(a in vector(5), b in vector(5)) {
        let dot = a.dot(&b).unwrap().abs();
        prop_assert!(dot <= a.norm2() * b.norm2() + 1e-9);
    }

    #[test]
    fn l1_normalization_yields_distribution(a in vector(8)) {
        let n = a.normalized_l1().unwrap();
        prop_assert!((n.sum() - 1.0).abs() < 1e-9);
        prop_assert!(n.iter().all(|&x| x >= -1e-12));
    }

    #[test]
    fn l2_normalization_yields_unit_vector(a in vector(8)) {
        let n = a.normalized_l2().unwrap();
        prop_assert!((n.norm2() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn softmax_is_a_distribution(logits in prop::collection::vec(-50.0f64..50.0, 1..16)) {
        let p = softmax(&logits);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn transpose_is_involutive(rows in 1usize..6, cols in 1usize..6, seed in any::<u64>()) {
        let mut data = Vec::with_capacity(rows * cols);
        let mut state = seed;
        for _ in 0..rows * cols {
            // Simple xorshift so the matrix content is derived from the seed.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            data.push((state % 1000) as f64 / 100.0 - 5.0);
        }
        let m = Matrix::from_flat(rows, cols, data).unwrap();
        prop_assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn design_matrix_stays_invertible(xs in prop::collection::vec(vector(4), 1..20)) {
        // A = I + sum x x' is SPD regardless of the observed contexts, so the
        // Cholesky factorization must always succeed and solving must round-trip.
        let mut a = Matrix::identity(4);
        for x in &xs {
            a.add_outer_product(x, 1.0).unwrap();
        }
        let chol = Cholesky::new(&a).unwrap();
        let b = Vector::from(vec![1.0, -1.0, 0.5, 2.0]);
        let x = chol.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for i in 0..4 {
            prop_assert!((back[i] - b[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn rank_one_update_matches_direct_factorization(xs in prop::collection::vec(vector(3), 1..15)) {
        let mut folded = Cholesky::new(&Matrix::identity(3)).unwrap();
        let mut a = Matrix::identity(3);
        let mut work = [0.0; 3];
        for x in &xs {
            folded.rank_one_update(x.as_slice(), &mut work).unwrap();
            a.add_outer_product(x, 1.0).unwrap();
        }
        let direct = Cholesky::new(&a).unwrap();
        let scale = a.frobenius_norm();
        prop_assert!(folded.reconstruct().max_abs_diff(&a).unwrap() < 1e-12 * scale);
        for (f, d) in folded.packed().iter().zip(direct.packed()) {
            prop_assert!((f - d).abs() < 1e-9 * scale);
        }
    }

    #[test]
    fn quadratic_form_is_nonnegative(xs in prop::collection::vec(vector(3), 0..10), probe in vector(3)) {
        let mut factor = Cholesky::new(&Matrix::identity(3)).unwrap();
        let mut work = [0.0; 3];
        for x in &xs {
            factor.rank_one_update(x.as_slice(), &mut work).unwrap();
        }
        let q = factor.quadratic_form_inverse(probe.as_slice(), &mut work).unwrap();
        prop_assert!(q >= 0.0);
    }
}
