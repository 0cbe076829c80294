//! Cholesky factorization for symmetric positive-definite matrices.

use crate::{LinalgError, Matrix, Vector};

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// LinUCB's design matrices `A_a = I + Σ x xᵀ` are symmetric positive
/// definite by construction, so Cholesky is the appropriate (and numerically
/// stable) way to solve `A_a θ = b_a` and to evaluate the exploration bonus
/// `xᵀ A_a⁻¹ x`. The factorization is `O(d³)`; for the per-step hot path the
/// [`crate::RankOneInverse`] incremental inverse is preferred.
///
/// # Example
///
/// ```
/// use p2b_linalg::{Cholesky, Matrix, Vector};
///
/// # fn main() -> Result<(), p2b_linalg::LinalgError> {
/// let mut a = Matrix::identity(2);
/// a.add_outer_product(&Vector::from(vec![1.0, 2.0]), 1.0)?;
/// let chol = Cholesky::new(&a)?;
/// let x = chol.solve(&Vector::from(vec![1.0, 0.0]))?;
/// let back = a.matvec(&x)?;
/// assert!((back[0] - 1.0).abs() < 1e-9);
/// assert!(back[1].abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    /// Lower-triangular factor stored as a full square matrix.
    lower: Matrix,
}

#[cfg(feature = "counters")]
thread_local! {
    static FACTORIZATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Cholesky factorizations attempted on the calling thread so far — by
/// [`Cholesky::new`] and by every exact refresh of a
/// [`crate::RankOneInverse`]. A machine-independent cost counter, compiled
/// only with the `counters` feature.
#[cfg(feature = "counters")]
#[must_use]
pub fn factorizations_on_this_thread() -> u64 {
    FACTORIZATIONS.with(std::cell::Cell::get)
}

/// Writes the lower-triangular Cholesky factor of `a` into the flat
/// row-major buffer `lower` (`n·n` elements, lower triangle written, strict
/// upper triangle untouched).
///
/// This is the allocation-free kernel behind [`Cholesky::new`]: both paths
/// run the exact same arithmetic sequence, so a factor computed into a
/// reused scratch buffer is bit-identical to a freshly allocated one. Stale
/// upper-triangle contents in a reused buffer are harmless — every consumer
/// ([`solve_in_place`], [`inverse_from_lower`]) reads only the diagonal and
/// lower triangle.
///
/// # Errors
///
/// Same contract as [`Cholesky::new`]: [`LinalgError::NotSquare`],
/// [`LinalgError::Empty`], [`LinalgError::NotPositiveDefinite`], plus
/// [`LinalgError::DimensionMismatch`] if `lower` is not `n·n` long.
pub(crate) fn factor_lower(a: &Matrix, lower: &mut [f64]) -> Result<(), LinalgError> {
    #[cfg(feature = "counters")]
    FACTORIZATIONS.with(|count| count.set(count.get() + 1));
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    if lower.len() != n * n {
        return Err(LinalgError::DimensionMismatch {
            expected: (n, n),
            found: (lower.len(), 1),
        });
    }
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= lower[i * n + k] * lower[j * n + k];
            }
            if i == j {
                // NaN compares false against everything: reject it here or
                // it would factor "successfully" into a NaN inverse.
                if sum.is_nan() || sum <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i });
                }
                lower[i * n + j] = sum.sqrt();
            } else {
                lower[i * n + j] = sum / lower[j * n + j];
            }
        }
    }
    Ok(())
}

/// Solves `L Lᵀ x = b` in place: `out` holds `b` on entry and `x` on exit.
///
/// `l` is a flat row-major `n·n` lower-triangular factor as produced by
/// [`factor_lower`]. The forward-substitution intermediate overwrites `out`
/// progressively (position `i` of `b` is last read at step `i`), then the
/// backward substitution runs in place — the exact arithmetic sequence of
/// [`Cholesky::solve_into`], which delegates here.
pub(crate) fn solve_in_place(l: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(l.len(), n * n);
    debug_assert_eq!(out.len(), n);
    // Forward substitution: L y = b, y written into `out`.
    for i in 0..n {
        let mut sum = out[i];
        let row = &l[i * n..i * n + i];
        for (lk, y_k) in row.iter().zip(out.iter()) {
            sum -= lk * y_k;
        }
        out[i] = sum / l[i * n + i];
    }
    // Backward substitution: Lᵀ x = y, in place over `out`.
    for i in (0..n).rev() {
        let mut sum = out[i];
        for k in i + 1..n {
            sum -= l[k * n + i] * out[k];
        }
        out[i] = sum / l[i * n + i];
    }
}

/// Writes `A⁻¹ = (L Lᵀ)⁻¹` into the flat row-major buffer `inverse`
/// (`n·n` elements, every one overwritten) from the lower factor `l` of
/// [`factor_lower`], all columns at once.
///
/// Column `j` of the result gets exactly the arithmetic of
/// [`solve_in_place`] on the basis vector `e_j`, zeros included, so the
/// inverse is bit-identical to `n` such solves. Only the loop order differs:
/// the forward pass writes row `i` of `L⁻¹` as `e_iᵀ`, minus `l[i][k]` times
/// row `k` for `k = 0..i` in order, then divides by `l[i][i]`; the backward
/// pass runs bottom-up, in place, subtracting `l[k][i]` times the finished
/// row `k` for `k = i+1..n` in order. Each step is one scalar times a
/// contiguous row, independent across columns, which the compiler can
/// vectorise.
pub(crate) fn inverse_from_lower(l: &[f64], n: usize, inverse: &mut [f64]) {
    debug_assert_eq!(l.len(), n * n);
    debug_assert_eq!(inverse.len(), n * n);
    // Forward substitution: L Y = I, row by row into `inverse`.
    for i in 0..n {
        let (done, rest) = inverse.split_at_mut(i * n);
        let row = &mut rest[..n];
        row.fill(0.0);
        row[i] = 1.0;
        for (k, &lk) in l[i * n..i * n + i].iter().enumerate() {
            for (entry, &y) in row.iter_mut().zip(&done[k * n..(k + 1) * n]) {
                *entry -= lk * y;
            }
        }
        let pivot = l[i * n + i];
        for entry in row.iter_mut() {
            *entry /= pivot;
        }
    }
    // Backward substitution: Lᵀ X = Y, bottom-up, in place.
    for i in (0..n).rev() {
        let (head, done) = inverse.split_at_mut((i + 1) * n);
        let row = &mut head[i * n..];
        for k in i + 1..n {
            let lki = l[k * n + i];
            let finished = &done[(k - i - 1) * n..(k - i) * n];
            for (entry, &x) in row.iter_mut().zip(finished) {
                *entry -= lki * x;
            }
        }
        let pivot = l[i * n + i];
        for entry in row.iter_mut() {
            *entry /= pivot;
        }
    }
}

impl Cholesky {
    /// Computes the factorization of a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; the strict upper triangle is
    /// assumed to mirror it.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Empty`] if `a` is 0×0.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly positive.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut lower = Matrix::zeros(n, n);
        factor_lower(a, lower.as_mut_slice())?;
        Ok(Self { lower })
    }

    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.lower.rows()
    }

    /// Borrows the lower-triangular factor `L`.
    #[must_use]
    pub fn lower(&self) -> &Matrix {
        &self.lower
    }

    /// Solves `A x = b` using the precomputed factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        let mut out = vec![0.0; self.dim()];
        self.solve_into(b.as_slice(), &mut out)?;
        Ok(Vector::from(out))
    }

    /// Solves `A x = b` into a caller-provided buffer without allocating.
    ///
    /// The forward-substitution intermediate is written into `out` and then
    /// overwritten in place by the backward substitution (position `i` of the
    /// intermediate is last read at step `i`, so a single buffer suffices).
    /// The arithmetic sequence matches [`Cholesky::solve`] exactly.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len()` or `out.len()`
    /// differs from `self.dim()`.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, 1),
                found: (b.len(), 1),
            });
        }
        if out.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, 1),
                found: (out.len(), 1),
            });
        }
        out.copy_from_slice(b);
        solve_in_place(self.lower.as_slice(), n, out);
        Ok(())
    }

    /// Computes the full inverse `A⁻¹` from the factor, all columns at once.
    /// Column `j` is bit-identical to [`Cholesky::solve`] on the basis
    /// vector `e_j`.
    ///
    /// This is `O(d³)` and intended for initialization; incremental updates
    /// should use [`crate::RankOneInverse`], whose exact refresh runs the
    /// same kernel.
    #[must_use]
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        inverse_from_lower(self.lower.as_slice(), n, inv.as_mut_slice());
        inv
    }

    /// Evaluates the quadratic form `xᵀ A⁻¹ x` without forming the inverse.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn quadratic_form_inverse(&self, x: &Vector) -> Result<f64, LinalgError> {
        // x' A^{-1} x = || L^{-1} x ||^2, obtained by forward substitution.
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, 1),
                found: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = x[i];
            for (k, &y_k) in y.iter().enumerate().take(i) {
                sum -= self.lower.get(i, k) * y_k;
            }
            y[i] = sum / self.lower.get(i, i);
        }
        Ok(y.iter().map(|v| v * v).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The oracle of [`inverse_from_lower`]: one [`solve_in_place`] per
    /// basis vector `e_j`, written into column `j`.
    fn inverse_by_columns(l: &[f64], n: usize) -> Vec<f64> {
        let mut inverse = vec![0.0; n * n];
        let mut col = vec![0.0; n];
        for j in 0..n {
            col.fill(0.0);
            col[j] = 1.0;
            solve_in_place(l, n, &mut col);
            for (i, &value) in col.iter().enumerate() {
                inverse[i * n + j] = value;
            }
        }
        inverse
    }

    /// `λI + Σ w·x xᵀ` over up to `2n` weighted folds with counts `w` in
    /// `2..=64`: `w·xᵢ·xⱼ` and `w·xⱼ·xᵢ` round apart, so the upper triangle
    /// is not the bit mirror of the lower one, as in a model arm's design.
    fn weighted_design(n: usize, regularizer: f64, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut design = Matrix::identity(n).scaled(regularizer);
        for _ in 0..rng.gen_range(1..=2 * n) {
            let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let weight = f64::from(rng.gen_range(2u32..=64));
            design
                .add_outer_product(&Vector::from(x), weight)
                .expect("square design of matching dimension");
        }
        design
    }

    #[test]
    fn weighted_designs_are_not_bit_symmetric() {
        let design = weighted_design(8, 1.0, 3);
        let asymmetric = (0..8)
            .flat_map(|i| (0..i).map(move |j| (i, j)))
            .filter(|&(i, j)| design.get(i, j).to_bits() != design.get(j, i).to_bits())
            .count();
        assert!(
            asymmetric > 0,
            "the oracle's designs must exercise asymmetry"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The all-columns kernel is the per-column solves, bit for bit. The
        /// factor's strict upper triangle and the destination start as NaN:
        /// the kernel reads no upper-triangle entry and writes every output.
        #[test]
        fn all_columns_inverse_matches_the_per_column_oracle(
            n in 1usize..41,
            regularizer in prop_oneof![Just(0.05), Just(1.0), Just(2.5), Just(40.0)],
            seed in any::<u64>(),
        ) {
            let design = weighted_design(n, regularizer, seed);
            let mut lower = vec![f64::NAN; n * n];
            factor_lower(&design, &mut lower).expect("λ > 0 keeps the design SPD");
            let mut inverse = vec![f64::NAN; n * n];
            inverse_from_lower(&lower, n, &mut inverse);
            let oracle = inverse_by_columns(&lower, n);
            let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&inverse), bits(&oracle));
            let allocating = Cholesky::new(&design).expect("SPD").inverse();
            prop_assert_eq!(bits(allocating.as_slice()), bits(&oracle));
        }
    }

    fn spd_matrix() -> Matrix {
        // A = I + x x' + z z' is symmetric positive definite.
        let mut a = Matrix::identity(3);
        a.add_outer_product(&Vector::from(vec![1.0, 2.0, 3.0]), 1.0)
            .unwrap();
        a.add_outer_product(&Vector::from(vec![-1.0, 0.5, 0.25]), 1.0)
            .unwrap();
        a
    }

    #[test]
    fn factorization_reconstructs_matrix() {
        let a = spd_matrix();
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.lower();
        let reconstructed = l.matmul(&l.transposed()).unwrap();
        assert!(a.max_abs_diff(&reconstructed).unwrap() < 1e-9);
    }

    #[test]
    fn solve_satisfies_system() {
        let a = spd_matrix();
        let chol = Cholesky::new(&a).unwrap();
        let b = Vector::from(vec![1.0, -2.0, 0.5]);
        let x = chol.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for i in 0..3 {
            assert!(approx_eq(back[i], b[i]));
        }
    }

    #[test]
    fn solve_into_is_bit_identical_to_solve() {
        let a = spd_matrix();
        let chol = Cholesky::new(&a).unwrap();
        let b = Vector::from(vec![0.9, -1.7, 0.45]);
        let expected = chol.solve(&b).unwrap();
        let mut out = vec![0.0; 3];
        chol.solve_into(b.as_slice(), &mut out).unwrap();
        assert_eq!(out.as_slice(), expected.as_slice());
    }

    #[test]
    fn solve_into_rejects_mismatched_buffers() {
        let chol = Cholesky::new(&Matrix::identity(3)).unwrap();
        let mut short = vec![0.0; 2];
        let mut ok = vec![0.0; 3];
        assert!(matches!(
            chol.solve_into(&[1.0, 0.0, 0.0], &mut short),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            chol.solve_into(&[1.0, 0.0], &mut ok),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd_matrix();
        let inv = Cholesky::new(&a).unwrap().inverse();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-9);
    }

    #[test]
    fn quadratic_form_matches_explicit_inverse() {
        let a = spd_matrix();
        let chol = Cholesky::new(&a).unwrap();
        let x = Vector::from(vec![0.3, -1.2, 2.0]);
        let inv = chol.inverse();
        let explicit = x.dot(&inv.matvec(&x).unwrap()).unwrap();
        let implicit = chol.quadratic_form_inverse(&x).unwrap();
        assert!(approx_eq(explicit, implicit));
    }

    #[test]
    fn rejects_non_square() {
        let err = Cholesky::new(&Matrix::zeros(2, 3));
        assert!(matches!(err, Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn rejects_indefinite_matrix() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_empty_matrix() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let chol = Cholesky::new(&Matrix::identity(3)).unwrap();
        assert!(chol.solve(&Vector::zeros(2)).is_err());
        assert!(chol.quadratic_form_inverse(&Vector::zeros(4)).is_err());
    }
}
