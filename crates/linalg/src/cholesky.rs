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
/// ([`solve_in_place`]) reads only the diagonal and lower triangle.
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

    /// Computes the full inverse `A⁻¹` by solving against each basis vector.
    ///
    /// This is `O(d³)` and intended for initialization; incremental updates
    /// should use [`crate::RankOneInverse`].
    #[must_use]
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut basis = vec![0.0; n];
        let mut col = vec![0.0; n];
        for j in 0..n {
            basis[j] = 1.0;
            // Both buffers are sized to `n` by construction, so this cannot
            // fail; the binding keeps the invariant checked in debug builds.
            let solved = self.solve_into(&basis, &mut col);
            debug_assert!(solved.is_ok(), "basis vector has matching dimension");
            basis[j] = 0.0;
            for (i, &value) in col.iter().enumerate() {
                inv.set(i, j, value);
            }
        }
        inv
    }

    /// Log-determinant of the factored matrix, `ln det A = 2 Σ ln Lᵢᵢ`.
    #[must_use]
    pub fn log_determinant(&self) -> f64 {
        let n = self.dim();
        (0..n).map(|i| self.lower.get(i, i).ln()).sum::<f64>() * 2.0
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
    fn log_determinant_of_identity_is_zero() {
        let chol = Cholesky::new(&Matrix::identity(5)).unwrap();
        assert!(approx_eq(chol.log_determinant(), 0.0));
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
