//! Incrementally maintained matrix inverse via the Sherman–Morrison formula.

use crate::cholesky::{factor_lower, solve_in_place};
use crate::{Cholesky, LinalgError, Matrix, Vector};

/// Caller-owned scratch buffers for the allocation-free update path.
///
/// One `UpdateScratch` serves any number of [`RankOneInverse`] trackers of
/// any dimension (buffers re-size lazily and only grow). Threading it through
/// [`RankOneInverse::update_weighted_with`] makes the whole rank-k ingest
/// fold — the `A⁻¹x` matvec, the outer-product fold, *and* the periodic
/// exact refresh (Cholesky factor + basis solves) — allocation-free after
/// the first call.
///
/// The buffers are pure scratch: their contents between calls are
/// meaningless and never observed, so sharing one scratch across trackers
/// cannot couple their results.
#[derive(Debug, Clone, Default)]
pub struct UpdateScratch {
    /// `A⁻¹x` lane for the Sherman–Morrison fold (`dim` elements).
    ax: Vec<f64>,
    /// Flat lower-triangular Cholesky factor for the exact refresh
    /// (`dim²` elements; strict upper triangle may hold stale values,
    /// which the solves never read).
    chol: Vec<f64>,
    /// Basis-solve column for the refresh inverse rebuild (`dim` elements).
    col: Vec<f64>,
}

impl UpdateScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the fold lane holds exactly `dim` elements.
    fn ensure_ax(&mut self, dim: usize) {
        if self.ax.len() != dim {
            self.ax.resize(dim, 0.0);
        }
    }

    /// Ensures the refresh buffers match `dim` (factor `dim²`, column `dim`).
    fn ensure_refresh(&mut self, dim: usize) {
        if self.chol.len() != dim * dim {
            self.chol.resize(dim * dim, 0.0);
        }
        if self.col.len() != dim {
            self.col.resize(dim, 0.0);
        }
    }
}

/// Maintains `A⁻¹` for `A = λI + Σ xᵢ xᵢᵀ` under rank-1 updates.
///
/// LinUCB touches its design matrix once per interaction: it needs
/// `A_a⁻¹ b_a` (the ridge-regression point estimate) and `xᵀ A_a⁻¹ x`
/// (the exploration bonus), then performs the update `A_a ← A_a + x xᵀ`.
/// Recomputing the inverse each step costs `O(d³)`; the Sherman–Morrison
/// identity
///
/// ```text
/// (A + x xᵀ)⁻¹ = A⁻¹ − (A⁻¹ x xᵀ A⁻¹) / (1 + xᵀ A⁻¹ x)
/// ```
///
/// brings it down to `O(d²)`, which dominates the simulation budget of the
/// large-population experiments (Figure 4 sweeps millions of steps).
///
/// # Example
///
/// ```
/// use p2b_linalg::{RankOneInverse, Vector};
///
/// # fn main() -> Result<(), p2b_linalg::LinalgError> {
/// let mut inv = RankOneInverse::identity(3, 1.0)?;
/// inv.update(&Vector::from(vec![1.0, 0.0, 1.0]))?;
/// let bonus = inv.quadratic_form(&Vector::from(vec![0.0, 1.0, 0.0]))?;
/// assert!((bonus - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RankOneInverse {
    inverse: Matrix,
    updates: u64,
    regularizer: f64,
    /// Number of rank-1 updates after which the inverse is refreshed from a
    /// fresh Cholesky factorization to bound floating-point drift.
    refresh_interval: u64,
    /// Running design matrix `A`, kept to allow periodic exact refreshes.
    design: Matrix,
    /// Internal scratch so the per-report [`RankOneInverse::update`] path
    /// allocates nothing per call. [`RankOneInverse::update_weighted_with`]
    /// uses a caller-owned [`UpdateScratch`] instead and leaves this one
    /// untouched. Pure scratch: excluded from equality.
    scratch: UpdateScratch,
}

/// Equality compares the tracked state only (inverse, design, counters);
/// the scratch buffers are transient and intentionally ignored.
impl PartialEq for RankOneInverse {
    fn eq(&self, other: &Self) -> bool {
        self.inverse == other.inverse
            && self.updates == other.updates
            && self.regularizer == other.regularizer
            && self.refresh_interval == other.refresh_interval
            && self.design == other.design
    }
}

/// Applies the Sherman–Morrison correction `M ← M − scale·(ax)(ax)ᵀ/denom`
/// over the flat storage of `inverse`.
///
/// The flat row-major storage *is* the element-major fold layout (the
/// write-side mirror of `ScoreArena`): coordinate `(i, j)` of the inverse
/// lives at lane `i·n + j`, every lane's correction `axᵢ·axⱼ/denom` is
/// independent of every other lane, and the inner loop walks `n` contiguous
/// lanes with a single hoisted `axᵢ` — a pure streaming multiply-subtract
/// chain the compiler can vectorize. The division stays inside the lane
/// expression (not hoisted into a reciprocal) because the historical FP
/// sequence divides per element, and bit-identical inverses are part of the
/// contract.
///
/// The `scale == 1.0` case uses the literal unscaled expression so the plain
/// rank-1 update keeps the exact floating-point sequence it has always had.
fn sherman_morrison_step(inverse: &mut Matrix, ax: &[f64], scale: f64, denom: f64) {
    let n = ax.len();
    let data = inverse.as_mut_slice();
    if scale == 1.0 {
        for (i, row) in data.chunks_exact_mut(n).enumerate() {
            let axi = ax[i];
            for (entry, &axj) in row.iter_mut().zip(ax.iter()) {
                *entry -= axi * axj / denom;
            }
        }
    } else {
        for (i, row) in data.chunks_exact_mut(n).enumerate() {
            let axi = ax[i];
            for (entry, &axj) in row.iter_mut().zip(ax.iter()) {
                *entry -= scale * axi * axj / denom;
            }
        }
    }
}

impl RankOneInverse {
    /// Default number of rank-1 updates between exact refreshes.
    pub const DEFAULT_REFRESH_INTERVAL: u64 = 4096;

    /// Creates the inverse of `λ·I` of dimension `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidScalar`] if `regularizer` is not a
    /// strictly positive finite number and [`LinalgError::Empty`] if
    /// `dim == 0`.
    pub fn identity(dim: usize, regularizer: f64) -> Result<Self, LinalgError> {
        if dim == 0 {
            return Err(LinalgError::Empty);
        }
        if !regularizer.is_finite() || regularizer <= 0.0 {
            return Err(LinalgError::InvalidScalar {
                name: "regularizer",
                value: regularizer,
            });
        }
        Ok(Self {
            inverse: Matrix::identity(dim).scaled(1.0 / regularizer),
            updates: 0,
            regularizer,
            refresh_interval: Self::DEFAULT_REFRESH_INTERVAL,
            design: Matrix::identity(dim).scaled(regularizer),
            scratch: UpdateScratch::new(),
        })
    }

    /// Creates the inverse of an arbitrary symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// Propagates [`Cholesky::new`] errors for non-SPD inputs.
    pub fn from_matrix(a: &Matrix) -> Result<Self, LinalgError> {
        let chol = Cholesky::new(a)?;
        Ok(Self {
            inverse: chol.inverse(),
            updates: 0,
            regularizer: 1.0,
            refresh_interval: Self::DEFAULT_REFRESH_INTERVAL,
            design: a.clone(),
            scratch: UpdateScratch::new(),
        })
    }

    /// Overrides the refresh interval (number of updates between exact
    /// re-factorizations). Mostly useful in tests; the default is
    /// [`Self::DEFAULT_REFRESH_INTERVAL`].
    pub fn set_refresh_interval(&mut self, interval: u64) {
        self.refresh_interval = interval.max(1);
    }

    /// Dimension of the tracked matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.inverse.rows()
    }

    /// Number of rank-1 updates applied so far.
    #[must_use]
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Borrows the current inverse matrix.
    #[must_use]
    pub fn inverse(&self) -> &Matrix {
        &self.inverse
    }

    /// Borrows the current design matrix `A`.
    #[must_use]
    pub fn design(&self) -> &Matrix {
        &self.design
    }

    /// Computes `A⁻¹ b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        self.inverse.matvec(b)
    }

    /// Computes `A⁻¹ b` into a caller-provided buffer (allocation-free
    /// variant of [`RankOneInverse::solve`], bit-identical result).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`
    /// or `out.len() != self.dim()`.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        self.inverse.matvec_into(b, out)
    }

    /// Evaluates the quadratic form `xᵀ A⁻¹ x`.
    ///
    /// Uses the fused single-pass kernel ([`Matrix::quadratic_form`]), which
    /// performs the exact floating-point sequence of the historical
    /// matvec-then-dot implementation without the intermediate allocation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn quadratic_form(&self, x: &Vector) -> Result<f64, LinalgError> {
        self.inverse.quadratic_form(x.as_slice())
    }

    /// Applies the rank-1 update `A ← A + x xᵀ`, maintaining the inverse.
    ///
    /// Every [`refresh_interval`](Self::set_refresh_interval) updates the
    /// inverse is recomputed exactly from the accumulated design matrix to
    /// bound floating-point drift.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn update(&mut self, x: &Vector) -> Result<(), LinalgError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.fold(x, 1.0, &mut scratch);
        self.scratch = scratch;
        result
    }

    /// The single weighted Sherman–Morrison fold kernel behind both update
    /// entry points.
    ///
    /// `weight == 1.0` reproduces the plain update exactly: `1.0 · xax`
    /// is `xax` (multiplication by one is exact) and
    /// [`sherman_morrison_step`] special-cases the unscaled expression.
    fn fold(
        &mut self,
        x: &Vector,
        weight: f64,
        scratch: &mut UpdateScratch,
    ) -> Result<(), LinalgError> {
        let dim = self.dim();
        scratch.ensure_ax(dim);
        self.inverse.matvec_into(x.as_slice(), &mut scratch.ax)?;
        let mut xax = 0.0;
        for (a, b) in x.iter().zip(scratch.ax.iter()) {
            xax += a * b;
        }
        let denom = 1.0 + weight * xax;
        // denom = 1 + w·xᵀA⁻¹x > 0 for SPD A and w > 0: never a division by 0.
        sherman_morrison_step(&mut self.inverse, &scratch.ax, weight, denom);
        self.design.add_outer_product(x, weight)?;
        self.updates += 1;
        if self.updates % self.refresh_interval == 0 {
            self.refresh_with(scratch)?;
        }
        Ok(())
    }

    /// Applies the weighted rank-1 update `A ← A + w·x xᵀ`, maintaining the
    /// inverse through the weighted Sherman–Morrison identity
    ///
    /// ```text
    /// (A + w x xᵀ)⁻¹ = A⁻¹ − w (A⁻¹ x)(A⁻¹ x)ᵀ / (1 + w xᵀ A⁻¹ x)
    /// ```
    ///
    /// This is the coalesced-ingestion primitive: `w` identical contexts
    /// fold into the design matrix in a single `O(d²)` operation instead of
    /// `w` separate rank-1 updates, allocation-free through the caller-owned
    /// [`UpdateScratch`]. A weight of exactly `1.0` runs the arithmetic of
    /// [`RankOneInverse::update`], so the unweighted path stays bit-for-bit
    /// identical. Each call counts as **one** update toward the refresh
    /// interval, because one Sherman–Morrison application contributes one
    /// step of floating-point drift regardless of its weight.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.dim()`
    /// and [`LinalgError::InvalidScalar`] if `weight` is not a strictly
    /// positive finite number.
    pub fn update_weighted_with(
        &mut self,
        x: &Vector,
        weight: f64,
        scratch: &mut UpdateScratch,
    ) -> Result<(), LinalgError> {
        if !weight.is_finite() || weight <= 0.0 {
            return Err(LinalgError::InvalidScalar {
                name: "weight",
                value: weight,
            });
        }
        self.fold(x, weight, scratch)
    }

    /// Recomputes the inverse exactly from the accumulated design matrix.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors; the design matrix is SPD by
    /// construction so this only fails after severe numerical corruption.
    pub fn refresh(&mut self) -> Result<(), LinalgError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.refresh_with(&mut scratch);
        self.scratch = scratch;
        result
    }

    /// Allocation-free exact refresh: factors the design matrix into the
    /// scratch buffer and solves the basis columns directly into the tracked
    /// inverse, with the exact arithmetic of [`Cholesky::new`] followed by
    /// [`Cholesky::inverse`] (both delegate to the same slice kernels), so
    /// the recomputed inverse is bit-identical to the allocating path.
    ///
    /// # Errors
    ///
    /// Same contract as [`RankOneInverse::refresh`].
    pub fn refresh_with(&mut self, scratch: &mut UpdateScratch) -> Result<(), LinalgError> {
        let n = self.dim();
        scratch.ensure_refresh(n);
        factor_lower(&self.design, &mut scratch.chol)?;
        let data = self.inverse.as_mut_slice();
        for j in 0..n {
            scratch.col.fill(0.0);
            scratch.col[j] = 1.0;
            solve_in_place(&scratch.chol, n, &mut scratch.col);
            for (i, &value) in scratch.col.iter().enumerate() {
                data[i * n + j] = value;
            }
        }
        Ok(())
    }

    /// Merges the observations of another tracker into this one.
    ///
    /// The design matrices are summed (subtracting one copy of the shared
    /// `λI` prior so it is not double counted) and the inverse is recomputed
    /// exactly. This is how the P2B server folds reported interaction data
    /// into the central model.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the dimensions differ.
    pub fn merge(&mut self, other: &RankOneInverse) -> Result<(), LinalgError> {
        self.merge_design(&other.design, other.regularizer, other.updates)
    }

    /// Merges raw sufficient statistics into this tracker: a design matrix
    /// `D = λ_D·I + Σ w·x xᵀ` accumulated from the prior `λ_D·I` over
    /// `updates` folds. The arithmetic of [`RankOneInverse::merge`], which
    /// delegates here: `A += D + (−λ_D·I)`, the update count grows by
    /// `updates`, and the inverse is recomputed exactly, once.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `design` is not
    /// `dim × dim`, and propagates the refresh's factorization error.
    pub fn merge_design(
        &mut self,
        design: &Matrix,
        regularizer: f64,
        updates: u64,
    ) -> Result<(), LinalgError> {
        if design.rows() != self.dim() || design.cols() != self.dim() {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.dim(), self.dim()),
                found: (design.rows(), design.cols()),
            });
        }
        let prior = Matrix::identity(self.dim()).scaled(regularizer);
        let mut contribution = design.clone();
        // Remove the merged statistics' prior so the merged design matrix
        // keeps a single regularization term.
        contribution.add_assign(&prior.scaled(-1.0))?;
        self.design.add_assign(&contribution)?;
        self.updates += updates;
        self.refresh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn rejects_invalid_construction() {
        assert!(matches!(
            RankOneInverse::identity(0, 1.0),
            Err(LinalgError::Empty)
        ));
        assert!(matches!(
            RankOneInverse::identity(3, 0.0),
            Err(LinalgError::InvalidScalar { .. })
        ));
        assert!(matches!(
            RankOneInverse::identity(3, f64::NAN),
            Err(LinalgError::InvalidScalar { .. })
        ));
    }

    #[test]
    fn matches_direct_inverse_after_updates() {
        let mut inc = RankOneInverse::identity(3, 1.0).unwrap();
        let mut a = Matrix::identity(3);
        let xs = [
            Vector::from(vec![1.0, 2.0, -0.5]),
            Vector::from(vec![0.1, -0.3, 0.7]),
            Vector::from(vec![2.0, 0.0, 1.0]),
            Vector::from(vec![-1.0, 1.0, 1.0]),
        ];
        for x in &xs {
            inc.update(x).unwrap();
            a.add_outer_product(x, 1.0).unwrap();
        }
        let direct = Cholesky::new(&a).unwrap().inverse();
        assert!(inc.inverse().max_abs_diff(&direct).unwrap() < 1e-9);
        assert_eq!(inc.update_count(), 4);
    }

    #[test]
    fn quadratic_form_positive_for_nonzero_input() {
        let mut inc = RankOneInverse::identity(4, 1.0).unwrap();
        inc.update(&Vector::from(vec![1.0, 1.0, 0.0, 0.0])).unwrap();
        let q = inc
            .quadratic_form(&Vector::from(vec![0.5, -0.5, 1.0, 0.0]))
            .unwrap();
        assert!(q > 0.0);
    }

    #[test]
    fn regularizer_scales_initial_inverse() {
        let inc = RankOneInverse::identity(2, 4.0).unwrap();
        assert!(approx_eq(inc.inverse().get(0, 0), 0.25));
        assert!(approx_eq(inc.design().get(0, 0), 4.0));
    }

    #[test]
    fn refresh_preserves_inverse() {
        let mut inc = RankOneInverse::identity(3, 1.0).unwrap();
        for i in 0..10 {
            inc.update(&Vector::from(vec![i as f64, 1.0, -(i as f64) / 2.0]))
                .unwrap();
        }
        let before = inc.inverse().clone();
        inc.refresh().unwrap();
        assert!(before.max_abs_diff(inc.inverse()).unwrap() < 1e-8);
    }

    #[test]
    fn periodic_refresh_triggers() {
        let mut inc = RankOneInverse::identity(2, 1.0).unwrap();
        inc.set_refresh_interval(2);
        for _ in 0..5 {
            inc.update(&Vector::from(vec![1.0, 0.5])).unwrap();
        }
        // The design matrix after 5 identical updates is I + 5 x x'.
        let mut expected = Matrix::identity(2);
        expected
            .add_outer_product(&Vector::from(vec![1.0, 0.5]), 5.0)
            .unwrap();
        assert!(inc.design().max_abs_diff(&expected).unwrap() < 1e-9);
    }

    #[test]
    fn from_matrix_round_trips() {
        let mut a = Matrix::identity(2);
        a.add_outer_product(&Vector::from(vec![1.0, -1.0]), 2.0)
            .unwrap();
        let inc = RankOneInverse::from_matrix(&a).unwrap();
        let prod = a.matmul(inc.inverse()).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(2)).unwrap() < 1e-9);
    }

    #[test]
    fn merge_combines_observations() {
        let x1 = Vector::from(vec![1.0, 0.0]);
        let x2 = Vector::from(vec![0.0, 1.0]);

        let mut a = RankOneInverse::identity(2, 1.0).unwrap();
        a.update(&x1).unwrap();
        let mut b = RankOneInverse::identity(2, 1.0).unwrap();
        b.update(&x2).unwrap();

        a.merge(&b).unwrap();

        // Combined design matrix should be I + x1 x1' + x2 x2' = diag(2, 2).
        let expected = Matrix::diagonal(&[2.0, 2.0]);
        assert!(a.design().max_abs_diff(&expected).unwrap() < 1e-9);
        assert_eq!(a.update_count(), 2);
    }

    #[test]
    fn merge_rejects_dimension_mismatch() {
        let mut a = RankOneInverse::identity(2, 1.0).unwrap();
        let b = RankOneInverse::identity(3, 1.0).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn update_rejects_wrong_dimension() {
        let mut inc = RankOneInverse::identity(3, 1.0).unwrap();
        assert!(inc.update(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn weighted_update_rejects_invalid_weights() {
        let mut inc = RankOneInverse::identity(2, 1.0).unwrap();
        let mut scratch = UpdateScratch::new();
        let x = Vector::from(vec![1.0, 0.5]);
        for weight in [0.0, -2.0, f64::NAN] {
            assert!(matches!(
                inc.update_weighted_with(&x, weight, &mut scratch),
                Err(LinalgError::InvalidScalar { .. })
            ));
        }
        assert!(inc
            .update_weighted_with(&Vector::zeros(3), 2.0, &mut scratch)
            .is_err());
    }

    #[test]
    fn unit_weight_is_bit_identical_to_the_plain_update() {
        let xs = [
            Vector::from(vec![1.0, 2.0, -0.5]),
            Vector::from(vec![0.1, -0.3, 0.7]),
            Vector::from(vec![2.0, 0.0, 1.0]),
        ];
        let mut plain = RankOneInverse::identity(3, 1.0).unwrap();
        let mut weighted = RankOneInverse::identity(3, 1.0).unwrap();
        plain.set_refresh_interval(2);
        weighted.set_refresh_interval(2);
        let mut scratch = UpdateScratch::new();
        for x in &xs {
            plain.update(x).unwrap();
            weighted.update_weighted_with(x, 1.0, &mut scratch).unwrap();
            assert_eq!(
                plain, weighted,
                "w = 1 must run the plain update's arithmetic"
            );
        }
    }

    #[test]
    fn weighted_update_matches_repeated_updates() {
        let x = Vector::from(vec![0.8, -0.2, 0.4]);
        let mut repeated = RankOneInverse::identity(3, 2.0).unwrap();
        for _ in 0..7 {
            repeated.update(&x).unwrap();
        }
        let mut coalesced = RankOneInverse::identity(3, 2.0).unwrap();
        coalesced
            .update_weighted_with(&x, 7.0, &mut UpdateScratch::new())
            .unwrap();

        assert!(coalesced.design().max_abs_diff(repeated.design()).unwrap() < 1e-9);
        assert!(
            coalesced
                .inverse()
                .max_abs_diff(repeated.inverse())
                .unwrap()
                < 1e-9
        );
        // One Sherman–Morrison application = one drift step.
        assert_eq!(coalesced.update_count(), 1);
        assert_eq!(repeated.update_count(), 7);
    }

    #[test]
    fn weighted_update_matches_direct_inverse() {
        let mut inc = RankOneInverse::identity(3, 1.0).unwrap();
        let mut a = Matrix::identity(3);
        let pairs = [
            (Vector::from(vec![1.0, 2.0, -0.5]), 3.0),
            (Vector::from(vec![0.1, -0.3, 0.7]), 12.0),
            (Vector::from(vec![2.0, 0.0, 1.0]), 0.5),
        ];
        let mut scratch = UpdateScratch::new();
        for (x, w) in &pairs {
            inc.update_weighted_with(x, *w, &mut scratch).unwrap();
            a.add_outer_product(x, *w).unwrap();
        }
        let direct = Cholesky::new(&a).unwrap().inverse();
        assert!(inc.inverse().max_abs_diff(&direct).unwrap() < 1e-9);
    }

    #[test]
    fn refresh_with_matches_the_allocating_cholesky_inverse() {
        let mut inc = RankOneInverse::identity(4, 1.5).unwrap();
        let mut scratch = UpdateScratch::new();
        for i in 0..6 {
            let x = Vector::from(vec![i as f64, 1.0, -0.5 * i as f64, 0.25]);
            inc.update_weighted_with(&x, 1.0, &mut scratch).unwrap();
        }
        let direct = Cholesky::new(inc.design()).unwrap().inverse();
        inc.refresh_with(&mut scratch).unwrap();
        assert_eq!(
            inc.inverse().as_slice(),
            direct.as_slice(),
            "scratch refresh must reproduce the allocating path bit-for-bit"
        );
    }

    #[test]
    fn one_scratch_serves_trackers_of_different_dimensions() {
        let mut small = RankOneInverse::identity(2, 1.0).unwrap();
        let mut large = RankOneInverse::identity(5, 1.0).unwrap();
        let mut scratch = UpdateScratch::new();
        small
            .update_weighted_with(&Vector::from(vec![1.0, -1.0]), 1.0, &mut scratch)
            .unwrap();
        large
            .update_weighted_with(
                &Vector::from(vec![1.0, 0.0, 2.0, -1.0, 0.5]),
                1.0,
                &mut scratch,
            )
            .unwrap();
        small
            .update_weighted_with(&Vector::from(vec![0.5, 0.25]), 3.0, &mut scratch)
            .unwrap();
        // The same folds through a scratch that never saw the larger tracker.
        let mut fresh = UpdateScratch::new();
        let mut reference = RankOneInverse::identity(2, 1.0).unwrap();
        reference
            .update_weighted_with(&Vector::from(vec![1.0, -1.0]), 1.0, &mut fresh)
            .unwrap();
        reference
            .update_weighted_with(&Vector::from(vec![0.5, 0.25]), 3.0, &mut fresh)
            .unwrap();
        assert_eq!(small, reference);
    }

    #[test]
    fn weighted_updates_trigger_the_periodic_refresh() {
        let mut inc = RankOneInverse::identity(2, 1.0).unwrap();
        inc.set_refresh_interval(2);
        let mut scratch = UpdateScratch::new();
        for _ in 0..4 {
            inc.update_weighted_with(&Vector::from(vec![1.0, 0.25]), 5.0, &mut scratch)
                .unwrap();
        }
        let mut expected = Matrix::identity(2);
        expected
            .add_outer_product(&Vector::from(vec![1.0, 0.25]), 20.0)
            .unwrap();
        assert!(inc.design().max_abs_diff(&expected).unwrap() < 1e-9);
        // After the refresh the inverse is exact.
        let direct = Cholesky::new(&expected).unwrap().inverse();
        assert!(inc.inverse().max_abs_diff(&direct).unwrap() < 1e-9);
    }
}
