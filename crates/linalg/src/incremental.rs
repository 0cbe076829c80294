//! Incrementally maintained matrix inverse via the Sherman–Morrison formula.

use crate::cholesky::{factor_lower, solve_in_place};
use crate::{LinalgError, Matrix, Vector};

/// Scratch buffers for the allocation-free update path: after the first
/// call, [`RankOneInverse::update`] — the `A⁻¹x` matvec, the outer-product
/// fold *and* the periodic exact refresh (Cholesky factor + basis solves) —
/// allocates nothing.
///
/// The buffers are pure scratch: their contents between calls are
/// meaningless and never observed, so reusing one scratch across trackers
/// of different dimensions cannot couple their results.
#[derive(Debug, Clone, Default)]
struct UpdateScratch {
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
    /// Scratch so [`RankOneInverse::update`] allocates nothing per call.
    /// Excluded from equality.
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

/// Applies the Sherman–Morrison correction `M ← M − (ax)(ax)ᵀ/denom` over
/// the flat storage of `inverse`.
///
/// The flat row-major storage is walked as independent lanes: coordinate
/// `(i, j)` of the inverse lives at lane `i·n + j`, every lane's correction
/// `axᵢ·axⱼ/denom` is independent of every other lane, and the inner loop
/// walks `n` contiguous lanes with a single hoisted `axᵢ` — a pure streaming
/// multiply-subtract chain the compiler can vectorize. The division stays inside the lane
/// expression (not hoisted into a reciprocal) because the historical FP
/// sequence divides per element, and bit-identical inverses are part of the
/// contract.
fn sherman_morrison_step(inverse: &mut Matrix, ax: &[f64], denom: f64) {
    let n = ax.len();
    for (i, row) in inverse.as_mut_slice().chunks_exact_mut(n).enumerate() {
        let axi = ax[i];
        for (entry, &axj) in row.iter_mut().zip(ax.iter()) {
            *entry -= axi * axj / denom;
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
            scratch: UpdateScratch::default(),
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
        let result = self.fold(x, &mut scratch);
        self.scratch = scratch;
        result
    }

    /// The Sherman–Morrison fold kernel behind [`RankOneInverse::update`],
    /// over the given scratch.
    fn fold(&mut self, x: &Vector, scratch: &mut UpdateScratch) -> Result<(), LinalgError> {
        let dim = self.dim();
        scratch.ensure_ax(dim);
        self.inverse.matvec_into(x.as_slice(), &mut scratch.ax)?;
        let mut xax = 0.0;
        for (a, b) in x.iter().zip(scratch.ax.iter()) {
            xax += a * b;
        }
        let denom = 1.0 + xax;
        // denom = 1 + xᵀA⁻¹x > 0 for SPD A: never a division by 0.
        sherman_morrison_step(&mut self.inverse, &scratch.ax, denom);
        self.design.add_outer_product(x, 1.0)?;
        self.updates += 1;
        if self.updates % self.refresh_interval == 0 {
            self.refresh_with(scratch)?;
        }
        Ok(())
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
    /// inverse, with the exact arithmetic of [`crate::Cholesky::new`]
    /// followed by [`crate::Cholesky::inverse`] (both delegate to the same slice kernels), so
    /// the recomputed inverse is bit-identical to the allocating path.
    fn refresh_with(&mut self, scratch: &mut UpdateScratch) -> Result<(), LinalgError> {
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

    /// Merges raw sufficient statistics into this tracker: a design matrix
    /// `D = λ_D·I + Σ w·x xᵀ` accumulated from the prior `λ_D·I` over
    /// `updates` folds. The design grows by `D + (−λ_D·I)` (the merged
    /// statistics' prior is removed, so the result keeps a single
    /// regularization term), the update count by `updates`, and the inverse
    /// is recomputed exactly, once. Merged into a cold tracker, this is how
    /// a model arm is built from its sums.
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
    use crate::{approx_eq, Cholesky};

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

    /// Merging the design `λI + Σ w·x xᵀ` into the prior of a cold tracker
    /// is how a model arm is built from a matrix of sums.
    fn merged(design: &Matrix, regularizer: f64, updates: u64) -> RankOneInverse {
        let mut inc = RankOneInverse::identity(design.rows(), regularizer).unwrap();
        inc.merge_design(design, regularizer, updates).unwrap();
        inc
    }

    #[test]
    fn from_matrix_round_trips() {
        let mut a = Matrix::identity(2);
        a.add_outer_product(&Vector::from(vec![1.0, -1.0]), 2.0)
            .unwrap();
        let inc = merged(&a, 1.0, 1);
        assert_eq!(inc.design(), &a);
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

        a.merge_design(b.design(), 1.0, b.update_count()).unwrap();

        // Combined design matrix should be I + x1 x1' + x2 x2' = diag(2, 2).
        let expected = Matrix::diagonal(&[2.0, 2.0]);
        assert!(a.design().max_abs_diff(&expected).unwrap() < 1e-9);
        assert_eq!(a.update_count(), 2);
    }

    #[test]
    fn merge_rejects_dimension_mismatch() {
        let mut a = RankOneInverse::identity(2, 1.0).unwrap();
        let before = a.clone();
        assert!(a.merge_design(&Matrix::identity(3), 1.0, 1).is_err());
        assert!(a.merge_design(&Matrix::zeros(2, 3), 1.0, 1).is_err());
        assert_eq!(a, before);
    }

    #[test]
    fn update_rejects_wrong_dimension() {
        let mut inc = RankOneInverse::identity(3, 1.0).unwrap();
        assert!(inc.update(&Vector::zeros(2)).is_err());
    }

    /// A unit-weight fold, `A += 1·x xᵀ` from the prior, has the plain
    /// update's design bits, and its install (a merge into a cold tracker,
    /// one exact refresh) lands on the plain update's tracker bit for bit
    /// whenever the plain updates end on a refresh: the identity that lets a
    /// per-report model serve as the oracle of an installed one.
    #[test]
    fn unit_weight_is_bit_identical_to_the_plain_update() {
        let xs = [
            Vector::from(vec![1.0, 2.0, -0.5]),
            Vector::from(vec![0.1, -0.3, 0.7]),
            Vector::from(vec![2.0, 0.0, 1.0]),
        ];
        let mut plain = RankOneInverse::identity(3, 1.0).unwrap();
        plain.set_refresh_interval(xs.len() as u64);
        let mut design = Matrix::identity(3);
        for x in &xs {
            plain.update(x).unwrap();
            design.add_outer_product(x, 1.0).unwrap();
        }
        assert_eq!(plain.design(), &design);
        let mut installed = merged(&design, 1.0, xs.len() as u64);
        installed.set_refresh_interval(xs.len() as u64);
        assert_eq!(
            plain, installed,
            "a unit-weight install must land on the plain update's bits"
        );
    }

    #[test]
    fn weighted_update_matches_repeated_updates() {
        let x = Vector::from(vec![0.8, -0.2, 0.4]);
        let mut repeated = RankOneInverse::identity(3, 2.0).unwrap();
        for _ in 0..7 {
            repeated.update(&x).unwrap();
        }
        let mut design = Matrix::identity(3).scaled(2.0);
        design.add_outer_product(&x, 7.0).unwrap();
        let coalesced = merged(&design, 2.0, 1);

        assert!(coalesced.design().max_abs_diff(repeated.design()).unwrap() < 1e-9);
        assert!(
            coalesced
                .inverse()
                .max_abs_diff(repeated.inverse())
                .unwrap()
                < 1e-9
        );
        // One weighted fold = one drift step.
        assert_eq!(coalesced.update_count(), 1);
        assert_eq!(repeated.update_count(), 7);
    }

    #[test]
    fn weighted_update_matches_direct_inverse() {
        let mut a = Matrix::identity(3);
        let pairs = [
            (Vector::from(vec![1.0, 2.0, -0.5]), 3.0),
            (Vector::from(vec![0.1, -0.3, 0.7]), 12.0),
            (Vector::from(vec![2.0, 0.0, 1.0]), 0.5),
        ];
        for (x, w) in &pairs {
            a.add_outer_product(x, *w).unwrap();
        }
        let inc = merged(&a, 1.0, pairs.len() as u64);
        let direct = Cholesky::new(&a).unwrap().inverse();
        assert!(inc.inverse().max_abs_diff(&direct).unwrap() < 1e-9);
    }

    #[test]
    fn refresh_with_matches_the_allocating_cholesky_inverse() {
        let mut inc = RankOneInverse::identity(4, 1.5).unwrap();
        let mut scratch = UpdateScratch::default();
        for i in 0..6 {
            let x = Vector::from(vec![i as f64, 1.0, -0.5 * i as f64, 0.25]);
            inc.fold(&x, &mut scratch).unwrap();
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
        small.set_refresh_interval(2);
        large.set_refresh_interval(2);
        let mut scratch = UpdateScratch::default();
        small
            .fold(&Vector::from(vec![1.0, -1.0]), &mut scratch)
            .unwrap();
        for _ in 0..2 {
            large
                .fold(&Vector::from(vec![1.0, 0.0, 2.0, -1.0, 0.5]), &mut scratch)
                .unwrap();
        }
        small
            .fold(&Vector::from(vec![0.5, 0.25]), &mut scratch)
            .unwrap();
        // The same folds through a scratch that never saw the larger tracker.
        let mut reference = RankOneInverse::identity(2, 1.0).unwrap();
        reference.set_refresh_interval(2);
        reference.update(&Vector::from(vec![1.0, -1.0])).unwrap();
        reference.update(&Vector::from(vec![0.5, 0.25])).unwrap();
        assert_eq!(small, reference);
    }

    /// Merged folds count toward the refresh schedule: an installed tracker
    /// refreshes on the update that brings its count, folds included, to a
    /// multiple of the interval.
    #[test]
    fn weighted_updates_trigger_the_periodic_refresh() {
        let x = Vector::from(vec![1.0, 0.25]);
        let mut design = Matrix::identity(2);
        design.add_outer_product(&x, 5.0).unwrap();
        let mut inc = merged(&design, 1.0, 3);
        inc.set_refresh_interval(4);
        inc.update(&x).unwrap();
        let mut expected = Matrix::identity(2);
        expected.add_outer_product(&x, 5.0).unwrap();
        expected.add_outer_product(&x, 1.0).unwrap();
        assert_eq!(inc.design(), &expected);
        // The fourth update was a refresh: the inverse is the exact one.
        let direct = Cholesky::new(&expected).unwrap().inverse();
        assert_eq!(inc.inverse().as_slice(), direct.as_slice());
    }
}
