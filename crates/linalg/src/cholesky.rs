//! Packed Cholesky factor of a symmetric positive-definite matrix.

use crate::{LinalgError, Matrix, Vector};

/// Cholesky factorization of a symmetric positive-definite matrix in its
/// square-root-free form `A = L D Lᵀ` (`L` unit lower triangular, `D`
/// diagonal and positive), kept packed: only `d(d+1)/2` words, column by
/// column. Column `k` holds `1/D[k], L[k+1][k], …, L[d−1][k]` — the
/// pivot's reciprocal in place of the unit diagonal — so each of the four
/// operations below walks contiguous memory. `L·√D` is the classical
/// Cholesky factor; without the square roots and with the pivots inverted
/// once, the score needs no division at all and a fold one per column.
///
/// LinUCB's designs `A_a = λI + Σ x xᵀ` are symmetric positive definite by
/// construction, and the factor is all an arm needs of them:
///
/// * [`Cholesky::new`] factors a design once (`O(d³)`);
/// * [`Cholesky::rank_one_update`] folds one observation, `A ← A + x xᵀ`,
///   into the factor in `O(d²)`; every pivot only grows, so the factor
///   stays the factor of an SPD matrix without any periodic refresh;
/// * [`Cholesky::quadratic_form_inverse`] evaluates the exploration bonus
///   `xᵀA⁻¹x = Σₖ yₖ²/D[k]` with `L y = x`, by one forward solve;
/// * [`Cholesky::solve_into`] solves `A θ = b` by two triangular solves.
///
/// The triangular solves take the columns four at a time and a fold two at
/// a time: one pass over the rows below a block does the work of four (or
/// two) column passes, whose loop overhead and serial dependencies cost
/// more than the arithmetic at these dimensions.
///
/// # Example
///
/// ```
/// use p2b_linalg::{Cholesky, Matrix, Vector};
///
/// # fn main() -> Result<(), p2b_linalg::LinalgError> {
/// let mut a = Matrix::identity(2);
/// a.add_outer_product(&Vector::from(vec![1.0, 2.0]), 1.0)?;
/// let mut chol = Cholesky::new(&a)?;
/// let x = chol.solve(&Vector::from(vec![1.0, 0.0]))?;
/// let back = a.matvec(&x)?;
/// assert!((back[0] - 1.0).abs() < 1e-9);
/// assert!(back[1].abs() < 1e-9);
///
/// // Fold one more observation and compare with factoring afresh.
/// let z = Vector::from(vec![0.5, -1.0]);
/// chol.rank_one_update(z.as_slice(), &mut [0.0; 2])?;
/// a.add_outer_product(&z, 1.0)?;
/// let mut work = [0.0; 2];
/// let folded = chol.quadratic_form_inverse(&[1.0, 1.0], &mut work)?;
/// let fresh = Cholesky::new(&a)?.quadratic_form_inverse(&[1.0, 1.0], &mut work)?;
/// assert!((folded - fresh).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    dim: usize,
    /// `1/D` and the strict lower triangle of `L`, column by column.
    packed: Box<[f64]>,
}

#[cfg(feature = "counters")]
thread_local! {
    static FACTORIZATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Cholesky factorizations attempted on the calling thread so far, by
/// [`Cholesky::new`]. A machine-independent cost counter, compiled only
/// with the `counters` feature.
#[cfg(feature = "counters")]
#[must_use]
pub fn factorizations_on_this_thread() -> u64 {
    FACTORIZATIONS.with(std::cell::Cell::get)
}

/// Checks that a lane handed to a factor of dimension `n` has `n` entries.
fn check_lane(n: usize, len: usize) -> Result<(), LinalgError> {
    if len == n {
        Ok(())
    } else {
        Err(LinalgError::DimensionMismatch {
            expected: (n, 1),
            found: (len, 1),
        })
    }
}

/// `Σ aᵢ·bᵢ` over four interleaved partial sums, so the additions do not
/// wait on one another.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut partial = [0.0; 4];
    let (a_chunks, b_chunks) = (a.chunks_exact(4), b.chunks_exact(4));
    let tail: f64 = (a_chunks.remainder().iter())
        .zip(b_chunks.remainder())
        .map(|(x, y)| x * y)
        .sum();
    for (x, y) in a_chunks.zip(b_chunks) {
        for lane in 0..4 {
            partial[lane] += x[lane] * y[lane];
        }
    }
    (partial[0] + partial[1]) + (partial[2] + partial[3]) + tail
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; the strict upper triangle is
    /// assumed to mirror it.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Empty`] if `a` is 0×0.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly
    ///   positive (NaN included).
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
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
        let mut packed: Box<[f64]> = (0..n)
            .flat_map(|k| (k..n).map(move |i| a.get(i, k)))
            .collect();
        // Right-looking: with column k's pivot, subtract its outer product
        // `v vᵀ / D[k]` from the columns to its right, then scale it to `L`.
        let mut rest: &mut [f64] = &mut packed;
        for k in 0..n {
            let (column, next) = std::mem::take(&mut rest).split_at_mut(n - k);
            rest = next;
            let pivot = column[0];
            // NaN compares false against everything: reject it here or it
            // would factor "successfully" into a NaN factor.
            if pivot.is_nan() || pivot <= 0.0 {
                return Err(LinalgError::NotPositiveDefinite { pivot: k });
            }
            let mut trailing: &mut [f64] = rest;
            for j in 1..column.len() {
                let (target, after) = std::mem::take(&mut trailing).split_at_mut(column.len() - j);
                trailing = after;
                let ljk = column[j] / pivot;
                for (entry, &vik) in target.iter_mut().zip(&column[j..]) {
                    *entry -= vik * ljk;
                }
            }
            for entry in &mut column[1..] {
                *entry /= pivot;
            }
            column[0] = 1.0 / pivot;
        }
        Ok(Self { dim: n, packed })
    }

    /// The factor of `λI` (`L = I`, `D = λI`), bit for bit what
    /// [`Cholesky::new`] computes from `λI`, without the `O(d³)` pass.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if `dim == 0` and
    /// [`LinalgError::InvalidScalar`] unless `scale` is finite and strictly
    /// positive.
    pub fn scaled_identity(dim: usize, scale: f64) -> Result<Self, LinalgError> {
        if dim == 0 {
            return Err(LinalgError::Empty);
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(LinalgError::InvalidScalar {
                name: "scale",
                value: scale,
            });
        }
        let mut packed = vec![0.0; dim * (dim + 1) / 2].into_boxed_slice();
        let mut start = 0;
        for k in 0..dim {
            packed[start] = 1.0 / scale;
            start += dim - k;
        }
        Ok(Self { dim, packed })
    }

    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The factor's `d(d+1)/2` entries, column by column: column `k` is
    /// `1/D[k]` followed by `L[k+1..d][k]`, starting at `k·d − k(k−1)/2`.
    #[must_use]
    pub fn packed(&self) -> &[f64] {
        &self.packed
    }

    /// The factored matrix `L D Lᵀ`, rebuilt in `O(d³)`: what the factor
    /// stands for, for checks of how far it has drifted from a design.
    #[must_use]
    pub fn reconstruct(&self) -> Matrix {
        let n = self.dim;
        let columns: Vec<&[f64]> = self.columns().collect();
        // Row r of column k is entry r − k; the unit diagonal is implicit.
        let l = |r: usize, k: usize| if r == k { 1.0 } else { columns[k][r - k] };
        let mut product = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let value: f64 = (0..=j).map(|k| l(i, k) * l(j, k) / columns[k][0]).sum();
                product.set(i, j, value);
                product.set(j, i, value);
            }
        }
        product
    }

    /// The packed columns, left to right.
    fn columns(&self) -> impl Iterator<Item = &[f64]> {
        let mut rest: &[f64] = &self.packed;
        (0..self.dim).map(move |k| {
            let (column, next) = rest.split_at(self.dim - k);
            rest = next;
            column
        })
    }

    /// Forward substitution `L y = v` in place over `v`, handing `visit`
    /// each `yₖ` with `1/D[k]` as it is finished. The unit diagonal makes
    /// `yₖ` the entry `vₖ` once the columns to its left are subtracted.
    /// Columns go four at a time (then two, then one): the block's own rows
    /// first, then one pass over the rows below it.
    fn forward_in_place(&self, v: &mut [f64], mut visit: impl FnMut(f64, f64)) {
        let n = self.dim;
        let mut rest: &[f64] = &self.packed;
        let mut k = 0;
        while k + 4 <= n {
            let len = n - k;
            let (c0, next) = rest.split_at(len);
            let (c1, next) = next.split_at(len - 1);
            let (c2, next) = next.split_at(len - 2);
            let (c3, next) = next.split_at(len - 3);
            rest = next;
            let (block, below) = v[k..].split_at_mut(4);
            let y0 = block[0];
            let y1 = block[1] - c0[1] * y0;
            let y2 = block[2] - (c0[2] * y0 + c1[1] * y1);
            let y3 = block[3] - (c0[3] * y0 + c1[2] * y1 + c2[1] * y2);
            block.copy_from_slice(&[y0, y1, y2, y3]);
            for (y, column) in [(y0, c0), (y1, c1), (y2, c2), (y3, c3)] {
                visit(y, column[0]);
            }
            let rows = below.iter_mut().zip(&c0[4..]).zip(&c1[3..]);
            for (((entry, &l0), &l1), (&l2, &l3)) in rows.zip(c2[2..].iter().zip(&c3[1..])) {
                *entry -= l0 * y0 + l1 * y1 + l2 * y2 + l3 * y3;
            }
            k += 4;
        }
        if k + 2 <= n {
            let len = n - k;
            let (c0, next) = rest.split_at(len);
            let (c1, next) = next.split_at(len - 1);
            rest = next;
            let (block, below) = v[k..].split_at_mut(2);
            let y0 = block[0];
            let y1 = block[1] - c0[1] * y0;
            block[1] = y1;
            visit(y0, c0[0]);
            visit(y1, c1[0]);
            for ((entry, &l0), &l1) in below.iter_mut().zip(&c0[2..]).zip(&c1[1..]) {
                *entry -= l0 * y0 + l1 * y1;
            }
            k += 2;
        }
        if k < n {
            visit(v[k], rest[0]);
        }
    }

    /// Scaling and backward substitution `Lᵀ x = D⁻¹y` in place over `v`
    /// (which holds `y`): `xₖ = yₖ/D[k] − Σ_{j>k} L[j][k]·xⱼ`, right to
    /// left. Row `k` of `Lᵀ` is column `k` of `L`; columns go four at a
    /// time, their dot products with the finished `x` in one pass, then the
    /// block's own triangle, and the last `d mod 4` one by one.
    fn backward_in_place(&self, v: &mut [f64]) {
        let n = self.dim;
        let mut rest: &[f64] = &self.packed;
        let mut k = n;
        while k >= 4 {
            let len = n - k + 4;
            let (next, c3) = rest.split_at(rest.len() - (len - 3));
            let (next, c2) = next.split_at(next.len() - (len - 2));
            let (next, c1) = next.split_at(next.len() - (len - 1));
            let (next, c0) = next.split_at(next.len() - len);
            rest = next;
            let mut partial = [0.0; 4];
            let rows = v[k..].iter().zip(&c0[4..]).zip(&c1[3..]);
            for (((&x, &l0), &l1), (&l2, &l3)) in rows.zip(c2[2..].iter().zip(&c3[1..])) {
                partial[0] += l0 * x;
                partial[1] += l1 * x;
                partial[2] += l2 * x;
                partial[3] += l3 * x;
            }
            let x3 = v[k - 1] * c3[0] - partial[3];
            let x2 = v[k - 2] * c2[0] - (partial[2] + c2[1] * x3);
            let x1 = v[k - 3] * c1[0] - (partial[1] + c1[1] * x2 + c1[2] * x3);
            let x0 = v[k - 4] * c0[0] - (partial[0] + c0[1] * x1 + c0[2] * x2 + c0[3] * x3);
            v[k - 4..k].copy_from_slice(&[x0, x1, x2, x3]);
            k -= 4;
        }
        while k > 0 {
            k -= 1;
            let (next, column) = rest.split_at(rest.len() - (n - k));
            rest = next;
            v[k] = v[k] * column[0] - dot(&column[1..], &v[k + 1..]);
        }
    }

    /// Solves `A x = b` with the factor.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        let mut out = vec![0.0; self.dim];
        self.solve_into(b.as_slice(), &mut out)?;
        Ok(Vector::from(out))
    }

    /// Solves `A x = b` into a caller-provided buffer without allocating:
    /// the forward solve `L y = b`, then the scaling and backward solve
    /// `Lᵀ x = D⁻¹y`, in place over `out`. [`Cholesky::solve`] runs the
    /// same arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len()` or `out.len()`
    /// differs from `self.dim()`.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        check_lane(self.dim, b.len())?;
        check_lane(self.dim, out.len())?;
        out.copy_from_slice(b);
        self.forward_in_place(out, |_, _| {});
        self.backward_in_place(out);
        Ok(())
    }

    /// Evaluates `xᵀ A⁻¹ x = Σₖ yₖ²/D[k]` with `L y = x`, by one forward
    /// solve, without forming the inverse. `work` is a `d`-long scratch
    /// lane; its contents on entry are ignored and on exit are `y`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len()` or
    /// `work.len()` differs from `self.dim()`.
    pub fn quadratic_form_inverse(&self, x: &[f64], work: &mut [f64]) -> Result<f64, LinalgError> {
        check_lane(self.dim, x.len())?;
        check_lane(self.dim, work.len())?;
        work.copy_from_slice(x);
        let mut sum = 0.0;
        self.forward_in_place(work, |y, reciprocal| sum += y * y * reciprocal);
        Ok(sum)
    }

    /// Folds `A ← A + x xᵀ` into the factor in `O(d²)` by Gill, Golub,
    /// Murray and Saunders' method C1, kept in reciprocals: with `t = 1`
    /// and the lane `w = x`, column by column `p = wₖ`, `s = t + p²/D[k]`,
    /// `1/D̄ = (1/D[k])·t/s`, `β = p/(D[k]·s)`, `t ← s`, then below the
    /// pivot `wᵣ −= p·L[r][k]` and `L[r][k] += β·wᵣ`. `s > t > 0`, so every
    /// pivot grows (`D̄ = D[k]·s/t`) and the result is the factor of an SPD
    /// matrix by construction. Columns go two at a time, through one pass
    /// over the rows below them. `work` is a `d`-long scratch lane; its
    /// contents on entry are ignored and on exit are meaningless.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len()` or
    /// `work.len()` differs from `self.dim()`, leaving the factor untouched.
    pub fn rank_one_update(&mut self, x: &[f64], work: &mut [f64]) -> Result<(), LinalgError> {
        check_lane(self.dim, x.len())?;
        check_lane(self.dim, work.len())?;
        work.copy_from_slice(x);
        let n = self.dim;
        let mut t = 1.0;
        // Grows column `k`'s pivot by `p = wₖ` and returns `β`.
        let mut pivot = |reciprocal: &mut f64, p: f64| {
            let s = t + p * p * *reciprocal;
            let scale = 1.0 / s;
            let beta = p * *reciprocal * scale;
            *reciprocal *= t * scale;
            t = s;
            beta
        };
        let mut rest: &mut [f64] = &mut self.packed;
        let mut k = 0;
        while k + 2 <= n {
            let (c0, next) = std::mem::take(&mut rest).split_at_mut(n - k);
            let (c1, next) = next.split_at_mut(n - k - 1);
            rest = next;
            let p0 = work[k];
            let beta0 = pivot(&mut c0[0], p0);
            let p1 = work[k + 1] - p0 * c0[1];
            c0[1] += beta0 * p1;
            let beta1 = pivot(&mut c1[0], p1);
            let rows = work[k + 2..].iter_mut().zip(&mut c0[2..]);
            for ((w, l0), l1) in rows.zip(&mut c1[1..]) {
                let after0 = *w - p0 * *l0;
                *l0 += beta0 * after0;
                *w = after0 - p1 * *l1;
                *l1 += beta1 * *w;
            }
            k += 2;
        }
        if k < n {
            pivot(&mut rest[0], work[k]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
            "the factor's designs must exercise asymmetry"
        );
    }

    /// The relative Frobenius distance `‖M − A‖_F / ‖A‖_F`.
    fn relative_gap(m: &Matrix, a: &Matrix) -> f64 {
        let mut difference = m.clone();
        difference.add_assign(&a.scaled(-1.0)).unwrap();
        difference.frobenius_norm() / a.frobenius_norm()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Folding unit-ball observations into the factor of a weighted
        /// design tracks the factor of the grown design: `LDLᵀ` stays within
        /// `8·(k + d)·u` of `A` in relative Frobenius norm after `k` folds
        /// (each fold and the first factorization are backward stable, each
        /// at a few `d·u` of the matrix they touch, and `‖A‖` only grows),
        /// and the bonus agrees with a fresh factor to the same order times
        /// the condition number, which `λ ≥ 0.05` and `k + 2d` folds of
        /// weight ≤ 64 keep below `10⁵`.
        #[test]
        fn rank_one_updates_track_a_fresh_factorization(
            n in 1usize..33,
            folds in 1usize..64,
            regularizer in prop_oneof![Just(0.05), Just(1.0), Just(40.0)],
            seed in any::<u64>(),
        ) {
            let mut design = weighted_design(n, regularizer, seed);
            let mut factor = Cholesky::new(&design).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut work = vec![f64::NAN; n];
            for _ in 0..folds {
                let raw: Vector = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let x = raw.scaled(1.0 / raw.norm2().max(1.0));
                factor.rank_one_update(x.as_slice(), &mut work).unwrap();
                design.add_outer_product(&x, 1.0).unwrap();
            }
            let u = f64::EPSILON / 2.0;
            let bound = 8.0 * (folds + n) as f64 * u;
            let gap = relative_gap(&factor.reconstruct(), &design);
            prop_assert!(gap <= bound, "‖LDLᵀ − A‖/‖A‖ = {} > {}", gap, bound);
            let fresh = Cholesky::new(&design).unwrap();
            let probe: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let folded = factor.quadratic_form_inverse(&probe, &mut work).unwrap();
            let exact = fresh.quadratic_form_inverse(&probe, &mut work).unwrap();
            prop_assert!(
                (folded - exact).abs() <= 1e5 * bound * exact.max(1.0),
                "bonus {} vs {}", folded, exact
            );
        }

        /// The packed solve, bonus and factor agree with the dense
        /// definitions: `A x = b` to solver precision, `xᵀA⁻¹x = xᵀ(A⁻¹x)`.
        #[test]
        fn packed_kernels_match_the_dense_definitions(
            n in 1usize..41,
            regularizer in prop_oneof![Just(0.05), Just(1.0), Just(2.5), Just(40.0)],
            seed in any::<u64>(),
        ) {
            let design = weighted_design(n, regularizer, seed);
            let factor = Cholesky::new(&design).unwrap();
            prop_assert_eq!(factor.packed().len(), n * (n + 1) / 2);
            let mut rng = StdRng::seed_from_u64(seed);
            let b: Vector = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let x = factor.solve(&b).unwrap();
            let back = design.matvec(&x).unwrap();
            let scale = design.frobenius_norm() * x.norm2() + b.norm2();
            for i in 0..n {
                prop_assert!((back[i] - b[i]).abs() <= 1e-11 * scale);
            }
            let mut work = vec![f64::NAN; n];
            let bonus = factor.quadratic_form_inverse(b.as_slice(), &mut work).unwrap();
            let dense = b.dot(&x).unwrap();
            prop_assert!((bonus - dense).abs() <= 1e-10 * dense.abs().max(1.0));
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
        assert!(a.max_abs_diff(&chol.reconstruct()).unwrap() < 1e-9);
        // Column 0 is the pivot's reciprocal 1/A₀₀, then A's first column
        // over A₀₀.
        assert_eq!(chol.packed()[0], 1.0 / a.get(0, 0));
        assert_eq!(chol.packed()[1], a.get(1, 0) / a.get(0, 0));
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

    /// Solving for each basis vector inverts the matrix.
    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd_matrix();
        let chol = Cholesky::new(&a).unwrap();
        for j in 0..3 {
            let column = chol.solve(&Vector::basis(3, j)).unwrap();
            let back = a.matvec(&column).unwrap();
            for i in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((back[i] - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn quadratic_form_matches_explicit_inverse() {
        let a = spd_matrix();
        let chol = Cholesky::new(&a).unwrap();
        let x = Vector::from(vec![0.3, -1.2, 2.0]);
        let explicit = x.dot(&chol.solve(&x).unwrap()).unwrap();
        let implicit = chol
            .quadratic_form_inverse(x.as_slice(), &mut [0.0; 3])
            .unwrap();
        assert!(approx_eq(explicit, implicit));
    }

    #[test]
    fn rank_one_update_folds_into_the_factor_of_the_grown_matrix() {
        let mut a = spd_matrix();
        let mut chol = Cholesky::new(&a).unwrap();
        let x = Vector::from(vec![0.0, -0.5, 2.0]);
        chol.rank_one_update(x.as_slice(), &mut [f64::NAN; 3])
            .unwrap();
        a.add_outer_product(&x, 1.0).unwrap();
        assert!(a.max_abs_diff(&chol.reconstruct()).unwrap() < 1e-12);
        // A zero leading coordinate leaves the first column as it was.
        assert_eq!(chol.packed()[0], Cholesky::new(&a).unwrap().packed()[0]);
        let before = chol.clone();
        assert!(chol.rank_one_update(&[1.0, 2.0], &mut [0.0; 3]).is_err());
        assert!(chol
            .rank_one_update(&[1.0, 2.0, 3.0], &mut [0.0; 2])
            .is_err());
        assert_eq!(chol, before, "a rejected fold leaves the factor untouched");
    }

    #[test]
    fn scaled_identity_is_the_factor_of_the_scaled_identity() {
        for (dim, scale) in [(1, 1.0), (4, 0.7), (9, 40.0)] {
            let factored = Cholesky::new(&Matrix::identity(dim).scaled(scale)).unwrap();
            let direct = Cholesky::scaled_identity(dim, scale).unwrap();
            let bits = |c: &Cholesky| c.packed().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&direct), bits(&factored));
        }
        assert!(matches!(
            Cholesky::scaled_identity(0, 1.0),
            Err(LinalgError::Empty)
        ));
        for scale in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                Cholesky::scaled_identity(2, scale),
                Err(LinalgError::InvalidScalar { .. })
            ));
        }
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
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
        let mut poisoned = Matrix::identity(2);
        poisoned.set(1, 0, f64::NAN);
        assert!(matches!(
            Cholesky::new(&poisoned),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
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
        assert!(chol
            .quadratic_form_inverse(&[0.0; 4], &mut [0.0; 3])
            .is_err());
        assert!(chol
            .quadratic_form_inverse(&[0.0; 3], &mut [0.0; 4])
            .is_err());
    }
}
