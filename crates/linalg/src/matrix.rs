//! Dense row-major matrices.

use crate::{LinalgError, Vector};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major matrix of `f64` values.
///
/// Used for LinUCB's per-arm design matrices `A_a = I + Σ x xᵀ`, for the
/// synthetic preference weight matrix `W` and for random-projection
/// dimensionality reduction in the dataset substrate.
///
/// # Example
///
/// ```
/// use p2b_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), p2b_linalg::LinalgError> {
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let v = Vector::from(vec![1.0, 1.0]);
/// assert_eq!(m.matvec(&v)?.as_slice(), &[3.0, 7.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    #[must_use]
    pub fn diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if `rows` is empty and
    /// [`LinalgError::DimensionMismatch`] if the rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        let first = rows.first().ok_or(LinalgError::Empty)?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    expected: (1, cols),
                    found: (1, row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (rows, cols),
                found: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the entry at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the entry at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `row` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[must_use]
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Copies row `row` into a new [`Vector`].
    #[must_use]
    pub fn row_vector(&self, row: usize) -> Vector {
        Vector::from(self.row(row))
    }

    /// Borrows the flat row-major storage.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the flat row-major storage.
    ///
    /// Hot-path callers (the rank-one fold, the scoring arena sync) use this
    /// to update entries without per-element bounds checks; the shape is
    /// fixed at construction so the invariant `data.len() == rows * cols`
    /// always holds.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix–vector product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &Vector) -> Result<Vector, LinalgError> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x.as_slice(), &mut out)?;
        Ok(Vector::from(out))
    }

    /// Matrix–vector product written into a caller-provided buffer.
    ///
    /// Allocation-free variant of [`Matrix::matvec`] for per-round callers
    /// (scoring, the Sherman–Morrison fold, snapshot assembly). The
    /// accumulation order is identical to `matvec`, so results are
    /// bit-for-bit equal.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`
    /// or `out.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.rows, 1),
                found: (out.len(), 1),
            });
        }
        self.for_each_row_product(x, |r, product| out[r] = product);
        Ok(())
    }

    /// Fused quadratic form `xᵀ M x` without intermediate allocation.
    ///
    /// Each row product is accumulated left-to-right and folded into the
    /// total in row order — exactly the sequence of operations performed by
    /// `matvec` followed by a dot product — so the result is bit-for-bit
    /// identical to the two-step computation. This invariant is what lets
    /// the scoring hot path use the fused form while the determinism goldens
    /// stay byte-identical.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if the matrix is not square and
    /// [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn quadratic_form(&self, x: &[f64]) -> Result<f64, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        let mut total = 0.0;
        self.for_each_row_product(x, |r, product| total += x[r] * product);
        Ok(total)
    }

    /// The row kernel behind [`Matrix::matvec_into`] and
    /// [`Matrix::quadratic_form`]: hands `sink` each row's dot product with
    /// `x`, in row order.
    ///
    /// Every product is accumulated from zero in column order, exactly as a
    /// one-row-at-a-time loop would, so each output keeps its bits. Rows are
    /// taken four at a time so that four independent add chains are in
    /// flight instead of one dependent chain. `x.len() == self.cols` is the
    /// caller's precondition.
    #[inline]
    fn for_each_row_product(&self, x: &[f64], mut sink: impl FnMut(usize, f64)) {
        const LANES: usize = 4;
        let cols = self.cols;
        if cols == 0 {
            // `chunks_exact(0)` panics; an empty row's product is the empty sum.
            (0..self.rows).for_each(|r| sink(r, 0.0));
            return;
        }
        let blocks = self.data.chunks_exact(LANES * cols);
        let tail = blocks.remainder();
        let mut r = 0;
        for block in blocks {
            let (r0, rest) = block.split_at(cols);
            let (r1, rest) = rest.split_at(cols);
            let (r2, r3) = rest.split_at(cols);
            let mut acc = [0.0; LANES];
            for ((((&a0, &a1), &a2), &a3), &xj) in r0.iter().zip(r1).zip(r2).zip(r3).zip(x) {
                acc[0] += a0 * xj;
                acc[1] += a1 * xj;
                acc[2] += a2 * xj;
                acc[3] += a3 * xj;
            }
            for product in acc {
                sink(r, product);
                r += 1;
            }
        }
        for row in tail.chunks_exact(cols) {
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            sink(r, acc);
            r += 1;
        }
    }

    /// Transposed matrix–vector product `Aᵀ x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.rows()`.
    pub fn matvec_transposed(&self, x: &Vector) -> Result<Vector, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.rows, 1),
                found: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = self.row(r);
            let xr = x[r];
            for (o, a) in out.iter_mut().zip(row.iter()) {
                *o += a * xr;
            }
        }
        Ok(Vector::from(out))
    }

    /// Matrix–matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.cols, other.cols),
                found: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    let v = out.get(i, j) + aik * other.get(k, j);
                    out.set(i, j, v);
                }
            }
        }
        Ok(out)
    }

    /// Returns the transpose.
    #[must_use]
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.rows, self.cols),
                found: (other.rows, other.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Adds another matrix in place.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) -> Result<(), LinalgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.rows, self.cols),
                found: (other.rows, other.cols),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Returns a copy scaled by `factor`.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// Adds the outer product `scale · x xᵀ` to the matrix in place.
    ///
    /// This is the LinUCB design-matrix update `A_a ← A_a + x xᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if the matrix is not square and
    /// [`LinalgError::DimensionMismatch`] if `x.len()` does not match.
    pub fn add_outer_product(&mut self, x: &Vector, scale: f64) -> Result<(), LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.rows, 1),
                found: (x.len(), 1),
            });
        }
        let xs = x.as_slice();
        for (i, row) in self.data.chunks_exact_mut(self.cols).enumerate() {
            let xi = xs[i];
            for (entry, &xj) in row.iter_mut().zip(xs.iter()) {
                *entry += scale * xi * xj;
            }
        }
        Ok(())
    }

    /// Frobenius norm (`sqrt(Σ aᵢⱼ²)`).
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Returns `true` if every entry is finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute entry-wise difference with another matrix of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f64, LinalgError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.rows, self.cols),
                found: (other.rows, other.cols),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:>10.4}", self.get(r, c))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn identity_matvec_is_identity() {
        let m = Matrix::identity(3);
        let v = Vector::from(vec![1.0, -2.0, 3.5]);
        assert_eq!(m.matvec(&v).unwrap(), v);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert!(matches!(err, Err(LinalgError::DimensionMismatch { .. })));
        assert!(matches!(Matrix::from_rows(&[]), Err(LinalgError::Empty)));
    }

    #[test]
    fn from_flat_checks_length() {
        assert!(Matrix::from_flat(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_flat(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn matvec_matches_manual_computation() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let v = Vector::from(vec![1.0, 0.0, -1.0]);
        assert_eq!(m.matvec(&v).unwrap().as_slice(), &[-2.0, -2.0]);
    }

    #[test]
    fn matvec_into_is_bit_identical_to_matvec() {
        let m = Matrix::from_rows(&[
            vec![0.1, 0.2, 0.3],
            vec![0.4, 0.5, 0.6],
            vec![0.7, 0.8, 0.9],
        ])
        .unwrap();
        let v = Vector::from(vec![1.5, -2.5, 3.25]);
        let expected = m.matvec(&v).unwrap();
        let mut out = vec![0.0; 3];
        m.matvec_into(v.as_slice(), &mut out).unwrap();
        assert_eq!(out.as_slice(), expected.as_slice());
    }

    #[test]
    fn matvec_into_rejects_mismatched_shapes() {
        let m = Matrix::zeros(2, 3);
        let mut out2 = vec![0.0; 2];
        let mut out3 = vec![0.0; 3];
        // Wrong input length.
        assert!(matches!(
            m.matvec_into(&[1.0, 2.0], &mut out2),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        // Wrong output length.
        assert!(matches!(
            m.matvec_into(&[1.0, 2.0, 3.0], &mut out3),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn quadratic_form_is_bit_identical_to_matvec_then_dot() {
        let m = Matrix::from_rows(&[
            vec![2.0, 0.3, -0.1],
            vec![0.3, 1.5, 0.2],
            vec![-0.1, 0.2, 0.9],
        ])
        .unwrap();
        let v = Vector::from(vec![0.7, -1.3, 2.1]);
        let ax = m.matvec(&v).unwrap();
        let two_step = v.dot(&ax).unwrap();
        let fused = m.quadratic_form(v.as_slice()).unwrap();
        assert_eq!(fused.to_bits(), two_step.to_bits());
    }

    /// The one-row-at-a-time loop the row kernel must reproduce bit for bit.
    fn scalar_row_products(m: &Matrix, x: &[f64]) -> Vec<f64> {
        (0..m.rows())
            .map(|r| {
                let mut acc = 0.0;
                for (a, b) in m.row(r).iter().zip(x) {
                    acc += a * b;
                }
                acc
            })
            .collect()
    }

    /// How [`seeded_entries`] draws.
    #[derive(Debug, Clone, Copy)]
    enum Draw {
        Finite,
        /// About one entry in eight is a signed zero, an infinity or a NaN.
        Specials,
        /// Only ±0 and ±1, so whole rows of `-0.0` products occur: their
        /// sum is `+0.0` only when accumulated from `+0.0`.
        SignedZeros,
    }

    fn seeded_entries(rng: &mut StdRng, len: usize, draw: Draw) -> Vec<f64> {
        const SPECIAL: [f64; 5] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        const ZERO_OR_ONE: [f64; 4] = [0.0, -0.0, 1.0, -1.0];
        (0..len)
            .map(|_| match draw {
                Draw::Specials if rng.gen_range(0..8) == 0 => {
                    SPECIAL[rng.gen_range(0..SPECIAL.len())]
                }
                Draw::SignedZeros => ZERO_OR_ONE[rng.gen_range(0..ZERO_OR_ONE.len())],
                Draw::Finite | Draw::Specials => rng.gen_range(-4.0..4.0),
            })
            .collect()
    }

    /// Exact bits, except that every NaN reads as one: Rust leaves the sign
    /// and payload of a NaN result unspecified (the optimizer may commute a
    /// product's operands), so only NaN-ness is a property of the kernel.
    fn bits_of(value: f64) -> u64 {
        if value.is_nan() {
            f64::NAN.to_bits()
        } else {
            value.to_bits()
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().copied().map(bits_of).collect()
    }

    #[test]
    fn row_kernel_matches_the_scalar_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5EED_0F01);
        let square = (1..=9).chain([16, 31, 32, 33]).map(|n| (n, n));
        let rectangular = [(3, 7), (7, 3), (5, 32), (33, 2), (1, 9), (9, 1), (12, 5)];
        for (rows, cols) in square.chain(rectangular) {
            for draw in [Draw::Finite, Draw::Specials, Draw::SignedZeros] {
                let data = seeded_entries(&mut rng, rows * cols, draw);
                let m = Matrix::from_flat(rows, cols, data).unwrap();
                let x = seeded_entries(&mut rng, cols, draw);
                let reference = scalar_row_products(&m, &x);
                let mut out = vec![f64::NAN; rows];
                m.matvec_into(&x, &mut out).unwrap();
                assert_eq!(
                    bits(&out),
                    bits(&reference),
                    "matvec_into {rows}x{cols}, {draw:?}"
                );
                if rows == cols {
                    let mut total = 0.0;
                    for (&xr, &product) in x.iter().zip(&reference) {
                        total += xr * product;
                    }
                    let fused = m.quadratic_form(&x).unwrap();
                    assert_eq!(
                        bits_of(fused),
                        bits_of(total),
                        "quadratic_form {rows}x{cols}, {draw:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_kernel_handles_empty_shapes() {
        let mut none: [f64; 0] = [];
        assert!(Matrix::zeros(0, 0).matvec_into(&[], &mut none).is_ok());
        assert_eq!(Matrix::zeros(0, 0).quadratic_form(&[]).unwrap(), 0.0);
        assert!(Matrix::zeros(0, 3)
            .matvec_into(&[1.0, 2.0, 3.0], &mut none)
            .is_ok());
        let mut out = [f64::NAN; 5];
        Matrix::zeros(5, 0).matvec_into(&[], &mut out).unwrap();
        assert_eq!(bits(&out), bits(&[0.0; 5]));
    }

    #[test]
    fn quadratic_form_rejects_bad_shapes() {
        assert!(matches!(
            Matrix::zeros(2, 3).quadratic_form(&[1.0, 2.0, 3.0]),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            Matrix::zeros(3, 3).quadratic_form(&[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let v = Vector::from(vec![1.0, 2.0, 3.0]);
        let a = m.matvec_transposed(&v).unwrap();
        let b = m.transposed().matvec(&v).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let prod = m.matmul(&Matrix::identity(2)).unwrap();
        assert_eq!(prod, m);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn outer_product_update() {
        let mut a = Matrix::identity(2);
        let x = Vector::from(vec![1.0, 2.0]);
        a.add_outer_product(&x, 1.0).unwrap();
        assert!(approx_eq(a.get(0, 0), 2.0));
        assert!(approx_eq(a.get(0, 1), 2.0));
        assert!(approx_eq(a.get(1, 0), 2.0));
        assert!(approx_eq(a.get(1, 1), 5.0));
    }

    #[test]
    fn outer_product_requires_square() {
        let mut a = Matrix::zeros(2, 3);
        let x = Vector::from(vec![1.0, 2.0]);
        assert!(matches!(
            a.add_outer_product(&x, 1.0),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn add_and_scale() {
        let a = Matrix::identity(2);
        let b = a.scaled(3.0);
        let c = a.add(&b).unwrap();
        assert!(approx_eq(c.get(0, 0), 4.0));
        assert!(approx_eq(c.get(0, 1), 0.0));
        let mut d = a.clone();
        d.add_assign(&b).unwrap();
        assert_eq!(d, c);
    }

    #[test]
    fn diagonal_constructor() {
        let m = Matrix::diagonal(&[1.0, 2.0, 3.0]);
        assert!(approx_eq(m.get(1, 1), 2.0));
        assert!(approx_eq(m.get(0, 1), 0.0));
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!(approx_eq(Matrix::identity(4).frobenius_norm(), 2.0));
    }

    #[test]
    fn max_abs_diff_detects_perturbation() {
        let a = Matrix::identity(2);
        let mut b = a.clone();
        b.set(0, 1, 0.5);
        assert!(approx_eq(a.max_abs_diff(&b).unwrap(), 0.5));
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_out_of_bounds_panics() {
        let _ = Matrix::zeros(2, 2).get(2, 0);
    }

    #[test]
    fn display_contains_shape() {
        let m = Matrix::identity(2);
        assert!(format!("{m}").contains("2x2"));
    }
}
