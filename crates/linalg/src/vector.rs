//! Dense, heap-allocated `f64` vectors.

use crate::LinalgError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense vector of `f64` values.
///
/// `Vector` is the context-vector representation used throughout P2B: the
/// normalized user context observed by a local agent, LinUCB's `θ` and `b`
/// parameters, and the cluster centroids of the encoder are all `Vector`s.
///
/// # Example
///
/// ```
/// use p2b_linalg::Vector;
///
/// let v = Vector::from(vec![3.0, 4.0]);
/// assert_eq!(v.norm2(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of length `len`.
    ///
    /// ```
    /// let v = p2b_linalg::Vector::zeros(4);
    /// assert_eq!(v.len(), 4);
    /// assert!(v.iter().all(|&x| x == 0.0));
    /// ```
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector of length `len` filled with `value`.
    #[must_use]
    pub fn filled(len: usize, value: f64) -> Self {
        Self {
            data: vec![value; len],
        }
    }

    /// Creates the `i`-th standard basis vector of dimension `len`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[must_use]
    pub fn basis(len: usize, i: usize) -> Self {
        assert!(i < len, "basis index {i} out of range for length {len}");
        let mut v = Self::zeros(len);
        v.data[i] = 1.0;
        v
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying storage.
    #[must_use]
    pub fn into_inner(self) -> Vec<f64> {
        self.data
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Iterates mutably over the entries.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn dot(&self, other: &Vector) -> Result<f64, LinalgError> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.len(), 1),
                found: (other.len(), 1),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Euclidean (L2) norm.
    #[must_use]
    pub fn norm2(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// L1 norm (sum of absolute values).
    #[must_use]
    pub fn norm1(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).sum()
    }

    /// Squared Euclidean distance to another vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn squared_distance(&self, other: &Vector) -> Result<f64, LinalgError> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.len(), 1),
                found: (other.len(), 1),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum())
    }

    /// Element-wise addition, returning a new vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn add(&self, other: &Vector) -> Result<Vector, LinalgError> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.len(), 1),
                found: (other.len(), 1),
            });
        }
        Ok(Vector::from(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a + b)
                .collect::<Vec<_>>(),
        ))
    }

    /// Element-wise subtraction (`self - other`), returning a new vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn sub(&self, other: &Vector) -> Result<Vector, LinalgError> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.len(), 1),
                found: (other.len(), 1),
            });
        }
        Ok(Vector::from(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a - b)
                .collect::<Vec<_>>(),
        ))
    }

    /// Adds `scale * other` into `self` in place (the BLAS `axpy` operation).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the lengths differ.
    pub fn axpy(&mut self, scale: f64, other: &Vector) -> Result<(), LinalgError> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                expected: (self.len(), 1),
                found: (other.len(), 1),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Returns a new vector scaled by `factor`.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Vector {
        Vector::from(self.data.iter().map(|x| x * factor).collect::<Vec<_>>())
    }

    /// Returns an L1-normalized copy of the vector (entries sum to one).
    ///
    /// This is the normalization P2B applies to contexts before quantizing
    /// them to `q` decimal digits (Section 3.2 of the paper). Entries are
    /// first shifted to be non-negative when necessary.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty vector.
    pub fn normalized_l1(&self) -> Result<Vector, LinalgError> {
        if self.is_empty() {
            return Err(LinalgError::Empty);
        }
        let min = self.data.iter().cloned().fold(f64::INFINITY, f64::min);
        let shift = if min < 0.0 { -min } else { 0.0 };
        let shifted: Vec<f64> = self.data.iter().map(|x| x + shift).collect();
        let sum: f64 = shifted.iter().sum();
        if sum <= f64::EPSILON {
            // Degenerate all-zero vector: fall back to the uniform distribution,
            // which is the natural "no information" context.
            let n = self.len() as f64;
            return Ok(Vector::filled(self.len(), 1.0 / n));
        }
        Ok(Vector::from(
            shifted.into_iter().map(|x| x / sum).collect::<Vec<_>>(),
        ))
    }

    /// Returns an L2-normalized copy (unit Euclidean norm).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty vector.
    pub fn normalized_l2(&self) -> Result<Vector, LinalgError> {
        if self.is_empty() {
            return Err(LinalgError::Empty);
        }
        let norm = self.norm2();
        if norm <= f64::EPSILON {
            let n = (self.len() as f64).sqrt();
            return Ok(Vector::filled(self.len(), 1.0 / n));
        }
        Ok(self.scaled(1.0 / norm))
    }

    /// Index of the maximum entry, breaking ties towards the lowest index.
    ///
    /// Returns `None` for an empty vector.
    #[must_use]
    pub fn argmax(&self) -> Option<usize> {
        crate::stats::argmax(&self.data)
    }

    /// Sum of the entries.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Returns `true` if every entry is finite (neither NaN nor infinite).
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Self { data }
    }
}

impl From<&[f64]> for Vector {
    fn from(data: &[f64]) -> Self {
        Self {
            data: data.to_vec(),
        }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for Vector {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl AsRef<[f64]> for Vector {
    fn as_ref(&self) -> &[f64] {
        &self.data
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, index: usize) -> &f64 {
        &self.data[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.data[index]
    }
}

impl IntoIterator for Vector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.4}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn zeros_and_filled() {
        assert_eq!(Vector::zeros(3).as_slice(), &[0.0, 0.0, 0.0]);
        assert_eq!(Vector::filled(2, 1.5).as_slice(), &[1.5, 1.5]);
    }

    #[test]
    fn basis_vector_has_single_one() {
        let e2 = Vector::basis(4, 2);
        assert_eq!(e2.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
        assert_eq!(e2.sum(), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_out_of_range_panics() {
        let _ = Vector::basis(2, 2);
    }

    #[test]
    fn dot_product() {
        let a = Vector::from(vec![1.0, 2.0, 3.0]);
        let b = Vector::from(vec![4.0, 5.0, 6.0]);
        assert!(approx_eq(a.dot(&b).unwrap(), 32.0));
    }

    #[test]
    fn dot_dimension_mismatch() {
        let a = Vector::zeros(2);
        let b = Vector::zeros(3);
        assert!(matches!(
            a.dot(&b),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn norms() {
        let v = Vector::from(vec![3.0, -4.0]);
        assert!(approx_eq(v.norm2(), 5.0));
        assert!(approx_eq(v.norm1(), 7.0));
    }

    #[test]
    fn add_sub_axpy() {
        let a = Vector::from(vec![1.0, 2.0]);
        let b = Vector::from(vec![3.0, 5.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 3.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c.as_slice(), &[7.0, 12.0]);
    }

    #[test]
    fn normalized_l1_sums_to_one() {
        let v = Vector::from(vec![1.0, 3.0, 4.0]);
        let n = v.normalized_l1().unwrap();
        assert!(approx_eq(n.sum(), 1.0));
        assert!(approx_eq(n[2], 0.5));
    }

    #[test]
    fn normalized_l1_handles_negative_entries() {
        let v = Vector::from(vec![-1.0, 0.0, 1.0]);
        let n = v.normalized_l1().unwrap();
        assert!(approx_eq(n.sum(), 1.0));
        assert!(n.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn normalized_l1_of_zero_vector_is_uniform() {
        let v = Vector::zeros(4);
        let n = v.normalized_l1().unwrap();
        assert!(n.iter().all(|&x| approx_eq(x, 0.25)));
    }

    #[test]
    fn normalized_l2_is_unit_norm() {
        let v = Vector::from(vec![3.0, 4.0]);
        let n = v.normalized_l2().unwrap();
        assert!(approx_eq(n.norm2(), 1.0));
    }

    #[test]
    fn normalize_empty_is_error() {
        assert!(matches!(
            Vector::zeros(0).normalized_l1(),
            Err(LinalgError::Empty)
        ));
        assert!(matches!(
            Vector::zeros(0).normalized_l2(),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn squared_distance() {
        let a = Vector::from(vec![0.0, 0.0]);
        let b = Vector::from(vec![3.0, 4.0]);
        assert!(approx_eq(a.squared_distance(&b).unwrap(), 25.0));
    }

    #[test]
    fn argmax_prefers_first_on_ties() {
        let v = Vector::from(vec![1.0, 5.0, 5.0, 2.0]);
        assert_eq!(v.argmax(), Some(1));
        assert_eq!(Vector::zeros(0).argmax(), None);
    }

    #[test]
    fn collect_and_extend() {
        let v: Vector = (0..3).map(|i| i as f64).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
        let mut v = v;
        v.extend([3.0]);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn display_is_nonempty() {
        let v = Vector::from(vec![1.0, 2.0]);
        assert!(format!("{v}").contains("1.0000"));
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut v = Vector::zeros(2);
        assert!(v.is_finite());
        v[0] = f64::NAN;
        assert!(!v.is_finite());
    }
}
