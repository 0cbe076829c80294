//! Small dense linear-algebra substrate for the P2B reproduction.
//!
//! The Privacy-Preserving Bandits system needs only a handful of numerical
//! primitives: dense vectors and matrices, a packed Cholesky factor of the
//! LinUCB ridge-regression designs that folds each observation in `O(d²)`
//! (a rank-one update) instead of factoring again in `O(d³)`, and a few
//! statistical helpers (softmax, mean, argmax).
//!
//! None of the crates in the approved offline dependency set provide linear
//! algebra, so this crate implements the required subset from scratch with an
//! emphasis on clarity and numerical robustness for the small dimensions
//! (`d ≤ 128`) used throughout the paper's experiments.
//!
//! # Example
//!
//! ```
//! use p2b_linalg::{Matrix, Vector};
//!
//! # fn main() -> Result<(), p2b_linalg::LinalgError> {
//! let a = Matrix::identity(3);
//! let x = Vector::from(vec![1.0, 2.0, 3.0]);
//! let y = a.matvec(&x)?;
//! assert_eq!(y.as_slice(), x.as_slice());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cholesky;
mod error;
mod matrix;
mod stats;
mod vector;

#[cfg(feature = "counters")]
pub use cholesky::factorizations_on_this_thread;
pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::Matrix;
pub use stats::{argmax, mean, softmax, softmax_in_place, standard_deviation, variance};
pub use vector::Vector;

/// Numerical tolerance used throughout the crate when comparing floating
/// point quantities (e.g. checking positive-definiteness or normalization).
pub const EPSILON: f64 = 1e-10;

/// Returns `true` when two floating point numbers are equal up to an
/// absolute *and* relative tolerance of [`EPSILON`]-scale.
///
/// This is the comparison used by the test-suites of the downstream crates;
/// exposing it here keeps the notion of "numerically equal" consistent.
///
/// ```
/// assert!(p2b_linalg::approx_eq(1.0, 1.0 + 1e-12));
/// assert!(!p2b_linalg::approx_eq(1.0, 1.1));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    let scale = a.abs().max(b.abs()).max(1.0);
    diff <= 1e-9 * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_is_reflexive() {
        for v in [-1e9, -1.0, 0.0, 1e-30, 1.0, 1e9] {
            assert!(approx_eq(v, v));
        }
    }

    #[test]
    fn approx_eq_rejects_distinct_values() {
        assert!(!approx_eq(0.0, 1.0));
        assert!(!approx_eq(1e9, 1e9 + 10.0));
    }

    #[test]
    fn approx_eq_is_symmetric() {
        assert_eq!(approx_eq(1.0, 1.0 + 1e-12), approx_eq(1.0 + 1e-12, 1.0));
    }
}
