//! The encoder abstraction: mapping contexts to a small code space.

use crate::EncodingError;
use p2b_linalg::Vector;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An encoded context `y ∈ {0, …, k−1}`.
///
/// Newtype over the code index so codes cannot be confused with action
/// indices or raw cluster sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ContextCode(usize);

impl ContextCode {
    /// Wraps a code index.
    #[must_use]
    pub fn new(value: usize) -> Self {
        Self(value)
    }

    /// The underlying code index.
    #[must_use]
    pub fn value(self) -> usize {
        self.0
    }
}

impl From<usize> for ContextCode {
    fn from(value: usize) -> Self {
        Self(value)
    }
}

impl From<ContextCode> for usize {
    fn from(code: ContextCode) -> Self {
        code.0
    }
}

impl fmt::Display for ContextCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "y{}", self.0)
    }
}

/// Summary statistics of a fitted encoder, used by the privacy analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncoderStats {
    /// Number of codes `k`.
    pub num_codes: usize,
    /// Number of training samples assigned to each code.
    pub cluster_sizes: Vec<usize>,
    /// Size of the smallest non-empty cluster — the crowd-blending `l` of a
    /// suboptimal encoder (Section 4 of the paper).
    pub min_cluster_size: usize,
    /// Size of the largest cluster.
    pub max_cluster_size: usize,
    /// Mean intra-cluster squared distance over the training corpus
    /// (the k-means objective value per sample).
    pub mean_distortion: f64,
}

impl EncoderStats {
    /// Computes statistics from per-sample assignments and distortions.
    #[must_use]
    pub fn from_assignments(num_codes: usize, assignments: &[usize], distortions: &[f64]) -> Self {
        let mut cluster_sizes = vec![0usize; num_codes];
        for &a in assignments {
            if a < num_codes {
                cluster_sizes[a] += 1;
            }
        }
        let nonempty: Vec<usize> = cluster_sizes.iter().copied().filter(|&c| c > 0).collect();
        let min_cluster_size = nonempty.iter().copied().min().unwrap_or(0);
        let max_cluster_size = cluster_sizes.iter().copied().max().unwrap_or(0);
        let mean_distortion = p2b_linalg::mean(distortions);
        Self {
            num_codes,
            cluster_sizes,
            min_cluster_size,
            max_cluster_size,
            mean_distortion,
        }
    }

    /// Number of non-empty clusters.
    #[must_use]
    pub fn occupied_codes(&self) -> usize {
        self.cluster_sizes.iter().filter(|&&c| c > 0).count()
    }
}

/// A fitted context encoder.
///
/// Encoders are fitted once (on public or historical data, or on the
/// enumerable simplex grid itself) and then used by every local agent to map
/// observed contexts to codes before transmission. The trait is object-safe
/// so that the P2B agent can hold `Box<dyn Encoder>`.
pub trait Encoder: Send + Sync + std::fmt::Debug {
    /// Number of codes `k` this encoder can emit.
    fn num_codes(&self) -> usize;

    /// Dimension of the context vectors the encoder expects.
    fn context_dimension(&self) -> usize;

    /// Encodes a context into a code in `0..num_codes`.
    ///
    /// # Errors
    ///
    /// Returns [`EncodingError::DimensionMismatch`] when the context has the
    /// wrong dimension and [`EncodingError::NonFiniteContext`] when one of its
    /// coordinates is NaN or infinite.
    fn encode(&self, context: &Vector) -> Result<ContextCode, EncodingError>;

    /// A representative context for the given code (e.g. the cluster
    /// centroid). This is what the central server uses as the context of
    /// reported tuples when updating the warm-start model.
    ///
    /// # Errors
    ///
    /// Returns [`EncodingError::InvalidConfig`] for out-of-range codes.
    fn representative(&self, code: ContextCode) -> Result<Vector, EncodingError>;

    /// Statistics of the fitted encoder over its training corpus.
    fn stats(&self) -> &EncoderStats;

    /// Short human-readable encoder name used in experiment reports.
    fn name(&self) -> &'static str;
}

/// Validates that a context matches the encoder's expected dimension and
/// that every coordinate is finite. A NaN coordinate makes every distance
/// and projection NaN, every comparison against those false, and the code
/// an accident of the scan order rather than a property of the context.
pub(crate) fn check_context(expected: usize, context: &Vector) -> Result<(), EncodingError> {
    if context.len() != expected {
        return Err(EncodingError::DimensionMismatch {
            expected,
            found: context.len(),
        });
    }
    match context.iter().position(|x| !x.is_finite()) {
        Some(index) => Err(EncodingError::NonFiniteContext { index }),
        None => Ok(()),
    }
}

/// Validates that a code is within range.
pub(crate) fn check_code(num_codes: usize, code: ContextCode) -> Result<(), EncodingError> {
    if code.value() >= num_codes {
        return Err(EncodingError::InvalidConfig {
            parameter: "code",
            message: format!("code {} out of range for {num_codes} codes", code.value()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_code_round_trips() {
        let c = ContextCode::from(9usize);
        assert_eq!(usize::from(c), 9);
        assert_eq!(c.to_string(), "y9");
        assert_eq!(ContextCode::new(9), c);
    }

    #[test]
    fn stats_from_assignments() {
        let assignments = [0, 0, 1, 1, 1, 3];
        let distortions = [0.1, 0.3, 0.2, 0.2, 0.2, 0.0];
        let stats = EncoderStats::from_assignments(4, &assignments, &distortions);
        assert_eq!(stats.cluster_sizes, vec![2, 3, 0, 1]);
        assert_eq!(stats.min_cluster_size, 1);
        assert_eq!(stats.max_cluster_size, 3);
        assert_eq!(stats.occupied_codes(), 3);
        assert!((stats.mean_distortion - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn stats_with_no_assignments() {
        let stats = EncoderStats::from_assignments(3, &[], &[]);
        assert_eq!(stats.min_cluster_size, 0);
        assert_eq!(stats.max_cluster_size, 0);
        assert_eq!(stats.occupied_codes(), 0);
    }

    #[test]
    fn validators() {
        assert!(check_context(3, &Vector::zeros(3)).is_ok());
        assert!(matches!(
            check_context(3, &Vector::zeros(4)),
            Err(EncodingError::DimensionMismatch {
                expected: 3,
                found: 4
            })
        ));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                check_context(3, &Vector::from(vec![0.5, bad, bad])),
                Err(EncodingError::NonFiniteContext { index: 1 })
            );
        }
        assert!(check_code(4, ContextCode::new(3)).is_ok());
        assert!(check_code(4, ContextCode::new(4)).is_err());
    }
}
