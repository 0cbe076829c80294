//! Error type for the encoding subsystem.

use p2b_linalg::LinalgError;
use std::error::Error;
use std::fmt;

/// Error returned by quantization and encoder operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EncodingError {
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Description of the violated constraint.
        message: String,
    },
    /// The context dimension does not match what the encoder was fitted on.
    DimensionMismatch {
        /// Dimension the encoder expects.
        expected: usize,
        /// Dimension of the offending context.
        found: usize,
    },
    /// The context has a NaN or infinite coordinate, so it has no nearest
    /// code: every distance to it is NaN or infinite.
    NonFiniteContext {
        /// Index of the first non-finite coordinate.
        index: usize,
    },
    /// The training corpus was empty or smaller than the number of clusters.
    InsufficientData {
        /// Number of samples provided.
        samples: usize,
        /// Minimum number required.
        required: usize,
    },
    /// The cardinality computation overflowed (`d` and `q` too large).
    CardinalityOverflow {
        /// Requested precision (decimal digits).
        precision: u32,
        /// Requested dimension.
        dimension: usize,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(LinalgError),
}

impl fmt::Display for EncodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodingError::InvalidConfig { parameter, message } => {
                write!(f, "invalid configuration for `{parameter}`: {message}")
            }
            EncodingError::DimensionMismatch { expected, found } => write!(
                f,
                "context dimension mismatch: encoder expects {expected}, observed {found}"
            ),
            EncodingError::NonFiniteContext { index } => {
                write!(f, "context coordinate {index} is NaN or infinite")
            }
            EncodingError::InsufficientData { samples, required } => write!(
                f,
                "insufficient training data: {samples} samples, at least {required} required"
            ),
            EncodingError::CardinalityOverflow {
                precision,
                dimension,
            } => write!(
                f,
                "simplex cardinality overflows u128 for precision {precision} and dimension {dimension}"
            ),
            EncodingError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for EncodingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EncodingError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for EncodingError {
    fn from(e: LinalgError) -> Self {
        EncodingError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_facts() {
        let e = EncodingError::DimensionMismatch {
            expected: 10,
            found: 4,
        };
        assert!(e.to_string().contains("10"));
        let e = EncodingError::NonFiniteContext { index: 7 };
        assert!(e.to_string().contains('7'));
        let e = EncodingError::InsufficientData {
            samples: 3,
            required: 8,
        };
        assert!(e.to_string().contains('8'));
        let e = EncodingError::CardinalityOverflow {
            precision: 9,
            dimension: 500,
        };
        assert!(e.to_string().contains("500"));
    }

    #[test]
    fn wraps_linalg_with_source() {
        let e = EncodingError::from(LinalgError::Empty);
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<EncodingError>();
    }
}
