//! Error type for the P2B core crate.

use std::error::Error;
use std::fmt;

/// Error returned by the P2B system, agents and server.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Description of the violated constraint.
        message: String,
    },
    /// The encoder's context dimension does not match the system configuration.
    EncoderMismatch {
        /// Dimension the configuration expects.
        expected: usize,
        /// Dimension the encoder produces/consumes.
        found: usize,
    },
    /// The encoder's representative of a code has a NaN or infinite
    /// coordinate: folded, it would poison its arm's design for good, so
    /// the centroid table is refused whole.
    NonFiniteCentroid {
        /// The first code whose representative is not finite.
        code: usize,
    },
    /// The agent pool's books disagree with themselves: its key index or
    /// LRU list names a slot that does not hold what they say it does. A
    /// bug, never an input error; the pool reports it instead of guessing.
    PoolInconsistent {
        /// What the slot was expected to hold.
        expected: &'static str,
    },
    /// An underlying bandit-policy operation failed.
    Bandit(p2b_bandit::BanditError),
    /// An underlying encoding operation failed.
    Encoding(p2b_encoding::EncodingError),
    /// An underlying privacy computation failed.
    Privacy(p2b_privacy::PrivacyError),
    /// An underlying shuffler operation failed.
    Shuffler(p2b_shuffler::ShufflerError),
    /// An underlying linear-algebra operation failed.
    Linalg(p2b_linalg::LinalgError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig { parameter, message } => {
                write!(f, "invalid configuration for `{parameter}`: {message}")
            }
            CoreError::EncoderMismatch { expected, found } => write!(
                f,
                "encoder dimension mismatch: configuration expects {expected}, encoder handles {found}"
            ),
            CoreError::NonFiniteCentroid { code } => write!(
                f,
                "the encoder's representative of code {code} has a NaN or infinite coordinate"
            ),
            CoreError::PoolInconsistent { expected } => write!(
                f,
                "agent pool books are inconsistent: a slot does not hold {expected}"
            ),
            CoreError::Bandit(e) => write!(f, "bandit failure: {e}"),
            CoreError::Encoding(e) => write!(f, "encoding failure: {e}"),
            CoreError::Privacy(e) => write!(f, "privacy failure: {e}"),
            CoreError::Shuffler(e) => write!(f, "shuffler failure: {e}"),
            CoreError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Bandit(e) => Some(e),
            CoreError::Encoding(e) => Some(e),
            CoreError::Privacy(e) => Some(e),
            CoreError::Shuffler(e) => Some(e),
            CoreError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<p2b_bandit::BanditError> for CoreError {
    fn from(e: p2b_bandit::BanditError) -> Self {
        CoreError::Bandit(e)
    }
}

impl From<p2b_encoding::EncodingError> for CoreError {
    fn from(e: p2b_encoding::EncodingError) -> Self {
        CoreError::Encoding(e)
    }
}

impl From<p2b_privacy::PrivacyError> for CoreError {
    fn from(e: p2b_privacy::PrivacyError) -> Self {
        CoreError::Privacy(e)
    }
}

impl From<p2b_shuffler::ShufflerError> for CoreError {
    fn from(e: p2b_shuffler::ShufflerError) -> Self {
        CoreError::Shuffler(e)
    }
}

impl From<p2b_linalg::LinalgError> for CoreError {
    fn from(e: p2b_linalg::LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_sub_errors_with_sources() {
        let e = CoreError::from(p2b_linalg::LinalgError::Empty);
        assert!(Error::source(&e).is_some());
        let e = CoreError::from(p2b_privacy::PrivacyError::InvalidProbability {
            name: "p",
            value: 2.0,
        });
        assert!(e.to_string().contains("privacy"));
        let e = CoreError::from(p2b_shuffler::ShufflerError::PipelineClosed);
        assert!(e.to_string().contains("shuffler"));
    }

    #[test]
    fn display_for_config_errors() {
        let e = CoreError::EncoderMismatch {
            expected: 10,
            found: 4,
        };
        assert!(e.to_string().contains("10"));
        let e = CoreError::InvalidConfig {
            parameter: "num_actions",
            message: "must be at least 1".to_owned(),
        };
        assert!(e.to_string().contains("num_actions"));
        let e = CoreError::PoolInconsistent {
            expected: "a resident agent",
        };
        assert!(e.to_string().contains("a resident agent"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<CoreError>();
    }
}
