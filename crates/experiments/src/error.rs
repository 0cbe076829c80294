//! Error type for the experiment matrix harness.

use std::error::Error;
use std::fmt;

/// Error returned by the scenario-matrix harness.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExperimentError {
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Description of the violated constraint.
        message: String,
    },
    /// An underlying bandit operation failed.
    Bandit(p2b_bandit::BanditError),
    /// An underlying encoding operation failed.
    Encoding(p2b_encoding::EncodingError),
    /// An underlying dataset operation failed.
    Dataset(p2b_datasets::DatasetError),
    /// An underlying privacy computation failed.
    Privacy(p2b_privacy::PrivacyError),
    /// An underlying shuffler (engine) operation failed.
    Shuffler(p2b_shuffler::ShufflerError),
    /// An underlying P2B system operation failed.
    Core(p2b_core::CoreError),
    /// Writing a result file failed.
    Io(std::io::Error),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::InvalidConfig { parameter, message } => {
                write!(f, "invalid configuration for `{parameter}`: {message}")
            }
            ExperimentError::Bandit(e) => write!(f, "bandit failure: {e}"),
            ExperimentError::Encoding(e) => write!(f, "encoding failure: {e}"),
            ExperimentError::Dataset(e) => write!(f, "dataset failure: {e}"),
            ExperimentError::Privacy(e) => write!(f, "privacy failure: {e}"),
            ExperimentError::Shuffler(e) => write!(f, "shuffler failure: {e}"),
            ExperimentError::Core(e) => write!(f, "p2b system failure: {e}"),
            ExperimentError::Io(e) => write!(f, "i/o failure: {e}"),
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::Bandit(e) => Some(e),
            ExperimentError::Encoding(e) => Some(e),
            ExperimentError::Dataset(e) => Some(e),
            ExperimentError::Privacy(e) => Some(e),
            ExperimentError::Shuffler(e) => Some(e),
            ExperimentError::Core(e) => Some(e),
            ExperimentError::Io(e) => Some(e),
            ExperimentError::InvalidConfig { .. } => None,
        }
    }
}

impl From<p2b_bandit::BanditError> for ExperimentError {
    fn from(e: p2b_bandit::BanditError) -> Self {
        ExperimentError::Bandit(e)
    }
}

impl From<p2b_encoding::EncodingError> for ExperimentError {
    fn from(e: p2b_encoding::EncodingError) -> Self {
        ExperimentError::Encoding(e)
    }
}

impl From<p2b_datasets::DatasetError> for ExperimentError {
    fn from(e: p2b_datasets::DatasetError) -> Self {
        ExperimentError::Dataset(e)
    }
}

impl From<p2b_privacy::PrivacyError> for ExperimentError {
    fn from(e: p2b_privacy::PrivacyError) -> Self {
        ExperimentError::Privacy(e)
    }
}

impl From<p2b_shuffler::ShufflerError> for ExperimentError {
    fn from(e: p2b_shuffler::ShufflerError) -> Self {
        ExperimentError::Shuffler(e)
    }
}

impl From<p2b_core::CoreError> for ExperimentError {
    fn from(e: p2b_core::CoreError) -> Self {
        ExperimentError::Core(e)
    }
}

impl From<std::io::Error> for ExperimentError {
    fn from(e: std::io::Error) -> Self {
        ExperimentError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = ExperimentError::InvalidConfig {
            parameter: "repeats",
            message: "must be at least 1".to_owned(),
        };
        assert!(e.to_string().contains("repeats"));
        assert!(Error::source(&e).is_none());

        let e = ExperimentError::from(p2b_privacy::PrivacyError::InvalidProbability {
            name: "p",
            value: 7.0,
        });
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<ExperimentError>();
    }
}
