//! Error type for the simulation engine.

use std::error::Error;
use std::fmt;

/// Error returned by experiment runners.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Description of the violated constraint.
        message: String,
    },
    /// An underlying P2B system operation failed.
    Core(p2b_core::CoreError),
    /// An underlying bandit operation failed.
    Bandit(p2b_bandit::BanditError),
    /// An underlying encoding operation failed.
    Encoding(p2b_encoding::EncodingError),
    /// An underlying dataset operation failed.
    Dataset(p2b_datasets::DatasetError),
    /// An underlying privacy computation failed.
    Privacy(p2b_privacy::PrivacyError),
    /// Writing an experiment result file failed.
    Io(std::io::Error),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { parameter, message } => {
                write!(f, "invalid configuration for `{parameter}`: {message}")
            }
            SimError::Core(e) => write!(f, "p2b system failure: {e}"),
            SimError::Bandit(e) => write!(f, "bandit failure: {e}"),
            SimError::Encoding(e) => write!(f, "encoding failure: {e}"),
            SimError::Dataset(e) => write!(f, "dataset failure: {e}"),
            SimError::Privacy(e) => write!(f, "privacy failure: {e}"),
            SimError::Io(e) => write!(f, "i/o failure: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Core(e) => Some(e),
            SimError::Bandit(e) => Some(e),
            SimError::Encoding(e) => Some(e),
            SimError::Dataset(e) => Some(e),
            SimError::Privacy(e) => Some(e),
            SimError::Io(e) => Some(e),
            SimError::InvalidConfig { .. } => None,
        }
    }
}

impl From<p2b_core::CoreError> for SimError {
    fn from(e: p2b_core::CoreError) -> Self {
        SimError::Core(e)
    }
}

impl From<p2b_bandit::BanditError> for SimError {
    fn from(e: p2b_bandit::BanditError) -> Self {
        SimError::Bandit(e)
    }
}

impl From<p2b_encoding::EncodingError> for SimError {
    fn from(e: p2b_encoding::EncodingError) -> Self {
        SimError::Encoding(e)
    }
}

impl From<p2b_datasets::DatasetError> for SimError {
    fn from(e: p2b_datasets::DatasetError) -> Self {
        SimError::Dataset(e)
    }
}

impl From<p2b_privacy::PrivacyError> for SimError {
    fn from(e: p2b_privacy::PrivacyError) -> Self {
        SimError::Privacy(e)
    }
}

impl From<std::io::Error> for SimError {
    fn from(e: std::io::Error) -> Self {
        SimError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = SimError::InvalidConfig {
            parameter: "num_users",
            message: "must be at least 1".to_owned(),
        };
        assert!(e.to_string().contains("num_users"));
        assert!(Error::source(&e).is_none());

        let e = SimError::from(p2b_privacy::PrivacyError::InvalidProbability {
            name: "p",
            value: 7.0,
        });
        assert!(Error::source(&e).is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<SimError>();
    }
}
