//! Error type for the simulation plumbing.

use std::error::Error;
use std::fmt;

/// Error returned by the simulation plumbing.
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
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { parameter, message } => {
                write!(f, "invalid configuration for `{parameter}`: {message}")
            }
        }
    }
}

impl Error for SimError {}

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
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<SimError>();
    }
}
