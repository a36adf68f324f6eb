//! Error type for technology-database operations.

use std::error::Error;
use std::fmt;

/// Errors raised while building, querying or loading a process database.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TechError {
    /// A device type referenced by name does not exist in the database.
    UnknownDevice {
        /// The missing device-type name.
        name: String,
    },
    /// Two templates with the same name were registered.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
    /// A physical parameter was out of range (message explains which).
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// Persistence failed while reading or writing a database file.
    Io {
        /// Human-readable description of the underlying failure.
        message: String,
    },
}

impl fmt::Display for TechError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TechError::UnknownDevice { name } => write!(f, "unknown device type `{name}`"),
            TechError::DuplicateName { name } => write!(f, "duplicate template name `{name}`"),
            TechError::InvalidParameter { message } => {
                write!(f, "invalid process parameter: {message}")
            }
            TechError::Io { message } => write!(f, "process database i/o failed: {message}"),
        }
    }
}

impl Error for TechError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TechError::UnknownDevice {
            name: "XQ1".to_owned(),
        };
        assert_eq!(e.to_string(), "unknown device type `XQ1`");
        let e = TechError::InvalidParameter {
            message: "row height must be positive".to_owned(),
        };
        assert!(e.to_string().contains("row height"));
    }

    #[test]
    fn is_std_error_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<TechError>();
    }
}
