//! Error types for netlist parsing and validation.

use std::error::Error;
use std::fmt;

/// What went wrong while parsing a textual netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// An unexpected token was encountered (message names it).
    UnexpectedToken,
    /// The input ended before the construct was complete.
    UnexpectedEof,
    /// A name was declared twice.
    DuplicateName,
    /// A name was referenced but never declared.
    UnknownName,
    /// A construct is malformed in a way the message explains.
    Malformed,
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParseErrorKind::UnexpectedToken => "unexpected token",
            ParseErrorKind::UnexpectedEof => "unexpected end of input",
            ParseErrorKind::DuplicateName => "duplicate name",
            ParseErrorKind::UnknownName => "unknown name",
            ParseErrorKind::Malformed => "malformed construct",
        };
        f.write_str(s)
    }
}

/// Errors produced while building, parsing or validating netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A textual netlist failed to parse.
    Parse {
        /// Classification of the failure.
        kind: ParseErrorKind,
        /// 1-based source line.
        line: usize,
        /// Explanation of the failure.
        message: String,
    },
    /// The netlist references a device/cell type the technology lacks.
    UnknownTemplate {
        /// Offending device instance name.
        device: String,
        /// The missing template name.
        template: String,
    },
    /// A structural invariant is violated (message explains which).
    Invalid {
        /// Explanation of the violation.
        message: String,
    },
    /// An error in a named source file: `FILE: …` in front of the error.
    InFile {
        /// The file, as named by the caller.
        path: String,
        /// The error inside it.
        error: Box<NetlistError>,
    },
}

impl NetlistError {
    /// Convenience constructor for parse errors.
    pub fn parse(kind: ParseErrorKind, line: usize, message: impl Into<String>) -> Self {
        NetlistError::Parse {
            kind,
            line,
            message: message.into(),
        }
    }

    /// Convenience constructor for validation errors.
    pub fn invalid(message: impl Into<String>) -> Self {
        NetlistError::Invalid {
            message: message.into(),
        }
    }

    /// Locates `error` in the file `path`.
    pub fn in_file(path: impl Into<String>, error: NetlistError) -> Self {
        NetlistError::InFile {
            path: path.into(),
            error: Box::new(error),
        }
    }
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::Parse {
                kind,
                line,
                message,
            } => write!(f, "line {line}: {kind}: {message}"),
            NetlistError::UnknownTemplate { device, template } => {
                write!(f, "device `{device}` uses unknown template `{template}`")
            }
            NetlistError::Invalid { message } => write!(f, "invalid netlist: {message}"),
            NetlistError::InFile { path, error } => write!(f, "{path}: {error}"),
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_line_numbers() {
        let e = NetlistError::parse(ParseErrorKind::UnexpectedToken, 12, "found `;`");
        assert_eq!(e.to_string(), "line 12: unexpected token: found `;`");
    }

    #[test]
    fn display_unknown_template() {
        let e = NetlistError::UnknownTemplate {
            device: "u1".to_owned(),
            template: "NAND99".to_owned(),
        };
        assert!(e.to_string().contains("NAND99"));
    }

    #[test]
    fn display_in_file_prefixes_the_path() {
        let inner = NetlistError::parse(ParseErrorKind::UnexpectedEof, 3, "expected `;`");
        let e = NetlistError::in_file("chip.mnl", inner);
        assert_eq!(
            e.to_string(),
            "chip.mnl: line 3: unexpected end of input: expected `;`"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<NetlistError>();
    }
}
