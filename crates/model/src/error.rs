//! Error types for the data model.

use std::fmt;

/// Errors produced while constructing or manipulating model values.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// An application name could not be recognised.
    UnknownApp(String),
    /// A value string could not be parsed as the requested kind.
    ParseValue {
        /// What we tried to parse the input as.
        expected: &'static str,
        /// The offending input.
        input: String,
    },
    /// An attribute name was syntactically invalid (empty, embedded NUL, ...).
    InvalidAttrName(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownApp(name) => write!(f, "unknown application `{name}`"),
            ModelError::ParseValue { expected, input } => {
                write!(f, "cannot parse `{input}` as {expected}")
            }
            ModelError::InvalidAttrName(name) => write!(f, "invalid attribute name `{name}`"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_unpunctuated() {
        let err = ModelError::UnknownApp("foo".into());
        let msg = err.to_string();
        assert!(msg.starts_with("unknown"));
        assert!(!msg.ends_with('.'));
    }
}
