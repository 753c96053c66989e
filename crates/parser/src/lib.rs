//! Configuration-file parsing — the Augeas substitute (§4.1).
//!
//! The paper builds its parser on Augeas, which maps application-specific
//! configuration formats to uniform key–value pairs and lets users plug in
//! their own lenses.  This crate reproduces that contract with hand-written
//! lenses for the three evaluated applications plus sshd:
//!
//! * [`IniLens`] — `my.cnf` / `php.ini` style (`key = value`, `[section]`s,
//!   `#`/`;` comments),
//! * [`ApacheLens`] — httpd directives (`Key value...`, multi-argument
//!   directives exposed as `Key/argN`, nested `<Section arg>` blocks
//!   flattened as `Section:arg/Key`),
//! * [`SshdLens`] — `Key value` pairs.
//!
//! A [`LensRegistry`] dispatches by application kind and accepts
//! user-registered lenses, mirroring Augeas' extensible interface.
//!
//! # Examples
//!
//! ```
//! use encore_parser::{IniLens, Lens};
//!
//! let pairs = IniLens::mysql().parse("[mysqld]\ndatadir = /var/lib/mysql\n").unwrap();
//! assert_eq!(pairs[0].key, "datadir");
//! assert_eq!(pairs[0].value, "/var/lib/mysql");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apache;
pub mod ini;
pub mod obs;
pub mod registry;
pub mod sshd;

pub use apache::ApacheLens;
pub use ini::IniLens;
pub use registry::LensRegistry;
pub use sshd::SshdLens;

use std::fmt;

/// One parsed configuration pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeyValue {
    /// Flattened entry key (may embed section/argument context).
    pub key: String,
    /// Raw textual value.
    pub value: String,
}

impl KeyValue {
    /// Construct a pair.
    pub fn new(key: impl Into<String>, value: impl Into<String>) -> KeyValue {
        KeyValue {
            key: key.into(),
            value: value.into(),
        }
    }
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseError {
    /// A line could not be interpreted by the lens.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A `<Section>` block was left unclosed (Apache lens).
    UnclosedSection {
        /// The section name.
        name: String,
    },
    /// A closing tag did not match the open section (Apache lens).
    MismatchedClose {
        /// 1-based line number.
        line: usize,
        /// What was found.
        found: String,
    },
    /// A `<Section>` opened more than [`apache::MAX_SECTION_DEPTH`]
    /// sections deep (Apache lens).
    SectionTooDeep {
        /// 1-based line number of the section that opened too deep.
        line: usize,
    },
    /// No lens is registered for the requested application.
    NoLens(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadLine { line, text } => {
                write!(f, "cannot parse line {line}: `{text}`")
            }
            ParseError::UnclosedSection { name } => write!(f, "unclosed section <{name}>"),
            ParseError::MismatchedClose { line, found } => {
                write!(f, "mismatched closing tag `{found}` at line {line}")
            }
            ParseError::SectionTooDeep { line } => write!(
                f,
                "section at line {line} nests deeper than {} levels",
                apache::MAX_SECTION_DEPTH
            ),
            ParseError::NoLens(app) => write!(f, "no lens registered for `{app}`"),
        }
    }
}

impl std::error::Error for ParseError {}

/// A configuration lens: text → key–value pairs, and back.
///
/// Implementors should guarantee the round-trip property
/// `parse(render(pairs)) == pairs` for pairs they themselves produced.
pub trait Lens: Send + Sync {
    /// Lens name (for diagnostics and registry listings).
    fn name(&self) -> &str;

    /// Parse a configuration file body.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first unparseable construct.
    fn parse(&self, text: &str) -> Result<Vec<KeyValue>, ParseError>;

    /// Render key–value pairs back to configuration text.
    fn render(&self, pairs: &[KeyValue]) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_value_is_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(KeyValue::new("a", "1"));
        s.insert(KeyValue::new("a", "1"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn parse_error_display() {
        let e = ParseError::BadLine {
            line: 3,
            text: "???".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
