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
//! A lens parses into a [`Pairs`] buffer, which keeps every key and value
//! of a configuration back to back in one `String`: assembly clears and
//! refills one buffer per worker, so a parsed pair costs no allocation.
//! [`Lens::parse`] collects the pairs into [`KeyValue`]s.
//!
//! # Examples
//!
//! ```
//! use encore_parser::{IniLens, Lens, Pairs};
//!
//! let pairs = IniLens::mysql().parse("[mysqld]\ndatadir = /var/lib/mysql\n").unwrap();
//! assert_eq!(pairs[0].key, "datadir");
//! assert_eq!(pairs[0].value, "/var/lib/mysql");
//!
//! let mut buffer = Pairs::new();
//! IniLens::mysql().parse_into("[mysqld]\nport = 3306\n", &mut buffer).unwrap();
//! assert_eq!(buffer.iter().collect::<Vec<_>>(), [("port", "3306")]);
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
use std::ops::Range;

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

/// The pairs parsed out of configuration text, in file order, kept in one
/// buffer: every key and value back to back in one `String`, so a buffer
/// that is cleared and refilled allocates only when it grows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pairs {
    text: String,
    /// Per pair, where its key ends and where its value ends in `text`.  A
    /// key starts where the previous pair's value ends.
    ends: Vec<(usize, usize)>,
}

impl Pairs {
    /// An empty buffer.
    pub fn new() -> Pairs {
        Pairs::default()
    }

    /// Append one pair.
    pub fn push(&mut self, key: &str, value: &str) {
        self.text.push_str(key);
        let key_end = self.text.len();
        self.text.push_str(value);
        self.ends.push((key_end, self.text.len()));
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the buffer holds no pair.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Drop every pair, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
    }

    /// Keep the first `len` pairs.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.text.truncate(self.start(len));
            self.ends.truncate(len);
        }
    }

    /// Pair `i` as `(key, value)`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn get(&self, i: usize) -> (&str, &str) {
        let (key_end, value_end) = self.ends[i];
        (
            &self.text[self.start(i)..key_end],
            &self.text[key_end..value_end],
        )
    }

    /// The pairs as `(key, value)`, in file order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &str)> + '_ {
        self.range(0..self.len())
    }

    /// The pairs with indices in `range`, in file order.
    ///
    /// # Panics
    ///
    /// The iterator panics when `range` reaches past the last pair.
    pub fn range(&self, range: Range<usize>) -> impl ExactSizeIterator<Item = (&str, &str)> + '_ {
        range.map(move |i| self.get(i))
    }

    /// The pairs as owned [`KeyValue`]s.
    pub fn to_vec(&self) -> Vec<KeyValue> {
        self.iter().map(|(k, v)| KeyValue::new(k, v)).collect()
    }

    fn start(&self, i: usize) -> usize {
        match i {
            0 => 0,
            _ => self.ends[i - 1].1,
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

    /// Parse a configuration file body, appending its pairs to `pairs` in
    /// file order.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first unparseable construct.
    /// The pairs appended before it stay; [`LensRegistry::parse_into`]
    /// drops them.
    fn parse_into(&self, text: &str, pairs: &mut Pairs) -> Result<(), ParseError>;

    /// Parse a configuration file body into owned pairs.
    ///
    /// # Errors
    ///
    /// Same as [`Lens::parse_into`].
    fn parse(&self, text: &str) -> Result<Vec<KeyValue>, ParseError> {
        let mut pairs = Pairs::new();
        self.parse_into(text, &mut pairs)?;
        Ok(pairs.to_vec())
    }

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
    fn pairs_keep_keys_and_values_apart() {
        let mut pairs = Pairs::new();
        pairs.push("ab", "c");
        pairs.push("", "de");
        pairs.push("f", "");
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs.get(1), ("", "de"));
        assert_eq!(
            pairs.iter().collect::<Vec<_>>(),
            [("ab", "c"), ("", "de"), ("f", "")]
        );
        assert_eq!(
            pairs.range(1..3).collect::<Vec<_>>(),
            [("", "de"), ("f", "")]
        );
        assert_eq!(pairs.to_vec()[0], KeyValue::new("ab", "c"));
        pairs.truncate(1);
        pairs.push("g", "h");
        assert_eq!(pairs.iter().collect::<Vec<_>>(), [("ab", "c"), ("g", "h")]);
        let mut rebuilt = Pairs::new();
        rebuilt.push("ab", "c");
        rebuilt.push("g", "h");
        assert_eq!(pairs, rebuilt);
        pairs.clear();
        assert!(pairs.is_empty());
        assert_eq!(pairs, Pairs::new());
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
