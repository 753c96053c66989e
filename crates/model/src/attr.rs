//! Attribute names.
//!
//! After data assembly the paper treats original configuration entries and
//! augmented environment attributes uniformly ("attribute", §3).  An
//! [`AttrName`] is the fully-qualified column name: a base entry plus an
//! optional augmentation suffix, rendered as `entry.suffix` (Table 5a) —
//! e.g. `datadir.owner` — or a free-standing environment attribute such as
//! `Sys.HostName` (Table 5b).

use crate::error::ModelError;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// How an attribute was derived from the raw data.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Augmentation {
    /// The original configuration entry value.
    Original,
    /// An environment property attached to a typed entry (Table 5a),
    /// identified by its suffix (`owner`, `group`, `type`, ...).
    EnvProperty,
    /// Entry-independent environment data (Table 5b: `Sys.*`, `OS.*`, `HW.*`).
    SystemWide,
}

/// Fully-qualified attribute name.
///
/// The base name is shared: [`AttrName::augmented`] and `clone()` bump a
/// reference count instead of copying it, and the Table 5a suffixes are
/// `'static` literals, so the ~80 augmented cells of an assembled row
/// allocate no names.  Equality, ordering and hashing compare base,
/// suffix and augmentation in that order, as `str`s, exactly as the derived
/// impls over owned `String`s did.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AttrName {
    base: Arc<str>,
    suffix: Option<Cow<'static, str>>,
    augmentation: Augmentation,
}

impl AttrName {
    /// An original configuration entry (e.g. `datadir`).
    ///
    /// # Panics
    ///
    /// Panics if `base` is empty; use [`AttrName::try_entry`] for fallible
    /// construction from untrusted input.
    pub fn entry(base: impl AsRef<str>) -> AttrName {
        AttrName::try_entry(base).expect("attribute base name must be non-empty")
    }

    /// Fallible constructor for an original entry name.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidAttrName`] when the name is empty or
    /// contains control characters.
    pub fn try_entry(base: impl AsRef<str>) -> Result<AttrName, ModelError> {
        let base = base.as_ref();
        if base.is_empty() || base.chars().any(|c| c.is_control()) {
            return Err(ModelError::InvalidAttrName(base.to_string()));
        }
        Ok(AttrName {
            base: Arc::from(base),
            suffix: None,
            augmentation: Augmentation::Original,
        })
    }

    /// An augmented environment property of `self` (e.g. `datadir` →
    /// `datadir.owner`).  Shares `self`'s base name; a `'static` suffix is
    /// not copied either.
    pub fn augmented(&self, suffix: impl Into<Cow<'static, str>>) -> AttrName {
        AttrName {
            base: Arc::clone(&self.base),
            suffix: Some(suffix.into()),
            augmentation: Augmentation::EnvProperty,
        }
    }

    /// The same kind of attribute, with the same suffix, on another base
    /// name: `datadir.owner` with base `mysql:datadir` is
    /// `mysql:datadir.owner`.  The suffix is shared, not copied.
    pub fn with_base(&self, base: impl AsRef<str>) -> AttrName {
        AttrName {
            base: Arc::from(base.as_ref()),
            suffix: self.suffix.clone(),
            augmentation: self.augmentation,
        }
    }

    /// A system-wide environment attribute (e.g. `Sys.HostName`).
    pub fn system(name: impl AsRef<str>) -> AttrName {
        AttrName {
            base: Arc::from(name.as_ref()),
            suffix: None,
            augmentation: Augmentation::SystemWide,
        }
    }

    /// The base entry name (without any augmentation suffix).
    #[inline]
    pub fn base(&self) -> &str {
        &self.base
    }

    /// The shared base name itself, for a map that keys by it without a
    /// copy.
    pub fn shared_base(&self) -> &Arc<str> {
        &self.base
    }

    /// The augmentation suffix, if any.
    #[inline]
    pub fn suffix(&self) -> Option<&str> {
        self.suffix.as_deref()
    }

    /// How this attribute was derived.
    pub fn augmentation(&self) -> Augmentation {
        self.augmentation
    }

    /// Whether this is an original configuration entry.
    pub fn is_original(&self) -> bool {
        self.augmentation == Augmentation::Original
    }

    /// Whether this attribute came from the environment (either kind).
    pub fn is_environmental(&self) -> bool {
        !self.is_original()
    }

    /// Render an unambiguous tagged form for persistence.
    ///
    /// The human-readable [`fmt::Display`] form is lossy: an original entry
    /// whose name contains a dot (php's `session.use_cookies`) renders
    /// identically to an augmented property.  The tagged form prefixes the
    /// augmentation kind so [`AttrName::parse_tagged`] is an exact inverse:
    /// `O:session.use_cookies`, `E:datadir:owner`, `S:Sys.HostName`.
    /// Suffixes never contain `:` (they are the fixed Table 5a tokens), so
    /// the encoding splits on the *last* colon.
    pub fn render_tagged(&self) -> String {
        let mut out = String::new();
        self.write_tagged(&mut out);
        out
    }

    /// Append the [`AttrName::render_tagged`] form to `out`, so a snapshot
    /// writes every line into one buffer.
    pub fn write_tagged(&self, out: &mut String) {
        let tag = match self.augmentation {
            Augmentation::Original => "O:",
            Augmentation::EnvProperty => "E:",
            Augmentation::SystemWide => "S:",
        };
        out.push_str(tag);
        out.push_str(&self.base);
        if self.augmentation == Augmentation::EnvProperty {
            out.push(':');
            out.push_str(self.suffix().unwrap_or_default());
        }
    }

    /// Parse the tagged form produced by [`AttrName::render_tagged`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidAttrName`] for an unknown tag, a missing
    /// suffix on an `E:` attribute, or an invalid base name.
    pub fn parse_tagged(text: &str) -> Result<AttrName, ModelError> {
        let err = || ModelError::InvalidAttrName(text.to_string());
        let (tag, rest) = text.split_once(':').ok_or_else(err)?;
        match tag {
            "O" => AttrName::try_entry(rest),
            "E" => {
                let (base, suffix) = rest.rsplit_once(':').ok_or_else(err)?;
                if suffix.is_empty() {
                    return Err(err());
                }
                Ok(AttrName::try_entry(base)?.augmented(suffix.to_string()))
            }
            "S" => {
                if rest.is_empty() {
                    return Err(err());
                }
                Ok(AttrName::system(rest))
            }
            _ => Err(err()),
        }
    }
}

// `#[inline]`: every map keyed by attribute calls these from other crates,
// and an out-of-line call per comparison slows snapshot loads measurably.
impl PartialEq for AttrName {
    #[inline]
    fn eq(&self, other: &AttrName) -> bool {
        self.base() == other.base()
            && self.suffix() == other.suffix()
            && self.augmentation == other.augmentation
    }
}

impl Eq for AttrName {}

impl PartialOrd for AttrName {
    #[inline]
    fn partial_cmp(&self, other: &AttrName) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AttrName {
    #[inline]
    fn cmp(&self, other: &AttrName) -> Ordering {
        self.base()
            .cmp(other.base())
            .then_with(|| self.suffix().cmp(&other.suffix()))
            .then_with(|| self.augmentation.cmp(&other.augmentation))
    }
}

impl Hash for AttrName {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.base().hash(state);
        self.suffix().hash(state);
        self.augmentation.hash(state);
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.suffix {
            Some(s) => write!(f, "{}.{}", self.base, s),
            None => f.write_str(&self.base),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn augmented_names_render_with_dot() {
        let a = AttrName::entry("datadir").augmented("owner");
        assert_eq!(a.to_string(), "datadir.owner");
        assert_eq!(a.base(), "datadir");
        assert_eq!(a.suffix(), Some("owner"));
        assert!(a.is_environmental());
    }

    #[test]
    fn empty_names_rejected() {
        assert!(AttrName::try_entry("").is_err());
    }

    #[test]
    fn tagged_form_round_trips_dotted_entries() {
        // `Display` is ambiguous for these; the tagged form must not be.
        let cases = [
            AttrName::entry("session.use_cookies"),
            AttrName::entry("datadir"),
            AttrName::entry("datadir").augmented("owner"),
            AttrName::entry("session.save_path").augmented("type"),
            AttrName::system("Sys.HostName"),
            AttrName::system("MemSize"),
        ];
        for attr in &cases {
            let back = AttrName::parse_tagged(&attr.render_tagged()).unwrap();
            assert_eq!(&back, attr, "{}", attr.render_tagged());
        }
        // The display form cannot tell the dotted original from an
        // augmented property — exactly why the tagged form exists.
        let split = AttrName::entry("session").augmented("use_cookies");
        assert_eq!(cases[0].to_string(), split.to_string());
        assert_ne!(cases[0].render_tagged(), split.render_tagged());
    }

    #[test]
    fn tagged_form_rejects_malformed_input() {
        assert!(AttrName::parse_tagged("session.use_cookies").is_err());
        assert!(AttrName::parse_tagged("X:whatever").is_err());
        assert!(AttrName::parse_tagged("E:no_suffix").is_err());
        assert!(AttrName::parse_tagged("E:base:").is_err());
        assert!(AttrName::parse_tagged("O:").is_err());
        assert!(AttrName::parse_tagged("S:").is_err());
    }

    /// The owned layout `AttrName` had before its base became shared:
    /// derived comparisons over `(base, suffix, augmentation)`.
    type Reference = (String, Option<String>, Augmentation);

    fn build(base: &str, suffix: &str, kind: u8) -> (AttrName, Reference) {
        match kind {
            0 => (
                AttrName::entry(base),
                (base.to_string(), None, Augmentation::Original),
            ),
            1 => (
                AttrName::entry(base).augmented(suffix.to_string()),
                (
                    base.to_string(),
                    Some(suffix.to_string()),
                    Augmentation::EnvProperty,
                ),
            ),
            _ => (
                AttrName::system(base),
                (base.to_string(), None, Augmentation::SystemWide),
            ),
        }
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// Compare two names and their references every way a map can.
    fn assert_agree((a, ra): &(AttrName, Reference), (b, rb): &(AttrName, Reference)) {
        assert_eq!(a == b, ra == rb, "{ra:?} == {rb:?}");
        assert_eq!(a.cmp(b), ra.cmp(rb), "{ra:?} cmp {rb:?}");
        assert_eq!(
            a.partial_cmp(b),
            ra.partial_cmp(rb),
            "{ra:?} partial_cmp {rb:?}"
        );
        assert_eq!(hash_of(a), hash_of(ra), "hash of {ra:?}");
    }

    #[test]
    fn a_dotted_entry_differs_from_the_augmented_split() {
        let dotted = build("session.use_cookies", "", 0);
        let split = build("session", "use_cookies", 1);
        assert_eq!(dotted.0.to_string(), split.0.to_string());
        assert_agree(&dotted, &split);
        assert_ne!(dotted.0, split.0);
        // A shared base still compares by its text.
        let owner = split.0.augmented("owner");
        assert_agree(
            &(
                owner.clone(),
                (
                    "session".into(),
                    Some("owner".into()),
                    Augmentation::EnvProperty,
                ),
            ),
            &split,
        );
        assert_eq!(owner, AttrName::entry("session").augmented("owner"));
    }

    proptest::proptest! {
        /// Eq, Ord and Hash agree with the owned-string reference, so map
        /// orders, interned ids and renderings cannot move.
        #[test]
        fn comparisons_agree_with_the_owned_reference(
            bases in proptest::collection::vec(proptest::sample::select(vec![
                "session", "session.use_cookies", "session.save_path", "datadir", "a", "a.b", "Sys.HostName",
            ]), 2..3),
            suffixes in proptest::collection::vec(proptest::sample::select(vec![
                "use_cookies", "owner", "b", "save_path", "type",
            ]), 2..3),
            kinds in proptest::collection::vec(0u8..3, 2..3),
        ) {
            let a = build(bases[0], suffixes[0], kinds[0]);
            let b = build(bases[1], suffixes[1], kinds[1]);
            assert_agree(&a, &b);
            assert_agree(&b, &a);
            assert_agree(&a, &a.clone());
        }
    }

    #[test]
    fn original_entries_have_no_suffix() {
        let a = AttrName::entry("user");
        assert!(a.is_original());
        assert_eq!(a.suffix(), None);
        assert_eq!(a.to_string(), "user");
    }
}
