//! Two-step type inference (§4.2): syntactic matching + semantic
//! verification, with user-defined custom types (§5.3).
//!
//! The first step makes a crude guess via the pattern table; the second step
//! validates each candidate against external resources — the file system for
//! `FilePath`, `/etc/passwd` for `UserName`, `/etc/services` for
//! `PortNumber`, the IANA tables for MIME types and charsets.  "The first
//! step prunes away most of the improbable types, making the inference
//! efficient; the second step guarantees the inference accuracy."

use crate::syntactic;
use encore_model::{ConfigValue, SemType};
use encore_sysimage::SystemImage;
use std::fmt;
use std::sync::Arc;

/// Verification function: is `value` really of this type in `image`?
pub type VerifyFn = dyn Fn(&str, &SystemImage) -> bool + Send + Sync;

/// Syntactic-match function for custom types.
pub type MatchFn = dyn Fn(&str) -> bool + Send + Sync;

/// A user-defined semantic type (§5.3.1: `$$TypeDeclaration`,
/// `$$TypeInference`, `$$TypeValidation`).
#[derive(Clone)]
pub struct CustomType {
    /// Name of the custom type, reported in place of a [`SemType`].
    pub name: String,
    /// Underlying predefined type used for template eligibility.
    pub maps_to: SemType,
    matcher: Arc<MatchFn>,
    verifier: Option<Arc<VerifyFn>>,
}

impl fmt::Debug for CustomType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CustomType")
            .field("name", &self.name)
            .field("maps_to", &self.maps_to)
            .field("has_verifier", &self.verifier.is_some())
            .finish()
    }
}

impl CustomType {
    /// Define a custom type with a syntactic matcher and an optional
    /// semantic verifier (the paper's semantic verification is optional for
    /// user types).
    pub fn new(
        name: impl Into<String>,
        maps_to: SemType,
        matcher: impl Fn(&str) -> bool + Send + Sync + 'static,
    ) -> CustomType {
        CustomType {
            name: name.into(),
            maps_to,
            matcher: Arc::new(matcher),
            verifier: None,
        }
    }

    /// Attach a semantic verifier.
    pub fn with_verifier(
        mut self,
        verifier: impl Fn(&str, &SystemImage) -> bool + Send + Sync + 'static,
    ) -> CustomType {
        self.verifier = Some(Arc::new(verifier));
        self
    }

    fn accepts(&self, value: &str, image: &SystemImage) -> bool {
        (self.matcher)(value)
            && self
                .verifier
                .as_ref()
                .map(|v| v(value, image))
                .unwrap_or(true)
    }
}

/// IANA-registered charset names we verify against (a representative subset
/// of the registry the paper cites).
const IANA_CHARSETS: [&str; 12] = [
    "UTF-8",
    "UTF-16",
    "ISO-8859-1",
    "ISO-8859-2",
    "ISO-8859-15",
    "US-ASCII",
    "EUC-JP",
    "Shift_JIS",
    "GB2312",
    "Big5",
    "KOI8-R",
    "windows-1252",
];

/// IANA top-level MIME media types.
const IANA_MIME_MAJOR: [&str; 9] = [
    "application",
    "audio",
    "font",
    "image",
    "message",
    "model",
    "multipart",
    "text",
    "video",
];

/// ISO 639-1 language codes we verify against (subset).
const ISO_639_1: [&str; 14] = [
    "aa", "de", "en", "es", "fr", "it", "ja", "ko", "nl", "pt", "ru", "sv", "zh", "el",
];

/// The type-inference engine.
#[derive(Clone, Default)]
pub struct TypeInference {
    custom: Vec<CustomType>,
}

impl fmt::Debug for TypeInference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypeInference")
            .field("custom_types", &self.custom.len())
            .finish()
    }
}

impl TypeInference {
    /// Engine with only the predefined types.
    pub fn new() -> TypeInference {
        TypeInference::default()
    }

    /// Register a custom type.  Custom types have priority over predefined
    /// ones, in registration order (§5.3.1).
    pub fn register(&mut self, custom: CustomType) {
        self.custom.push(custom);
    }

    /// Registered custom types.
    pub fn custom_types(&self) -> &[CustomType] {
        &self.custom
    }

    /// Infer the semantic type of a raw value within a system image.
    ///
    /// Custom types are tried first (in registration order); then the
    /// predefined types in [`SemType::PRIORITY`] order, each semantically
    /// verified as soon as its syntactic pattern matches, and the first
    /// survivor wins — the first [`syntactic::candidates`] entry that
    /// verifies, without building the list.  Values failing every
    /// verification fall back to `Str` (or `Number` when numeric) — the
    /// "trivial" types of §7.2.
    pub fn infer(&self, value: &str, image: &SystemImage) -> SemType {
        let (ty, custom) = self.resolve(value.trim(), image);
        if custom {
            crate::obs::TYPES_CUSTOM.incr();
        } else {
            count_winner(ty);
        }
        ty
    }

    /// [`TypeInference::infer`] without counting the verdict in
    /// `assemble.types.*`, which counts assembly's typing only: for
    /// detection, which re-types target cells whose render is not the text
    /// assembly typed.
    pub fn infer_uncounted(&self, value: &str, image: &SystemImage) -> SemType {
        self.resolve(value.trim(), image).0
    }

    /// The type of the trimmed value `v`, and whether a custom type gave it.
    fn resolve(&self, v: &str, image: &SystemImage) -> (SemType, bool) {
        if let Some(c) = self.custom.iter().find(|c| c.accepts(v, image)) {
            return (c.maps_to, true);
        }
        let candidates = SemType::PRIORITY
            .into_iter()
            .filter(|&ty| syntactic::matches(ty, v));
        (self.first_verified(candidates, v, image), false)
    }

    /// [`TypeInference::infer`] of a value whose syntactic candidates
    /// (§4.2 step one, [`syntactic::candidates`]) are already known, as a
    /// training worker's memo keeps them: only their verification (step
    /// two) reads `image`.  Custom types' matchers are user closures, so
    /// while any is registered this is [`TypeInference::infer`].
    pub fn infer_among(&self, candidates: &[SemType], value: &str, image: &SystemImage) -> SemType {
        if !self.custom.is_empty() {
            return self.infer(value, image);
        }
        let ty = self.first_verified(candidates.iter().copied(), value.trim(), image);
        count_winner(ty);
        ty
    }

    /// The first of `candidates` that verifies against `image` (`Str`
    /// when none does).
    fn first_verified(
        &self,
        candidates: impl IntoIterator<Item = SemType>,
        v: &str,
        image: &SystemImage,
    ) -> SemType {
        candidates
            .into_iter()
            .find(|&ty| self.verify(ty, v, image))
            .unwrap_or(SemType::Str)
    }

    /// Like [`TypeInference::infer`] but reports the custom-type name when a
    /// custom type matched.
    pub fn infer_named(&self, value: &str, image: &SystemImage) -> (SemType, Option<&str>) {
        let v = value.trim();
        for c in &self.custom {
            if c.accepts(v, image) {
                crate::obs::TYPES_CUSTOM.incr();
                return (c.maps_to, Some(c.name.as_str()));
            }
        }
        (self.infer(v, image), None)
    }

    /// Semantic verification of one candidate type (§4.2 step two).
    pub fn verify(&self, ty: SemType, value: &str, image: &SystemImage) -> bool {
        match ty {
            // File-system backed types: the path/name must exist.
            SemType::FilePath => image.vfs().exists(value),
            SemType::PartialFilePath => {
                // Verified when some known file ends with the fragment —
                // a cheap full-metadata search like the paper describes.
                image
                    .vfs()
                    .file_list()
                    .any(|p| p.ends_with(value) || p.ends_with(value.trim_end_matches('/')))
            }
            SemType::FileName => image.vfs().file_list().any(|p| {
                p.strip_suffix(value)
                    .is_some_and(|parent| parent.ends_with('/'))
            }),
            // Account-backed types.
            SemType::UserName => image.accounts().user(value).is_some(),
            SemType::GroupName => image.accounts().group(value).is_some(),
            // Service-backed type: verified against /etc/services.
            SemType::PortNumber => value
                .parse::<u16>()
                .map(|p| image.services().knows_port(p))
                .unwrap_or(false),
            // Table-backed types.
            SemType::MimeType => value
                .split_once('/')
                .map(|(major, _)| IANA_MIME_MAJOR.contains(&major))
                .unwrap_or(false),
            SemType::Charset => IANA_CHARSETS.iter().any(|c| c.eq_ignore_ascii_case(value)),
            SemType::Language => ISO_639_1.iter().any(|c| c.eq_ignore_ascii_case(value)),
            // Purely syntactic types need no external verification (N/A in
            // Table 4); future variants default to accepting.
            _ => true,
        }
    }
}

/// Count a predefined type's win by what won: a trivial type (`Str` or
/// `Number`, Table 11's split), or a nontrivial one with or without
/// semantic verification.
fn count_winner(ty: SemType) {
    let counter = if ty.is_trivial() {
        &crate::obs::TYPES_TRIVIAL
    } else if needs_semantic_verification(ty) {
        &crate::obs::TYPES_SEMANTIC
    } else {
        &crate::obs::TYPES_SYNTACTIC
    };
    counter.incr();
}

/// Whether winning as this type required step-two semantic verification
/// against the environment (the `N/A` column of Table 4 marks the types
/// that do not).  Mirrors the arms of [`TypeInference::verify`].
fn needs_semantic_verification(ty: SemType) -> bool {
    matches!(
        ty,
        SemType::FilePath
            | SemType::PartialFilePath
            | SemType::FileName
            | SemType::UserName
            | SemType::GroupName
            | SemType::PortNumber
            | SemType::MimeType
            | SemType::Charset
            | SemType::Language
    )
}

/// Coerce a raw string into a typed [`ConfigValue`] according to the
/// inferred type.
pub fn coerce(value: &str, ty: SemType) -> ConfigValue {
    let v = value.trim();
    match ty {
        SemType::FilePath | SemType::PartialFilePath => ConfigValue::path(v),
        SemType::Number => v
            .parse::<f64>()
            .map(ConfigValue::Number)
            .unwrap_or_else(|_| ConfigValue::str(v)),
        SemType::PortNumber => v
            .parse::<f64>()
            .map(ConfigValue::Number)
            .unwrap_or_else(|_| ConfigValue::str(v)),
        SemType::Size => ConfigValue::parse_size(v).unwrap_or_else(|_| ConfigValue::str(v)),
        SemType::Boolean => ConfigValue::parse_bool(v).unwrap_or_else(|_| ConfigValue::str(v)),
        SemType::IpAddress => ConfigValue::parse_ip(v).unwrap_or_else(|_| ConfigValue::str(v)),
        _ => ConfigValue::str(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> SystemImage {
        SystemImage::builder("t")
            .user("mysql", 27, &["mysql"])
            .dir("/var/lib/mysql", "mysql", "mysql", 0o700)
            .file("/usr/lib/php/pdo.so", "root", "root", 0o644, "")
            .service("mysql", 3306)
            .build()
    }

    #[test]
    fn file_path_requires_existence() {
        let inf = TypeInference::new();
        let img = image();
        assert_eq!(inf.infer("/var/lib/mysql", &img), SemType::FilePath);
        // Looks like a path but does not exist → falls through to Str.
        assert_eq!(inf.infer("/no/such/dir", &img), SemType::Str);
    }

    #[test]
    fn username_requires_passwd_entry() {
        let inf = TypeInference::new();
        let img = image();
        assert_eq!(inf.infer("mysql", &img), SemType::UserName);
        assert_eq!(inf.infer("nonuser", &img), SemType::Str);
    }

    #[test]
    fn port_requires_services_entry() {
        let inf = TypeInference::new();
        let img = image();
        assert_eq!(inf.infer("3306", &img), SemType::PortNumber);
        // Unregistered port number degrades to plain Number.
        assert_eq!(inf.infer("12345", &img), SemType::Number);
    }

    #[test]
    fn purely_syntactic_types() {
        let inf = TypeInference::new();
        let img = image();
        assert_eq!(inf.infer("64M", &img), SemType::Size);
        assert_eq!(inf.infer("On", &img), SemType::Boolean);
        assert_eq!(inf.infer("10.0.1.1", &img), SemType::IpAddress);
        assert_eq!(inf.infer("http://example.com", &img), SemType::Url);
        assert_eq!(inf.infer("text/html", &img), SemType::MimeType);
        assert_eq!(inf.infer("UTF-8", &img), SemType::Charset);
    }

    #[test]
    fn partial_path_verified_against_tree() {
        let inf = TypeInference::new();
        let img = image();
        assert_eq!(inf.infer("php/pdo.so", &img), SemType::PartialFilePath);
        assert_eq!(inf.infer("nothing/here.so", &img), SemType::Str);
    }

    #[test]
    fn custom_types_take_priority() {
        let mut inf = TypeInference::new();
        inf.register(CustomType::new("Percentage", SemType::Number, |v| {
            v.ends_with('%') && v[..v.len() - 1].chars().all(|c| c.is_ascii_digit())
        }));
        let img = image();
        let (ty, name) = inf.infer_named("75%", &img);
        assert_eq!(ty, SemType::Number);
        assert_eq!(name, Some("Percentage"));
        // Non-matching values fall through to predefined inference.
        assert_eq!(inf.infer("64M", &img), SemType::Size);
    }

    #[test]
    fn custom_verifier_consults_image() {
        let mut inf = TypeInference::new();
        inf.register(
            CustomType::new("ExistingUser", SemType::UserName, |v| {
                v.chars().all(char::is_alphanumeric)
            })
            .with_verifier(|v, img| img.accounts().user(v).is_some()),
        );
        let img = image();
        assert_eq!(inf.infer_named("mysql", &img).1, Some("ExistingUser"));
        assert_eq!(inf.infer_named("ghost", &img).1, None);
    }

    #[test]
    fn coerce_respects_type() {
        assert_eq!(coerce("42", SemType::Number), ConfigValue::number(42.0));
        assert_eq!(coerce("64M", SemType::Size).as_bytes(), Some(64 << 20));
        assert_eq!(coerce("Off", SemType::Boolean), ConfigValue::boolean(false));
        assert_eq!(coerce("/x", SemType::FilePath), ConfigValue::path("/x"));
    }
}
