//! Configuration values.
//!
//! A [`ConfigValue`] is the parsed form of one configuration setting or one
//! augmented environment attribute.  Values keep both a normalised typed view
//! (used by relation validators) and their raw textual form (used by the
//! value-comparison baselines and by reporting).

use crate::error::ModelError;
use std::borrow::Cow;
use std::fmt;

/// Unit suffix of a [`ConfigValue::Size`] value.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum SizeUnit {
    /// Bytes (no suffix).
    B,
    /// Kibibytes (`K`).
    K,
    /// Mebibytes (`M`).
    M,
    /// Gibibytes (`G`).
    G,
    /// Tebibytes (`T`).
    T,
}

impl SizeUnit {
    /// Multiplier to bytes.
    pub fn multiplier(self) -> u64 {
        match self {
            SizeUnit::B => 1,
            SizeUnit::K => 1 << 10,
            SizeUnit::M => 1 << 20,
            SizeUnit::G => 1 << 30,
            SizeUnit::T => 1 << 40,
        }
    }

    /// Parse a single-letter suffix.
    pub fn from_suffix(c: char) -> Option<SizeUnit> {
        match c.to_ascii_uppercase() {
            'K' => Some(SizeUnit::K),
            'M' => Some(SizeUnit::M),
            'G' => Some(SizeUnit::G),
            'T' => Some(SizeUnit::T),
            _ => None,
        }
    }

    /// Canonical suffix letter (empty for bytes).
    pub fn suffix(self) -> &'static str {
        match self {
            SizeUnit::B => "",
            SizeUnit::K => "K",
            SizeUnit::M => "M",
            SizeUnit::G => "G",
            SizeUnit::T => "T",
        }
    }
}

/// A parsed configuration (or augmented-attribute) value.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
#[non_exhaustive]
pub enum ConfigValue {
    /// Free-form string (also the raw form of every other variant).
    Str(String),
    /// Numeric value (integers and decimals).
    Number(f64),
    /// Byte size with original magnitude and unit.
    Size {
        /// Magnitude in the original unit.
        magnitude: u64,
        /// The unit suffix.
        unit: SizeUnit,
    },
    /// Boolean.
    Bool(bool),
    /// Absolute or partial file-system path.
    Path(String),
    /// IP address, stored textually with an `is_v6` flag.
    Ip {
        /// Original textual address.
        text: String,
        /// Whether the address is IPv6.
        v6: bool,
    },
    /// A value that was absent in a given system (sparse dataset cell).
    Absent,
}

impl ConfigValue {
    /// Construct a string value.
    pub fn str(s: impl Into<String>) -> ConfigValue {
        ConfigValue::Str(s.into())
    }

    /// Construct a path value.
    pub fn path(p: impl Into<String>) -> ConfigValue {
        ConfigValue::Path(p.into())
    }

    /// Construct a numeric value.
    pub fn number(n: f64) -> ConfigValue {
        ConfigValue::Number(n)
    }

    /// Construct a boolean value.
    pub fn boolean(b: bool) -> ConfigValue {
        ConfigValue::Bool(b)
    }

    /// Construct a size value.
    pub fn size(magnitude: u64, unit: SizeUnit) -> ConfigValue {
        ConfigValue::Size { magnitude, unit }
    }

    /// Parse an IP literal, classifying v4 vs v6.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ParseValue`] if the input is neither a dotted
    /// IPv4 quad nor a coloned IPv6 literal.
    pub fn parse_ip(text: &str) -> Result<ConfigValue, ModelError> {
        let t = text.trim();
        match ConfigValue::classify_ip(t) {
            Some(v6) => Ok(ConfigValue::Ip {
                text: t.to_string(),
                v6,
            }),
            None => Err(ModelError::ParseValue {
                expected: "IP address",
                input: text.to_string(),
            }),
        }
    }

    /// Classify an IP literal without allocating: `Some(v6)` when the
    /// trimmed `text` is something [`ConfigValue::parse_ip`] accepts,
    /// `None` otherwise.
    pub fn classify_ip(text: &str) -> Option<bool> {
        let t = text.trim();
        let v4 = t.split('.').count() == 4
            && t.split('.').all(|o| {
                !o.is_empty()
                    && o.chars().all(|c| c.is_ascii_digit())
                    && o.parse::<u16>().map(|v| v < 256).unwrap_or(false)
            });
        let v6 = t.contains(':') && t.chars().all(|c| c.is_ascii_hexdigit() || c == ':');
        (v4 || v6).then_some(v6)
    }

    /// Parse a size literal such as `64M` or `1024`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ParseValue`] if the magnitude is not numeric or
    /// the suffix is not one of `K`, `M`, `G`, `T`.
    pub fn parse_size(text: &str) -> Result<ConfigValue, ModelError> {
        let t = text.trim();
        let err = || ModelError::ParseValue {
            expected: "size",
            input: text.to_string(),
        };
        if t.is_empty() {
            return Err(err());
        }
        let last = t.chars().last().expect("non-empty");
        let (digits, unit) = if last.is_ascii_digit() {
            (t, SizeUnit::B)
        } else {
            let unit = SizeUnit::from_suffix(last).ok_or_else(err)?;
            (&t[..t.len() - 1], unit)
        };
        let magnitude: u64 = digits.parse().map_err(|_| err())?;
        Ok(ConfigValue::Size { magnitude, unit })
    }

    /// Parse a boolean in any of the forms configuration files use.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ParseValue`] for anything outside the accepted
    /// literal set.
    pub fn parse_bool(text: &str) -> Result<ConfigValue, ModelError> {
        match text.trim().to_ascii_lowercase().as_str() {
            "on" | "yes" | "true" | "1" => Ok(ConfigValue::Bool(true)),
            "off" | "no" | "false" | "0" => Ok(ConfigValue::Bool(false)),
            _ => Err(ModelError::ParseValue {
                expected: "boolean",
                input: text.to_string(),
            }),
        }
    }

    /// The value in bytes if this is a `Size` of at most `u64::MAX` bytes,
    /// the plain number if `Number`.
    pub fn as_bytes(&self) -> Option<u64> {
        match self {
            ConfigValue::Size { magnitude, unit } => magnitude.checked_mul(unit.multiplier()),
            ConfigValue::Number(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Numeric view (sizes convert to bytes).  A size is multiplied out in
    /// `f64`, so one past `u64::MAX` bytes still compares as the larger;
    /// the multipliers are powers of two, so the product is the nearest
    /// `f64` to the exact byte count.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            ConfigValue::Number(n) => Some(*n),
            ConfigValue::Size { magnitude, unit } => {
                Some(*magnitude as f64 * unit.multiplier() as f64)
            }
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ConfigValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view of the underlying text, if the variant carries text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ConfigValue::Str(s) => Some(s),
            ConfigValue::Path(p) => Some(p),
            ConfigValue::Ip { text, .. } => Some(text),
            _ => None,
        }
    }

    /// Whether this cell is [`ConfigValue::Absent`].
    pub fn is_absent(&self) -> bool {
        matches!(self, ConfigValue::Absent)
    }

    /// Render an unambiguous *tagged* form for persistence and interning.
    ///
    /// [`ConfigValue::render`] is lossy across variants: `Str("10")`,
    /// `Number(10.0)`, and `Size(10B)` all render `"10"`.  The tagged form
    /// prefixes the variant (mirroring [`crate::attr::AttrName::render_tagged`])
    /// so [`ConfigValue::parse_tagged`] is an exact inverse:
    /// `s:text`, `n:10`, `z:64M`, `b:1`, `p:/var/lib`, `i4:10.0.0.1`,
    /// `i6:fe80::1`, `a:`.  Numbers use `f64`'s shortest round-trip
    /// rendering, so no precision is lost.
    pub fn render_tagged(&self) -> String {
        let mut out = String::new();
        self.write_tagged(&mut out);
        out
    }

    /// Append the [`ConfigValue::render_tagged`] form to `out`, so interning
    /// can key every cell through one reused buffer.
    pub fn write_tagged(&self, out: &mut String) {
        use fmt::Write as _;
        // Only the numeric variants go through the formatter; writing
        // into a `String` cannot fail.
        let (tag, text) = match self {
            ConfigValue::Str(s) => ("s:", s.as_str()),
            ConfigValue::Path(p) => ("p:", p.as_str()),
            ConfigValue::Ip { text, v6: false } => ("i4:", text.as_str()),
            ConfigValue::Ip { text, v6: true } => ("i6:", text.as_str()),
            ConfigValue::Bool(b) => ("b:", if *b { "1" } else { "0" }),
            ConfigValue::Absent => ("a:", ""),
            ConfigValue::Number(n) => {
                let _ = write!(out, "n:{n}");
                return;
            }
            ConfigValue::Size { magnitude, unit } => {
                let _ = write!(out, "z:{magnitude}{}", unit.suffix());
                return;
            }
        };
        out.push_str(tag);
        out.push_str(text);
    }

    /// Parse the tagged form produced by [`ConfigValue::render_tagged`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ParseValue`] for an unknown tag or a malformed
    /// payload (non-numeric `n:`, bad size magnitude/suffix, a `b:` payload
    /// other than `0`/`1`, or a non-empty `a:` payload).
    pub fn parse_tagged(text: &str) -> Result<ConfigValue, ModelError> {
        let err = || ModelError::ParseValue {
            expected: "tagged value",
            input: text.to_string(),
        };
        let (tag, rest) = text.split_once(':').ok_or_else(err)?;
        match tag {
            "s" => Ok(ConfigValue::Str(rest.to_string())),
            "n" => rest
                .parse::<f64>()
                .map(ConfigValue::Number)
                .map_err(|_| err()),
            "z" => ConfigValue::parse_size(rest).map_err(|_| err()),
            "b" => match rest {
                "1" => Ok(ConfigValue::Bool(true)),
                "0" => Ok(ConfigValue::Bool(false)),
                _ => Err(err()),
            },
            "p" => Ok(ConfigValue::Path(rest.to_string())),
            "i4" => Ok(ConfigValue::Ip {
                text: rest.to_string(),
                v6: false,
            }),
            "i6" => Ok(ConfigValue::Ip {
                text: rest.to_string(),
                v6: true,
            }),
            "a" if rest.is_empty() => Ok(ConfigValue::Absent),
            _ => Err(err()),
        }
    }

    /// Canonical textual rendering used for value-equality comparison by the
    /// baselines and for CSV export.
    pub fn render(&self) -> String {
        self.rendered().into_owned()
    }

    /// The [`ConfigValue::render`] text, borrowed wherever the value holds
    /// it: the text variants lend their string and `Bool`/`Absent` a
    /// literal, so only `Number` and `Size` format a new one.
    pub fn rendered(&self) -> Cow<'_, str> {
        match self {
            ConfigValue::Str(s) | ConfigValue::Path(s) | ConfigValue::Ip { text: s, .. } => {
                Cow::Borrowed(s)
            }
            ConfigValue::Number(n) => Cow::Owned(if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }),
            ConfigValue::Size { magnitude, unit } => {
                Cow::Owned(format!("{magnitude}{}", unit.suffix()))
            }
            ConfigValue::Bool(b) => Cow::Borrowed(if *b { "On" } else { "Off" }),
            ConfigValue::Absent => Cow::Borrowed(""),
        }
    }
}

impl fmt::Display for ConfigValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.rendered())
    }
}

impl From<&str> for ConfigValue {
    fn from(s: &str) -> Self {
        ConfigValue::Str(s.to_string())
    }
}

impl From<String> for ConfigValue {
    fn from(s: String) -> Self {
        ConfigValue::Str(s)
    }
}

impl From<f64> for ConfigValue {
    fn from(n: f64) -> Self {
        ConfigValue::Number(n)
    }
}

impl From<bool> for ConfigValue {
    fn from(b: bool) -> Self {
        ConfigValue::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_parsing_and_bytes() {
        let v = ConfigValue::parse_size("64M").expect("parse");
        assert_eq!(v.as_bytes(), Some(64 << 20));
        assert_eq!(v.render(), "64M");
        let plain = ConfigValue::parse_size("2048").expect("parse");
        assert_eq!(plain.as_bytes(), Some(2048));
    }

    #[test]
    fn size_rejects_garbage() {
        assert!(ConfigValue::parse_size("").is_err());
        assert!(ConfigValue::parse_size("12Q").is_err());
        assert!(ConfigValue::parse_size("M").is_err());
    }

    #[test]
    fn bool_accepts_all_config_spellings() {
        for t in ["On", "yes", "TRUE", "1"] {
            assert_eq!(ConfigValue::parse_bool(t).unwrap().as_bool(), Some(true));
        }
        for t in ["Off", "no", "false", "0"] {
            assert_eq!(ConfigValue::parse_bool(t).unwrap().as_bool(), Some(false));
        }
        assert!(ConfigValue::parse_bool("maybe").is_err());
    }

    #[test]
    fn ip_classification() {
        match ConfigValue::parse_ip("10.0.1.1").unwrap() {
            ConfigValue::Ip { v6, .. } => assert!(!v6),
            other => panic!("unexpected {other:?}"),
        }
        match ConfigValue::parse_ip("fe80::1").unwrap() {
            ConfigValue::Ip { v6, .. } => assert!(v6),
            other => panic!("unexpected {other:?}"),
        }
        assert!(ConfigValue::parse_ip("300.1.1.1").is_err());
        assert!(ConfigValue::parse_ip("not-an-ip").is_err());
    }

    #[test]
    fn render_round_trips_for_display() {
        let v = ConfigValue::number(42.0);
        assert_eq!(v.to_string(), "42");
        let v = ConfigValue::boolean(true);
        assert_eq!(v.to_string(), "On");
    }

    #[test]
    fn rendered_borrows_all_but_numbers_and_sizes() {
        let cases = [
            (ConfigValue::str("mysql"), "mysql", true),
            (ConfigValue::path("/var/lib/mysql"), "/var/lib/mysql", true),
            (ConfigValue::parse_ip("fe80::1").unwrap(), "fe80::1", true),
            (ConfigValue::boolean(false), "Off", true),
            (ConfigValue::Absent, "", true),
            (ConfigValue::number(3306.0), "3306", false),
            (ConfigValue::number(0.5), "0.5", false),
            (ConfigValue::number(1e15), "1000000000000000", false),
            (ConfigValue::size(16, SizeUnit::M), "16M", false),
        ];
        for (value, text, borrowed) in &cases {
            let rendered = value.rendered();
            assert_eq!(rendered, *text, "{value:?}");
            assert_eq!(matches!(rendered, Cow::Borrowed(_)), *borrowed, "{value:?}");
            assert_eq!(value.render(), *text);
            assert_eq!(value.to_string(), *text);
        }
    }

    #[test]
    fn number_view_of_sizes_is_bytes() {
        let v = ConfigValue::parse_size("1K").unwrap();
        assert_eq!(v.as_number(), Some(1024.0));
    }

    #[test]
    fn sizes_past_u64_bytes_do_not_wrap() {
        // 16777215T is 2^64 - 2^40 bytes; 16777216T is 2^64, one past
        // `u64::MAX`, which a wrapping product would read as 0.
        let largest = ConfigValue::parse_size("16777215T").unwrap();
        assert_eq!(largest.as_bytes(), Some(u64::MAX - ((1 << 40) - 1)));
        assert_eq!(largest.as_number(), Some(18_446_742_974_197_923_840.0));
        let past = ConfigValue::parse_size("16777216T").unwrap();
        assert_eq!(past.as_bytes(), None);
        assert_eq!(past.as_number(), Some(18_446_744_073_709_551_616.0));
        let huge = ConfigValue::size(u64::MAX, SizeUnit::T);
        assert_eq!(huge.as_bytes(), None);
        assert!(huge.as_number().unwrap() > past.as_number().unwrap());
    }

    #[test]
    fn tagged_form_round_trips_every_variant() {
        let cases = [
            ConfigValue::str("mysql"),
            ConfigValue::str(""),
            ConfigValue::str("10"), // renders like Number(10.0) untagged
            ConfigValue::number(10.0),
            ConfigValue::number(0.1),
            ConfigValue::number(-3.5e300),
            ConfigValue::size(64, SizeUnit::M),
            ConfigValue::size(2048, SizeUnit::B),
            ConfigValue::boolean(true),
            ConfigValue::boolean(false),
            ConfigValue::path("/var/lib/mysql"),
            ConfigValue::parse_ip("10.0.1.1").unwrap(),
            ConfigValue::parse_ip("fe80::1").unwrap(),
            ConfigValue::Absent,
        ];
        for v in &cases {
            let back = ConfigValue::parse_tagged(&v.render_tagged()).unwrap();
            assert_eq!(&back, v, "{}", v.render_tagged());
        }
    }

    #[test]
    fn write_tagged_appends_exactly_the_tagged_form() {
        // The tagged forms the format-string implementation produced.
        let cases = [
            (ConfigValue::str("mysql"), "s:mysql"),
            (ConfigValue::str(""), "s:"),
            (ConfigValue::number(10.0), "n:10"),
            (ConfigValue::number(0.1), "n:0.1"),
            (ConfigValue::number(-2.5), "n:-2.5"),
            (ConfigValue::size(64, SizeUnit::M), "z:64M"),
            (ConfigValue::size(10, SizeUnit::B), "z:10"),
            (ConfigValue::boolean(true), "b:1"),
            (ConfigValue::boolean(false), "b:0"),
            (ConfigValue::path("/var/lib/mysql"), "p:/var/lib/mysql"),
            (ConfigValue::parse_ip("10.0.1.1").unwrap(), "i4:10.0.1.1"),
            (ConfigValue::parse_ip("fe80::1").unwrap(), "i6:fe80::1"),
            (ConfigValue::Absent, "a:"),
        ];
        for (v, tagged) in &cases {
            assert_eq!(v.render_tagged(), *tagged);
            // A non-empty buffer: the call appends, never clears.
            let mut out = String::from("prefix|");
            v.write_tagged(&mut out);
            assert_eq!(out, format!("prefix|{}", v.render_tagged()), "{v:?}");
        }
    }

    #[test]
    fn tagged_form_distinguishes_render_collisions() {
        // All three render "10"; the tagged forms must differ.
        let s = ConfigValue::str("10");
        let n = ConfigValue::number(10.0);
        let z = ConfigValue::size(10, SizeUnit::B);
        assert_eq!(s.render(), n.render());
        assert_eq!(n.render(), z.render());
        assert_ne!(s.render_tagged(), n.render_tagged());
        assert_ne!(n.render_tagged(), z.render_tagged());
        assert_ne!(s.render_tagged(), z.render_tagged());
    }

    #[test]
    fn tagged_form_rejects_malformed_input() {
        for bad in ["", "nocolon", "x:1", "n:abc", "z:12Q", "b:2", "a:junk"] {
            assert!(ConfigValue::parse_tagged(bad).is_err(), "{bad}");
        }
    }
}
