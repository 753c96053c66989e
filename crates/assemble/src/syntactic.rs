//! Syntactic type matching — step one of type inference (§4.2, Table 4).
//!
//! The paper drives this step with a table of regular expressions ("any
//! string that contains a slash is a potential FilePath").  We implement the
//! same patterns as hand-written matchers: no regex engine is among the
//! sanctioned dependencies, and the patterns are simple enough that direct
//! character scans are clearer and faster.
//!
//! Syntactic matching deliberately over-approximates; the semantic
//! verification step (`infer`) prunes wrong guesses against the environment.

use encore_model::{ConfigValue, SemType};

/// Does `s` look like an absolute file path? (`/.+(/.+)*`)
pub fn is_file_path(s: &str) -> bool {
    s.len() > 1 && s.starts_with('/') && !s.contains(char::is_whitespace) && !s.contains("//")
}

/// Does `s` look like a relative path fragment? (`.+(/.+)+`, no leading `/`)
pub fn is_partial_file_path(s: &str) -> bool {
    !s.is_empty()
        && !s.starts_with('/')
        && s.contains('/')
        && !s.ends_with('/')
        && !s.contains("//")
        && !s.contains(char::is_whitespace)
        && !s.contains("://")
}

/// Does `s` look like a bare file name? (`[\w-]+\.[\w-]+`)
pub fn is_file_name(s: &str) -> bool {
    match s.split_once('.') {
        Some((stem, ext)) => {
            !stem.is_empty()
                && !ext.is_empty()
                && !ext.contains('.')
                && stem
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                && ext
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        }
        None => false,
    }
}

/// Does `s` look like a user or group name? (`[a-zA-Z][a-zA-Z0-9_-]*`)
pub fn is_account_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() => {
            chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        }
        _ => false,
    }
}

/// Does `s` look like an IPv4 or IPv6 address?
pub fn is_ip_address(s: &str) -> bool {
    ConfigValue::classify_ip(s).is_some()
}

/// Does `s` look like a port number? (digits in `1..=65535`)
pub fn is_port_number(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(|c| c.is_ascii_digit())
        && s.parse::<u32>()
            .map(|p| (1..=65535).contains(&p))
            .unwrap_or(false)
}

/// Does `s` look like a plain number? (`-?[0-9.]+` with at most one `.`;
/// without the `-`, it starts with a digit)
pub fn is_number(s: &str) -> bool {
    // At most one leading `-`: `--5` is text, as `coerce` stores it.
    let unsigned = s.strip_prefix('-').unwrap_or(s);
    s.starts_with(|c: char| c.is_ascii_digit() || c == '-')
        && !unsigned.is_empty()
        && unsigned.chars().all(|c| c.is_ascii_digit() || c == '.')
        && unsigned.chars().filter(|&c| c == '.').count() <= 1
}

/// Does `s` look like a URL? (`[a-z]+://...`)
pub fn is_url(s: &str) -> bool {
    match s.find("://") {
        Some(i) if i > 0 => s[..i].chars().all(|c| c.is_ascii_lowercase()) && s.len() > i + 3,
        _ => false,
    }
}

/// Does `s` look like a MIME type? (`major/minor`)
pub fn is_mime_type(s: &str) -> bool {
    match s.split_once('/') {
        Some((major, minor)) => {
            !major.is_empty()
                && !minor.is_empty()
                && !minor.contains('/')
                && major.chars().all(|c| c.is_ascii_alphabetic() || c == '-')
                && minor
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.' || c == '+')
        }
        None => false,
    }
}

/// Does `s` look like a charset name? (`[\w-]+`, must contain a letter)
pub fn is_charset(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        && s.chars().any(|c| c.is_ascii_alphabetic())
}

/// Does `s` look like an ISO 639-1 language code? (exactly two letters)
pub fn is_language(s: &str) -> bool {
    s.len() == 2 && s.chars().all(|c| c.is_ascii_alphabetic())
}

/// Does `s` look like a size literal? (`[\d]+[KMGT]`)
pub fn is_size(s: &str) -> bool {
    s.len() >= 2
        && s.chars()
            .last()
            .map(|c| "KMGTkmgt".contains(c))
            .unwrap_or(false)
        && s[..s.len() - 1].chars().all(|c| c.is_ascii_digit())
}

/// Does `s` belong to the boolean value set?
pub fn is_boolean(s: &str) -> bool {
    ["on", "off", "yes", "no", "true", "false"]
        .iter()
        .any(|b| s.eq_ignore_ascii_case(b))
}

/// Does `s` look like octal permission bits? (3–4 octal digits)
pub fn is_permission(s: &str) -> bool {
    (s.len() == 3 || s.len() == 4) && s.chars().all(|c| ('0'..='7').contains(&c))
}

/// Does `v` (already trimmed) match the syntactic pattern of `ty`?
///
/// This is the pattern table of Table 4, one arm per type.
pub(crate) fn matches(ty: SemType, v: &str) -> bool {
    match ty {
        SemType::Url => is_url(v),
        SemType::IpAddress => is_ip_address(v),
        SemType::Size => is_size(v),
        SemType::Boolean => is_boolean(v),
        SemType::FilePath => is_file_path(v),
        SemType::PartialFilePath => is_partial_file_path(v),
        SemType::MimeType => is_mime_type(v),
        // Permission (like Enum) is only assigned to augmented
        // attributes (Table 5a), never inferred from raw entry values —
        // otherwise any 3-4 digit number would classify as Permission.
        SemType::Permission => false,
        SemType::PortNumber => is_port_number(v),
        SemType::Number => is_number(v),
        SemType::FileName => is_file_name(v),
        SemType::UserName => is_account_name(v),
        SemType::GroupName => is_account_name(v),
        SemType::Charset => is_charset(v),
        SemType::Language => is_language(v),
        SemType::Enum => false, // only assigned to augmented attributes
        SemType::Str => true,   // universal fall-back
        _ => false,             // future variants: no syntactic pattern
    }
}

/// Syntactic candidate types for a value, in [`SemType::PRIORITY`] order.
///
/// This is the "crude guess" of §4.2: every type whose pattern matches.
/// The semantic verifier picks the first candidate that survives.
pub fn candidates(value: &str) -> Vec<SemType> {
    let v = value.trim();
    SemType::PRIORITY
        .into_iter()
        .filter(|&ty| matches(ty, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_path_patterns() {
        assert!(is_file_path("/var/lib/mysql"));
        assert!(is_file_path("/etc"));
        assert!(!is_file_path("/"));
        assert!(!is_file_path("relative/path"));
        assert!(!is_file_path("/has space"));
        assert!(!is_file_path("/double//slash"));
    }

    #[test]
    fn partial_path_patterns() {
        assert!(is_partial_file_path("modules/mod_mime.so"));
        assert!(!is_partial_file_path("/abs/path"));
        assert!(!is_partial_file_path("plain"));
        assert!(!is_partial_file_path("http://x/y"));
    }

    #[test]
    fn numeric_patterns() {
        assert!(is_number("42"));
        assert!(is_number("3.14"));
        assert!(is_number("-10"));
        assert!(!is_number("1.2.3"));
        assert!(!is_number("12a"));
        assert!(!is_number(""));
        assert!(!is_number("-"));
        assert!(!is_number("--5"));
    }

    #[test]
    fn port_range_enforced() {
        assert!(is_port_number("80"));
        assert!(is_port_number("65535"));
        assert!(!is_port_number("0"));
        assert!(!is_port_number("70000"));
        assert!(!is_port_number("8o"));
    }

    #[test]
    fn url_and_mime() {
        assert!(is_url("http://example.com"));
        assert!(is_url("file:///etc"));
        assert!(!is_url("://nope"));
        assert!(!is_url("http://"));
        assert!(is_mime_type("text/html"));
        assert!(is_mime_type("application/x-httpd-php"));
        assert!(!is_mime_type("noslash"));
    }

    #[test]
    fn size_and_permission() {
        assert!(is_size("64M"));
        assert!(is_size("10k"));
        assert!(!is_size("M"));
        assert!(!is_size("64MB"));
        assert!(is_permission("644"));
        assert!(is_permission("0755"));
        assert!(!is_permission("888"));
        assert!(!is_permission("64"));
    }

    #[test]
    fn candidate_ordering_prefers_specific_types() {
        let c = candidates("/var/lib/mysql");
        assert_eq!(c.first(), Some(&SemType::FilePath));
        assert_eq!(c.last(), Some(&SemType::Str));
        // A bare number is port-eligible and number-eligible, port first.
        let c = candidates("3306");
        assert!(
            c.iter().position(|t| *t == SemType::PortNumber).unwrap()
                < c.iter().position(|t| *t == SemType::Number).unwrap()
        );
    }

    #[test]
    fn str_is_always_a_candidate() {
        for v in ["", "anything at all", "/x", "42"] {
            assert!(candidates(v).contains(&SemType::Str), "{v}");
        }
    }

    #[test]
    fn language_codes() {
        assert!(is_language("en"));
        assert!(!is_language("eng"));
        assert!(!is_language("e1"));
    }
}
