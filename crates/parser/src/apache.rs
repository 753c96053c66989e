//! Apache httpd configuration lens.
//!
//! httpd.conf is directive-oriented: `Directive arg1 arg2 ...` plus nested
//! container sections `<Directory /path> ... </Directory>`.  The lens
//! flattens this structure into keys:
//!
//! * single-argument directives → `Directive` = arg,
//! * multi-argument directives → `Directive/arg1`, `Directive/arg2`, ...
//!   (the paper's rule `ServerRoot + LoadModule/arg2 => <FilePath exists>`
//!   relies on exactly this naming, Figure 4(b)),
//! * section-scoped directives → `Section:arg|Directive` — the `|`
//!   separator cannot collide with slashes inside section arguments
//!   (Apache "allows nested configuration entries at arbitrary levels"
//!   and unseen section/entry combinations are flagged, §7.1.2).
//!
//! Repeated directives (e.g. many `LoadModule` lines) get an occurrence
//! index: `LoadModule#0/arg1`, `LoadModule#1/arg1`, ...
//!
//! Every key carries its whole open-section stack, so n nested sections
//! cost keys quadratic in n.  Sections therefore nest at most
//! [`MAX_SECTION_DEPTH`] deep; one more is a
//! [`ParseError::SectionTooDeep`].

use crate::{KeyValue, Lens, Pairs, ParseError};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Most sections open at once.  The corpora nest at most 1 deep, and a
/// real `httpd.conf` a few levels.
pub const MAX_SECTION_DEPTH: usize = 16;

/// Lens for Apache httpd-style configuration.
#[derive(Debug, Clone, Default)]
pub struct ApacheLens {
    _priv: (),
}

impl ApacheLens {
    /// Create the lens.
    pub fn new() -> ApacheLens {
        ApacheLens::default()
    }
}

/// The words of one line, split at whitespace outside double quotes, with
/// the quotes dropped: `c"d e"f` is the one word `cd ef`.  The words are
/// kept back to back in one buffer that every line reuses.
#[derive(Debug, Default)]
struct Words {
    text: String,
    /// Where each word ends in `text`.
    ends: Vec<usize>,
}

impl Words {
    fn split(&mut self, line: &str) {
        self.text.clear();
        self.ends.clear();
        let mut quoted = false;
        for c in line.chars() {
            match c {
                '"' => quoted = !quoted,
                c if c.is_whitespace() && !quoted => self.end_word(),
                c => self.text.push(c),
            }
        }
        self.end_word();
    }

    /// Close the word being read, unless it is empty.
    fn end_word(&mut self) {
        if self.text.len() > self.ends.last().copied().unwrap_or(0) {
            self.ends.push(self.text.len());
        }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }
}

/// Directives that legitimately repeat and therefore carry an occurrence
/// index in their flattened key.
const REPEATABLE: [&str; 6] = [
    "LoadModule",
    "AddType",
    "AddHandler",
    "Alias",
    "Listen",
    "Include",
];

impl Lens for ApacheLens {
    fn name(&self) -> &str {
        "httpd.conf"
    }

    fn parse_into(&self, text: &str, pairs: &mut Pairs) -> Result<(), ParseError> {
        // The open sections as the prefix of every key they scope, each
        // `Name:arg` or `Name` followed by `|`, and per section where its
        // text starts in `prefix` and where its name for the closing tag,
        // the text before its first `:`, ends.
        let mut prefix = String::new();
        let mut open: Vec<(usize, usize)> = Vec::new();
        let mut section_occurrences: HashMap<String, usize> = HashMap::new();
        let mut repeats = [0usize; REPEATABLE.len()];
        let mut words = Words::default();
        let mut key = String::new();
        let mut arg = String::new();

        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("</") {
                let name = rest.trim_end_matches('>').trim();
                match open.pop() {
                    Some((start, name_end)) if &prefix[start..name_end] == name => {
                        prefix.truncate(start);
                        continue;
                    }
                    _ => {
                        return Err(ParseError::MismatchedClose {
                            line: idx + 1,
                            found: name.to_string(),
                        })
                    }
                }
            }
            if let Some(rest) = line.strip_prefix('<') {
                if open.len() == MAX_SECTION_DEPTH {
                    return Err(ParseError::SectionTooDeep { line: idx + 1 });
                }
                words.split(rest.trim_end_matches('>').trim());
                if words.len() == 0 {
                    return Err(ParseError::BadLine {
                        line: idx + 1,
                        text: raw.to_string(),
                    });
                }
                let name = words.get(0);
                arg.clear();
                for i in 1..words.len() {
                    if i > 1 {
                        arg.push(' ');
                    }
                    arg.push_str(words.get(i));
                }
                // Expose the section argument as a stable attribute
                // (`Directory#0/section` = "/var/www/html") so correlations
                // between directives and section scopes are learnable —
                // e.g. "DocumentRoot should have a related <Directory>"
                // (real-world case #1).
                if !arg.is_empty() {
                    let n = match section_occurrences.get_mut(name) {
                        Some(n) => n,
                        None => section_occurrences.entry(name.to_string()).or_insert(0),
                    };
                    key.clear();
                    key.push_str(&prefix);
                    key.push_str(name);
                    let _ = write!(key, "#{n}/section");
                    *n += 1;
                    pairs.push(&key, &arg);
                }
                let start = prefix.len();
                prefix.push_str(name);
                if !arg.is_empty() {
                    prefix.push(':');
                    prefix.push_str(&arg);
                }
                let name_end = prefix[start..]
                    .find(':')
                    .map_or(prefix.len(), |i| start + i);
                prefix.push('|');
                open.push((start, name_end));
                continue;
            }
            words.split(line);
            if words.len() == 0 {
                continue;
            }
            key.clear();
            key.push_str(&prefix);
            key.push_str(words.get(0));
            if let Some(r) = REPEATABLE.iter().position(|d| *d == words.get(0)) {
                let _ = write!(key, "#{}", repeats[r]);
                repeats[r] += 1;
            }
            match words.len() {
                1 => pairs.push(&key, ""),
                2 => pairs.push(&key, words.get(1)),
                n => {
                    let base = key.len();
                    for i in 1..n {
                        key.truncate(base);
                        let _ = write!(key, "/arg{i}");
                        pairs.push(&key, words.get(i));
                    }
                }
            }
        }
        if let Some(&(start, name_end)) = open.last() {
            return Err(ParseError::UnclosedSection {
                name: prefix[start..name_end].to_string(),
            });
        }
        Ok(())
    }

    fn render(&self, pairs: &[KeyValue]) -> String {
        // Re-group multi-arg directives (`Key/argN`) and section scopes.
        let mut out = String::new();
        let mut open_sections: Vec<String> = Vec::new();
        let mut grouped: Vec<(String, Vec<(usize, String)>)> = Vec::new();
        for kv in pairs {
            let (scope_key, argpos) = match kv.key.rfind("/arg") {
                Some(i)
                    if kv.key[i + 4..].chars().all(|c| c.is_ascii_digit())
                        && !kv.key[i + 4..].is_empty() =>
                {
                    (
                        kv.key[..i].to_string(),
                        kv.key[i + 4..].parse::<usize>().expect("digits"),
                    )
                }
                _ => (kv.key.clone(), 0),
            };
            match grouped.last_mut() {
                Some((k, args)) if *k == scope_key && argpos > 0 => {
                    args.push((argpos, kv.value.clone()))
                }
                _ => grouped.push((scope_key, vec![(argpos, kv.value.clone())])),
            }
        }
        for (key, mut args) in grouped {
            let parts: Vec<&str> = key.split('|').collect();
            // Section-argument pairs (`Name#n/section`) are the
            // authoritative section openers.
            let last = parts[parts.len() - 1];
            if let Some(sec) = last.strip_suffix("/section") {
                let name = sec.split('#').next().unwrap_or(sec);
                let arg = args.first().map(|(_, v)| v.clone()).unwrap_or_default();
                // Close sections deeper than this one's outer scope.
                let outer = &parts[..parts.len() - 1];
                while open_sections.len() > outer.len()
                    || !open_sections.iter().zip(outer.iter()).all(|(a, b)| a == *b)
                {
                    match open_sections.pop() {
                        Some(closed) => {
                            let n = closed.split(':').next().unwrap_or(&closed);
                            out.push_str(&format!("</{n}>\n"));
                        }
                        None => break,
                    }
                }
                out.push_str(&format!("<{name} {arg}>\n"));
                open_sections.push(format!("{name}:{arg}"));
                continue;
            }
            let sections = &parts[..parts.len() - 1];
            // close sections no longer in scope
            while open_sections.len() > sections.len()
                || !open_sections
                    .iter()
                    .zip(sections.iter())
                    .all(|(a, b)| a == *b)
            {
                let closed = open_sections.pop().expect("non-empty while unequal");
                let name = closed.split(':').next().unwrap_or(&closed);
                out.push_str(&format!("</{name}>\n"));
                if open_sections.len() <= sections.len()
                    && open_sections
                        .iter()
                        .zip(sections.iter())
                        .all(|(a, b)| a == *b)
                {
                    break;
                }
            }
            // open new sections
            for s in &sections[open_sections.len()..] {
                match s.split_once(':') {
                    Some((name, arg)) => out.push_str(&format!("<{name} {arg}>\n")),
                    None => out.push_str(&format!("<{s}>\n")),
                }
                open_sections.push(s.to_string());
            }
            let directive_raw = parts[parts.len() - 1];
            let directive = directive_raw.split('#').next().unwrap_or(directive_raw);
            args.sort_by_key(|(pos, _)| *pos);
            let rendered_args: Vec<String> = args
                .into_iter()
                .filter(|(_, v)| !v.is_empty())
                .map(|(_, v)| {
                    if v.contains(' ') {
                        format!("\"{v}\"")
                    } else {
                        v
                    }
                })
                .collect();
            if rendered_args.is_empty() {
                out.push_str(&format!("{directive}\n"));
            } else {
                out.push_str(&format!("{directive} {}\n", rendered_args.join(" ")));
            }
        }
        while let Some(closed) = open_sections.pop() {
            let name = closed.split(':').next().unwrap_or(&closed);
            out.push_str(&format!("</{name}>\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HTTPD: &str = r#"
# Apache configuration
ServerRoot "/etc/httpd"
Listen 80
LoadModule auth_basic_module modules/mod_auth_basic.so
LoadModule mime_module modules/mod_mime.so
User apache
DocumentRoot "/var/www/html"
<Directory /var/www/html>
    Options Indexes FollowSymLinks
    AllowOverride None
</Directory>
Timeout 60
"#;

    #[test]
    fn single_arg_directives() {
        let pairs = ApacheLens::new().parse(HTTPD).unwrap();
        let get = |k: &str| pairs.iter().find(|p| p.key == k).map(|p| p.value.as_str());
        assert_eq!(get("ServerRoot"), Some("/etc/httpd"));
        assert_eq!(get("User"), Some("apache"));
        assert_eq!(get("Timeout"), Some("60"));
    }

    #[test]
    fn repeated_multiarg_directives_get_indices() {
        let pairs = ApacheLens::new().parse(HTTPD).unwrap();
        let get = |k: &str| pairs.iter().find(|p| p.key == k).map(|p| p.value.as_str());
        assert_eq!(get("LoadModule#0/arg1"), Some("auth_basic_module"));
        assert_eq!(get("LoadModule#0/arg2"), Some("modules/mod_auth_basic.so"));
        assert_eq!(get("LoadModule#1/arg2"), Some("modules/mod_mime.so"));
        assert_eq!(get("Listen#0"), Some("80"));
    }

    #[test]
    fn sections_scope_keys() {
        let pairs = ApacheLens::new().parse(HTTPD).unwrap();
        let get = |k: &str| pairs.iter().find(|p| p.key == k).map(|p| p.value.as_str());
        assert_eq!(get("Directory:/var/www/html|AllowOverride"), Some("None"));
        assert_eq!(get("Directory:/var/www/html|Options/arg1"), Some("Indexes"));
        assert_eq!(
            get("Directory:/var/www/html|Options/arg2"),
            Some("FollowSymLinks")
        );
    }

    #[test]
    fn unclosed_section_is_error() {
        let err = ApacheLens::new()
            .parse("<Directory /x>\nOptions None\n")
            .unwrap_err();
        assert!(matches!(err, ParseError::UnclosedSection { .. }));
    }

    #[test]
    fn mismatched_close_is_error() {
        let err = ApacheLens::new()
            .parse("<Directory /x>\n</Files>\n")
            .unwrap_err();
        assert!(matches!(err, ParseError::MismatchedClose { .. }));
    }

    #[test]
    fn quoted_values_keep_spaces() {
        let pairs = ApacheLens::new()
            .parse("ServerAdmin \"web master\"\n")
            .unwrap();
        assert_eq!(pairs[0].value, "web master");
    }

    #[test]
    fn round_trip() {
        let lens = ApacheLens::new();
        let pairs = lens.parse(HTTPD).unwrap();
        let rendered = lens.render(&pairs);
        let back = lens.parse(&rendered).unwrap();
        assert_eq!(pairs, back, "render:\n{rendered}");
    }

    /// `depth` nested `<a b>` sections, each holding one `x` directive.
    fn nested(depth: usize) -> String {
        let mut text = "<a b>\nx\n".repeat(depth);
        text.push_str(&"</a>\n".repeat(depth));
        text
    }

    #[test]
    fn sections_nest_at_most_max_section_depth() {
        let pairs = ApacheLens::new().parse(&nested(MAX_SECTION_DEPTH)).unwrap();
        assert_eq!(pairs.len(), 2 * MAX_SECTION_DEPTH);
        let err = ApacheLens::new()
            .parse(&nested(MAX_SECTION_DEPTH + 1))
            .unwrap_err();
        // The 17th `<a b>` is line 33.
        assert_eq!(err, ParseError::SectionTooDeep { line: 33 });
        assert_eq!(
            err.to_string(),
            "section at line 33 nests deeper than 16 levels"
        );
    }

    #[test]
    fn a_deeply_nested_payload_is_rejected_at_the_cap() {
        // 4000 levels would build about 96 MB of keys; the lens stops at
        // level 17, so the time does not grow with the payload.
        let text = nested(4000);
        let fastest = (0..5)
            .map(|_| {
                let started = std::time::Instant::now();
                let err = ApacheLens::new().parse(&text).unwrap_err();
                assert_eq!(err, ParseError::SectionTooDeep { line: 33 });
                started.elapsed()
            })
            .min()
            .expect("five runs");
        assert!(fastest < std::time::Duration::from_millis(5), "{fastest:?}");
    }
}

#[cfg(test)]
mod section_arg_tests {
    use super::*;

    #[test]
    fn section_args_exposed_as_attributes() {
        let pairs = ApacheLens::new()
            .parse("DocumentRoot /var/www/html\n<Directory /var/www/html>\nAllowOverride None\n</Directory>\n")
            .unwrap();
        let sec = pairs
            .iter()
            .find(|p| p.key == "Directory#0/section")
            .unwrap();
        assert_eq!(sec.value, "/var/www/html");
    }

    #[test]
    fn section_arg_round_trip() {
        let lens = ApacheLens::new();
        let text = "DocumentRoot /srv/www\n<Directory /srv/www>\nAllowOverride All\n</Directory>\n<Directory /var/www/cgi-bin>\nOptions None\n</Directory>\n";
        let pairs = lens.parse(text).unwrap();
        let back = lens.parse(&lens.render(&pairs)).unwrap();
        assert_eq!(pairs, back, "render:\n{}", lens.render(&pairs));
    }

    #[test]
    fn empty_section_round_trip() {
        let lens = ApacheLens::new();
        let pairs = lens
            .parse("<Directory /opt>\n</Directory>\nTimeout 60\n")
            .unwrap();
        assert_eq!(pairs.len(), 2);
        let back = lens.parse(&lens.render(&pairs)).unwrap();
        assert_eq!(pairs, back, "render:\n{}", lens.render(&pairs));
    }
}
