//! INI-style lens for `my.cnf` and `php.ini`.
//!
//! Both MySQL and PHP configurations are line-oriented `key = value` files
//! with `[section]` headers and `#`/`;` comments.  MySQL additionally allows
//! bare flag entries (`skip-external-locking`) which parse as a key with an
//! empty value.

use crate::{KeyValue, Lens, Pairs, ParseError};

/// Lens for INI-family configuration files.
#[derive(Debug, Clone)]
pub struct IniLens {
    name: String,
    /// Whether the target section is filtered (`Some("mysqld")` keeps only
    /// entries under `[mysqld]`, matching how the paper analyses `my.cnf`).
    section_filter: Option<String>,
    /// Whether bare flag lines (no `=`) are legal.
    allow_flags: bool,
    /// Section to emit in `render`.
    render_section: Option<String>,
}

impl IniLens {
    /// Generic INI lens: all sections kept, flags allowed.
    pub fn new(name: impl Into<String>) -> IniLens {
        IniLens {
            name: name.into(),
            section_filter: None,
            allow_flags: true,
            render_section: None,
        }
    }

    /// MySQL `my.cnf` lens: keeps the `[mysqld]` section, allows flags.
    pub fn mysql() -> IniLens {
        IniLens {
            name: "my.cnf".to_string(),
            section_filter: Some("mysqld".to_string()),
            allow_flags: true,
            render_section: Some("mysqld".to_string()),
        }
    }

    /// PHP `php.ini` lens: all sections, `=` required.
    pub fn php() -> IniLens {
        IniLens {
            name: "php.ini".to_string(),
            section_filter: None,
            allow_flags: false,
            render_section: Some("PHP".to_string()),
        }
    }
}

/// The value that the text after a line's `=` holds.
///
/// A value that starts with `"` or `'`, and whose matching quote ends the
/// line or is followed only by whitespace and a comment, is the text
/// between the quotes: MySQL option files and `php.ini` quote a value so
/// that it can hold `#` or `;`.  Any other value is cut at the first `#`
/// or `;` that follows a space or a tab, trimmed, and stripped of
/// surrounding double quotes.
fn value_of(text: &str) -> &str {
    let value = text.trim();
    if let Some(quote) = value.chars().next().filter(|&c| c == '"' || c == '\'') {
        if let Some((inner, rest)) = value[1..].split_once(quote) {
            let rest = rest.trim_start();
            if rest.is_empty() || rest.starts_with(['#', ';']) {
                return inner;
            }
        }
    }
    let cut = value
        .as_bytes()
        .windows(2)
        .position(|w| matches!(w[0], b' ' | b'\t') && matches!(w[1], b'#' | b';'));
    match cut {
        Some(i) => value[..i].trim(),
        None => value,
    }
    .trim_matches('"')
}

impl Lens for IniLens {
    fn name(&self) -> &str {
        &self.name
    }

    fn parse_into(&self, text: &str, pairs: &mut Pairs) -> Result<(), ParseError> {
        let mut current_section: Option<&str> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                match rest.strip_suffix(']') {
                    Some(name) => {
                        current_section = Some(name.trim());
                        continue;
                    }
                    None => {
                        return Err(ParseError::BadLine {
                            line: idx + 1,
                            text: raw.to_string(),
                        })
                    }
                }
            }
            if let Some(filter) = &self.section_filter {
                if current_section != Some(filter.as_str()) {
                    continue;
                }
            }
            if let Some((k, v)) = line.split_once('=') {
                let key = k.trim();
                if key.is_empty() {
                    return Err(ParseError::BadLine {
                        line: idx + 1,
                        text: raw.to_string(),
                    });
                }
                pairs.push(key, value_of(v));
            } else if self.allow_flags
                && line
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
            {
                pairs.push(line, "");
            } else {
                return Err(ParseError::BadLine {
                    line: idx + 1,
                    text: raw.to_string(),
                });
            }
        }
        Ok(())
    }

    fn render(&self, pairs: &[KeyValue]) -> String {
        let mut out = String::new();
        if let Some(section) = &self.render_section {
            out.push('[');
            out.push_str(section);
            out.push_str("]\n");
        }
        for kv in pairs {
            if kv.value.is_empty() && self.allow_flags {
                out.push_str(&kv.key);
            } else {
                out.push_str(&kv.key);
                out.push_str(" = ");
                if value_of(&kv.value) == kv.value {
                    out.push_str(&kv.value);
                } else {
                    // Quote with a kind the value does not hold, so the
                    // matching quote is the closing one.
                    let quote = if kv.value.contains('"') { '\'' } else { '"' };
                    out.push(quote);
                    out.push_str(&kv.value);
                    out.push(quote);
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MY_CNF: &str = "\
# MySQL configuration
[client]
port = 3306

[mysqld]
user = mysql
datadir = /var/lib/mysql
max_allowed_packet = 16M
skip-external-locking
log_error = /var/log/mysql/error.log
";

    #[test]
    fn mysql_lens_filters_to_mysqld() {
        let pairs = IniLens::mysql().parse(MY_CNF).unwrap();
        let keys: Vec<_> = pairs.iter().map(|p| p.key.as_str()).collect();
        assert!(keys.contains(&"datadir"));
        assert!(keys.contains(&"skip-external-locking"));
        // client-section port must be filtered out
        assert!(!keys.contains(&"port"));
    }

    #[test]
    fn flags_have_empty_value() {
        let pairs = IniLens::mysql().parse(MY_CNF).unwrap();
        let flag = pairs
            .iter()
            .find(|p| p.key == "skip-external-locking")
            .unwrap();
        assert_eq!(flag.value, "");
    }

    #[test]
    fn php_lens_parses_all_sections() {
        let text = "[PHP]\nmemory_limit = 64M\n; comment\nupload_max_filesize = 2M\n[Date]\ndate.timezone = UTC\n";
        let pairs = IniLens::php().parse(text).unwrap();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[2].key, "date.timezone");
    }

    #[test]
    fn php_lens_rejects_bare_flags() {
        assert!(IniLens::php().parse("[PHP]\nbare_flag\n").is_err());
    }

    #[test]
    fn quotes_and_inline_comments_stripped() {
        let pairs = IniLens::php()
            .parse("[PHP]\nextension_dir = \"/usr/lib/php\" ; where modules live\n")
            .unwrap();
        assert_eq!(pairs[0].value, "/usr/lib/php");
        // The first marker cuts, whichever of the two it is.
        let pairs = IniLens::mysql()
            .parse("[mysqld]\nsocket = /tmp/a.sock #old ; was here\n")
            .unwrap();
        assert_eq!(pairs[0].value, "/tmp/a.sock");
    }

    #[test]
    fn quotes_protect_comment_markers() {
        let text = "[mysqld]\npassword = \"ab #cd\"\ninit-connect = 'SET NAMES utf8 ;x'  # set\nsocket = /tmp/my.sock\t# c\nbare = a\t;b\nopen = \"ab #cd\nodd = \"a\"b\"\n";
        let pairs = IniLens::mysql().parse(text).unwrap();
        let values: Vec<&str> = pairs.iter().map(|p| p.value.as_str()).collect();
        assert_eq!(
            values,
            [
                "ab #cd",
                "SET NAMES utf8 ;x",
                "/tmp/my.sock",
                "a",
                "ab",
                "a\"b"
            ]
        );
    }

    #[test]
    fn render_quotes_what_would_not_parse_back_bare() {
        let lens = IniLens::php();
        let pairs = vec![
            KeyValue::new("a", "x #y"),
            KeyValue::new("b", "say \"hi\" ;now"),
            KeyValue::new("c", " padded "),
            KeyValue::new("d", "'quoted'"),
            KeyValue::new("e", "/plain/path"),
        ];
        let rendered = lens.render(&pairs);
        assert!(rendered.contains("e = /plain/path\n"), "{rendered}");
        assert!(rendered.contains("b = 'say \"hi\" ;now'\n"), "{rendered}");
        assert_eq!(lens.parse(&rendered).unwrap(), pairs, "{rendered}");
    }

    #[test]
    fn bad_section_header_reports_line() {
        let err = IniLens::php().parse("[PHP\nx = 1\n").unwrap_err();
        match err {
            ParseError::BadLine { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn round_trip() {
        let lens = IniLens::mysql();
        let pairs = lens.parse(MY_CNF).unwrap();
        let rendered = lens.render(&pairs);
        let back = lens.parse(&rendered).unwrap();
        assert_eq!(pairs, back);
    }
}
