//! sshd_config lens: simple `Key value` pairs, `#` comments.

use crate::{KeyValue, Lens, Pairs, ParseError};

/// Lens for OpenSSH daemon configuration.
#[derive(Debug, Clone, Default)]
pub struct SshdLens {
    _priv: (),
}

impl SshdLens {
    /// Create the lens.
    pub fn new() -> SshdLens {
        SshdLens::default()
    }
}

impl Lens for SshdLens {
    fn name(&self) -> &str {
        "sshd_config"
    }

    fn parse_into(&self, text: &str, pairs: &mut Pairs) -> Result<(), ParseError> {
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match line.split_once(char::is_whitespace) {
                Some((k, v)) => pairs.push(k.trim(), v.trim()),
                None => {
                    return Err(ParseError::BadLine {
                        line: idx + 1,
                        text: raw.to_string(),
                    })
                }
            }
        }
        Ok(())
    }

    fn render(&self, pairs: &[KeyValue]) -> String {
        let mut out = String::new();
        for kv in pairs {
            out.push_str(&kv.key);
            out.push(' ');
            out.push_str(&kv.value);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SSHD: &str = "\
# sshd config
Port 22
PermitRootLogin no
AuthorizedKeysFile .ssh/authorized_keys
";

    #[test]
    fn parses_key_value_pairs() {
        let pairs = SshdLens::new().parse(SSHD).unwrap();
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0], KeyValue::new("Port", "22"));
        assert_eq!(pairs[1], KeyValue::new("PermitRootLogin", "no"));
    }

    #[test]
    fn bare_key_is_error() {
        assert!(SshdLens::new().parse("UseDNS\n").is_err());
    }

    #[test]
    fn round_trip() {
        let lens = SshdLens::new();
        let pairs = lens.parse(SSHD).unwrap();
        assert_eq!(lens.parse(&lens.render(&pairs)).unwrap(), pairs);
    }
}
