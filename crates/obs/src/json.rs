//! A minimal JSON value model — enough to render and re-parse a
//! [`PipelineReport`](crate::PipelineReport) without a registry dependency.
//!
//! The offline serde shim provides derive markers but no serializer (see
//! `shims/README.md`), so, like the rest of the workspace, report encoding
//! is hand-rolled.  The model is deliberately narrow: all report numbers
//! are unsigned 64-bit integers, so [`Json::Num`] is a `u64` and the parser
//! rejects floats — round-trips are exact by construction.

/// A parsed JSON value.  Object member order is preserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A nonnegative integer (all report quantities are `u64`).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Render to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&n.to_string()),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// `s` as a JSON string literal, quotes included — the one escaper every
/// hand-templated JSON renderer in the workspace shares with [`Json`].
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    render_string(s, &mut out);
    out
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`parse`] accepts.  A pipeline
/// report nests six levels; the bound keeps hostile input from recursing
/// the parser off the end of its stack.
const MAX_DEPTH: usize = 128;

/// Parse JSON text into a [`Json`] value.  Rejects trailing input, floats,
/// negative numbers (no report quantity is either), and arrays or objects
/// nested more than 128 deep.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut pos = 0;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(err(pos, "trailing input after value"));
    }
    Ok(value)
}

fn err(at: usize, message: &str) -> JsonError {
    JsonError {
        at,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected `{}`", byte as char)))
    }
}

/// Parse one value at `depth` enclosing arrays and objects.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err(
            *pos,
            &format!("arrays and objects nest more than {MAX_DEPTH} deep"),
        )),
        Some(b'{') => parse_object(text, pos, depth + 1),
        Some(b'[') => parse_array(text, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => parse_keyword(bytes, pos),
    }
}

fn parse_object(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(text, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(err(*pos, "expected `,` or `}` in object")),
        }
    }
}

fn parse_array(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]` in array")),
        }
    }
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash straight from the
        // text.  A run starts after one of those ASCII bytes (or an ASCII
        // escape) and stops at one, so both ends are character boundaries.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - *pos);
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // The run stopped at a backslash.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Report strings are metric names (ASCII); surrogate
                        // pairs are out of scope for this parser.
                        let c = char::from_u32(code)
                            .ok_or_else(|| err(*pos, "\\u escape is not a scalar value"))?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    if matches!(bytes.get(*pos), Some(b'.' | b'e' | b'E')) {
        return Err(err(*pos, "floats are not valid report quantities"));
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are UTF-8");
    text.parse::<u64>()
        .map(Json::Num)
        .map_err(|_| err(start, "integer out of u64 range"))
}

fn parse_keyword(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    for (word, value) in [
        ("null", Json::Null),
        ("true", Json::Bool(true)),
        ("false", Json::Bool(false)),
    ] {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            return Ok(value);
        }
    }
    Err(err(*pos, "expected a JSON value"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        let cases = [
            "null",
            "true",
            "false",
            "0",
            "18446744073709551615",
            "\"hello\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[{\"c\":\"d\"}]}",
        ];
        for case in cases {
            let parsed = parse(case).unwrap_or_else(|e| panic!("{case}: {e}"));
            assert_eq!(parsed.render(), case);
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::Str("a\"b\\c\nd\te\u{1}f".to_string());
        let text = original.render();
        assert_eq!(parse(&text).expect("parses"), original);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let parsed = parse(" { \"a\" : [ 1 , 2 ] } ").expect("parses");
        assert_eq!(
            parsed.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn rejects_floats_negatives_and_trailing_input() {
        assert!(parse("1.5").is_err());
        assert!(parse("1e3").is_err());
        assert!(parse("-4").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("18446744073709551616").is_err()); // u64::MAX + 1
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"a\":", "}", MAX_DEPTH)).is_ok());
        for depth in [MAX_DEPTH + 1, 100_000] {
            let err = parse(&nested("[", "]", depth)).expect_err("too deep");
            assert_eq!(err.at, MAX_DEPTH, "{err}");
            assert!(err.message.contains("nest"), "{err}");
            assert!(parse(&nested("{\"a\":", "}", depth)).is_err());
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1 MiB of string data over 256 strings of 4 KiB, mixing ASCII,
        // multi-byte characters and escapes.  A parser that rescans the
        // rest of the input per character takes tens of seconds here.
        let chunk = format!(r#"abcdefghijklmn\"{}\u00e9\\\nwxyz"#, '\u{e9}').repeat(128);
        let expected = "abcdefghijklmn\"\u{e9}\u{e9}\\\nwxyz".repeat(128);
        assert_eq!(chunk.len(), 4096);
        let text = format!("[{}]", vec![format!("\"{chunk}\""); 256].join(","));
        // Parse on a worker so a slow parser fails the test at the bound
        // instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(parse(&text));
        });
        let parsed = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("1 MiB of strings parses within 5 s");
        worker.join().expect("the parser thread finishes");
        let parsed = parsed.expect("parses");
        let items = parsed.as_arr().expect("array");
        assert_eq!(items.len(), 256);
        assert!(items.iter().all(|s| s.as_str() == Some(expected.as_str())));
    }

    #[test]
    fn accessors_select_by_variant() {
        let obj = parse("{\"n\":7,\"s\":\"x\",\"a\":[null]}").expect("parses");
        assert_eq!(obj.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(obj.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(
            obj.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(obj.get("missing").is_none());
        assert!(obj.as_obj().is_some());
        assert!(Json::Null.get("n").is_none());
        assert!(Json::Null.as_obj().is_none());
    }
}
