//! A minimal JSON value type, writer, and parser.
//!
//! The workspace only needs JSON in two places — machine-readable copies of
//! benchmark tables and scenario configuration dumps — so this module
//! implements exactly RFC 8259 with two simplifications: numbers are `f64`
//! (every value the workspace emits fits a double exactly) and object keys
//! keep insertion order (emitted files diff cleanly run-to-run).
//!
//! # Examples
//!
//! ```
//! use relaxfault_util::json::Value;
//!
//! let v = Value::object([
//!     ("trials", Value::from(4000.0)),
//!     ("label", Value::from("RelaxFault")),
//!     ("coverage", Value::Array(vec![Value::from(0.9), Value::from(0.95)])),
//! ]);
//! let text = v.to_string();
//! assert_eq!(Value::parse(&text).unwrap(), v);
//! assert_eq!(v.get("label").and_then(Value::as_str), Some("RelaxFault"));
//! ```

use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed and emitted as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion-ordered, duplicate keys are kept as written.
    Object(Vec<(String, Value)>),
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Number(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Number(v as f64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Number(v as f64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}

impl Value {
    /// Builds an object from `(key, value)` pairs in order.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Self {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// First value under `key` if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Upserts `key` in an object: replaces the first existing entry in
    /// place (preserving field order) or appends a new one. No-op on
    /// non-objects.
    pub fn set(&mut self, key: &str, value: Value) {
        if let Value::Object(pairs) = self {
            match pairs.iter_mut().find(|(k, _)| k == key) {
                Some((_, slot)) => *slot = value,
                None => pairs.push((key.to_string(), value)),
            }
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline —
    /// the layout the results files use.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Value::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Object(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            _ => self.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => out.push_str(&format_number(*n)),
            Value::String(s) => write_string(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError::at(pos, "trailing characters after document"));
        }
        Ok(value)
    }
}

impl fmt::Display for Value {
    /// Compact (single-line) serialization.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// JSON has no NaN/Infinity; emit null like other emitters do. Integral
/// values print without a fractional part so counts stay readable.
fn format_number(n: f64) -> String {
    if !n.is_finite() {
        return "null".into();
    }
    if n == n.trunc() && n.abs() < 9e15 {
        format!("{}", n as i64)
    } else {
        let s = format!("{n}");
        debug_assert!(Value::parse(&s).is_ok());
        s
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl ParseError {
    fn at(offset: usize, message: impl Into<String>) -> Self {
        Self {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(ParseError::at(*pos, format!("expected `{lit}`")))
    }
}

/// Deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so unbounded nesting would let a corrupt file
/// overflow the stack; the deepest document the workspace writes (a crash
/// dump embedding a fleet checkpoint) nests 6 levels.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    match bytes.get(*pos) {
        None => Err(ParseError::at(*pos, "unexpected end of input")),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(ParseError::at(
            *pos,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        )),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Value::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Value::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::String),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(ParseError::at(*pos, "expected `,` or `]`")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(ParseError::at(*pos, "expected `:` after object key"));
                }
                *pos += 1;
                skip_ws(bytes, pos);
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(pairs));
                    }
                    _ => return Err(ParseError::at(*pos, "expected `,` or `}`")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(ParseError::at(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(ParseError::at(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hi = hex4(bytes, *pos + 1)
                            .ok_or_else(|| ParseError::at(*pos, "bad \\u escape"))?;
                        *pos += 4;
                        // Surrogate pairs: the results files never contain
                        // them, but accept the standard encoding. A high
                        // surrogate must be followed by `\u` and a low one.
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            let lo = bytes
                                .get(*pos + 1..*pos + 3)
                                .filter(|esc| *esc == b"\\u")
                                .and_then(|_| hex4(bytes, *pos + 3))
                                .filter(|lo| (0xDC00..0xE000).contains(lo))
                                .ok_or_else(|| ParseError::at(*pos, "unpaired high surrogate"))?;
                            *pos += 6;
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        // Lone low surrogates are not scalar values.
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| ParseError::at(*pos, "bad \\u escape"))?,
                        );
                    }
                    _ => return Err(ParseError::at(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("valid UTF-8"));
            }
        }
    }
}

/// The code unit spelled by the four hex digits at `bytes[at..at + 4]`.
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    let digits = bytes.get(at..at + 4)?;
    if !digits.iter().all(u8::is_ascii_hexdigit) {
        return None;
    }
    u32::from_str_radix(std::str::from_utf8(digits).ok()?, 16).ok()
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| ParseError::at(start, format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = Value::object([
            ("name", Value::from("fig10")),
            ("trials", Value::from(100_000u64)),
            ("coverage", Value::from(0.9034)),
            ("flags", Value::Array(vec![Value::Bool(true), Value::Null])),
            ("nested", Value::object([("k", Value::from("v"))])),
            ("empty_arr", Value::Array(vec![])),
            ("empty_obj", Value::Object(vec![])),
        ]);
        assert_eq!(Value::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Value::parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn compact_layout_is_canonical() {
        let v = Value::object([
            ("a", Value::from(1u64)),
            ("b", Value::Array(vec![Value::from(1.5), Value::from("x")])),
        ]);
        assert_eq!(v.to_string(), r#"{"a":1,"b":[1.5,"x"]}"#);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\nbreak \"quoted\" back\\slash\ttab \u{1} unicode é 猫";
        let v = Value::from(s);
        let parsed = Value::parse(&v.to_string()).unwrap();
        assert_eq!(parsed.as_str(), Some(s));
    }

    #[test]
    fn parses_standard_escapes_and_numbers() {
        let v = Value::parse(r#"{"s":"aA\t/","n":-1.25e2,"i":42}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("aA\t/"));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(-125.0));
        assert_eq!(v.get("i").and_then(Value::as_f64), Some(42.0));
    }

    #[test]
    fn integral_numbers_emit_without_fraction() {
        assert_eq!(Value::from(4000u64).to_string(), "4000");
        assert_eq!(Value::from(0.5).to_string(), "0.5");
        assert_eq!(Value::Number(f64::NAN).to_string(), "null");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "1 2",
            "{'a':1}",
            "",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unpaired_surrogates_are_errors() {
        assert_eq!(
            Value::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1F600}")
        );
        for bad in [
            r#""\ud800\u0041""#, // high surrogate, then a non-surrogate
            r#""\ud800\ud800""#, // high surrogate, then another high one
            r#""\ud800x""#,      // high surrogate, then no escape
            r#""\ud800""#,       // high surrogate at the end of the string
            r#""\ud800\u00""#,   // truncated low escape
            r#""\udc00""#,       // lone low surrogate
            r#""\u+041""#,       // sign in the hex digits
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(Value::parse(&objects).is_err());
        // Far past the limit: an error, not a stack overflow.
        assert!(Value::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn accessors() {
        let v = Value::object([("x", Value::from(true))]);
        assert_eq!(v.get("x").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("y"), None);
        assert!(Value::Null.get("x").is_none());
        let arr = Value::Array(vec![Value::from(1u64)]);
        assert_eq!(arr.as_array().map(|a| a.len()), Some(1));
    }
}
