//! Offline stand-in for the `serde_json` crate: renders the serde shim's
//! [`Value`] tree to JSON text and parses JSON text back.
//!
//! Compatibility notes (matching upstream behavior the workspace relies on):
//!
//! * non-finite floats serialize as `null`;
//! * object key order is preserved (`preserve_order` flavor);
//! * `from_str` accepts arbitrary whitespace and rejects trailing garbage.

#![warn(missing_docs)]

pub use serde::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Serialization/deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    fn new(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Result alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Converts any serializable type into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: &T) -> Value {
    value.to_value()
}

/// Rebuilds a typed value from a [`Value`] tree.
///
/// # Errors
///
/// Returns [`Error`] when the tree's shape does not match `T`.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T> {
    T::from_value(value).map_err(Error::from)
}

/// Serializes to compact JSON.
///
/// # Errors
///
/// Infallible in this shim; the `Result` mirrors upstream's signature.
pub fn to_string<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes to pretty-printed JSON (two-space indent, like upstream).
///
/// # Errors
///
/// Infallible in this shim; the `Result` mirrors upstream's signature.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some("  "), 0);
    Ok(out)
}

/// Parses JSON text into any deserializable type.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let value = parse_value_complete(text)?;
    T::from_value(&value).map_err(Error::from)
}

// --- writer ----------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<&str>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Float(x) => {
            if x.is_finite() {
                // Keep a fraction marker so floats round-trip as floats.
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    out.push_str(&format!("{x:.1}"));
                } else {
                    out.push_str(&x.to_string());
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => write_seq(
            out,
            items.iter(),
            indent,
            depth,
            '[',
            ']',
            |o, item, ind, d| {
                write_value(o, item, ind, d);
            },
        ),
        Value::Object(entries) => {
            write_seq(
                out,
                entries.iter(),
                indent,
                depth,
                '{',
                '}',
                |o, (k, val), ind, d| {
                    write_string(o, k);
                    o.push(':');
                    if ind.is_some() {
                        o.push(' ');
                    }
                    write_value(o, val, ind, d);
                },
            );
        }
    }
}

fn write_seq<I, T>(
    out: &mut String,
    items: I,
    indent: Option<&str>,
    depth: usize,
    open: char,
    close: char,
    mut write_item: impl FnMut(&mut String, T, Option<&str>, usize),
) where
    I: ExactSizeIterator<Item = T>,
{
    out.push(open);
    let n = items.len();
    if n == 0 {
        out.push(close);
        return;
    }
    for (i, item) in items.enumerate() {
        if let Some(ind) = indent {
            out.push('\n');
            for _ in 0..=depth {
                out.push_str(ind);
            }
        }
        write_item(out, item, indent, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if let Some(ind) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str(ind);
        }
    }
    out.push(close);
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// --- parser ----------------------------------------------------------------

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value_complete(text: &str) -> Result<Value> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(Error::new(format!(
                "unexpected `{}` at byte {}",
                c as char, self.pos
            ))),
            None => Err(Error::new("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(Error::new("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(Error::new("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            if (0xD800..0xDC00).contains(&cp) {
                                if !(self.eat_keyword("\\u")) {
                                    return Err(Error::new("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::new(
                                        "high surrogate not followed by a low surrogate",
                                    ));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(
                                    char::from_u32(combined)
                                        .ok_or_else(|| Error::new("invalid surrogate pair"))?,
                                );
                            } else {
                                out.push(
                                    char::from_u32(cp)
                                        .ok_or_else(|| Error::new("invalid \\u escape"))?,
                                );
                            }
                        }
                        other => {
                            return Err(Error::new(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Copy the run of plain characters up to the next quote
                    // or escape in one step. Both are ASCII, so the run ends
                    // on a character boundary of the input `&str`.
                    let start = self.pos - 1;
                    let end = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |len| start + len);
                    let run = self
                        .text
                        .get(start..end)
                        .ok_or_else(|| Error::new("invalid utf-8 in string"))?;
                    out.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| Error::new("invalid \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "42", "-7", "3.5"] {
            let v: Value = from_str(text).unwrap();
            assert_eq!(to_string(&v).unwrap(), text, "{text}");
        }
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" \\ backslash \u{0001}".to_string();
        let json = to_string(&original).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn unicode_passthrough() {
        let original = "héllo → 世界 🚀".to_string();
        let json = to_string(&original).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn object_order_preserved() {
        let v = Value::Object(vec![
            ("z".into(), Value::UInt(1)),
            ("a".into(), Value::UInt(2)),
        ]);
        assert_eq!(to_string(&v).unwrap(), r#"{"z":1,"a":2}"#);
        let back: Value = from_str(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_print_shape() {
        let v = Value::Object(vec![("k".into(), Value::Array(vec![Value::UInt(1)]))]);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(pretty, "{\n  \"k\": [\n    1\n  ]\n}");
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn float_keeps_fraction_marker() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        let back: f64 = from_str("2.0").unwrap();
        assert!((back - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("\"unterminated").is_err());
    }

    #[test]
    fn long_multibyte_string_parses_in_linear_time() {
        // Over 1 MB of mixed one-, two-, three- and four-byte characters,
        // ending on a multi-byte one. A parser that re-validates the rest
        // of the input per character takes minutes here.
        let mut original = "aé→🚀\\\"".repeat(90_000);
        original.push('世');
        assert!(original.len() >= 1 << 20);
        let json = to_string(&original).unwrap();
        let start = std::time::Instant::now();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, original);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "parsing took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn surrogate_pair_decodes() {
        let back: String = from_str("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(back, "😀");
    }

    #[test]
    fn malformed_surrogate_pairs_error_instead_of_panicking() {
        // High surrogate followed by a non-low-surrogate escape.
        assert!(from_str::<String>("\"\\ud83d\\u0041\"").is_err());
        // High surrogate followed by a second high surrogate.
        assert!(from_str::<String>("\"\\ud83d\\ud83d\"").is_err());
        // Lone high surrogate at end of string.
        assert!(from_str::<String>("\"\\ud83d\"").is_err());
        // Lone low surrogate is not a valid scalar value.
        assert!(from_str::<String>("\"\\udc00\"").is_err());
    }
}
