//! Offline stand-in for `serde_json`: renders and parses JSON text over the
//! serde shim's [`Value`] tree.

use serde::{DeError, Deserialize, Serialize, Value};

/// Serialization / deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error {
            message: e.to_string(),
        }
    }
}

/// Lower any serializable type to a [`Value`].
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Serialize to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Serialize to human-readable JSON text (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

/// Parse JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(T::from_value(&value)?)
}

fn write_value(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_number(*n, out),
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            write_delimited(items.iter(), indent, depth, out, '[', ']', |item, d, o| {
                write_value(item, indent, d, o)
            })
        }
        Value::Map(entries) => write_delimited(
            entries.iter(),
            indent,
            depth,
            out,
            '{',
            '}',
            |(key, val), d, o| {
                write_string(key, o);
                o.push(':');
                if indent.is_some() {
                    o.push(' ');
                }
                write_value(val, indent, d, o);
            },
        ),
    }
}

fn write_delimited<I, F>(
    items: I,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
    open: char,
    close: char,
    mut write_item: F,
) where
    I: ExactSizeIterator,
    F: FnMut(I::Item, usize, &mut String),
{
    out.push(open);
    let empty = items.len() == 0;
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        write_item(item, depth + 1, out);
    }
    if !empty {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * depth));
        }
    }
    out.push(close);
}

fn write_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is serde_json's lossy default too.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        // `n as i64` would erase the sign of -0.0; keep it so parsing
        // round-trips bit-exactly.
        if n == 0.0 && n.is_sign_negative() {
            out.push_str("-0");
        } else {
            out.push_str(&format!("{}", n as i64));
        }
    } else {
        out.push_str(&format!("{n}"));
    }
}

fn write_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> Error {
        Error {
            message: format!("{message} at byte {}", self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), Error> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", expected as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected `{lit}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null").map(|()| Value::Null),
            Some(b't') => self.eat_literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat_literal("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_seq(),
            Some(b'{') => self.parse_map(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.error("expected JSON value")),
        }
    }

    fn parse_seq(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of ordinary bytes up to the next quote or
                    // backslash. Both are ASCII, so neither can sit inside a
                    // multi-byte sequence, and validating run by run keeps
                    // the parse linear in the document size.
                    let bytes = self.bytes;
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&bytes[start..self.pos]).map_err(|e| {
                        self.pos = start + e.valid_up_to();
                        self.error("invalid UTF-8 in string")
                    })?;
                    out.push_str(run);
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_collections() {
        let v: Vec<f64> = vec![1.0, -2.5, 3e-4];
        let json = to_string(&v).unwrap();
        let back: Vec<f64> = from_str(&json).unwrap();
        assert_eq!(v, back);

        let s = String::from("line1\n\"quoted\" \\ tab\t");
        let back: String = from_str(&to_string(&s).unwrap()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn pretty_output_is_parseable() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("case9".into())),
            (
                "sizes".into(),
                Value::Seq(vec![Value::Num(9.0), Value::Num(14.0)]),
            ),
            ("empty".into(), Value::Seq(vec![])),
        ]);
        let pretty = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back);
        assert!(pretty.contains("\n  \"name\": \"case9\""));
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&0.5f64).unwrap(), "0.5");
    }

    #[test]
    fn non_finite_floats_roundtrip_bitwise() {
        let v: Vec<f64> = vec![f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -0.0, 1.5];
        let json = to_string(&v).unwrap();
        assert_eq!(json, r#"["inf","-inf","nan",-0,1.5]"#);
        let back: Vec<f64> = from_str(&json).unwrap();
        assert_eq!(v.len(), back.len());
        for (a, b) in v.iter().zip(&back) {
            // NaN payload is canonicalized; sign/class and finite bits must hold.
            if a.is_nan() {
                assert!(b.is_nan());
            } else {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn fixed_arrays_and_durations_roundtrip() {
        let arrays: Vec<[f64; 3]> = vec![[1.0, -2.0, 0.25], [1e-17, 3.0, -0.0]];
        let back: Vec<[f64; 3]> = from_str(&to_string(&arrays).unwrap()).unwrap();
        for (a, b) in arrays.iter().zip(&back) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let short: Result<[f64; 3], _> = from_str("[1,2]");
        assert!(short.is_err());

        let d = std::time::Duration::new(7, 123_456_789);
        let back: std::time::Duration = from_str(&to_string(&d).unwrap()).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn multi_byte_code_points_roundtrip() {
        // 2-, 3- and 4-byte sequences, next to escapes and to each other.
        let s = String::from("é ρ̃ \"→\" 日本\\ 🦀🦀 ascii");
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(s, back);
        let map: Value = from_str("{\"ключ\": [\"值\", \"𝛌\"]}").unwrap();
        assert_eq!(
            map,
            Value::Map(vec![(
                "ключ".into(),
                Value::Seq(vec![Value::Str("值".into()), Value::Str("𝛌".into())])
            )])
        );
    }

    #[test]
    fn malformed_utf8_in_a_string_is_an_error_not_a_panic() {
        let parse = |bytes: &[u8]| Parser { bytes, pos: 0 }.parse_string();
        // Sanity: the same helper accepts a well-formed 3-byte sequence.
        assert_eq!(parse(b"\"\xe2\x86\x92\"").unwrap(), "→");
        // A 4-byte sequence cut off by the end of input.
        let err = parse(b"\"ok \xf0\x9f\xa6").unwrap_err();
        assert!(err.message.contains("invalid UTF-8 in string at byte 4"));
        // A 3-byte lead followed by a non-continuation byte.
        assert!(parse(b"\"\xe2\x28\xa1\"").is_err());
        // A lone continuation byte, and a multi-byte sequence split by the
        // closing quote.
        assert!(parse(b"\"a\x80b\"").is_err());
        assert!(parse(b"\"\xc3\"").is_err());
        // Valid text that simply never closes.
        let err = parse("\"日本".as_bytes()).unwrap_err();
        assert!(err.message.contains("unterminated string"));
    }

    #[test]
    fn options_and_tuples() {
        let v: (usize, String) = (3, "x".into());
        let back: (usize, String) = from_str(&to_string(&v).unwrap()).unwrap();
        assert_eq!(v, back);
        let none: Option<f64> = from_str("null").unwrap();
        assert_eq!(none, None);
    }
}
