//! Shared hand-rolled JSON reader/writer for the EARTH-C toolchain.
//!
//! The workspace builds offline (no serde), so every machine-readable
//! surface — diagnostics ([`crate::diag`]), execution profiles
//! (`earth-profile`), pass reports (`earth-pass`), and the `earthd`
//! wire protocol (`earth-serve`) — encodes to JSON by hand. This module
//! is the one implementation they all share: a writer with full
//! string-escape handling (including the control characters
//! `U+0000`–`U+001F`, which the pre-extraction emitters each
//! re-implemented and none round-trip-tested) and a small
//! recursive-descent reader producing a [`Value`] tree.
//!
//! The encoding is deliberately minimal but is a strict subset of JSON:
//! anything this module writes, any JSON parser reads, and
//! [`parse`] → [`Value::render`] → [`parse`] is the identity on the
//! supported shapes.
//!
//! # Examples
//!
//! ```
//! use earth_ir::json::{self, Value};
//!
//! let v = json::parse(r#"{"name":"tab\there","hits":3,"sub":[1,-2,true,null]}"#).unwrap();
//! let obj = v.as_object("request").unwrap();
//! use earth_ir::json::ObjectExt as _;
//! assert_eq!(obj.get_str("name").unwrap(), "tab\there");
//! assert_eq!(obj.get_u64("hits").unwrap(), 3);
//! // Control characters survive a full round trip.
//! let s = json::string("\u{0000}\u{001f}\"\\");
//! assert_eq!(s, "\"\\u0000\\u001f\\\"\\\\\"");
//! assert_eq!(json::parse(&s).unwrap(), Value::Str("\u{0000}\u{001f}\"\\".into()));
//! ```

use std::fmt;

/// A JSON parse or shape error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset of the problem, when known.
    pub offset: Option<usize>,
}

impl JsonError {
    /// A shape (wrong-type / missing-field) error with no position.
    pub fn shape(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "JSON error at byte {o}: {}", self.message),
            None => write!(f, "JSON error: {}", self.message),
        }
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
///
/// Numbers are split into [`Value::Int`] (integer literals that fit an
/// `i64`) and [`Value::Float`] (everything else), so the integer
/// counters the toolchain exchanges round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal representable as `i64`.
    Int(i64),
    /// Any other numeric literal.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source field order (duplicate keys are kept).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object's fields, or a shape error naming `what`.
    pub fn as_object(&self, what: &str) -> Result<&[(String, Value)], JsonError> {
        match self {
            Value::Object(fields) => Ok(fields),
            _ => Err(JsonError::shape(format!("{what} must be an object"))),
        }
    }

    /// The object's fields by value, or a shape error naming `what`, so
    /// that [`ObjectExt::take_str`] can move strings out of a document
    /// the caller owns.
    pub fn into_object(self, what: &str) -> Result<Vec<(String, Value)>, JsonError> {
        match self {
            Value::Object(fields) => Ok(fields),
            _ => Err(JsonError::shape(format!("{what} must be an object"))),
        }
    }

    /// The array's items, or a shape error naming `what`.
    pub fn as_array(&self, what: &str) -> Result<&[Value], JsonError> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(JsonError::shape(format!("{what} must be an array"))),
        }
    }

    /// The string's contents, or a shape error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(JsonError::shape(format!("{what} must be a string"))),
        }
    }

    /// The value as a `u64`, or a shape error naming `what`.
    pub fn as_u64(&self, what: &str) -> Result<u64, JsonError> {
        match self {
            Value::Int(n) if *n >= 0 => Ok(*n as u64),
            _ => Err(JsonError::shape(format!(
                "{what} must be a non-negative integer"
            ))),
        }
    }

    /// Serializes this value back to compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(x) => out.push_str(&float(*x)),
            Value::Str(s) => push_string(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Typed field access over an object's `(key, value)` slice.
pub trait ObjectExt {
    /// The raw value of `key`, if present (first occurrence).
    fn field(&self, key: &str) -> Option<&Value>;
    /// The string field `key`.
    fn get_str(&self, key: &str) -> Result<String, JsonError>;
    /// The string field `key`, moved out (the field is left empty): what
    /// a decoder that owns the document uses for a source text or an IR
    /// dump instead of cloning it.
    fn take_str(&mut self, key: &str) -> Result<String, JsonError>;
    /// The non-negative integer field `key` as `u64`.
    fn get_u64(&self, key: &str) -> Result<u64, JsonError>;
    /// The non-negative integer field `key` as `u32`.
    fn get_u32(&self, key: &str) -> Result<u32, JsonError>;
    /// The integer field `key` as `i64`.
    fn get_i64(&self, key: &str) -> Result<i64, JsonError>;
    /// The numeric field `key` as `f64` (integers widen).
    fn get_f64(&self, key: &str) -> Result<f64, JsonError>;
    /// The boolean field `key`.
    fn get_bool(&self, key: &str) -> Result<bool, JsonError>;
    /// The array field `key`.
    fn get_array(&self, key: &str) -> Result<&[Value], JsonError>;
}

impl ObjectExt for [(String, Value)] {
    fn field(&self, key: &str) -> Option<&Value> {
        self.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get_str(&self, key: &str) -> Result<String, JsonError> {
        match self.field(key) {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(JsonError::shape(format!("`{key}` must be a string"))),
        }
    }

    fn take_str(&mut self, key: &str) -> Result<String, JsonError> {
        match self.iter_mut().find(|(k, _)| k == key) {
            Some((_, Value::Str(s))) => Ok(std::mem::take(s)),
            _ => Err(JsonError::shape(format!("`{key}` must be a string"))),
        }
    }

    fn get_u64(&self, key: &str) -> Result<u64, JsonError> {
        match self.field(key) {
            Some(Value::Int(n)) if *n >= 0 => Ok(*n as u64),
            _ => Err(JsonError::shape(format!(
                "`{key}` must be a non-negative integer"
            ))),
        }
    }

    fn get_u32(&self, key: &str) -> Result<u32, JsonError> {
        match self.get_u64(key)? {
            n if n <= u32::MAX as u64 => Ok(n as u32),
            _ => Err(JsonError::shape(format!("`{key}` must be a u32"))),
        }
    }

    fn get_i64(&self, key: &str) -> Result<i64, JsonError> {
        match self.field(key) {
            Some(Value::Int(n)) => Ok(*n),
            _ => Err(JsonError::shape(format!("`{key}` must be an integer"))),
        }
    }

    fn get_f64(&self, key: &str) -> Result<f64, JsonError> {
        match self.field(key) {
            Some(Value::Float(x)) => Ok(*x),
            Some(Value::Int(n)) => Ok(*n as f64),
            _ => Err(JsonError::shape(format!("`{key}` must be a number"))),
        }
    }

    fn get_bool(&self, key: &str) -> Result<bool, JsonError> {
        match self.field(key) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(JsonError::shape(format!("`{key}` must be a boolean"))),
        }
    }

    fn get_array(&self, key: &str) -> Result<&[Value], JsonError> {
        match self.field(key) {
            Some(Value::Array(items)) => Ok(items),
            _ => Err(JsonError::shape(format!("`{key}` must be an array"))),
        }
    }
}

/// Serializes a string as a quoted JSON string literal, escaping `"`,
/// `\`, and every control character in `U+0000`–`U+001F`.
pub fn string(s: &str) -> String {
    let mut out = String::new();
    push_string(&mut out, s);
    out
}

/// Appends the escaped, quoted form of `s` to `out` (allocation-free
/// form of [`string`]). Runs of characters that need no escape are
/// copied whole: every escaped byte is ASCII, so each run is a checked
/// `&s[start..i]` slice.
pub fn push_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Serializes a float as a JSON number literal. Finite values always
/// carry a decimal point or exponent (so they re-parse as
/// [`Value::Float`]); non-finite values, which JSON cannot represent,
/// are written as `null`.
pub fn float(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Incremental writer for a JSON object: `{"k":v,...}` with correct
/// commas and escaping. [`Obj::raw`] splices an already-encoded value
/// (a nested object, an array built elsewhere) without re-escaping.
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
    n: usize,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Obj {
            buf: String::from("{"),
            n: 0,
        }
    }

    fn key(&mut self, k: &str) {
        if self.n > 0 {
            self.buf.push(',');
        }
        self.n += 1;
        push_string(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        push_string(&mut self.buf, v);
        self
    }

    /// Adds an unsigned-integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a signed-integer field.
    pub fn i64(mut self, k: &str, v: i64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a float field (see [`float`] for the encoding).
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        self.buf.push_str(&float(v));
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-encoded JSON.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Adds an optional string field (`null` when absent).
    pub fn opt_str(mut self, k: &str, v: Option<&str>) -> Self {
        self.key(k);
        match v {
            Some(s) => push_string(&mut self.buf, s),
            None => self.buf.push_str("null"),
        }
        self
    }

    /// Adds a string-array field.
    pub fn str_array(mut self, k: &str, items: &[String]) -> Self {
        self.key(k);
        self.buf.push('[');
        for (i, s) in items.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            push_string(&mut self.buf, s);
        }
        self.buf.push(']');
        self
    }

    /// Closes the object and returns the encoded JSON.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Parses a complete JSON document (trailing data is an error).
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first problem.
pub fn parse(src: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

/// Nesting bound: the reader is used on untrusted daemon input, so a
/// deeply-nested document must not blow the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: Some(self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &'static [u8], v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'n') => self.literal(b"null", Value::Null),
            Some(b't') => self.literal(b"true", Value::Bool(true)),
            Some(b'f') => self.literal(b"false", Value::Bool(false)),
            Some(b) if b.is_ascii_digit() || b == b'-' => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        if !fractional {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("malformed number"))
    }

    /// Decodes a string literal a run at a time: everything up to the
    /// next `"` or `\` is appended whole. Both delimiters are ASCII, so
    /// a run always starts and ends on a character boundary of `src`.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            self.pos = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(self.bytes.len(), |run| start + run);
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => out.push(self.unicode_escape()?),
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    /// The four hex digits after the `u` at `at`.
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        let err = |message| JsonError {
            message: String::from(message),
            offset: Some(at),
        };
        let digits = self
            .bytes
            .get(at + 1..at + 5)
            .ok_or_else(|| err("truncated \\u escape"))?;
        digits.iter().try_fold(0, |cp, &d| {
            let digit = char::from(d)
                .to_digit(16)
                .ok_or_else(|| err("bad \\u escape"))?;
            Ok((cp << 4) | digit)
        })
    }

    /// Decodes the `\uXXXX` whose `u` is at `pos`, leaving `pos` on the
    /// escape's last digit. A high surrogate must be followed by a
    /// `\uXXXX` low surrogate (the pair is how `ensure_ascii` encoders
    /// write a character beyond U+FFFF); a lone surrogate is an error at
    /// its own `u`.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let mut cp = self.hex4(self.pos)?;
        let mut last = self.pos + 4;
        if (0xd800..0xdc00).contains(&cp) && self.bytes[last + 1..].starts_with(b"\\u") {
            let low = self.hex4(last + 2)?;
            if (0xdc00..0xe000).contains(&low) {
                cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
                last += 6;
            }
        }
        let c = char::from_u32(cp).ok_or_else(|| self.err("bad \\u code point"))?;
        self.pos = last;
        Ok(c)
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }
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
            "-42",
            "9007199254740993",
            "1.5",
            "-0.25",
            "\"\"",
            "\"plain\"",
            "[]",
            "[1,2,3]",
            "{}",
            "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}",
        ];
        for src in cases {
            let v = parse(src).unwrap();
            assert_eq!(v.render(), src, "render of {src}");
            assert_eq!(parse(&v.render()).unwrap(), v, "re-parse of {src}");
        }
    }

    #[test]
    fn control_characters_round_trip() {
        // Every control character, plus the classic escapes.
        let mut s = String::new();
        for cp in 0u32..0x20 {
            s.push(char::from_u32(cp).unwrap());
        }
        s.push_str("\" \\ / λ → 🚀");
        let enc = string(&s);
        // The encoding never contains a raw control character.
        assert!(enc.chars().all(|c| (c as u32) >= 0x20), "{enc:?}");
        assert_eq!(parse(&enc).unwrap(), Value::Str(s));
    }

    #[test]
    fn floats_reparse_as_floats() {
        for x in [0.0, 1.0, -3.0, 0.5, 1e300, -2.25] {
            let enc = float(x);
            match parse(&enc).unwrap() {
                Value::Float(y) => assert_eq!(x, y, "{enc}"),
                other => panic!("{enc} parsed as {other:?}"),
            }
        }
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::INFINITY), "null");
    }

    #[test]
    fn integers_outside_i64_become_floats() {
        match parse("18446744073709551615").unwrap() {
            Value::Float(_) => {}
            other => panic!("expected float, got {other:?}"),
        }
        assert_eq!(parse("9223372036854775807").unwrap(), Value::Int(i64::MAX));
    }

    #[test]
    fn object_builder_matches_parser() {
        let enc = Obj::new()
            .str("name", "tab\there")
            .u64("hits", 3)
            .i64("delta", -7)
            .f64("ratio", 0.5)
            .bool("ok", true)
            .opt_str("missing", None)
            .raw("nested", "[1,2]")
            .str_array("lines", &["a".into(), "b\nc".into()])
            .finish();
        let v = parse(&enc).unwrap();
        let obj = v.as_object("built").unwrap();
        assert_eq!(obj.get_str("name").unwrap(), "tab\there");
        assert_eq!(obj.get_u64("hits").unwrap(), 3);
        assert_eq!(obj.get_i64("delta").unwrap(), -7);
        assert_eq!(obj.get_f64("ratio").unwrap(), 0.5);
        assert!(obj.get_bool("ok").unwrap());
        assert_eq!(obj.field("missing"), Some(&Value::Null));
        assert_eq!(obj.get_array("nested").unwrap().len(), 2);
        assert_eq!(obj.get_array("lines").unwrap().len(), 2);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "", "{", "[", "\"", "{\"a\"}", "{\"a\":}", "[1,]", "01x", "nul", "tru", "--1", "1.2.3",
            "[1] []",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(4096) + &"]".repeat(4096);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(64) + &"]".repeat(64);
        assert!(parse(&ok).is_ok());
    }
}
