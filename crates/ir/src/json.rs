//! Shared JSON reader, writer and codec for the EARTH-C toolchain.
//!
//! The workspace builds offline (no serde), so every machine-readable
//! surface — diagnostics ([`crate::diag`]), execution profiles
//! (`earth-profile`), pass reports (`earth-pass`), and the `earthd`
//! wire protocol (`earth-serve`) — is encoded by this module: a writer
//! with full string-escape handling (including the control characters
//! `U+0000`–`U+001F`), a small recursive-descent reader producing a
//! [`Value`] tree, and a codec on top of both.
//!
//! The codec is two traits, [`Encode`] (write into a caller's `String`)
//! and [`Json`] (read back from an owned [`Value`], so strings move out
//! of the document instead of being copied), with impls for the
//! scalars, strings, options, sequences and string-keyed maps, plus
//! [`json_codec!`](crate::json_codec), which declares the fields of a
//! record or of an enum's variants once and derives both directions.
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
//!
//! A record declared once, both ways:
//!
//! ```
//! use earth_ir::json;
//!
//! #[derive(Debug, PartialEq)]
//! struct Hit {
//!     name: String,
//!     count: u64,
//!     tag: Option<String>,
//! }
//! earth_ir::json_codec!(struct Hit { name, count = 1, tag: skip });
//!
//! let hit = Hit { name: "a\"b".into(), count: 3, tag: None };
//! assert_eq!(json::encode(&hit), r#"{"name":"a\"b","count":3}"#);
//! assert_eq!(json::decode::<Hit>(r#"{"name":"a\"b","count":3}"#, "hit").unwrap(), hit);
//! // A missing `count` takes its default; a missing `name` is an error.
//! assert_eq!(json::decode::<Hit>(r#"{"name":""}"#, "hit").unwrap().count, 1);
//! assert!(json::decode::<Hit>(r#"{"count":2}"#, "hit").is_err());
//! ```

use std::borrow::BorrowMut;
use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt::{self, Write as _};
use std::ops::Range;
use std::str::FromStr;

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
    /// that a decoder can move strings out of a document the caller owns.
    pub fn into_object(self, what: &str) -> Result<Vec<(String, Value)>, JsonError> {
        match self {
            Value::Object(fields) => Ok(fields),
            _ => Err(JsonError::shape(format!("{what} must be an object"))),
        }
    }

    /// The string's contents, or a shape error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, JsonError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(JsonError::shape(format!("{what} must be a string"))),
        }
    }

    /// Serializes this value back to compact JSON.
    pub fn render(&self) -> String {
        encode(self)
    }
}

impl Encode for Value {
    fn encode(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.encode(out),
            Value::Int(n) => n.encode(out),
            Value::Float(x) => x.encode(out),
            Value::Str(s) => s.encode(out),
            Value::Array(items) => items.encode(out),
            Value::Object(fields) => fields.encode(out),
        }
    }
}

/// Typed field access over an object's `(key, value)` slice, for
/// documents read a field at a time rather than through [`Json`].
pub trait ObjectExt {
    /// The raw value of `key`, if present (first occurrence).
    fn field(&self, key: &str) -> Option<&Value>;
    /// The field `key` decoded as a `T` (a copy: the object is borrowed).
    fn get_as<T: Json>(&self, key: &str) -> Result<T, JsonError>;
    /// The string field `key`.
    fn get_str(&self, key: &str) -> Result<String, JsonError> {
        self.get_as(key)
    }
    /// The non-negative integer field `key` as `u64`.
    fn get_u64(&self, key: &str) -> Result<u64, JsonError> {
        self.get_as(key)
    }
    /// The numeric field `key` as `f64` (integers widen).
    fn get_f64(&self, key: &str) -> Result<f64, JsonError> {
        self.get_as(key)
    }
    /// The boolean field `key`.
    fn get_bool(&self, key: &str) -> Result<bool, JsonError> {
        self.get_as(key)
    }
    /// The array field `key`.
    fn get_array(&self, key: &str) -> Result<&[Value], JsonError>;
}

impl ObjectExt for [(String, Value)] {
    fn field(&self, key: &str) -> Option<&Value> {
        self.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get_as<T: Json>(&self, key: &str) -> Result<T, JsonError> {
        match self.field(key) {
            Some(v) => T::decode(v.clone(), key),
            None => T::missing(key),
        }
    }

    fn get_array(&self, key: &str) -> Result<&[Value], JsonError> {
        match self.field(key) {
            Some(Value::Array(items)) => Ok(items),
            _ => Err(wrong(key, "an array")),
        }
    }
}

/// Serializes a string as a quoted JSON string literal, escaping `"`,
/// `\`, and every control character in `U+0000`–`U+001F`.
pub fn string(s: &str) -> String {
    encode(s)
}

/// Appends the escaped, quoted form of `s` to `out` (allocation-free
/// form of [`string`]).
pub fn push_string(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends `s` escaped, without quotes. Runs of characters that need no
/// escape are copied whole: every escaped byte is ASCII, so each run is
/// a checked `&s[start..i]` slice.
fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
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
/// commas and escaping. It owns its buffer ([`Obj::new`] …
/// [`Obj::finish`]) or appends to a caller's ([`Obj::open`] …
/// [`Obj::close`]), which is how the codec writes a nested object
/// straight into its parent. [`Obj::raw`] splices an already-encoded
/// value without re-escaping.
#[derive(Debug, Default)]
pub struct Obj<B = String> {
    buf: B,
    n: usize,
}

impl Obj {
    /// Starts an empty object in a buffer of its own.
    pub fn new() -> Self {
        Obj {
            buf: String::from("{"),
            n: 0,
        }
    }

    /// Closes the object and returns the encoded JSON.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl<'a> Obj<&'a mut String> {
    /// Starts an object at the end of `out`.
    pub fn open(out: &'a mut String) -> Self {
        out.push('{');
        Obj { buf: out, n: 0 }
    }

    /// Closes the object.
    pub fn close(self) {
        self.buf.push('}');
    }
}

impl<B: BorrowMut<String>> Obj<B> {
    /// Writes the separator and `"k":`, and returns the buffer for the
    /// value.
    fn key(&mut self, k: &str) -> &mut String {
        let buf = self.buf.borrow_mut();
        if self.n > 0 {
            buf.push(',');
        }
        self.n += 1;
        push_string(buf, k);
        buf.push(':');
        buf
    }

    /// Adds a field of any encodable type.
    pub fn field<T: Encode + ?Sized>(mut self, k: &str, v: &T) -> Self {
        v.encode(self.key(k));
        self
    }

    /// Adds a string field.
    pub fn str(self, k: &str, v: &str) -> Self {
        self.field(k, v)
    }

    /// Adds an unsigned-integer field.
    pub fn u64(self, k: &str, v: u64) -> Self {
        self.field(k, &v)
    }

    /// Adds a float field (see [`float`] for the encoding).
    pub fn f64(self, k: &str, v: f64) -> Self {
        self.field(k, &v)
    }

    /// Adds a boolean field.
    pub fn bool(self, k: &str, v: bool) -> Self {
        self.field(k, &v)
    }

    /// Adds a field whose value is already-encoded JSON.
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k).push_str(v);
        self
    }

    /// Adds a string-array field.
    pub fn str_array(self, k: &str, items: &[String]) -> Self {
        self.field(k, items)
    }
}

/// A value that writes its JSON encoding into a caller's buffer.
pub trait Encode {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut String);
}

/// A value with one JSON encoding: written by [`Encode`], read back
/// here from a document the caller owns, so strings are moved out of it
/// rather than copied.
pub trait Json: Encode + Sized {
    /// Decodes `v`; `what` names it in errors (a field's key, or the
    /// document).
    fn decode(v: Value, what: &str) -> Result<Self, JsonError>;

    /// The value of a field the object lacks: an error, except for an
    /// [`Option`].
    fn missing(what: &str) -> Result<Self, JsonError> {
        Err(JsonError::shape(format!("missing `{what}`")))
    }
}

/// Encodes `v` into a new string.
pub fn encode<T: Encode + ?Sized>(v: &T) -> String {
    let mut out = String::new();
    v.encode(&mut out);
    out
}

/// Parses `src` and decodes it as a `T`; `what` names the document in
/// errors.
///
/// # Errors
///
/// A [`JsonError`] for malformed JSON or a document of the wrong shape.
pub fn decode<T: Json>(src: &str, what: &str) -> Result<T, JsonError> {
    T::decode(parse(src)?, what)
}

fn wrong(what: &str, expected: &str) -> JsonError {
    JsonError::shape(format!("`{what}` must be {expected}"))
}

impl Encode for bool {
    fn encode(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! integers {
    ($($t:ty: $expected:literal),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }

        impl Json for $t {
            fn decode(v: Value, what: &str) -> Result<Self, JsonError> {
                match v {
                    Value::Int(n) => <$t>::try_from(n).map_err(|_| wrong(what, $expected)),
                    _ => Err(wrong(what, $expected)),
                }
            }
        }
    )*};
}

integers!(
    u128: "a non-negative integer",
    u64: "a non-negative integer",
    u32: "a non-negative integer that fits u32",
    u16: "a non-negative integer that fits u16",
    i64: "an integer"
);

impl Encode for f64 {
    fn encode(&self, out: &mut String) {
        out.push_str(&float(*self));
    }
}

impl Encode for str {
    fn encode(&self, out: &mut String) {
        push_string(out, self);
    }
}

/// Scalars read from the values of their kind.
macro_rules! scalars {
    ($($t:ty: $($pat:pat => $v:expr),+; $expected:literal)*) => {$(
        impl Json for $t {
            fn decode(v: Value, what: &str) -> Result<Self, JsonError> {
                match v {
                    $($pat => Ok($v),)+
                    _ => Err(wrong(what, $expected)),
                }
            }
        }
    )*};
}

scalars!(
    bool: Value::Bool(b) => b; "a boolean"
    f64: Value::Float(x) => x, Value::Int(n) => n as f64; "a number"
    String: Value::Str(s) => s; "a string"
);

/// Types written as what they dereference to.
macro_rules! encode_as_target {
    ($([$($g:tt)*] $t:ty),*) => {$(
        impl<$($g)*> Encode for $t {
            fn encode(&self, out: &mut String) {
                (**self).encode(out);
            }
        }
    )*};
}

encode_as_target!(
    [T: Encode + ?Sized] &T,
    [T: Encode + ?Sized] Box<T>,
    [] String,
    [T: Encode] Vec<T>,
    [K: fmt::Display, V: Encode] Vec<(K, V)>
);

impl<T: Json> Json for Box<T> {
    fn decode(v: Value, what: &str) -> Result<Self, JsonError> {
        T::decode(v, what).map(Box::new)
    }
}

/// `None` is `null`.
impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(v) => v.encode(out),
            None => out.push_str("null"),
        }
    }
}

/// `null` and a missing field are `None`.
impl<T: Json> Json for Option<T> {
    fn decode(v: Value, what: &str) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            v => T::decode(v, what).map(Some),
        }
    }

    fn missing(_: &str) -> Result<Self, JsonError> {
        Ok(None)
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.encode(out);
        }
        out.push(']');
    }
}

/// Every item is decoded under the array's name.
impl<T: Json> Json for Vec<T> {
    fn decode(v: Value, what: &str) -> Result<Self, JsonError> {
        match v {
            Value::Array(items) => items.into_iter().map(|v| T::decode(v, what)).collect(),
            _ => Err(wrong(what, "an array")),
        }
    }
}

impl<T: Encode, const N: usize> Encode for [T; N] {
    fn encode(&self, out: &mut String) {
        self[..].encode(out);
    }
}

impl<T: Json, const N: usize> Json for [T; N] {
    fn decode(v: Value, what: &str) -> Result<Self, JsonError> {
        Vec::<T>::decode(v, what)?
            .try_into()
            .map_err(|_| JsonError::shape(format!("`{what}` must have {N} items")))
    }
}

/// A string-keyed map, as `(key, value)` pairs in the order they are
/// written. Keys are written with [`fmt::Display`] and read with
/// [`FromStr`], so a key type is any type that round-trips through a
/// string.
impl<K: fmt::Display, V: Encode> Encode for [(K, V)] {
    fn encode(&self, out: &mut String) {
        encode_map(out, self.iter().map(|(k, v)| (k, v)));
    }
}

/// Read in key order, like a [`BTreeMap`].
impl<K: fmt::Display + FromStr + Ord, V: Json> Json for Vec<(K, V)> {
    fn decode(v: Value, what: &str) -> Result<Self, JsonError> {
        BTreeMap::decode(v, what).map(|m| m.into_iter().collect())
    }
}

impl<K: fmt::Display, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut String) {
        encode_map(out, self.iter());
    }
}

/// Every value is decoded under the map's name; a key that appears
/// twice keeps its first value.
impl<K: fmt::Display + FromStr + Ord, V: Json> Json for BTreeMap<K, V> {
    fn decode(v: Value, what: &str) -> Result<Self, JsonError> {
        let Value::Object(fields) = v else {
            return Err(wrong(what, "an object"));
        };
        let mut map = BTreeMap::new();
        for (k, v) in fields {
            let key = k
                .parse()
                .map_err(|_| JsonError::shape(format!("invalid key `{k}` in `{what}`")))?;
            if let Entry::Vacant(slot) = map.entry(key) {
                slot.insert(V::decode(v, what)?);
            }
        }
        Ok(map)
    }
}

fn encode_map<'a, K: fmt::Display + 'a, V: Encode + 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) {
    /// Escapes what `Display` writes, so a key needs no buffer of its own.
    struct Escaped<'a>(&'a mut String);
    impl fmt::Write for Escaped<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            escape_into(self.0, s);
            Ok(())
        }
    }
    out.push('{');
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        let _ = write!(Escaped(out), "{k}");
        out.push_str("\":");
        v.encode(out);
    }
    out.push('}');
}

impl PartialEq<bool> for Value {
    fn eq(&self, c: &bool) -> bool {
        *self == Value::Bool(*c)
    }
}

impl PartialEq<u64> for Value {
    fn eq(&self, c: &u64) -> bool {
        matches!(self, Value::Int(n) if u64::try_from(*n) == Ok(*c))
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, c: &&str) -> bool {
        matches!(self, Value::Str(s) if s == c)
    }
}

/// A type whose encoding is the fields of an object, so that it can
/// also be written into — and read out of — an enclosing object.
/// [`json_codec!`](crate::json_codec) implements it.
pub trait Fields: Sized {
    /// Writes the items whose indices are in `part` into `o`: all of
    /// them (`0..usize::MAX`), or — where a record holds an enum — its
    /// tag (`0..1`) in one place and the rest (`1..usize::MAX`) in
    /// another.
    fn write_fields<'o>(&self, o: Obj<&'o mut String>, part: Range<usize>) -> Obj<&'o mut String>;

    /// Reads this value's fields out of `obj`.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming the field that is missing or mis-shaped.
    fn read_fields(obj: &mut [(String, Value)]) -> Result<Self, JsonError>;
}

/// Declares the JSON encoding of a struct or enum once, and derives
/// [`Fields`], [`json::Encode`](crate::json::Encode) and
/// [`json::Json`](crate::json::Json) from it.
///
/// A declaration lists *items* in the order they are written:
///
/// - `name` — the field `name` under the key `"name"`; missing is an
///   error (except for an `Option`, which reads `None`);
/// - `name = expr` — missing or `null` reads `expr`;
/// - `name: skip` — left out while it equals its `Default`, which is
///   also what missing or `null` reads;
/// - `name: raw` — a `String` holding JSON, spliced in as it is and
///   read back rendered;
/// - `name: flatten` — a [`Fields`] value whose items are written into
///   this object;
/// - `name: head` … `name: rest` — the same, but its first item (an
///   enum's tag) goes where `head` is and the others where `rest` is;
/// - `name: ignore` — never written; reads `Default`;
/// - `"key" = expr` — a constant, written and checked. An enum's
///   variants are told apart by their constants: the first variant whose
///   constants all hold is the one decoded.
///
/// A `#[strict]` declaration refuses unknown keys (others ignore them),
/// and `where check` runs `check(value) -> Result<Self, JsonError>` on
/// every decoded value. A key that appears twice is read at its first
/// occurrence.
///
/// ```
/// use earth_ir::json;
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Line { len: u64 },
/// }
/// earth_ir::json_codec!(enum Shape {
///     Dot { "kind" = "dot" },
///     Line { "kind" = "line", len },
/// });
///
/// let line = Shape::Line { len: 3 };
/// assert_eq!(json::encode(&line), r#"{"kind":"line","len":3}"#);
/// assert_eq!(json::decode::<Shape>(r#"{"len":3,"kind":"line"}"#, "shape").unwrap(), line);
/// let err = json::decode::<Shape>(r#"{"kind":"arc"}"#, "shape").unwrap_err();
/// assert!(err.to_string().contains("unknown kind `arc`"), "{err}");
/// ```
#[macro_export]
macro_rules! json_codec {
    ($(#[$strict:ident])? struct $T:ident $(<$($g:ident),*>)? $(where $check:path)? {
        $($f:tt $(: $mode:ident)? $(= $d:expr)?),* $(,)?
    }) => {
        $crate::json_codec!(@impl $T [$($($g),*)?] [$($check)?] [$($strict)?] false
            (Self) { $($f $(: $mode)? $(= $d)?,)* });
    };
    (enum $T:ident $(where $check:path)? {
        $($V:ident { $($f:tt $(: $mode:ident)? $(= $d:expr)?),* $(,)? }),* $(,)?
    }) => {
        $crate::json_codec!(@impl $T [] [$($check)?] [] true
            $( (Self::$V) { $($f $(: $mode)? $(= $d)?,)* } )*);
    };

    // A struct is an enum of one variant, `Self`, whose constants are not
    // tags.
    (@impl $T:ident [$($g:ident),*] [$($check:path)?] [$($strict:ident)?] $tag:literal $(
        ($($V:tt)*) { $($f:tt $(: $mode:ident)? $(= $d:expr)?,)* }
    )*) => {
        impl<$($g),*> $crate::json::Fields for $T<$($g),*> {
            fn write_fields<'o>(
                &self,
                mut o: $crate::json::Obj<&'o mut String>,
                part: std::ops::Range<usize>,
            ) -> $crate::json::Obj<&'o mut String> {
                match self {$(
                    $crate::json_codec!(@bind pat ($($V)*) []; $($f $(: $mode)?,)*) => {
                        let mut i = 0;
                        $(
                            if part.contains(&i) {
                                o = $crate::json_codec!(@put o $f $(: $mode)? $(= $d)?);
                            }
                            i += 1;
                        )*
                        let _ = i;
                    }
                )*}
                o
            }

            fn read_fields(
                obj: &mut [(String, $crate::json::Value)],
            ) -> Result<Self, $crate::json::JsonError> {
                let check: fn(Self) -> Result<Self, $crate::json::JsonError> = $crate::json_codec!(@or $($check)?);
                let known = [$($($crate::json_codec!(@key $f),)*)*];
                $crate::json::strict(obj, $crate::json_codec!(@on $($strict)?), &known)?;
                $(
                    if true $(&& $crate::json_codec!(@is obj $f $(= $d)?))* {
                        $( $crate::json_codec!(@get obj $f $(: $mode)? $(= $d)?); )*
                        return check($crate::json_codec!(@bind new ($($V)*) []; $($f $(: $mode)?,)*));
                    }
                )*
                // No variant's constants hold: the last mismatch says why.
                #[allow(unused_mut)]
                let mut why = $crate::json::JsonError::shape("no variant");
                $($( $crate::json_codec!(@why why obj $tag $f $(= $d)?); )*)*
                Err(why)
            }
        }

        impl<$($g),*> $crate::json::Encode for $T<$($g),*> {
            fn encode(&self, out: &mut String) {
                let o = $crate::json::Obj::open(out);
                $crate::json::Fields::write_fields(self, o, 0..usize::MAX).close();
            }
        }

        impl<$($g),*> $crate::json::Json for $T<$($g),*> {
            fn decode(
                v: $crate::json::Value,
                what: &str,
            ) -> Result<Self, $crate::json::JsonError> {
                $crate::json::Fields::read_fields(&mut v.into_object(what)?)
            }
        }
    };

    // Writing one item, through the variant's bindings.
    (@put $o:ident $k:literal = $c:expr) => { $o.field($k, &$c) };
    (@put $o:ident $f:ident : skip) => {
        if *$f == Default::default() { $o } else { $o.field(stringify!($f), $f) }
    };
    (@put $o:ident $f:ident : raw) => { $o.raw(stringify!($f), $f) };
    (@put $o:ident $f:ident : ignore) => { $o };
    (@put $o:ident $f:ident : flatten) => { $crate::json::Fields::write_fields($f, $o, 0..usize::MAX) };
    (@put $o:ident $f:ident : head) => { $crate::json::Fields::write_fields($f, $o, 0..1) };
    (@put $o:ident $f:ident : rest) => { $crate::json::Fields::write_fields($f, $o, 1..usize::MAX) };
    (@put $o:ident $f:ident $(= $d:expr)?) => { $o.field(stringify!($f), $f) };

    // Reading one item into a local of the field's name.
    (@get $obj:ident $k:literal = $c:expr) => {};
    (@get $obj:ident $f:ident : skip) => {
        let $f = $crate::json::read_or($obj, stringify!($f), Default::default)?;
    };
    (@get $obj:ident $f:ident : raw) => { let $f = $crate::json::read_raw($obj, stringify!($f))?; };
    (@get $obj:ident $f:ident : ignore) => { let $f = Default::default(); };
    (@get $obj:ident $f:ident : rest) => {};
    (@get $obj:ident $f:ident : $flatten:ident) => { let $f = $crate::json::Fields::read_fields($obj)?; };
    (@get $obj:ident $f:ident = $d:expr) => { let $f = $crate::json::read_or($obj, stringify!($f), || $d)?; };
    (@get $obj:ident $f:ident) => { let $f = $crate::json::read($obj, stringify!($f))?; };

    // Constants: tested, and explained when none of the variants fits.
    (@is $obj:ident $k:literal = $c:expr) => { $crate::json::field_is($obj, $k, &$c) };
    (@is $obj:ident $f:ident $(= $d:expr)?) => { true };
    (@why $w:ident $obj:ident $tag:literal $k:literal = $c:expr) => {
        if let Err(e) = $crate::json::constant($obj, $k, $c, $tag) { $w = e; }
    };
    (@why $w:ident $obj:ident $tag:literal $f:ident $(= $d:expr)?) => {};
    (@or) => { Ok };
    (@or $check:path) => { $check };
    (@on) => { false };
    (@on strict) => { true };
    (@key $k:literal) => { $k };
    (@key $f:ident) => { stringify!($f) };

    // A variant's fields, bound (`pat`) or built (`new`): constants and a
    // `rest` (its `head` names the field) are not fields.
    (@bind pat ($($p:tt)*) [$($x:ident)*];) => { $($p)* { $($x,)* .. } };
    (@bind new ($($p:tt)*) [$($x:ident)*];) => { $($p)* { $($x),* } };
    (@bind $b:ident $p:tt [$($x:ident)*]; $k:literal, $($t:tt)*) => {
        $crate::json_codec!(@bind $b $p [$($x)*]; $($t)*)
    };
    (@bind $b:ident $p:tt [$($x:ident)*]; $f:ident : rest, $($t:tt)*) => {
        $crate::json_codec!(@bind $b $p [$($x)*]; $($t)*)
    };
    (@bind $b:ident $p:tt [$($x:ident)*]; $f:ident $(: $m:ident)?, $($t:tt)*) => {
        $crate::json_codec!(@bind $b $p [$($x)* $f]; $($t)*)
    };
}

// What `json_codec!` expands to calls. Public for the expansion's sake
// only.

/// Moves the first occurrence of `key` out of `obj`.
fn take(obj: &mut [(String, Value)], key: &str) -> Option<Value> {
    let (_, v) = obj.iter_mut().find(|(k, _)| k == key)?;
    Some(std::mem::replace(v, Value::Null))
}

#[doc(hidden)]
pub fn read<T: Json>(obj: &mut [(String, Value)], key: &str) -> Result<T, JsonError> {
    match take(obj, key) {
        Some(v) => T::decode(v, key),
        None => T::missing(key),
    }
}

#[doc(hidden)]
pub fn read_or<T: Json>(
    obj: &mut [(String, Value)],
    key: &str,
    default: impl FnOnce() -> T,
) -> Result<T, JsonError> {
    match take(obj, key) {
        None | Some(Value::Null) => Ok(default()),
        Some(v) => T::decode(v, key),
    }
}

#[doc(hidden)]
pub fn read_raw(obj: &mut [(String, Value)], key: &str) -> Result<String, JsonError> {
    let raw = obj.field(key).map(Value::render);
    raw.ok_or_else(|| JsonError::shape(format!("missing `{key}`")))
}

#[doc(hidden)]
pub fn field_is<C>(obj: &[(String, Value)], key: &str, c: &C) -> bool
where
    Value: PartialEq<C>,
{
    obj.field(key).is_some_and(|v| v == c)
}

/// Checks the constant `key`: an enum's tag (`tag`) that matches no
/// variant is unknown; a record's constant that does not match is
/// unsupported.
#[doc(hidden)]
pub fn constant<C: Encode>(
    obj: &[(String, Value)],
    key: &str,
    c: C,
    tag: bool,
) -> Result<(), JsonError>
where
    Value: PartialEq<C>,
{
    let found = match obj.field(key) {
        None => return Err(JsonError::shape(format!("missing `{key}`"))),
        Some(v) if *v == c => return Ok(()),
        Some(Value::Str(s)) => s.clone(),
        Some(v) => v.render(),
    };
    Err(JsonError::shape(if tag {
        format!("unknown {key} `{found}`")
    } else {
        format!("unsupported {key} {found} (expected {})", encode(&c))
    }))
}

/// Refuses a key that is not among `keys` when `on` (`#[strict]`).
#[doc(hidden)]
pub fn strict(obj: &[(String, Value)], on: bool, keys: &[&str]) -> Result<(), JsonError> {
    match obj.iter().find(|(k, _)| on && !keys.contains(&k.as_str())) {
        Some((k, _)) => Err(JsonError::shape(format!("unknown key `{k}`"))),
        None => Ok(()),
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
            .field("delta", &-7i64)
            .f64("ratio", 0.5)
            .bool("ok", true)
            .field("missing", &None::<String>)
            .raw("nested", "[1,2]")
            .str_array("lines", &["a".into(), "b\nc".into()])
            .finish();
        let v = parse(&enc).unwrap();
        let obj = v.as_object("built").unwrap();
        assert_eq!(obj.get_str("name").unwrap(), "tab\there");
        assert_eq!(obj.get_u64("hits").unwrap(), 3);
        assert_eq!(obj.get_as::<i64>("delta").unwrap(), -7);
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
