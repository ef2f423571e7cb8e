//! A small JSON document model with a writer and a recursive-descent
//! parser.
//!
//! Design notes:
//!
//! - **Object key order is preserved** (objects are association lists, not
//!   maps), so written files are stable and diff-able.
//! - **Numbers are `f64`.** Every integer the workspace serializes (shapes,
//!   ids, counts) is far below 2^53, and `f32` payloads round-trip exactly
//!   through `f64`.
//! - **Non-finite floats round-trip.** Strict JSON has no encoding for
//!   `NaN`/`±∞`; this module writes the literals `NaN`, `Infinity`, and
//!   `-Infinity` and accepts them back (the same extension Python's `json`
//!   uses). Checkpoints must not silently corrupt a diverged training run's
//!   weights, so fidelity beats strictness here.
//! - **Errors carry byte offsets** so corrupt files point at the problem.

use std::fmt;

/// A parsed or constructed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers are represented exactly up to 2^53.
    Num(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with preserved key order.
    Object(Vec<(String, Json)>),
}

/// A parse or extraction failure, with the byte offset where parsing
/// failed (0 for extraction errors).
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input where the error occurred.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    fn new(message: impl Into<String>, offset: usize) -> Self {
        JsonError { message: message.into(), offset }
    }

    /// An extraction (not parse) error.
    pub fn schema(message: impl Into<String>) -> Self {
        JsonError::new(message, 0)
    }
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

impl Json {
    /// Parses a JSON document; the whole input must be consumed.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new("trailing characters after JSON document", p.pos));
        }
        Ok(v)
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is an integral number
    /// that fits.
    pub fn as_usize(&self) -> Option<usize> {
        match *self {
            Json::Num(n) if n >= 0.0 && n <= 2f64.powi(53) && n.fract() == 0.0 => Some(n as usize),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an object's entry list, if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// First value under `key`, when this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Typed extraction of a required object field.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, JsonError> {
        let v = self.get(key).ok_or_else(|| JsonError::schema(format!("missing field '{key}'")))?;
        T::from_json(v).map_err(|e| JsonError::schema(format!("field '{key}': {}", e.message)))
    }

    /// The path of every non-finite number in the document, in document
    /// order: `$` is the root, `.key` an object field and `[i]` an array
    /// element (`$.sizes[2].qps`). Bench bins check their artifact with
    /// this before exiting, since the writer emits `NaN`/`Infinity`
    /// literals rather than failing.
    pub fn non_finite_paths(&self) -> Vec<String> {
        fn walk(v: &Json, path: &mut String, out: &mut Vec<String>) {
            let len = path.len();
            match v {
                Json::Num(n) if !n.is_finite() => out.push(path.clone()),
                Json::Array(items) => {
                    for (i, item) in items.iter().enumerate() {
                        path.push_str(&format!("[{i}]"));
                        walk(item, path, out);
                        path.truncate(len);
                    }
                }
                Json::Object(entries) => {
                    for (k, item) in entries {
                        path.push('.');
                        path.push_str(k);
                        walk(item, path, out);
                        path.truncate(len);
                    }
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        walk(self, &mut "$".to_string(), &mut out);
        out
    }

    fn write<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            Json::Num(n) => write_number(*n, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.write_char('[')?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    v.write(out)?;
                }
                out.write_char(']')
            }
            Json::Object(entries) => {
                out.write_char('{')?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_escaped(k, out)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

/// Compact JSON, streamed into the formatter; `to_string()` serializes.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

fn write_number<W: fmt::Write>(n: f64, out: &mut W) -> fmt::Result {
    if n.is_nan() {
        out.write_str("NaN")
    } else if n == f64::INFINITY {
        out.write_str("Infinity")
    } else if n == f64::NEG_INFINITY {
        out.write_str("-Infinity")
    } else {
        // Rust's shortest round-trip formatting; integral values print
        // without a fraction ("3"), which stays valid JSON.
        write!(out, "{n}")
    }
}

/// Writes `s` quoted, escaping what JSON requires; runs of plain characters
/// go out as one slice.
fn write_escaped<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    let mut plain = 0;
    for (i, c) in s.char_indices() {
        let escape = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            '\u{08}' => Some("\\b"),
            '\u{0c}' => Some("\\f"),
            c if (c as u32) < 0x20 => None,
            _ => continue,
        };
        out.write_str(&s[plain..i])?;
        plain = i + c.len_utf8();
        match escape {
            Some(e) => out.write_str(e)?,
            None => write!(out, "\\u{:04x}", c as u32)?,
        }
    }
    out.write_str(&s[plain..])?;
    out.write_char('"')
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Nesting beyond this depth is rejected (guards the recursive descent
/// against stack exhaustion on adversarial inputs).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!("expected '{}'", b as char), self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(JsonError::new("nesting too deep", self.pos));
        }
        let v = match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') | Some(b'f') => self.boolean(),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b'N') if self.eat_literal("NaN") => Ok(Json::Num(f64::NAN)),
            Some(b'I') if self.eat_literal("Infinity") => Ok(Json::Num(f64::INFINITY)),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-Infinity") => {
                self.pos += "-Infinity".len();
                Ok(Json::Num(f64::NEG_INFINITY))
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => Err(JsonError::new("unexpected character", self.pos)),
            None => Err(JsonError::new("unexpected end of input", self.pos)),
        }?;
        self.depth -= 1;
        Ok(v)
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(JsonError::new("expected ',' or '}' in object", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(JsonError::new("expected ',' or ']' in array", self.pos)),
            }
        }
    }

    fn boolean(&mut self) -> Result<Json, JsonError> {
        if self.eat_literal("true") {
            Ok(Json::Bool(true))
        } else if self.eat_literal("false") {
            Ok(Json::Bool(false))
        } else {
            Err(JsonError::new("invalid literal", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.consume_digits();
        if int_digits == 0 {
            return Err(JsonError::new("invalid number", start));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.consume_digits() == 0 {
                return Err(JsonError::new("digits required after decimal point", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if self.consume_digits() == 0 {
                return Err(JsonError::new("digits required in exponent", self.pos));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError::new("number out of range", start))
    }

    fn consume_digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain UTF-8.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::new("invalid UTF-8 in string", start))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(JsonError::new("unescaped control character in string", self.pos)),
                None => return Err(JsonError::new("unterminated string", self.pos)),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = self.peek().ok_or_else(|| JsonError::new("unterminated escape", self.pos))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0c}'),
            b'u' => {
                let hi = self.hex4()?;
                let scalar = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    if !(self.eat_literal("\\u")) {
                        return Err(JsonError::new("unpaired surrogate", self.pos));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(JsonError::new("invalid low surrogate", self.pos));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(JsonError::new("unpaired low surrogate", self.pos));
                } else {
                    hi
                };
                out.push(char::from_u32(scalar).ok_or_else(|| JsonError::new("invalid code point", self.pos))?);
            }
            _ => return Err(JsonError::new("invalid escape", self.pos - 1)),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| JsonError::new("truncated \\u escape", self.pos))?;
            let d = (b as char).to_digit(16).ok_or_else(|| JsonError::new("invalid hex digit", self.pos))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Conversion into a [`Json`] value by reference (so the [`crate::json!`] macro
/// can serialize borrowed fields without moving them).
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

macro_rules! impl_to_json_num {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )+};
}

impl_to_json_num!(f32, f64, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

/// Typed extraction from a [`Json`] value.
pub trait FromJson: Sized {
    /// Extracts `Self`, or explains what was wrong.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::schema("expected bool"))
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::schema("expected number"))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(f64::from_json(v)? as f32)
    }
}

impl FromJson for usize {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_usize().ok_or_else(|| JsonError::schema("expected non-negative integer"))
    }
}

impl FromJson for u64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(v.as_usize().ok_or_else(|| JsonError::schema("expected non-negative integer"))? as u64)
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str().map(str::to_string).ok_or_else(|| JsonError::schema("expected string"))
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items = v.as_array().ok_or_else(|| JsonError::schema("expected array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| JsonError::schema(format!("[{i}]: {}", e.message))))
            .collect()
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::schema("expected 2-element array")),
        }
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_array() {
            Some([a, b, c]) => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            _ => Err(JsonError::schema("expected 3-element array")),
        }
    }
}

/// Serializes a `u64` as a decimal **string**, not a number.
///
/// [`Json::Num`] is an `f64`, which is exact only up to 2^53 — RNG states,
/// optimizer step counters, and checksums need all 64 bits, so the
/// checkpoint format carries them as strings. Inverse: [`u64_from_json`].
pub fn u64_to_json(x: u64) -> Json {
    Json::Str(x.to_string())
}

/// Parses a `u64` written with [`u64_to_json`] (also accepts small exact
/// integers written as numbers, for hand-edited files).
pub fn u64_from_json(v: &Json) -> Result<u64, JsonError> {
    match v {
        Json::Str(s) => s.parse::<u64>().map_err(|e| JsonError::schema(format!("bad u64 string '{s}': {e}"))),
        Json::Num(n) if *n >= 0.0 && *n <= 2f64.powi(53) && n.fract() == 0.0 => Ok(*n as u64),
        _ => Err(JsonError::schema("expected u64 (decimal string)")),
    }
}

/// Builds a [`Json`] value from a literal: `json!(null)`, an object
/// `json!({"key": expr, ...})` whose values are any `ToJson` expressions
/// (including nested `json!` calls), an array `json!([a, b, c])`, or a
/// bare `ToJson` expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Json::Null };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Json::Object(vec![
            $( (($key).to_string(), $crate::ToJson::to_json(&($val))) ),*
        ])
    };
    ([ $($val:expr),* $(,)? ]) => {
        $crate::Json::Array(vec![ $( $crate::ToJson::to_json(&($val)) ),* ])
    };
    ($other:expr) => { $crate::ToJson::to_json(&($other)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_above_f64_precision() {
        for x in [0u64, 1, u64::MAX, (1 << 53) + 1, 0xDEAD_BEEF_CAFE_F00D] {
            let v = u64_to_json(x);
            assert_eq!(u64_from_json(&v).expect("round trip"), x);
            let reparsed = Json::parse(&v.to_string()).expect("parses");
            assert_eq!(u64_from_json(&reparsed).expect("parse round trip"), x);
        }
        assert_eq!(u64_from_json(&Json::Num(42.0)).expect("small number accepted"), 42);
        assert!(u64_from_json(&Json::Num(-1.0)).is_err());
        assert!(u64_from_json(&Json::Str("not a number".into())).is_err());
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("3").unwrap(), Json::Num(3.0));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": null}, "x"], "c": {} }"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap(), &Json::Object(vec![]));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"\\q\"", "\"unterminated", "01x", "nul", "{\"a\" 1}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "quote \" backslash \\ newline \n tab \t cr \r nul \u{0} bell \u{7} unicode é 中 emoji 🦀";
        let written = Json::Str(nasty.into()).to_string();
        assert_eq!(Json::parse(&written).unwrap(), Json::Str(nasty.into()));
    }

    #[test]
    fn serialized_bytes_are_pinned() {
        let v = json!({"s": "a\"b\\\n\u{1}\u{1f}é 中", "n": json!([1.5f64, -0.0f64, f64::NAN]), "e": ""});
        assert_eq!(v.to_string(), r#"{"s":"a\"b\\\n\u0001\u001fé 中","n":[1.5,-0,NaN],"e":""}"#);
        assert_eq!(format!("{v}"), v.to_string());
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""\u0041\u00e9""#).unwrap(), Json::Str("Aé".into()));
        // Surrogate pair for 🦀 (U+1F980).
        assert_eq!(Json::parse(r#""\ud83e\udd80""#).unwrap(), Json::Str("🦀".into()));
        assert!(Json::parse(r#""\ud83e""#).is_err(), "unpaired surrogate accepted");
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for x in [0.0f64, -0.0, 1.0, -1.5, 1e-300, 123456789.123456, f64::MIN_POSITIVE, 0.1f32 as f64] {
            let s = Json::Num(x).to_string();
            assert_eq!(Json::parse(&s).unwrap().as_f64().unwrap().to_bits(), x.to_bits(), "{x} via {s}");
        }
    }

    #[test]
    fn non_finite_floats_round_trip() {
        for (v, s) in [(f64::INFINITY, "Infinity"), (f64::NEG_INFINITY, "-Infinity")] {
            assert_eq!(Json::Num(v).to_string(), s);
            assert_eq!(Json::parse(s).unwrap(), Json::Num(v));
        }
        assert_eq!(Json::Num(f64::NAN).to_string(), "NaN");
        assert!(Json::parse("NaN").unwrap().as_f64().unwrap().is_nan());
        assert!(Json::parse("[NaN, -Infinity]").unwrap().as_array().unwrap()[0].as_f64().unwrap().is_nan());
    }

    #[test]
    fn non_finite_paths_name_every_nan_and_infinity() {
        let doc = Json::parse(r#"{"a": 1, "b": [0.5, NaN, {"c": -Infinity}], "d": {"e": Infinity}, "f": "NaN"}"#).unwrap();
        assert_eq!(doc.non_finite_paths(), vec!["$.b[1]", "$.b[2].c", "$.d.e"]);
        assert!(Json::parse(r#"{"a": [1, 2e300], "b": null}"#).unwrap().non_finite_paths().is_empty());
        assert_eq!(Json::Num(f64::NAN).non_finite_paths(), vec!["$"]);
    }

    #[test]
    fn macro_builds_objects_and_arrays() {
        let name = String::from("fb");
        let v = json!({
            "dataset": name, "h1": 0.5f32, "n": 12usize, "ok": true,
            "nested": json!([1, 2]), "missing": Option::<f32>::None,
        });
        let text = v.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("dataset").unwrap().as_str(), Some("fb"));
        assert_eq!(back.get("n").unwrap().as_usize(), Some(12));
        assert_eq!(back.get("nested").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(back.get("missing"), Some(&Json::Null));
        // `name` was serialized by reference and is still usable.
        assert_eq!(name, "fb");
    }

    #[test]
    fn typed_field_extraction() {
        let v = Json::parse(r#"{"rows": 2, "cols": 3, "data": [1.5, -2.0], "tag": "w", "pairs": [[1,2],[3,4]]}"#).unwrap();
        assert_eq!(v.field::<usize>("rows").unwrap(), 2);
        assert_eq!(v.field::<Vec<f32>>("data").unwrap(), vec![1.5, -2.0]);
        assert_eq!(v.field::<String>("tag").unwrap(), "w");
        assert_eq!(v.field::<Vec<(usize, usize)>>("pairs").unwrap(), vec![(1, 2), (3, 4)]);
        assert!(v.field::<usize>("nope").unwrap_err().message.contains("missing field"));
        assert!(v.field::<usize>("tag").unwrap_err().message.contains("expected"));
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = json!({"z": 1, "a": 2, "m": 3});
        assert_eq!(v.to_string(), r#"{"z":1,"a":2,"m":3}"#);
    }

    #[test]
    fn duplicate_keys_resolve_to_first() {
        let v = Json::parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.0));
    }
}
