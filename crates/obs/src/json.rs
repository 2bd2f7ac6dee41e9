//! The one JSON model every obs artifact is written and read through.
//!
//! The workspace deliberately carries no `serde_json`. Instead, every
//! artifact (the run report, each JSONL trace line, each Chrome trace
//! event) is built as a [`Json`] value and printed by its one canonical
//! compact printer (`Display`): members in key order, integral numbers
//! without a point, strings through [`escape_into`]. Typed values cross
//! into and out of the model through `JsonModel`; a struct declares
//! its field list once (`json_model!`) and gets both directions, so a
//! reader re-printing what it read reproduces the input byte for byte.
//!
//! The parser is a small recursive-descent one. It accepts standard
//! JSON, nests at most [`MAX_DEPTH`] arrays and objects deep, and
//! refuses unpaired UTF-16 surrogate escapes.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, kept as `f64`: integers up to 2^53 are exact, and
    /// the typed readers write `u64`s from 2^53 up as decimal strings.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is normalized (BTreeMap), which is the order
    /// the printer writes members in.
    Obj(BTreeMap<String, Json>),
}

/// 2^53: every integer up to it is exactly an `f64`.
const EXACT: u64 = 1 << 53;

/// Arrays and objects nest at most this deep; obs's deepest artifact
/// (a report's timeseries gauge) nests five.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// An object of `members`.
    pub(crate) fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Sets member `key` of an object; any other value is left as it is.
    pub(crate) fn insert(&mut self, key: &str, value: Json) {
        if let Json::Obj(m) = self {
            m.insert(key.to_owned(), value);
        }
    }

    /// Member lookup on an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is an integral number in
    /// `0..=2^53` (the range an `f64` holds exactly).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= EXACT as f64 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// `get(key)` narrowed to `u64`, for the common "required numeric
    /// field" pattern in importers.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }

    /// `get(key)` narrowed to `&str`.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        n.to_value()
    }
}

/// The canonical compact form: no whitespace, members in key order,
/// integral numbers up to 2^53 without a point (larger ones in exponent
/// form, so no integer literal is ever rounded), non-finite numbers as
/// `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            Json::Num(n) if n.abs() > EXACT as f64 => write!(f, "{n:e}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => f.write_str(&quote(s)),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    write!(f, "{}{item}", if i > 0 { "," } else { "" })?;
                }
                f.write_char(']')
            }
            Json::Obj(members) => {
                f.write_char('{')?;
                for (i, (key, value)) in members.iter().enumerate() {
                    write!(f, "{}{}:{value}", if i > 0 { "," } else { "" }, quote(key))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// A type with one JSON form, read back exactly: printing
/// `from_value(&v)?.to_value()` reproduces `v` for every `v` the type
/// wrote.
pub(crate) trait JsonModel: Sized {
    /// The value's JSON form.
    fn to_value(&self) -> Json;

    /// Reads the value back, or says what is missing or malformed, and
    /// where.
    fn from_value(v: &Json) -> Result<Self, String>;

    /// The form as an object member; `None` leaves the member out.
    fn to_member(&self) -> Option<Json> {
        Some(self.to_value())
    }

    /// Reads an object member, `None` when it is absent (an error
    /// unless the type says otherwise).
    fn from_member(v: Option<&Json>) -> Result<Self, String> {
        Self::from_value(v.ok_or("missing")?)
    }
}

/// Reads member `key` of `v`; an error names the key.
pub(crate) fn member<T: JsonModel>(v: &Json, key: &str) -> Result<T, String> {
    T::from_member(v.get(key)).map_err(|e| format!("{key}: {e}"))
}

/// A `u64` below 2^53 is a number; from 2^53 up it is its decimal
/// string, because an `f64` cannot tell 2^53 from 2^53 + 1.
impl JsonModel for u64 {
    fn to_value(&self) -> Json {
        if *self < EXACT {
            Json::Num(*self as f64)
        } else {
            Json::Str(self.to_string())
        }
    }

    fn from_value(v: &Json) -> Result<u64, String> {
        Ok(match v {
            Json::Str(s) => s.parse().ok().filter(|&n| n >= EXACT),
            _ => v.as_u64().filter(|&n| n < EXACT),
        }
        .ok_or("not a u64")?)
    }
}

impl JsonModel for u32 {
    fn to_value(&self) -> Json {
        Json::Num(f64::from(*self))
    }

    fn from_value(v: &Json) -> Result<u32, String> {
        Ok(v.as_u64()
            .and_then(|n| n.try_into().ok())
            .ok_or("not a u32")?)
    }
}

impl JsonModel for bool {
    fn to_value(&self) -> Json {
        Json::Bool(*self)
    }

    fn from_value(v: &Json) -> Result<bool, String> {
        Ok(v.as_bool().ok_or("not a bool")?)
    }
}

impl JsonModel for String {
    fn to_value(&self) -> Json {
        Json::Str(self.clone())
    }

    fn from_value(v: &Json) -> Result<String, String> {
        Ok(v.as_str().ok_or("not a string")?.to_owned())
    }
}

/// An absent member when `None`.
impl<T: JsonModel> JsonModel for Option<T> {
    fn to_value(&self) -> Json {
        self.to_member().unwrap_or(Json::Null)
    }

    fn from_value(v: &Json) -> Result<Option<T>, String> {
        Self::from_member(Some(v).filter(|v| **v != Json::Null))
    }

    fn to_member(&self) -> Option<Json> {
        self.as_ref().map(T::to_value)
    }

    fn from_member(v: Option<&Json>) -> Result<Option<T>, String> {
        v.map(T::from_value).transpose()
    }
}

impl<T: JsonModel> JsonModel for Vec<T> {
    fn to_value(&self) -> Json {
        Json::Arr(self.iter().map(T::to_value).collect())
    }

    fn from_value(v: &Json) -> Result<Vec<T>, String> {
        let items = v.as_arr().ok_or("not an array")?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_value(item).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

impl<T: JsonModel> JsonModel for BTreeMap<String, T> {
    fn to_value(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }

    fn from_value(v: &Json) -> Result<BTreeMap<String, T>, String> {
        let keys = v.as_obj().ok_or("not an object")?.keys();
        keys.map(|k| Ok((k.clone(), member(v, k)?))).collect()
    }
}

/// Implements [`JsonModel`] from one field list per type, so neither
/// direction can forget a field: both destructure exhaustively, and a
/// new field is a compile error until it is listed.
///
/// * `Ty { a, b: "key" }` — a struct as an object, one member per field,
///   named after it or after the string given;
/// * `enum Ty by "tag" { Variant "name" { a, b }, ... }` — an enum of
///   struct variants as an object of the variant's fields plus member
///   `tag` naming the variant.
macro_rules! json_model {
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (enum $ty:ident by $tag:literal {
        $($variant:ident $name:literal { $($field:ident),* }),* $(,)?
    }) => {
        impl $crate::json::JsonModel for $ty {
            fn to_value(&self) -> $crate::json::Json {
                let (name, mut v) = match self {
                    $($ty::$variant { $($field),* } => ($name, $crate::json::Json::obj([
                        $((stringify!($field), $crate::json::JsonModel::to_value($field))),*
                    ])),)*
                };
                v.insert($tag, $crate::json::Json::from(name));
                v
            }

            fn from_value(v: &$crate::json::Json) -> Result<Self, String> {
                match v.str_field($tag) {
                    $(Some($name) => Ok($ty::$variant {
                        $($field: $crate::json::member(v, stringify!($field))?),*
                    }),)*
                    _ => Err(match v.get($tag) {
                        Some(name) => format!("{}: unknown {name}", $tag),
                        None => format!("{}: missing", $tag),
                    }),
                }
            }
        }
    };
    ($($ty:ident { $($field:ident $(: $key:literal)?),* $(,)? })*) => {$(
        impl $crate::json::JsonModel for $ty {
            fn to_value(&self) -> $crate::json::Json {
                let $ty { $($field),* } = self;
                let mut members = std::collections::BTreeMap::new();
                $(
                    if let Some(v) = $crate::json::JsonModel::to_member($field) {
                        members.insert($crate::json::json_model!(@key $field $($key)?).to_owned(), v);
                    }
                )*
                $crate::json::Json::Obj(members)
            }

            fn from_value(v: &$crate::json::Json) -> Result<Self, String> {
                if v.as_obj().is_none() {
                    return Err("not an object".to_owned());
                }
                Ok($ty {
                    $($field: $crate::json::member(v, $crate::json::json_model!(@key $field $($key)?))?,)*
                })
            }
        }
    )*};
}
pub(crate) use json_model;

/// A parse failure, with the byte offset where parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// garbage is an error.
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first malformed byte, or the
/// first array or object nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Appends `s` to `out` with JSON string escaping (no surrounding quotes).
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// `escape_into` with quotes, returning a fresh string.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(s, &mut out);
    out.push('"');
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nested deeper than MAX_DEPTH"));
                }
                self.depth += 1;
                let v = if b == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(map)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // A high surrogate must be followed by a low one;
                        // a lone low surrogate is no code point.
                        let cp = if (0xD800..0xDC00).contains(&cp) {
                            let lo = if self.bytes[self.pos..].starts_with(b"\\u") {
                                self.pos += 2;
                                self.hex4()?
                            } else {
                                0
                            };
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid surrogate pair"));
                            }
                            0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            cp
                        };
                        out.push(char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences byte-wise: the
                    // input is a &str so the bytes are valid UTF-8.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    self.pos = start + width;
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a') as u32 + 10,
                Some(b @ b'A'..=b'F') => (b - b'A') as u32 + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            cp = (cp << 4) | d;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":{"e":null}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].str_field("b"), Some("c"));
        assert_eq!(v.get("d").unwrap().get("e"), Some(&Json::Null));
    }

    #[test]
    fn escape_round_trips() {
        let original = "a\"b\\c\nd\te\u{1}π𝄞";
        let quoted = quote(original);
        assert_eq!(parse(&quoted).unwrap().as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            parse(r#""\u0041\ud834\udd1e""#).unwrap().as_str(),
            Some("A𝄞")
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"\\q\"").is_err());
        // Unpaired surrogates: high + non-surrogate, high alone, low alone.
        assert!(parse(r#""\ud800\u0041""#).is_err());
        assert!(parse(r#""\ud800""#).is_err());
        assert!(parse(r#""\udc00""#).is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn u64_round_trip_through_f64() {
        // Every id/time we emit is < 2^53, so f64 is lossless.
        let v = parse("9007199254740992").unwrap();
        assert_eq!(v.as_u64(), Some(1u64 << 53));
    }

    #[test]
    fn as_u64_takes_only_exact_integers() {
        for text in ["1.5", "-1", "9007199254740994", "1e300"] {
            assert_eq!(parse(text).unwrap().as_u64(), None, "{text}");
        }
        // Past 2^53 the model writes a string, and reads only that.
        for n in [0, EXACT - 1, EXACT, EXACT + 1, u64::MAX] {
            let text = n.to_value().to_string();
            assert_eq!(u64::from_value(&parse(&text).unwrap()), Ok(n), "{text}");
        }
        assert!(u64::from_value(&parse("9007199254740993").unwrap()).is_err());
        assert!(u64::from_value(&parse("\"5\"").unwrap()).is_err());
    }

    #[test]
    fn printer_is_canonical() {
        let text = r#"{"a":[1,-0.5,true,null,"x\"\n"],"b":{},"c":1e300}"#;
        let v = parse(text).unwrap();
        let printed = v.to_string();
        assert_eq!(
            printed,
            r#"{"a":[1,-0.5,true,null,"x\"\n"],"b":{},"c":1e300}"#
        );
        assert_eq!(parse(&printed).unwrap(), v);
        assert_eq!(
            parse(" { \"b\" : 2 , \"a\" : 1.0 } ").unwrap().to_string(),
            r#"{"a":1,"b":2}"#
        );
    }
}
