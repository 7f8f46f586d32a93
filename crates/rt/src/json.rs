//! Hand-rolled JSON: a value type, a writer, and a recursive-descent
//! reader, replacing `serde`/`serde_json` for campaign reports.
//!
//! Determinism matters more than speed here: object members keep their
//! insertion order, integers and floats are printed canonically, and the
//! pretty printer is byte-stable — the campaign's replay test relies on
//! two runs with the same seed producing identical report bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without a fractional part.
    Int(i64),
    /// A number with a fractional part or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Array element lookup; `None` elsewhere or out of bounds.
    pub fn at(&self, index: usize) -> Option<&Json> {
        match self {
            Json::Arr(items) => items.get(index),
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

    /// The integer payload (also accepts integral floats).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::Float(f) if f.fract() == 0.0 && f.abs() < i64::MAX as f64 => Some(*f as i64),
            _ => None,
        }
    }

    /// The numeric payload as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation (byte-stable).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    let s = format!("{f}");
                    out.push_str(&s);
                    // Keep floats recognizably floats on re-parse.
                    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no NaN/Inf; null is the conventional fallback.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i| {
                    let (k, v) = &members[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }

    /// Parses JSON text.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError { pos, message: "trailing data after value".into() });
        }
        Ok(value)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat(' ').take(width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(width * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte position of the failure.
    pub pos: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

fn err(pos: usize, message: impl Into<String>) -> JsonError {
    JsonError { pos, message: message.into() }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected ':'"));
                }
                *pos += 1;
                skip_ws(bytes, pos);
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(err(*pos, format!("unexpected byte {:?}", *c as char))),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected `{lit}`")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected '\"'"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are not needed for our reports;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so valid).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("valid UTF-8"));
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
    if is_float {
        text.parse::<f64>().map(Json::Float).map_err(|_| err(start, "bad number"))
    } else {
        text.parse::<i64>().map(Json::Int).map_err(|_| err(start, "bad number"))
    }
}

/// Conversion into a [`Json`] value (the `Serialize` stand-in).
pub trait ToJson {
    /// Renders `self` as a JSON value.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value (the `Deserialize` stand-in).
pub trait FromJson: Sized {
    /// Reads `Self` back out of a JSON value.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
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

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_bool().ok_or_else(|| err(0, "expected bool"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_str().map(str::to_owned).ok_or_else(|| err(0, "expected string"))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_f64().ok_or_else(|| err(0, "expected number"))
    }
}

macro_rules! impl_json_int {
    ($($t:ty),+ $(,)?) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<Self, JsonError> {
                let v = json.as_i64().ok_or_else(|| err(0, "expected integer"))?;
                <$t>::try_from(v).map_err(|_| err(0, "integer out of range"))
            }
        }
    )+};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_arr().ok_or_else(|| err(0, "expected array"))?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(v) => v.to_json(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let items = json.as_arr().ok_or_else(|| err(0, "expected pair"))?;
        if items.len() != 2 {
            return Err(err(0, "expected 2-element array"));
        }
        Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_obj()
            .ok_or_else(|| err(0, "expected object"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }
}

impl<T: ToJson + Ord> ToJson for BTreeSet<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson + Ord> FromJson for BTreeSet<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.as_arr().ok_or_else(|| err(0, "expected array"))?.iter().map(T::from_json).collect()
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a plain struct with named fields,
/// producing the same object shape `#[derive(Serialize, Deserialize)]` would:
/// one member per listed field, in listed order. Missing members read as
/// `null`, so `Option` fields tolerate absent keys. A trailing `..` leaves
/// the unlisted fields out of the JSON; they read back as the struct's
/// `Default` values.
#[macro_export]
macro_rules! impl_json_struct {
    (@impl $ty:ty { $($field:ident),+ } { $($rest:tt)* }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj([
                    $((stringify!($field), $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(
                json: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok(Self {
                    $($field: $crate::json::FromJson::from_json(
                        json.get(stringify!($field)).unwrap_or(&$crate::json::Json::Null),
                    )
                    .map_err(|e| $crate::json::JsonError {
                        pos: e.pos,
                        message: format!(
                            concat!("field `", stringify!($field), "`: {}"),
                            e.message
                        ),
                    })?,)+
                    $($rest)*
                })
            }
        }
    };
    ($ty:ty { $($field:ident),+ , .. }) => {
        $crate::impl_json_struct!(@impl $ty { $($field),+ } { ..Default::default() });
    };
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        $crate::impl_json_struct!(@impl $ty { $($field),+ } {});
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for text in ["null", "true", "false", "0", "-42", "3.5", "\"hi\"", "\"a\\nb\""] {
            let v = Json::parse(text).unwrap();
            let back = Json::parse(&v.compact()).unwrap();
            assert_eq!(v, back, "roundtrip of {text}");
        }
    }

    #[test]
    fn roundtrip_structures() {
        let v = Json::obj([
            ("name", Json::Str("zirkon".into())),
            ("ids", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("nested", Json::obj([("x", Json::Null)])),
        ]);
        for text in [v.compact(), v.pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj([("z", Json::Int(1)), ("a", Json::Int(2))]);
        assert_eq!(v.compact(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn pretty_is_stable() {
        let v = Json::obj([("a", Json::Arr(vec![Json::Int(1), Json::Int(2)]))]);
        assert_eq!(v.pretty(), "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn string_escapes() {
        let s = "line1\nline2\t\"quoted\" \\ \u{1}";
        let v = Json::Str(s.into());
        assert_eq!(Json::parse(&v.compact()).unwrap(), v);
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::Str("héllo ∀x".into());
        assert_eq!(Json::parse(&v.compact()).unwrap(), v);
        assert_eq!(Json::parse("\"\\u0041\"").unwrap(), Json::Str("A".into()));
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in ["", "{", "[1,", "\"unterminated", "nul", "01x", "{\"a\" 1}", "[1] extra"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn float_formatting_reparses_as_float() {
        let v = Json::Float(2.0);
        assert_eq!(v.compact(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Float(2.0));
    }

    #[test]
    fn derived_impls_roundtrip() {
        let mut m: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        m.insert("a".into(), vec![1, 2, 3]);
        let j = m.to_json();
        let back: BTreeMap<String, Vec<u32>> = FromJson::from_json(&j).unwrap();
        assert_eq!(back, m);
        let opt: Option<String> = None;
        assert_eq!(opt.to_json(), Json::Null);
        let pair = ("x".to_string(), 7u32);
        let back: (String, u32) = FromJson::from_json(&pair.to_json()).unwrap();
        assert_eq!(back, pair);
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        name: String,
        count: usize,
        note: Option<String>,
    }
    crate::impl_json_struct!(Demo { name, count, note });

    #[test]
    fn struct_macro_roundtrips_and_orders_fields() {
        let d = Demo { name: "x".into(), count: 3, note: None };
        assert_eq!(d.to_json().compact(), r#"{"name":"x","count":3,"note":null}"#);
        let back = Demo::from_json(&Json::parse(&d.to_json().compact()).unwrap()).unwrap();
        assert_eq!(back, d);
        // Missing members read as null: Option fields tolerate that.
        let sparse = Json::parse(r#"{"name":"y","count":1}"#).unwrap();
        assert_eq!(
            Demo::from_json(&sparse).unwrap(),
            Demo { name: "y".into(), count: 1, note: None }
        );
        // Non-optional missing fields fail with the field name in the error.
        let bad = Json::parse(r#"{"name":"z"}"#).unwrap();
        let e = Demo::from_json(&bad).unwrap_err();
        assert!(e.message.contains("`count`"), "{e}");
    }
}
