//! A minimal JSON value, emitter and parser.
//!
//! Replaces the `serde` derive machinery with an explicit builder API:
//! report types implement [`ToJson`] by assembling a [`Json`] value, which
//! serialises with correct string escaping and round-trips through
//! [`Json::parse`]. No derives, no monomorphisation blow-up, no external
//! dependency — the emitter exists so experiment artefacts
//! (`BENCH_*.json`, campaign reports) are machine-readable.
//!
//! Numbers are `f64` (JSON's native model); integers up to 2⁵³ round-trip
//! exactly, which covers every counter in this workspace.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (emitted shortest-exact via Rust's `f64` Display).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys are sorted (BTreeMap) so emission is canonical.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An empty object, for builder-style assembly with [`Json::set`].
    #[must_use]
    pub fn object() -> Json {
        Json::Obj(BTreeMap::new())
    }

    /// An array from anything iterable over `Into<Json>`.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// Inserts `key` into an object (builder style). Panics when `self`
    /// is not an object — that is a programming error, not data.
    #[must_use]
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(map) => {
                map.insert(key.to_string(), value.into());
            }
            other => panic!("Json::set on non-object {other:?}"),
        }
        self
    }

    /// Member lookup on objects; `None` elsewhere.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises to a compact JSON string.
    #[must_use]
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises with 2-space indentation (for committed artefacts whose
    /// diffs should be reviewable).
    #[must_use]
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 9.0e15 {
                        let _ = fmt::Write::write_fmt(out, format_args!("{}", *n as i64));
                    } else {
                        let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
                    }
                } else {
                    // JSON has no NaN/Inf; null is the least-bad encoding.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !map.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (strict enough for round-tripping our own
    /// emitter and reading hand-written configs).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error,
    /// or of the first array/object opened past [`MAX_DEPTH`] levels of
    /// nesting.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ------------------------------------------------------------- conversions

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

macro_rules! impl_from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            #[allow(clippy::cast_precision_loss, clippy::cast_lossless)]
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
impl_from_num!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::array(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Types that render themselves as a [`Json`] value.
pub trait ToJson {
    /// The JSON representation.
    fn to_json(&self) -> Json;
}

impl<T: ToJson> From<&T> for Json {
    fn from(t: &T) -> Json {
        t.to_json()
    }
}

// ------------------------------------------------------------------ parser

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so without a bound one line of `[`s from an
/// untrusted peer would overflow the stack and abort the process. The
/// documents this workspace writes nest fewer than ten levels deep.
pub const MAX_DEPTH: usize = 128;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
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
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                map.insert(key, parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len() && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_nested_objects() {
        let j = Json::object()
            .set("name", "e1")
            .set("trials", 3000u64)
            .set("ok", true)
            .set("nested", Json::object().set("p95_ns", 123.5))
            .set("tags", Json::array(["a", "b"]));
        assert_eq!(j.get("name").and_then(Json::as_str), Some("e1"));
        assert_eq!(j.get("trials").and_then(Json::as_f64), Some(3000.0));
        assert_eq!(
            j.get("nested").and_then(|n| n.get("p95_ns")).and_then(Json::as_f64),
            Some(123.5)
        );
    }

    #[test]
    fn compact_emission_is_canonical() {
        let j = Json::object().set("b", 1u32).set("a", Json::Null);
        // BTreeMap keys sort: a before b.
        assert_eq!(j.to_string_compact(), r#"{"a":null,"b":1}"#);
    }

    #[test]
    fn integers_emit_without_decimal_point() {
        assert_eq!(Json::from(42u64).to_string_compact(), "42");
        assert_eq!(Json::from(-3i64).to_string_compact(), "-3");
        assert_eq!(Json::from(0.5f64).to_string_compact(), "0.5");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{01} unicode\u{2603}";
        let j = Json::object().set(nasty, nasty);
        let text = j.to_string_compact();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, j);
        assert_eq!(back.get(nasty).and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn pretty_and_compact_parse_identically() {
        let j = Json::object()
            .set("rows", Json::array([1u32, 2, 3]))
            .set("label", "x\ny")
            .set("empty_arr", Json::Arr(vec![]))
            .set("empty_obj", Json::object());
        let compact = Json::parse(&j.to_string_compact()).unwrap();
        let pretty = Json::parse(&j.to_string_pretty()).unwrap();
        assert_eq!(compact, pretty);
        assert_eq!(compact, j);
    }

    #[test]
    fn parses_plain_documents() {
        let j = Json::parse(r#" {"a": [1, 2.5, -3e2], "b": {"c": null}, "d": false} "#).unwrap();
        assert_eq!(
            j.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(j.get("a").unwrap().as_array().unwrap()[2], Json::Num(-300.0));
        assert_eq!(j.get("b").unwrap().get("c"), Some(&Json::Null));
        assert_eq!(j.get("d"), Some(&Json::Bool(false)));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a": }"#).is_err());
        assert!(Json::parse("[1, 2,,]").is_err());
        assert!(Json::parse("123 456").is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_a_crash() {
        let deep_arr = "[".repeat(200_000);
        let err = Json::parse(&deep_arr).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let deep_obj = r#"{"a":"#.repeat(200_000);
        let err = Json::parse(&deep_obj).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Exactly MAX_DEPTH levels still parse; one more does not.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let obj_at_limit = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&obj_at_limit).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&past).is_err());
    }

    #[test]
    fn from_conversions_cover_common_types() {
        assert_eq!(Json::from(Some(1u8)).to_string_compact(), "1");
        assert_eq!(Json::from(None::<u8>).to_string_compact(), "null");
        assert_eq!(
            Json::from(vec![1u8, 2]).to_string_compact(),
            "[1,2]"
        );
        assert_eq!(Json::from("s".to_string()).to_string_compact(), r#""s""#);
    }

    #[test]
    fn to_json_trait_feeds_builder() {
        struct P(u32);
        impl ToJson for P {
            fn to_json(&self) -> Json {
                Json::object().set("v", self.0)
            }
        }
        let j = Json::object().set("p", &P(7));
        assert_eq!(j.to_string_compact(), r#"{"p":{"v":7}}"#);
    }
}
