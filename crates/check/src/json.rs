//! A minimal JSON reader for exported traces.
//!
//! `saga-trace` exports Chrome trace-event JSON, and [`crate::tracecheck`]
//! (`cargo xtask check-trace`, `tests/trace_export.rs`) validates it from
//! outside; the build has no `serde_json`, so this module hand-rolls the
//! small recursive-descent parser those checks need. It supports the
//! full JSON value grammar (objects, arrays, strings with escapes, numbers
//! with sign/fraction/exponent, booleans, null) and nothing more — no
//! serialization, no zero-copy, no streaming.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is not preserved.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on objects (`None` on other variants or absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as usize, if this is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as usize),
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
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {pos} (found {:?})",
            c as char,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        other => Err(format!("unexpected {other:?} at byte {pos}")),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            other => return Err(format!("expected ',' or '}}' at byte {pos}, found {other:?}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']' at byte {pos}, found {other:?}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        *pos += 4;
                        // Surrogate pairs are not needed for the suite's
                        // ASCII result files; reject rather than mangle.
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("unsupported \\u{code:04x}"))?,
                        );
                    }
                    other => return Err(format!("bad escape '\\{}'", other as char)),
                }
            }
            _ => {
                // Multi-byte UTF-8: copy the full scalar.
                let start = *pos - 1;
                let width = utf8_width(c);
                *pos = start + width;
                let s = b
                    .get(start..start + width)
                    .and_then(|s| std::str::from_utf8(s).ok())
                    .ok_or("invalid utf-8 in string")?;
                out.push_str(s);
            }
        }
    }
    Err("unterminated string".into())
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(&c) = b.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    std::str::from_utf8(&b[start..*pos])
        .map_err(|e| e.to_string())?
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number at byte {start}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_baseline_shape() {
        let doc = r#"{"benchmark":"x","reps":5,"results":[{"structure":"AC","threads":8,"speedup":5.268,"ok":true,"note":null}]}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("benchmark").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("reps").unwrap().as_usize(), Some(5));
        let rows = v.get("results").unwrap().as_array().unwrap();
        assert_eq!(rows[0].get("structure").unwrap().as_str(), Some("AC"));
        assert_eq!(rows[0].get("speedup").unwrap().as_f64(), Some(5.268));
        assert_eq!(rows[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(rows[0].get("note"), Some(&Json::Null));
    }

    #[test]
    fn numbers_cover_sign_fraction_exponent() {
        assert_eq!(parse("-0.5e2").unwrap().as_f64(), Some(-50.0));
        assert_eq!(parse("1E-3").unwrap().as_f64(), Some(0.001));
    }

    #[test]
    fn strings_decode_escapes() {
        let v = parse(r#""a\n\t\"\\A""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\A"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }
}
