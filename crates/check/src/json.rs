//! A minimal JSON reader for exported traces and the benchmark's result
//! lines.
//!
//! `saga-trace` exports Chrome trace-event JSON, and [`crate::tracecheck`]
//! (`cargo xtask check-trace`, `tests/trace_export.rs`) validates it from
//! outside; the build has no `serde_json`, so this module is the small
//! recursive-descent parser those checks need, written on the workspace's
//! one text cursor ([`Cursor`]): numbers are sliced and converted with std
//! `FromStr`, strings are the cursor's quoted reader with JSON's escape
//! set. It supports the full JSON value grammar (objects, arrays, strings
//! with escapes, numbers with sign/fraction/exponent, booleans, null) and
//! nothing more — no serialization, no zero-copy, no streaming.

use saga_utils::scan::Cursor;
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
    let mut c = Cursor::new(input);
    let value = value(&mut c)?;
    c.end()?;
    Ok(value)
}

fn value(c: &mut Cursor<'_>) -> Result<Json, String> {
    c.skip_ws();
    Ok(match c.peek() {
        Some(b'{') => Json::Obj(
            list(c, "{", "}", |c| {
                c.skip_ws();
                let key = c.quoted(unescape)?;
                c.skip_ws();
                c.expect(":")?;
                Ok((key, value(c)?))
            })?
            .into_iter()
            .collect(),
        ),
        Some(b'[') => Json::Arr(list(c, "[", "]", value)?),
        Some(b'"') => Json::Str(c.quoted(unescape)?),
        Some(b'-' | b'0'..=b'9') => {
            Json::Num(c.parse_while(|ch| ch.is_ascii_digit() || "+-.eE".contains(ch))?)
        }
        _ if c.eat("true") => Json::Bool(true),
        _ if c.eat("false") => Json::Bool(false),
        _ if c.eat("null") => Json::Null,
        _ => return Err(c.error("expected a JSON value")),
    })
}

/// `open item (, item)* close`, or `open close`: an object's or array's
/// members.
fn list<'a, T>(
    c: &mut Cursor<'a>,
    open: &str,
    close: &str,
    mut item: impl FnMut(&mut Cursor<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut items = Vec::new();
    c.expect(open)?;
    c.skip_ws();
    if c.eat(close) {
        return Ok(items);
    }
    loop {
        items.push(item(c)?);
        c.skip_ws();
        if c.eat(close) {
            return Ok(items);
        }
        c.expect(",")?;
    }
}

/// JSON's escape set, `\uXXXX` included (no surrogate pairs: the suite's
/// documents are ASCII, so reject rather than mangle).
fn unescape(e: char, c: &mut Cursor<'_>) -> Result<char, String> {
    Ok(match e {
        '"' | '\\' | '/' => e,
        'b' => '\u{8}',
        'f' => '\u{c}',
        'n' => '\n',
        'r' => '\r',
        't' => '\t',
        'u' => {
            let mut n = 0;
            let hex = c.take_while(|h| {
                n += 1;
                n <= 4 && h.is_ascii_hexdigit()
            });
            let code = u32::from_str_radix(hex, 16).ok().filter(|_| hex.len() == 4);
            code.and_then(char::from_u32).ok_or_else(|| c.error(format!("bad \\u{hex}")))?
        }
        _ => return Err(c.error(format!("bad escape '\\{e}'"))),
    })
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
    fn unicode_escapes_decode_and_bad_ones_fail() {
        assert_eq!(parse(r#""\u0041\u00e9/""#).unwrap().as_str(), Some("Aé/"));
        assert!(parse(r#""\u00""#).is_err());
        assert!(parse(r#""\ud800""#).is_err(), "lone surrogate");
        assert!(parse(r#""\q""#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
    }
}
