//! One cursor under the repo's text formats.
//!
//! Edge-op rows (`saga_stream::loader`, and through it the server's batch
//! bodies, journals and edge dumps), the JSON reader and the Prometheus
//! validator (`saga_check::json`, `saga_check::prom`) all read through
//! [`Cursor`], so they share one set of rules:
//!
//! - whitespace is ASCII whitespace;
//! - a number is a token sliced out of the text and converted with std
//!   `FromStr`, so every `u64`, `f32` or `f64` that `Display` wrote reads
//!   back bit for bit — there is no hand-rolled float math;
//! - a quoted string takes its escape set from the caller (JSON's and
//!   Prometheus's differ);
//! - every error names the byte offset it was found at.
//!
//! Comments are a line-level matter in every format that has them (an
//! edge-op `#`/`%` line, a journal's `#batch` marker, a Prometheus `#`
//! line), so the line readers recognize them, not the cursor.
//!
//! Whatever the text, no method panics and the position never moves
//! backwards (pinned by `tests/seeded_utils.rs`).

use std::fmt::Display;
use std::str::FromStr;

/// A read position in a `&str`: always on a char boundary, never
/// decreasing.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    /// The unread remainder.
    pub fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// True when nothing is left to read.
    fn at_end(&self) -> bool {
        self.pos == self.text.len()
    }

    /// The next byte, not consumed.
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// An error message: `what`, then the read position.
    pub fn error(&self, what: impl Display) -> String {
        format!("{what} at byte {}", self.pos)
    }

    /// Consumes and returns the next char.
    fn next_char(&mut self) -> Option<char> {
        let c = self.rest().chars().next()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Skips ASCII whitespace.
    pub fn skip_ws(&mut self) {
        self.pos += self.rest().bytes().take_while(u8::is_ascii_whitespace).count();
    }

    /// Consumes `lit` when the text continues with it.
    pub fn eat(&mut self, lit: &str) -> bool {
        let hit = self.rest().starts_with(lit);
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    /// [`Cursor::eat`], or an error naming what stands there instead.
    pub fn expect(&mut self, lit: &str) -> Result<(), String> {
        if self.eat(lit) {
            return Ok(());
        }
        Err(self.error(format_args!("expected {lit:?}, found {:?}", self.rest().chars().next())))
    }

    /// Errors unless only whitespace is left.
    pub fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.at_end() {
            Ok(())
        } else {
            Err(self.error("trailing characters"))
        }
    }

    /// Consumes and returns the longest run of chars `keep` accepts
    /// (possibly empty).
    pub fn take_while(&mut self, mut keep: impl FnMut(char) -> bool) -> &'a str {
        let rest = self.rest();
        let len = rest.find(|c| !keep(c)).unwrap_or(rest.len());
        self.pos += len;
        &rest[..len]
    }

    /// Skips whitespace, then consumes and returns the next
    /// whitespace-delimited token; `None` at the end.
    pub fn token(&mut self) -> Option<&'a str> {
        self.skip_ws();
        let rest = self.rest();
        let len = rest.bytes().position(|b| b.is_ascii_whitespace()).unwrap_or(rest.len());
        self.pos += len;
        (len > 0).then(|| &rest[..len])
    }

    /// The next [`Cursor::token`], converted with `FromStr`.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, String> {
        self.skip_ws();
        let at = self.pos;
        let token = self.token().ok_or_else(|| self.error("expected a value, found the end"))?;
        convert(token, at)
    }

    /// The longest run of chars `keep` accepts, converted with `FromStr` —
    /// for numbers that no whitespace delimits (JSON's).
    pub fn parse_while<T: FromStr>(&mut self, keep: impl FnMut(char) -> bool) -> Result<T, String> {
        let at = self.pos;
        let token = self.take_while(keep);
        convert(token, at)
    }

    /// An identifier, `[A-Za-z_][A-Za-z0-9_]*`; `None`, with nothing
    /// consumed, when the text does not start with one.
    pub fn ident(&mut self) -> Option<&'a str> {
        let start = self.peek().is_some_and(|b| b.is_ascii_alphabetic() || b == b'_');
        start.then(|| self.take_while(|c| c.is_ascii_alphanumeric() || c == '_'))
    }

    /// A `"`-quoted string. After each `\`, `escape` gets the escaped char
    /// and the cursor, positioned after it (so a longer escape such as
    /// JSON's `\uXXXX` can read on), and returns the char it stands for:
    /// the escape set is the caller's.
    pub fn quoted(
        &mut self,
        escape: impl Fn(char, &mut Self) -> Result<char, String>,
    ) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = String::new();
        loop {
            out.push_str(self.take_while(|c| c != '"' && c != '\\'));
            match self.next_char() {
                Some('"') => return Ok(out),
                Some(_) => match self.next_char() {
                    Some(e) => out.push(escape(e, self)?),
                    None => break,
                },
                None => break,
            }
        }
        Err(self.error("unterminated string"))
    }
}

fn convert<T: FromStr>(token: &str, at: usize) -> Result<T, String> {
    token.parse().map_err(|_| format!("bad value {token:?} at byte {at}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_numbers_and_positions() {
        let mut c = Cursor::new("  12 -0.5\t1e3 x");
        assert_eq!(c.parse::<u64>(), Ok(12));
        assert_eq!(c.parse::<f32>(), Ok(-0.5));
        assert_eq!(c.parse::<f64>(), Ok(1000.0));
        assert_eq!(c.rest(), " x");
        assert_eq!(c.parse::<u64>(), Err("bad value \"x\" at byte 14".to_string()));
        assert!(c.at_end());
        assert_eq!(c.token(), None);
        assert!(c.parse::<u64>().unwrap_err().contains("end"));
    }

    #[test]
    fn literals_idents_and_quoted_strings() {
        let mut c = Cursor::new(r#"le_9="a\"b\x" rest"#);
        assert_eq!(c.ident(), Some("le_9"));
        assert!(c.expect(":").unwrap_err().contains("expected \":\""));
        c.expect("=").unwrap();
        let only_quote = |e: char, c: &mut Cursor<'_>| {
            if e == '"' { Ok(e) } else { Err(c.error(format!("bad escape {e}"))) }
        };
        assert_eq!(c.quoted(only_quote), Err("bad escape x at byte 12".to_string()));
        let mut c = Cursor::new(r#""a\"b" 9"#);
        assert_eq!(c.quoted(only_quote).as_deref(), Ok("a\"b"));
        assert_eq!(c.ident(), None);
        assert!(c.end().is_err());
        assert!(Cursor::new("\"open").quoted(only_quote).unwrap_err().contains("unterminated"));
    }
}
