//! A total, span-tiling Rust lexer.
//!
//! "Total" means [`lex`] never fails: any input (including non-Rust text)
//! produces a token stream, with unrecognized characters emitted as
//! [`TokenKind::Unknown`]. "Span-tiling" means the token spans partition
//! the input exactly: non-overlapping, in-bounds, on `char` boundaries,
//! and concatenating the spanned slices reproduces the source byte for
//! byte (property-tested in `tests/seeded_lexer.rs`). Trivia
//! (whitespace and comments) is kept as tokens so the tiling holds; the
//! parser filters it out.
//!
//! Coverage is the subset of Rust the workspace uses: nested block
//! comments, string/raw-string/byte-string/char literals, lifetimes,
//! numbers with exponents and suffixes, identifiers (any alphabetic
//! start, so non-ASCII text degrades to ident tokens rather than
//! errors), and single-character punctuation.

/// Classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// A run of whitespace characters.
    Whitespace,
    /// `// ...` to end of line (newline not included).
    LineComment,
    /// `/* ... */`, nesting honored; unterminated runs to end of input.
    BlockComment,
    /// Identifier or keyword (`r#ident` raw identifiers included).
    Ident,
    /// `'lifetime` (including `'_`).
    Lifetime,
    /// Integer or float literal, suffixes included.
    Number,
    /// `"..."` / `b"..."` string literal with escapes.
    Str,
    /// `r"..."` / `r#"..."#` / `br#"..."#` raw string literal.
    RawStr,
    /// `'x'` character or byte literal.
    Char,
    /// A single punctuation character (`.`, `(`, `::` is two tokens, …).
    Punct,
    /// Any character the lexer has no rule for (totality fallback).
    Unknown,
}

/// One token: a [`TokenKind`] plus its byte span in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Byte offset of the token's first character.
    pub start: usize,
    /// Byte offset one past the token's last character.
    pub end: usize,
}

impl Token {
    /// The token's text within `source` (the source it was lexed from).
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        &source[self.start..self.end]
    }
}

/// True for characters that may continue an identifier.
fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// True for characters that may start an identifier.
fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

/// Lexes `source` into a token stream that tiles it exactly.
pub fn lex(source: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    let mut cursor = Cursor {
        source,
        chars: source.char_indices().peekable(),
    };
    while let Some(token) = cursor.next_token() {
        tokens.push(token);
    }
    tokens
}

struct Cursor<'s> {
    source: &'s str,
    chars: std::iter::Peekable<std::str::CharIndices<'s>>,
}

impl Cursor<'_> {
    fn peek(&mut self) -> Option<char> {
        self.chars.peek().map(|&(_, c)| c)
    }

    /// Byte offset the next character starts at (source length at EOF).
    fn pos(&mut self) -> usize {
        self.chars
            .peek()
            .map_or(self.source.len(), |&(i, _)| i)
    }

    fn bump(&mut self) -> Option<char> {
        self.chars.next().map(|(_, c)| c)
    }

    fn eat_while(&mut self, pred: impl Fn(char) -> bool) {
        while self.peek().is_some_and(&pred) {
            self.bump();
        }
    }

    fn next_token(&mut self) -> Option<Token> {
        let start = self.pos();
        let first = self.bump()?;
        let kind = match first {
            c if c.is_whitespace() => {
                self.eat_while(char::is_whitespace);
                TokenKind::Whitespace
            }
            '/' => match self.peek() {
                Some('/') => {
                    self.eat_while(|c| c != '\n');
                    TokenKind::LineComment
                }
                Some('*') => {
                    self.bump();
                    self.block_comment();
                    TokenKind::BlockComment
                }
                _ => TokenKind::Punct,
            },
            '\'' => self.lifetime_or_char(),
            '"' => {
                self.string_body();
                TokenKind::Str
            }
            'r' | 'b' | 'c' => self.prefixed_or_ident(first, start),
            c if is_ident_start(c) => {
                self.eat_while(is_ident_continue);
                TokenKind::Ident
            }
            c if c.is_ascii_digit() => {
                self.number_body();
                TokenKind::Number
            }
            c if c.is_ascii_punctuation() => TokenKind::Punct,
            _ => TokenKind::Unknown,
        };
        Some(Token {
            kind,
            start,
            end: self.pos(),
        })
    }

    /// Consumes a (possibly nested) block comment body after `/*`.
    fn block_comment(&mut self) {
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                Some('*') if self.peek() == Some('/') => {
                    self.bump();
                    depth -= 1;
                }
                Some('/') if self.peek() == Some('*') => {
                    self.bump();
                    depth += 1;
                }
                Some(_) => {}
                None => break, // unterminated: runs to EOF, still total
            }
        }
    }

    /// After a `'`: a lifetime (`'a`, `'_`) or a char literal (`'x'`,
    /// `'\n'`). A lone quote degrades to punctuation.
    fn lifetime_or_char(&mut self) -> TokenKind {
        match self.peek() {
            Some('\\') => {
                self.bump();
                self.bump(); // the escaped character
                // Multi-char escapes (`\x41`, `\u{..}`) run to the quote.
                self.eat_while(|c| c != '\'' && c != '\n');
                if self.peek() == Some('\'') {
                    self.bump();
                }
                TokenKind::Char
            }
            Some(c) if is_ident_start(c) => {
                // `'a'` is a char, `'a` (no closing quote after one ident
                // char) is a lifetime; `'static` is a lifetime.
                self.bump();
                if self.peek() == Some('\'') {
                    self.bump();
                    TokenKind::Char
                } else {
                    self.eat_while(is_ident_continue);
                    TokenKind::Lifetime
                }
            }
            Some(c) if c != '\'' && c != '\n' => {
                self.bump();
                if self.peek() == Some('\'') {
                    self.bump();
                }
                TokenKind::Char
            }
            _ => TokenKind::Punct,
        }
    }

    /// Consumes a string body after the opening `"` (escapes honored;
    /// unterminated runs to EOF).
    fn string_body(&mut self) {
        loop {
            match self.bump() {
                Some('\\') => {
                    self.bump();
                }
                Some('"') | None => break,
                Some(_) => {}
            }
        }
    }

    /// After `r`/`b`/`c`: a raw string, a prefixed string (`b"…"`), a raw
    /// identifier (`r#ident`), or a plain identifier starting with that
    /// letter.
    fn prefixed_or_ident(&mut self, first: char, start: usize) -> TokenKind {
        // `br"` / `rb"` style two-letter prefixes.
        if (first == 'b' && self.peek() == Some('r'))
            && matches!(self.source[start..].chars().nth(2), Some('"' | '#'))
        {
            self.bump();
            return self.raw_string_or_ident();
        }
        match self.peek() {
            Some('"') => {
                self.bump();
                if first == 'r' {
                    // `r"…"`: no-hash raw string — no escape processing.
                    self.eat_while(|c| c != '"');
                    self.bump();
                    TokenKind::RawStr
                } else {
                    self.string_body();
                    TokenKind::Str
                }
            }
            Some('#') if first == 'r' => self.raw_string_or_ident(),
            Some('\'') if first == 'b' => {
                self.bump();
                self.lifetime_or_char();
                TokenKind::Char
            }
            _ => {
                self.eat_while(is_ident_continue);
                TokenKind::Ident
            }
        }
    }

    /// After the prefix letters of a raw string: `#…#"…"#…#` (or a raw
    /// identifier `r#ident`, which has no quote after the hashes).
    fn raw_string_or_ident(&mut self) -> TokenKind {
        let mut hashes = 0usize;
        while self.peek() == Some('#') {
            self.bump();
            hashes += 1;
        }
        if self.peek() != Some('"') {
            // `r#ident` raw identifier (exactly one hash, then ident).
            self.eat_while(is_ident_continue);
            return TokenKind::Ident;
        }
        self.bump(); // opening quote
        loop {
            match self.bump() {
                Some('"') => {
                    let mut seen = 0usize;
                    while seen < hashes && self.peek() == Some('#') {
                        self.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        return TokenKind::RawStr;
                    }
                }
                None => return TokenKind::RawStr, // unterminated: total anyway
                Some(_) => {}
            }
        }
    }

    /// Consumes a number body after its first digit: digits, `_`, type
    /// suffixes, `.` only when a digit follows (so `1..2` stays a range),
    /// and `e±`/`E±` exponents.
    fn number_body(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_alphanumeric() || c == '_' => {
                    self.bump();
                    if (c == 'e' || c == 'E') && matches!(self.peek(), Some('+' | '-')) {
                        self.bump();
                    }
                }
                Some('.') => {
                    // A second `char_indices` clone peeks past the dot.
                    let mut ahead = self.chars.clone();
                    ahead.next();
                    if ahead.next().is_some_and(|(_, c)| c.is_ascii_digit()) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src)
            .into_iter()
            .filter(|t| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|t| t.kind)
            .collect()
    }

    fn tiles(src: &str) {
        let tokens = lex(src);
        let mut pos = 0;
        for t in &tokens {
            assert_eq!(t.start, pos, "gap or overlap at {pos} in {src:?}");
            assert!(t.end > t.start, "empty token in {src:?}");
            pos = t.end;
        }
        assert_eq!(pos, src.len(), "trailing gap in {src:?}");
    }

    #[test]
    fn tiles_basic_rust() {
        for src in [
            "fn f(x: &str) -> usize { x.len() }",
            "let s = \"he\\\"llo\"; // done\n/* multi\nline */ let r = r#\"raw\"#;",
            "let c = 'x'; let l: &'static str = \"\"; let n = 1.5e-3_f64;",
            "g.lock().push(1..2); b\"bytes\"; r\"raw2\"; 'a: loop { break 'a; }",
            "/* nested /* deeper */ still */ ok",
            "unterminated \"string goes on",
        ] {
            tiles(src);
        }
    }

    #[test]
    fn classifies_lifetime_vs_char() {
        assert_eq!(kinds("'a"), vec![TokenKind::Lifetime]);
        assert_eq!(kinds("'a'"), vec![TokenKind::Char]);
        assert_eq!(kinds("'static"), vec![TokenKind::Lifetime]);
        assert_eq!(kinds("'\\n'"), vec![TokenKind::Char]);
    }

    #[test]
    fn classifies_raw_strings_and_idents() {
        assert_eq!(kinds("r#\"x\"#"), vec![TokenKind::RawStr]);
        assert_eq!(kinds("r\"x\""), vec![TokenKind::RawStr]);
        assert_eq!(kinds("r#match"), vec![TokenKind::Ident]);
        assert_eq!(kinds("rust"), vec![TokenKind::Ident]);
        assert_eq!(kinds("b\"x\""), vec![TokenKind::Str]);
    }

    #[test]
    fn number_does_not_eat_range_dots() {
        let toks = kinds("0..batch.len()");
        assert_eq!(toks[0], TokenKind::Number);
        assert_eq!(toks[1], TokenKind::Punct); // first dot
    }

    #[test]
    fn totality_on_garbage() {
        tiles("\u{1F980} émoji 中文 \0 \x7f ~~@@``");
        tiles("");
        tiles("'");
    }
}
