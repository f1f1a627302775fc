//! Lossless-enough Rust tokenizer for the lint rules.
//!
//! The engine needs token streams with line numbers, with comments and
//! string/char contents *excluded* from the significant-token stream (so
//! a `"partial_cmp"` inside a string literal never trips a rule). A full
//! AST is deliberately out of scope: the rules are pattern checks over
//! token shapes, which a hand-rolled lexer covers without pulling
//! `syn`/`proc-macro2` into an otherwise offline build.
//!
//! Handled: line/doc comments, nested block comments, cooked and raw
//! string literals (`r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `c"…"`),
//! char literals vs. lifetimes, integer vs. float literals (including
//! exponents and `f32`/`f64` suffixes), and single-char punctuation.

/// Kind of one significant token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (text retained for matching).
    Ident(String),
    /// Lifetime such as `'a` (text not needed by any rule).
    Lifetime,
    /// Integer literal.
    Int,
    /// Float literal: has a fraction, an exponent, or an `f32`/`f64`
    /// suffix. `1.max(2)` stays an `Int` (method call on an integer).
    Float,
    /// String literal of any flavour; body retained verbatim (escapes
    /// uninterpreted) for the metric-name taxonomy rule.
    Str(String),
    /// Char or byte literal; contents dropped.
    Char,
    /// One punctuation character (`==` arrives as two adjacent `=`).
    Punct(char),
}

/// One significant token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: Tok,
    pub line: u32,
}

impl Token {
    /// Identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when the token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == Tok::Punct(c)
    }

    /// True when the token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, Tok::Ident(t) if t == s)
    }

    /// The string literal's body, when the token is one.
    pub fn str_body(&self) -> Option<&str> {
        match &self.kind {
            Tok::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// Tokenizes `src`. Unterminated constructs (mid-edit files) are closed
/// at end of input rather than reported — the lint gate runs on committed
/// code, where rustc has already rejected malformed syntax.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// Advances one byte, tracking line numbers.
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn push(&mut self, kind: Tok, line: u32) {
        self.out.push(Token { kind, line });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(b) = self.peek(0) {
            let line = self.line;
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.cooked_string(),
                b'\'' => self.char_or_lifetime(),
                b'0'..=b'9' => self.number(),
                b'_' | b'a'..=b'z' | b'A'..=b'Z' => self.ident_or_prefixed_literal(),
                _ => {
                    // Multi-byte UTF-8 only occurs inside strings/comments
                    // in real Rust source; treat stray bytes as punctuation.
                    self.bump();
                    self.push(Tok::Punct(b as char), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        while self.peek(0).is_some_and(|b| b != b'\n') {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump(); // consume `/*`
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some(b'*'), Some(b'/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    /// A cooked (escaped) string body, starting at the opening quote. The
    /// body is retained verbatim (escapes uninterpreted) — the metric-name
    /// taxonomy rule (GX602) matches on literal contents.
    fn cooked_string(&mut self) {
        let line = self.line;
        self.bump(); // opening `"`
        let start = self.pos;
        let mut end;
        loop {
            end = self.pos;
            match self.bump() {
                Some(b'\\') => {
                    self.bump();
                }
                Some(b'"') | None => break,
                Some(_) => {}
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..end]).into_owned();
        self.push(Tok::Str(text), line);
    }

    /// A raw string body, starting at the `r`-prefix hashes: `#*"…"#*`.
    fn raw_string(&mut self, line: u32) {
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            self.bump();
            hashes += 1;
        }
        self.bump(); // opening `"`
        let start = self.pos;
        let mut end;
        loop {
            end = self.pos;
            match self.bump() {
                Some(b'"') => {
                    let mut seen = 0usize;
                    while seen < hashes && self.peek(0) == Some(b'#') {
                        self.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        break;
                    }
                }
                Some(_) => {}
                None => {
                    end = self.pos;
                    break;
                }
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..end]).into_owned();
        self.push(Tok::Str(text), line);
    }

    /// Disambiguates `'a` (lifetime) from `'x'` / `'\n'` (char literal):
    /// a quote is a char literal iff a closing quote follows the single
    /// (possibly escaped) character.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // opening `'`
        match self.peek(0) {
            Some(b'\\') => {
                // Escaped char literal: consume to the closing quote.
                self.bump();
                self.bump(); // escape selector (enough for \u too: loop below)
                while let Some(b) = self.bump() {
                    if b == b'\'' {
                        break;
                    }
                }
                self.push(Tok::Char, line);
            }
            Some(b) if is_ident_char(b) => {
                if self.peek(1) == Some(b'\'') {
                    // 'x'
                    self.bump();
                    self.bump();
                    self.push(Tok::Char, line);
                } else {
                    // Lifetime: consume the identifier characters.
                    while matches!(self.peek(0), Some(c) if is_ident_char(c)) {
                        self.bump();
                    }
                    self.push(Tok::Lifetime, line);
                }
            }
            Some(_) => {
                // Punctuation or multi-byte char literal: scan to the
                // closing quote (multi-byte chars cannot contain `'`).
                while let Some(b) = self.bump() {
                    if b == b'\'' {
                        break;
                    }
                }
                self.push(Tok::Char, line);
            }
            None => self.push(Tok::Punct('\''), line),
        }
    }

    fn number(&mut self) {
        let line = self.line;
        let mut float = false;
        if self.peek(0) == Some(b'0')
            && matches!(self.peek(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'))
        {
            // Radix literal: hex/octal/binary, always an integer.
            self.bump();
            self.bump();
            while matches!(self.peek(0), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
                self.bump();
            }
            self.push(Tok::Int, line);
            return;
        }
        self.digits();
        // A fraction only when the dot is followed by a digit or ends the
        // expression (`1.`): `1..2` is a range, `1.max(2)` a method call.
        if self.peek(0) == Some(b'.') {
            match self.peek(1) {
                Some(b'0'..=b'9') => {
                    float = true;
                    self.bump();
                    self.digits();
                }
                Some(b'.') => {}                  // range: `1..n`
                Some(c) if is_ident_char(c) => {} // method: `1.max(n)`
                _ => {
                    float = true;
                    self.bump(); // trailing dot: `1.`
                }
            }
        }
        if matches!(self.peek(0), Some(b'e' | b'E')) {
            let sign = matches!(self.peek(1), Some(b'+' | b'-')) as usize;
            if matches!(self.peek(1 + sign), Some(b'0'..=b'9')) {
                float = true;
                self.bump();
                if sign == 1 {
                    self.bump();
                }
                self.digits();
            }
        }
        // Type suffix (`1.0f64`, `3u32`).
        let sfx_start = self.pos;
        while matches!(self.peek(0), Some(c) if is_ident_char(c)) {
            self.bump();
        }
        let suffix = &self.src[sfx_start..self.pos];
        if suffix == b"f32" || suffix == b"f64" {
            float = true;
        }
        self.push(if float { Tok::Float } else { Tok::Int }, line);
    }

    fn digits(&mut self) {
        while matches!(self.peek(0), Some(b'0'..=b'9' | b'_')) {
            self.bump();
        }
    }

    /// An identifier, or a string literal carrying an identifier prefix
    /// (`r"…"`, `b'…'`, `br#"…"#`, `c"…"`, …).
    fn ident_or_prefixed_literal(&mut self) {
        let line = self.line;
        let start = self.pos;
        while matches!(self.peek(0), Some(c) if is_ident_char(c)) {
            self.bump();
        }
        let text = &self.src[start..self.pos];
        let raw = matches!(text, b"r" | b"br" | b"cr" | b"rb");
        let cookable = matches!(text, b"b" | b"c");
        match self.peek(0) {
            Some(b'"') if raw || cookable => {
                if raw {
                    self.raw_string(line);
                } else {
                    self.cooked_string();
                }
            }
            Some(b'#') if raw && self.raw_hashes_then_quote() => self.raw_string(line),
            Some(b'\'') if text == b"b" => {
                self.char_or_lifetime();
            }
            _ => {
                let s = String::from_utf8_lossy(text).into_owned();
                self.push(Tok::Ident(s), line);
            }
        }
    }

    /// True when the bytes ahead are `#`+ followed by `"` (a raw-string
    /// opener, as opposed to `r#keyword` raw identifiers).
    fn raw_hashes_then_quote(&self) -> bool {
        let mut k = 0usize;
        while self.peek(k) == Some(b'#') {
            k += 1;
        }
        k > 0 && self.peek(k) == Some(b'"')
    }
}

fn is_ident_char(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ks = kinds("let x = a.b(1);");
        assert_eq!(
            ks,
            vec![
                Tok::Ident("let".into()),
                Tok::Ident("x".into()),
                Tok::Punct('='),
                Tok::Ident("a".into()),
                Tok::Punct('.'),
                Tok::Ident("b".into()),
                Tok::Punct('('),
                Tok::Int,
                Tok::Punct(')'),
                Tok::Punct(';'),
            ]
        );
    }

    #[test]
    fn float_vs_int_vs_range_vs_method() {
        assert_eq!(kinds("1.0"), vec![Tok::Float]);
        assert_eq!(kinds("1e-3"), vec![Tok::Float]);
        assert_eq!(kinds("1f64"), vec![Tok::Float]);
        assert_eq!(kinds("0x1f"), vec![Tok::Int]);
        assert_eq!(
            kinds("1..2"),
            vec![Tok::Int, Tok::Punct('.'), Tok::Punct('.'), Tok::Int]
        );
        assert_eq!(
            kinds("1.max(2)"),
            vec![
                Tok::Int,
                Tok::Punct('.'),
                Tok::Ident("max".into()),
                Tok::Punct('('),
                Tok::Int,
                Tok::Punct(')'),
            ]
        );
    }

    #[test]
    fn strings_keep_their_body_as_one_token() {
        // One Str token per literal — the rules never see into a string as
        // punctuation/idents — but the body itself is retained for GX602.
        assert_eq!(
            kinds(r#"("partial_cmp")"#),
            vec![
                Tok::Punct('('),
                Tok::Str("partial_cmp".into()),
                Tok::Punct(')')
            ]
        );
        assert_eq!(
            kinds(r##"r#"un"wrap"#"##),
            vec![Tok::Str("un\"wrap".into())]
        );
        assert_eq!(kinds(r#"b"bytes""#), vec![Tok::Str("bytes".into())]);
        // Escapes are kept verbatim, not interpreted.
        assert_eq!(
            kinds("\"esc \\\" quote\""),
            vec![Tok::Str("esc \\\" quote".into())]
        );
        assert_eq!(
            kinds("\"unterminated"),
            vec![Tok::Str("unterminated".into())]
        );
    }

    #[test]
    fn chars_and_lifetimes() {
        assert_eq!(kinds("'a'"), vec![Tok::Char]);
        assert_eq!(kinds(r"'\n'"), vec![Tok::Char]);
        assert_eq!(kinds(r"'\''"), vec![Tok::Char]);
        assert_eq!(
            kinds("&'a str"),
            vec![Tok::Punct('&'), Tok::Lifetime, Tok::Ident("str".into())]
        );
        assert_eq!(kinds("b'x'"), vec![Tok::Char]);
    }

    #[test]
    fn comments_are_skipped() {
        let out = lex("a // unwrap()\nb /* block\nstill */ c");
        let idents: Vec<_> = out.iter().filter_map(|t| t.ident()).collect();
        assert_eq!(idents, vec!["a", "b", "c"]);
        assert_eq!(out[2].line, 3, "token after block comment");
    }

    #[test]
    fn raw_identifier_is_not_a_string() {
        assert_eq!(
            kinds("r#fn"),
            vec![
                Tok::Ident("r".into()),
                Tok::Punct('#'),
                Tok::Ident("fn".into())
            ]
        );
        // (good enough: `r#fn` never matches a lint pattern either way)
    }

    #[test]
    fn line_numbers() {
        let out = lex("a\nb\n\nc");
        let lines: Vec<_> = out.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }
}
