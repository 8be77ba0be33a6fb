//! Tokenizer for the CUDA-C subset.
//!
//! Errors are reported as [`catt_diag::Diagnostic`]s with byte spans
//! into the source; [`Lexer::tokenize_recover`] additionally *recovers*
//! (skip the offending byte or malformed literal and keep lexing) so
//! one submission can surface every lexical error at once. The lexer
//! contains no panic or unwrap sites: arbitrary byte soup — including
//! invalid UTF-8 reached through fuzzing — lexes to tokens plus
//! diagnostics.
//!
//! Tokens borrow from the source: an identifier is a slice of it, and
//! punctuation is one of the fixed `&'static str` spellings, picked by a
//! match on its first byte. Lexing well-formed input allocates nothing
//! but the token vector.

use catt_diag::{codes, Diagnostic, Span};
use std::fmt;

/// Token kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind<'a> {
    /// Identifier or keyword: its text in the source.
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Float literal (`1.5`, `1.0f`, `1e-3`).
    Float(f64),
    /// Punctuation / operator, one of the fixed spellings below.
    Punct(&'static str),
    /// `#define` directive marker (the lexer keeps preprocessor lines as
    /// tokens so the parser can interpret them).
    HashDefine,
    /// End of input.
    Eof,
}

/// The operator or punctuation spelled at the start of `rest`, longest
/// match first (maximal munch), if any.
fn punct(rest: &[u8]) -> Option<&'static str> {
    let at = |i: usize| rest.get(i).copied();
    let next = at(1);
    Some(match at(0)? {
        b'<' => match (next, at(2)) {
            (Some(b'<'), Some(b'=')) => "<<=",
            (Some(b'<'), _) => "<<",
            (Some(b'='), _) => "<=",
            _ => "<",
        },
        b'>' => match (next, at(2)) {
            (Some(b'>'), Some(b'=')) => ">>=",
            (Some(b'>'), _) => ">>",
            (Some(b'='), _) => ">=",
            _ => ">",
        },
        b'=' if next == Some(b'=') => "==",
        b'=' => "=",
        b'!' if next == Some(b'=') => "!=",
        b'!' => "!",
        b'&' => match next {
            Some(b'&') => "&&",
            Some(b'=') => "&=",
            _ => "&",
        },
        b'|' => match next {
            Some(b'|') => "||",
            Some(b'=') => "|=",
            _ => "|",
        },
        b'+' => match next {
            Some(b'=') => "+=",
            Some(b'+') => "++",
            _ => "+",
        },
        b'-' => match next {
            Some(b'=') => "-=",
            Some(b'-') => "--",
            Some(b'>') => "->",
            _ => "-",
        },
        b'*' if next == Some(b'=') => "*=",
        b'*' => "*",
        b'/' if next == Some(b'=') => "/=",
        b'/' => "/",
        b'%' if next == Some(b'=') => "%=",
        b'%' => "%",
        b'^' if next == Some(b'=') => "^=",
        b'^' => "^",
        b'(' => "(",
        b')' => ")",
        b'{' => "{",
        b'}' => "}",
        b'[' => "[",
        b']' => "]",
        b';' => ";",
        b',' => ",",
        b'?' => "?",
        b':' => ":",
        b'.' => ".",
        b'~' => "~",
        _ => return None,
    })
}

/// A token with its source position (1-based line and column) and byte
/// span into the original source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token<'a> {
    pub kind: TokenKind<'a>,
    pub line: u32,
    pub col: u32,
    pub span: Span,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Int(v) => write!(f, "integer `{v}`"),
            TokenKind::Float(v) => write!(f, "float `{v}`"),
            TokenKind::Punct(p) => write!(f, "`{p}`"),
            TokenKind::HashDefine => write!(f, "`#define`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// Streaming tokenizer.
pub struct Lexer<'a> {
    /// The source as text (identifiers are slices of it) and as bytes.
    source: &'a str,
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    /// Create a lexer over `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            source: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// Tokenize the entire input, appending a final `Eof` token. Stops
    /// at the first lexical error.
    pub fn tokenize(src: &'a str) -> Result<Vec<Token<'a>>, Diagnostic> {
        let (tokens, mut diags) = Lexer::tokenize_recover(src);
        if diags.is_empty() {
            Ok(tokens)
        } else {
            Err(diags.remove(0))
        }
    }

    /// Tokenize with recovery: every lexical error becomes a diagnostic
    /// and lexing continues past it. The token stream always ends with
    /// `Eof`, so the parser can run over partially-broken input.
    pub fn tokenize_recover(src: &'a str) -> (Vec<Token<'a>>, Vec<Diagnostic>) {
        let mut lx = Lexer::new(src);
        let mut out = Vec::new();
        let mut diags = Vec::new();
        loop {
            let before = lx.pos;
            match lx.next_token() {
                Ok(t) => {
                    let is_eof = t.kind == TokenKind::Eof;
                    out.push(t);
                    if is_eof {
                        return (out, diags);
                    }
                }
                Err(d) => {
                    // Same error budget as the parser: past it, keep
                    // consuming (so the token stream stays usable) but
                    // stop accumulating diagnostics — a pathological
                    // input must not allocate one per byte.
                    if diags.len() < crate::parser::MAX_ERRORS {
                        diags.push(d);
                    }
                    // Recovery: every error path in `next_token` consumes
                    // at least the offending byte; the defensive bump
                    // guarantees progress even if one does not.
                    if lx.pos == before {
                        lx.bump();
                    }
                    if lx.pos >= lx.src.len() {
                        let at = lx.pos as u32;
                        out.push(Token {
                            kind: TokenKind::Eof,
                            line: lx.line,
                            col: lx.col,
                            span: Span::point(at),
                        });
                        return (out, diags);
                    }
                }
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Slice `[start, pos)` as text. The lexer only groups ASCII bytes
    /// into multi-byte tokens, so this is normally valid UTF-8; the
    /// lossy fallback keeps arbitrary byte soup panic-free.
    fn text(&self, start: usize) -> std::borrow::Cow<'a, str> {
        String::from_utf8_lossy(&self.src[start..self.pos])
    }

    fn error(
        &self,
        code: catt_diag::Code,
        message: String,
        start: usize,
        line: u32,
        col: u32,
    ) -> Diagnostic {
        let end = self.pos.max(start + 1).min(self.src.len()).max(start);
        Diagnostic::error(code, message)
            .with_span(Span::new(start as u32, end as u32))
            .at(line, col)
    }

    fn skip_trivia(&mut self) -> Result<(), Diagnostic> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let (start, line, col) = (self.pos, self.line, self.col);
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => {
                                return Err(Diagnostic::error(
                                    codes::UNTERMINATED_COMMENT,
                                    "unterminated block comment",
                                )
                                .with_span(Span::new(start as u32, (start + 2) as u32))
                                .at(line, col));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Produce the next token.
    pub fn next_token(&mut self) -> Result<Token<'a>, Diagnostic> {
        self.skip_trivia()?;
        let (start, line, col) = (self.pos, self.line, self.col);
        let Some(c) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                line,
                col,
                span: Span::point(start as u32),
            });
        };

        // Preprocessor: only `#define` is meaningful; `#include` and
        // `#pragma` lines are skipped entirely.
        if c == b'#' {
            while let Some(c) = self.peek() {
                if !c.is_ascii_alphanumeric() && c != b'#' {
                    break;
                }
                self.bump();
            }
            match &self.src[start..self.pos] {
                b"#define" => {
                    return Ok(Token {
                        kind: TokenKind::HashDefine,
                        line,
                        col,
                        span: Span::new(start as u32, self.pos as u32),
                    })
                }
                _ => {
                    // Skip the rest of the directive line and re-lex.
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                    return self.next_token();
                }
            }
        }

        if c.is_ascii_alphabetic() || c == b'_' {
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == b'_' {
                    self.bump();
                } else {
                    break;
                }
            }
            // Identifiers are ASCII, so both ends are character
            // boundaries of the source text.
            let s = self.source.get(start..self.pos).unwrap_or_default();
            return Ok(Token {
                kind: TokenKind::Ident(s),
                line,
                col,
                span: Span::new(start as u32, self.pos as u32),
            });
        }

        if c.is_ascii_digit() || (c == b'.' && self.peek2().is_some_and(|d| d.is_ascii_digit())) {
            return self.lex_number(start, line, col);
        }

        if let Some(p) = punct(&self.src[self.pos..]) {
            // No spelling holds a newline: the token stays on this line.
            self.pos += p.len();
            self.col += p.len() as u32;
            return Ok(Token {
                kind: TokenKind::Punct(p),
                line,
                col,
                span: Span::new(start as u32, self.pos as u32),
            });
        }

        // `c` may be a stray non-ASCII byte (including bytes that are not
        // valid UTF-8 on their own); render it without assuming anything,
        // and consume it so recovery makes progress.
        self.bump();
        let shown = if c.is_ascii_graphic() {
            format!("`{}`", c as char)
        } else {
            format!("byte 0x{c:02x}")
        };
        Err(Diagnostic::error(
            codes::UNEXPECTED_CHARACTER,
            format!("unexpected character {shown}"),
        )
        .with_span(Span::new(start as u32, (start + 1) as u32))
        .at(line, col))
    }

    fn lex_number(&mut self, start: usize, line: u32, col: u32) -> Result<Token<'a>, Diagnostic> {
        let mut is_float = false;
        // Hex literals.
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.bump();
            self.bump();
            let hstart = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                self.bump();
            }
            let text = self.text(hstart);
            let v = i64::from_str_radix(text.as_ref(), 16).map_err(|_| {
                self.error(
                    codes::MALFORMED_INT,
                    format!("malformed hex literal `{}`", self.text(start)),
                    start,
                    line,
                    col,
                )
            })?;
            return Ok(Token {
                kind: TokenKind::Int(v),
                line,
                col,
                span: Span::new(start as u32, self.pos as u32),
            });
        }
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        if self.peek() == Some(b'.') && self.peek2() != Some(b'.') {
            is_float = true;
            self.bump();
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let save = (self.pos, self.line, self.col);
            self.bump();
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.bump();
            }
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                }
            } else {
                // Not an exponent after all (e.g. identifier suffix).
                self.pos = save.0;
                self.line = save.1;
                self.col = save.2;
            }
        }
        let digits_end = self.pos;
        // Trailing f/F (float) or u/U/l/L suffixes.
        let mut suffix_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'f' | b'F' => {
                    suffix_float = true;
                    self.bump();
                }
                b'u' | b'U' | b'l' | b'L' => {
                    self.bump();
                }
                _ => break,
            }
        }
        let text = String::from_utf8_lossy(&self.src[start..digits_end]);
        let span = Span::new(start as u32, self.pos as u32);
        if is_float || suffix_float {
            let v: f64 = text.parse().map_err(|_| {
                Diagnostic::error(
                    codes::MALFORMED_FLOAT,
                    format!("malformed float literal `{text}`"),
                )
                .with_span(span)
                .at(line, col)
            })?;
            Ok(Token {
                kind: TokenKind::Float(v),
                line,
                col,
                span,
            })
        } else {
            let v: i64 = text.parse().map_err(|_| {
                Diagnostic::error(
                    codes::MALFORMED_INT,
                    format!("malformed integer literal `{text}`"),
                )
                .with_span(span)
                .at(line, col)
            })?;
            Ok(Token {
                kind: TokenKind::Int(v),
                line,
                col,
                span,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        Lexer::tokenize(src)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_identifiers_and_ints() {
        let ks = kinds("int x = 42;");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("int"),
                TokenKind::Ident("x"),
                TokenKind::Punct("="),
                TokenKind::Int(42),
                TokenKind::Punct(";"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_floats_with_suffix() {
        assert_eq!(kinds("1.5f")[0], TokenKind::Float(1.5));
        assert_eq!(kinds("0.0f")[0], TokenKind::Float(0.0));
        assert_eq!(kinds("2.f")[0], TokenKind::Float(2.0));
        assert_eq!(kinds("1e-3")[0], TokenKind::Float(1e-3));
        assert_eq!(kinds("3f")[0], TokenKind::Float(3.0));
    }

    #[test]
    fn int_with_unsigned_suffix() {
        assert_eq!(kinds("42u")[0], TokenKind::Int(42));
        assert_eq!(kinds("0x1F")[0], TokenKind::Int(31));
    }

    #[test]
    fn maximal_munch_operators() {
        let ks = kinds("a <<= b << c <= d < e");
        let puncts: Vec<_> = ks
            .iter()
            .filter_map(|k| match k {
                TokenKind::Punct(p) => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(puncts, vec!["<<=", "<<", "<=", "<"]);
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("a // comment\n /* multi\nline */ b");
        assert_eq!(
            ks,
            vec![TokenKind::Ident("a"), TokenKind::Ident("b"), TokenKind::Eof]
        );
    }

    #[test]
    fn unterminated_comment_errors() {
        let e = Lexer::tokenize("/* oops").unwrap_err();
        assert_eq!(e.code, catt_diag::codes::UNTERMINATED_COMMENT);
        assert_eq!(e.span, Some(Span::new(0, 2)));
    }

    #[test]
    fn define_token_and_skipped_directives() {
        let ks = kinds("#include <stdio.h>\n#define NX 40960\nx");
        assert_eq!(
            ks,
            vec![
                TokenKind::HashDefine,
                TokenKind::Ident("NX"),
                TokenKind::Int(40960),
                TokenKind::Ident("x"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn positions_track_lines_and_spans() {
        let ts = Lexer::tokenize("a\n  b").unwrap();
        assert_eq!((ts[0].line, ts[0].col), (1, 1));
        assert_eq!((ts[1].line, ts[1].col), (2, 3));
        assert_eq!(ts[0].span, Span::new(0, 1));
        assert_eq!(ts[1].span, Span::new(4, 5));
        assert_eq!(ts[2].span, Span::point(5)); // Eof
    }

    #[test]
    fn member_access_dots() {
        let ks = kinds("threadIdx.x");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("threadIdx"),
                TokenKind::Punct("."),
                TokenKind::Ident("x"),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn unexpected_character_errors() {
        let e = Lexer::tokenize("a @ b").unwrap_err();
        assert!(e.message.contains('@'));
        assert_eq!(e.line, 1);
        assert_eq!(e.col, 3);
        assert_eq!(e.span, Some(Span::new(2, 3)));
    }

    #[test]
    fn recovery_collects_multiple_errors() {
        let (tokens, diags) = Lexer::tokenize_recover("a @ b $ c");
        assert_eq!(diags.len(), 2);
        assert!(diags
            .iter()
            .all(|d| d.code == catt_diag::codes::UNEXPECTED_CHARACTER));
        let idents: Vec<_> = tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(idents, vec!["a", "b", "c"]);
        assert_eq!(tokens.last().map(|t| t.kind), Some(TokenKind::Eof));
    }

    #[test]
    fn huge_int_literal_is_a_diagnostic_not_a_panic() {
        let (_, diags) = Lexer::tokenize_recover("x = 99999999999999999999;");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, catt_diag::codes::MALFORMED_INT);
        let s = diags[0].span.unwrap();
        assert!(s.in_bounds("x = 99999999999999999999;".len()));
    }

    #[test]
    fn non_utf8_safe_paths() {
        // Lexer is byte-oriented; drive it with a lossy-decoded string the
        // way the fuzzer does, plus a stray continuation byte.
        let src = String::from_utf8_lossy(&[b'a', 0xC3, 0x28, b'b']).into_owned();
        let (tokens, diags) = Lexer::tokenize_recover(&src);
        assert!(!diags.is_empty());
        for d in &diags {
            assert!(d.span.is_some_and(|s| s.in_bounds(src.len())));
        }
        assert!(tokens.iter().any(|t| t.kind == TokenKind::Ident("a")));
    }
}
