//! A dependency-free token-level lexer for Rust source.
//!
//! This is the semantic layer's foundation: everything above it — the
//! per-line blanking in [`crate::scan`], the symbol table in
//! [`crate::symbols`], the call graph in [`crate::callgraph`] — consumes
//! this token stream rather than re-deriving lexical structure from raw
//! text. It handles the constructs that defeat heuristic scanners:
//!
//! * raw strings with `#` fences (`r"…"`, `r#"…"#`, `r##"…"##`, …) and
//!   their byte variants (`b"…"`, `br#"…"#`);
//! * char literals vs lifetimes (`'x'`, `'\''`, `'\u{1F600}'` vs `'a`,
//!   `'static`) — including the labelled-loop form `'outer:`;
//! * nested block comments (`/* a /* b */ c */`) and both doc-comment
//!   flavours (`///`, `//!`, `/** */`, `/*! */`);
//! * raw identifiers (`r#match`), numeric literals with type suffixes
//!   (`1u128`, `0xff_u8`, `1.5e3`), and greedy multi-character
//!   operators (`::`, `->`, `<<=`, `..=`, …).
//!
//! Tokens carry byte spans and 1-based start/end lines, so consumers can
//! map any token back to source coordinates for diagnostics.

use std::ops::Range;

/// What kind of lexeme a [`Token`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `impl`, `run_census`, `r#match`).
    Ident,
    /// Lifetime or loop label (`'a`, `'static`, `'outer`).
    Lifetime,
    /// Char or byte-char literal (`'x'`, `b'\n'`, `'\''`).
    Char,
    /// String literal of any flavour; `text` holds the *contents*
    /// (between the delimiters, escapes unprocessed).
    Str,
    /// Integer literal (`42`, `0xff_u8`, `1u128`).
    Int,
    /// Float literal (`1.5`, `2e10`, `1.0f64`).
    Float,
    /// Operator or punctuation, greedily matched (`::`, `<<`, `{`).
    Op,
    /// `//` comment; `text` holds everything after the `//` marker.
    /// `doc` is true for `///` and `//!`.
    LineComment {
        /// Doc-comment flavour (`///` or `//!`).
        doc: bool,
    },
    /// `/* */` comment (possibly nested, possibly multi-line).
    BlockComment {
        /// Doc-comment flavour (`/**` or `/*!`).
        doc: bool,
    },
}

/// One lexeme with its source coordinates.
#[derive(Clone, Debug)]
pub struct Token {
    /// The lexeme kind.
    pub kind: TokKind,
    /// Kind-dependent text: identifier spelling, string/comment
    /// contents, literal spelling, or the operator itself.
    pub text: String,
    /// Byte offset of the first byte in the source.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line the token starts on.
    pub line: usize,
    /// 1-based line the token ends on (differs from `line` only for
    /// multi-line strings and block comments).
    pub end_line: usize,
}

impl Token {
    /// True for identifier tokens spelling exactly `kw`.
    pub fn is_ident(&self, kw: &str) -> bool {
        self.kind == TokKind::Ident && self.text == kw
    }

    /// True for operator tokens spelling exactly `op`.
    pub fn is_op(&self, op: &str) -> bool {
        self.kind == TokKind::Op && self.text == op
    }

    /// True for line and block comments.
    pub fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokKind::LineComment { .. } | TokKind::BlockComment { .. }
        )
    }
}

/// The comment-free tokens of `tokens[range]` (clamped to the slice),
/// each paired with its index in the full stream.
pub(crate) fn code_tokens(tokens: &[Token], range: Range<usize>) -> Vec<(usize, &Token)> {
    tokens
        .iter()
        .enumerate()
        .take(range.end)
        .skip(range.start)
        .filter(|(_, t)| !t.is_comment())
        .collect()
}

/// The integer type suffix of a numeric literal's spelling, if any
/// (`"1u128"` → `Some("u128")`). Sized suffixes mark deliberate
/// bit-math operands for rule L006.
pub fn int_suffix(text: &str) -> Option<&'static str> {
    const SUFFIXES: &[&str] = &[
        "u128", "u64", "u32", "u16", "u8", "usize", "i128", "i64", "i32", "i16", "i8", "isize",
    ];
    SUFFIXES.iter().find(|s| text.ends_with(**s)).copied()
}

/// Multi-character operators, longest first so matching is greedy.
/// Single characters fall through to one-char `Op` tokens.
const MULTI_OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "<<", ">>", "&&", "||", "+=", "-=", "*=", "/=",
    "%=", "^=", "&=", "|=", "==", "!=", "<=", ">=", "..",
];

/// Lexes `src` into a token vector. The lexer is total: any byte
/// sequence produces a token stream (unterminated literals run to end of
/// input), so a syntactically broken file degrades to imprecise tokens
/// rather than a crash — the lint must never panic on the code it
/// audits.
pub fn lex(src: &str) -> Vec<Token> {
    Lexer {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    out: Vec<Token>,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.bytes.len() {
            let c = self.bytes[self.pos];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'"' => self.string(self.pos, 0, false),
                b'\'' => self.char_or_lifetime(),
                b'r' | b'b' | b'R' | b'B' if self.raw_or_byte_string() => {}
                c if c.is_ascii_digit() => self.number(),
                c if c == b'_' || c.is_ascii_alphabetic() || c >= 0x80 => self.ident(),
                _ => self.operator(),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, text: String, start: usize, start_line: usize) {
        self.out.push(Token {
            kind,
            text,
            start,
            end: self.pos,
            line: start_line,
            end_line: self.line,
        });
    }

    /// Advances one char (multi-byte safe), tracking newlines.
    fn bump(&mut self) {
        if self.bytes[self.pos] == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
        while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xc0) == 0x80 {
            self.pos += 1; // skip UTF-8 continuation bytes
        }
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        let start_line = self.line;
        self.pos += 2;
        // `///` (but not `////`) and `//!` are doc comments.
        let doc = match self.peek(0) {
            Some(b'!') => true,
            Some(b'/') => self.peek(1) != Some(b'/'),
            _ => false,
        };
        let text_start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
            self.pos += 1;
        }
        let text = self.src[text_start..self.pos].to_string();
        self.push(TokKind::LineComment { doc }, text, start, start_line);
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let start_line = self.line;
        self.pos += 2;
        // `/**` (but not `/***` or the empty `/**/`) and `/*!` are doc.
        let doc = match self.peek(0) {
            Some(b'!') => true,
            Some(b'*') => self.peek(1) != Some(b'*') && self.peek(1) != Some(b'/'),
            _ => false,
        };
        let text_start = self.pos;
        let mut depth = 1usize;
        while self.pos < self.bytes.len() && depth > 0 {
            if self.bytes[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if self.bytes[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
            } else {
                self.bump();
            }
        }
        let text_end = self.pos.saturating_sub(2).max(text_start);
        let text = self.src[text_start..text_end].to_string();
        self.push(TokKind::BlockComment { doc }, text, start, start_line);
    }

    /// Lexes a string literal starting at the opening `"` (`self.pos`
    /// must be on it), with `hashes` fence characters to match at the
    /// close. `raw` disables backslash escapes.
    fn string(&mut self, start: usize, hashes: usize, raw: bool) {
        let start_line = self.line;
        self.pos += 1; // opening quote
        let content_start = self.pos;
        let content_end;
        loop {
            if self.pos >= self.bytes.len() {
                content_end = self.pos;
                break;
            }
            let c = self.bytes[self.pos];
            if c == b'\\' && !raw {
                self.pos += 1; // the backslash
                if self.pos < self.bytes.len() {
                    self.bump(); // the escaped char (may be multi-byte)
                }
                continue;
            }
            if c == b'"' {
                // A candidate close: raw strings also need the fence.
                let fence_ok = (0..hashes).all(|i| self.peek(1 + i) == Some(b'#'));
                if fence_ok {
                    content_end = self.pos;
                    self.pos += 1 + hashes;
                    break;
                }
            }
            self.bump();
        }
        let text = self.src[content_start..content_end.min(self.src.len())].to_string();
        self.push(TokKind::Str, text, start, start_line);
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br##"…"##`, `b'x'` and raw
    /// identifiers `r#ident`. Returns false when the `r`/`b` is just the
    /// start of an ordinary identifier (caller lexes it as one).
    fn raw_or_byte_string(&mut self) -> bool {
        let start = self.pos;
        let c = self.bytes[self.pos];
        let mut look = self.pos + 1;
        let mut raw = false;
        if (c == b'b' || c == b'B') && self.bytes.get(look) == Some(&b'\'') {
            // Byte-char literal `b'x'`: reuse the char lexer.
            self.pos += 1;
            self.char_or_lifetime();
            return true;
        }
        if (c == b'b' || c == b'B')
            && self
                .bytes
                .get(look)
                .is_some_and(|&r| r == b'r' || r == b'R')
        {
            raw = true;
            look += 1;
        }
        if c == b'r' || c == b'R' {
            raw = true;
        }
        let mut hashes = 0usize;
        while self.bytes.get(look) == Some(&b'#') {
            hashes += 1;
            look += 1;
        }
        match self.bytes.get(look) {
            Some(&b'"') if raw || hashes == 0 => {
                self.pos = look;
                self.string(start, if raw { hashes } else { 0 }, raw);
                true
            }
            Some(&b'"') => false,
            _ if hashes == 1 && raw && c == b'r' => {
                // Raw identifier `r#ident`: lex as an identifier token
                // spelled without the `r#` so `r#match` == ident "match"
                // …except it is *not* the keyword, so keep the prefix.
                self.pos = start;
                self.ident();
                true
            }
            _ => false,
        }
    }

    /// Disambiguates char literals from lifetimes/labels at a `'`.
    fn char_or_lifetime(&mut self) {
        let start = self.pos;
        let start_line = self.line;
        // A char literal is `'` followed by an escape, or by exactly one
        // char and a closing `'`. `'a'` is a char; `'a` and `'a:` are
        // lifetimes/labels; `'\''` is a char.
        let next = self.peek(1);
        let is_char = match next {
            Some(b'\\') => true,
            Some(b'\'') => false, // `''` — broken; treat as ops
            Some(_) => {
                // Find where the next char ends (multi-byte safe) and
                // check for a closing quote right after.
                let mut end = self.pos + 2;
                while end < self.bytes.len() && (self.bytes[end] & 0xc0) == 0x80 {
                    end += 1;
                }
                self.bytes.get(end) == Some(&b'\'')
            }
            None => false,
        };
        if !is_char {
            if next.is_some_and(|c| c == b'_' || c.is_ascii_alphabetic()) {
                // Lifetime or label.
                self.pos += 1;
                let text_start = self.pos;
                while self
                    .peek(0)
                    .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric())
                {
                    self.pos += 1;
                }
                let text = self.src[text_start..self.pos].to_string();
                self.push(TokKind::Lifetime, text, start, start_line);
            } else {
                // Stray quote; emit as punctuation so lexing stays total.
                self.pos += 1;
                self.push(TokKind::Op, "'".into(), start, start_line);
            }
            return;
        }
        self.pos += 1; // opening quote
        loop {
            match self.peek(0) {
                None => break,
                Some(b'\\') => {
                    self.pos += 1;
                    if self.pos < self.bytes.len() {
                        self.bump();
                    }
                }
                Some(b'\'') => {
                    self.pos += 1;
                    break;
                }
                _ => self.bump(),
            }
        }
        let text = self.src[start..self.pos].to_string();
        self.push(TokKind::Char, text, start, start_line);
    }

    fn number(&mut self) {
        let start = self.pos;
        let start_line = self.line;
        let mut is_float = false;
        // Integer part (any radix prefix just rides along).
        while self
            .peek(0)
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            // `1e3` / `2E-5` exponents: consume a sign right after e/E,
            // but only for decimal-looking literals (hex `0xE` has no
            // exponent and `_` keeps hex digits distinct).
            let c = self.bytes[self.pos];
            self.pos += 1;
            if (c == b'e' || c == b'E')
                && !self.src[start..].starts_with("0x")
                && self.peek(0).is_some_and(|s| s == b'+' || s == b'-')
            {
                is_float = true;
                self.pos += 1;
            }
        }
        // A fractional part: `.` followed by a digit (so `0..n` ranges
        // and `1.method()` calls are not swallowed).
        if self.peek(0) == Some(b'.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            self.pos += 1;
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
            {
                let c = self.bytes[self.pos];
                self.pos += 1;
                if (c == b'e' || c == b'E') && self.peek(0).is_some_and(|s| s == b'+' || s == b'-')
                {
                    self.pos += 1;
                }
            }
        }
        let text = self.src[start..self.pos].to_string();
        if !is_float {
            // `1e3` without sign or dot is still a float, but suffixes
            // carrying an `e` (`10usize`, `2f32`) must not fool us:
            // strip a known suffix before looking for an exponent.
            let stem = int_suffix(&text)
                .map(|s| &text[..text.len() - s.len()])
                .unwrap_or(&text);
            is_float = text.ends_with("f32")
                || text.ends_with("f64")
                || (!text.starts_with("0x")
                    && !text.starts_with("0b")
                    && !text.starts_with("0o")
                    && stem.contains(['e', 'E']));
        }
        let kind = if is_float {
            TokKind::Float
        } else {
            TokKind::Int
        };
        self.push(kind, text, start, start_line);
    }

    fn ident(&mut self) {
        let start = self.pos;
        let start_line = self.line;
        // Raw-identifier prefix.
        if self.bytes[self.pos] == b'r' && self.peek(1) == Some(b'#') {
            self.pos += 2;
        }
        while self
            .peek(0)
            .is_some_and(|c| c == b'_' || c.is_ascii_alphanumeric() || c >= 0x80)
        {
            self.bump();
        }
        let text = self.src[start..self.pos].to_string();
        self.push(TokKind::Ident, text, start, start_line);
    }

    fn operator(&mut self) {
        let start = self.pos;
        let start_line = self.line;
        for op in MULTI_OPS {
            if self.src[self.pos..].starts_with(op) {
                self.pos += op.len();
                self.push(TokKind::Op, (*op).to_string(), start, start_line);
                return;
            }
        }
        let c = self.src[self.pos..].chars().next().unwrap_or('\u{fffd}');
        self.bump();
        self.push(TokKind::Op, c.to_string(), start, start_line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_ops_and_numbers() {
        let toks = kinds("fn add(a: u8) -> u8 { a << 2 }");
        assert!(toks.contains(&(TokKind::Ident, "fn".into())));
        assert!(toks.contains(&(TokKind::Op, "->".into())));
        assert!(toks.contains(&(TokKind::Op, "<<".into())));
        assert!(toks.contains(&(TokKind::Int, "2".into())));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> &'static str { 'outer: loop { break 'outer; } }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 5, "{toks:?}");
        assert!(!toks.iter().any(|(k, _)| *k == TokKind::Char));
    }

    #[test]
    fn char_literals_incl_escaped_quote() {
        let toks = kinds(r"let a = '\''; let b = 'x'; let c = '\u{1F600}'; let d = b'\n';");
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Char).collect();
        assert_eq!(chars.len(), 4, "{toks:?}");
        assert!(!toks.iter().any(|(k, _)| *k == TokKind::Lifetime));
    }

    #[test]
    fn raw_strings_with_fences() {
        let src = r####"let s = r##"contains "# and .unwrap()"##; let t = 1;"####;
        let toks = lex(src);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, r##"contains "# and .unwrap()"##);
        assert!(toks.iter().any(|t| t.is_ident("t")), "lexing continues");
    }

    #[test]
    fn byte_strings_and_raw_idents() {
        let toks = kinds("let a = b\"bytes\"; let b = br#\"raw\"#; let r#match = 1;");
        let strs: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Str).collect();
        assert_eq!(strs.len(), 2);
        assert_eq!(strs[0].1, "bytes");
        assert_eq!(strs[1].1, "raw");
        assert!(toks.contains(&(TokKind::Ident, "r#match".into())));
    }

    #[test]
    fn nested_block_comments_and_docs() {
        let toks = lex("/* a /* b */ c */ x\n/// doc\n//! inner\n// plain\ncode");
        assert!(matches!(toks[0].kind, TokKind::BlockComment { doc: false }));
        assert!(toks[0].text.contains("a /* b */ c"));
        assert!(matches!(toks[2].kind, TokKind::LineComment { doc: true }));
        assert!(matches!(toks[3].kind, TokKind::LineComment { doc: true }));
        assert!(matches!(toks[4].kind, TokKind::LineComment { doc: false }));
        assert_eq!(toks[4].text, " plain");
    }

    #[test]
    fn lines_are_tracked_across_multiline_tokens() {
        let toks = lex("a\n\"two\nline\"\nb /* c\nd */ e");
        let a = toks.iter().find(|t| t.is_ident("a")).unwrap();
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
        let e = toks.iter().find(|t| t.is_ident("e")).unwrap();
        assert_eq!((a.line, s.line, s.end_line), (1, 2, 3));
        assert_eq!((b.line, e.line), (4, 5));
    }

    #[test]
    fn floats_vs_ranges_vs_method_calls() {
        let toks = kinds("let a = 1.5; for i in 0..n { } let b = 2e3; let c = 1.0f64;");
        let floats: Vec<_> = toks.iter().filter(|(k, _)| *k == TokKind::Float).collect();
        assert_eq!(floats.len(), 3, "{toks:?}");
        assert!(toks.contains(&(TokKind::Op, "..".into())));
        assert!(toks.contains(&(TokKind::Int, "0".into())));
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        let toks = lex("let s = \"unterminated");
        assert_eq!(toks.last().unwrap().kind, TokKind::Str);
        let toks = lex("let c = '");
        assert!(!toks.is_empty());
        let toks = lex("/* never closed");
        assert!(matches!(toks[0].kind, TokKind::BlockComment { .. }));
    }
}
