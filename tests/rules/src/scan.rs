//! A source file as the source checks read it.
//!
//! Two views of the text above the first `#[cfg(test)]`, each the same
//! length as the file, so byte offsets and line numbers agree with it:
//! `code`, with comments and the insides of string and char literals
//! blanked to spaces, and `text`, with only comments blanked. A check
//! that reads code cannot be fooled by a string or a comment, and the
//! format-string check reads the strings it needs.

/// The non-test part of one source file.
pub struct Source {
    /// Comments and literal contents blanked; a literal keeps its first
    /// and last characters, so `"…"` stays a visible string.
    pub code: String,
    /// Comments blanked, literals kept.
    pub text: String,
}

impl Source {
    /// The text of `file` above its first `#[cfg(test)]`. Test modules
    /// come last in a file (clippy's `items_after_test_module`), so the
    /// cut loses no library code.
    pub fn new(file: &str) -> Source {
        let (mut code, mut text) = blank(file);
        let end = code.find("#[cfg(test)]").unwrap_or(code.len());
        code.truncate(end);
        text.truncate(end);
        Source { code, text }
    }
}

/// `(line, text)` for every line of `s`, 1-based.
pub fn lines(s: &str) -> impl Iterator<Item = (usize, &str)> {
    s.lines().enumerate().map(|(i, l)| (i + 1, l))
}

/// True for a character that can continue an identifier.
pub fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `(code, text)` for the whole of `file`.
fn blank(file: &str) -> (String, String) {
    let mut code = String::with_capacity(file.len());
    let mut text = String::with_capacity(file.len());
    let mut i = 0;
    while let Some(c) = file[i..].chars().next() {
        let rest = &file[i..];
        let comment = if rest.starts_with("//") {
            Some(rest.find('\n').unwrap_or(rest.len()))
        } else if rest.starts_with("/*") {
            Some(block_comment_len(rest))
        } else {
            None
        };
        let n = if let Some(n) = comment {
            spaces(&mut code, &rest[..n]);
            spaces(&mut text, &rest[..n]);
            n
        } else if let Some(n) = literal_len(file, i) {
            let lit = &rest[..n];
            let last = lit.chars().next_back().map_or(0, char::len_utf8);
            let (open, close) = (c.len_utf8(), n.saturating_sub(last).max(c.len_utf8()));
            code.push_str(&lit[..open]);
            spaces(&mut code, &lit[open..close]);
            code.push_str(&lit[close..]);
            text.push_str(lit);
            n
        } else {
            code.push(c);
            text.push(c);
            c.len_utf8()
        };
        i += n;
    }
    (code, text)
}

/// Appends `s` blanked: one space per byte, line breaks kept.
fn spaces(out: &mut String, s: &str) {
    for c in s.chars() {
        if c == '\n' {
            out.push('\n');
        } else {
            out.extend(std::iter::repeat_n(' ', c.len_utf8()));
        }
    }
}

/// The byte length of the block comment that opens `rest`; block
/// comments nest. An unterminated one runs to the end.
fn block_comment_len(rest: &str) -> usize {
    let mut depth = 0usize;
    let mut n = 0;
    while n < rest.len() {
        if rest[n..].starts_with("/*") {
            depth += 1;
            n += 2;
        } else if rest[n..].starts_with("*/") {
            depth = depth.saturating_sub(1);
            n += 2;
            if depth == 0 {
                break;
            }
        } else {
            n += rest[n..].chars().next().map_or(1, char::len_utf8);
        }
    }
    n
}

/// The byte length of the string or char literal starting at `i`, if one
/// does: `"…"` with escapes, raw `r#"…"#` (also after a `b` or `c`
/// prefix), or a char `'x'` / `'\n'` (a lifetime `'a` is not one). An
/// unterminated string runs to the end.
fn literal_len(text: &str, i: usize) -> Option<usize> {
    let rest = &text[i..];
    let mut before = text[..i].chars().rev();
    let after_ident = match before.next() {
        Some('b' | 'c') => before.next().is_some_and(is_ident),
        prev => prev.is_some_and(is_ident),
    };
    if let Some(raw) = rest.strip_prefix('r').filter(|_| !after_ident) {
        let hashes = raw.len() - raw.trim_start_matches('#').len();
        if raw[hashes..].starts_with('"') {
            let close = format!("\"{}", "#".repeat(hashes));
            let body = 1 + hashes + 1;
            return Some(
                rest[body..]
                    .find(&close)
                    .map_or(rest.len(), |end| body + end + close.len()),
            );
        }
        return None;
    }
    if rest.starts_with('"') {
        let mut escaped = false;
        for (n, c) in rest.char_indices().skip(1) {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => return Some(n + 1),
                _ => {}
            }
        }
        return Some(rest.len());
    }
    if let Some(body) = rest.strip_prefix('\'') {
        let n = if body.starts_with('\\') {
            2 + body.get(2..)?.find('\'')?
        } else {
            body.chars().next()?.len_utf8()
        };
        return body[n..].starts_with('\'').then_some(n + 2);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Line `n` (1-based) of `s`.
    fn line(s: &str, n: usize) -> &str {
        s.lines().nth(n - 1).unwrap_or("")
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let file = "let x = \"panic!(boom)\"; // .unwrap() here\nlet y = 1;\n";
        let s = Source::new(file);
        assert_eq!(s.code.len(), file.len());
        assert_eq!(s.text.len(), file.len());
        assert!(!line(&s.code, 1).contains("panic!"), "{}", s.code);
        assert!(!line(&s.code, 1).contains("unwrap"), "{}", s.code);
        assert!(line(&s.code, 1).contains("let x = \""), "{}", s.code);
        assert!(line(&s.text, 1).contains("\"panic!(boom)\""), "{}", s.text);
        assert!(!line(&s.text, 1).contains("unwrap"), "{}", s.text);
        assert_eq!(line(&s.code, 2), "let y = 1;");
    }

    #[test]
    fn raw_strings_and_chars() {
        let s =
            Source::new("let s = r#\"a \" .unwrap() b\"#; let c = '\"'; let l: &'static str = s;");
        assert!(!s.code.contains("unwrap"), "{}", s.code);
        assert!(s.code.contains("&'static str = s;"), "{}", s.code);
        assert!(s.text.contains("r#\"a \" .unwrap() b\"#"), "{}", s.text);
        let bytes = Source::new("let b = br\"\\\"; let t = b\"x // y\"; let u = 1;");
        assert!(bytes.code.contains("let t = b\""), "{}", bytes.code);
        assert!(bytes.code.contains("let u = 1;"), "{}", bytes.code);
        assert!(!bytes.code.contains("//"), "{}", bytes.code);
    }

    #[test]
    fn double_fenced_raw_strings_are_blanked() {
        // `r##"…"##` may contain an un-fenced `"#` without terminating.
        let s = Source::new("let s = r##\"has \"# quote and .unwrap()\"##; let t = 1;\n");
        assert!(!s.code.contains("unwrap"), "{}", s.code);
        assert!(
            s.code.contains("let t = 1;"),
            "scanning continued: {}",
            s.code
        );
        assert!(s.text.contains("has \"# quote and .unwrap()"), "{}", s.text);
    }

    #[test]
    fn escaped_quote_char_literal_is_not_a_string_opener() {
        // `'\''` must not read as a string start, which would hide the
        // rest of the line from the checks.
        let s = Source::new("let q = '\\''; x.unwrap();\n");
        assert!(s.code.contains(".unwrap()"), "{}", s.code);
    }

    #[test]
    fn lifetimes_survive_blanking() {
        let s = Source::new("fn f<'a>(x: &'a str) -> &'static str { x }\n");
        assert!(s.code.contains("<'a>"), "{}", s.code);
        assert!(s.code.contains("&'a str"), "{}", s.code);
        assert!(s.code.contains("&'static str"), "{}", s.code);
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let s = Source::new("a /* one /* two */ still */ b\n/* open\n.unwrap()\n*/ c\n");
        assert_eq!(line(&s.code, 1).replace(' ', ""), "ab");
        assert!(line(&s.code, 3).trim().is_empty(), "{}", s.code);
        assert_eq!(line(&s.code, 4).trim(), "c");
        assert_eq!(s.code, s.text, "no literals, so the views agree");
    }

    #[test]
    fn test_regions_are_marked() {
        let file = "fn lib() {}\n// #[cfg(test)] in a comment\nlet s = \"#[cfg(test)]\";\n\
                    #[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let s = Source::new(file);
        assert!(s.code.contains("fn lib() {}"), "{}", s.code);
        assert!(
            s.text.contains("\"#[cfg(test)]\""),
            "a string does not cut: {}",
            s.text
        );
        assert!(
            !s.code.contains("unwrap"),
            "the test module is cut: {}",
            s.code
        );
        assert!(!s.text.contains("mod tests"), "{}", s.text);
        assert_eq!(s.code.lines().count(), 3);
    }
}
