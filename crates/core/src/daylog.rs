//! The day-log format — the census's one input, the per-day
//! `(address, hits)` aggregate of §4.1 — read and written in one place
//! (grammar: DESIGN.md §6 "Day-log format"):
//!
//! ```text
//! # synthetic day 2015-03-17: 1234 unique client addrs
//! # addr\thits\ttrue_kind
//! 2001:db8::1\t17\tcpe
//! # end 1234 56789
//! ```
//!
//! Line 1 may be the header declaring `N` entries; `# end N H` is the
//! trailer (`N` data lines, `H` hits); other `#` lines are comments.
//! A data line is `addr [hits [ignored…]]`, hits defaulting to 1. One
//! bad-line policy holds for every reader: a data line whose address,
//! or whose present hits column, does not parse is dropped and counted
//! with its [`BadReason`] — still as a data line, so `N` covers it.

use crate::temporal::Day;
use std::fmt::Write as _;
use std::io::{self, BufRead};
use v6census_addr::Addr;

/// The most entries a header's declared count reserves up front: a
/// header that lies cannot force a larger allocation than this.
pub const MAX_RESERVED_ENTRIES: usize = 1 << 18;

/// The column line synth writes ahead of its `addr hits kind` entries.
pub const KIND_COLUMNS: &str = "# addr\thits\ttrue_kind";

/// Why a data line was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BadReason {
    /// The first field is not an IPv6 address.
    Addr,
    /// The address parsed; the hits column is present but not a `u64`.
    Hits,
}

impl BadReason {
    /// The reason as reports print it.
    pub const fn label(self) -> &'static str {
        match self {
            BadReason::Addr => "unparseable address",
            BadReason::Hits => "unparseable hits column",
        }
    }
}

/// One line, classified by [`parse_line`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Line<'a> {
    /// No field at all.
    Blank,
    /// A `#` line (header, column line, trailer or comment), trimmed.
    Comment(&'a str),
    /// A data line that parsed.
    Entry(Addr, u64),
    /// A data line that did not.
    Bad(BadReason),
}

/// Classifies one line: one left-to-right field scan (`next_field`)
/// feeding [`Addr::parse_ascii`], allocating nothing.
#[inline]
pub fn parse_line(line: &str) -> Line<'_> {
    let (first, rest) = next_field(line);
    if first.is_empty() {
        return Line::Blank;
    }
    if first.starts_with('#') {
        return Line::Comment(line.trim());
    }
    let (hits, _) = next_field(rest);
    let hits = if hits.is_empty() {
        Ok(1)
    } else {
        hits.parse::<u64>()
    };
    match (Addr::parse_ascii(first.as_bytes()), hits) {
        (Ok(addr), Ok(hits)) => Line::Entry(addr, hits),
        (Err(_), _) => Line::Bad(BadReason::Addr),
        (Ok(_), Err(_)) => Line::Bad(BadReason::Hits),
    }
}

/// Parses a trimmed header line, `# synthetic day YYYY-MM-DD: N ...`.
/// Returns `(day, declared_entry_count)`.
pub fn parse_header(line: &str) -> Option<(Day, usize)> {
    let rest = line.strip_prefix("# synthetic day ")?;
    let (date_s, tail) = rest.split_once(':')?;
    let day = Day::parse_leading(date_s.trim())?;
    let count: usize = tail.split_whitespace().next()?.parse().ok()?;
    Some((day, count))
}

/// Parses a trimmed trailer line, `# end N H`. Returns `(entries, hits)`.
pub fn parse_trailer(line: &str) -> Option<(usize, u64)> {
    let end = line.strip_prefix('#')?.trim().strip_prefix("end ")?;
    let (n, end) = next_field(end);
    let (h, _) = next_field(end);
    Some((n.parse().ok()?, h.parse().ok()?))
}

/// A rejected data line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadLine {
    /// 1-based line number.
    pub line: usize,
    /// The trimmed line, clipped to about 60 bytes.
    pub content: String,
    /// Why it was rejected.
    pub reason: BadReason,
}

/// Everything [`read`] found in one day log.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Parsed {
    /// The header's `(day, declared entry count)`, if line 1 is one.
    pub header: Option<(Day, usize)>,
    /// The last trailer's `(entries, hits)`.
    pub trailer: Option<(usize, u64)>,
    /// Data lines seen, bad ones included.
    pub data_lines: usize,
    /// The good data lines, in file order.
    pub entries: Vec<(Addr, u64)>,
    /// The bad data lines, in file order.
    pub bad: Vec<BadLine>,
}

impl Parsed {
    /// Folds line `line_no` in; only a bad line allocates (its report).
    #[inline]
    fn add_line(&mut self, line_no: usize, line: &str) {
        match parse_line(line) {
            Line::Blank => {}
            Line::Comment(t) if line_no == 1 => {
                if let Some((day, n)) = parse_header(t) {
                    self.header = Some((day, n));
                    self.entries.reserve(n.min(MAX_RESERVED_ENTRIES));
                }
            }
            Line::Comment(t) => {
                if let Some(end) = parse_trailer(t) {
                    self.trailer = Some(end);
                }
            }
            Line::Entry(addr, hits) => {
                self.data_lines += 1;
                self.entries.push((addr, hits));
            }
            Line::Bad(reason) => {
                self.data_lines += 1;
                self.bad.push(BadLine {
                    line: line_no,
                    content: clip(line.trim()),
                    reason,
                });
            }
        }
    }
}

/// Reads a day log in bounded memory: one reused line buffer, the
/// UTF-8 check `read_line` would make (a non-UTF-8 line fails the read
/// as [`io::ErrorKind::InvalidData`]), then [`parse_line`]. The
/// per-line helpers are inlinable, so the loop and its per-line work
/// compile together, into the caller's crate.
pub fn read(mut reader: impl BufRead) -> io::Result<Parsed> {
    let mut parsed = Parsed::default();
    let mut buf: Vec<u8> = Vec::new();
    let mut line_no = 0usize;
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        line_no += 1;
        let line = std::str::from_utf8(&buf).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        parsed.add_line(line_no, line);
    }
    Ok(parsed)
}

/// Appends the header line for `day`, declaring `entries` entries.
pub fn write_header(out: &mut String, day: Day, entries: usize) {
    let _ = writeln!(out, "# synthetic day {day}: {entries} unique client addrs");
}

/// Appends one data line: `addr\thits`, then `\tkind` when given.
pub fn write_entry(out: &mut String, addr: Addr, hits: u64, kind: Option<&str>) {
    let _ = write!(out, "{addr}\t{hits}");
    if let Some(kind) = kind {
        out.push('\t');
        out.push_str(kind);
    }
    out.push('\n');
}

/// Appends the trailer for `entries` data lines carrying `hits` hits.
pub fn write_trailer(out: &mut String, entries: usize, hits: u64) {
    let _ = writeln!(out, "# end {entries} {hits}");
}

/// A whole canonical day log: header, the `columns` line if given, one
/// line per `(addr, hits, kind)` entry, and their trailer.
pub fn write<'k>(
    day: Day,
    columns: Option<&str>,
    entries: impl ExactSizeIterator<Item = (Addr, u64, Option<&'k str>)>,
) -> String {
    let n = entries.len();
    let mut out = String::new();
    write_header(&mut out, day, n);
    if let Some(columns) = columns {
        out.push_str(columns);
        out.push('\n');
    }
    let mut hits = 0u64;
    for (addr, h, kind) in entries {
        hits += h;
        write_entry(&mut out, addr, h, kind);
    }
    write_trailer(&mut out, n, hits);
    out
}

/// Splits the first whitespace-separated field off `s`: returns the
/// field (empty when `s` is all whitespace) and the rest after it.
/// Whitespace is exactly `char::is_whitespace`, the set `str::trim` and
/// `split_whitespace` use: ASCII `\t \n \x0B \x0C \r` and space (U+000B
/// is one `u8::is_ascii_whitespace` misses) plus Unicode's White_Space.
/// ASCII bytes are classified as bytes; only a non-ASCII byte decodes
/// its char. `inline(always)`: with plain `#[inline]` LLVM kept this
/// scan and [`run_len`] out of line, and the ingest loop ran ≈6%
/// slower than with both inlined.
#[inline(always)]
fn next_field(s: &str) -> (&str, &str) {
    let (_, s) = s.split_at(run_len(s, true));
    s.split_at(run_len(s, false))
}

/// The byte length of the leading run of `s` whose chars are all
/// whitespace (`ws`) or all not.
#[inline(always)]
fn run_len(s: &str, ws: bool) -> usize {
    let b = s.as_bytes();
    let mut i = 0;
    while let Some(&c) = b.get(i) {
        let (is_ws, len) = if c.is_ascii() {
            (matches!(c, b'\t'..=b'\r' | b' '), 1)
        } else {
            // `i` always sits on a char boundary: ASCII steps by 1,
            // everything else by its char's UTF-8 length.
            match s.get(i..).and_then(|r| r.chars().next()) {
                Some(ch) => (ch.is_whitespace(), ch.len_utf8()),
                None => (false, 1),
            }
        };
        if is_ws != ws {
            break;
        }
        i += len;
    }
    i
}

fn clip(s: &str) -> String {
    const MAX: usize = 60;
    if s.len() <= MAX {
        s.to_string()
    } else {
        let cut = (0..=MAX)
            .rev()
            .find(|&i| s.is_char_boundary(i))
            .unwrap_or(0);
        format!("{}…", &s[..cut])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_parses() {
        let (d, n) = parse_header("# synthetic day 2015-03-17: 1234 unique client addrs").unwrap();
        assert_eq!(d, Day::from_ymd(2015, 3, 17));
        assert_eq!(n, 1234);
        assert!(parse_header("# something else").is_none());
    }

    #[test]
    fn next_field_splits_like_split_whitespace() {
        // Every whitespace class the reader can meet, plus look-alikes
        // that are not whitespace (U+200B, U+00A1) and multi-byte text.
        let alphabet = [
            "a", "1", ":", "\t", " ", "\u{0B}", "\u{0C}", "\r", "\n", "\u{85}", "\u{A0}",
            "\u{1680}", "\u{2003}", "\u{3000}", "\u{200B}", "\u{A1}", "é",
        ];
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize
        };
        for _ in 0..5_000 {
            let s: String = (0..next() % 12)
                .map(|_| alphabet[next() % alphabet.len()])
                .collect();
            let mut ours = Vec::new();
            let mut rest = s.as_str();
            loop {
                let (field, r) = next_field(rest);
                if field.is_empty() {
                    break;
                }
                ours.push(field);
                rest = r;
            }
            let std: Vec<&str> = s.split_whitespace().collect();
            assert_eq!(ours, std, "{s:?}");
        }
    }

    #[test]
    fn clip_respects_char_boundaries() {
        let s = "é".repeat(100);
        let c = clip(&s);
        assert!(c.ends_with('…'));
        assert!(c.len() <= 64);
        assert_eq!(clip("short"), "short");
    }
}
