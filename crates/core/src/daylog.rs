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
//! [`read`] hands each good entry to the caller's [`Sink`] as its line
//! is read. A day's Σhits saturates at `u64::MAX`, in the trailer
//! [`write()`] writes and in [`Parsed::hits`] alike.

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
/// feeding [`Addr::parse_ascii`] and a byte-level hits scan, allocating
/// nothing.
#[inline]
pub fn parse_line(line: &str) -> Line<'_> {
    shape(line.as_bytes()).unwrap_or_else(|| Line::Comment(line.trim()))
}

/// [`parse_line`] on a line's bytes, except that a `#` line is `None`:
/// only a comment needs the line as text. Reads nothing past the hits
/// field, and on ASCII bytes needs no UTF-8 check.
#[inline]
fn shape(line: &[u8]) -> Option<Line<'static>> {
    let (first, rest) = next_field(line);
    match first.first() {
        None => return Some(Line::Blank),
        Some(b'#') => return None,
        Some(_) => {}
    }
    let (hits, _) = next_field(rest);
    let hits = if hits.is_empty() {
        Some(1)
    } else {
        parse_u64(hits)
    };
    Some(match (Addr::parse_ascii(first), hits) {
        (Ok(addr), Some(hits)) => Line::Entry(addr, hits),
        (Err(_), _) => Line::Bad(BadReason::Addr),
        (Ok(_), None) => Line::Bad(BadReason::Hits),
    })
}

/// `u64::from_str` on bytes: one optional leading `+`, then one or more
/// ASCII digits; `None` on anything else, and on overflow.
#[inline(always)]
fn parse_u64(b: &[u8]) -> Option<u64> {
    let digits = match b {
        [b'+', rest @ ..] => rest,
        _ => b,
    };
    if digits.is_empty() {
        return None;
    }
    let mut n = 0u64;
    for &c in digits {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n = n.checked_mul(10)?.checked_add(u64::from(d))?;
    }
    Some(n)
}

/// A count column (`N` in a header or trailer): `usize::from_str` on bytes.
fn parse_count(b: &[u8]) -> Option<usize> {
    usize::try_from(parse_u64(b)?).ok()
}

/// Parses a trimmed header line, `# synthetic day YYYY-MM-DD: N ...`.
/// Returns `(day, declared_entry_count)`.
pub fn parse_header(line: &str) -> Option<(Day, usize)> {
    let rest = line.strip_prefix("# synthetic day ")?;
    let (date_s, tail) = rest.split_once(':')?;
    let day = Day::parse_leading(date_s.trim())?;
    let count = parse_count(next_field(tail.as_bytes()).0)?;
    Some((day, count))
}

/// Parses a trimmed trailer line, `# end N H`. Returns `(entries, hits)`.
pub fn parse_trailer(line: &str) -> Option<(usize, u64)> {
    let end = line.strip_prefix('#')?.trim().strip_prefix("end ")?;
    let (n, end) = next_field(end.as_bytes());
    let (h, _) = next_field(end);
    Some((parse_count(n)?, parse_u64(h)?))
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

/// Everything [`read`] found in one day log besides its entries, which
/// went to the caller's [`Sink`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Parsed {
    /// The header's `(day, declared entry count)`, if line 1 is one.
    pub header: Option<(Day, usize)>,
    /// The last trailer's `(entries, hits)`.
    pub trailer: Option<(usize, u64)>,
    /// Data lines seen, bad ones included.
    pub data_lines: usize,
    /// The good data lines' hits, summed saturating at `u64::MAX`.
    pub hits: u64,
    /// The bad data lines, in file order.
    pub bad: Vec<BadLine>,
}

/// Where [`read`] folds each good data line, in file order.
pub trait Sink {
    /// Says that about `n` entries follow: a header's declared count, capped
    /// at [`MAX_RESERVED_ENTRIES`]. Only a hint.
    fn reserve(&mut self, _n: usize) {}
    /// Takes one good data line.
    fn add(&mut self, addr: Addr, hits: u64);
}

/// Collects the entries, as they appear in the file.
impl Sink for Vec<(Addr, u64)> {
    fn reserve(&mut self, n: usize) {
        Vec::reserve(self, n);
    }
    #[inline]
    fn add(&mut self, addr: Addr, hits: u64) {
        self.push((addr, hits));
    }
}

/// Feeds both sinks.
impl<A: Sink, B: Sink> Sink for (A, B) {
    fn reserve(&mut self, n: usize) {
        self.0.reserve(n);
        self.1.reserve(n);
    }
    #[inline]
    fn add(&mut self, addr: Addr, hits: u64) {
        self.0.add(addr, hits);
        self.1.add(addr, hits);
    }
}

/// Feeds the sink when there is one.
impl<S: Sink> Sink for Option<S> {
    fn reserve(&mut self, n: usize) {
        if let Some(s) = self {
            s.reserve(n);
        }
    }
    #[inline]
    fn add(&mut self, addr: Addr, hits: u64) {
        if let Some(s) = self {
            s.add(addr, hits);
        }
    }
}

impl Parsed {
    /// Folds in bad data line `line_no`. Bad lines are rare, so their
    /// list is not reserved.
    fn add_bad(&mut self, line_no: usize, line: &str, reason: BadReason) {
        self.data_lines += 1;
        self.bad.push(BadLine {
            line: line_no,
            content: clip(line.trim()),
            reason,
        });
    }

    /// Folds in `#` line `line_no`, trimmed: line 1 may be the header,
    /// any later one the trailer.
    fn add_comment(&mut self, line_no: usize, t: &str, sink: &mut impl Sink) {
        if line_no == 1 {
            if let Some((day, n)) = parse_header(t) {
                self.header = Some((day, n));
                sink.reserve(n.min(MAX_RESERVED_ENTRIES));
            }
        } else if let Some(end) = parse_trailer(t) {
            self.trailer = Some(end);
        }
    }
}

/// Reads a day log in bounded memory, handing each good data line to
/// `sink` as it is read: one reused line buffer, then the line's fields
/// scanned as bytes. Only a line holding a byte ≥ 0x80 is checked as
/// UTF-8, the check `read_line` would make: a non-UTF-8 line fails the
/// read as [`io::ErrorKind::InvalidData`]. Only `#` lines and bad
/// lines, a handful a file, are taken as text. The per-line helpers
/// are inlinable, so the loop and its per-line work compile together,
/// into the caller's crate.
pub fn read(mut reader: impl BufRead, sink: &mut impl Sink) -> io::Result<Parsed> {
    let mut parsed = Parsed::default();
    let mut buf: Vec<u8> = Vec::new();
    let mut line_no = 0usize;
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        line_no += 1;
        if !buf.is_ascii() {
            utf8(&buf)?;
        }
        match shape(&buf) {
            Some(Line::Entry(addr, hits)) => {
                parsed.data_lines += 1;
                parsed.hits = parsed.hits.saturating_add(hits);
                sink.add(addr, hits);
            }
            Some(Line::Bad(reason)) => parsed.add_bad(line_no, utf8(&buf)?, reason),
            Some(_) => {}
            None => parsed.add_comment(line_no, utf8(&buf)?.trim(), sink),
        }
    }
    Ok(parsed)
}

/// The line as text, or the error `read_line` gives for non-UTF-8.
fn utf8(buf: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(buf).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })
}

/// Appends the header line for `day`, declaring `entries` entries.
#[expect(
    clippy::let_underscore_must_use,
    reason = "write! into a String cannot fail"
)]
pub fn write_header(out: &mut String, day: Day, entries: usize) {
    let _ = writeln!(out, "# synthetic day {day}: {entries} unique client addrs");
}

/// Appends one data line: `addr\thits`, then `\tkind` when given. The
/// address goes through [`Addr::write_ascii`] and the hits through a
/// decimal writer, neither through `fmt`.
pub fn write_entry(out: &mut String, addr: Addr, hits: u64, kind: Option<&str>) {
    out.push_str(addr.write_ascii(&mut [0; Addr::MAX_ASCII_LEN]));
    out.push('\t');
    push_u64(out, hits);
    if let Some(kind) = kind {
        out.push('\t');
        out.push_str(kind);
    }
    out.push('\n');
}

/// Appends the trailer for `entries` data lines carrying `hits` hits
/// (a day's Σhits saturates at `u64::MAX`).
#[expect(
    clippy::let_underscore_must_use,
    reason = "write! into a String cannot fail"
)]
pub fn write_trailer(out: &mut String, entries: usize, hits: u64) {
    let _ = writeln!(out, "# end {entries} {hits}");
}

/// The most bytes [`write_header`] or [`write_trailer`] appends: its
/// text, two 20-digit numbers and a ten-byte day.
const FRAME_MAX: usize = 80;

/// The most bytes [`write_entry`] appends for one entry: the longest
/// address, exactly `hits`' digits, and the kind column.
fn entry_max(hits: u64, kind: Option<&str>) -> usize {
    let digits = hits.checked_ilog10().map_or(1, |l| l as usize + 1);
    Addr::MAX_ASCII_LEN + 1 + digits + kind.map_or(0, |k| 1 + k.len()) + 1
}

/// Appends `n` in decimal.
fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // Only ASCII digits were written, so the check cannot fail.
    out.push_str(std::str::from_utf8(&buf[i..]).unwrap_or_default());
}

/// A whole canonical day log: header, the `columns` line if given, one
/// line per `(addr, hits, kind)` entry, and their trailer. One pass
/// over `entries` bounds the text's length, so the `String` is
/// allocated once; a second pass writes it.
pub fn write<'k>(
    day: Day,
    columns: Option<&str>,
    entries: impl ExactSizeIterator<Item = (Addr, u64, Option<&'k str>)> + Clone,
) -> String {
    let n = entries.len();
    let bound = entries.clone().fold(
        2 * FRAME_MAX + columns.map_or(0, |c| c.len() + 1),
        |sum, (_, h, kind)| sum + entry_max(h, kind),
    );
    let mut out = String::with_capacity(bound);
    write_header(&mut out, day, n);
    if let Some(columns) = columns {
        out.push_str(columns);
        out.push('\n');
    }
    let mut hits = 0u64;
    for (addr, h, kind) in entries {
        hits = hits.saturating_add(h);
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
fn next_field(s: &[u8]) -> (&[u8], &[u8]) {
    let (_, s) = s.split_at(run_len(s, true));
    s.split_at(run_len(s, false))
}

/// The byte length of the leading run of `s` whose chars are all
/// whitespace (`ws`) or all not. `s` is UTF-8 or pure ASCII.
#[inline(always)]
fn run_len(s: &[u8], ws: bool) -> usize {
    let mut i = 0;
    while let Some(&c) = s.get(i) {
        let (is_ws, len) = if c.is_ascii() {
            (matches!(c, b'\t'..=b'\r' | b' '), 1)
        } else {
            // `i` always sits on a char boundary: ASCII steps by 1,
            // everything else by its char's UTF-8 length.
            match s.get(i..).and_then(first_char) {
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

/// The char a UTF-8 byte string starts with.
fn first_char(s: &[u8]) -> Option<char> {
    let len = match s.first()? {
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        0xf0..=0xf7 => 4,
        _ => return None,
    };
    std::str::from_utf8(s.get(..len)?).ok()?.chars().next()
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
            let mut rest = s.as_bytes();
            loop {
                let (field, r) = next_field(rest);
                if field.is_empty() {
                    break;
                }
                ours.push(field);
                rest = r;
            }
            let std: Vec<&[u8]> = s.split_whitespace().map(str::as_bytes).collect();
            assert_eq!(ours, std, "{s:?}");
        }
    }

    #[test]
    fn hits_scan_is_u64_from_str() {
        let agrees = |s: &str| assert_eq!(parse_u64(s.as_bytes()), s.parse::<u64>().ok(), "{s:?}");
        for s in [
            "",
            "+",
            "-",
            "++1",
            "+-1",
            "-1",
            "-0",
            "+0",
            "0",
            "007",
            "+007",
            "1 ",
            " 1",
            "1_000",
            "0x10",
            "٣",
            "１",
            "18446744073709551615",
            "+18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "00000000000000000000018446744073709551615",
        ] {
            agrees(s);
        }
        let alphabet = [
            "0",
            "1",
            "5",
            "9",
            "+",
            "-",
            " ",
            "a",
            "٣",
            "/",
            ":",
            "18446744073709551615",
        ];
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize
        };
        for _ in 0..20_000 {
            let s: String = (0..next() % 6)
                .map(|_| alphabet[next() % alphabet.len()])
                .collect();
            agrees(&s);
            // Random bytes: std's answer when they are UTF-8, else none.
            let b: Vec<u8> = (0..next() % 5).map(|_| (next() % 256) as u8).collect();
            let want = std::str::from_utf8(&b)
                .ok()
                .and_then(|s| s.parse::<u64>().ok());
            assert_eq!(parse_u64(&b), want, "{b:?}");
            let n = (next() as u64) << 33 ^ next() as u64;
            agrees(&n.to_string());
            agrees(&format!("+{n}"));
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
