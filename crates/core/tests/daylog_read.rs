//! `daylog::read` against a per-line reference.
//!
//! The reader parses most lines in place in its buffer and sends every
//! other line through the exact per-line path. This test holds the whole
//! reader to [`daylog::parse_line`] applied to each line on its own: a
//! seeded mutator rewrites lines of a small checked-in corpus
//! (`daylog_corpus.log`) with the shapes the in-place path must hand on
//! (CR, space delimiters, `+`, IPv4 tails, non-ASCII and invalid UTF-8
//! bytes, over-long groups, `::` misuse, lines longer than the buffer),
//! and each mutant file is read through `BufReader`s of 1, 3, 64 and
//! 8192 bytes, so lines straddle fills at every offset. The `Parsed`,
//! the entries, the bad-line numbers and the `InvalidData` errors must
//! equal the reference's.

use std::io::{self, BufReader};
use v6census_addr::Addr;
use v6census_core::daylog::{self, BadLine, Line, Parsed};

const CORPUS: &[u8] = include_bytes!("daylog_corpus.log");

/// Mutant files per run.
const CASES: u64 = 600;

/// The read buffer sizes every file is read through.
const CAPACITIES: [usize; 4] = [1, 3, 64, 8192];

/// Deterministic case generator: a splitmix64 stream.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x6a09_e667_f3bc_c909)
    }

    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.u64() as u128 * n as u128) >> 64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Byte strings a mutation inserts or substitutes.
const PIECES: &[&[u8]] = &[
    b"\r",
    b" ",
    b"\t",
    b"+",
    b"::",
    b":",
    b".",
    b"1.2.3.4",
    b":192.0.2.1",
    b"12345",
    b"fffff",
    b"g",
    b"#",
    b"\n",
    b"\x0b",
    "é".as_bytes(),
    "\u{a0}".as_bytes(),
    "\u{2003}".as_bytes(),
    b"\xff",
    b"\xc3",
    b"0",
    b"9",
];

/// One mutant day log: corpus lines in a random order and number, some
/// of them rewritten, perhaps without the final newline.
fn mutant(g: &mut Gen) -> Vec<u8> {
    let lines: Vec<&[u8]> = CORPUS.split_inclusive(|&c| c == b'\n').collect();
    let mut out = Vec::new();
    // Keep the header first most of the time, so the header path runs.
    if g.below(4) != 0 {
        out.extend_from_slice(lines[0]);
    }
    for _ in 0..g.below(40) {
        let mut line = g.pick(&lines).to_vec();
        for _ in 0..g.below(3) {
            mutate(g, &mut line);
        }
        out.extend_from_slice(&line);
    }
    if g.below(3) == 0 {
        out.pop();
    }
    out
}

/// One rewrite of `line`.
fn mutate(g: &mut Gen, line: &mut Vec<u8>) {
    let at = g.below(line.len() + 1);
    match g.below(8) {
        // Insert a piece.
        0..=2 => {
            let piece = g.pick(PIECES);
            line.splice(at..at, piece.iter().copied());
        }
        // Overwrite a byte with a piece.
        3 | 4 if at < line.len() => {
            let piece = g.pick(PIECES);
            line.splice(at..at + 1, piece.iter().copied());
        }
        // Delete a byte.
        5 if at < line.len() => {
            line.remove(at);
        }
        // CR before the newline, or a tab turned into a space.
        6 => {
            if let Some(nl) = line.iter().position(|&c| c == b'\n') {
                line.insert(nl, b'\r');
            } else if let Some(tab) = line.iter().position(|&c| c == b'\t') {
                line[tab] = b' ';
            }
        }
        // A line longer than any buffer: a long kind column or a long
        // address field.
        _ => {
            let filler: &[u8] = if g.below(2) == 0 { b"x" } else { b"1" };
            let n = 8192 + g.below(300);
            line.splice(at..at, filler.iter().copied().cycle().take(n));
        }
    }
}

/// What `read` must return for `bytes`: each line (with its newline,
/// as `read_until` gives it) classified on its own by `parse_line`.
fn reference(bytes: &[u8]) -> io::Result<(Parsed, Vec<(Addr, u64)>)> {
    let mut parsed = Parsed::default();
    let mut entries = Vec::new();
    for (i, raw) in bytes.split_inclusive(|&c| c == b'\n').enumerate() {
        let line_no = i + 1;
        let Ok(line) = std::str::from_utf8(raw) else {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not UTF-8"));
        };
        match daylog::parse_line(line) {
            Line::Blank => {}
            Line::Entry(addr, hits) => {
                parsed.data_lines += 1;
                parsed.hits = parsed.hits.saturating_add(hits);
                entries.push((addr, hits));
            }
            Line::Bad(reason) => {
                parsed.data_lines += 1;
                parsed.bad.push(BadLine {
                    line: line_no,
                    content: clip(line.trim()),
                    reason,
                });
            }
            Line::Comment(text) if line_no == 1 => parsed.header = daylog::parse_header(text),
            Line::Comment(text) => {
                if let Some(end) = daylog::parse_trailer(text) {
                    parsed.trailer = Some(end);
                } else if let Some(bad) = daylog::parse_bad(text) {
                    parsed.recorded.push(bad);
                }
            }
        }
    }
    Ok((parsed, entries))
}

/// A bad line's report text: the trimmed line, cut to 60 bytes at a
/// char boundary and marked `…` when longer.
fn clip(s: &str) -> String {
    if s.len() <= 60 {
        return s.to_string();
    }
    let cut = (0..=60).rev().find(|&i| s.is_char_boundary(i)).unwrap();
    format!("{}…", &s[..cut])
}

/// `read` through a `BufReader` of `capacity` bytes.
fn read(bytes: &[u8], capacity: usize) -> io::Result<(Parsed, Vec<(Addr, u64)>)> {
    let mut entries = Vec::new();
    let parsed = daylog::read(BufReader::with_capacity(capacity, bytes), &mut entries)?;
    Ok((parsed, entries))
}

/// `read` equals the reference on `bytes` at every buffer size.
fn assert_reads_like_reference(bytes: &[u8], what: &str) {
    let want = reference(bytes);
    for capacity in CAPACITIES {
        let got = read(bytes, capacity);
        let context = || {
            format!(
                "{what}, capacity {capacity}: {:?}",
                String::from_utf8_lossy(bytes)
            )
        };
        match (&got, &want) {
            (Ok(got), Ok(want)) => assert_eq!(got, want, "{}", context()),
            (Err(got), Err(_)) => {
                assert_eq!(got.kind(), io::ErrorKind::InvalidData, "{}", context());
            }
            _ => panic!(
                "{}: read {:?}, reference {:?}",
                context(),
                got.as_ref().map(|_| ()),
                want.as_ref().map(|_| ())
            ),
        }
    }
}

#[test]
fn the_corpus_reads_like_the_reference() {
    let (parsed, entries) = reference(CORPUS).unwrap();
    // The corpus holds both kinds of data line and every kind of `#` line.
    assert!(parsed.header.is_some() && parsed.trailer.is_some());
    assert_eq!(parsed.recorded.len(), 1, "{parsed:?}");
    assert!(entries.len() >= 15 && parsed.bad.len() >= 3, "{parsed:?}");
    assert_reads_like_reference(CORPUS, "corpus");
}

#[test]
fn mutated_day_logs_read_like_the_per_line_reference() {
    let mut g = Gen::new(27);
    let (mut failed, mut bad) = (0, 0);
    for case in 0..CASES {
        let bytes = mutant(&mut g);
        match reference(&bytes) {
            Err(_) => failed += 1,
            Ok((parsed, _)) => bad += parsed.bad.len(),
        }
        assert_reads_like_reference(&bytes, &format!("case {case}"));
    }
    // The mutants reach both the bad-line and the InvalidData paths.
    assert!(failed > CASES / 20, "only {failed} non-UTF-8 files");
    assert!(bad > CASES as usize, "only {bad} bad lines");
}
