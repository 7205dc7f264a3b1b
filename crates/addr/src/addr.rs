//! The [`Addr`] type: a 128-bit IPv6 address.

use crate::bits::{high_mask, msb_mask, shr128};
use crate::cast::{low16, low32, low8};
use crate::index::{BitIdx, NybbleIdx, PrefixLen, SegIdx};
use crate::ParseError;
use std::fmt;
use std::net::Ipv6Addr;
use std::str::FromStr;

/// A 128-bit IPv6 address.
///
/// Internally a big-endian-interpreted `u128`: bit 0 is the most
/// significant bit of the address (the first bit on the wire), matching the
/// prefix-length convention, so `addr.bit(0)` is the top bit of the first
/// hextet. This orientation makes prefix arithmetic (`common_prefix_len`,
/// masking, trie descent) a matter of plain shifts.
///
/// ```
/// use v6census_addr::{Addr, BitIdx, NybbleIdx, SegIdx};
/// let a: Addr = "2001:db8::1".parse().unwrap();
/// assert_eq!(a.segment(SegIdx::ZERO), 0x2001);
/// assert_eq!(a.nybble(NybbleIdx::ZERO), 0x2);
/// assert_eq!(a.bit(BitIdx::ZERO), 0); // 0x2001 starts with binary 0010...
/// assert_eq!(a.bit(BitIdx::lit::<2>()), 1);
/// assert_eq!(a.to_string(), "2001:db8::1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u128);

impl Addr {
    /// The unspecified address `::`.
    pub const UNSPECIFIED: Addr = Addr(0);
    /// The loopback address `::1`.
    pub const LOCALHOST: Addr = Addr(1);

    /// Builds an address from eight 16-bit segments, first segment most
    /// significant (the order they are written in presentation format).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the counter stops at the array length, 8"
    )]
    pub const fn from_segments(s: [u16; 8]) -> Addr {
        let mut v: u128 = 0;
        let mut i = 0;
        while i < 8 {
            v = (v << 16) | s[i] as u128;
            i += 1;
        }
        Addr(v)
    }

    /// Builds an address from 16 bytes, most significant first.
    pub const fn from_bytes(b: [u8; 16]) -> Addr {
        Addr(u128::from_be_bytes(b))
    }

    /// Returns the address as 16 bytes, most significant first.
    pub const fn to_bytes(self) -> [u8; 16] {
        self.0.to_be_bytes()
    }

    /// Returns the eight 16-bit segments, most significant first.
    pub const fn segments(self) -> [u16; 8] {
        let v = self.0;
        [
            low16(v >> 112),
            low16(v >> 96),
            low16(v >> 80),
            low16(v >> 64),
            low16(v >> 48),
            low16(v >> 32),
            low16(v >> 16),
            low16(v),
        ]
    }

    /// Returns 16-bit segment `i`, segment 0 most significant.
    pub const fn segment(self, i: SegIdx) -> u16 {
        low16(shr128(self.0, i.lsb_shift()))
    }

    /// Returns nybble (hex character) `i`, nybble 0 most significant.
    pub const fn nybble(self, i: NybbleIdx) -> u8 {
        low8(shr128(self.0, i.lsb_shift()) & 0xf)
    }

    /// All 32 nybbles at once, most significant first — the batched form
    /// of [`Addr::nybble`] for whole-address scans: one pass over the
    /// big-endian bytes instead of 32 independent 128-bit shifts.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the counter stops at the byte count, 16, so 2 * i + 1 < 32"
    )]
    pub const fn nybbles(self) -> [u8; 32] {
        let bytes = self.0.to_be_bytes();
        let mut out = [0u8; 32];
        let mut i = 0;
        while i < 16 {
            out[2 * i] = bytes[i] >> 4;
            out[2 * i + 1] = bytes[i] & 0xf;
            i += 1;
        }
        out
    }

    /// Returns bit `i` as 0 or 1; bit 0 is the most significant.
    pub const fn bit(self, i: BitIdx) -> u8 {
        low8(shr128(self.0, i.lsb_shift()) & 1)
    }

    /// Returns a copy with bit `i` set to `v` (0 or 1); bit 0 is the most
    /// significant.
    pub const fn with_bit(self, i: BitIdx, v: u8) -> Addr {
        let mask = msb_mask(i);
        if v == 0 {
            Addr(self.0 & !mask)
        } else {
            Addr(self.0 | mask)
        }
    }

    /// The high 64 bits: the canonical network identifier (subnet prefix)
    /// under /64 addressing.
    pub const fn network_bits(self) -> u64 {
        (self.0 >> 64) as u64
    }

    /// The low 64 bits: the interface identifier under /64 addressing.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "keeping the low 64 bits is the point"
    )]
    pub const fn iid_bits(self) -> u64 {
        self.0 as u64
    }

    /// Keeps the first `len` bits and zeroes the rest.
    pub const fn mask(self, len: PrefixLen) -> Addr {
        Addr(self.0 & high_mask(len))
    }

    /// Length of the longest common prefix of `self` and `other`.
    pub const fn common_prefix_len(self, other: Addr) -> PrefixLen {
        PrefixLen::from_leading_zeros((self.0 ^ other.0).leading_zeros())
    }

    /// Interprets segments 1..3 (bits 16–48) as an embedded IPv4 address,
    /// as in 6to4 (`2002:AABB:CCDD::/48`).
    pub const fn v4_in_6to4(self) -> [u8; 4] {
        low32(self.0 >> 80).to_be_bytes()
    }

    /// Interprets the low 32 bits as an embedded IPv4 address, as in
    /// ISATAP and many ad hoc schemes.
    pub const fn v4_in_low32(self) -> [u8; 4] {
        low32(self.0).to_be_bytes()
    }

    /// Conversion to the standard library type (used in tests as a parsing
    /// and formatting oracle, and by callers doing real I/O).
    pub const fn to_std(self) -> Ipv6Addr {
        Ipv6Addr::from_bits(self.0)
    }

    /// Conversion from the standard library type.
    pub const fn from_std(a: Ipv6Addr) -> Addr {
        Addr(a.to_bits())
    }

    /// Formats the address as 32 lower-case hex characters with no
    /// separators — the fixed-width form used by the sort-based aggregate
    /// counter (paper footnote 3: `sort | cut -c1-$((p/4)) | uniq -c`).
    pub fn to_fixed_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Formats the address as its reverse-DNS pointer name under
    /// `ip6.arpa` (RFC 3596 §2.5): 32 nybbles in reverse order,
    /// dot-separated, e.g. `1.0.0.0…8.b.d.0.1.0.0.2.ip6.arpa`.
    pub fn to_ip6_arpa(self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut out = String::with_capacity(72);
        for &n in self.nybbles().iter().rev() {
            // nybbles() yields 0..=15, so the table lookup is total.
            out.push(char::from(HEX[usize::from(n) & 0xf]));
            out.push('.');
        }
        out.push_str("ip6.arpa");
        out
    }

    /// Parses an `ip6.arpa` pointer name back to the address. Accepts an
    /// optional trailing dot and any ASCII case.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "count stops at 32 before it is incremented"
    )]
    pub fn from_ip6_arpa(s: &str) -> Result<Addr, ParseError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        let body = s
            .strip_suffix("ip6.arpa")
            .and_then(|b| b.strip_suffix('.'))
            .ok_or(ParseError::NotIp6Arpa)?;
        let mut v: u128 = 0;
        let mut count = 0usize;
        for part in body.split('.') {
            let mut chars = part.chars();
            let (Some(c), None) = (chars.next(), chars.next()) else {
                return Err(ParseError::GroupTooLong);
            };
            let d = c.to_digit(16).ok_or(ParseError::InvalidCharacter(c))?;
            if count >= 32 {
                return Err(ParseError::TooManyGroups);
            }
            // Nybbles arrive least-significant first: each enters at the
            // top and the 32nd lands the first at the bottom.
            v = (v >> 4) | (u128::from(d) << 124);
            count += 1;
        }
        if count != 32 {
            return Err(ParseError::TooFewGroups);
        }
        Ok(Addr(v))
    }

    /// Parses the 32-hex-character fixed-width form produced by
    /// [`Addr::to_fixed_hex`].
    pub fn from_fixed_hex(s: &str) -> Result<Addr, ParseError> {
        if s.len() != 32 {
            return Err(ParseError::TooFewGroups);
        }
        let mut v: u128 = 0;
        for c in s.chars() {
            let d = c.to_digit(16).ok_or(ParseError::InvalidCharacter(c))?;
            v = (v << 4) | d as u128;
        }
        Ok(Addr(v))
    }
}

impl From<u128> for Addr {
    fn from(v: u128) -> Addr {
        Addr(v)
    }
}

impl From<Addr> for u128 {
    fn from(a: Addr) -> u128 {
        a.0
    }
}

impl From<Ipv6Addr> for Addr {
    fn from(a: Ipv6Addr) -> Addr {
        Addr::from_std(a)
    }
}

impl From<Addr> for Ipv6Addr {
    fn from(a: Addr) -> Ipv6Addr {
        a.to_std()
    }
}

// ---------------------------------------------------------------------------
// Parsing (RFC 4291 §2.2)
// ---------------------------------------------------------------------------

impl Addr {
    /// Parses RFC 4291 presentation format from ASCII bytes: up to eight
    /// hex groups separated by `:`, at most one `::` elision, and an
    /// optional dotted-quad IPv4 tail occupying the final 32 bits. The
    /// tail may not precede a `::` (so `1.2.3.4::` is rejected, as
    /// `std::net::Ipv6Addr` rejects it).
    ///
    /// One left-to-right scan into eight segments plus the elision's
    /// group index; nothing is allocated. `FromStr` for [`Addr`] and
    /// [`crate::Prefix`] delegate to it, so every presentation-format
    /// address in the workspace goes through this scan, the one
    /// [`Addr::parse_leading`] also runs. A non-ASCII byte is reported
    /// as `InvalidCharacter(U+FFFD)`; `str::parse` names the actual
    /// char.
    pub fn parse_ascii(b: &[u8]) -> Result<Addr, ParseError> {
        scan::<false>(b).map(|(addr, _)| addr)
    }

    /// Parses the address `b` starts with, which ends at `b`'s end or at
    /// the first byte that is neither a hex digit nor `:`. Returns the
    /// address and its length in bytes, or `None` when that leading run
    /// is not one: with `n` the run's length, `parse_leading(b)` is
    /// `parse_ascii(&b[..n]).ok()` paired with `n`. A reader that finds
    /// its delimiter at the returned length has parsed its field in one
    /// scan. An address with an IPv4 tail stops at its first `.`, so
    /// only [`Addr::parse_ascii`] reads it.
    ///
    /// ```
    /// use v6census_addr::Addr;
    /// let (a, n) = Addr::parse_leading(b"2001:db8::1\t17\n").unwrap();
    /// assert_eq!((a.to_string().as_str(), n), ("2001:db8::1", 11));
    /// assert_eq!(Addr::parse_leading(b"2001:db8:\t17\n"), None);
    /// ```
    #[inline]
    pub fn parse_leading(b: &[u8]) -> Option<(Addr, usize)> {
        scan::<true>(b).ok()
    }
}

/// A byte's class in the address grammar: a hex digit's value, or
/// [`COLON`], [`DOT`] or [`OTHER`].
const HEX_CLASS: [u16; 256] = class_table(false);
/// [`HEX_CLASS`] for a [`Addr::parse_leading`] scan, in which every
/// byte outside `[0-9a-fA-F:]` is [`END`].
const LEADING_CLASS: [u16; 256] = class_table(true);
/// The class of `:`.
const COLON: u16 = 16;
/// The class of `.`.
const DOT: u16 = 17;
/// The class of every other byte.
const OTHER: u16 = 18;
/// Where the address ends: past the input, or at a leading scan's
/// first byte outside `[0-9a-fA-F:]`.
const END: u16 = 19;

/// Each byte's class; with `leading`, `.` and [`OTHER`] bytes are
/// [`END`]. Classes are `u16`, the type of a group: the scan shifts a
/// digit's class straight into its group.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "each digit's offset is within its range, and c stops at u8::MAX"
)]
const fn class_table(leading: bool) -> [u16; 256] {
    let mut table = [OTHER; 256];
    let mut c: u8 = 0;
    loop {
        table[c as usize] = match c {
            b'0'..=b'9' => (c - b'0') as u16,
            b'a'..=b'f' => (c - b'a' + 10) as u16,
            b'A'..=b'F' => (c - b'A' + 10) as u16,
            b':' => COLON,
            _ if leading => END,
            b'.' => DOT,
            _ => OTHER,
        };
        if c == u8::MAX {
            break table;
        }
        c += 1;
    }
}

/// The address grammar's one group loop. The address ends at the first
/// [`END`]: `b`'s end, and for a `LEADING` scan also the first byte
/// outside `[0-9a-fA-F:]`. Every rule reads "the end" through that one
/// class, so a `LEADING` scan that succeeds at length `n` answers
/// exactly as a whole scan of `b[..n]`. In a whole scan a byte outside
/// the grammar is an `InvalidCharacter`, and a `.` starts an IPv4 tail
/// that must run to the end of `b`. Returns the address and the bytes
/// it took. `inline(always)`: each caller gets the loop specialised to
/// its `LEADING`.
#[inline(always)]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "per-line kernel: i <= b.len() and n <= 8 bound every counter; a rewrite would change its codegen"
)]
fn scan<const LEADING: bool>(b: &[u8]) -> Result<(Addr, usize), ParseError> {
    let table = if LEADING { &LEADING_CLASS } else { &HEX_CLASS };
    let class = |i: usize| b.get(i).map_or(END, |&c| table[usize::from(c)]);
    // The error for byte `i`, which has a class but no place there.
    let invalid = |i: usize| b.get(i).map_or(ParseError::Empty, |&c| invalid_byte(c));
    if class(0) == END {
        return Err(ParseError::Empty);
    }
    let mut segs = [0u16; 8];
    let mut n = 0usize; // groups written to `segs`
    let mut elision: Option<usize> = None; // groups before the `::`
    let mut i = 0usize;
    if class(0) == COLON && class(1) == COLON {
        elision = Some(0);
        i = 2;
    }
    let mut next = class(i);
    while next != END {
        let start = i;
        let mut g: u16 = 0;
        if let Some(&[c0, c1, c2, c3, c4]) = b.get(i..i + 5) {
            // Five bytes on: the group's digits and the class after
            // them from one window, with no bounds check a byte. A
            // fifth digit is `GroupTooLong`, the first error the group
            // can give.
            let k = |c: u8| table[usize::from(c)];
            let (k0, k1, k2, k3, k4) = (k(c0), k(c1), k(c2), k(c3), k(c4));
            let (group, len, after) = if k0 >= 16 {
                (0, 0, k0)
            } else if k1 >= 16 {
                (k0, 1, k1)
            } else if k2 >= 16 {
                (k0 << 4 | k1, 2, k2)
            } else if k3 >= 16 {
                (k0 << 8 | k1 << 4 | k2, 3, k3)
            } else if k4 >= 16 {
                (k0 << 12 | k1 << 8 | k2 << 4 | k3, 4, k4)
            } else {
                return Err(ParseError::GroupTooLong);
            };
            (g, next) = (group, after);
            i += len;
        } else {
            // Near the end, byte by byte; the run's length is checked
            // once it ends.
            while next < 16 {
                g = (g << 4) | next;
                i += 1;
                next = class(i);
            }
            if i - start > 4 {
                return Err(ParseError::GroupTooLong);
            }
        }
        if next == DOT {
            // An IPv4 tail ends the address: it must consume the rest
            // of the input and still leave room for its two groups.
            let [o0, o1, o2, o3] = parse_v4(b.get(start..).unwrap_or_default())?;
            if n > 6 {
                return Err(ParseError::TooManyGroups);
            }
            segs[n] = (u16::from(o0) << 8) | u16::from(o1);
            segs[n + 1] = (u16::from(o2) << 8) | u16::from(o3);
            n += 2;
            i = b.len();
            break;
        }
        if i == start {
            return Err(match next {
                COLON | END => ParseError::StrayColon,
                _ => invalid(i),
            });
        }
        if n == 8 {
            return Err(ParseError::TooManyGroups);
        }
        segs[n] = g;
        n += 1;
        match next {
            END => break,
            COLON => match class(i + 1) {
                COLON => {
                    if elision.is_some() {
                        return Err(ParseError::MultipleElisions);
                    }
                    elision = Some(n);
                    i += 2;
                }
                // A single ':' must be followed by another group.
                END => return Err(ParseError::StrayColon),
                _ => i += 1,
            },
            _ => return Err(invalid(i)),
        }
        next = class(i);
    }
    let addr = match elision {
        None if n < 8 => return Err(ParseError::TooFewGroups),
        None => Addr::from_segments(segs),
        // "::" always stands for at least one zero group.
        Some(_) if n > 7 => return Err(ParseError::TooManyGroups),
        Some(k) => {
            // Slide the groups after the elision to the end.
            segs[k..].rotate_right(8 - n);
            Addr::from_segments(segs)
        }
    };
    Ok((addr, i))
}

impl FromStr for Addr {
    type Err = ParseError;

    /// Parses RFC 4291 presentation format; see [`Addr::parse_ascii`].
    fn from_str(s: &str) -> Result<Addr, ParseError> {
        Addr::parse_ascii(s.as_bytes()).map_err(|e| match e {
            // The scan stops at the first non-ASCII byte: name its char.
            ParseError::InvalidCharacter(char::REPLACEMENT_CHARACTER) => s
                .chars()
                .find(|c| !c.is_ascii())
                .map_or(e, ParseError::InvalidCharacter),
            e => e,
        })
    }
}

/// The error for a byte outside the grammar. A non-ASCII byte is only
/// part of a char, so it is reported as U+FFFD.
fn invalid_byte(c: u8) -> ParseError {
    ParseError::InvalidCharacter(if c.is_ascii() {
        char::from(c)
    } else {
        char::REPLACEMENT_CHARACTER
    })
}

/// Parses a whole dotted quad: four decimal octets, no leading zeros
/// (as inet_pton), each at most 255.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "counters bounded by the 4 octets and the input length"
)]
fn parse_v4(b: &[u8]) -> Result<[u8; 4], ParseError> {
    let mut octets = [0u8; 4];
    let mut n = 0;
    for part in b.split(|&c| c == b'.') {
        if n == 4 || part.is_empty() || part.len() > 3 {
            return Err(ParseError::BadIpv4Tail);
        }
        // Reject leading zeros ("01") as inet_pton does.
        if part.len() > 1 && part.starts_with(b"0") {
            return Err(ParseError::BadIpv4Tail);
        }
        let mut v = 0u32;
        for &c in part {
            let d = char::from(c).to_digit(10).ok_or(ParseError::BadIpv4Tail)?;
            // At most three digits, so this never overflows.
            v = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(d))
                .ok_or(ParseError::BadIpv4Tail)?;
        }
        octets[n] = u8::try_from(v).map_err(|_| ParseError::BadIpv4Tail)?;
        n += 1;
    }
    if n != 4 {
        return Err(ParseError::BadIpv4Tail);
    }
    Ok(octets)
}

// ---------------------------------------------------------------------------
// Formatting (RFC 5952 canonical form)
// ---------------------------------------------------------------------------

impl Addr {
    /// The longest RFC 5952 text of an address, in bytes: eight
    /// four-digit groups and seven colons.
    pub const MAX_ASCII_LEN: usize = 39;

    /// Writes the address into `buf` in RFC 5952 canonical form and
    /// returns the text: lower-case hex, no leading zeros, and the
    /// single longest run of two or more zero groups compressed to `::`
    /// (the leftmost on ties). The inverse of [`Addr::parse_ascii`].
    ///
    /// Formats on the caller's stack buffer without `fmt`, so a writer
    /// of many addresses (`core::daylog`) pays one copy per address.
    /// [`fmt::Display`] for [`Addr`] delegates to it.
    ///
    /// ```
    /// use v6census_addr::Addr;
    /// let a: Addr = "2001:0db8:0:0:1:0:0:1".parse().unwrap();
    /// assert_eq!(a.write_ascii(&mut [0; Addr::MAX_ASCII_LEN]), "2001:db8::1:0:0:1");
    /// ```
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "per-line kernel: n stays below MAX_ASCII_LEN; a rewrite would change its codegen"
    )]
    pub fn write_ascii(self, buf: &mut [u8; Addr::MAX_ASCII_LEN]) -> &str {
        let segs = self.segments();
        // Bit 7 - i set when group i is zero: most addresses have no two
        // zero groups side by side, and those skip the run search.
        let zeros = segs.iter().fold(0u8, |m, &g| (m << 1) | u8::from(g == 0));
        let elided = if zeros & (zeros >> 1) == 0 {
            0..0
        } else {
            longest_zero_run(&segs)
        };
        let mut n = 0;
        // Whether the next group needs a `:` before it: not the first
        // group, and not the one right after `::`.
        let mut colon = false;
        for (i, &g) in segs.iter().enumerate() {
            if elided.contains(&i) {
                if i == elided.start {
                    buf[n] = b':';
                    buf[n + 1] = b':';
                    n += 2;
                }
                colon = false;
                continue;
            }
            if colon {
                buf[n] = b':';
                n += 1;
            }
            n = put_hex_group(buf, n, g);
            colon = true;
        }
        // Every byte written is a hex digit or `:`, so this is ASCII
        // and the check cannot fail.
        std::str::from_utf8(buf.get(..n).unwrap_or_default()).unwrap_or_default()
    }
}

/// The longest run of zero groups, the leftmost on ties. RFC 5952
/// compresses only a run of two groups or more, so call this only
/// when two neighbouring groups are zero.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "run <= i + 1 <= 8 over eight groups"
)]
fn longest_zero_run(segs: &[u16; 8]) -> std::ops::Range<usize> {
    let (mut best, mut run) = (0..0, 0);
    for (i, &g) in segs.iter().enumerate() {
        run = if g == 0 { run + 1 } else { 0 };
        if run > best.len() {
            best = i + 1 - run..i + 1;
        }
    }
    best
}

/// Every byte's two lower-case hex digits.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut table = [[0; 2]; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = [HEX[i >> 4], HEX[i & 0xf]];
        i += 1;
    }
    table
};

/// Writes group `g` at `buf[n..]` in lower-case hex without leading
/// zeros (one digit for 0) and returns the position after it. Writes
/// all four digits as one word, shifted past the leading zeros, and
/// advances past the significant ones: no branch depends on the
/// digits. A group never starts past byte 35, so the word fits.
#[inline]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "n + 4 <= MAX_ASCII_LEN at every call; the digit count is at most 4"
)]
fn put_hex_group(buf: &mut [u8; Addr::MAX_ASCII_LEN], n: usize, g: u16) -> usize {
    let [hi, lo] = g.to_be_bytes();
    let [a, b] = HEX_PAIRS[usize::from(hi)];
    let [c, d] = HEX_PAIRS[usize::from(lo)];
    // Leading zero digits, at most 3: `| 1` keeps a 0 group's last digit.
    let zeros = (g | 1).leading_zeros() / 4;
    let word = u32::from_le_bytes([a, b, c, d]).wrapping_shr(8 * zeros);
    if let Some(dst) = buf.get_mut(n..n + 4) {
        dst.copy_from_slice(&word.to_le_bytes());
    }
    n + 4 - usize::from(low8(u128::from(zeros)))
}

impl fmt::Display for Addr {
    /// Formats in RFC 5952 canonical form; see [`Addr::write_ascii`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.write_ascii(&mut [0; Addr::MAX_ASCII_LEN]))
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn parses_full_form() {
        let x = a("2001:0db8:0000:0001:001e:c2ff:fec0:11db");
        assert_eq!(
            x.segments(),
            [0x2001, 0xdb8, 0, 1, 0x1e, 0xc2ff, 0xfec0, 0x11db]
        );
    }

    #[test]
    fn parses_elision_everywhere() {
        assert_eq!(a("::"), Addr(0));
        assert_eq!(a("::1"), Addr(1));
        assert_eq!(a("1::"), Addr(1u128 << 112));
        assert_eq!(a("1::2"), Addr((1u128 << 112) | 2));
        assert_eq!(
            a("2001:db8::10:901").segments(),
            [0x2001, 0xdb8, 0, 0, 0, 0, 0x10, 0x901]
        );
    }

    #[test]
    fn parses_ipv4_tail() {
        let x = a("::ffff:192.0.2.1");
        assert_eq!(x.segments(), [0, 0, 0, 0, 0, 0xffff, 0xc000, 0x0201]);
        let y = a("64:ff9b::203.0.113.7");
        assert_eq!(y.segments()[6], 0xcb00);
        assert_eq!(y.segments()[7], 0x7107);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            ":",
            ":::",
            "1:2:3",
            "1:2:3:4:5:6:7:8:9",
            "::g",
            "12345::",
            "1::2::3",
            "::1.2.3",
            "::1.2.3.4.5",
            "::256.1.1.1",
            "::01.2.3.4",
            "1.2.3.4",
            "2001:db8::1 ",
            " 2001:db8::1",
            "2001:db8:::1",
            "1.2.3.4::",
            "1:2:3:4:5:1.2.3.4::",
        ] {
            assert!(bad.parse::<Addr>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn invalid_characters_are_named() {
        assert_eq!(
            "2001:db8::g".parse::<Addr>(),
            Err(ParseError::InvalidCharacter('g'))
        );
        assert_eq!(
            "2001:db8::é".parse::<Addr>(),
            Err(ParseError::InvalidCharacter('é'))
        );
        assert_eq!(
            Addr::parse_ascii("2001:db8::é".as_bytes()),
            Err(ParseError::InvalidCharacter(char::REPLACEMENT_CHARACTER))
        );
    }

    #[test]
    fn formats_rfc5952() {
        for (input, want) in [
            ("2001:0DB8:0:0:0:0:0:1", "2001:db8::1"),
            ("2001:db8:0:1:1:1:1:1", "2001:db8:0:1:1:1:1:1"),
            ("2001:0:0:1:0:0:0:1", "2001:0:0:1::1"),
            ("2001:db8:0:0:1:0:0:1", "2001:db8::1:0:0:1"),
            ("0:0:0:0:0:0:0:0", "::"),
            ("0:0:0:0:0:0:0:1", "::1"),
            ("1:0:0:0:0:0:0:0", "1::"),
            ("fe80:0:0:0:1:0:0:1", "fe80::1:0:0:1"),
        ] {
            assert_eq!(input.parse::<Addr>().unwrap().to_string(), want);
        }
    }

    /// A few fixed addresses plus seeded ones: the all-zero and
    /// all-one words, one with every segment distinct, and a splitmix
    /// sequence.
    fn sample_addrs() -> Vec<Addr> {
        let mut out = vec![
            Addr(0),
            Addr(u128::MAX),
            a("2001:db8:4137:9e76:3031:f3fd:bbdd:2c2a"),
            a("8000::1"),
        ];
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..8 {
            let mut word = 0u128;
            for _ in 0..2 {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                word = (word << 64) | u128::from(z ^ (z >> 31));
            }
            out.push(Addr(word));
        }
        out
    }

    #[test]
    fn accessors_agree() {
        let x = a("2001:db8:4137:9e76:3031:f3fd:bbdd:2c2a");
        assert_eq!(x.segment(SegIdx::lit::<2>()), 0x4137);
        assert_eq!(x.nybble(NybbleIdx::lit::<8>()), 0x4);
        assert_eq!(x.nybble(NybbleIdx::MAX), 0xa);
        assert_eq!(x.network_bits(), 0x20010db841379e76);
        assert_eq!(x.iid_bits(), 0x3031f3fdbbdd2c2a);
        // bit 0..3 spell 0x2 = 0b0010
        let top: Vec<u8> = BitIdx::all().take(4).map(|i| x.bit(i)).collect();
        assert_eq!(top, [0, 0, 1, 0]);
        // Every valid index, on every sample, against the plain shift
        // formula; segments also against the standard library.
        for x in sample_addrs() {
            for i in BitIdx::all() {
                let want = (x.0 >> (127 - u32::from(i))) & 1;
                assert_eq!(u128::from(x.bit(i)), want, "{x} bit {i}");
            }
            for i in NybbleIdx::all() {
                let want = (x.0 >> (124 - 4 * u32::from(i))) & 0xf;
                assert_eq!(u128::from(x.nybble(i)), want, "{x} nybble {i}");
            }
            let std_segments = x.to_std().segments();
            for i in SegIdx::all() {
                let want = (x.0 >> (112 - 16 * u32::from(i))) & 0xffff;
                assert_eq!(u128::from(x.segment(i)), want, "{x} segment {i}");
                assert_eq!(
                    x.segment(i),
                    std_segments[usize::from(i)],
                    "{x} segment {i}"
                );
            }
            assert_eq!(x.segments(), std_segments);
            for len in PrefixLen::all() {
                let want = match len.get() {
                    0 => 0,
                    l => x.0 & (u128::MAX << (128 - u32::from(l))),
                };
                assert_eq!(x.mask(len).0, want, "{x}/{len}");
            }
        }
    }

    #[test]
    fn common_prefix_len_of_every_pair_is_a_prefix_len() {
        let xs = sample_addrs();
        for &x in &xs {
            for &y in &xs {
                let cpl = x.common_prefix_len(y);
                assert_eq!(PrefixLen::new(cpl.get()), Some(cpl));
                assert_eq!(u32::from(cpl), (x.0 ^ y.0).leading_zeros());
                assert_eq!(x.mask(cpl), y.mask(cpl), "{x} {y}");
            }
        }
    }

    #[test]
    fn batched_nybbles_agree_with_single() {
        for s in [
            "2001:db8:4137:9e76:3031:f3fd:bbdd:2c2a",
            "::",
            "::1",
            "ffff::ffff",
        ] {
            let x = a(s);
            let batch = x.nybbles();
            for i in NybbleIdx::all() {
                assert_eq!(batch[usize::from(i)], x.nybble(i), "{s} nybble {i}");
            }
        }
    }

    #[test]
    fn mask_and_common_prefix() {
        let p = |v: u8| PrefixLen::new(v).unwrap();
        let x = a("2001:db8:ffff:ffff:ffff:ffff:ffff:ffff");
        assert_eq!(x.mask(p(32)), a("2001:db8::"));
        assert_eq!(x.mask(PrefixLen::ZERO), Addr(0));
        assert_eq!(x.mask(PrefixLen::MAX), x);
        assert_eq!(a("2001:db8::1").common_prefix_len(a("2001:db8::2")), p(126));
        assert_eq!(a("::").common_prefix_len(a("8000::")), p(0));
        assert_eq!(a("::1").common_prefix_len(a("::1")), p(128));
    }

    #[test]
    fn with_bit_roundtrip() {
        let x = a("2001:db8::");
        let y = x.with_bit(BitIdx::MAX, 1);
        assert_eq!(y, a("2001:db8::1"));
        assert_eq!(y.with_bit(BitIdx::MAX, 0), x);
        for i in BitIdx::all() {
            assert_eq!(x.with_bit(i, 1).bit(i), 1, "bit {i}");
            assert_eq!(x.with_bit(i, 1).with_bit(i, 0).bit(i), 0, "bit {i}");
        }
    }

    #[test]
    fn fixed_hex_roundtrip() {
        let x = a("2001:db8::9:1");
        let h = x.to_fixed_hex();
        assert_eq!(h.len(), 32);
        assert_eq!(Addr::from_fixed_hex(&h).unwrap(), x);
        assert!(Addr::from_fixed_hex("abc").is_err());
        assert!(Addr::from_fixed_hex(&"g".repeat(32)).is_err());
    }

    #[test]
    fn std_conversion_roundtrip() {
        let x = a("2001:db8:10:1::103");
        assert_eq!(Addr::from_std(x.to_std()), x);
    }

    #[test]
    fn ip6_arpa_roundtrip_and_format() {
        let x = a("2001:db8::567:89ab");
        let ptr = x.to_ip6_arpa();
        assert!(ptr.ends_with(".ip6.arpa"));
        assert!(ptr.starts_with("b.a.9.8.7.6.5.0."));
        assert_eq!(Addr::from_ip6_arpa(&ptr).unwrap(), x);
        assert_eq!(Addr::from_ip6_arpa(&(ptr.clone() + ".")).unwrap(), x);
        // RFC 3596's own example shape: 32 labels + ip6.arpa.
        assert_eq!(ptr.split('.').count(), 34);
        let bad_cases: Vec<String> = vec![
            "ip6.arpa".into(),
            "1.2.ip6.arpa".into(),
            "x.".repeat(32) + "ip6.arpa",
            "1.".repeat(33) + "ip6.arpa",
            "1.".repeat(32) + "in-addr.arpa",
            "11.".repeat(16) + "ip6.arpa",
        ];
        for bad in &bad_cases {
            assert!(Addr::from_ip6_arpa(bad).is_err(), "accepted {bad:?}");
        }
    }
}
