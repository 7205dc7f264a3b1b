//! Property-based tests for the address substrate, using the standard
//! library's `Ipv6Addr` as a parsing/formatting oracle.
//!
//! Cases are driven by a deterministic splitmix64 stream rather than an
//! external property-testing crate, so the workspace builds with no
//! dependencies outside the standard library. Every failure message
//! includes the case seed, which reproduces the input exactly.

use std::net::Ipv6Addr;
use v6census_addr::{Addr, BitIdx, Iid, Mac, NybbleIdx, Prefix, PrefixLen};

const CASES: u64 = 400;

/// A generated prefix length; callers draw it from `0..=128`.
fn plen(v: u64) -> PrefixLen {
    PrefixLen::new(u8::try_from(v).unwrap()).unwrap()
}

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

    fn u128(&mut self) -> u128 {
        ((self.u64() as u128) << 64) | self.u64() as u128
    }

    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n >= 1);
        ((self.u64() as u128 * n as u128) >> 64) as u64
    }

    /// Realistic bit patterns are heavy in runs of zeros; mix raw words
    /// with masked/sparse ones so compression paths get exercised.
    fn addr_bits(&mut self) -> u128 {
        let raw = self.u128();
        match self.below(4) {
            0 => raw,
            1 => raw & self.u128(), // sparse bits
            2 => raw & !(u128::MAX.checked_shr(self.below(129) as u32).unwrap_or(0)), // prefix-like
            _ => raw | self.u128(), // dense bits
        }
    }
}

#[test]
fn format_matches_std() {
    let mut g = Gen::new(1);
    for case in 0..CASES {
        let bits = g.addr_bits();
        let ours = Addr(bits).to_string();
        let std = Ipv6Addr::from_bits(bits).to_string();
        assert_eq!(ours, std, "case {case}: bits {bits:#034x}");
    }
}

/// `write_ascii` on its own buffer, as text.
fn ascii(a: Addr) -> String {
    a.write_ascii(&mut [0; Addr::MAX_ASCII_LEN]).to_string()
}

#[test]
fn write_ascii_matches_std_and_round_trips() {
    let mut g = Gen::new(13);
    for case in 0..CASES {
        let bits = g.addr_bits();
        let text = ascii(Addr(bits));
        assert_eq!(
            text,
            Ipv6Addr::from_bits(bits).to_string(),
            "case {case}: bits {bits:#034x}"
        );
        assert_eq!(
            Addr::parse_ascii(text.as_bytes()),
            Ok(Addr(bits)),
            "case {case}: {text}"
        );
        assert_eq!(Addr(bits).to_string(), text, "case {case}: Display");
    }
}

#[test]
fn write_ascii_edge_cases() {
    for (segs, want) in [
        ([0; 8], "::"),
        ([0, 0, 0, 0, 0, 0, 0, 1], "::1"),
        ([1, 0, 0, 0, 0, 0, 0, 0], "1::"),
        // Tied zero runs: the leftmost is compressed.
        ([1, 0, 0, 2, 3, 0, 0, 4], "1::2:3:0:0:4"),
        ([0, 0, 1, 2, 3, 4, 0, 0], "::1:2:3:4:0:0"),
        ([1, 0, 0, 0, 2, 0, 0, 0], "1::2:0:0:0"),
        // A longer run wins over an earlier shorter one.
        ([1, 0, 0, 2, 0, 0, 0, 3], "1:0:0:2::3"),
        // A single zero group is not compressed.
        ([1, 2, 3, 0, 4, 5, 6, 7], "1:2:3:0:4:5:6:7"),
        ([0, 1, 2, 3, 4, 5, 6, 7], "0:1:2:3:4:5:6:7"),
        ([1, 2, 3, 4, 5, 6, 7, 0], "1:2:3:4:5:6:7:0"),
        // Every digit count, and the longest text.
        (
            [0xf, 0xff, 0xfff, 0xffff, 0x10, 0x100, 0x1000, 0xabcd],
            "f:ff:fff:ffff:10:100:1000:abcd",
        ),
        ([0xffff; 8], "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"),
    ] {
        let a = Addr::from_segments(segs);
        let text = ascii(a);
        assert_eq!(text, want, "{segs:x?}");
        assert_eq!(text, a.to_std().to_string(), "{segs:x?}");
        assert_eq!(Addr::parse_ascii(text.as_bytes()), Ok(a), "{text}");
    }
    assert_eq!(ascii(Addr(u128::MAX)).len(), Addr::MAX_ASCII_LEN);
}

#[test]
fn display_parse_roundtrip() {
    let mut g = Gen::new(2);
    for case in 0..CASES {
        let a = Addr(g.addr_bits());
        let back: Addr = a.to_string().parse().unwrap();
        assert_eq!(a, back, "case {case}");
    }
}

#[test]
fn parse_matches_std_on_std_output() {
    let mut g = Gen::new(3);
    for case in 0..CASES {
        let bits = g.addr_bits();
        let text = Ipv6Addr::from_bits(bits).to_string();
        let ours: Addr = text.parse().unwrap();
        assert_eq!(ours.0, bits, "case {case}: {text}");
    }
}

#[test]
fn parse_full_form() {
    let mut g = Gen::new(4);
    for case in 0..CASES {
        let a = Addr(g.addr_bits());
        let segs = a.segments();
        let full = format!(
            "{:x}:{:x}:{:x}:{:x}:{:x}:{:x}:{:x}:{:x}",
            segs[0], segs[1], segs[2], segs[3], segs[4], segs[5], segs[6], segs[7]
        );
        assert_eq!(full.parse::<Addr>().unwrap(), a, "case {case}");
    }
}

#[test]
fn fixed_hex_roundtrip() {
    let mut g = Gen::new(5);
    for case in 0..CASES {
        let a = Addr(g.addr_bits());
        assert_eq!(
            Addr::from_fixed_hex(&a.to_fixed_hex()).unwrap(),
            a,
            "case {case}"
        );
    }
}

#[test]
fn accessors_reconstruct() {
    let mut g = Gen::new(6);
    for case in 0..100 {
        let bits = g.addr_bits();
        let a = Addr(bits);
        let mut from_bits = 0u128;
        for i in BitIdx::all() {
            from_bits = (from_bits << 1) | a.bit(i) as u128;
        }
        assert_eq!(from_bits, bits, "case {case}: bit()");
        let mut from_nybbles = 0u128;
        for i in NybbleIdx::all() {
            from_nybbles = (from_nybbles << 4) | a.nybble(i) as u128;
        }
        assert_eq!(from_nybbles, bits, "case {case}: nybble()");
        assert_eq!(Addr::from_segments(a.segments()), a);
        assert_eq!(Addr::from_bytes(a.to_bytes()), a);
        assert_eq!(
            ((a.network_bits() as u128) << 64) | a.iid_bits() as u128,
            bits
        );
    }
}

#[test]
fn mask_laws() {
    let mut g = Gen::new(7);
    for case in 0..CASES {
        let a = Addr(g.addr_bits());
        let len = plen(g.below(129));
        let m = a.mask(len);
        assert_eq!(m.mask(len), m, "case {case}: idempotent");
        assert!(a.common_prefix_len(m) >= len.min(a.common_prefix_len(a)));
        if let Some(longer) = len.checked_add(1) {
            assert_eq!(m.mask(longer), m, "case {case}: masking is nested");
        }
    }
}

#[test]
fn common_prefix_consistency() {
    let mut g = Gen::new(8);
    for case in 0..CASES {
        let a = Addr(g.addr_bits());
        let b = Addr(g.addr_bits());
        let len = plen(g.below(129));
        assert_eq!(
            a.common_prefix_len(b),
            b.common_prefix_len(a),
            "case {case}"
        );
        let share = a.common_prefix_len(b) >= len;
        assert_eq!(share, a.mask(len) == b.mask(len), "case {case}");
    }
}

#[test]
fn prefix_containment_laws() {
    let mut g = Gen::new(9);
    for case in 0..CASES {
        let x = g.addr_bits();
        let y = g.addr_bits();
        // Bias toward related prefixes so containment is actually hit.
        let y = if g.below(2) == 0 {
            x ^ (g.u128() >> (64 + g.below(64) as u32))
        } else {
            y
        };
        let p = Prefix::new(Addr(x), plen(g.below(129)));
        let q = Prefix::new(Addr(y), plen(g.below(129)));
        assert!(p.contains(p), "case {case}: reflexive");
        if p.contains(q) && q.contains(p) {
            assert_eq!(p, q, "case {case}: antisymmetric");
        }
        assert_eq!(p.contains_addr(Addr(y)), p.contains(Prefix::host(Addr(y))));
        if p.contains(q) {
            assert!(p.len() <= q.len());
            assert!(p.contains_addr(q.addr()));
        }
        let back: Prefix = p.to_string().parse().unwrap();
        assert_eq!(back, p, "case {case}: display roundtrip");
    }
}

#[test]
fn prefix_family_laws() {
    let mut g = Gen::new(10);
    for case in 0..CASES {
        let len = plen(1 + g.below(127));
        let p = Prefix::new(Addr(g.addr_bits()), len);
        let parent = p.parent().unwrap();
        assert!(parent.contains(p), "case {case}");
        let (l, r) = p.children().unwrap();
        assert!(p.contains(l) && p.contains(r));
        assert!(!l.overlaps(r));
        assert_eq!(l.span().unwrap() + r.span().unwrap(), p.span().unwrap());
        assert_eq!(l.parent().unwrap(), p);
        assert_eq!(r.parent().unwrap(), p);
    }
}

#[test]
fn eui64_roundtrip() {
    let mut g = Gen::new(11);
    for case in 0..CASES {
        let w = g.u64();
        let mac = Mac([
            w as u8,
            (w >> 8) as u8,
            (w >> 16) as u8,
            (w >> 24) as u8,
            (w >> 32) as u8,
            (w >> 40) as u8,
        ]);
        let iid = mac.to_modified_eui64();
        assert_eq!(Mac::from_modified_eui64(iid), Some(mac), "case {case}");
        assert!(Iid(iid).is_eui64());
        assert_eq!(Iid(iid).u_bit() == 1, mac.0[0] & 0x02 == 0, "case {case}");
        let parsed: Mac = mac.to_string().parse().unwrap();
        assert_eq!(parsed, mac, "case {case}");
    }
}

#[test]
fn eui64_decode_encode_consistency() {
    let mut g = Gen::new(12);
    for case in 0..CASES {
        // Half the cases force the ff:fe marker so decoding happens.
        let mut iid = g.u64();
        if g.below(2) == 0 {
            iid = (iid & 0xffff_ff00_0000_ffff) | 0x0000_00ff_fe00_0000;
        }
        if let Some(mac) = Mac::from_modified_eui64(iid) {
            assert_eq!(mac.to_modified_eui64(), iid, "case {case}");
        }
    }
}

#[test]
fn classify_total() {
    let mut g = Gen::new(13);
    for case in 0..CASES {
        let a = Addr(g.addr_bits());
        let s1 = v6census_addr::scheme::classify(a);
        let s2 = v6census_addr::scheme::classify(a);
        assert_eq!(s1, s2, "case {case}");
        let _ = v6census_addr::malone::classify_content_only(a);
        let _ = v6census_addr::iid_entropy_bits(Iid::of(a));
    }
}

#[test]
fn parser_handles_garbage() {
    let alphabet: &[u8] = b"0123456789abcdefABCDEF:. /";
    let mut g = Gen::new(14);
    for _case in 0..CASES {
        let len = g.below(64) as usize;
        let s: String = (0..len)
            .map(|_| alphabet[g.below(alphabet.len() as u64) as usize] as char)
            .collect();
        let _ = s.parse::<Addr>();
        let _ = s.parse::<Prefix>();
        let _ = Prefix::from_str_strict(&s);
    }
}

/// The parser agrees with `std::net::Ipv6Addr` on `s`: both accept it
/// with the same value, or both reject it.
fn assert_parse_matches_std(s: &str, what: &str) {
    let ours = s.parse::<Addr>().ok();
    let std = s.parse::<Ipv6Addr>().ok().map(Addr::from);
    assert_eq!(ours, std, "{what}: {s:?}");
}

/// One address written the ways a log line may spell it: canonical
/// (RFC 5952), upper case, full eight groups with leading zeros, and
/// six groups plus a dotted-quad IPv4 tail for the last 32 bits.
fn spellings(a: Addr) -> [String; 4] {
    let segs = a.segments();
    let full = segs.map(|g| format!("{g:04x}")).join(":");
    let six: Vec<String> = segs[..6].iter().map(|g| format!("{g:x}")).collect();
    let [o0, o1, o2, o3] = a.v4_in_low32();
    [
        a.to_string(),
        full.to_uppercase(),
        full,
        format!("{}:{o0}.{o1}.{o2}.{o3}", six.join(":")),
    ]
}

#[test]
fn parser_agrees_with_std_on_garbage() {
    // Weighted towards the separators, where the grammar's edge cases
    // (elisions, stray colons, IPv4 tails) live.
    let alphabet: &[u8] = b"0123456789abcdefABCDEF::::::::....";
    let mut g = Gen::new(16);
    for _case in 0..60_000 {
        let len = g.below(24) as usize;
        let s: String = (0..len)
            .map(|_| alphabet[g.below(alphabet.len() as u64) as usize] as char)
            .collect();
        assert_parse_matches_std(&s, "garbage");
    }
}

#[test]
fn parser_agrees_with_std_on_spellings_and_their_mutants() {
    let alphabet: &[u8] = b"0123456789abcdefABCDEF:.";
    let mut g = Gen::new(17);
    for case in 0..6_000 {
        let a = Addr(g.addr_bits());
        // The compressed head plus an IPv4 tail: valid only when the
        // elision still stands for a zero group, so std decides.
        let [o0, o1, o2, o3] = a.v4_in_low32();
        let head = Addr(a.0 >> 32 << 32);
        assert_parse_matches_std(&format!("{head}{o0}.{o1}.{o2}.{o3}"), "compressed tail");
        for text in spellings(a) {
            assert_eq!(text.parse::<Addr>(), Ok(a), "case {case}: {text:?}");
            assert_parse_matches_std(&text, "spelling");
            // One-character insertions, deletions and substitutions walk
            // the boundary between valid and invalid input.
            for _ in 0..4 {
                let mut b = text.clone().into_bytes();
                let at = g.below(b.len() as u64 + 1) as usize;
                let c = alphabet[g.below(alphabet.len() as u64) as usize];
                match g.below(3) {
                    0 => b.insert(at, c),
                    1 if at < b.len() => {
                        b.remove(at);
                    }
                    _ if at < b.len() => b[at] = c,
                    _ => b.push(c),
                }
                let mutant = String::from_utf8(b).unwrap();
                assert_parse_matches_std(&mutant, "mutant");
            }
        }
    }
}

/// `parse_leading` is `parse_ascii` on the input's leading run of
/// `[0-9a-fA-F:]`, paired with the run's length, whatever follows it.
#[test]
fn leading_parse_is_the_whole_parse_of_its_run() {
    let alphabet: &[u8] = b"0123456789abcdefABCDEF::::::::....\t\n g\xc3";
    let mut g = Gen::new(18);
    let mut parsed = 0;
    for case in 0..20_000 {
        let mut b = if case % 2 == 0 {
            // A real address, then a few bytes of anything.
            Addr(g.addr_bits()).to_string().into_bytes()
        } else {
            Vec::new()
        };
        for _ in 0..g.below(6) {
            let c = alphabet[g.below(alphabet.len() as u64) as usize];
            let at = g.below(b.len() as u64 + 1) as usize;
            b.insert(at, c);
        }
        let run = b
            .iter()
            .position(|c| !(c.is_ascii_hexdigit() || *c == b':'))
            .unwrap_or(b.len());
        let want = Addr::parse_ascii(&b[..run]).ok().map(|a| (a, run));
        assert_eq!(Addr::parse_leading(&b), want, "case {case}: {b:?}");
        parsed += usize::from(want.is_some());
    }
    assert!(parsed > 1_000, "only {parsed} inputs parsed");
}

#[test]
fn ip6_arpa_roundtrip() {
    let mut g = Gen::new(15);
    for case in 0..CASES {
        let a = Addr(g.addr_bits());
        let ptr = a.to_ip6_arpa();
        assert_eq!(ptr.split('.').count(), 34, "case {case}");
        assert_eq!(Addr::from_ip6_arpa(&ptr).unwrap(), a, "case {case}");
    }
}
