//! The [`Prefix`] type: an IPv6 address block `addr/len`.

use crate::bits::{high_mask, msb_mask};
use crate::index::PrefixLen;
use crate::{Addr, ParseError};
use std::fmt;
use std::str::FromStr;

/// An IPv6 prefix (CIDR block): an address and a length in bits.
///
/// A `Prefix` is always stored canonically — bits beyond `len` are zero —
/// so equality and ordering behave as block identity. The natural ordering
/// (network address first, then ascending length) puts a block before the
/// blocks it contains, which the trie and the densify report rely on.
///
/// ```
/// use v6census_addr::Prefix;
/// let p: Prefix = "2001:db8::/32".parse().unwrap();
/// assert!(p.contains_addr("2001:db8:1::1".parse().unwrap()));
/// assert_eq!(p.to_string(), "2001:db8::/32");
/// // Canonicalization zeroes host bits:
/// let q: Prefix = "2001:db8::ff/120".parse().unwrap();
/// assert_eq!(q.to_string(), "2001:db8::/120");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    addr: Addr,
    len: PrefixLen,
}

impl Prefix {
    /// The entire address space, `::/0`.
    pub const ALL: Prefix = Prefix {
        addr: Addr(0),
        len: PrefixLen::ZERO,
    };

    /// Creates a prefix, zeroing any bits beyond `len`.
    pub const fn new(addr: Addr, len: PrefixLen) -> Prefix {
        Prefix {
            addr: addr.mask(len),
            len,
        }
    }

    /// Creates a host prefix (`/128`) for a single address.
    pub const fn host(addr: Addr) -> Prefix {
        Prefix {
            addr,
            len: PrefixLen::MAX,
        }
    }

    /// The network address (host bits zero).
    pub const fn addr(self) -> Addr {
        self.addr
    }

    /// The prefix length in bits.
    pub const fn len(self) -> PrefixLen {
        self.len
    }

    /// True only for `::/0` (provided for clippy symmetry with `len`).
    pub const fn is_empty(self) -> bool {
        self.len.get() == 0
    }

    /// Number of addresses the block spans: 2^(128−len). Returns `None`
    /// for `::/0`, whose span (2^128) does not fit in `u128`.
    pub const fn span(self) -> Option<u128> {
        // 2^(128−len) is one past the host mask; the add overflows u128
        // exactly for `::/0`, whose span (2^128) is unrepresentable.
        (!high_mask(self.len)).checked_add(1)
    }

    /// The last address inside the block.
    pub const fn last_addr(self) -> Addr {
        Addr(self.addr.0 | !high_mask(self.len))
    }

    /// True when `a` lies inside this block.
    pub const fn contains_addr(self, a: Addr) -> bool {
        a.mask(self.len).0 == self.addr.0
    }

    /// True when `other` is equal to or more specific than this block.
    pub const fn contains(self, other: Prefix) -> bool {
        other.len.get() >= self.len.get() && other.addr.mask(self.len).0 == self.addr.0
    }

    /// True when the two blocks share any address.
    pub const fn overlaps(self, other: Prefix) -> bool {
        self.contains(other) || other.contains(self)
    }

    /// The immediate parent block (one bit shorter), or `None` for `::/0`.
    pub const fn parent(self) -> Option<Prefix> {
        match self.len.checked_sub(1) {
            Some(len) => Some(Prefix::new(self.addr, len)),
            None => None,
        }
    }

    /// The two immediate children (one bit longer), or `None` for `/128`.
    pub const fn children(self) -> Option<(Prefix, Prefix)> {
        let Some(bit) = self.len.next_bit() else {
            return None;
        };
        let len = bit.through();
        let left = Prefix {
            addr: self.addr,
            len,
        };
        let right = Prefix {
            addr: Addr(self.addr.0 | msb_mask(bit)),
            len,
        };
        Some((left, right))
    }

    /// Truncates an address to its containing `/len` block, for callers
    /// that hold a raw `u8`; the end-to-end benchmark calls it with
    /// literals. Typed code calls [`Prefix::new`].
    ///
    /// # Panics
    /// Panics if `len > 128`.
    pub const fn of(a: Addr, len: u8) -> Prefix {
        assert!(len <= 128, "prefix length out of range");
        match PrefixLen::new(len) {
            Some(len) => Prefix::new(a, len),
            None => Prefix::host(a),
        }
    }

    /// Parses without requiring canonical form — host bits are zeroed.
    pub fn from_str_lossy(s: &str) -> Result<Prefix, ParseError> {
        Self::parse_inner(s, false)
    }

    /// Parses and rejects input whose host bits are non-zero.
    pub fn from_str_strict(s: &str) -> Result<Prefix, ParseError> {
        Self::parse_inner(s, true)
    }

    fn parse_inner(s: &str, strict: bool) -> Result<Prefix, ParseError> {
        let (addr_s, len_s) = s.split_once('/').ok_or(ParseError::BadPrefixLength)?;
        let addr: Addr = addr_s.parse()?;
        if len_s.is_empty() || len_s.len() > 3 || !len_s.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseError::BadPrefixLength);
        }
        let p = Prefix::new(addr, len_s.parse()?);
        if strict && p.addr != addr {
            return Err(ParseError::HostBitsSet);
        }
        Ok(p)
    }
}

impl FromStr for Prefix {
    type Err = ParseError;

    /// Equivalent to [`Prefix::from_str_lossy`].
    fn from_str(s: &str) -> Result<Prefix, ParseError> {
        Prefix::from_str_lossy(s)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }
    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalizes() {
        assert_eq!(p("2001:db8::1/64"), p("2001:db8::/64"));
        assert_eq!(p("ffff::/0"), Prefix::ALL);
    }

    #[test]
    fn strict_rejects_host_bits() {
        assert!(Prefix::from_str_strict("2001:db8::1/64").is_err());
        assert!(Prefix::from_str_strict("2001:db8::/64").is_ok());
    }

    #[test]
    fn containment() {
        let net = p("2001:db8::/32");
        assert!(net.contains(p("2001:db8:1::/48")));
        assert!(net.contains(net));
        assert!(!net.contains(p("2001:db9::/48")));
        assert!(!p("2001:db8:1::/48").contains(net));
        assert!(net.contains_addr(a("2001:db8::1")));
        assert!(!net.contains_addr(a("2001:db9::1")));
    }

    #[test]
    fn overlap_is_symmetric_containment() {
        let a_ = p("2001:db8::/32");
        let b = p("2001:db8:ff::/48");
        let c = p("2001:db9::/32");
        assert!(a_.overlaps(b) && b.overlaps(a_));
        assert!(!a_.overlaps(c));
    }

    #[test]
    fn span_and_last() {
        assert_eq!(p("2001:db8::/112").span(), Some(65536));
        assert_eq!(p("::/0").span(), None);
        assert_eq!(p("2001:db8::/112").last_addr(), a("2001:db8::ffff"));
        assert_eq!(Prefix::ALL.last_addr(), Addr(u128::MAX));
    }

    #[test]
    fn family_navigation() {
        let x = p("2001:db8::/33");
        assert_eq!(x.parent().unwrap(), p("2001:db8::/32"));
        let (l, r) = p("2001:db8::/32").children().unwrap();
        assert_eq!(l, p("2001:db8::/33"));
        assert_eq!(r, p("2001:db8:8000::/33"));
        assert!(Prefix::ALL.parent().is_none());
        assert!(Prefix::host(a("::1")).children().is_none());
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "2001:db8::",
            "2001:db8::/",
            "2001:db8::/129",
            "2001:db8::/x",
            "/64",
        ] {
            assert!(bad.parse::<Prefix>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn ordering_parent_before_child() {
        let mut v = vec![p("2001:db8::/48"), p("2001:db8::/32"), p("2001:db7::/32")];
        v.sort();
        assert_eq!(
            v,
            vec![p("2001:db7::/32"), p("2001:db8::/32"), p("2001:db8::/48")]
        );
    }

    #[test]
    fn display_roundtrip() {
        for s in ["::/0", "2001:db8::/32", "ff00::/8", "2001:db8::1/128"] {
            assert_eq!(p(s).to_string(), s);
        }
    }
}
