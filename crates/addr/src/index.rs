//! Range-typed positions in the 128-bit address: [`PrefixLen`],
//! [`BitIdx`], [`NybbleIdx`] and [`SegIdx`].
//!
//! Every spatial result of the census is indexed by a position in the
//! address. γ^k_p = n_{p+k}/n_p steps a prefix length, n@/p-dense takes
//! one, the trie branches on single bits and the MRA reads nybbles and
//! 16-bit segments. Each kind of position has its own type here, so its
//! range is established once, where the value is made, and every
//! accessor that takes one is total:
//!
//! | type          | range     | names                              |
//! |---------------|-----------|------------------------------------|
//! | [`PrefixLen`] | `0..=128` | a prefix length `/p`               |
//! | [`BitIdx`]    | `0..128`  | one bit, bit 0 most significant    |
//! | [`NybbleIdx`] | `0..32`   | one hex character                  |
//! | [`SegIdx`]    | `0..8`    | one 16-bit segment                 |
//!
//! Each wraps a `u8`. `new` is the one checked constructor; `lit::<V>()`
//! checks a literal at compile time; `get()` and `From` widen. The only
//! conversions between the kinds are named ones that cannot leave the
//! range ([`PrefixLen::next_bit`], [`BitIdx::through`]), and no
//! arithmetic operator is implemented, so bits and nybbles cannot be
//! mixed:
//!
//! ```compile_fail
//! use v6census_addr::{BitIdx, NybbleIdx};
//! let _ = BitIdx::lit::<4>() + NybbleIdx::lit::<1>();
//! ```
//!
//! A raw integer is not an index:
//!
//! ```compile_fail
//! let _ = v6census_addr::Addr(1).bit(127u8);
//! ```
//!
//! and a literal out of range does not build:
//!
//! ```compile_fail
//! let _ = v6census_addr::PrefixLen::lit::<129>();
//! ```
//!
//! The well-formed versions:
//!
//! ```
//! use v6census_addr::{Addr, BitIdx, PrefixLen};
//! assert_eq!(PrefixLen::lit::<4>().next_bit(), Some(BitIdx::lit::<4>()));
//! assert_eq!(Addr(1).bit(BitIdx::lit::<127>()), 1);
//! assert_eq!(PrefixLen::lit::<128>(), PrefixLen::MAX);
//! assert_eq!(PrefixLen::new(200), None);
//! ```

use std::fmt;
use std::str::FromStr;

use crate::ParseError;

/// Widens a `u8` to `u32` in a `const fn`, where `u32::from` cannot be
/// called.
const fn wide(v: u8) -> u32 {
    u32::from_le_bytes([v, 0, 0, 0])
}

macro_rules! index_type {
    ($(#[$doc:meta])* $name:ident, max = $max:literal, what = $what:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u8);

        impl $name {
            /// The smallest value, 0.
            pub const ZERO: $name = $name(0);
            /// The largest value.
            pub const MAX: $name = $name($max);

            /// The checked constructor: `None` when `v` is out of range.
            #[inline]
            #[must_use]
            pub const fn new(v: u8) -> Option<$name> {
                if v <= $max {
                    Some($name(v))
                } else {
                    None
                }
            }

            /// A literal, range-checked at compile time: `lit::<V>()`
            /// with `V` out of range fails the build.
            #[inline]
            #[must_use]
            pub const fn lit<const V: u8>() -> $name {
                struct InRange<const V: u8>;
                impl<const V: u8> InRange<V> {
                    const VALUE: u8 = {
                        assert!(V <= $max, concat!($what, " literal out of range"));
                        V
                    };
                }
                $name(InRange::<V>::VALUE)
            }

            /// The value as a plain integer.
            #[inline]
            #[must_use]
            pub const fn get(self) -> u8 {
                self.0
            }

            /// Every value, ascending.
            pub fn all() -> impl DoubleEndedIterator<Item = $name> + ExactSizeIterator + Clone {
                (0..=$max).map($name)
            }
        }

        impl From<$name> for u32 {
            fn from(v: $name) -> u32 {
                u32::from(v.0)
            }
        }

        impl From<$name> for usize {
            fn from(v: $name) -> usize {
                usize::from(v.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Display::fmt(&self.0, f)
            }
        }

        /// Prints the bare number, so a derived `Debug` that holds one
        /// reads as it did when the field was a `u8`.
        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::Debug::fmt(&self.0, f)
            }
        }
    };
}

index_type!(
    /// A prefix length in bits, `0..=128`: the `p` of `/p`, γ^k_p and
    /// n@/p-dense.
    PrefixLen,
    max = 128,
    what = "prefix length"
);

index_type!(
    /// A bit position, `0..128`; bit 0 is the most significant.
    BitIdx,
    max = 127,
    what = "bit index"
);

index_type!(
    /// A nybble (hex character) position, `0..32`; nybble 0 is the most
    /// significant.
    NybbleIdx,
    max = 31,
    what = "nybble index"
);

index_type!(
    /// A 16-bit segment position, `0..8`; segment 0 is the most
    /// significant.
    SegIdx,
    max = 7,
    what = "segment index"
);

impl PrefixLen {
    /// The first bit past a `/len` prefix, where a trie branches, or
    /// `None` for `/128`.
    #[inline]
    #[must_use]
    pub const fn next_bit(self) -> Option<BitIdx> {
        BitIdx::new(self.0)
    }

    /// `/len+k`, or `None` past `/128`.
    #[inline]
    #[must_use]
    pub const fn checked_add(self, k: u8) -> Option<PrefixLen> {
        match self.0.checked_add(k) {
            Some(v) => PrefixLen::new(v),
            None => None,
        }
    }

    /// `/len+k`, clipped at `/128`.
    #[inline]
    #[must_use]
    pub const fn saturating_add(self, k: u8) -> PrefixLen {
        match self.checked_add(k) {
            Some(l) => l,
            None => PrefixLen::MAX,
        }
    }

    /// `/len−k`, or `None` below `/0`.
    #[inline]
    #[must_use]
    pub const fn checked_sub(self, k: u8) -> Option<PrefixLen> {
        match self.0.checked_sub(k) {
            Some(v) => Some(PrefixLen(v)),
            None => None,
        }
    }

    /// `/len−k`, clipped at `/0`.
    #[inline]
    #[must_use]
    pub const fn saturating_sub(self, k: u8) -> PrefixLen {
        PrefixLen(self.0.saturating_sub(k))
    }

    /// The number of host bits, `128 − len`: the left shift that turns
    /// an all-ones word into the prefix's network mask.
    #[inline]
    #[must_use]
    pub const fn host_bits(self) -> u32 {
        wide(128u8.saturating_sub(self.0))
    }

    /// The length of the longest common prefix of two words whose XOR
    /// has `zeros` leading zero bits. `u128::leading_zeros` is at most
    /// 128; anything larger is clipped to `/128`.
    #[inline]
    #[must_use]
    pub(crate) const fn from_leading_zeros(zeros: u32) -> PrefixLen {
        if zeros >= 128 {
            PrefixLen::MAX
        } else {
            let [low, ..] = zeros.to_le_bytes();
            PrefixLen(low)
        }
    }
}

impl BitIdx {
    /// The prefix length that ends with this bit, `/i+1`.
    #[inline]
    #[must_use]
    pub const fn through(self) -> PrefixLen {
        // i <= 127, so i + 1 <= 128 never saturates.
        PrefixLen(self.0.saturating_add(1))
    }

    /// `127 − i`: the right shift that brings this bit to bit 0.
    #[inline]
    #[must_use]
    pub const fn lsb_shift(self) -> u32 {
        wide(127u8.saturating_sub(self.0))
    }
}

impl NybbleIdx {
    /// `124 − 4i`: the right shift that brings this nybble to the low
    /// four bits.
    #[inline]
    #[must_use]
    pub const fn lsb_shift(self) -> u32 {
        wide(124u8.saturating_sub(self.0.saturating_mul(4)))
    }
}

impl SegIdx {
    /// `112 − 16i`: the right shift that brings this segment to the low
    /// sixteen bits.
    #[inline]
    #[must_use]
    pub const fn lsb_shift(self) -> u32 {
        wide(112u8.saturating_sub(self.0.saturating_mul(16)))
    }
}

impl FromStr for PrefixLen {
    type Err = ParseError;

    /// Parses a decimal length: [`ParseError::BadPrefixLength`] when it
    /// is not a number, [`ParseError::PrefixLengthRange`] when it is
    /// past 128.
    fn from_str(s: &str) -> Result<PrefixLen, ParseError> {
        let v: u16 = s.parse().map_err(|_| ParseError::BadPrefixLength)?;
        u8::try_from(v)
            .ok()
            .and_then(PrefixLen::new)
            .ok_or(ParseError::PrefixLengthRange(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_exactly_the_range() {
        for v in 0..=u8::MAX {
            assert_eq!(PrefixLen::new(v).is_some(), v <= 128, "{v}");
            assert_eq!(BitIdx::new(v).is_some(), v < 128, "{v}");
            assert_eq!(NybbleIdx::new(v).is_some(), v < 32, "{v}");
            assert_eq!(SegIdx::new(v).is_some(), v < 8, "{v}");
            if let Some(p) = PrefixLen::new(v) {
                assert_eq!(p.get(), v);
            }
        }
        assert_eq!(PrefixLen::all().count(), 129);
        assert_eq!(BitIdx::all().count(), 128);
        assert_eq!(NybbleIdx::all().count(), 32);
        assert_eq!(SegIdx::all().count(), 8);
    }

    #[test]
    fn literals_and_limits() {
        const P: PrefixLen = PrefixLen::lit::<64>();
        assert_eq!(P.get(), 64);
        assert_eq!(PrefixLen::MAX.get(), 128);
        assert_eq!(BitIdx::MAX.get(), 127);
        assert_eq!(NybbleIdx::MAX.get(), 31);
        assert_eq!(SegIdx::MAX.get(), 7);
        assert_eq!(PrefixLen::new(200), None);
    }

    #[test]
    fn conversions_stay_in_range() {
        for p in PrefixLen::all() {
            assert_eq!(
                p.next_bit().map(BitIdx::get),
                BitIdx::new(p.get()).map(BitIdx::get)
            );
            assert_eq!(p.host_bits(), 128 - u32::from(p));
            assert_eq!(p.checked_add(1).is_some(), p < PrefixLen::MAX);
            assert_eq!(p.checked_sub(1).is_some(), p > PrefixLen::ZERO);
        }
        for i in BitIdx::all() {
            assert_eq!(u32::from(i.through()), u32::from(i) + 1);
            assert_eq!(i.lsb_shift(), 127 - u32::from(i));
        }
        for i in NybbleIdx::all() {
            assert_eq!(i.lsb_shift(), 124 - 4 * u32::from(i));
        }
        for i in SegIdx::all() {
            assert_eq!(i.lsb_shift(), 112 - 16 * u32::from(i));
        }
        assert_eq!(PrefixLen::MAX.saturating_add(1), PrefixLen::MAX);
        assert_eq!(PrefixLen::ZERO.saturating_sub(1), PrefixLen::ZERO);
        for z in [0, 1, 64, 127, 128, 129, u32::MAX] {
            assert_eq!(u32::from(PrefixLen::from_leading_zeros(z)), z.min(128));
        }
    }

    #[test]
    fn parses_and_prints_like_the_number() {
        assert_eq!("64".parse::<PrefixLen>(), Ok(PrefixLen::lit::<64>()));
        assert_eq!("128".parse::<PrefixLen>(), Ok(PrefixLen::MAX));
        assert_eq!(
            "200".parse::<PrefixLen>(),
            Err(ParseError::PrefixLengthRange(200))
        );
        assert_eq!("x".parse::<PrefixLen>(), Err(ParseError::BadPrefixLength));
        assert_eq!(format!("/{}", PrefixLen::lit::<48>()), "/48");
        assert_eq!(format!("{:?}", Some(SegIdx::lit::<3>())), "Some(3)");
    }
}
