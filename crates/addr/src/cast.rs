//! Total low-bits extractors for bit and nybble math.
//!
//! Lint rule `L003` bans raw `as u8/u16/u32/usize` in the address and
//! trie crates: a raw `as` truncates silently, and in 128-bit address
//! arithmetic a silent truncation is a wrong answer, not a crash. Each
//! narrowing has one of three spellings instead:
//!
//! * a value that was masked or shifted into the low bits is taken with
//!   [`low8`], [`low16`] or [`low32`]. Keeping only the low bits is
//!   their contract, stated in the name, so there is nothing to prove at
//!   the call site: `low16(v >> 112)` is segment 0 whatever `v` holds;
//! * a bit, nybble or segment position or a prefix length is one of the
//!   range-typed indices in [`crate::index`], widened with `get()` or
//!   `From`;
//! * anything else narrows with `TryFrom` and handles the error.
//!
//! The extractors are `const fn` taking `u128`, the widest type in the
//! workspace, so the `const` address accessors can use them; widen the
//! argument with `u128::from` or a lossless `as u128`. They are written
//! over the little-endian bytes, without `as`.

/// The low 8 bits of `v`.
#[inline]
#[must_use]
pub const fn low8(v: u128) -> u8 {
    let [b0, ..] = v.to_le_bytes();
    b0
}

/// The low 16 bits of `v`: a segment once `v` is shifted into place.
#[inline]
#[must_use]
pub const fn low16(v: u128) -> u16 {
    let [b0, b1, ..] = v.to_le_bytes();
    u16::from_le_bytes([b0, b1])
}

/// The low 32 bits of `v`: an embedded IPv4 address once `v` is
/// shifted into place.
#[inline]
#[must_use]
pub const fn low32(v: u128) -> u32 {
    let [b0, b1, b2, b3, ..] = v.to_le_bytes();
    u32::from_le_bytes([b0, b1, b2, b3])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_values_pass_through() {
        let v = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        assert_eq!(low8(v), 0x10);
        assert_eq!(low16(v), 0x3210);
        assert_eq!(low32(v), 0x7654_3210);
        assert_eq!(low16(v >> 112), 0x0123);
        for v in [0u128, 1, 0xff, 0x100, 0xffff, 0x1_0000, u128::MAX] {
            assert_eq!(u128::from(low8(v)), v & 0xff);
            assert_eq!(u128::from(low16(v)), v & 0xffff);
            assert_eq!(u128::from(low32(v)), v & 0xffff_ffff);
        }
    }

    #[test]
    fn works_in_const_context() {
        const SEG: u16 = low16(0x2001);
        assert_eq!(SEG, 0x2001);
    }
}
