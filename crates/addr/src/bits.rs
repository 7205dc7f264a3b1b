//! Audited total bit-manipulation helpers for 128-bit address math.
//!
//! The address and trie crates deny `clippy::arithmetic_side_effects`
//! (bare `+ - *` that can overflow), and `tests/lint_rules.rs` refuses
//! shifts by an expression there: `x << n` panics in debug
//! builds — and wraps the shift *amount* in release — once `n` reaches
//! the type's width, and in prefix arithmetic that width is always one
//! off-by-one away (`128 - len` with `len == 0`). These helpers are the
//! sanctioned path: every shift goes through `checked_shl`/`checked_shr`
//! with an explicit out-of-range policy — shifting everything out yields
//! 0, the mathematical answer for a logical shift — so call sites state
//! what they mean and cannot panic. The masks take the range-typed
//! indices of [`crate::index`], so their shift amounts are in range by
//! construction.
//!
//! Everything here is a `const fn` so the `Addr` accessors, which are
//! `const`, can use them. Shift amounts are `u32`, the type the
//! standard shifts take, so nothing is narrowed on the way in.

use crate::index::{BitIdx, PrefixLen};

/// Logical left shift, total: shifting by `n >= 128` yields 0.
#[inline]
#[must_use]
pub const fn shl128(v: u128, n: u32) -> u128 {
    match v.checked_shl(n) {
        Some(x) => x,
        None => 0,
    }
}

/// Logical right shift, total: shifting by `n >= 128` yields 0.
#[inline]
#[must_use]
pub const fn shr128(v: u128, n: u32) -> u128 {
    match v.checked_shr(n) {
        Some(x) => x,
        None => 0,
    }
}

/// Logical right shift on the 64-bit IID half, total: `n >= 64` yields 0.
#[inline]
#[must_use]
pub const fn shr64(v: u64, n: u32) -> u64 {
    match v.checked_shr(n) {
        Some(x) => x,
        None => 0,
    }
}

/// The mask selecting address bit `i`, where bit 0 is the most
/// significant (the paper's bit order).
#[inline]
#[must_use]
pub const fn msb_mask(i: BitIdx) -> u128 {
    shl128(1, i.lsb_shift())
}

/// The mask with the top `len` bits set — the network part of a `/len`
/// prefix: 0 for `/0` and all ones for `/128`.
#[inline]
#[must_use]
pub const fn high_mask(len: PrefixLen) -> u128 {
    // A shift by all 128 host bits (`/0`) is total: it yields 0.
    shl128(u128::MAX, len.host_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifts_are_total_at_and_past_the_width() {
        assert_eq!(shl128(1, 127), 1u128 << 127);
        assert_eq!(shl128(1, 128), 0);
        assert_eq!(shl128(u128::MAX, 1 << 20), 0);
        assert_eq!(shr128(u128::MAX, 127), 1);
        assert_eq!(shr128(u128::MAX, 128), 0);
        assert_eq!(shr64(u64::MAX, 63), 1);
        assert_eq!(shr64(u64::MAX, 64), 0);
    }

    #[test]
    fn masks_match_their_closed_forms() {
        assert_eq!(msb_mask(BitIdx::ZERO), 1u128 << 127);
        assert_eq!(msb_mask(BitIdx::MAX), 1);
        assert_eq!(msb_mask(BitIdx::lit::<64>()), 1u128 << 63);
        assert_eq!(high_mask(PrefixLen::ZERO), 0);
        assert_eq!(high_mask(PrefixLen::lit::<1>()), 1u128 << 127);
        assert_eq!(
            high_mask(PrefixLen::lit::<64>()),
            u128::from(u64::MAX) << 64
        );
        assert_eq!(high_mask(PrefixLen::MAX), u128::MAX);
        for len in PrefixLen::all() {
            let want = match len.get() {
                0 => 0,
                l => u128::MAX << (128 - u32::from(l)),
            };
            assert_eq!(high_mask(len), want, "/{len}");
        }
        for i in BitIdx::all() {
            assert_eq!(msb_mask(i), 1u128 << (127 - u32::from(i)), "bit {i}");
        }
    }

    #[test]
    fn works_in_const_context() {
        const TOP: u128 = high_mask(PrefixLen::lit::<48>());
        assert_eq!(TOP, 0xffff_ffff_ffff_u128 << 80);
    }
}
