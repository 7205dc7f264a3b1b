//! The unsigned interval lattice underlying rule R002.
//!
//! Every quantity the dataflow layer tracks — prefix lengths, nybble
//! indices, shift amounts, segment values — is an unsigned machine
//! integer, so the abstract domain is intervals over `u128` (the widest
//! type the workspace manipulates; `u128::MAX` itself must be
//! representable, which rules out a signed carrier). The lattice is the
//! usual one:
//!
//! * bottom is represented *outside* the domain (an infeasible
//!   environment is dead, see [`crate::dataflow`]); every [`Interval`]
//!   value is a non-empty range `lo ..= hi`;
//! * join is the range hull;
//! * widening jumps `lo` down / `hi` up to the nearest of a fixed
//!   threshold set chosen from the constants that actually appear in
//!   bit-domain code (type widths, `128`, `0xff`, …), so loop fixpoints
//!   terminate in a handful of iterations *and* land on the bounds the
//!   obligations compare against.
//!
//! Transfer functions follow the wrapping semantics questions R002 asks:
//! operators that can leave the mathematical range (`+`, `-`, `*`, `<<`)
//! return `None` on possible wrap and the caller degrades to
//! top-of-type; operators that are total on unsigned values (`&`, `|`,
//! `^`, `>>`, `min`, `max`, saturating forms) stay precise. The bitand
//! rule `[0, min(hi_l, hi_r)]` is the workhorse: it proves every
//! `x & 0xf`-style masked extraction without knowing anything about `x`.

/// A primitive unsigned integer type, as the dataflow layer sees it.
///
/// `usize` is modelled as 64-bit — the workspace targets 64-bit hosts
/// (documented in `lint.toml`), and modelling it *narrower* than the
/// real width would be unsound for proofs about values stored into it,
/// while modelling it wider only loses precision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ty {
    /// `u8`
    U8,
    /// `u16`
    U16,
    /// `u32`
    U32,
    /// `u64`
    U64,
    /// `u128`
    U128,
    /// `usize`, modelled as 64 bits (64-bit host assumption).
    Usize,
}

impl Ty {
    /// Parses a type spelling; signed and non-primitive spellings are
    /// not modelled and return `None`.
    pub fn parse(name: &str) -> Option<Ty> {
        match name {
            "u8" => Some(Ty::U8),
            "u16" => Some(Ty::U16),
            "u32" => Some(Ty::U32),
            "u64" => Some(Ty::U64),
            "u128" => Some(Ty::U128),
            "usize" => Some(Ty::Usize),
            _ => None,
        }
    }

    /// The type's bit width (the bound every shift obligation compares
    /// against).
    pub fn bits(self) -> u32 {
        match self {
            Ty::U8 => 8,
            Ty::U16 => 16,
            Ty::U32 => 32,
            Ty::U64 | Ty::Usize => 64,
            Ty::U128 => 128,
        }
    }

    /// The type's maximum value.
    pub fn max(self) -> u128 {
        all_ones(self.bits())
    }

    /// The type's name as written in source.
    pub fn name(self) -> &'static str {
        match self {
            Ty::U8 => "u8",
            Ty::U16 => "u16",
            Ty::U32 => "u32",
            Ty::U64 => "u64",
            Ty::U128 => "u128",
            Ty::Usize => "usize",
        }
    }
}

/// A value with the low `n` bits set (`n` is clamped to 128).
pub fn all_ones(n: u32) -> u128 {
    if n >= 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    }
}

/// A non-empty unsigned range `lo ..= hi`. Invariant: `lo <= hi`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: u128,
    /// Inclusive upper bound.
    pub hi: u128,
}

/// The unbounded interval — what an unknown `u128` can hold.
pub const TOP: Interval = Interval {
    lo: 0,
    hi: u128::MAX,
};

/// Widening thresholds: the bounds that matter to bit-domain proofs
/// (type widths and maxima, the 128-bit address constants, and the small
/// loop bounds the workspace iterates to). Sorted ascending.
const THRESHOLDS: &[u128] = &[
    0,
    1,
    2,
    3,
    4,
    7,
    8,
    15,
    16,
    31,
    32,
    63,
    64,
    100,
    127,
    128,
    255,
    256,
    1023,
    1024,
    65_535,
    65_536,
    u32::MAX as u128,
    1 << 32,
    u64::MAX as u128,
    // 2^64, the first value outside u64.
    1 << 64,
    u128::MAX,
];

impl Interval {
    /// The singleton interval `[v, v]`.
    pub fn exact(v: u128) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]`, normalising a reversed pair to the singleton hull
    /// (callers never intend bottom; an infeasible range is handled at
    /// the environment level).
    pub fn new(lo: u128, hi: u128) -> Interval {
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// The full range of a machine type.
    pub fn top_of(ty: Ty) -> Interval {
        Interval {
            lo: 0,
            hi: ty.max(),
        }
    }

    /// True when every value of `self` is also in `other`.
    pub fn within(&self, other: &Interval) -> bool {
        other.lo <= self.lo && self.hi <= other.hi
    }

    /// True when the interval is a single value.
    pub fn is_exact(&self) -> bool {
        self.lo == self.hi
    }

    /// Least upper bound: the range hull.
    pub fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Widening: where `next` escapes `self`, jump the escaping bound to
    /// the nearest enclosing threshold instead of creeping one loop
    /// iteration at a time. Guarantees termination of loop fixpoints in
    /// at most `THRESHOLDS.len()` steps per bound.
    pub fn widen(&self, next: &Interval) -> Interval {
        let lo = if next.lo < self.lo {
            THRESHOLDS
                .iter()
                .rev()
                .copied()
                .find(|t| *t <= next.lo)
                .unwrap_or(0)
        } else {
            self.lo
        };
        let hi = if next.hi > self.hi {
            THRESHOLDS
                .iter()
                .copied()
                .find(|t| *t >= next.hi)
                .unwrap_or(u128::MAX)
        } else {
            self.hi
        };
        Interval { lo, hi }
    }

    /// Clamp to a machine type: if the interval fits, keep it; if any
    /// part is out of range the value may have wrapped, so degrade to
    /// the type's full range (sound for wrapping casts and stores).
    pub fn clamp_to(&self, ty: Ty) -> Interval {
        if self.hi <= ty.max() {
            *self
        } else {
            Interval::top_of(ty)
        }
    }

    // --- transfer functions ------------------------------------------

    /// `+`: `None` when the sum can wrap.
    pub fn add(&self, rhs: &Interval) -> Option<Interval> {
        Some(Interval {
            lo: self.lo.checked_add(rhs.lo)?,
            hi: self.hi.checked_add(rhs.hi)?,
        })
    }

    /// `-`: `None` when the difference can wrap (any rhs value can
    /// exceed any lhs value).
    pub fn sub(&self, rhs: &Interval) -> Option<Interval> {
        if rhs.hi > self.lo {
            return None;
        }
        Some(Interval {
            lo: self.lo - rhs.hi,
            hi: self.hi - rhs.lo,
        })
    }

    /// `*`: `None` when the product can wrap.
    pub fn mul(&self, rhs: &Interval) -> Option<Interval> {
        Some(Interval {
            lo: self.lo.checked_mul(rhs.lo)?,
            hi: self.hi.checked_mul(rhs.hi)?,
        })
    }

    /// `/`: total once the divisor's reachable range is clamped away
    /// from zero (a zero divisor is a panic, which is R001/L006
    /// territory, not a range question — assuming it away only ever
    /// *widens* the result here because a larger divisor shrinks the
    /// quotient).
    pub fn div(&self, rhs: &Interval) -> Interval {
        let d_lo = rhs.lo.max(1);
        let d_hi = rhs.hi.max(1);
        Interval {
            lo: self.lo / d_hi,
            hi: self.hi / d_lo,
        }
    }

    /// `%`: result is always `< rhs.hi` and never exceeds the lhs.
    pub fn rem(&self, rhs: &Interval) -> Interval {
        let bound = rhs.hi.saturating_sub(1).min(self.hi);
        Interval { lo: 0, hi: bound }
    }

    /// `&`: bounded by the smaller operand — the mask rule that proves
    /// `x & 0xf`-style extractions with no knowledge of `x`.
    pub fn bitand(&self, rhs: &Interval) -> Interval {
        Interval {
            lo: 0,
            hi: self.hi.min(rhs.hi),
        }
    }

    /// `|`: at least the larger lower bound, at most all bits of the
    /// wider operand.
    pub fn bitor(&self, rhs: &Interval) -> Interval {
        Interval {
            lo: self.lo.max(rhs.lo),
            hi: all_ones(128 - self.hi.max(rhs.hi).leading_zeros()),
        }
    }

    /// `^`: at most all bits of the wider operand.
    pub fn bitxor(&self, rhs: &Interval) -> Interval {
        Interval {
            lo: 0,
            hi: all_ones(128 - self.hi.max(rhs.hi).leading_zeros()),
        }
    }

    /// `<<` on a value of carrier width 128: `None` when the amount can
    /// reach 128 (UB-in-the-abstract: the concrete panic/wrap question
    /// is the obligation, this is just the range) or when set bits can
    /// be shifted out.
    pub fn shl(&self, rhs: &Interval) -> Option<Interval> {
        if rhs.hi >= 128 {
            return None;
        }
        let lo = self.lo.checked_shl(rhs.lo as u32)?;
        let hi = self.hi.checked_shl(rhs.hi as u32)?;
        if hi >> (rhs.hi as u32) != self.hi {
            return None;
        }
        Some(Interval { lo, hi })
    }

    /// `>>`: total — amounts at or beyond the width yield 0.
    pub fn shr(&self, rhs: &Interval) -> Interval {
        let shr = |v: u128, n: u128| -> u128 {
            if n >= 128 {
                0
            } else {
                v >> (n as u32)
            }
        };
        Interval {
            lo: shr(self.lo, rhs.hi),
            hi: shr(self.hi, rhs.lo),
        }
    }

    /// `min` as an interval operation.
    pub fn min_iv(&self, rhs: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(rhs.lo),
            hi: self.hi.min(rhs.hi),
        }
    }

    /// `max` as an interval operation.
    pub fn max_iv(&self, rhs: &Interval) -> Interval {
        Interval {
            lo: self.lo.max(rhs.lo),
            hi: self.hi.max(rhs.hi),
        }
    }

    /// `saturating_sub`.
    pub fn saturating_sub(&self, rhs: &Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_sub(rhs.hi),
            hi: self.hi.saturating_sub(rhs.lo),
        }
    }

    /// `saturating_add` within type `ty`.
    pub fn saturating_add(&self, rhs: &Interval, ty: Ty) -> Interval {
        Interval {
            lo: self.lo.saturating_add(rhs.lo).min(ty.max()),
            hi: self.hi.saturating_add(rhs.hi).min(ty.max()),
        }
    }

    // --- refinement under comparisons --------------------------------
    //
    // Each returns the refinement of `self` assuming the comparison
    // holds; `None` means the assumption is infeasible (the branch is
    // dead and the caller kills the environment).

    /// Assume `self < bound`.
    pub fn refine_lt(&self, bound: &Interval) -> Option<Interval> {
        let cap = bound.hi.checked_sub(1)?;
        if self.lo > cap {
            return None;
        }
        Some(Interval {
            lo: self.lo,
            hi: self.hi.min(cap),
        })
    }

    /// Assume `self <= bound`.
    pub fn refine_le(&self, bound: &Interval) -> Option<Interval> {
        if self.lo > bound.hi {
            return None;
        }
        Some(Interval {
            lo: self.lo,
            hi: self.hi.min(bound.hi),
        })
    }

    /// Assume `self > bound`.
    pub fn refine_gt(&self, bound: &Interval) -> Option<Interval> {
        let floor = bound.lo.checked_add(1)?;
        if self.hi < floor {
            return None;
        }
        Some(Interval {
            lo: self.lo.max(floor),
            hi: self.hi,
        })
    }

    /// Assume `self >= bound`.
    pub fn refine_ge(&self, bound: &Interval) -> Option<Interval> {
        if self.hi < bound.lo {
            return None;
        }
        Some(Interval {
            lo: self.lo.max(bound.lo),
            hi: self.hi,
        })
    }

    /// Assume `self == bound`: intersect.
    pub fn refine_eq(&self, bound: &Interval) -> Option<Interval> {
        let lo = self.lo.max(bound.lo);
        let hi = self.hi.min(bound.hi);
        if lo > hi {
            return None;
        }
        Some(Interval { lo, hi })
    }

    /// Assume `self != bound`: only refutable when `bound` is exact and
    /// sits on an edge of `self`.
    pub fn refine_ne(&self, bound: &Interval) -> Option<Interval> {
        if bound.is_exact() {
            if self.is_exact() && self.lo == bound.lo {
                return None;
            }
            if self.lo == bound.lo {
                return Some(Interval {
                    lo: self.lo + 1,
                    hi: self.hi,
                });
            }
            if self.hi == bound.lo {
                return Some(Interval {
                    lo: self.lo,
                    hi: self.hi - 1,
                });
            }
        }
        Some(*self)
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_exact() {
            write!(f, "[{}]", self.lo)
        } else if self.hi == u128::MAX {
            write!(f, "[{},max]", self.lo)
        } else {
            write!(f, "[{},{}]", self.lo, self.hi)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_the_hull() {
        let a = Interval::new(2, 5);
        let b = Interval::new(10, 12);
        assert_eq!(a.join(&b), Interval::new(2, 12));
        assert_eq!(b.join(&a), Interval::new(2, 12));
        assert_eq!(a.join(&a), a);
    }

    #[test]
    fn widening_terminates_on_a_climbing_bound() {
        // Simulate `i += 1` from [0,0]: widening must reach a fixpoint
        // in at most one step per threshold, not one per loop iteration.
        let mut head = Interval::exact(0);
        let mut steps = 0;
        loop {
            let next = head
                .add(&Interval::exact(1))
                .unwrap_or(TOP)
                .join(&Interval::exact(0));
            let widened = head.widen(&next);
            if widened == head {
                break;
            }
            head = widened;
            steps += 1;
            assert!(steps <= 32, "widening failed to terminate");
        }
        // The fixpoint covers everything the loop can produce.
        assert_eq!(head.lo, 0);
        assert!(head.hi >= 1);
    }

    #[test]
    fn widening_lands_on_bit_domain_thresholds() {
        // [0,3] escaping to [0,5] should widen to the next threshold
        // (7), not to infinity.
        let w = Interval::new(0, 3).widen(&Interval::new(0, 5));
        assert_eq!(w, Interval::new(0, 7));
        // Escaping past 128 lands on 255 — the u8 proof bound.
        let w = Interval::new(0, 128).widen(&Interval::new(0, 130));
        assert_eq!(w, Interval::new(0, 255));
    }

    #[test]
    fn mask_rule_bounds_by_the_smaller_operand() {
        assert_eq!(TOP.bitand(&Interval::exact(0xf)), Interval::new(0, 0xf));
        assert_eq!(Interval::new(100, 200).bitand(&TOP), Interval::new(0, 200));
    }

    #[test]
    fn shifts_respect_width() {
        // >> is total: huge amounts go to zero.
        assert_eq!(TOP.shr(&Interval::exact(128)), Interval::exact(0));
        assert_eq!(
            Interval::exact(0xff00).shr(&Interval::exact(8)),
            Interval::exact(0xff)
        );
        // << refuses amounts that can reach the width.
        assert!(Interval::exact(1).shl(&Interval::new(0, 128)).is_none());
        assert_eq!(
            Interval::exact(1).shl(&Interval::new(0, 127)),
            Some(Interval::new(1, 1 << 127))
        );
    }

    #[test]
    fn sub_is_none_when_it_can_wrap() {
        assert!(Interval::new(0, 10).sub(&Interval::new(1, 1)).is_none());
        assert_eq!(
            Interval::new(5, 10).sub(&Interval::new(1, 2)),
            Some(Interval::new(3, 9))
        );
    }

    #[test]
    fn refinement_narrows_and_detects_dead_branches() {
        let x = Interval::new(0, 200);
        assert_eq!(
            x.refine_le(&Interval::exact(128)),
            Some(Interval::new(0, 128))
        );
        assert_eq!(
            x.refine_gt(&Interval::exact(128)),
            Some(Interval::new(129, 200))
        );
        // x in [0,10] can never be > 20: dead branch.
        assert!(Interval::new(0, 10)
            .refine_gt(&Interval::exact(20))
            .is_none());
        // != on an exact edge trims it.
        assert_eq!(
            Interval::new(0, 10).refine_ne(&Interval::exact(0)),
            Some(Interval::new(1, 10))
        );
        assert!(Interval::exact(5).refine_ne(&Interval::exact(5)).is_none());
    }

    #[test]
    fn clamp_degrades_to_type_top_on_possible_wrap() {
        assert_eq!(
            Interval::new(0, 300).clamp_to(Ty::U8),
            Interval::new(0, 255)
        );
        assert_eq!(
            Interval::new(0, 300).clamp_to(Ty::U16),
            Interval::new(0, 300)
        );
    }
}
