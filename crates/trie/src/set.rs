//! [`AddrSet`]: a compact, sorted, deduplicated set of IPv6 addresses.
//!
//! Daily observation sets in the temporal engine hold hundreds of
//! thousands to millions of addresses; a sorted `Vec<u128>` is the most
//! cache-friendly representation for the operations the classifiers
//! perform — membership, intersection size, union, and ordered scans for
//! aggregate counting.
//!
//! A set is immutable once built (no method takes `&mut self`), so the
//! keys live behind an `Arc` and a clone is a pointer copy: a census
//! clone, a published snapshot and the day summary that produced a set
//! all share one allocation. [`AddrSet::shares_storage`] exposes that
//! identity, which is what lets a snapshot reuse per-day results whose
//! inputs did not change.

use std::sync::Arc;
use v6census_addr::bits::high_mask;
use v6census_addr::{Addr, PrefixLen};

/// A sorted, deduplicated, immutable set of IPv6 addresses backed by a
/// shared `Arc<Vec<u128>>`; cloning shares the keys.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AddrSet {
    // `Arc<Vec<_>>`, not `Arc<[_]>`: wrapping a built `Vec` moves it
    // without copying the keys.
    keys: Arc<Vec<u128>>,
}

impl AddrSet {
    /// Creates an empty set.
    pub fn new() -> AddrSet {
        AddrSet::default()
    }

    /// Builds a set from any iterator of addresses (sorts and dedups).
    /// (Also available through the `FromIterator` impl; the inherent
    /// method keeps call sites free of a `use` for the trait.)
    #[expect(
        clippy::should_implement_trait,
        reason = "FromIterator is implemented too; the inherent method needs no trait import"
    )]
    pub fn from_iter<I: IntoIterator<Item = Addr>>(iter: I) -> AddrSet {
        AddrSet::from_keys(iter.into_iter().map(|a| a.0).collect())
    }

    /// Builds a set from keys in any order, sorting and deduplicating
    /// them in place: the set owns `keys`' allocation, no copy is made.
    pub fn from_keys(mut keys: Vec<u128>) -> AddrSet {
        keys.sort_unstable();
        keys.dedup();
        AddrSet {
            keys: Arc::new(keys),
        }
    }

    /// Builds a set from a pre-sorted, pre-deduplicated vector of keys.
    ///
    /// # Panics
    /// Panics (in debug builds) if the input is not strictly increasing.
    pub fn from_sorted(keys: Vec<u128>) -> AddrSet {
        debug_assert!(
            keys.iter().zip(keys.iter().skip(1)).all(|(a, b)| a < b),
            "keys not strictly sorted"
        );
        AddrSet {
            keys: Arc::new(keys),
        }
    }

    /// Number of addresses in the set.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, a: Addr) -> bool {
        self.keys.binary_search(&a.0).is_ok()
    }

    /// Iterates the addresses in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Addr> + '_ {
        self.keys.iter().map(|&k| Addr(k))
    }

    /// The raw sorted keys.
    pub fn keys(&self) -> &[u128] {
        &self.keys
    }

    /// True when `self` and `other` are clones of one set, sharing one
    /// key allocation. Shared storage implies equal contents (a set is
    /// never mutated), so a caller can skip work whose only inputs are
    /// sets it already saw; distinct storage says nothing either way.
    pub fn shares_storage(&self, other: &AddrSet) -> bool {
        Arc::ptr_eq(&self.keys, &other.keys)
    }

    /// Size of the intersection with `other`, by linear merge — O(n+m),
    /// the workhorse of the stability classifier (common addresses
    /// between two observation days).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "merge kernel: i, j and n are bounded by the two set lengths; a rewrite would change its codegen"
    )]
    pub fn intersection_len(&self, other: &AddrSet) -> usize {
        let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
        let (a, b) = (self.keys(), other.keys());
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// The intersection with `other` as a new set.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "merge kernel: i, j and n are bounded by the two set lengths; a rewrite would change its codegen"
    )]
    pub fn intersection(&self, other: &AddrSet) -> AddrSet {
        let mut out = Vec::with_capacity(self.keys.len().min(other.keys.len()));
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (self.keys(), other.keys());
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        AddrSet {
            keys: Arc::new(out),
        }
    }

    /// The union with `other` as a new set.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "merge kernel: i, j and n are bounded by the two set lengths; a rewrite would change its codegen"
    )]
    pub fn union(&self, other: &AddrSet) -> AddrSet {
        let mut out = Vec::with_capacity(self.keys.len() + other.keys.len());
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (self.keys(), other.keys());
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        AddrSet {
            keys: Arc::new(out),
        }
    }

    /// Union of many sets, by k-way repeated pairwise merge (balanced
    /// enough for the ≤ 21-day windows the classifiers use).
    pub fn union_all<'a, I: IntoIterator<Item = &'a AddrSet>>(sets: I) -> AddrSet {
        let mut acc = AddrSet::new();
        for s in sets {
            acc = acc.union(s);
        }
        acc
    }

    /// Maps every address to its containing `/len` block and returns the
    /// set of distinct block network-addresses. `map_prefix` at /64 turns
    /// an address set into its active-/64 set (paper Table 1).
    pub fn map_prefix(&self, len: PrefixLen) -> AddrSet {
        if len == PrefixLen::MAX {
            // Every address is its own /128: the same set, shared.
            return AddrSet {
                keys: Arc::clone(&self.keys),
            };
        }
        let mut out: Vec<u128> = Vec::with_capacity(self.keys.len());
        let mask = high_mask(len);
        let mut last: Option<u128> = None;
        for &k in self.keys.iter() {
            let m = k & mask;
            if last != Some(m) {
                out.push(m);
                last = Some(m);
            }
        }
        AddrSet {
            keys: Arc::new(out),
        }
    }
}

impl FromIterator<Addr> for AddrSet {
    fn from_iter<I: IntoIterator<Item = Addr>>(iter: I) -> AddrSet {
        AddrSet::from_iter(iter)
    }
}

impl<'a> IntoIterator for &'a AddrSet {
    type Item = Addr;
    type IntoIter = std::iter::Map<std::slice::Iter<'a, u128>, fn(&u128) -> Addr>;
    fn into_iter(self) -> Self::IntoIter {
        self.keys.iter().map(|&k| Addr(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(addrs: &[&str]) -> AddrSet {
        AddrSet::from_iter(addrs.iter().map(|s| s.parse::<Addr>().unwrap()))
    }

    #[test]
    fn dedups_and_sorts() {
        let s = set(&["2001:db8::2", "2001:db8::1", "2001:db8::2"]);
        assert_eq!(s.len(), 2);
        let v: Vec<Addr> = s.iter().collect();
        assert_eq!(v[0].to_string(), "2001:db8::1");
        assert_eq!(v[1].to_string(), "2001:db8::2");
    }

    #[test]
    fn membership() {
        let s = set(&["2001:db8::1", "2001:db8::3"]);
        assert!(s.contains("2001:db8::1".parse().unwrap()));
        assert!(!s.contains("2001:db8::2".parse().unwrap()));
    }

    #[test]
    fn intersection_and_union() {
        let a = set(&["2001:db8::1", "2001:db8::2", "2001:db8::3"]);
        let b = set(&["2001:db8::2", "2001:db8::3", "2001:db8::4"]);
        assert_eq!(a.intersection_len(&b), 2);
        assert_eq!(a.intersection(&b).len(), 2);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(AddrSet::union_all([&a, &b].into_iter()).len(), 4);
        assert_eq!(a.intersection_len(&AddrSet::new()), 0);
        assert_eq!(a.union(&AddrSet::new()), a);
    }

    #[test]
    fn map_prefix_collapses_to_64s() {
        let s = set(&["2001:db8:0:1::1", "2001:db8:0:1::2", "2001:db8:0:2::1"]);
        let p64 = s.map_prefix(PrefixLen::lit::<64>());
        assert_eq!(p64.len(), 2);
        assert_eq!(s.map_prefix(PrefixLen::lit::<128>()), s);
        assert_eq!(s.map_prefix(PrefixLen::lit::<0>()).len(), 1);
    }
}
