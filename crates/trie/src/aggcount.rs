//! Active aggregate counts, aggregate populations, and fixed-length dense
//! prefixes, computed by sorted scans.
//!
//! Kohler et al. define the *active aggregate count* `n_p`: the number of
//! /p prefixes needed to cover a set of addresses. The paper's footnote 3
//! observes that for one prefix length this is just
//! `sort | cut -c1-$((p/4)) | uniq -c`; this module generalizes the trick:
//! from one sorted pass over a set, the common-prefix lengths of adjacent
//! addresses give `n_p` for **all 129 prefix lengths simultaneously**,
//! because `n_p = 1 + |{ adjacent pairs with common prefix < p bits }|`.

use crate::{AddrSet, DensePrefix};
use v6census_addr::bits::high_mask;
use v6census_addr::{Addr, Prefix, PrefixLen};

/// Active aggregate counts `n_p` for every prefix length p in 0..=128.
///
/// `n_0 = 1` and `n_128 = N` by definition (paper §5.2.1); the counts are
/// non-decreasing in p, and each step at most doubles — exactly the
/// properties the MRA ratios are built on (property-tested in
/// `v6census-core`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggregateCounts {
    counts: [u64; 129],
    total: u64,
}

impl AggregateCounts {
    /// Computes all `n_p` from a sorted address set in one pass.
    pub fn of(set: &AddrSet) -> AggregateCounts {
        let keys = set.keys();
        let mut counts = [0u64; 129];
        if keys.is_empty() {
            return AggregateCounts { counts, total: 0 };
        }
        // hist[c] = number of adjacent pairs whose common prefix is exactly
        // c bits (c in 0..=127; equal keys can't occur in a set).
        let mut hist = [0u64; 128];
        for (&a, &b) in keys.iter().zip(keys.iter().skip(1)) {
            hist[usize::from(Addr(a).common_prefix_len(Addr(b)))] += 1;
        }
        // n_p = 1 + sum of hist[c] for c < p.
        let mut acc = 1u64;
        for (p, c) in counts.iter_mut().enumerate() {
            if let Some(prev) = p.checked_sub(1) {
                acc = acc.saturating_add(hist[prev]);
            }
            *c = acc;
        }
        AggregateCounts {
            counts,
            total: keys.len() as u64,
        }
    }

    /// `n_p`: the number of /p prefixes covering the set.
    pub fn n(&self, p: PrefixLen) -> u64 {
        self.counts[usize::from(p)]
    }

    /// The number of addresses in the underlying set (= `n_128`).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The MRA count ratio γ^k_p = n_{p+k} / n_p (paper §5.2.1). Returns
    /// 1.0 for an empty set. A segment that runs past /128 ends there.
    pub fn ratio(&self, p: PrefixLen, k: u8) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.n(p.saturating_add(k)) as f64 / self.n(p) as f64
    }

    /// All γ^k_p for p = 0, k, 2k, … — one curve of an MRA plot. The
    /// product of the returned ratios equals the set size (the identity
    /// noted in §5.2.1).
    ///
    /// # Panics
    /// Panics if `k` is 0 or does not divide 128.
    pub fn ratio_curve(&self, k: u8) -> Vec<(PrefixLen, f64)> {
        assert!(k > 0 && 128 % k == 0, "k must divide 128");
        PrefixLen::all()
            .step_by(usize::from(k))
            .take_while(|&p| p < PrefixLen::MAX)
            .map(|p| (p, self.ratio(p, k)))
            .collect()
    }
}

/// The observed population (address count) of every *active* /p aggregate,
/// in ascending block order — Kohler's aggregate population metric
/// (paper §5.2.2, Figure 3).
pub fn populations(set: &AddrSet, p: PrefixLen) -> Vec<u64> {
    let keys = set.keys();
    // One output entry per distinct /p block — never more than keys.
    let mut out = Vec::with_capacity(keys.len());
    let Some(&first) = keys.first() else {
        return out;
    };
    let mask = high_mask(p);
    let mut cur = first & mask;
    let mut run = 0u64;
    for &k in keys {
        let m = k & mask;
        if m == cur {
            run = run.saturating_add(1);
        } else {
            out.push(run);
            cur = m;
            run = 1;
        }
    }
    out.push(run);
    out
}

/// The `n@/p-dense` class at a *fixed* prefix length (paper §5.2.2
/// definition): every /p block containing at least `n` observed addresses,
/// with its observed count. This is the sort-based fast path of
/// footnote 3; a [`crate::RadixTree`] of /p-truncated inserts holds the
/// same counts (property-tested).
pub fn dense_prefixes(set: &AddrSet, n: u64, p: PrefixLen) -> Vec<DensePrefix> {
    assert!(n >= 1, "density numerator must be at least 1");
    let keys = set.keys();
    // One output entry per distinct /p block — never more than keys.
    let mut out = Vec::with_capacity(keys.len());
    let Some(&first) = keys.first() else {
        return out;
    };
    let mask = high_mask(p);
    let mut cur = first & mask;
    let mut run = 0u64;
    let flush = |block: u128, run: u64, out: &mut Vec<DensePrefix>| {
        if run >= n {
            out.push(DensePrefix {
                prefix: Prefix::new(Addr(block), p),
                count: run,
            });
        }
    };
    for &k in keys {
        let m = k & mask;
        if m == cur {
            run = run.saturating_add(1);
        } else {
            flush(cur, run, &mut out);
            cur = m;
            run = 1;
        }
    }
    flush(cur, run, &mut out);
    out
}

/// [`dense_prefixes`] for callers that hold a raw `u8`; the end-to-end
/// benchmark calls it with literals. Typed code calls [`dense_prefixes`].
///
/// # Panics
/// Panics if `p > 128` or `n == 0`.
pub fn dense_prefixes_at(set: &AddrSet, n: u64, p: u8) -> Vec<DensePrefix> {
    assert!(p <= 128, "prefix length out of range");
    PrefixLen::new(p).map_or_else(Vec::new, |p| dense_prefixes(set, n, p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_addr::Addr;

    fn set(addrs: &[&str]) -> AddrSet {
        AddrSet::from_iter(addrs.iter().map(|s| s.parse::<Addr>().unwrap()))
    }

    #[test]
    fn aggregate_counts_basics() {
        let s = set(&["2001:db8::1", "2001:db8::4", "2400::1"]);
        let agg = AggregateCounts::of(&s);
        assert_eq!(agg.n(PrefixLen::lit::<0>()), 1);
        assert_eq!(agg.n(PrefixLen::lit::<128>()), 3);
        // 2001::/3 vs 2400::/3: diverge inside the first 16 bits
        // (0x2001 vs 0x2400 -> common prefix 5 bits).
        assert_eq!(agg.n(PrefixLen::lit::<5>()), 1);
        assert_eq!(agg.n(PrefixLen::lit::<6>()), 2);
        // ::1 and ::4 diverge at bit 125.
        assert_eq!(agg.n(PrefixLen::lit::<125>()), 2);
        assert_eq!(agg.n(PrefixLen::lit::<126>()), 3);
        assert_eq!(agg.total(), 3);
    }

    #[test]
    fn empty_set() {
        let agg = AggregateCounts::of(&AddrSet::new());
        assert_eq!(agg.n(PrefixLen::lit::<64>()), 0);
        assert_eq!(agg.ratio(PrefixLen::lit::<0>(), 16), 1.0);
    }

    #[test]
    fn ratio_identity_product_equals_n() {
        let s = set(&[
            "2001:db8::1",
            "2001:db8::4",
            "2001:db8:1::9",
            "2400::1",
            "2607:f8b0::5",
        ]);
        let agg = AggregateCounts::of(&s);
        for k in [1u8, 4, 8, 16] {
            let product: f64 = agg.ratio_curve(k).iter().map(|&(_, r)| r).product();
            assert!(
                (product - s.len() as f64).abs() < 1e-6,
                "k={k}: product {product} != {}",
                s.len()
            );
        }
    }

    #[test]
    fn ratios_bounded() {
        let s = set(&["2001:db8::1", "2001:db8::2", "2001:db8::3"]);
        let agg = AggregateCounts::of(&s);
        for p in PrefixLen::all().take(128) {
            let r = agg.ratio(p, 1);
            assert!((1.0..=2.0).contains(&r), "γ at {p} = {r}");
        }
    }

    #[test]
    fn populations_run_lengths() {
        let s = set(&["2001:db8::1", "2001:db8::2", "2001:db8:0:1::1", "2400::1"]);
        let mut pops = populations(&s, PrefixLen::lit::<64>());
        pops.sort_unstable();
        assert_eq!(pops, vec![1, 1, 2]);
        assert_eq!(populations(&s, PrefixLen::lit::<0>()), vec![4]);
        assert_eq!(populations(&s, PrefixLen::lit::<128>()), vec![1, 1, 1, 1]);
        assert!(populations(&AddrSet::new(), PrefixLen::lit::<64>()).is_empty());
    }

    #[test]
    fn dense_prefixes_fixed_length() {
        let s = set(&["2001:db8::1", "2001:db8::4", "2400::1"]);
        let d = dense_prefixes_at(&s, 2, 112);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].prefix.to_string(), "2001:db8::/112");
        assert_eq!(d[0].count, 2);
        assert!(dense_prefixes_at(&s, 2, 126).is_empty());
        assert_eq!(dense_prefixes_at(&s, 1, 112).len(), 2);
    }

    #[test]
    fn dense_matches_trie_at_fixed_length() {
        use crate::RadixTree;
        // Cross-check the sort path against the paper's trie algorithm
        // with /p-truncated inserts (§5.2.3 step 1 fixed-length variant).
        let s = set(&[
            "2001:db8::1",
            "2001:db8::4",
            "2001:db8::ffff",
            "2001:db8:0:1::1",
            "2400::1",
            "2400::2",
        ]);
        for p in [112u8, 64, 48] {
            let want = dense_prefixes_at(&s, 2, p);
            let mut t = RadixTree::new();
            for a in s.iter() {
                t.insert(v6census_addr::Prefix::of(a, p), 1);
            }
            let got: Vec<DensePrefix> = t
                .entries()
                .into_iter()
                .filter(|&(_, c)| c >= 2)
                .map(|(prefix, count)| DensePrefix { prefix, count })
                .collect();
            assert_eq!(want, got, "mismatch at /{p}");
        }
    }
}
