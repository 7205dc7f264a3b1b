//! Property-based tests for the trie substrate: the Patricia trie, the
//! sort-based fast paths, and their equivalence (a DESIGN.md ablation).
//!
//! Cases are driven by a deterministic splitmix64 stream (no external
//! property-testing crate), so the workspace builds offline. Failure
//! messages carry the case index, which reproduces the input.

use std::collections::{BTreeMap, BTreeSet};
use v6census_addr::{Addr, Prefix, PrefixLen};
use v6census_trie::{
    dense_prefixes, populations, AddrSet, AggregateCounts, DensePrefix, PrefixMap, RadixTree,
};

const CASES: u64 = 120;

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

    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n >= 1);
        ((self.u64() as u128 * n as u128) >> 64) as u64
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// Clustered address generator: realistic populations share prefixes,
    /// so bias toward a handful of /64-ish bases with small offsets.
    fn clustered_addrs(&mut self) -> Vec<Addr> {
        const BASES: [u64; 4] = [
            0x2001_0db8_0000_0000,
            0x2001_0db8_0000_0001,
            0x2400_4000_0012_0000,
            0x2600_1400_0abc_0000,
        ];
        let n = self.below(200) as usize;
        (0..n)
            .map(|_| {
                let hi = BASES[self.below(4) as usize];
                let lo = self.below(0x2_0000);
                Addr(((hi as u128) << 64) | lo as u128)
            })
            .collect()
    }
}

#[test]
fn addrset_matches_btreeset() {
    let mut g = Gen::new(41);
    for case in 0..CASES {
        let addrs = g.clustered_addrs();
        let probe_lo = g.u64();
        let set = AddrSet::from_iter(addrs.iter().copied());
        let reference: BTreeSet<u128> = addrs.iter().map(|a| a.0).collect();
        assert_eq!(set.len(), reference.len(), "case {case}");
        let collected: Vec<u128> = set.iter().map(|a| a.0).collect();
        let expected: Vec<u128> = reference.iter().copied().collect();
        assert_eq!(collected, expected, "case {case}");
        let p = Addr((0x2001_0db8u128 << 96) | probe_lo as u128);
        assert_eq!(set.contains(p), reference.contains(&p.0), "case {case}");
    }
}

#[test]
fn set_algebra() {
    let mut g = Gen::new(42);
    for case in 0..CASES {
        let xs = g.clustered_addrs();
        let ys = g.clustered_addrs();
        let a = AddrSet::from_iter(xs.iter().copied());
        let b = AddrSet::from_iter(ys.iter().copied());
        let ra: BTreeSet<u128> = xs.iter().map(|v| v.0).collect();
        let rb: BTreeSet<u128> = ys.iter().map(|v| v.0).collect();
        assert_eq!(
            a.intersection_len(&b),
            ra.intersection(&rb).count(),
            "case {case}"
        );
        assert_eq!(a.union(&b).len(), ra.union(&rb).count(), "case {case}");
        assert_eq!(
            a.intersection(&b).len(),
            ra.intersection(&rb).count(),
            "case {case}"
        );
        assert_eq!(
            a.union(&b).len() + a.intersection_len(&b),
            a.len() + b.len(),
            "case {case}: |A∪B| + |A∩B| = |A| + |B|"
        );
    }
}

#[test]
fn map_prefix_matches_mask() {
    let mut g = Gen::new(43);
    for case in 0..CASES {
        let addrs = g.clustered_addrs();
        let len = plen(g.below(129));
        let set = AddrSet::from_iter(addrs.iter().copied());
        let mapped = set.map_prefix(len);
        let reference: BTreeSet<u128> = addrs.iter().map(|a| a.mask(len).0).collect();
        assert_eq!(mapped.len(), reference.len(), "case {case} len {len}");
        for a in mapped.iter() {
            assert!(reference.contains(&a.0), "case {case}: {a}");
        }
    }
}

#[test]
fn aggregate_count_laws() {
    let mut g = Gen::new(44);
    for case in 0..CASES {
        let set = AddrSet::from_iter(g.clustered_addrs());
        if set.is_empty() {
            continue;
        }
        let agg = AggregateCounts::of(&set);
        assert_eq!(agg.n(PrefixLen::ZERO), 1, "case {case}");
        assert_eq!(agg.n(PrefixLen::MAX), set.len() as u64, "case {case}");
        for p in PrefixLen::all().take(128) {
            let next = p.saturating_add(1);
            assert!(agg.n(p) <= agg.n(next), "case {case} p {p}");
            assert!(agg.n(next) <= 2 * agg.n(p), "case {case} p {p}");
        }
    }
}

#[test]
fn aggregate_counts_match_uniq() {
    let mut g = Gen::new(45);
    for case in 0..CASES {
        let set = AddrSet::from_iter(g.clustered_addrs());
        let p = plen(g.below(129));
        if set.is_empty() {
            continue;
        }
        let agg = AggregateCounts::of(&set);
        let distinct: BTreeSet<u128> = set.iter().map(|a| a.mask(p).0).collect();
        assert_eq!(agg.n(p), distinct.len() as u64, "case {case} p {p}");
    }
}

#[test]
fn populations_match_counting() {
    let mut g = Gen::new(46);
    for case in 0..CASES {
        let set = AddrSet::from_iter(g.clustered_addrs());
        let p = plen(g.below(129));
        let pops = populations(&set, p);
        assert_eq!(pops.iter().sum::<u64>() as usize, set.len(), "case {case}");
        let mut reference: BTreeMap<u128, u64> = BTreeMap::new();
        for a in set.iter() {
            *reference.entry(a.mask(p).0).or_default() += 1;
        }
        let mut expected: Vec<u64> = reference.values().copied().collect();
        let mut got = pops.clone();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, expected, "case {case} p {p}");
    }
}

#[test]
fn dense_sort_equals_trie() {
    let mut g = Gen::new(47);
    for case in 0..CASES {
        let set = AddrSet::from_iter(g.clustered_addrs());
        let n = g.range(1, 6);
        let p = plen(g.range(32, 129));
        let sorted_path = dense_prefixes(&set, n, p);
        let mut tree = RadixTree::new();
        for a in set.iter() {
            tree.insert(Prefix::new(a, p), 1);
        }
        let trie_path: Vec<DensePrefix> = tree
            .entries()
            .into_iter()
            .filter(|&(_, c)| c >= n)
            .map(|(prefix, count)| DensePrefix { prefix, count })
            .collect();
        assert_eq!(sorted_path, trie_path, "case {case} n {n} p {p}");
    }
}

#[test]
fn densify_laws() {
    let mut g = Gen::new(48);
    for case in 0..CASES {
        let set = AddrSet::from_iter(g.clustered_addrs());
        let n = g.range(1, 5);
        let p = plen(g.range(96, 125));
        let mut tree = RadixTree::new();
        for a in set.iter() {
            tree.insert_addr(a, 1);
        }
        let dense = tree.densify(n, p);
        for (i, d) in dense.iter().enumerate() {
            assert!(d.count >= n, "case {case}: count filter");
            assert!(d.prefix.len() < PrefixLen::MAX, "case {case}");
            if d.prefix.len() <= p {
                let needed = n << (p.get() - d.prefix.len().get()).min(63);
                assert!(d.count >= needed, "case {case}: {d:?} under-dense");
            }
            for other in &dense[i + 1..] {
                assert!(!d.prefix.overlaps(other.prefix), "case {case}: overlap");
            }
        }
        for fixed in dense_prefixes(&set, n, p) {
            assert!(
                dense.iter().any(|d| d.prefix.contains(fixed.prefix)),
                "case {case}: missing {fixed:?}"
            );
        }
    }
}

#[test]
fn subtree_sum_matches_filter() {
    let mut g = Gen::new(49);
    for case in 0..CASES {
        let set = AddrSet::from_iter(g.clustered_addrs());
        let len = plen(g.below(129));
        let pick = g.u64();
        if set.is_empty() {
            continue;
        }
        let mut tree = RadixTree::new();
        for a in set.iter() {
            tree.insert_addr(a, 1);
        }
        assert_eq!(tree.total(), set.len() as u64, "case {case}");
        let keys = set.keys();
        let member = Addr(keys[(pick % keys.len() as u64) as usize]);
        let probe = Prefix::new(member, len);
        let expected = set.iter().filter(|&a| probe.contains_addr(a)).count() as u64;
        let within: u64 = tree
            .entries()
            .iter()
            .filter(|&&(e, _)| probe.contains(e))
            .map(|&(_, c)| c)
            .sum();
        assert_eq!(within, expected, "case {case} probe {probe}");
    }
}

#[test]
fn aguri_conserves() {
    let mut g = Gen::new(50);
    for case in 0..CASES {
        let set = AddrSet::from_iter(g.clustered_addrs());
        let frac = g.below(500) as f64 / 1000.0;
        if set.is_empty() {
            continue;
        }
        let mut tree = RadixTree::new();
        for a in set.iter() {
            tree.insert_addr(a, 1);
        }
        let agg = tree.aguri_aggregate(frac);
        let total: u64 = agg.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, set.len() as u64, "case {case}");
        let threshold = (frac * set.len() as f64).ceil() as u64;
        for &(prefix, count) in &agg {
            if prefix != Prefix::ALL && threshold > 0 {
                assert!(count >= threshold, "case {case}: {prefix} kept at {count}");
            }
        }
    }
}

/// A generated routing prefix: a /8–/64 over random high bits, nested
/// under an earlier prefix, a repeat of one, `::/0` or a `/128`.
fn route(g: &mut Gen, earlier: &[Prefix]) -> Prefix {
    let pick = |g: &mut Gen| earlier[g.below(earlier.len() as u64) as usize];
    match g.below(8) {
        0 if !earlier.is_empty() => {
            let outer = pick(g);
            let len = plen(g.range(u64::from(outer.len().get()), 129));
            Prefix::new(Addr(outer.addr().0 | (g.u64() as u128)), len)
        }
        1 if !earlier.is_empty() => pick(g),
        2 => Prefix::ALL,
        3 => Prefix::host(Addr(((g.u64() as u128) << 64) | u128::from(g.below(4)))),
        _ => Prefix::new(Addr((g.u64() as u128) << 64), plen(g.range(8, 65))),
    }
}

#[test]
fn lpm_matches_linear_scan() {
    let mut g = Gen::new(51);
    for case in 0..CASES {
        let n = g.below(40) as usize;
        let mut list: Vec<(Prefix, usize)> = Vec::new();
        for i in 0..n {
            let earlier: Vec<Prefix> = list.iter().map(|&(p, _)| p).collect();
            list.push((route(&mut g, &earlier), i));
        }
        let map = PrefixMap::from_entries(list.iter().copied());
        // The last entry given for a prefix wins.
        let mut want_entries: Vec<(Prefix, usize)> = Vec::new();
        for &(p, i) in &list {
            want_entries.retain(|&(q, _)| q != p);
            want_entries.push((p, i));
        }
        want_entries.sort();
        assert_eq!(map.entries(), &want_entries[..], "case {case}");
        // Probes: random addresses, each entry's first and last address
        // and their neighbours.
        let mut probes: Vec<Addr> = (0..8)
            .map(|_| Addr(((g.u64() as u128) << 64) | g.u64() as u128))
            .collect();
        for &(p, _) in &want_entries {
            let (first, last) = (p.addr().0, p.last_addr().0);
            for x in [first.wrapping_sub(1), first, last, last.wrapping_add(1)] {
                probes.push(Addr(x));
            }
        }
        for target in probes {
            let got = map.longest_match(target).map(|(p, &v)| (p, v));
            let want = want_entries
                .iter()
                .filter(|&&(p, _)| p.contains_addr(target))
                .max_by_key(|&&(p, _)| p.len())
                .copied();
            assert_eq!(got, want, "case {case} target {target}");
        }
    }
}

#[test]
fn aggregate_to_size_conserves() {
    let mut g = Gen::new(52);
    for case in 0..CASES {
        let addrs = g.clustered_addrs();
        let budget = g.range(1, 64) as usize;
        let mut tree = RadixTree::new();
        for a in &addrs {
            tree.insert_addr(*a, 1);
        }
        let total = tree.total();
        let before = tree.node_count();
        let removed = tree.aggregate_to_size(budget);
        assert_eq!(tree.total(), total, "case {case}");
        assert_eq!(tree.node_count(), before - removed, "case {case}");
        let entries_total: u64 = tree.entries().iter().map(|&(_, c)| c).sum();
        assert_eq!(entries_total, total, "case {case}");
    }
}
