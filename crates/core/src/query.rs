//! Query-oriented lookups over published census products.
//!
//! The batch pipeline produces whole tables; a serving daemon answers
//! point questions — "what does this prefix look like?", "on which days
//! was this address seen?" — against an immutable published snapshot.
//! The helpers here are the pure lookup kernels those endpoints call:
//! they take already-built products ([`AddrSet`]s, [`DailyObservations`])
//! and never mutate anything, so they are safe to run concurrently from
//! many reader threads against one shared snapshot.

use crate::spatial::{DensityClass, MraCurve, PrivacySignature};
use crate::temporal::{DailyObservations, Day};
use v6census_addr::{Addr, Prefix, PrefixLen};
use v6census_trie::AddrSet;

/// The spatial profile of one prefix within an active-address set — the
/// record behind a `/classify/<prefix>` query: how many observed
/// addresses the block holds, the §5.2.1 MRA signature measurements over
/// exactly those members, and the block's `n@/p-dense` content.
#[derive(Clone, Debug)]
pub struct PrefixProfile {
    /// The queried block (canonicalized).
    pub prefix: Prefix,
    /// Observed addresses inside the block.
    pub members: usize,
    /// Privacy-extension signature measurements over the members.
    pub signature: PrivacySignature,
    /// Whether the measurements match the paper's privacy signature.
    pub privacy: bool,
    /// Tail prominence (≈1: addresses differ only in their last 16
    /// bits — the dense-block shape).
    pub tail_prominence: f64,
    /// Longest common prefix of the members (128 for ≤1 member).
    pub common_prefix_len: PrefixLen,
    /// Number of `n@/p-dense` sub-blocks among the members.
    pub dense_prefixes: usize,
    /// Members that live inside a dense sub-block.
    pub dense_members: usize,
}

/// The members of `set` inside `prefix`, by binary search over the
/// sorted key vector — O(log n + m) for m members, cheap enough to run
/// per query.
pub fn members_in(set: &AddrSet, prefix: Prefix) -> AddrSet {
    let lo = prefix.addr().0;
    let hi = prefix.last_addr().0;
    let keys = set.keys();
    let start = keys.partition_point(|&k| k < lo);
    let end = keys.partition_point(|&k| k <= hi);
    AddrSet::from_sorted(keys.get(start..end).unwrap_or(&[]).to_vec())
}

/// Profiles one prefix within an active-address set: member extraction,
/// MRA signature measurements, and dense-content summary, in one pass.
pub fn prefix_profile(set: &AddrSet, prefix: Prefix, class: DensityClass) -> PrefixProfile {
    let members = members_in(set, prefix);
    let mra = MraCurve::of(&members);
    let signature = mra.privacy_signature();
    let dense = class.dense_prefixes(&members);
    let dense_members = class.dense_addresses(&members).len();
    PrefixProfile {
        prefix,
        members: members.len(),
        privacy: signature.matches(),
        signature,
        tail_prominence: mra.tail_prominence(),
        common_prefix_len: mra.common_prefix_len(),
        dense_prefixes: dense.len(),
        dense_members,
    }
}

/// The days on which `a` was observed, ascending — the temporal half of
/// a point lookup. O(days × log n).
pub fn days_seen(obs: &DailyObservations, a: Addr) -> Vec<Day> {
    obs.days()
        .filter(|&d| obs.get(d).is_some_and(|s| s.contains(a)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(addrs: &[&str]) -> AddrSet {
        AddrSet::from_iter(addrs.iter().map(|s| s.parse::<Addr>().unwrap()))
    }

    #[test]
    fn members_in_selects_the_block() {
        let s = set(&["2001:db8::1", "2001:db8::2", "2001:db8:1::1", "2002:db8::1"]);
        let p: Prefix = "2001:db8::/32".parse().unwrap();
        let m = members_in(&s, p);
        assert_eq!(m.len(), 3);
        assert!(m.contains("2001:db8:1::1".parse().unwrap()));
        assert!(!m.contains("2002:db8::1".parse().unwrap()));
        // Host prefix selects exactly the address.
        let host = Prefix::host("2001:db8::2".parse().unwrap());
        assert_eq!(members_in(&s, host).len(), 1);
        // A block with no members yields the empty set.
        let empty: Prefix = "2003::/16".parse().unwrap();
        assert!(members_in(&s, empty).is_empty());
    }

    #[test]
    fn members_in_agrees_with_linear_filter() {
        let s = AddrSet::from_iter(
            (0..500u128).map(|i| Addr((0x2001_0db8u128 << 96) | (i << 32) | (i * 7))),
        );
        let p: Prefix = "2001:db8:0:0:0:40::/76".parse().unwrap();
        let fast = members_in(&s, p);
        let slow: Vec<Addr> = s.iter().filter(|&a| p.contains_addr(a)).collect();
        assert_eq!(fast.len(), slow.len());
        for a in &slow {
            assert!(fast.contains(*a));
        }
    }

    #[test]
    fn profile_reports_dense_content() {
        // 100 packed low-IID addresses in one /64: the Figure 5g shape.
        let s =
            AddrSet::from_iter((0..100u128).map(|i| Addr((0x2001_0db8_0000_0001u128 << 64) | i)));
        let p: Prefix = "2001:db8:0:1::/64".parse().unwrap();
        let profile = prefix_profile(&s, p, DensityClass::new(16, 120));
        assert_eq!(profile.members, 100);
        assert!(!profile.privacy);
        assert!(profile.tail_prominence > 0.9);
        assert!(profile.dense_prefixes >= 1);
        assert_eq!(profile.dense_members, 100);
        // Querying a sibling block finds nothing.
        let sibling: Prefix = "2001:db8:0:2::/64".parse().unwrap();
        let none = prefix_profile(&s, sibling, DensityClass::new(16, 120));
        assert_eq!(none.members, 0);
        assert_eq!(none.common_prefix_len, PrefixLen::MAX);
    }

    #[test]
    fn days_seen_scans_the_observation_store() {
        let mut obs = DailyObservations::new();
        let d0 = Day::from_ymd(2015, 3, 17);
        let a: Addr = "2001:db8::1".parse().unwrap();
        let b: Addr = "2001:db8::2".parse().unwrap();
        obs.record(d0, set(&["2001:db8::1", "2001:db8::2"]));
        obs.record(d0 + 2, set(&["2001:db8::1"]));
        assert_eq!(days_seen(&obs, a), vec![d0, d0 + 2]);
        assert_eq!(days_seen(&obs, b), vec![d0]);
        assert!(days_seen(&obs, "2001:db8::3".parse().unwrap()).is_empty());
    }
}
