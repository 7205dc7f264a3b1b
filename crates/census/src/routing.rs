//! BGP routing table and per-ASN attribution of observed addresses.

use std::collections::BTreeMap;
use v6census_addr::{Addr, Prefix};
use v6census_core::temporal::Day;
use v6census_synth::World;
use v6census_trie::{AddrSet, PrefixMap};

/// A routing-table snapshot with attribution helpers.
pub struct RoutingTable {
    table: PrefixMap<u32>,
}

impl RoutingTable {
    /// Snapshot of a world's BGP table on `day`.
    pub fn of(world: &World, day: Day) -> RoutingTable {
        RoutingTable {
            table: world.routing_table(day),
        }
    }

    /// Builds a table from `(prefix, asn)` entries, such as a parsed BGP
    /// snapshot. Of entries repeating a prefix, the last wins.
    pub fn from_entries(entries: impl IntoIterator<Item = (Prefix, u32)>) -> RoutingTable {
        RoutingTable {
            table: PrefixMap::from_entries(entries),
        }
    }

    /// The originating ASN for an address, via longest-prefix match.
    pub fn asn_of(&self, a: Addr) -> Option<u32> {
        self.table.longest_match(a).map(|(_, &asn)| asn)
    }

    /// The matched BGP prefix for an address.
    pub fn prefix_of(&self, a: Addr) -> Option<Prefix> {
        self.table.longest_match(a).map(|(p, _)| p)
    }

    /// Number of advertised prefixes.
    pub fn prefix_count(&self) -> usize {
        self.table.entries().len()
    }

    /// Splits a set of addresses by originating ASN. Unrouted addresses
    /// (none exist in the synthetic world, but defensive anyway) land
    /// under ASN 0.
    pub fn group_by_asn(&self, set: &AddrSet) -> BTreeMap<u32, AddrSet> {
        let mut buckets: BTreeMap<u32, Vec<Addr>> = BTreeMap::new();
        for a in set.iter() {
            buckets
                .entry(self.asn_of(a).unwrap_or(0))
                .or_default()
                .push(a);
        }
        buckets
            .into_iter()
            .map(|(asn, v)| (asn, AddrSet::from_iter(v)))
            .collect()
    }

    /// Splits a set of addresses by matched BGP prefix.
    pub fn group_by_prefix(&self, set: &AddrSet) -> BTreeMap<Prefix, AddrSet> {
        let mut buckets: BTreeMap<Prefix, Vec<Addr>> = BTreeMap::new();
        for a in set.iter() {
            if let Some(p) = self.prefix_of(a) {
                buckets.entry(p).or_default().push(a);
            }
        }
        buckets
            .into_iter()
            .map(|(p, v)| (p, AddrSet::from_iter(v)))
            .collect()
    }

    /// Per-ASN counts of a set (cheaper than materializing sets).
    pub fn count_by_asn(&self, set: &AddrSet) -> BTreeMap<u32, u64> {
        let mut out: BTreeMap<u32, u64> = BTreeMap::new();
        for a in set.iter() {
            *out.entry(self.asn_of(a).unwrap_or(0)).or_default() += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_synth::world::{asns, epochs};
    use v6census_synth::WorldConfig;

    #[test]
    fn attribution_covers_the_log() {
        let w = World::standard(WorldConfig::tiny(17));
        let d = epochs::mar2015();
        let rt = RoutingTable::of(&w, d);
        assert!(rt.prefix_count() > 30);
        let log = w.day_log(d);
        let set = AddrSet::from_iter(log.addrs());
        let groups = rt.group_by_asn(&set);
        assert!(!groups.contains_key(&0), "unrouted addresses found");
        let total: usize = groups.values().map(|s| s.len()).sum();
        assert_eq!(total, set.len());
        // The mobile carrier is present and large.
        assert!(groups.contains_key(&asns::MOBILE_A));
        let counts = rt.count_by_asn(&set);
        assert_eq!(
            counts[&asns::MOBILE_A],
            groups[&asns::MOBILE_A].len() as u64
        );
    }

    #[test]
    fn from_entries_builds_equivalent_table() {
        let entries = vec![
            ("2001:db8::/32".parse().unwrap(), 64496u32),
            ("2001:db8:ff::/48".parse().unwrap(), 64497),
            ("::/0".parse().unwrap(), 0),
        ];
        let rt = RoutingTable::from_entries(entries);
        assert_eq!(rt.prefix_count(), 3);
        assert_eq!(rt.asn_of("2001:db8:ff::1".parse().unwrap()), Some(64497));
        assert_eq!(rt.asn_of("9999::1".parse().unwrap()), Some(0));
    }

    #[test]
    fn prefix_grouping_matches_longest_match() {
        let w = World::standard(WorldConfig::tiny(17));
        let d = epochs::mar2015();
        let rt = RoutingTable::of(&w, d);
        let log = w.day_log(d);
        let set = AddrSet::from_iter(log.addrs().take(2_000));
        for (p, sub) in rt.group_by_prefix(&set) {
            for a in sub.iter() {
                assert!(p.contains_addr(a));
            }
        }
    }
}
