//! The reverse-DNS oracle: `ip6.arpa` PTR lookups over the synthetic
//! world (§6.2.3's PTR-harvest application).
//!
//! Operators commonly provision PTR records for *ranges* — every address
//! of a server block or infrastructure subnet — not just for hosts that
//! happen to be active. That is why the paper's scan of the 2.12 M
//! possible addresses of the 3@/120-dense class yielded 47 K more names
//! than querying only observed client addresses: dense blocks name their
//! silent neighbours too. The oracle reproduces that behaviour.

use crate::archetype::{dense_dept_iid, dense_dept_net_high, DENSE_DEPT_HOSTS};
use crate::router::{iface_addr, infra_high, looks_like_infra, IfaceClass};
use crate::world::{asns, World};
use v6census_addr::Addr;
use v6census_core::temporal::Day;
use v6census_trie::PrefixMap;

/// A PTR-lookup oracle bound to a routing-table snapshot.
pub struct PtrOracle<'w> {
    world: &'w World,
    routing: PrefixMap<u32>,
}

impl World {
    /// Builds the PTR oracle for the routing table of `day`.
    pub fn ptr_oracle(&self, day: Day) -> PtrOracle<'_> {
        PtrOracle {
            world: self,
            routing: self.routing_table(day),
        }
    }
}

impl PtrOracle<'_> {
    /// Resolves the PTR record for one address, if the operator
    /// provisioned one.
    pub fn ptr_name(&self, a: Addr) -> Option<String> {
        let asn = self.routing.longest_match(a).map(|(_, &asn)| asn)?;
        let network = self.world.network(asn)?;
        let base_high = (network.prefixes.first()?.addr().0 >> 64) as u64;

        // Dense DHCPv6 department (Figure 5g): hosts named dhcpv6-N.
        if asn == asns::UNIVERSITY_FIRST && a.network_bits() == dense_dept_net_high(base_high) {
            for h in 0..DENSE_DEPT_HOSTS {
                if a.iid_bits() == dense_dept_iid(h) {
                    return Some(format!("dhcpv6-{h}.cs.uni0.example.edu"));
                }
            }
            return None;
        }

        // Infrastructure /48: the whole interface ranges are provisioned
        // (location-bearing names — "valuable hints to IP geolocation").
        if looks_like_infra(a) && a.network_bits() == infra_high(base_high) {
            let iid = a.iid_bits();
            let class = iid >> 32;
            let idx = iid & 0xffff_ffff;
            let name = match class {
                1 if idx <= 0xffff => {
                    Some(format!("lo0.r{idx}.pop{}.as{asn}.example.net", idx % 7))
                }
                2 if idx <= 0xff_ffff => Some(format!(
                    "xe-{}-{}.r{}.pop{}.as{asn}.example.net",
                    idx & 1,
                    idx >> 1,
                    (idx >> 1) % 97,
                    (idx >> 1) % 7
                )),
                3 if idx <= 0xf_ffff => Some(format!("mgmt{idx}.as{asn}.example.net")),
                _ => None,
            };
            return name;
        }

        // Hosting / server blocks: PTRs pre-provisioned for the whole
        // low range of each server subnet, active or not.
        let high = a.network_bits();
        let is_server_subnet = (high & 0xf000_0000) == 0xf000_0000 && (high & 0x0fff_0000) == 0;
        if is_server_subnet && a.iid_bits() >= 1 && a.iid_bits() <= 0x200 {
            return Some(format!(
                "srv-{}-{}.as{asn}.example.com",
                high & 0xffff,
                a.iid_bits()
            ));
        }

        None
    }

    /// Resolves a batch and counts the names found (the §6.2.3 harvest
    /// metric).
    pub fn harvest<I: IntoIterator<Item = Addr>>(&self, addrs: I) -> usize {
        addrs
            .into_iter()
            .filter(|&a| self.ptr_name(a).is_some())
            .count()
    }
}

/// Convenience: the router interface address for doc-tests and harnesses
/// that need a known-named address.
pub fn sample_infra_addr(base_high: u64) -> Addr {
    iface_addr(infra_high(base_high), IfaceClass::Loopback, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{epochs, WorldConfig};

    fn world() -> World {
        World::standard(WorldConfig::tiny(11))
    }

    #[test]
    fn dense_dept_hosts_have_dhcpv6_names() {
        let w = world();
        let oracle = w.ptr_oracle(epochs::mar2015());
        let uni = w.network(asns::UNIVERSITY_FIRST).unwrap();
        let base_high = (uni.prefixes[0].addr().0 >> 64) as u64;
        let net = dense_dept_net_high(base_high);
        let host = Addr(((net as u128) << 64) | dense_dept_iid(5) as u128);
        let name = oracle.ptr_name(host).unwrap();
        assert!(name.starts_with("dhcpv6-"), "{name}");
        // A random privacy-style address in the same campus has no PTR.
        let anon = Addr(((net as u128) << 64) | 0xdead_beef_cafe_f00d);
        assert_eq!(oracle.ptr_name(anon), None);
    }

    #[test]
    fn infra_ranges_resolve_even_when_never_observed() {
        let w = world();
        let oracle = w.ptr_oracle(epochs::mar2015());
        let jp = w.network(asns::JP_ISP).unwrap();
        let base_high = (jp.prefixes[0].addr().0 >> 64) as u64;
        let never_probed = iface_addr(infra_high(base_high), IfaceClass::Loopback, 777);
        let name = oracle.ptr_name(never_probed).unwrap();
        assert!(name.contains(&format!("as{}", asns::JP_ISP)), "{name}");
    }

    #[test]
    fn server_blocks_are_fully_named() {
        let w = world();
        let oracle = w.ptr_oracle(epochs::mar2015());
        let hosting = w.network(asns::HOSTING_FIRST).unwrap();
        let base_high = (hosting.prefixes[0].addr().0 >> 64) as u64;
        let net_high = base_high | (0xf << 28) | 1;
        // Active range and silent neighbours both resolve.
        for iid in [1u64, 47, 0x1ff] {
            let a = Addr(((net_high as u128) << 64) | iid as u128);
            assert!(oracle.ptr_name(a).is_some(), "no PTR for {a}");
        }
        // Far outside the provisioned range: nothing.
        let far = Addr(((net_high as u128) << 64) | 0xffff);
        assert_eq!(oracle.ptr_name(far), None);
    }

    #[test]
    fn harvest_counts() {
        let w = world();
        let oracle = w.ptr_oracle(epochs::mar2015());
        let hosting = w.network(asns::HOSTING_FIRST).unwrap();
        let base_high = (hosting.prefixes[0].addr().0 >> 64) as u64;
        let net_high = (base_high | (0xf << 28) | 1) as u128;
        let range: Vec<Addr> = (1..=100u128).map(|i| Addr((net_high << 64) | i)).collect();
        assert_eq!(oracle.harvest(range), 100);
    }
}
