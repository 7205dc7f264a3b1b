//! Router interfaces and TTL-limited probe simulation (§4.2's router
//! address dataset).
//!
//! Every network has an infrastructure /48 (`<prefix>:fffe::/48`) holding
//! router interface addresses laid out the way operators actually number
//! them — and the way that makes Table 3's density classes meaningful:
//!
//! * **loopbacks** packed sequentially in a /112 block,
//! * **point-to-point links** as RFC 6164 /127 pairs, 64 links to a /120,
//! * **management interfaces** in groups of three per /124.
//!
//! [`ProbeSim`] models the paper's probe campaign: TTL-limited probes
//! toward recursive resolvers, CDN locations, and WWW client addresses
//! elicit ICMPv6 Time-Exceeded responses from the routers on the path.
//! Path diversity is keyed to target prefixes: distinct /56s behind an
//! ISP reveal distinct access routers, while a mobile carrier's vast
//! dynamic pool funnels through a handful of gateways — the structural
//! reason the paper's 3d-stable targets discover more infrastructure
//! (§6.1.1) than random actives dominated by mobile space.

use crate::archetype::Archetype;
use crate::rng::Entropy;
use crate::world::{Network, World};
use v6census_addr::{Addr, PrefixLen};
use v6census_core::temporal::Day;
use v6census_trie::{AddrSet, PrefixMap};

/// Interface classes within an infrastructure /48.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IfaceClass {
    /// Router loopback (packed /112 block).
    Loopback,
    /// Point-to-point link end (/127 pairs within /120 groups).
    PointToPoint,
    /// Management interface (three per /124 group).
    Management,
}

/// The transit backbone's address space (does not collide with any
/// network's allocation).
const TRANSIT_BASE_HIGH: u64 = 0x2600_ffff_0000_0000;

/// Number of backbone transit routers.
const TRANSIT_ROUTERS: u64 = 60;

/// The infrastructure subnet marker: bits 32..48 of an infra address.
const INFRA_MARKER: u64 = 0xfffe;

/// The high 64 bits of a network's infrastructure /48.
pub fn infra_high(network_base_high: u64) -> u64 {
    network_base_high | (INFRA_MARKER << 16)
}

/// A router interface address inside an infrastructure /48.
pub fn iface_addr(infra_high: u64, class: IfaceClass, idx: u64) -> Addr {
    let iid = match class {
        IfaceClass::Loopback => (1u64 << 32) | (idx & 0xffff),
        IfaceClass::PointToPoint => (2u64 << 32) | (idx & 0x00ff_ffff),
        IfaceClass::Management => {
            let group = idx / 3;
            let member = idx % 3;
            (3u64 << 32) | (group << 4) | (member + 1)
        }
    };
    Addr(((infra_high as u128) << 64) | iid as u128)
}

/// True when `a` sits in some infrastructure /48 (bits 32..48 = 0xfffe
/// and an infra-style IID).
pub fn looks_like_infra(a: Addr) -> bool {
    let high = a.network_bits();
    (high >> 16) & 0xffff == INFRA_MARKER && (high & 0xffff) == 0
}

/// Router-plane shape of one network: how many distinct routers of each
/// role probes can discover.
#[derive(Clone, Copy, Debug)]
pub struct RouterPlane {
    /// Core routers (loopbacks respond).
    pub core: u64,
    /// Aggregation routers (p2p link ends respond).
    pub aggregation: u64,
    /// Access routers (management/p2p ends respond); path selection is
    /// keyed by the target's /56, so this bounds per-network discovery.
    pub access: u64,
}

/// The router plane implied by a network's archetype and size.
pub fn router_plane(n: &Network) -> RouterPlane {
    let subs = n.max_subscribers;
    match n.archetype {
        Archetype::Mobile(_) => RouterPlane {
            // Centralized packet gateways: huge address pool, few routers.
            core: 6,
            aggregation: 12,
            access: 10,
        },
        Archetype::RotatingIsp { .. } | Archetype::StaticIsp(_) | Archetype::Broadband(_) => {
            RouterPlane {
                core: 5,
                aggregation: 48.min(subs / 30).max(4),
                // The last hop toward a stably addressed home is the
                // subscriber's own CPE: nearly one per household.
                access: (subs / 3).clamp(8, 60_000),
            }
        }
        Archetype::University { .. } => RouterPlane {
            core: 2,
            aggregation: 4,
            access: 30,
        },
        Archetype::Hosting(_) => RouterPlane {
            core: 2,
            aggregation: 3,
            access: 4,
        },
        Archetype::Generic(_) => RouterPlane {
            core: 1,
            aggregation: 1,
            access: (subs / 2).clamp(2, 5_000),
        },
    }
}

/// A TTL-limited probe campaign against the synthetic topology.
pub struct ProbeSim<'w> {
    world: &'w World,
    routing: PrefixMap<u32>,
    ent: Entropy,
}

impl<'w> ProbeSim<'w> {
    /// Prepares a probe simulator with the routing table of `day`.
    pub fn new(world: &'w World, day: Day) -> ProbeSim<'w> {
        ProbeSim {
            world,
            routing: world.routing_table(day),
            ent: world.entropy(),
        }
    }

    /// Probes one target; returns the Time-Exceeded source addresses of
    /// the routers on the path (transit backbone + target network).
    pub fn probe(&self, target: Addr) -> Vec<Addr> {
        let mut out = Vec::new();
        // Transit hops: keyed to coarse prefixes of the target, as
        // interdomain paths are.
        for (mask, salt) in [
            (PrefixLen::lit::<16>(), b"tr16"),
            (PrefixLen::lit::<24>(), b"tr24"),
            (PrefixLen::lit::<32>(), b"tr32"),
        ] {
            let key = target.mask(mask).0 as u64 ^ (target.mask(mask).0 >> 64) as u64;
            let r = self.ent.u64(salt, &[key]) % TRANSIT_ROUTERS;
            out.push(iface_addr(
                TRANSIT_BASE_HIGH | (INFRA_MARKER << 16),
                IfaceClass::PointToPoint,
                r * 2 + (key & 1),
            ));
        }
        // Destination-network hops.
        let asn = match self.routing.longest_match(target) {
            Some((_, &asn)) => asn,
            None => return out,
        };
        let network = match self.world.network(asn) {
            Some(n) => n,
            None => return out, // relay pseudo-ASNs have no modelled plane
        };
        let plane = router_plane(network);
        let infra = infra_high((network.prefixes[0].addr().0 >> 64) as u64);
        let a = asn as u64;
        let k40 = (target.mask(PrefixLen::lit::<40>()).0 >> 64) as u64;
        let k48 = (target.mask(PrefixLen::lit::<48>()).0 >> 64) as u64;
        // The deepest (access) hop is keyed by the *statically routed*
        // bits of the target. Dynamically assigned regions aggregate at a
        // gateway: a mobile pool /64 or an EU rotating-NID /56 does not
        // map to its own last-hop router, so probing many such targets
        // keeps revealing the same equipment — the §6.1.1 asymmetry.
        let access_key = match network.archetype {
            Archetype::Mobile(_) => (target.mask(PrefixLen::lit::<44>()).0 >> 64) as u64,
            Archetype::RotatingIsp { .. } => (target.mask(PrefixLen::lit::<40>()).0 >> 64) as u64,
            // Statically routed homes: the /64's own gateway (CPE).
            _ => target.network_bits(),
        };
        out.push(iface_addr(
            infra,
            IfaceClass::Loopback,
            self.ent.u64(b"rcor", &[a, k40]) % plane.core,
        ));
        out.push(iface_addr(
            infra,
            IfaceClass::PointToPoint,
            self.ent.u64(b"ragg", &[a, k48]) % (plane.aggregation * 2),
        ));
        // The deepest hop responds only when the target address is still
        // assigned at probe time. Campaign target lists are assembled
        // over months (§4.2, "since 2013"); an RFC 4941 temporary address
        // expires within a day, after which probes toward it die in
        // neighbor discovery at the last router instead of eliciting a
        // deep Time-Exceeded. Content-wise, that is exactly the
        // pseudorandom-IID class — the reason stable targets out-discover
        // random actives (§6.1.1).
        let looks_ephemeral = matches!(
            v6census_addr::scheme::classify(target),
            v6census_addr::AddressScheme::Pseudorandom
        );
        if !looks_ephemeral {
            out.push(iface_addr(
                infra,
                IfaceClass::Management,
                self.ent.u64(b"racc", &[a, access_key]) % (plane.access * 3),
            ));
        }
        out
    }

    /// Probes many targets and returns the union of responding router
    /// addresses — a router dataset in the sense of §4.2.
    pub fn survey<I: IntoIterator<Item = Addr>>(&self, targets: I) -> AddrSet {
        let mut all: Vec<Addr> = Vec::new();
        for t in targets {
            all.extend(self.probe(t));
        }
        AddrSet::from_iter(all)
    }

    /// The recursive-resolver target class: the CDN's authoritative DNS
    /// only observes resolvers of networks whose users generate lookups
    /// against it, so roughly a quarter of networks contribute one or two
    /// resolver addresses.
    pub fn resolver_targets(&self) -> Vec<Addr> {
        let mut out = Vec::new();
        for n in self.world.networks() {
            if !self.ent.chance(b"rslv", &[n.asn as u64], 0.02) {
                continue;
            }
            let base_high = (n.prefixes[0].addr().0 >> 64) as u64;
            let count = 1 + self.ent.u64(b"rslc", &[n.asn as u64]) % 2;
            for i in 0..count {
                out.push(Addr(((base_high as u128) << 64) | (0x53 + i) as u128));
            }
        }
        out
    }

    /// The CDN-location target class (≈500 world-wide service addresses).
    pub fn cdn_targets(&self) -> Vec<Addr> {
        let base_high = 0x2600_fff0_0000_0000u64;
        (0..500u64)
            .map(|i| Addr(((base_high | (i << 8)) as u128) << 64 | 1))
            .collect()
    }

    /// The full §4.2 campaign: resolvers + CDN locations + a supplied
    /// sample of WWW client addresses.
    pub fn router_dataset(&self, client_sample: &[Addr]) -> AddrSet {
        let mut targets = self.resolver_targets();
        targets.extend(self.cdn_targets());
        targets.extend_from_slice(client_sample);
        self.survey(targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{asns, epochs, WorldConfig};

    fn world() -> World {
        World::standard(WorldConfig::tiny(9))
    }

    #[test]
    fn iface_layout_is_packed() {
        let infra = infra_high(0x2604_0001_0000_0000);
        // Loopbacks share a /112.
        let l0 = iface_addr(infra, IfaceClass::Loopback, 0);
        let l9 = iface_addr(infra, IfaceClass::Loopback, 9);
        assert_eq!(
            l0.mask(PrefixLen::lit::<112>()),
            l9.mask(PrefixLen::lit::<112>())
        );
        // P2P pairs share a /127.
        let p0 = iface_addr(infra, IfaceClass::PointToPoint, 6);
        let p1 = iface_addr(infra, IfaceClass::PointToPoint, 7);
        assert_eq!(
            p0.mask(PrefixLen::lit::<127>()),
            p1.mask(PrefixLen::lit::<127>())
        );
        assert_ne!(p0, p1);
        // Management trios share a /124.
        let m0 = iface_addr(infra, IfaceClass::Management, 0);
        let m2 = iface_addr(infra, IfaceClass::Management, 2);
        let m3 = iface_addr(infra, IfaceClass::Management, 3);
        assert_eq!(
            m0.mask(PrefixLen::lit::<124>()),
            m2.mask(PrefixLen::lit::<124>())
        );
        assert_ne!(
            m0.mask(PrefixLen::lit::<124>()),
            m3.mask(PrefixLen::lit::<124>())
        );
        assert!(looks_like_infra(l0));
    }

    #[test]
    fn probes_reach_destination_network() {
        let w = world();
        let sim = ProbeSim::new(&w, epochs::mar2015());
        let jp = w.network(asns::JP_ISP).unwrap();
        let target = Addr(jp.prefixes[0].addr().0 | (42u128 << 80) | 1);
        let resp = sim.probe(target);
        assert!(resp.len() >= 5);
        let infra = infra_high((jp.prefixes[0].addr().0 >> 64) as u64);
        let in_jp = resp.iter().filter(|r| r.network_bits() == infra).count();
        assert!(in_jp >= 3, "expected JP infra hops, got {resp:?}");
    }

    #[test]
    fn target_diversity_reveals_more_access_routers() {
        let w = world();
        let sim = ProbeSim::new(&w, epochs::mar2015());
        let bb = w.network(asns::US_BROADBAND).unwrap();
        let base = bb.prefixes[0].addr().0;
        // 64 targets in the same /56 vs 64 targets in distinct /56s.
        let same: Vec<Addr> = (0..64u128)
            .map(|i| Addr(base | (5u128 << 72) | i))
            .collect();
        let diverse: Vec<Addr> = (0..64u128).map(|i| Addr(base | (i << 72) | 1)).collect();
        let found_same = sim.survey(same.iter().copied()).len();
        let found_diverse = sim.survey(diverse.iter().copied()).len();
        assert!(
            found_diverse > found_same,
            "diverse {found_diverse} <= same {found_same}"
        );
    }

    #[test]
    fn mobile_pool_funnels_through_few_gateways() {
        let w = world();
        let sim = ProbeSim::new(&w, epochs::mar2015());
        let mob = w.network(asns::MOBILE_A).unwrap();
        let plane = router_plane(mob);
        // Probing many mobile /64s discovers at most the plane's router
        // complement.
        let targets: Vec<Addr> = (0..200u128)
            .map(|i| Addr(mob.prefixes[(i % 8) as usize].addr().0 | (i << 64) | 1))
            .collect();
        let mob_infra = infra_high((mob.prefixes[0].addr().0 >> 64) as u64);
        let found = sim
            .survey(targets.iter().copied())
            .iter()
            .filter(|r| r.network_bits() == mob_infra)
            .count() as u64;
        assert!(
            found <= plane.core + plane.aggregation * 2 + plane.access * 3,
            "found {found}"
        );
        assert!(found < 120, "mobile should be centralized, found {found}");
    }

    #[test]
    fn campaign_produces_clustered_dataset() {
        let w = world();
        let sim = ProbeSim::new(&w, epochs::mar2015());
        let routers = sim.router_dataset(&[]);
        assert!(routers.len() > 40, "only {} routers", routers.len());
        // The dataset is heavily packed: many 2@/124-dense prefixes.
        let dense = v6census_trie::dense_prefixes(&routers, 2, PrefixLen::lit::<124>());
        assert!(!dense.is_empty());
    }
}
