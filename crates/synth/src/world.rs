//! The synthetic Internet: ASN population, BGP allocations, and growth.
//!
//! The world stands in for the paper's proprietary vantage point (a global
//! CDN's client logs). Its parameters are sized so that at `scale = 1.0`
//! the daily/weekly populations are ≈ 1/650 of the paper's March 2015
//! numbers (≈ 485 K against ≈ 318 M "Other" addresses a day), with the same *composition*: the top-5 ASNs carry ~85% of
//! active /64s; two of them are mobile carriers with dynamic /64 pools;
//! legacy 6to4/Teredo/ISATAP traffic rides alongside; and growth between
//! the three study epochs (Mar 2014, Sep 2014, Mar 2015) follows the
//! paper's Table 1 ratios.

use crate::archetype::Archetype;
use crate::rng::Entropy;
use v6census_addr::{Addr, Prefix, PrefixLen};
use v6census_core::temporal::Day;
use v6census_trie::PrefixMap;

/// Configuration of a synthetic world.
#[derive(Clone, Copy, Debug)]
pub struct WorldConfig {
    /// Master seed; every derived quantity is a pure function of it.
    pub seed: u64,
    /// Population scale. `1.0` ≈ 1/650 of the paper's populations
    /// (≈ 485 K daily "Other" addresses in March 2015); tests use smaller
    /// values.
    pub scale: f64,
}

impl Default for WorldConfig {
    fn default() -> WorldConfig {
        WorldConfig {
            seed: 0x76c3_15c3_0001,
            scale: 1.0,
        }
    }
}

impl WorldConfig {
    /// A small world for unit tests (~2% of the default population).
    pub fn tiny(seed: u64) -> WorldConfig {
        WorldConfig { seed, scale: 0.02 }
    }
}

/// The largest scale that can size a world. [`World::standard`] sizes
/// each network as `(v * scale).round() as u64`, and its largest `v` is
/// 80,000 subscribers: at 1e14 that is 8e18, still below `u64::MAX`
/// (≈1.8e19), so every count is the scaled size. From about 2.3e14 on,
/// the cast would saturate at `u64::MAX` instead.
pub const MAX_SCALE: f64 = 1e14;

/// `scale` if it can size a world: a number greater than 0 and at most
/// [`MAX_SCALE`]. Zero, negatives, NaN, infinity and huge finite values
/// such as `1e300` cannot; neither can a literal like `1e-400`, which
/// parses to 0.
pub fn check_scale(scale: f64) -> Result<f64, String> {
    if scale > 0.0 && scale <= MAX_SCALE {
        Ok(scale)
    } else {
        Err(format!(
            "scale must be greater than 0 and at most {MAX_SCALE:e}, got {scale}"
        ))
    }
}

/// The paper's three study epochs.
pub mod epochs {
    use v6census_core::temporal::Day;

    /// March 17, 2014.
    pub fn mar2014() -> Day {
        Day::from_ymd(2014, 3, 17)
    }
    /// September 17, 2014.
    pub fn sep2014() -> Day {
        Day::from_ymd(2014, 9, 17)
    }
    /// March 17, 2015.
    pub fn mar2015() -> Day {
        Day::from_ymd(2015, 3, 17)
    }
}

/// Deployment growth: the fraction of the end-of-study subscriber base
/// that has IPv6 connectivity on `day`. Anchored to the paper's Table 1
/// daily "Other" address counts (149 M / 199 M / 318 M ⇒ 0.47 / 0.63 /
/// 1.0), linearly interpolated, with a gentle pre-study ramp.
pub fn growth(day: Day) -> f64 {
    let anchors = [
        (Day::from_ymd(2012, 6, 1), 0.08),
        (Day::from_ymd(2013, 6, 1), 0.30),
        (epochs::mar2014(), 0.47),
        (epochs::sep2014(), 0.63),
        (epochs::mar2015(), 1.00),
        (Day::from_ymd(2015, 12, 31), 1.35),
    ];
    if let Some(&(d_first, g_first)) = anchors.first() {
        if day <= d_first {
            return g_first;
        }
    }
    for w in anchors.windows(2) {
        let &[(d0, g0), (d1, g1)] = w else { continue };
        if day <= d1 {
            let t = (day - d0) as f64 / (d1 - d0) as f64;
            return g0 + t * (g1 - g0);
        }
    }
    anchors[anchors.len() - 1].1
}

/// One autonomous system in the synthetic world.
#[derive(Clone, Debug)]
pub struct Network {
    /// The AS number.
    pub asn: u32,
    /// Human-readable role, for reports.
    pub name: String,
    /// The addressing-practice archetype and its parameters.
    pub archetype: Archetype,
    /// Advertised BGP prefixes.
    pub prefixes: Vec<Prefix>,
    /// Subscriber (or host) slots at end of study, before growth scaling.
    pub max_subscribers: u64,
    /// First day this network originates IPv6 prefixes.
    pub activation: Day,
}

/// The synthetic Internet.
pub struct World {
    cfg: WorldConfig,
    ent: Entropy,
    networks: Vec<Network>,
}

/// Well-known ASNs in the synthetic world.
pub mod asns {
    /// US mobile carrier A (the Figure 5e archetype).
    pub const MOBILE_A: u32 = 65001;
    /// US mobile carrier B.
    pub const MOBILE_B: u32 = 65002;
    /// European ISP with on-demand pseudorandom network IDs (Figure 5f).
    pub const EU_ISP: u32 = 65003;
    /// Japanese ISP with static /48s (Figure 5h).
    pub const JP_ISP: u32 = 65004;
    /// US broadband ISP with DHCPv6-PD-stable /64s.
    pub const US_BROADBAND: u32 = 65005;
    /// First university ASN; `UNIVERSITY_FIRST + 0` hosts the dense
    /// DHCPv6 department /64 of Figure 5g.
    pub const UNIVERSITY_FIRST: u32 = 65100;
    /// First hosting/server ASN.
    pub const HOSTING_FIRST: u32 = 65300;
    /// First generic-tail ASN.
    pub const TAIL_FIRST: u32 = 66000;
    /// Pseudo-ASN that originates the 6to4 relay prefix 2002::/16.
    pub const SIX_TO_FOUR_RELAY: u32 = 64700;
    /// Pseudo-ASN that originates the Teredo prefix 2001::/32.
    pub const TEREDO_RELAY: u32 = 64701;
}

impl World {
    /// Builds the standard world for a configuration.
    pub fn standard(cfg: WorldConfig) -> World {
        assert!(
            check_scale(cfg.scale).is_ok(),
            "scale must be greater than 0 and at most MAX_SCALE"
        );
        let ent = Entropy::new(cfg.seed);
        let s = cfg.scale;
        let mut networks = Vec::new();
        let sc = |v: f64| -> u64 { (v * s).round().max(1.0) as u64 };
        let early = Day::from_ymd(2012, 1, 1);

        // --- Top-5 ASNs (≈85% of active /64s) -------------------------
        networks.push(Network {
            asn: asns::MOBILE_A,
            name: "US mobile carrier A".into(),
            archetype: Archetype::mobile_a(s),
            prefixes: mobile_prefixes(0x2600_1400, PrefixLen::lit::<44>(), 256),
            max_subscribers: sc(70_000.0),
            activation: early,
        });
        networks.push(Network {
            asn: asns::MOBILE_B,
            name: "US mobile carrier B".into(),
            archetype: Archetype::mobile_b(s),
            prefixes: mobile_prefixes(0x2600_8000, PrefixLen::lit::<40>(), 64),
            max_subscribers: sc(35_000.0),
            activation: early,
        });
        networks.push(Network {
            asn: asns::EU_ISP,
            name: "EU ISP (rotating network IDs)".into(),
            archetype: Archetype::rotating_isp(s),
            prefixes: vec![Prefix::new(
                Addr(0x2a00_8000u128 << 96),
                PrefixLen::lit::<19>(),
            )],
            max_subscribers: sc(80_000.0),
            activation: early,
        });
        networks.push(Network {
            asn: asns::JP_ISP,
            name: "JP ISP (static /48s)".into(),
            archetype: Archetype::static_isp(),
            prefixes: vec![Prefix::new(
                Addr(0x2400_4000u128 << 96),
                PrefixLen::lit::<24>(),
            )],
            max_subscribers: sc(43_000.0),
            activation: early,
        });
        networks.push(Network {
            asn: asns::US_BROADBAND,
            name: "US broadband ISP".into(),
            archetype: Archetype::broadband(),
            prefixes: (0..4u32)
                .map(|i| {
                    Prefix::new(
                        Addr((0x2601_0000u128 | i as u128) << 96),
                        PrefixLen::lit::<32>(),
                    )
                })
                .collect(),
            max_subscribers: sc(80_000.0),
            activation: early,
        });

        // --- Universities ---------------------------------------------
        let n_unis = ((60.0 * s.powf(0.3)).round() as u32).clamp(3, 60);
        for i in 0..n_unis {
            networks.push(Network {
                asn: asns::UNIVERSITY_FIRST + i,
                name: format!("university {i}"),
                archetype: Archetype::university(i == 0),
                prefixes: vec![Prefix::new(
                    Addr((0x2620_0000u128 | i as u128) << 96),
                    PrefixLen::lit::<32>(),
                )],
                max_subscribers: sc(1_200.0),
                activation: early + (i as i32 % 200),
            });
        }

        // --- Hosting / server networks --------------------------------
        let n_hosting = ((120.0 * s.powf(0.3)).round() as u32).clamp(3, 120);
        for i in 0..n_hosting {
            networks.push(Network {
                asn: asns::HOSTING_FIRST + i,
                name: format!("hosting {i}"),
                archetype: Archetype::hosting(ent, asns::HOSTING_FIRST + i),
                prefixes: vec![Prefix::new(
                    Addr((0x2604_0000u128 | i as u128) << 96),
                    PrefixLen::lit::<32>(),
                )],
                max_subscribers: sc(24.0).max(6),
                activation: early + (i as i32 % 300),
            });
        }

        // --- Generic tail (brings active-ASN count to ~4.4K at s=1) ---
        let n_tail = ((4_200.0 * s.powf(0.3)).round() as u32).clamp(20, 4_200);
        for i in 0..n_tail {
            // Size ranks follow a heavy tail so the Figure 5a CCDF has
            // its long reach. Tail ASNs come and go: later ranks
            // activate later, giving ASN-count growth across epochs.
            let size = (5_200.0 * s / ((i + 8) as f64).powf(0.75)).round() as u64;
            // Deterministic, collision-free /32 per tail ASN: five RIR
            // /16-style roots, second hextet 0x100.. (clear of the named
            // networks' blocks: 2400:4000::/24, 2600:1400::/32,
            // 2600:8000::/32, 2a00:8000::/19, 2601::, 2604::, 2620::).
            let rir = [0x2400u128, 0x2600, 0x2800, 0x2a00, 0x2c00][(i % 5) as usize];
            let block = 0x100u128 + (i / 5) as u128;
            let activation = if i % 5 == 4 {
                // Late adopters: appear during the study window.
                Day::from_ymd(2014, 1, 1) + (ent.u64(b"tact", &[i as u64]) % 420) as i32
            } else {
                early + (ent.u64(b"tac2", &[i as u64]) % 600) as i32
            };
            networks.push(Network {
                asn: asns::TAIL_FIRST + i,
                name: format!("tail ISP {i}"),
                archetype: Archetype::generic(ent, asns::TAIL_FIRST + i, s),
                prefixes: vec![Prefix::new(
                    Addr((rir << 112) | (block << 96)),
                    PrefixLen::lit::<32>(),
                )],
                max_subscribers: size.max(2),
                activation,
            });
        }

        World { cfg, ent, networks }
    }

    /// The configuration.
    pub fn config(&self) -> WorldConfig {
        self.cfg
    }

    /// The entropy source (shared with generators in this crate).
    pub(crate) fn entropy(&self) -> Entropy {
        self.ent
    }

    /// All networks.
    pub fn networks(&self) -> &[Network] {
        &self.networks
    }

    /// The network owning an ASN.
    pub fn network(&self, asn: u32) -> Option<&Network> {
        self.networks.iter().find(|n| n.asn == asn)
    }

    /// The BGP routing table as of `day`: every activated network's
    /// prefixes, plus the 6to4 and Teredo relay prefixes.
    pub fn routing_table(&self, day: Day) -> PrefixMap<u32> {
        let networks = self
            .networks
            .iter()
            .filter(|n| n.activation <= day)
            .flat_map(|n| n.prefixes.iter().map(|&p| (p, n.asn)));
        PrefixMap::from_entries(networks.chain([
            (v6census_addr::special::SIX_TO_FOUR, asns::SIX_TO_FOUR_RELAY),
            (v6census_addr::special::TEREDO, asns::TEREDO_RELAY),
        ]))
    }

    /// Number of networks activated by `day`.
    pub fn active_network_count(&self, day: Day) -> usize {
        self.networks.iter().filter(|n| n.activation <= day).count()
    }
}

/// Carves `count` prefixes of length `len` for a mobile carrier from the
/// /32 identified by the top 32 bits `base32`.
fn mobile_prefixes(base32: u32, len: PrefixLen, count: u32) -> Vec<Prefix> {
    (0..count)
        .map(|i| {
            let addr = ((base32 as u128) << 96) | ((i as u128) << len.host_bits());
            Prefix::new(Addr(addr), len)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_scale_takes_only_finite_positive_values() {
        for bad in ["0", "-0", "-1", "nan", "inf", "1e-400", "1e20", "1e300"] {
            let scale: f64 = bad.parse().unwrap();
            assert!(check_scale(scale).is_err(), "{bad} was accepted");
        }
        assert_eq!(check_scale(0.02), Ok(0.02));
        assert_eq!(check_scale(1.0), Ok(1.0));
        // At the bound, the largest size `World::standard` scales
        // (80,000) still rounds to a count `as u64` represents exactly.
        assert_eq!(check_scale(MAX_SCALE), Ok(MAX_SCALE));
        let largest = (80_000.0 * MAX_SCALE).round();
        assert!(largest < u64::MAX as f64);
        assert_eq!(largest as u64, 8_000_000_000_000_000_000);
    }

    #[test]
    fn growth_matches_table1_ratios() {
        assert!((growth(epochs::mar2014()) - 0.47).abs() < 1e-9);
        assert!((growth(epochs::sep2014()) - 0.63).abs() < 1e-9);
        assert!((growth(epochs::mar2015()) - 1.0).abs() < 1e-9);
        // Monotone non-decreasing across the study.
        let mut last = 0.0;
        let mut d = Day::from_ymd(2013, 1, 1);
        while d < Day::from_ymd(2015, 6, 1) {
            let g = growth(d);
            assert!(g >= last);
            last = g;
            d += 10;
        }
    }

    #[test]
    fn standard_world_structure() {
        let w = World::standard(WorldConfig::tiny(1));
        assert!(w.networks().len() > 30);
        let mob = w.network(asns::MOBILE_A).unwrap();
        assert_eq!(mob.prefixes.len(), 256);
        assert!(mob.prefixes.iter().all(|p| p.len().get() == 44));
        let eu = w.network(asns::EU_ISP).unwrap();
        assert_eq!(eu.prefixes[0].len().get(), 19);
        // Prefixes don't overlap across networks.
        let mut all: Vec<(v6census_addr::Prefix, u32)> = w
            .networks()
            .iter()
            .flat_map(|n| n.prefixes.iter().map(move |&p| (p, n.asn)))
            .collect();
        all.sort();
        for w2 in all.windows(2) {
            assert!(
                !w2[0].0.overlaps(w2[1].0),
                "{:?} overlaps {:?}",
                w2[0],
                w2[1]
            );
        }
    }

    #[test]
    fn routing_table_resolves_members() {
        let w = World::standard(WorldConfig::tiny(1));
        let rt = w.routing_table(epochs::mar2015());
        for n in w.networks().iter().take(20) {
            if n.activation <= epochs::mar2015() {
                for &p in &n.prefixes {
                    let hit = rt.longest_match(p.addr());
                    assert_eq!(hit.map(|(_, &a)| a), Some(n.asn));
                }
            }
        }
        // Transition prefixes resolve to the relay pseudo-ASNs.
        let sixto4: Addr = "2002:c000:201::1".parse().unwrap();
        assert_eq!(
            rt.longest_match(sixto4).map(|(_, &a)| a),
            Some(asns::SIX_TO_FOUR_RELAY)
        );
    }

    #[test]
    fn asn_count_grows_between_epochs() {
        let w = World::standard(WorldConfig::tiny(1));
        let c14 = w.active_network_count(epochs::mar2014());
        let c15 = w.active_network_count(epochs::mar2015());
        assert!(c15 > c14, "{c14} -> {c15}");
    }

    #[test]
    fn world_is_deterministic() {
        let a = World::standard(WorldConfig::tiny(7));
        let b = World::standard(WorldConfig::tiny(7));
        assert_eq!(a.networks().len(), b.networks().len());
        for (x, y) in a.networks().iter().zip(b.networks()) {
            assert_eq!(x.asn, y.asn);
            assert_eq!(x.prefixes, y.prefixes);
            assert_eq!(x.max_subscribers, y.max_subscribers);
        }
    }
}
