//! The paper's in-text experiments (§6.1.1, §6.2.1–§6.2.3), plus the
//! ground-truth evaluations the synthetic world makes possible.

use crate::ingest::{group_by_mac, Census};
use crate::routing::RoutingTable;
use std::collections::BTreeMap;
use v6census_addr::malone::{classify_content_only, MaloneVerdict};
use v6census_addr::{Addr, PrefixLen};
use v6census_core::spatial::DensityClass;
use v6census_core::temporal::{Day, StabilityParams};
use v6census_synth::router::ProbeSim;
use v6census_synth::{TrueKind, World};
use v6census_trie::AddrSet;

/// Deterministic sample: `want` evenly spaced elements across the whole
/// sorted set (all of it when `want ≥ len`), so no region of the address
/// space is favoured.
pub fn sample_every(set: &AddrSet, want: usize) -> Vec<Addr> {
    if set.is_empty() || want == 0 {
        return Vec::new();
    }
    let keys = set.keys();
    if want >= keys.len() {
        return set.iter().collect();
    }
    (0..want)
        .map(|i| Addr(keys[i * keys.len() / want]))
        .collect()
}

// ---------------------------------------------------------------------------
// §6.1.1: router discovery with 3d-stable targets
// ---------------------------------------------------------------------------

/// Result of the §6.1.1 target-selection experiment.
#[derive(Clone, Debug)]
pub struct RouterDiscovery {
    /// Routers discovered by the IPv4-style baseline (resolvers + random
    /// active WWW clients).
    pub baseline_routers: usize,
    /// Routers discovered with 3d-stable WWW clients as targets.
    pub stable_routers: usize,
    /// Probe targets used per strategy.
    pub targets_per_strategy: usize,
}

impl RouterDiscovery {
    /// The paper's headline metric: percentage improvement of the
    /// stable-target strategy over the baseline (the paper reports 129%).
    pub fn improvement_pct(&self) -> f64 {
        if self.baseline_routers == 0 {
            return 0.0;
        }
        (self.stable_routers as f64 / self.baseline_routers as f64 - 1.0) * 100.0
    }
}

/// Runs the experiment: equal-sized target sets, one drawn from random
/// actives, one from 3d-stable addresses, both on top of the resolver
/// target class.
pub fn router_discovery(
    world: &World,
    census: &Census,
    reference: Day,
    targets: usize,
) -> RouterDiscovery {
    let sim = ProbeSim::new(world, reference);
    let active = census.other_daily().on(reference);
    let stable = census
        .other_daily()
        .stable_on(reference, &StabilityParams::three_day());
    // Equal-sized client target sets for a fair comparison.
    let targets = targets.min(active.len()).min(stable.len());

    let resolvers = sim.resolver_targets();
    let run = |clients: Vec<Addr>| -> usize {
        let mut t = resolvers.clone();
        t.extend(clients);
        sim.survey(t).len()
    };
    let baseline = run(sample_every(&active, targets));
    let with_stable = run(sample_every(&stable, targets));
    RouterDiscovery {
        baseline_routers: baseline,
        stable_routers: with_stable,
        targets_per_strategy: targets,
    }
}

// ---------------------------------------------------------------------------
// §6.1.1 / §6.2.1: EUI-64 analyses
// ---------------------------------------------------------------------------

/// Results of the EUI-64 IID analyses.
#[derive(Clone, Debug)]
pub struct Eui64Analysis {
    /// EUI-64 addresses in the week classified not-3d-stable.
    pub not_stable_eui64: usize,
    /// Of those, the fraction whose IID (MAC) appears in more than one
    /// address (the paper: 62%).
    pub frac_iid_multi_addr: f64,
    /// Of those, the fraction whose IID also appears in a 3d-stable
    /// address (the paper: 14%).
    pub frac_iid_in_stable: f64,
    /// Per-ASN: fraction of EUI-64 IIDs observed in exactly one /64
    /// during the week (the paper: JP 99.6%, EU 67.4%).
    pub single_64_share_by_asn: BTreeMap<u32, f64>,
}

/// Runs the weekly EUI-64 analysis over the week starting at `first`.
pub fn eui64_analysis(census: &Census, rt: &RoutingTable, first: Day) -> Eui64Analysis {
    let days = || first.range_inclusive(first + 6);
    let eui_week = census.eui64_over(days());
    let stability = census
        .other_daily()
        .stable_over_week(first, &StabilityParams::three_day());

    let groups = group_by_mac(&eui_week);
    // MAC -> (addresses, any address stable?)
    let mut not_stable_eui = Vec::new();
    for a in eui_week.iter() {
        if !stability.stable.contains(a) {
            not_stable_eui.push(a);
        }
    }
    let mac_of = |a: Addr| -> Option<v6census_addr::Mac> { v6census_addr::Iid::of(a).eui64_mac() };
    let mut multi = 0usize;
    let mut in_stable = 0usize;
    for &a in &not_stable_eui {
        if let Some(mac) = mac_of(a) {
            if let Some(addrs) = groups.get(&mac) {
                if addrs.len() > 1 {
                    multi += 1;
                }
                if addrs.iter().any(|&x| stability.stable.contains(x)) {
                    in_stable += 1;
                }
            }
        }
    }
    let denom = not_stable_eui.len().max(1) as f64;

    // Per-ASN /64-spread of IIDs.
    let mut per_asn: BTreeMap<u32, (usize, usize)> = BTreeMap::new(); // (single, total)
    for (_, addrs) in groups.iter() {
        let mut nets: Vec<u64> = addrs.iter().map(|a| a.network_bits()).collect();
        nets.sort_unstable();
        nets.dedup();
        if let Some(asn) = addrs.first().and_then(|&a| rt.asn_of(a)) {
            let e = per_asn.entry(asn).or_default();
            e.1 += 1;
            if nets.len() == 1 {
                e.0 += 1;
            }
        }
    }
    Eui64Analysis {
        not_stable_eui64: not_stable_eui.len(),
        frac_iid_multi_addr: multi as f64 / denom,
        frac_iid_in_stable: in_stable as f64 / denom,
        single_64_share_by_asn: per_asn
            .into_iter()
            .filter(|&(_, (_, total))| total >= 5)
            .map(|(asn, (single, total))| (asn, single as f64 / total as f64))
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// §6.2.2: dense WWW client prefixes
// ---------------------------------------------------------------------------

/// The §6.2.2 numbers for active WWW clients on one day.
pub fn dense_www(census: &Census, day: Day) -> v6census_core::spatial::DensityReport {
    let actives = census.other_daily().on(day);
    DensityClass::at(2, PrefixLen::lit::<112>()).report(&actives)
}

// ---------------------------------------------------------------------------
// §6.2.3: PTR harvest over dense prefixes
// ---------------------------------------------------------------------------

/// Result of the §6.2.3 reverse-DNS harvest.
#[derive(Clone, Debug)]
pub struct PtrHarvest {
    /// Dense prefixes of the 3@/120 class over the router dataset.
    pub dense_prefixes: usize,
    /// Possible addresses they span (the query universe).
    pub possible_addresses: u128,
    /// Names found by sweeping every possible address of the dense
    /// prefixes.
    pub names_from_sweep: usize,
    /// Names found by querying only the active WWW client addresses —
    /// the paper's comparison point.
    pub names_from_clients: usize,
    /// Sweep names for addresses *not* in the client set — the "additional
    /// domain names" of §6.2.3 (the paper: +47 K).
    pub additional: usize,
}

impl PtrHarvest {
    /// Additional names the dense sweep contributed beyond client-only
    /// querying.
    pub fn additional_names(&self) -> usize {
        self.additional
    }
}

/// Sweeps the 3@/120-dense prefixes of a router dataset against the PTR
/// oracle and compares with querying the active WWW clients only.
pub fn ptr_harvest(world: &World, routers: &AddrSet, clients: &AddrSet, day: Day) -> PtrHarvest {
    let oracle = world.ptr_oracle(day);
    let class = DensityClass::at(3, PrefixLen::lit::<120>());
    let dense = class.dense_prefixes(routers);
    let possible: u128 = dense.iter().map(|d| d.possible().unwrap_or(0)).sum();
    let mut sweep = 0usize;
    let mut additional = 0usize;
    for d in &dense {
        let base = d.prefix.addr().0;
        let span = d.possible().unwrap_or(0);
        for i in 0..span {
            let a = Addr(base | i);
            if oracle.ptr_name(a).is_some() {
                sweep += 1;
                if !clients.contains(a) {
                    additional += 1;
                }
            }
        }
    }
    let from_clients = oracle.harvest(clients.iter());
    PtrHarvest {
        dense_prefixes: dense.len(),
        possible_addresses: possible,
        names_from_sweep: sweep,
        names_from_clients: from_clients,
        additional,
    }
}

// ---------------------------------------------------------------------------
// §7.1/§7.2: reverse-engineering address plans from EUI-64 guides
// ---------------------------------------------------------------------------

/// Per-ASN inference of the stable network-identifier length, from
/// tracking EUI-64 IIDs across two epochs — the paper's §7.1 technique
/// ("examining the network identifiers of EUI-64 addresses over time;
/// these persistent, unique IIDs serve as guides").
#[derive(Clone, Debug)]
pub struct NidInference {
    /// MACs observed in both epochs.
    pub samples: usize,
    /// Median cross-epoch common-prefix length of the *network halves*
    /// of each MAC's addresses (0..=64). 64 ⇒ fully static /64s;
    /// small ⇒ dynamic assignment beyond the allocation prefix.
    pub median_stable_bits: u8,
    /// Histogram of per-MAC stable bits.
    pub histogram: BTreeMap<u8, usize>,
}

/// For every ASN with enough cross-epoch EUI-64 devices, infers the
/// stable NID length. `current` and `earlier` are the first days of the
/// two comparison weeks.
pub fn stable_nid_by_mac(
    census: &Census,
    rt: &RoutingTable,
    current: Day,
    earlier: Day,
    min_samples: usize,
) -> BTreeMap<u32, NidInference> {
    let week = |d: Day| census.eui64_over(d.range_inclusive(d + 6));
    let cur_groups = group_by_mac(&week(current));
    let old_groups = group_by_mac(&week(earlier));

    let mut per_asn: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
    for (mac, cur_addrs) in &cur_groups {
        let Some(old_addrs) = old_groups.get(mac) else {
            continue;
        };
        // The stable portion is the best network-half agreement across
        // epochs (a device may roam among subnets; its home is stable).
        let mut best = 0u8;
        for &a in cur_addrs {
            for &b in old_addrs {
                let cpl = (a.network_bits() ^ b.network_bits()).leading_zeros() as u8;
                best = best.max(cpl.min(64));
            }
        }
        if let Some(asn) = cur_addrs.first().and_then(|&a| rt.asn_of(a)) {
            per_asn.entry(asn).or_default().push(best);
        }
    }
    per_asn
        .into_iter()
        .filter(|(_, v)| v.len() >= min_samples)
        .map(|(asn, mut bits)| {
            bits.sort_unstable();
            let median = bits[bits.len() / 2];
            let mut histogram: BTreeMap<u8, usize> = BTreeMap::new();
            for b in &bits {
                *histogram.entry(*b).or_default() += 1;
            }
            (
                asn,
                NidInference {
                    samples: bits.len(),
                    median_stable_bits: median,
                    histogram,
                },
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ground-truth evaluation: Malone baseline vs temporal classification
// ---------------------------------------------------------------------------

/// Ground-truth comparison of the content-only baseline (§2) against the
/// temporal classifier, possible only with synthetic labels.
#[derive(Clone, Debug)]
pub struct ClassifierEvaluation {
    /// True rotating-privacy addresses in the evaluation day.
    pub true_privacy: usize,
    /// Content-only (Malone-style) recall on true rotating-privacy
    /// addresses (Malone 2008 expected ≈73% for his rule set).
    pub malone_recall: f64,
    /// The content-only blind spot: the fraction of genuinely *stable*
    /// addresses (fixed IIDs, RFC 7217 stable-privacy) whose content is
    /// indistinguishable from a privacy address. This ambiguity is what
    /// temporal classification resolves.
    pub stable_lookalike_rate: f64,
    /// Fraction of 3d-stable addresses that are truly rotating privacy
    /// addresses (the paper's converse guarantee: stable ⇒ almost
    /// certainly not privacy).
    pub stable_privacy_contamination: f64,
}

/// Evaluates both classifiers against ground truth on `reference`
/// (census must hold the surrounding window).
pub fn classifier_evaluation(
    world: &World,
    census: &Census,
    reference: Day,
) -> ClassifierEvaluation {
    let log = world.day_log(reference);
    let mut privacy = Vec::new();
    let mut content_stable = Vec::new();
    for e in &log.entries {
        if e.kind.is_transition() {
            continue;
        }
        match e.kind {
            TrueKind::Privacy { rotation_days } if rotation_days <= 1 => privacy.push(e.addr),
            // Genuinely stable identities whose *value* may still look
            // random: per-device fixed IIDs and RFC 7217 addresses.
            TrueKind::FixedIid | TrueKind::StablePrivacy => content_stable.push(e.addr),
            _ => {}
        }
    }
    let recall = v6census_addr::malone::recall_on(&privacy);
    let lookalike = if content_stable.is_empty() {
        0.0
    } else {
        content_stable
            .iter()
            .filter(|&&a| classify_content_only(a) == MaloneVerdict::LikelyPrivacy)
            .count() as f64
            / content_stable.len() as f64
    };
    let stable = census
        .other_daily()
        .stable_on(reference, &StabilityParams::three_day());
    let privacy_set = AddrSet::from_iter(privacy.iter().copied());
    let contamination = if stable.is_empty() {
        0.0
    } else {
        stable.intersection_len(&privacy_set) as f64 / stable.len() as f64
    };
    ClassifierEvaluation {
        true_privacy: privacy.len(),
        malone_recall: recall,
        stable_lookalike_rate: lookalike,
        stable_privacy_contamination: contamination,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_synth::{world::epochs, WorldConfig};

    fn setup() -> (World, Census) {
        let w = World::standard(WorldConfig::tiny(29));
        let d = epochs::mar2015();
        let c = Census::run(&w, d - 7, d + 7);
        (w, c)
    }

    #[test]
    fn sampling_is_deterministic_and_sized() {
        let set = AddrSet::from_iter((0..1000u128).map(Addr));
        let s = sample_every(&set, 100);
        assert_eq!(s.len(), 100);
        assert_eq!(s, sample_every(&set, 100));
        assert!(sample_every(&AddrSet::new(), 10).is_empty());
        // Wanting more than exists returns all.
        assert_eq!(sample_every(&set, 5000).len(), 1000);
    }

    #[test]
    fn stable_targets_discover_more_routers() {
        let (w, c) = setup();
        let r = router_discovery(&w, &c, epochs::mar2015(), 300);
        assert!(r.baseline_routers > 0);
        assert!(
            r.stable_routers > r.baseline_routers,
            "stable {} <= baseline {}",
            r.stable_routers,
            r.baseline_routers
        );
        assert!(r.improvement_pct() > 0.0);
    }

    #[test]
    fn eui64_analysis_fractions_in_range() {
        let (w, c) = setup();
        let rt = RoutingTable::of(&w, epochs::mar2015());
        let e = eui64_analysis(&c, &rt, epochs::mar2015() - 7);
        assert!(e.not_stable_eui64 > 0);
        assert!((0.0..=1.0).contains(&e.frac_iid_multi_addr));
        assert!((0.0..=1.0).contains(&e.frac_iid_in_stable));
        for (&asn, &share) in &e.single_64_share_by_asn {
            assert!((0.0..=1.0).contains(&share), "asn {asn}: {share}");
        }
    }

    #[test]
    fn jp_iids_more_single_64_than_eu() {
        let (w, c) = setup();
        let rt = RoutingTable::of(&w, epochs::mar2015());
        let e = eui64_analysis(&c, &rt, epochs::mar2015() - 7);
        use v6census_synth::world::asns;
        let jp = e.single_64_share_by_asn.get(&asns::JP_ISP);
        let eu = e.single_64_share_by_asn.get(&asns::EU_ISP);
        if let (Some(&jp), Some(&eu)) = (jp, eu) {
            assert!(
                jp >= eu,
                "JP static /48s should pin IIDs to one /64: jp {jp:.3} eu {eu:.3}"
            );
        }
    }

    #[test]
    fn dense_www_reports() {
        let (_, c) = setup();
        let r = dense_www(&c, epochs::mar2015());
        assert!(r.dense_prefixes > 0, "no dense WWW prefixes");
        assert!(r.covered_addresses >= 2 * r.dense_prefixes as u64);
        assert_eq!(r.possible_addresses, r.dense_prefixes as u128 * 65_536);
    }

    #[test]
    fn ptr_sweep_finds_more_than_client_queries() {
        let (w, c) = setup();
        let d = epochs::mar2015();
        let sim = ProbeSim::new(&w, d);
        let actives = c.other_daily().on(d);
        let client_sample = sample_every(&actives, 400);
        let routers = sim.router_dataset(&client_sample);
        let h = ptr_harvest(&w, &routers, &actives, d);
        assert!(h.dense_prefixes > 0);
        assert!(
            h.additional_names() > 100,
            "sweep should name silent infra neighbours: sweep {} clients {} additional {}",
            h.names_from_sweep,
            h.names_from_clients,
            h.additional_names()
        );
    }

    #[test]
    fn nid_inference_separates_static_from_dynamic() {
        let w = World::standard(WorldConfig {
            seed: 29,
            scale: 0.1,
        });
        let m15 = epochs::mar2015();
        let s14 = epochs::sep2014();
        let mut c = Census::new_empty();
        for d in s14.range_inclusive(s14 + 6) {
            c.ingest(&w.day_log(d));
        }
        for d in m15.range_inclusive(m15 + 6) {
            c.ingest(&w.day_log(d));
        }
        let rt = RoutingTable::of(&w, m15);
        let inf = stable_nid_by_mac(&c, &rt, m15, s14, 4);
        use v6census_synth::world::asns;
        let jp = inf.get(&asns::JP_ISP);
        let mob = inf.get(&asns::MOBILE_A);
        if let (Some(jp), Some(mob)) = (jp, mob) {
            assert_eq!(
                jp.median_stable_bits, 64,
                "JP static /48s pin devices to a /64: {jp:?}"
            );
            assert!(
                mob.median_stable_bits < 48,
                "mobile pools must look dynamic: {mob:?}"
            );
        } else {
            panic!("expected JP and mobile inference, got {:?}", inf.keys());
        }
    }

    #[test]
    fn temporal_beats_content_only_on_ground_truth() {
        let (w, c) = setup();
        let e = classifier_evaluation(&w, &c, epochs::mar2015());
        assert!(e.true_privacy > 100);
        // Content-only recall is substantial but imperfect (Malone
        // expected ~73%); the complementary temporal guarantee is that
        // stable addresses are essentially never rotating-privacy.
        assert!(
            e.malone_recall > 0.5 && e.malone_recall < 1.0,
            "recall {:.3}",
            e.malone_recall
        );
        assert!(
            e.stable_privacy_contamination < 0.05,
            "contamination {:.4}",
            e.stable_privacy_contamination
        );
    }
}
