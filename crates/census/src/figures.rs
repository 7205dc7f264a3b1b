//! The paper's figure series, computed from census data.

use crate::ingest::Census;
use crate::routing::RoutingTable;
use std::collections::BTreeMap;
use v6census_addr::PrefixLen;
use v6census_core::spatial::{BoxStats, Ccdf, MraCurve, MraResolution};
use v6census_core::temporal::Day;
use v6census_trie::AddrSet;

/// An MRA plot's data (Figures 2 and 5c–5h): one curve per resolution,
/// plus the length of the population's common prefix (the "known BGP
/// prefix" marker).
#[derive(Clone, Debug)]
pub struct MraFigure {
    /// Plot title.
    pub title: String,
    /// Number of addresses characterized.
    pub total: u64,
    /// `(resolution, curve points)` — single bits, nybbles, 16-bit
    /// segments, in the paper's plotting order.
    pub curves: Vec<(MraResolution, Vec<(PrefixLen, f64)>)>,
    /// Longest common prefix of the population.
    pub common_prefix: PrefixLen,
}

impl MraFigure {
    /// Computes the figure for an address population.
    pub fn of(title: &str, set: &AddrSet) -> MraFigure {
        let mra = MraCurve::of(set);
        let resolutions = [
            MraResolution::Segment16,
            MraResolution::Nybble,
            MraResolution::SingleBit,
        ];
        MraFigure {
            title: title.to_string(),
            total: mra.total(),
            curves: resolutions.iter().map(|&r| (r, mra.curve(r))).collect(),
            common_prefix: mra.common_prefix_len(),
        }
    }

    /// The curve for one resolution, if present.
    pub fn curve(&self, res: MraResolution) -> Option<&[(PrefixLen, f64)]> {
        self.curves
            .iter()
            .find(|(r, _)| *r == res)
            .map(|(_, c)| c.as_slice())
    }
}

/// Figure 3: aggregate population CCDFs.
#[derive(Clone, Debug)]
pub struct PopulationFigure {
    /// `(legend label, ccdf)` series.
    pub series: Vec<(String, Ccdf)>,
}

impl PopulationFigure {
    /// The paper's five series: 32/48/112-aggregates of addresses and
    /// 32/48-aggregates of /64s, over a week's population.
    pub fn figure3(week_addrs: &AddrSet) -> PopulationFigure {
        let week_64s = week_addrs.map_prefix(PrefixLen::lit::<64>());
        PopulationFigure {
            series: vec![
                (
                    "32-agg. of IPv6 addrs".into(),
                    Ccdf::of_aggregate_populations(week_addrs, PrefixLen::lit::<32>()),
                ),
                (
                    "32-agg. of /64s".into(),
                    Ccdf::of_aggregate_populations(&week_64s, PrefixLen::lit::<32>()),
                ),
                (
                    "48-agg. of IPv6 addrs".into(),
                    Ccdf::of_aggregate_populations(week_addrs, PrefixLen::lit::<48>()),
                ),
                (
                    "48-agg. of /64s".into(),
                    Ccdf::of_aggregate_populations(&week_64s, PrefixLen::lit::<48>()),
                ),
                (
                    "112-agg of IPv6 addrs".into(),
                    Ccdf::of_aggregate_populations(week_addrs, PrefixLen::lit::<112>()),
                ),
            ],
        }
    }
}

/// Figure 4: the stability time series — per-day active counts and the
/// overlap with two reference days.
#[derive(Clone, Debug)]
pub struct StabilityFigure {
    /// Observed days in order.
    pub days: Vec<Day>,
    /// Active count per day.
    pub active: Vec<usize>,
    /// Overlap with the first reference day (e.g. Mar 17).
    pub ref_a: Vec<usize>,
    /// Overlap with the second reference day (e.g. Mar 23).
    pub ref_b: Vec<usize>,
    /// The reference days.
    pub references: (Day, Day),
}

impl StabilityFigure {
    /// Computes the figure from daily observations (use the address store
    /// for Figure 4a, the /64 store for Figure 4b).
    pub fn of(
        obs: &v6census_core::temporal::DailyObservations,
        ref_a: Day,
        ref_b: Day,
    ) -> StabilityFigure {
        let series_a = obs.reference_overlap_series(ref_a);
        let series_b = obs.reference_overlap_series(ref_b);
        StabilityFigure {
            days: series_a.iter().map(|&(d, _, _)| d).collect(),
            active: series_a.iter().map(|&(_, n, _)| n).collect(),
            ref_a: series_a.iter().map(|&(_, _, o)| o).collect(),
            ref_b: series_b.iter().map(|&(_, _, o)| o).collect(),
            references: (ref_a, ref_b),
        }
    }
}

/// Figure 5a: per-ASN count distributions.
#[derive(Clone, Debug)]
pub struct AsnDistributionFigure {
    /// `(legend label, ccdf over per-ASN counts)`.
    pub series: Vec<(String, Ccdf)>,
    /// Number of ASNs with any active address.
    pub active_asns: usize,
}

impl AsnDistributionFigure {
    /// The paper's four series: active addrs, active /64s, EUI-64 addrs,
    /// and 6-month-stable /64s, per ASN.
    pub fn figure5a(
        rt: &RoutingTable,
        week_addrs: &AddrSet,
        week_eui64: &AddrSet,
        six_month_stable_64s: &AddrSet,
    ) -> AsnDistributionFigure {
        let per_asn =
            |set: &AddrSet| -> Vec<u64> { rt.count_by_asn(set).values().copied().collect() };
        let addrs = per_asn(week_addrs);
        let active_asns = addrs.len();
        AsnDistributionFigure {
            series: vec![
                ("active addresses per ASN".into(), Ccdf::new(addrs)),
                (
                    "active /64s per ASN".into(),
                    Ccdf::new(per_asn(&week_addrs.map_prefix(PrefixLen::lit::<64>()))),
                ),
                (
                    "active EUI-64 addresses per ASN".into(),
                    Ccdf::new(per_asn(week_eui64)),
                ),
                (
                    "active 6-month-stable /64s per ASN".into(),
                    Ccdf::new(per_asn(six_month_stable_64s)),
                ),
            ],
            active_asns,
        }
    }
}

/// Figure 5b: distributions of 16-bit-segment aggregation ratios across
/// BGP prefixes.
#[derive(Clone, Debug)]
pub struct SegmentRatioFigure {
    /// One box per 16-bit segment: `(segment start bit, stats)`.
    pub boxes: Vec<(PrefixLen, BoxStats)>,
    /// Number of BGP prefixes that contributed.
    pub prefixes: usize,
}

impl SegmentRatioFigure {
    /// Computes the figure: per BGP prefix with at least `min_addrs`
    /// active addresses, the γ¹⁶ ratio at each 16-bit segment; then the
    /// distribution of each segment's ratios across prefixes.
    pub fn figure5b(
        rt: &RoutingTable,
        week_addrs: &AddrSet,
        min_addrs: usize,
    ) -> SegmentRatioFigure {
        let groups = rt.group_by_prefix(week_addrs);
        let mut per_segment: BTreeMap<PrefixLen, Vec<f64>> = BTreeMap::new();
        let mut prefixes = 0usize;
        for set in groups.values() {
            if set.len() < min_addrs {
                continue;
            }
            prefixes += 1;
            let mra = MraCurve::of(set);
            for (p, r) in mra.curve(MraResolution::Segment16) {
                per_segment.entry(p).or_default().push(r);
            }
        }
        SegmentRatioFigure {
            boxes: per_segment
                .into_iter()
                .filter_map(|(p, v)| BoxStats::of(&v).map(|b| (p, b)))
                .collect(),
            prefixes,
        }
    }
}

/// §1 highlights: ASN concentration numbers.
#[derive(Clone, Debug)]
pub struct AsnHighlights {
    /// Share of active /64s in the top five ASNs.
    pub top5_share_64s: f64,
    /// Share of active addresses in the top five ASNs.
    pub top5_share_addrs: f64,
    /// The top five ASNs by client address count.
    pub top5_asns: Vec<u32>,
    /// Share of 6-month-common /64s that sit in a single ASN.
    pub six_month_single_asn_share: f64,
}

/// Computes the §1 highlight numbers.
pub fn asn_highlights(
    rt: &RoutingTable,
    week_addrs: &AddrSet,
    six_month_common_64s: &AddrSet,
) -> AsnHighlights {
    let addr_counts = rt.count_by_asn(week_addrs);
    let p64_counts = rt.count_by_asn(&week_addrs.map_prefix(PrefixLen::lit::<64>()));
    let mut ranked: Vec<(u32, u64)> = addr_counts.iter().map(|(&a, &c)| (a, c)).collect();
    ranked.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let top5: Vec<u32> = ranked.iter().take(5).map(|&(a, _)| a).collect();
    let share = |counts: &BTreeMap<u32, u64>| -> f64 {
        let total: u64 = counts.values().sum();
        if total == 0 {
            return 0.0;
        }
        let top: u64 = top5.iter().filter_map(|a| counts.get(a)).sum();
        top as f64 / total as f64
    };
    let six_counts = rt.count_by_asn(six_month_common_64s);
    let six_total: u64 = six_counts.values().sum();
    let six_max = six_counts.values().copied().max().unwrap_or(0);
    AsnHighlights {
        top5_share_64s: share(&p64_counts),
        top5_share_addrs: share(&addr_counts),
        top5_asns: top5,
        six_month_single_asn_share: if six_total == 0 {
            0.0
        } else {
            six_max as f64 / six_total as f64
        },
    }
}

/// Convenience: the week union of "Other" addresses starting at `first`.
pub fn week_other(census: &Census, first: Day) -> AddrSet {
    census.other_over(first.range_inclusive(first + 6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_synth::{world::asns, world::epochs, World, WorldConfig};

    fn setup() -> (World, Census, RoutingTable) {
        let w = World::standard(WorldConfig::tiny(23));
        let d = epochs::mar2015();
        let c = Census::run(&w, d, d + 6);
        let rt = RoutingTable::of(&w, d);
        (w, c, rt)
    }

    #[test]
    fn mra_figure_has_three_curves() {
        let (_, c, _) = setup();
        let week = week_other(&c, epochs::mar2015());
        let f = MraFigure::of("all", &week);
        assert_eq!(f.curves.len(), 3);
        assert_eq!(f.total as usize, week.len());
        let bits = f.curve(MraResolution::SingleBit).unwrap();
        assert_eq!(bits.len(), 128);
        let segs = f.curve(MraResolution::Segment16).unwrap();
        assert_eq!(segs.len(), 8);
    }

    #[test]
    fn figure3_series_shapes() {
        let (_, c, _) = setup();
        let week = week_other(&c, epochs::mar2015());
        let f = PopulationFigure::figure3(&week);
        assert_eq!(f.series.len(), 5);
        // The /112 aggregate curve has the lowest mass at high counts
        // (the paper's "lowest curve").
        let find = |label: &str| {
            f.series
                .iter()
                .find(|(l, _)| l.contains(label))
                .map(|(_, c)| c)
                .unwrap()
        };
        let agg112 = find("112-agg");
        let agg32 = find("32-agg. of IPv6");
        assert!(agg32.proportion_ge(10) >= agg112.proportion_ge(10));
    }

    #[test]
    fn figure4_series() {
        let w = World::standard(WorldConfig::tiny(23));
        let d = epochs::mar2015();
        let c = Census::run(&w, d - 3, d + 3);
        let f = StabilityFigure::of(c.other_daily(), d, d + 1);
        assert_eq!(f.days.len(), 7);
        // Overlap with a reference never exceeds the day's active count,
        // and the reference day overlaps itself fully.
        for i in 0..f.days.len() {
            assert!(f.ref_a[i] <= f.active[i]);
        }
        let ref_idx = f.days.iter().position(|&x| x == d).unwrap();
        assert_eq!(f.ref_a[ref_idx], f.active[ref_idx]);
    }

    #[test]
    fn figure5a_and_highlights() {
        let (_, c, rt) = setup();
        let d = epochs::mar2015();
        let week = week_other(&c, d);
        let eui = c.eui64_over(d.range_inclusive(d + 6));
        let stable64 = week.map_prefix(PrefixLen::lit::<64>()); // stand-in for the test
        let f = AsnDistributionFigure::figure5a(&rt, &week, &eui, &stable64);
        assert_eq!(f.series.len(), 4);
        assert!(f.active_asns > 10);

        let h = asn_highlights(&rt, &week, &stable64);
        assert!(h.top5_asns.contains(&asns::MOBILE_A));
        assert!(h.top5_share_64s > 0.5, "top5 {:.3}", h.top5_share_64s);
        assert!(h.top5_share_addrs > 0.3);
        assert!(h.top5_share_64s <= 1.0 && h.top5_share_addrs <= 1.0);
    }

    #[test]
    fn figure5b_box_ordering() {
        let (_, c, rt) = setup();
        let week = week_other(&c, epochs::mar2015());
        let f = SegmentRatioFigure::figure5b(&rt, &week, 20);
        assert!(f.prefixes > 3, "{} prefixes", f.prefixes);
        assert_eq!(f.boxes.len(), 8);
        for (p, b) in &f.boxes {
            assert!(b.min >= 1.0 && b.max <= 65536.0, "segment {p}: {b:?}");
        }
    }
}
