//! Shape tests: the qualitative findings of the paper must hold in the
//! synthetic reproduction at test scale. These are the "who wins, by
//! roughly what factor" criteria of DESIGN.md §6, cast as assertions.

use v6census::census::figures::{asn_highlights, SegmentRatioFigure};
use v6census::census::{Census, RoutingTable};
use v6census::prelude::*;
use v6census::synth::world::{asns, epochs};
use v6census_addr::PrefixLen;

struct Setup {
    census: Census,
    rt: RoutingTable,
    week: AddrSet,
}

fn setup(scale: f64) -> Setup {
    let world = World::standard(WorldConfig { seed: 101, scale });
    let d = epochs::mar2015();
    let census = Census::run(&world, d - 7, d + 13);
    let rt = RoutingTable::of(&world, d);
    let week = census.other_over(d.range_inclusive(d + 6));
    Setup { census, rt, week }
}

#[test]
fn six_to_four_share_declines_while_counts_grow() {
    let world = World::standard(WorldConfig {
        seed: 101,
        scale: 0.02,
    });
    let mut shares = Vec::new();
    let mut others = Vec::new();
    for e in [epochs::mar2014(), epochs::sep2014(), epochs::mar2015()] {
        let mut c = Census::new_empty();
        c.ingest(&world.day_log(e));
        let s = c.summary(e).unwrap();
        shares.push(s.sixtofour.len() as f64 / s.total() as f64);
        others.push(s.other.len());
    }
    assert!(shares[0] > shares[1] && shares[1] > shares[2], "{shares:?}");
    assert!(others[0] < others[1] && others[1] < others[2], "{others:?}");
}

#[test]
fn stability_orderings_match_table2() {
    let s = setup(0.02);
    let d = epochs::mar2015();
    let params = StabilityParams::three_day();
    let day_active = s.census.other_daily().on(d).len() as f64;
    let day_stable = s.census.other_daily().stable_on(d, &params).len() as f64;
    let day64_active = s.census.other64_daily().on(d).len() as f64;
    let day64_stable = s.census.other64_daily().stable_on(d, &params).len() as f64;
    let addr_frac = day_stable / day_active;
    let p64_frac = day64_stable / day64_active;
    // Paper: addresses ~9%, /64s ~90%.
    assert!(
        (0.04..0.25).contains(&addr_frac),
        "daily addr 3d-stable fraction {addr_frac:.3}"
    );
    assert!(p64_frac > 0.8, "daily /64 3d-stable fraction {p64_frac:.3}");
    assert!(p64_frac > 4.0 * addr_frac);

    // Weekly address stability fraction is lower than daily (Table 2c
    // vs 2a) because the weekly union is dominated by ephemeral addrs.
    let weekly = s.census.other_daily().stable_over_week(d, &params);
    let weekly_frac = weekly.stable.len() as f64 / weekly.active.len() as f64;
    assert!(
        weekly_frac < addr_frac,
        "weekly {weekly_frac:.3} vs daily {addr_frac:.3}"
    );
}

#[test]
fn top5_asns_dominate() {
    let s = setup(0.02);
    let d = epochs::mar2015();
    let six = s
        .census
        .other64_daily()
        .epoch_stable(d.range_inclusive(d + 6), d.range_inclusive(d + 6))
        .stable;
    let h = asn_highlights(&s.rt, &s.week, &six);
    assert!(
        h.top5_share_64s > 0.6,
        "top-5 /64 share {:.3}",
        h.top5_share_64s
    );
    for asn in [asns::MOBILE_A, asns::MOBILE_B] {
        assert!(
            h.top5_asns.contains(&asn),
            "mobile carriers must rank top-5: {:?}",
            h.top5_asns
        );
    }
}

#[test]
fn eu_prefix_shows_privacy_signature_jp_shows_static_structure() {
    let s = setup(0.02);
    let by_asn = s.rt.group_by_asn(&s.week);
    let eu = MraCurve::of(&by_asn[&asns::EU_ISP]);
    let jp = MraCurve::of(&by_asn[&asns::JP_ISP]);
    // Both populations are dominated by privacy IIDs in the low 64 bits.
    assert!(
        eu.privacy_signature().matches(),
        "{:?}",
        eu.privacy_signature()
    );
    assert!(
        jp.privacy_signature().matches(),
        "{:?}",
        jp.privacy_signature()
    );
    // JP: the 48-64 segment shows no aggregation (constant subnet 0);
    // EU: that segment carries the rotating NID, so it aggregates a lot.
    let jp_4864 = jp.ratio(PrefixLen::lit::<48>(), MraResolution::Segment16);
    let eu_4864 = eu.ratio(PrefixLen::lit::<48>(), MraResolution::Segment16);
    assert!(jp_4864 < 1.2, "JP 48-64 γ¹⁶ {jp_4864:.2}");
    assert!(eu_4864 > 2.0 * jp_4864, "EU 48-64 γ¹⁶ {eu_4864:.2}");
}

#[test]
fn mobile_carrier_fills_the_44_64_segment() {
    let s = setup(0.02);
    let by_asn = s.rt.group_by_asn(&s.week);
    let mob = MraCurve::of(&by_asn[&asns::MOBILE_A]);
    // Figure 5e: heavy aggregation in the pool segment, none beyond /64
    // except the trivial IID sparsity.
    let pool = mob.ratio(PrefixLen::lit::<48>(), MraResolution::Segment16);
    assert!(pool > 5.0, "pool segment γ¹⁶ {pool:.1}");
    assert!(
        !mob.privacy_signature().matches(),
        "mobile IIDs are mostly fixed"
    );
}

#[test]
fn dense_department_dominates_its_64() {
    let s = setup(0.02);
    let by_asn = s.rt.group_by_asn(&s.week);
    let uni0 = &by_asn[&asns::UNIVERSITY_FIRST];
    let dense = v6census::trie::dense_prefixes_at(uni0, 2, 64);
    let dept = dense.iter().max_by_key(|d| d.count).expect("dense dept");
    assert!(dept.count > 40, "dept only {} hosts", dept.count);
    // Figure 5g: the tail (112-128) carries almost all the structure.
    let members = AddrSet::from_iter(uni0.iter().filter(|&a| dept.prefix.contains_addr(a)));
    let mra = MraCurve::of(&members);
    assert!(mra.tail_prominence() > 0.5, "{:.3}", mra.tail_prominence());
}

#[test]
fn figure5b_aggregation_concentrates_between_32_and_80() {
    let s = setup(0.02);
    let f = SegmentRatioFigure::figure5b(&s.rt, &s.week, 20);
    let median_at = |p: u8| {
        f.boxes
            .iter()
            .find(|&&(q, _)| q.get() == p)
            .map(|&(_, b)| b.median)
            .unwrap_or(1.0)
    };
    // Paper: "most aggregation takes place across the three 16-bit
    // segments between bits 32 and 80".
    let inside = median_at(32) + median_at(48) + median_at(64);
    let outside = median_at(0) + median_at(16) + median_at(96) + median_at(112);
    assert!(inside > outside, "inside {inside:.2} outside {outside:.2}");
}

#[test]
fn reference_day_overlap_steps_down_with_distance() {
    let s = setup(0.02);
    let d = epochs::mar2015();
    let series = s.census.other_daily().reference_overlap_series(d);
    let at = |delta: i32| {
        series
            .iter()
            .find(|&&(day, _, _)| day == d + delta)
            .map(|&(_, _, o)| o)
            .unwrap()
    };
    // Figure 4a: large ±1-day overlap (lifetime straddle), stepping down.
    assert!(at(1) > at(3), "±1 {} vs ±3 {}", at(1), at(3));
    assert!(at(-1) > at(-3));
    assert!(at(0) >= at(1));
}

#[test]
fn half_of_asns_have_dense_client_regions() {
    // §1 highlight: "49% of active IPv6 ASNs have BGP prefixes
    // containing such regions, e.g., /112 prefixes containing multiple
    // active WWW client addresses." Shape: a sizeable minority.
    let s = setup(0.02);
    let by_asn = s.rt.group_by_asn(&s.week);
    let with_dense = by_asn
        .values()
        .filter(|set| !v6census::trie::dense_prefixes_at(set, 2, 112).is_empty())
        .count();
    let frac = with_dense as f64 / by_asn.len() as f64;
    assert!((0.15..0.95).contains(&frac), "dense-ASN fraction {frac:.3}");
}
