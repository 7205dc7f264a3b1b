//! End-to-end integration: world → logs → census → classifiers →
//! reports, with cross-crate invariants.

use v6census::census::tables::{table1, EpochSpec, Table2, Table3};
use v6census::census::{Census, RoutingTable};
use v6census::prelude::*;
use v6census::synth::router::ProbeSim;
use v6census::synth::world::epochs;
use v6census_addr::PrefixLen;

fn small_world() -> World {
    World::standard(WorldConfig {
        seed: 41,
        scale: 0.02,
    })
}

#[test]
fn full_pipeline_is_deterministic() {
    let d = epochs::mar2015();
    let run = || {
        let w = small_world();
        let c = Census::run(&w, d - 2, d + 2);
        let stable = c.other_daily().stable_on(d, &StabilityParams::three_day());
        (c.summary(d).unwrap().total(), stable.len())
    };
    assert_eq!(run(), run());
}

#[test]
fn table1_percentages_partition() {
    let w = small_world();
    let d = epochs::mar2015();
    let c = Census::run(&w, d, d + 6);
    let specs = [EpochSpec {
        label: "Mar 17, 2015",
        reference: d,
    }];
    let (daily, weekly) = table1(&c, &specs);
    for col in daily.columns.iter().chain(&weekly.columns) {
        let sum = col.teredo + col.isatap + col.sixtofour + col.other;
        assert_eq!(sum, col.total());
        assert!(col.eui64 <= col.other, "EUI-64 must be within Other");
        assert!(col.eui64_macs <= col.eui64);
        assert!(col.other_64s <= col.other);
    }
}

#[test]
fn table2_classes_partition_actives() {
    let w = small_world();
    let d = epochs::mar2015();
    let c = Census::run(&w, d - 7, d + 13);
    let specs = [EpochSpec {
        label: "Mar 17, 2015",
        reference: d,
    }];
    let params = StabilityParams::three_day();
    let t = Table2::daily("addrs", c.other_daily(), &specs, params);
    let col = &t.columns[0];
    assert_eq!(
        col.total() as usize,
        c.other_daily().on(d).len(),
        "stable + not-stable must equal the day's actives"
    );
    let tw = Table2::weekly("addrs", c.other_daily(), &specs, params);
    let colw = &tw.columns[0];
    let weekly_active = c.other_over(d.range_inclusive(d + 6));
    assert_eq!(colw.total() as usize, weekly_active.len());
    // /64 stability dominates address stability (paper's Table 2
    // structural relationship).
    let t64 = Table2::daily("64s", c.other64_daily(), &specs, params);
    let frac = |c: &v6census::census::tables::Table2Column| c.stable as f64 / c.total() as f64;
    assert!(frac(&t64.columns[0]) > frac(col) * 2.0);
}

#[test]
fn table3_rows_are_internally_consistent() {
    let w = small_world();
    let d = epochs::mar2015();
    let sim = ProbeSim::new(&w, d);
    let routers = sim.router_dataset(&[]);
    let t3 = Table3::compute(&routers);
    for r in &t3.rows {
        assert!(
            r.covered_addresses >= r.class.n * r.dense_prefixes as u64 || r.dense_prefixes == 0,
            "{}: covered {} below n × prefixes",
            r.class,
            r.covered_addresses
        );
        assert!(r.covered_addresses as usize <= routers.len());
        if r.dense_prefixes > 0 {
            let span = 1u128 << r.class.p.host_bits();
            assert_eq!(r.possible_addresses % span, 0);
            assert!(r.density() > 0.0 && r.density() <= 1.0);
        }
    }
    // Same n: longer p ⇒ denser blocks.
    let d124 = &t3.rows[0]; // 2@/124
    let d104 = &t3.rows[11]; // 2@/104
    if d124.dense_prefixes > 0 && d104.dense_prefixes > 0 {
        assert!(d124.density() > d104.density());
    }
}

#[test]
fn routing_attribution_total_consistency() {
    let w = small_world();
    let d = epochs::mar2015();
    let c = Census::run(&w, d, d);
    let rt = RoutingTable::of(&w, d);
    let other = c.other_daily().on(d);
    let counts = rt.count_by_asn(&other);
    assert_eq!(counts.values().sum::<u64>() as usize, other.len());
    // Every classified-Other address resolves to a real (non-relay) ASN.
    assert!(!counts.contains_key(&0));
    assert!(!counts.contains_key(&v6census::synth::world::asns::SIX_TO_FOUR_RELAY));
}

#[test]
fn prefix_view_commutes_with_ingestion() {
    // The /64 observation store must equal mapping each day's set.
    let w = small_world();
    let d = epochs::mar2015();
    let c = Census::run(&w, d, d + 1);
    let from_store = c.other64_daily().on(d);
    let mapped = c.other_daily().on(d).map_prefix(PrefixLen::lit::<64>());
    assert_eq!(from_store.len(), mapped.len());
    assert_eq!(
        from_store.intersection_len(&mapped),
        from_store.len(),
        "stores must hold identical /64 sets"
    );
}

#[test]
fn epoch_stability_is_symmetric_in_membership() {
    let w = small_world();
    let m15 = epochs::mar2015();
    let s14 = epochs::sep2014();
    let mut census = Census::new_empty();
    census.ingest(&w.day_log(s14));
    census.ingest(&w.day_log(m15));
    let obs = census.other_daily();
    let e = obs.epoch_stable([m15], [s14]);
    // Every 6m-stable address is active in both epochs.
    let old = obs.on(s14);
    let cur = obs.on(m15);
    for a in e.stable.iter().take(200) {
        assert!(old.contains(a) && cur.contains(a));
    }
    assert!(e.stable.len() <= old.len().min(cur.len()));
}
