//! The pipeline-equivalence gate as a test: the optimized kernels
//! (arena trie, memoized densify, merged-cursor stability) must produce
//! byte-identical outputs to the naive references they replaced, on a
//! seeded synthetic world. `pipeline_speed` enforces the same gate at
//! benchmark scale; this covers it in `cargo test` at a scale small
//! enough for CI.

use v6census_addr::PrefixLen;
use v6census_bench::naive::{naive_stable_on, NaiveTrie};
use v6census_core::temporal::{DailyObservations, StabilityParams};
use v6census_synth::world::epochs;
use v6census_synth::{World, WorldConfig};
use v6census_trie::{AddrSet, RadixTree};

fn observations(scale: f64, seed: u64) -> DailyObservations {
    let world = World::standard(WorldConfig { seed, scale });
    let reference = epochs::mar2015();
    let mut obs = DailyObservations::new();
    for day in (reference - 7).range_inclusive(reference + 13) {
        obs.record(day, AddrSet::from_iter(world.day_log(day).addrs()));
    }
    obs
}

#[test]
fn arena_trie_matches_naive_box_trie() {
    let obs = observations(0.02, 7);
    let reference = epochs::mar2015();
    let mut naive = NaiveTrie::default();
    let mut arena = RadixTree::new();
    for a in obs.on(reference).iter() {
        naive.insert_addr(a, 1);
        arena.insert_addr(a, 1);
    }
    assert!(
        !arena.entries().is_empty(),
        "seeded world produced no addresses"
    );
    assert_eq!(
        format!("{:?}", naive.entries()),
        format!("{:?}", arena.entries()),
        "arena trie preorder entries diverged from the Box-trie reference"
    );
}

#[test]
fn memoized_densify_matches_recursive_reference() {
    let obs = observations(0.02, 7);
    let reference = epochs::mar2015();
    let mut naive = NaiveTrie::default();
    let mut arena = RadixTree::new();
    for a in obs.on(reference).iter() {
        naive.insert_addr(a, 1);
        arena.insert_addr(a, 1);
    }
    for (n, p) in [
        (4u64, PrefixLen::lit::<64>()),
        (2, PrefixLen::lit::<48>()),
        (8, PrefixLen::lit::<112>()),
        (1, PrefixLen::MAX),
    ] {
        let before = naive.densify(n, p);
        let after = arena.densify(n, p);
        if n == 1 && p == PrefixLen::MAX {
            assert!(
                !after.is_empty(),
                "densify(1, 128) must report every observed host"
            );
        }
        assert_eq!(
            format!("{before:?}"),
            format!("{after:?}"),
            "densify({n}, {p}) diverged from the recursive reference"
        );
    }
}

#[test]
fn merged_cursor_stability_matches_union_of_intersections() {
    let obs = observations(0.02, 7);
    let reference = epochs::mar2015();
    for params in [
        StabilityParams::three_day(),
        StabilityParams::nd(1),
        StabilityParams::nd(7),
    ] {
        let mut witnessed_any = false;
        for d in reference.range_inclusive(reference + 6) {
            let before = naive_stable_on(&obs, d, &params);
            let after = obs.stable_on(d, &params);
            witnessed_any |= !after.is_empty();
            assert_eq!(
                format!("{before:?}"),
                format!("{after:?}"),
                "stable_on({d}) with n={} diverged from the reference",
                params.n
            );
        }
        assert!(
            params.n == 7 || witnessed_any,
            "n={} stability should witness at least one stable address",
            params.n
        );
    }
}
