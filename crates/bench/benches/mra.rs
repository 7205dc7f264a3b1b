//! Microbenchmarks for MRA aggregate-count and curve computation.

use v6census_addr::{Addr, PrefixLen};
use v6census_bench::timing::{black_box, Harness};
use v6census_core::spatial::{MraCurve, MraResolution};
use v6census_trie::{AddrSet, AggregateCounts};

fn population(n: u64) -> AddrSet {
    AddrSet::from_iter((0..n).map(|i| {
        let hi = 0x2400_4000_0000_0000u64 | (i % 10_007) << 16;
        let lo = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) & !(1 << 57);
        Addr(((hi as u128) << 64) | lo as u128)
    }))
}

fn main() {
    let h = Harness::from_env();

    for n in [10_000u64, 100_000, 1_000_000] {
        let set = population(n);
        h.bench(&format!("aggregate_counts/{n}"), || {
            black_box(AggregateCounts::of(&set).n(PrefixLen::lit::<64>()))
        });
    }

    let set = population(100_000);
    h.bench("mra_all_curves_100k", || {
        let mra = MraCurve::of(&set);
        let mut acc = 0.0;
        for res in [
            MraResolution::SingleBit,
            MraResolution::Nybble,
            MraResolution::Segment16,
        ] {
            acc += mra.curve(res).iter().map(|&(_, r)| r).sum::<f64>();
        }
        black_box(acc)
    });
    let mra = MraCurve::of(&set);
    h.bench("privacy_signature", || {
        black_box(mra.privacy_signature().matches())
    });
}
