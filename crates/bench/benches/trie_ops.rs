//! Microbenchmarks for the Patricia trie: inserts, longest-prefix match,
//! and subtree counting.

use v6census_addr::{Addr, Prefix, PrefixLen};
use v6census_bench::timing::{black_box, Harness};
use v6census_trie::{PrefixMap, RadixTree};

fn synth_addrs(n: u64) -> Vec<Addr> {
    (0..n)
        .map(|i| {
            let hi = 0x2001_0db8_0000_0000u64 | (i % 997) << 4;
            let lo = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            Addr(((hi as u128) << 64) | lo as u128)
        })
        .collect()
}

fn main() {
    let h = Harness::from_env();

    for n in [1_000u64, 10_000, 100_000] {
        let addrs = synth_addrs(n);
        h.bench(&format!("trie_insert/{n}"), || {
            let mut t = RadixTree::new();
            for &a in &addrs {
                t.insert_addr(a, 1);
            }
            black_box(t.total())
        });
    }

    let mut rt: PrefixMap<u32> = PrefixMap::new();
    for i in 0..5_000u32 {
        let p = Prefix::new(
            Addr(((0x2000u128 + (i as u128 % 0x800)) << 112) | ((i as u128) << 80)),
            PrefixLen::lit::<48>(),
        );
        rt.insert(p, i);
    }
    let probes = synth_addrs(10_000);
    h.bench("prefix_map_lpm_10k", || {
        let mut hits = 0usize;
        for &a in &probes {
            if rt.longest_match(a).is_some() {
                hits += 1;
            }
        }
        black_box(hits)
    });

    let addrs = synth_addrs(50_000);
    let mut t = RadixTree::new();
    for &a in &addrs {
        t.insert_addr(a, 1);
    }
    let probes: Vec<Prefix> = (0..1_000u64)
        .map(|i| {
            Prefix::new(
                addrs[(i * 37 % addrs.len() as u64) as usize],
                PrefixLen::lit::<64>(),
            )
        })
        .collect();
    h.bench("count_within_1k_probes", || {
        let mut acc = 0u64;
        for &p in &probes {
            acc += t.count_within(p);
        }
        black_box(acc)
    });
}
