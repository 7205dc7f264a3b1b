//! The DESIGN.md ablation: the paper's trie-based densify (§5.2.3)
//! versus the sort-based fast path (footnote 3), on identical inputs.

use v6census_addr::{Addr, PrefixLen};
use v6census_bench::timing::{black_box, Harness};
use v6census_trie::{dense_prefixes_at, AddrSet, RadixTree};

/// A population with realistic clustering: dense server blocks plus
/// sparse privacy addresses.
fn population(n: u64) -> AddrSet {
    let mut addrs = Vec::with_capacity(n as usize);
    for i in 0..n {
        if i % 4 == 0 {
            // Dense block member: sequential low IIDs.
            let block = (i / 256) % 64;
            addrs.push(Addr(
                ((0x2604_0000_0000_0000u128 + block as u128) << 64) | (1 + i % 256) as u128,
            ));
        } else {
            // Sparse pseudorandom address.
            let hi = 0x2a00_8000_0000_0000u64 | (i % 4_001) << 8;
            let lo = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            addrs.push(Addr(((hi as u128) << 64) | lo as u128));
        }
    }
    AddrSet::from_iter(addrs)
}

fn main() {
    let h = Harness::from_env();

    for n in [10_000u64, 100_000] {
        let set = population(n);
        h.bench(&format!("densify_2_at_112/sorted_scan/{n}"), || {
            black_box(dense_prefixes_at(&set, 2, 112).len())
        });
        h.bench(&format!("densify_2_at_112/trie_general/{n}"), || {
            let mut t = RadixTree::new();
            for a in set.iter() {
                t.insert_addr(a, 1);
            }
            black_box(t.densify(2, PrefixLen::lit::<112>()).len())
        });
        h.bench(&format!("densify_2_at_112/trie_in_place/{n}"), || {
            let mut t = RadixTree::new();
            for a in set.iter() {
                t.insert(v6census_addr::Prefix::new(a, PrefixLen::lit::<112>()), 1);
            }
            black_box(t.densify_in_place(2, PrefixLen::lit::<112>()).len())
        });
    }

    let set = population(50_000);
    h.bench("table3_parameter_space", || {
        let mut total = 0usize;
        for class in v6census_census::tables::table3_classes() {
            total += class.dense_prefixes(&set).len();
        }
        black_box(total)
    });
}
