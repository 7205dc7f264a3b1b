//! Counting IPv6 "users" (§7.1): how badly do active-/64 counts estimate
//! subscriber counts under different addressing practices?
//!
//! The paper's conclusion: /64 counts can miscount devices "by a factor
//! of 100 in either direction" depending on per-network practice. The
//! synthetic world has ground truth, so this example measures the bias
//! per archetype directly.
//!
//! ```text
//! cargo run --release --example counting_subscribers
//! ```

use v6census::census::{Census, RoutingTable};
use v6census::prelude::*;
use v6census::synth::world::growth;
use v6census::synth::world::{asns, epochs};
use v6census_addr::PrefixLen;

fn main() {
    let world = World::standard(WorldConfig {
        seed: 5,
        scale: 0.1,
    });
    let first = epochs::mar2015();
    println!("ingesting one week starting {first}…\n");
    let census = Census::run(&world, first, first + 6);
    let rt = RoutingTable::of(&world, first);
    let week = census.other_over(first.range_inclusive(first + 6));
    let by_asn = rt.group_by_asn(&week);
    let g = growth(first).min(1.0);

    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>8}",
        "network", "subscribers", "weekly /64s", "weekly addrs", "64s/sub"
    );
    for (label, asn) in [
        ("US mobile A (dynamic /64)", asns::MOBILE_A),
        ("US mobile B (dynamic /64)", asns::MOBILE_B),
        ("EU ISP (rotating NID)", asns::EU_ISP),
        ("JP ISP (static /48)", asns::JP_ISP),
        ("US broadband (DHCPv6-PD)", asns::US_BROADBAND),
        ("university 0 (shared /64s)", asns::UNIVERSITY_FIRST),
    ] {
        let Some(set) = by_asn.get(&asn) else {
            continue;
        };
        let subs = (world.network(asn).unwrap().max_subscribers as f64 * g) as u64;
        let p64s = set.map_prefix(PrefixLen::lit::<64>()).len();
        let ratio = p64s as f64 / subs as f64;
        println!(
            "{label:<28} {subs:>12} {p64s:>12} {:>12} {ratio:>8.2}",
            set.len()
        );
    }

    println!(
        "\nA ratio ≫ 1 (mobile pools) over-counts subscribers; ≪ 1 (shared\n\
         /64s, e.g. a university department) under-counts. Only networks\n\
         with one stable /64 per subscriber give ratios near the weekly\n\
         visit fraction — the paper's conclusion that counting requires\n\
         per-network knowledge of addressing practice."
    );

    // The extreme under-count case: the dense DHCPv6 department puts
    // ~100 hosts behind a single /64 (Figure 5g).
    let uni0 = &by_asn[&asns::UNIVERSITY_FIRST];
    if let Some(dept) = v6census::trie::dense_prefixes(uni0, 2, PrefixLen::lit::<64>())
        .into_iter()
        .max_by_key(|d| d.count)
    {
        println!(
            "\ndense department: {} active hosts behind one /64 ({}) —\n\
             counting /64s under-counts this population {}x.",
            dept.count, dept.prefix, dept.count
        );
    }
}
