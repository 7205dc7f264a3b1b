//! Reverse-engineering operator address plans from the outside (§6.2.1,
//! §7.2): compute MRA plots per ASN, read off their structural
//! signatures, and track EUI-64 interface identifiers across /64s — the
//! "persistent, unique IIDs [that] serve as guides ... in areas of the
//! IPv6 address space".
//!
//! ```text
//! cargo run --release --example address_plan_discovery
//! ```

use std::collections::BTreeMap;
use v6census::census::{Census, RoutingTable};
use v6census::prelude::*;
use v6census::synth::world::{asns, epochs};
use v6census_addr::PrefixLen;

fn main() {
    let world = World::standard(WorldConfig {
        seed: 3,
        scale: 0.1,
    });
    let first = epochs::mar2015();
    println!("ingesting one week starting {first}…");
    let census = Census::run(&world, first, first + 6);
    let rt = RoutingTable::of(&world, first);
    let week = census.other_over(first.range_inclusive(first + 6));
    let by_asn = rt.group_by_asn(&week);

    for (label, asn) in [
        ("US mobile carrier", asns::MOBILE_A),
        ("EU ISP (rotating NIDs)", asns::EU_ISP),
        ("JP ISP (static /48s)", asns::JP_ISP),
        ("university", asns::UNIVERSITY_FIRST),
    ] {
        let Some(set) = by_asn.get(&asn) else {
            continue;
        };
        let mra = MraCurve::of(set);
        println!("\n=== {label} (AS{asn}) — {} weekly addrs ===", set.len());
        println!("  common (BGP-like) prefix: /{}", mra.common_prefix_len());

        // Where does the network put its subnetting entropy?
        let mut busiest = (PrefixLen::ZERO, 1.0f64);
        for p in PrefixLen::all().step_by(16).take(8) {
            let r = mra.ratio(p, MraResolution::Segment16);
            if r > busiest.1 && p.get() < 64 {
                busiest = (p, r);
            }
            println!("    γ¹⁶ at {:>3}: {:>10.2}", p, r);
        }
        println!(
            "  heaviest network-side segment: bits {}..{}",
            busiest.0,
            busiest.0.get() + 16
        );
        let sig = mra.privacy_signature();
        println!(
            "  privacy-extension signature: {} (u-bit ratio {:.3})",
            if sig.matches() { "PRESENT" } else { "absent" },
            sig.u_bit_ratio
        );
        println!("  112–128 bit prominence: {:.3}", mra.tail_prominence());

        // EUI-64 IIDs as guides: how many /64s does one device visit?
        let mut per_mac: BTreeMap<Mac, Vec<u64>> = BTreeMap::new();
        for a in set.iter() {
            if let Some(mac) = Iid::of(a).eui64_mac() {
                per_mac.entry(mac).or_default().push(a.network_bits());
            }
        }
        let (mut single, mut multi) = (0, 0);
        for nets in per_mac.values_mut() {
            nets.sort_unstable();
            nets.dedup();
            if nets.len() == 1 {
                single += 1;
            } else {
                multi += 1;
            }
        }
        if single + multi > 0 {
            println!(
                "  EUI-64 IIDs: {} stay in one /64, {} roam (dynamic prefixes!)",
                single, multi
            );
        }
    }
}
