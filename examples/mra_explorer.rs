//! MRA explorer: feed any list of IPv6 addresses (one per line on stdin)
//! and get the Multi-Resolution Aggregate plot, the aggregate counts, and
//! the dense-prefix classes — the paper's §5.2 toolkit as a command-line
//! tool.
//!
//! ```text
//! # Explore your own addresses:
//! cat addrs.txt | cargo run --release --example mra_explorer
//! # Or run the built-in demo population:
//! cargo run --release --example mra_explorer
//! ```

use std::io::IsTerminal;
use std::io::Read;
use v6census::census::figures::MraFigure;
use v6census::census::plot::{ascii_mra, tsv_mra};
use v6census::prelude::*;
use v6census_addr::PrefixLen;

fn main() {
    let set = read_stdin_addrs().unwrap_or_else(demo_population);
    if set.is_empty() {
        eprintln!("no parseable IPv6 addresses on stdin");
        std::process::exit(1);
    }

    let fig = MraFigure::of("input population", &set);
    println!("{}", ascii_mra(&fig));

    let mra = MraCurve::of(&set);
    let sig = mra.privacy_signature();
    println!("population      : {} addresses", set.len());
    println!("common prefix   : /{}", mra.common_prefix_len());
    println!(
        "privacy signature: {} (head {:.2}, u-bit {:.2}, flatline {:?})",
        if sig.matches() { "present" } else { "absent" },
        sig.iid_head_ratio,
        sig.u_bit_ratio,
        sig.flatline_at
    );
    println!("112–128 bit mass: {:.3}", mra.tail_prominence());

    println!("\ndense prefixes:");
    for (n, p) in [
        (2u64, PrefixLen::lit::<112>()),
        (3, PrefixLen::lit::<120>()),
        (2, PrefixLen::lit::<124>()),
    ] {
        let class = DensityClass::at(n, p);
        let report = class.report(&set);
        println!(
            "  {:<14} {:>8} prefixes, {:>8} addrs, {:>12} possible",
            class.to_string(),
            report.dense_prefixes,
            report.covered_addresses,
            report.possible_addresses
        );
    }

    eprintln!("\n# TSV (for gnuplot) follows on stderr:");
    eprintln!("{}", tsv_mra(&fig));
}

fn read_stdin_addrs() -> Option<AddrSet> {
    if std::io::stdin().is_terminal() {
        return None; // interactive invocation: use the demo
    }
    let mut buf = String::new();
    std::io::stdin().read_to_string(&mut buf).ok()?;
    let addrs: Vec<Addr> = buf.lines().filter_map(|l| l.trim().parse().ok()).collect();
    if addrs.is_empty() {
        None
    } else {
        Some(AddrSet::from_iter(addrs))
    }
}

/// A demo population mixing the paper's Figure 1 shapes: manual low IIDs,
/// a structured subnet, EUI-64 hosts, and privacy addresses.
fn demo_population() -> AddrSet {
    eprintln!("(no stdin input — using the built-in demo population)\n");
    let mut addrs: Vec<Addr> = Vec::new();
    // A dense DHCP block.
    for i in 1..=60u128 {
        addrs.push(Addr((0x2001_0db8_0010_0001u128 << 64) | i));
    }
    // Structured subnets.
    for s in 0..8u128 {
        for h in 1..=4u128 {
            addrs.push(Addr(
                ((0x2001_0db8_0167_1100u128 + s) << 64) | (0x0010 << 16) | h,
            ));
        }
    }
    // EUI-64 and privacy hosts across a few /64s.
    for d in 0..40u64 {
        let mac = Mac::from_oui_nic(0x001ec2, 0x0010_0000 + d as u32);
        let net = 0x2001_0db8_0000_1c00u128 + (d as u128 % 5);
        addrs.push(Addr((net << 64) | mac.to_modified_eui64() as u128));
        // splitmix-style pseudo IID with u-bit cleared
        let mut z = d.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(77);
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        addrs.push(Addr((net << 64) | (z & !(1 << 57)) as u128));
    }
    AddrSet::from_iter(addrs)
}
