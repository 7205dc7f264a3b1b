//! Quickstart: build a small synthetic world, run the census for one
//! window, and apply both classifiers — the 60-second tour of the API.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use v6census::prelude::*;
use v6census_addr::PrefixLen;

fn main() {
    // A deterministic world at ~2% of the default population: big enough
    // to show every phenomenon, small enough to run in about a second.
    let world = World::standard(WorldConfig {
        seed: 7,
        scale: 0.05,
    });
    let reference = Day::from_ymd(2015, 3, 17);

    // Ingest the ±7-day window of aggregated CDN logs around the
    // reference day. The census culls Teredo/ISATAP/6to4 from the
    // "Other" (native IPv6) population, as §4.1 of the paper does.
    let census = Census::run(&world, reference - 7, reference + 7);
    let today = census.summary(reference).expect("day ingested");
    println!(
        "{}: {} active addrs ({} other, {} 6to4, {} teredo, {} isatap)",
        reference,
        today.total(),
        today.other.len(),
        today.sixtofour.len(),
        today.teredo.len(),
        today.isatap.len()
    );
    println!(
        "active /64s: {}  (avg {:.2} addrs per /64)",
        today.other_64s().len(),
        today.other.len() as f64 / today.other_64s().len() as f64
    );

    // --- Temporal classification (§5.1) --------------------------------
    let params = StabilityParams::three_day(); // "3d-stable (-7d,+7d)"
    let stable = census.other_daily().stable_on(reference, &params);
    let stable64 = census.other64_daily().stable_on(reference, &params);
    println!(
        "\n{}: {} of {} addrs ({:.1}%), {} of {} /64s ({:.1}%)",
        params.label(),
        stable.len(),
        today.other.len(),
        100.0 * stable.len() as f64 / today.other.len() as f64,
        stable64.len(),
        today.other_64s().len(),
        100.0 * stable64.len() as f64 / today.other_64s().len() as f64,
    );

    // --- Spatial classification (§5.2) ---------------------------------
    let actives = census.other_daily().on(reference);
    let mra = MraCurve::of(&actives);
    let sig = mra.privacy_signature();
    println!(
        "\nMRA of all actives: γ¹⁶ at /32 = {:.1}, privacy signature: {}",
        mra.ratio(PrefixLen::lit::<32>(), MraResolution::Segment16),
        if sig.matches() { "present" } else { "absent" }
    );

    let class = DensityClass::at(2, PrefixLen::lit::<112>());
    let report = class.report(&actives);
    println!(
        "{}: {} dense prefixes covering {} addrs ({} possible probe targets)",
        class, report.dense_prefixes, report.covered_addresses, report.possible_addresses
    );

    // --- Content-based scheme classification (§3) ----------------------
    let sample: Vec<Addr> = actives.iter().take(3).collect();
    println!("\nsample classifications:");
    for a in sample {
        println!("  {a} -> {}", v6census::addr::scheme::classify(a).label());
    }
}
