//! Regenerates the **§7.2 future-work experiment**: automatically
//! discovering the stable portion of network identifiers — per-ASN
//! stability spectra with their boundaries, and the EUI-64-guided NID
//! inference of §7.1 — without any inside information.

use v6census_addr::PrefixLen;
use v6census_bench::{Opts, Snapshot};
use v6census_census::experiments::stable_nid_by_mac;
use v6census_core::temporal::{spectrum_between, Day};
use v6census_synth::world::{asns, epochs};
use v6census_trie::AddrSet;

fn main() {
    let opts = Opts::parse();
    eprintln!(
        "[stable_prefixes] building 3-epoch snapshot at scale {}…",
        opts.scale
    );
    let snap = Snapshot::build(&opts);
    let m15 = epochs::mar2015();
    let s14 = epochs::sep2014();
    let week = |d: Day| d.range_inclusive(d + 6);

    // --- Spectrum per network (address-population view) -----------------
    let cur = snap.census.other_over(week(m15));
    let old = snap.census.other_over(week(s14));
    let by_asn_cur = snap.rt.group_by_asn(&cur);
    let by_asn_old = snap.rt.group_by_asn(&old);

    let mut report = String::from(
        "Stable-prefix spectra (fraction of active /p aggregates also active 6 months ago)\n\n",
    );
    report.push_str(&format!(
        "{:<26} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}  {:>9} {:>6}\n",
        "network", "/24", "/32", "/40", "/48", "/56", "/64", "boundary", "knee"
    ));
    let interesting = [
        ("US mobile A", asns::MOBILE_A),
        ("US mobile B", asns::MOBILE_B),
        ("EU ISP (rotating NID)", asns::EU_ISP),
        ("JP ISP (static /48)", asns::JP_ISP),
        ("US broadband", asns::US_BROADBAND),
        ("university 0", asns::UNIVERSITY_FIRST),
    ];
    let empty = AddrSet::new();
    for (label, asn) in interesting {
        let c = by_asn_cur.get(&asn).unwrap_or(&empty);
        let o = by_asn_old.get(&asn).unwrap_or(&empty);
        let spec = v6census_core::temporal::stable_fraction_spectrum(
            c,
            o,
            (24..=64).step_by(8).filter_map(PrefixLen::new),
        );
        let frac = |p: u8| {
            spec.points
                .iter()
                .find(|&&(q, _, _)| q.get() == p)
                .map(|&(_, _, f)| f)
                .unwrap_or(0.0)
        };
        report.push_str(&format!(
            "{:<26} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2}  {:>8} {:>6}\n",
            label,
            frac(24),
            frac(32),
            frac(40),
            frac(48),
            frac(56),
            frac(64),
            spec.boundary(0.5)
                .map(|b| format!("/{b}"))
                .unwrap_or_else(|| "—".into()),
            spec.sharpest_drop()
                .map(|(k, _)| format!("/{k}"))
                .unwrap_or_else(|| "—".into()),
        ));
    }

    // --- Global spectrum via the observation store ----------------------
    let global = spectrum_between(
        snap.census.other_daily(),
        week(m15),
        week(s14),
        (8..=64).step_by(8).filter_map(PrefixLen::new),
    );
    report.push_str("\nglobal spectrum: ");
    for (p, _, f) in &global.points {
        report.push_str(&format!("/{p}={f:.2} "));
    }
    report.push('\n');

    // --- §7.1: EUI-64 IIDs as guides -------------------------------------
    report.push_str("\nEUI-64-guided NID inference (median stable network bits per ASN):\n");
    let inferences = stable_nid_by_mac(&snap.census, &snap.rt, m15, s14, 5);
    for (label, asn) in interesting {
        if let Some(inf) = inferences.get(&asn) {
            report.push_str(&format!(
                "  {:<26} /{:<3} ({} devices tracked)\n",
                label, inf.median_stable_bits, inf.samples
            ));
        }
    }
    opts.emit("stable_prefixes.txt", &report);
}
