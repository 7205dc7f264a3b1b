//! End-to-end pipeline tests over the subcommand functions: the
//! `synth | classify | dense | targets | stability` workflows a user
//! would run through shell pipes, exercised without spawning processes.

#![allow(
    clippy::disallowed_methods,
    reason = "integration tests build their fixtures with std::fs"
)]

use v6census_cli::commands::{
    aggregate, classify, dense, mra, profile, ptr, spectrum, stability, synth, targets,
};
use v6census_cli::Flags;

fn flags(command: &str, args: &[&str]) -> Flags {
    Flags::parse(
        command,
        &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    )
    .unwrap()
}

/// Strips the hits/kind columns from a synth log, leaving bare addresses.
fn addrs_only(log: &str) -> String {
    log.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_whitespace().next())
        .map(|a| format!("{a}\n"))
        .collect()
}

#[test]
fn synth_feeds_every_analysis_command() {
    let log = synth(&flags(
        "synth",
        &["--scale", "0.005", "--day", "2015-03-17"],
    ))
    .unwrap();
    let addrs = addrs_only(&log);
    assert!(addrs.lines().count() > 500);

    // classify: histogram covers the expected schemes.
    let c = classify(&addrs, &flags("classify", &[])).unwrap();
    for label in ["pseudorandom", "6to4", "low-iid", "eui64"] {
        assert!(c.contains(label), "classify output missing {label}");
    }

    // mra: renders with all three resolutions.
    let m = mra(&addrs, &flags("mra", &["--title", "pipeline"])).unwrap();
    assert!(m.contains("pipeline"));
    assert!(m.contains("single bits"));

    // dense: server blocks guarantee dense /112s.
    let d = dense(&addrs, &flags("dense", &["--class", "2@/112"])).unwrap();
    assert!(d.lines().any(|l| l.contains("/112\t")), "{d}");

    // aggregate: n_0 = 1 row present.
    let a = aggregate(&addrs, &flags("aggregate", &[])).unwrap();
    assert!(a.lines().any(|l| l.starts_with("0\t1\t")));

    // targets: produces probe candidates from the dense blocks.
    let t = targets(&addrs, &flags("targets", &["--budget", "50"])).unwrap();
    assert_eq!(t.lines().filter(|l| !l.starts_with('#')).count(), 50);

    // profile: conserves total hits from the weighted log.
    let p = profile(&log, &flags("profile", &["--threshold", "0.02"])).unwrap();
    assert!(p.contains("aguri profile"));

    // ptr: roundtrip through ip6.arpa for the first few addresses.
    let few: String = addrs.lines().take(5).map(|l| format!("{l}\n")).collect();
    let names = ptr(&few, &flags("ptr", &[])).unwrap();
    let back = ptr(&names, &flags("ptr", &["--reverse"])).unwrap();
    assert_eq!(back, few);
}

#[test]
fn cross_epoch_and_daily_stability_agree_on_direction() {
    // Two epochs of synthetic logs.
    let now = addrs_only(
        &synth(&flags(
            "synth",
            &["--scale", "0.005", "--day", "2015-03-17"],
        ))
        .unwrap(),
    );
    let before = addrs_only(
        &synth(&flags(
            "synth",
            &["--scale", "0.005", "--day", "2014-09-17"],
        ))
        .unwrap(),
    );
    let dir = std::env::temp_dir().join(format!("v6census-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let curve = spectrum(&now, &before, &flags("stable", &["--earlier", "unread"])).unwrap();
    assert!(curve.contains("stable boundary"), "{curve}");

    // Daily files across one window.
    let days = dir.join("days");
    std::fs::create_dir_all(&days).unwrap();
    for d in 14..=20 {
        let date = format!("2015-03-{d}");
        let text =
            addrs_only(&synth(&flags("synth", &["--scale", "0.005", "--day", &date])).unwrap());
        std::fs::write(days.join(format!("{date}.txt")), text).unwrap();
    }
    let days = days.to_string_lossy();
    let report = stability(&flags(
        "stability",
        &["--dir", &days, "--reference", "2015-03-17"],
    ))
    .unwrap();
    assert!(report.contains("3d-stable (-7d,+7d)"));
    // /64 stability exceeds address stability (the paper's headline
    // ordering) — parse the two percentages.
    let pcts: Vec<f64> = report
        .lines()
        .filter(|l| l.contains("  3d-stable (-7d,+7d)") && l.trim_end().ends_with("%)"))
        .filter_map(|l| {
            l.rsplit('(')
                .next()?
                .trim_end_matches(')')
                .trim_end_matches('%')
                .parse()
                .ok()
        })
        .collect();
    assert_eq!(pcts.len(), 2, "{report}");
    assert!(pcts[1] > pcts[0], "addr {} vs /64 {}", pcts[0], pcts[1]);
    std::fs::remove_dir_all(&dir).unwrap();
}
