//! End-to-end test of `v6census census`: a fault-injected multi-day
//! directory ingests without panicking, the health report names each
//! fault, and an interrupted-then-resumed run reproduces the analysis
//! section (Table 1 + stability) byte-for-byte — and, with a day
//! delivered twice and merged, the whole report.

#![allow(
    clippy::disallowed_methods,
    reason = "integration tests build their fixtures with std::fs"
)]

use std::path::PathBuf;
use v6census_cli::commands::census;
use v6census_cli::Flags;
use v6census_core::temporal::Day;
use v6census_synth::faults::day_file_name;
use v6census_synth::world::epochs;
use v6census_synth::{Fault, FaultInjector, FaultSpec, World, WorldConfig};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "v6census-cli-{tag}-{}-{}",
        std::process::id(),
        line!()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn flags(args: &[String]) -> Flags {
    Flags::parse("census", args).unwrap()
}

/// The part of the output that must be invariant under kill/resume.
fn analysis_section(out: &str) -> &str {
    out.split("==== analysis ====")
        .nth(1)
        .expect("output has an analysis section")
}

#[test]
fn census_command_over_faulty_logs_and_resume() {
    let logs = tempdir("logs");
    let ckpts = tempdir("ckpts");
    let world = World::standard(WorldConfig {
        seed: 29,
        scale: 0.002,
    });
    let first = epochs::mar2015();
    let spec = FaultSpec {
        faults: vec![
            (first + 4, Fault::CorruptLines { count: 2 }),
            (first + 9, Fault::Truncate { keep_pct: 40 }),
            (first + 13, Fault::DuplicateDay),
            (first + 21, Fault::DropDay),
        ],
    };
    FaultInjector::new(0xc11)
        .write_day_files(&world, first, first + 31, &logs, &spec)
        .unwrap();

    let reference: Day = first + 15;
    let common = vec![
        logs.display().to_string(),
        "--max-bad-ratio=0.05".to_string(),
        format!("--reference={reference}"),
        "--gap-policy=widen".to_string(),
    ];

    // Uninterrupted run.
    let (full, full_quality) = census(&flags(&common)).unwrap();
    assert!(full.starts_with("==== ingest health ===="), "{full}");
    for label in ["bad-line", "truncated", "duplicate-day", "missing-day"] {
        assert!(
            full.contains(&format!("[{label}]")),
            "missing {label} in:\n{full}"
        );
    }
    assert!(full.contains("FAILED"), "{full}");
    let analysis = analysis_section(&full);
    assert!(analysis.contains(&format!("reference day: {reference}")));
    assert!(
        analysis.contains("Other addresses"),
        "Table 1 present: {analysis}"
    );
    assert!(
        analysis.contains("window widened by -1d/+1d"),
        "gap-aware verdict present: {analysis}"
    );
    assert!(analysis.contains("3d-stable"), "{analysis}");
    // The widened stability window makes the run honest about itself:
    // the command reports a non-exact overall quality (exit code 3).
    assert!(
        !full_quality.is_exact(),
        "widened window must degrade: {full}"
    );

    // Interrupted run (simulated kill after 8 days), then resume.
    let mut killed_args = common.clone();
    killed_args.push(format!("--checkpoint={}", ckpts.display()));
    killed_args.push("--max-days=8".to_string());
    let (killed, _) = census(&flags(&killed_args)).unwrap();
    assert!(killed.contains("skipped"), "{killed}");

    let mut resume_args = common.clone();
    resume_args.push(format!("--checkpoint={}", ckpts.display()));
    resume_args.push("--resume".to_string());
    let (resumed, resumed_quality) = census(&flags(&resume_args)).unwrap();
    assert!(
        resumed.contains("checkpoint"),
        "resume reuses checkpoints: {resumed}"
    );

    assert_eq!(
        analysis_section(&full),
        analysis_section(&resumed),
        "analysis must be byte-identical after kill + resume"
    );
    assert_eq!(full_quality, resumed_quality);

    std::fs::remove_dir_all(&logs).unwrap();
    std::fs::remove_dir_all(&ckpts).unwrap();
}

/// A resumed report as CI compares it with an uninterrupted one:
/// `sed 's/ checkpoint / ingested   /'`.
fn as_ingested(report: &str) -> String {
    report
        .lines()
        .map(|l| l.replacen(" checkpoint ", " ingested   ", 1) + "\n")
        .collect()
}

#[test]
fn merged_duplicate_day_resumes_whole() {
    // CI's 15 synth days, plus a second delivery of 2015-03-17 from
    // another world.
    let logs = tempdir("merge-logs");
    let first = Day::from_ymd(2015, 3, 10);
    let world = World::standard(WorldConfig {
        seed: 0x76c3_15c3_0001,
        scale: 0.002,
    });
    for i in 0..15 {
        let day = first + i;
        std::fs::write(logs.join(day_file_name(day)), world.day_log(day).to_text()).unwrap();
    }
    let other = World::standard(WorldConfig {
        seed: 99,
        scale: 0.002,
    });
    let twice = Day::from_ymd(2015, 3, 17);
    std::fs::write(
        logs.join("2015-03-17.b.log"),
        other.day_log(twice).to_text(),
    )
    .unwrap();

    let run = |extra: &[String]| {
        let mut args = vec![
            logs.display().to_string(),
            "--no-timings".to_string(),
            "--merge-duplicates".to_string(),
        ];
        args.extend_from_slice(extra);
        census(&flags(&args)).unwrap().0
    };
    let full = run(&[]);
    assert!(full.contains("[duplicate-day]"), "{full}");

    // A whole checkpointed run, and one stopped between the day's two
    // deliveries (2015-03-17.b.log is the 8th day): each resumed run
    // prints the uninterrupted report.
    for (tag, stop) in [("ckpt-whole", None), ("ckpt-between", Some("--max-days=8"))] {
        let ckpts = tempdir(tag);
        let ckpt = format!("--checkpoint={}", ckpts.display());
        let stopped = run(&[ckpt.clone()]
            .into_iter()
            .chain(stop.map(str::to_string))
            .collect::<Vec<_>>());
        if stop.is_none() {
            assert_eq!(stopped, full, "a checkpointed run prints the same report");
        }
        let resumed = run(&[ckpt, "--resume".to_string()]);
        assert!(resumed.contains(" checkpoint "), "{tag}: {resumed}");
        assert_eq!(as_ingested(&resumed), full, "{tag}");
        std::fs::remove_dir_all(&ckpts).unwrap();
    }
    std::fs::remove_dir_all(&logs).unwrap();
}

#[test]
fn strict_mode_fails_fast_via_the_command() {
    let logs = tempdir("strict");
    let world = World::standard(WorldConfig {
        seed: 31,
        scale: 0.002,
    });
    let first = epochs::mar2015();
    let spec = FaultSpec {
        faults: vec![(first + 1, Fault::Truncate { keep_pct: 30 })],
    };
    FaultInjector::new(0xc12)
        .write_day_files(&world, first, first + 3, &logs, &spec)
        .unwrap();
    let args = vec![logs.display().to_string(), "--strict".to_string()];
    let err = census(&flags(&args)).unwrap_err();
    // The first fault in a truncated file is the mid-line cut itself, so
    // strict mode may surface it as either error; both name the file.
    let msg = err.to_string();
    assert!(
        msg.contains("truncated") || msg.contains("unparseable"),
        "{msg}"
    );
    assert!(msg.contains("2015-03-18"), "{msg}");
    std::fs::remove_dir_all(&logs).unwrap();
}
