//! Acceptance tests for fault-tolerant streaming ingestion: a synthetic
//! multi-day census with injected corruption, truncation, duplication,
//! mislabeling, and missing days must complete without panicking, report
//! every fault with the right [`IngestError`] variant, respect the error
//! budget, and — via checkpoints — resume after a simulated mid-run kill
//! to the exact same census an uninterrupted run produces.

#![allow(
    clippy::disallowed_methods,
    reason = "integration tests build their fixtures with std::fs"
)]

use std::path::{Path, PathBuf};
use v6census_census::serve::restore_state;
use v6census_census::stream::{
    checkpoint_path, load_checkpoint, DuplicatePolicy, ErrorMode, FileOutcome, IngestConfig,
    IngestError, IngestReport,
};
use v6census_census::supervisor::{ingest_dir, SupervisorConfig};
use v6census_census::tables::{table1, EpochSpec};
use v6census_core::temporal::{Day, GapPolicy, StabilityParams, VerdictQuality};
use v6census_core::vfs::RealFs;
use v6census_synth::faults::day_file_name;
use v6census_synth::world::epochs;
use v6census_synth::{Fault, FaultInjector, FaultSpec, World, WorldConfig};

const SEED: u64 = 0x7e57_fa17; // deterministic fixture seed

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "v6census-ft-{tag}-{}-{}",
        std::process::id(),
        line!()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Ingests `logs` through the one directory ingest, serially (jobs 1).
fn ingest(logs: &Path, cfg: IngestConfig) -> Result<IngestReport, IngestError> {
    ingest_dir(logs, &cfg, &SupervisorConfig::default()).map(|(report, _)| report)
}

/// Writes the shared 32-day faulty fixture: one corrupt, one truncated,
/// one duplicated, one mislabeled, one missing day.
fn write_fixture(dir: &Path) -> (World, Day, Day) {
    let world = World::standard(WorldConfig {
        seed: 19,
        scale: 0.002,
    });
    let first = epochs::mar2015();
    let last = first + 31;
    let spec = FaultSpec {
        faults: vec![
            (first + 3, Fault::CorruptLines { count: 4 }),
            (first + 8, Fault::Truncate { keep_pct: 50 }),
            (first + 12, Fault::DuplicateDay),
            (first + 17, Fault::ShiftHeaderDay { offset: 2 }),
            (first + 22, Fault::DropDay),
        ],
    };
    let injector = FaultInjector::new(SEED);
    let manifest = injector
        .write_day_files(&world, first, last, dir, &spec)
        .unwrap();
    assert_eq!(manifest.applied.len(), 5);
    (world, first, last)
}

#[test]
fn faulty_census_completes_and_reports_every_fault() {
    let logs = tempdir("logs");
    let (_, first, last) = write_fixture(&logs);
    let report = ingest(
        &logs,
        IngestConfig {
            max_bad_ratio: 0.05,
            ..IngestConfig::default()
        },
    )
    .unwrap();

    // 32 planned days, one never written, one duplicated => 32 files.
    assert_eq!(report.files.len(), 32);

    // Corrupt day: ingested, with one BadLine per damaged line.
    let corrupt = report
        .files
        .iter()
        .find(|f| f.day == first + 3)
        .expect("corrupt day file present");
    assert_eq!(corrupt.outcome, FileOutcome::Ingested);
    assert_eq!(corrupt.bad_lines, 4);
    let bad: Vec<&IngestError> = corrupt
        .errors
        .iter()
        .filter(|e| e.label() == "bad-line")
        .collect();
    assert_eq!(bad.len(), 4);
    for e in &bad {
        let IngestError::BadLine { line, reason, .. } = e else {
            panic!("expected BadLine, got {e:?}");
        };
        assert!(*line > 2, "data lines start after the two header lines");
        assert!(
            reason.contains("address") || reason.contains("hits"),
            "{reason}"
        );
    }
    assert!(report.census.has_day(first + 3), "under-budget day is kept");

    // Truncated day: failed with the Truncated variant; day is a gap.
    let truncated = report.files.iter().find(|f| f.day == first + 8).unwrap();
    assert_eq!(truncated.outcome, FileOutcome::Failed);
    assert!(matches!(
        truncated.errors.last(),
        Some(IngestError::Truncated { expected, got, .. }) if got < expected
    ));
    assert!(!report.census.has_day(first + 8));

    // Duplicated day: exactly one delivery ingested, the other rejected
    // with DuplicateDay.
    let dups: Vec<_> = report
        .files
        .iter()
        .filter(|f| f.day == first + 12)
        .collect();
    assert_eq!(dups.len(), 2);
    assert_eq!(
        dups.iter()
            .filter(|f| f.outcome == FileOutcome::Ingested)
            .count(),
        1
    );
    let rejected = dups
        .iter()
        .find(|f| f.outcome == FileOutcome::Failed)
        .unwrap();
    assert!(matches!(
        rejected.errors.last(),
        Some(IngestError::DuplicateDay { day, .. }) if *day == first + 12
    ));

    // Mislabeled header: DayMismatch, not ingested.
    let shifted = report.files.iter().find(|f| f.day == first + 17).unwrap();
    assert_eq!(shifted.outcome, FileOutcome::Failed);
    assert!(matches!(
        shifted.errors.last(),
        Some(IngestError::DayMismatch { file_day, header_day, .. })
            if *file_day == first + 17 && *header_day == first + 19
    ));

    // Gaps: the dropped day plus the two failed days.
    assert_eq!(report.gaps, vec![first + 8, first + 17, first + 22]);
    let errors = report.errors();
    assert!(errors
        .iter()
        .any(|e| matches!(e, IngestError::MissingDay { day } if *day == first + 22)));

    // 32 planned days minus 3 gaps are in the census.
    assert_eq!(report.census.days().count(), 29);
    assert_eq!(report.census.days().next(), Some(first));
    assert_eq!(report.census.days().last(), Some(last));

    // The gap-aware classifier sees the holes: a reference day whose
    // window spans the gaps gets a widened window, not silent inactivity.
    let params = StabilityParams::nd(3);
    let verdict = report.census.other_daily().stable_on_gapped(
        first + 15,
        &params,
        GapPolicy::Widen { max_extra: 7 },
    );
    assert!(matches!(
        verdict.quality,
        VerdictQuality::Widened {
            back_extra: 1,
            fwd_extra: 2
        }
    ));

    std::fs::remove_dir_all(&logs).unwrap();
}

#[test]
fn error_budget_zero_rejects_the_corrupt_day() {
    let logs = tempdir("budget");
    let (_, first, _) = write_fixture(&logs);
    let report = ingest(
        &logs,
        IngestConfig {
            max_bad_ratio: 0.0,
            ..IngestConfig::default()
        },
    )
    .unwrap();
    let corrupt = report.files.iter().find(|f| f.day == first + 3).unwrap();
    assert_eq!(corrupt.outcome, FileOutcome::Failed);
    assert!(matches!(
        corrupt.errors.last(),
        Some(IngestError::ErrorBudgetExceeded { bad: 4, .. })
    ));
    assert!(
        !report.census.has_day(first + 3),
        "over-budget day is dropped"
    );
    assert!(report.gaps.contains(&(first + 3)));
    std::fs::remove_dir_all(&logs).unwrap();
}

#[test]
fn strict_mode_aborts_on_first_fault() {
    let logs = tempdir("strict");
    write_fixture(&logs);
    let strict = IngestConfig {
        mode: ErrorMode::Strict,
        ..IngestConfig::default()
    };
    let err = match ingest(&logs, strict) {
        Err(e) => e,
        Ok(_) => panic!("strict mode must abort on the corrupt day"),
    };
    assert_eq!(err.label(), "bad-line", "the corrupt day aborts the run");
    std::fs::remove_dir_all(&logs).unwrap();
}

#[test]
fn merge_policy_accumulates_duplicate_deliveries() {
    let logs = tempdir("merge");
    let ckpts = tempdir("merge-ckpts");
    let (_, first, _) = write_fixture(&logs);
    let report = ingest(
        &logs,
        IngestConfig {
            max_bad_ratio: 0.05,
            on_duplicate: DuplicatePolicy::Merge,
            checkpoint_dir: Some(ckpts.clone()),
            ..IngestConfig::default()
        },
    )
    .unwrap();
    let dups: Vec<_> = report
        .files
        .iter()
        .filter(|f| f.day == first + 12)
        .collect();
    assert_eq!(
        dups.iter()
            .filter(|f| f.outcome == FileOutcome::Ingested)
            .count(),
        2,
        "merge policy ingests both deliveries"
    );
    // Identical deliveries: merged hits double, address set unchanged.
    let merged = report.census.summary(first + 12).unwrap();
    let reject = ingest(
        &logs,
        IngestConfig {
            max_bad_ratio: 0.05,
            ..IngestConfig::default()
        },
    )
    .unwrap();
    let single = reject.census.summary(first + 12).unwrap();
    assert_eq!(merged.total(), single.total());
    assert_eq!(merged.hits, 2 * single.hits);
    // The merged day's checkpoint holds both deliveries: restored, it
    // is the whole day.
    let restored = restore_state(&RealFs, &ckpts).census;
    let back = restored.summary(first + 12).unwrap();
    assert_eq!((back.total(), back.hits), (merged.total(), merged.hits));
    std::fs::remove_dir_all(&logs).unwrap();
    std::fs::remove_dir_all(&ckpts).unwrap();
}

#[test]
fn kill_and_resume_reproduces_the_uninterrupted_census_exactly() {
    let logs = tempdir("resume-logs");
    let (_, first, _) = write_fixture(&logs);
    let ckpts = tempdir("resume-ckpts");

    let base = IngestConfig {
        max_bad_ratio: 0.05,
        checkpoint_dir: Some(ckpts.clone()),
        ..IngestConfig::default()
    };

    // Reference run: uninterrupted, no checkpoints involved.
    let uninterrupted = ingest(
        &logs,
        IngestConfig {
            checkpoint_dir: None,
            ..base.clone()
        },
    )
    .unwrap();

    // Interrupted run: killed after 10 ingested days...
    let killed = ingest(
        &logs,
        IngestConfig {
            max_days: Some(10),
            ..base.clone()
        },
    )
    .unwrap();
    assert_eq!(killed.census.days().count(), 10);
    assert!(
        killed
            .files
            .iter()
            .any(|f| f.outcome == FileOutcome::Skipped),
        "the kill leaves unprocessed files behind"
    );
    for day in killed.census.days() {
        assert!(checkpoint_path(&ckpts, day).exists(), "{day} checkpointed");
    }

    // ...then resumed from the checkpoints.
    let resumed = ingest(
        &logs,
        IngestConfig {
            resume: true,
            ..base.clone()
        },
    )
    .unwrap();
    let from_ckpt = resumed
        .files
        .iter()
        .filter(|f| f.outcome == FileOutcome::FromCheckpoint)
        .count();
    assert!(
        from_ckpt >= 10,
        "resume reuses the checkpoints, got {from_ckpt}"
    );

    // The resumed census is *identical*: same days, and byte-identical
    // Table 1 / stability output.
    let udays: Vec<Day> = uninterrupted.census.days().collect();
    let rdays: Vec<Day> = resumed.census.days().collect();
    assert_eq!(udays, rdays);

    let spec = [EpochSpec {
        label: "reference",
        reference: first + 15,
    }];
    let (ud, uw) = table1(&uninterrupted.census, &spec);
    let (rd, rw) = table1(&resumed.census, &spec);
    assert_eq!(
        ud.render(),
        rd.render(),
        "daily Table 1 must be byte-identical"
    );
    assert_eq!(
        uw.render(),
        rw.render(),
        "weekly Table 1 must be byte-identical"
    );

    let params = StabilityParams::nd(3);
    let policy = GapPolicy::Widen { max_extra: 7 };
    let uv = uninterrupted
        .census
        .other_daily()
        .stable_on_gapped(first + 15, &params, policy);
    let rv = resumed
        .census
        .other_daily()
        .stable_on_gapped(first + 15, &params, policy);
    assert_eq!(uv.quality, rv.quality);
    assert_eq!(uv.stable.len(), rv.stable.len());
    assert!(
        uv.stable.iter().eq(rv.stable.iter()),
        "stable sets must match"
    );

    // A checkpoint round-trips to the exact per-day summary.
    let mut entries = Vec::new();
    let (day, ..) =
        load_checkpoint(&RealFs, &checkpoint_path(&ckpts, first), &mut entries).unwrap();
    assert_eq!(day, first);
    let direct = uninterrupted.census.summary(first).unwrap();
    let rebuilt = v6census_census::DaySummary::from_entries(day, entries);
    assert_eq!(rebuilt.total(), direct.total());
    assert_eq!(rebuilt.hits, direct.hits);

    std::fs::remove_dir_all(&logs).unwrap();
    std::fs::remove_dir_all(&ckpts).unwrap();
}

#[test]
fn faulty_ingest_is_the_same_at_jobs_1_and_4() {
    let logs = tempdir("jobs");
    write_fixture(&logs);
    let cfg = IngestConfig {
        max_bad_ratio: 0.05,
        ..IngestConfig::default()
    };
    let run = |jobs| {
        let sup = SupervisorConfig {
            jobs,
            ..SupervisorConfig::default()
        };
        ingest_dir(&logs, &cfg, &sup).unwrap().0
    };
    let (serial, parallel) = (run(1), run(4));
    let health = serial.health_report();
    for label in [
        "[bad-line]",
        "[truncated]",
        "[duplicate-day]",
        "[day-mismatch]",
        "[missing-day]",
    ] {
        assert!(health.contains(label), "fixture lacks {label}:\n{health}");
    }
    assert_eq!(health, parallel.health_report());
    let totals = |report: &IngestReport| -> Vec<_> {
        report
            .census
            .days()
            .filter_map(|day| report.census.summary(day).map(|s| (day, s.total(), s.hits)))
            .collect()
    };
    assert_eq!(totals(&serial).len(), 29);
    assert_eq!(totals(&serial), totals(&parallel));
    std::fs::remove_dir_all(&logs).unwrap();
}

#[test]
fn clean_fixture_has_no_errors() {
    let logs = tempdir("clean");
    let world = World::standard(WorldConfig {
        seed: 23,
        scale: 0.002,
    });
    let first = epochs::mar2015();
    FaultInjector::new(SEED)
        .write_day_files(&world, first, first + 4, &logs, &FaultSpec::default())
        .unwrap();
    assert!(logs.join(day_file_name(first)).exists());
    let report = ingest(&logs, IngestConfig::default()).unwrap();
    assert!(report.errors().is_empty(), "{:?}", report.errors());
    assert!(report.gaps.is_empty());
    assert_eq!(report.census.days().count(), 5);
    std::fs::remove_dir_all(&logs).unwrap();
}
