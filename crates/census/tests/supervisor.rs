//! End-to-end tests of the supervised analysis engine: panics are
//! contained and reported, hangs trip the stage deadline without hanging
//! the run, trie budgets degrade densify instead of killing it, and a
//! parallel run is equivalent to a serial one.

#![allow(
    clippy::disallowed_methods,
    reason = "the tests time deadlines and build their fixtures with std::fs"
)]

use std::path::PathBuf;
use std::time::{Duration, Instant};
use v6census_census::supervisor::{run_census, PipelineConfig, UnitStatus};
use v6census_core::quality::Quality;
use v6census_synth::world::epochs;
use v6census_synth::{
    AnalysisFault, AnalysisFaultPlan, FaultInjector, FaultSpec, World, WorldConfig,
};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "v6census-sup-{tag}-{}-{}",
        std::process::id(),
        line!()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a clean 15-day log directory and returns it with a mid-window
/// reference day.
fn clean_logs(tag: &str, seed: u64) -> (PathBuf, v6census_core::temporal::Day) {
    let logs = tempdir(tag);
    let world = World::standard(WorldConfig { seed, scale: 0.002 });
    let first = epochs::mar2015();
    FaultInjector::new(0xabc)
        .write_day_files(
            &world,
            first,
            first + 14,
            &logs,
            &FaultSpec { faults: vec![] },
        )
        .unwrap();
    (logs, first + 7)
}

fn base_config(reference: v6census_core::temporal::Day) -> PipelineConfig {
    PipelineConfig {
        reference: Some(reference),
        ..PipelineConfig::default()
    }
}

#[test]
fn injected_panic_is_contained_and_reported() {
    let (logs, reference) = clean_logs("panic", 41);
    let mut cfg = base_config(reference);
    cfg.supervisor.jobs = 4;
    // Panic on both attempts: the unit must be excluded, never abort.
    let mut faults = AnalysisFaultPlan::none();
    faults.add("stability/", AnalysisFault::PanicShard { attempts: 2 });
    cfg.supervisor.faults = faults;

    let run = run_census(&logs, &cfg).expect("a panicking shard must not abort the run");
    let stage = run
        .manifest
        .stages
        .iter()
        .find(|s| s.stage == "stability")
        .expect("stability stage ran");
    assert_eq!(stage.excluded().len(), 1, "{}", run.manifest.render());
    let excluded = &stage.excluded()[0];
    assert!(matches!(
        &excluded.status,
        UnitStatus::Excluded { reason } if reason.contains("injected panic")
    ));
    // The product is missing, the annotation says why, the run is Partial.
    assert_eq!(run.overall_quality(), Quality::Partial);
    let stability = run.stability.expect("annotation present");
    assert!(stability.value.is_none());
    assert_eq!(stability.quality, Quality::Partial);
    assert!(stability.notes.iter().any(|n| n.contains("excluded")));
    // Other products are untouched.
    assert!(run.table1.unwrap().value.is_some());
    assert!(run.manifest.render().contains("excluded stability/"));

    // A densify shard that panics twice is excluded too; the merged
    // product of the other shards is Partial.
    let mut faults = AnalysisFaultPlan::none();
    faults.add("densify/", AnalysisFault::PanicShard { attempts: 2 });
    cfg.supervisor.faults = faults;
    let run = run_census(&logs, &cfg).expect("a panicking shard must not abort the run");
    assert_eq!(run.overall_quality(), Quality::Partial);
    assert_eq!(run.dense.expect("dense present").quality, Quality::Partial);
    assert!(run.manifest.render().contains("excluded densify/"));
    std::fs::remove_dir_all(&logs).unwrap();
}

#[test]
fn single_panic_is_retried_to_success() {
    let (logs, reference) = clean_logs("retry", 43);
    let mut cfg = base_config(reference);
    cfg.supervisor.jobs = 2;
    // Panic on the first attempt only: the retry must recover exactly.
    let mut faults = AnalysisFaultPlan::none();
    faults.add("table1/", AnalysisFault::PanicShard { attempts: 1 });
    cfg.supervisor.faults = faults;

    let run = run_census(&logs, &cfg).unwrap();
    let stage = run
        .manifest
        .stages
        .iter()
        .find(|s| s.stage == "table1")
        .unwrap();
    assert!(matches!(
        stage.units[0].status,
        UnitStatus::Ok { attempts: 2 }
    ));
    assert_eq!(run.overall_quality(), Quality::Exact);
    let table1 = run.table1.expect("table present");
    assert!(table1.value.is_some());
    assert_eq!(table1.quality, Quality::Exact, "a recovered retry is exact");
    std::fs::remove_dir_all(&logs).unwrap();
}

#[test]
fn hung_unit_trips_the_deadline_not_the_run() {
    let (logs, reference) = clean_logs("hang", 47);
    let mut cfg = base_config(reference);
    cfg.supervisor.jobs = 2;
    cfg.supervisor.stage_deadline = Some(Duration::from_millis(300));
    // Hang far beyond the deadline: the watchdog must abandon the worker.
    let mut faults = AnalysisFaultPlan::none();
    faults.add("stability/", AnalysisFault::HangShard { millis: 120_000 });
    cfg.supervisor.faults = faults;

    let start = Instant::now();
    let run = run_census(&logs, &cfg).expect("a hung shard must not hang the run");
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "run returned promptly, not after the 120s hang"
    );
    let stage = run
        .manifest
        .stages
        .iter()
        .find(|s| s.stage == "stability")
        .unwrap();
    assert!(stage.deadline_expired);
    assert_eq!(stage.units[0].status, UnitStatus::TimedOut);
    assert_eq!(run.overall_quality(), Quality::Partial);
    let stability = run.stability.expect("annotation present");
    assert!(stability.value.is_none());
    assert_eq!(stability.quality, Quality::Partial);
    assert!(run.manifest.render().contains("timed-out stability/"));
    std::fs::remove_dir_all(&logs).unwrap();
}

#[test]
fn trie_budget_degrades_densify_with_sound_counts() {
    let (logs, reference) = clean_logs("budget", 53);

    // Unbudgeted run, for ground truth.
    let cfg = base_config(reference);
    let full = run_census(&logs, &cfg).unwrap();
    let exact = full.dense.expect("dense present");
    assert_eq!(exact.quality, Quality::Exact);

    // Tightly budgeted run: must degrade, not fail.
    let mut cfg = base_config(reference);
    cfg.supervisor.max_trie_nodes = 32;
    let run = run_census(&logs, &cfg).unwrap();
    assert_eq!(run.overall_quality(), Quality::Degraded);
    let dense = run.dense.expect("dense present");
    assert_eq!(dense.quality, Quality::Degraded, "{:?}", dense.notes);
    assert!(dense.notes.iter().any(|n| n.contains("trie budget 32")));
    let stage = run
        .manifest
        .stages
        .iter()
        .find(|s| s.stage == "densify")
        .unwrap();
    assert!(stage.degraded() > 0);
    assert_eq!(stage.quality(), Quality::Degraded);

    // Soundness: degradation may only coarsen or drop blocks, never
    // fabricate them. Every reported block still meets the n@/p density
    // bar at its own length — count ≥ n · 2^(p − len) — with counts that
    // are real observed addresses (folding conserves subtree sums).
    let (n, p) = (cfg.dense_n, cfg.dense_p);
    for dp in exact.value.iter().chain(dense.value.iter()) {
        let len = dp.prefix.len();
        assert!(len <= p, "block {} finer than the class", dp.prefix);
        let bar = (n as u128) << (p.get() - len.get());
        assert!(
            (dp.count as u128) >= bar,
            "block {} with {} addrs under the {}@/{} bar ({bar})",
            dp.prefix,
            dp.count,
            n,
            p
        );
    }
    std::fs::remove_dir_all(&logs).unwrap();
}

#[test]
fn parallel_run_is_equivalent_to_serial() {
    let (logs, reference) = clean_logs("jobs", 59);

    let mut serial_cfg = base_config(reference);
    serial_cfg.supervisor.jobs = 1;
    let serial = run_census(&logs, &serial_cfg).unwrap();

    let mut parallel_cfg = base_config(reference);
    parallel_cfg.supervisor.jobs = 8;
    let parallel = run_census(&logs, &parallel_cfg).unwrap();

    // The deterministic projection of the manifests is identical; only
    // wall times may differ.
    assert_eq!(
        serial.manifest.equivalence_key(),
        parallel.manifest.equivalence_key()
    );
    // Every analysis product is byte-identical.
    assert_eq!(
        serial.table1.as_ref().unwrap().value,
        parallel.table1.as_ref().unwrap().value
    );
    let (s, p) = (
        serial.stability.as_ref().unwrap().value.as_ref().unwrap(),
        parallel.stability.as_ref().unwrap().value.as_ref().unwrap(),
    );
    assert_eq!(s.quality, p.quality);
    assert_eq!(
        s.stable.iter().collect::<Vec<_>>(),
        p.stable.iter().collect::<Vec<_>>()
    );
    assert_eq!(
        serial.dense.as_ref().unwrap().value,
        parallel.dense.as_ref().unwrap().value
    );
    assert_eq!(serial.overall_quality(), Quality::Exact);
    assert_eq!(parallel.overall_quality(), Quality::Exact);
    // And the per-file ingest health agrees too (clean logs: all ingested).
    assert_eq!(serial.report.files.len(), parallel.report.files.len());
    for (a, b) in serial.report.files.iter().zip(&parallel.report.files) {
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.day, b.day);
    }
    std::fs::remove_dir_all(&logs).unwrap();
}

#[test]
fn slow_shards_finish_within_deadline() {
    let (logs, reference) = clean_logs("slow", 61);
    let mut cfg = base_config(reference);
    cfg.supervisor.jobs = 4;
    cfg.supervisor.stage_deadline = Some(Duration::from_secs(30));
    // Slow (but not hung) ingest units: supervision must not misfire.
    let mut faults = AnalysisFaultPlan::none();
    faults.add("ingest/", AnalysisFault::SlowShard { millis: 20 });
    cfg.supervisor.faults = faults;

    let run = run_census(&logs, &cfg).unwrap();
    assert_eq!(run.overall_quality(), Quality::Exact);
    let stage = &run.manifest.stages[0];
    assert_eq!(stage.stage, "ingest");
    assert!(!stage.deadline_expired);
    assert_eq!(stage.ok(), stage.units.len());
    std::fs::remove_dir_all(&logs).unwrap();
}
