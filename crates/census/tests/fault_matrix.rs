//! The fault matrix: one drill per fault kind, selectable with the
//! `V6CENSUS_FAULT_KIND` environment variable so CI can run each kind as
//! its own job under a hard timeout. With the variable unset, every kind
//! runs in sequence.
//!
//! Each drill asserts the same contract: the run *completes* — no abort,
//! no hang — and the manifest/quality honestly reflect what the fault
//! cost.

#![allow(
    clippy::disallowed_methods,
    reason = "integration tests build their fixtures with std::fs"
)]

use std::path::PathBuf;
use std::time::Duration;
use v6census_census::supervisor::{run_census, PipelineConfig};
use v6census_core::quality::Quality;
use v6census_core::temporal::Day;
use v6census_synth::world::epochs;
use v6census_synth::{
    AnalysisFault, AnalysisFaultPlan, Fault, FaultInjector, FaultSpec, World, WorldConfig,
};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("v6census-matrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_logs(tag: &str, seed: u64, spec: &FaultSpec) -> (PathBuf, Day) {
    let logs = tempdir(tag);
    let world = World::standard(WorldConfig { seed, scale: 0.002 });
    let first = epochs::mar2015();
    FaultInjector::new(0xfa17)
        .write_day_files(&world, first, first + 14, &logs, spec)
        .unwrap();
    (logs, first + 7)
}

fn config(reference: Day) -> PipelineConfig {
    PipelineConfig {
        reference: Some(reference),
        ..PipelineConfig::default()
    }
}

/// One drill. Every arm must leave the process alive and return a
/// manifest that names the damage.
fn drill(kind: &str) {
    match kind {
        "panic" => {
            let (logs, reference) = write_logs("panic", 67, &FaultSpec { faults: vec![] });
            let mut cfg = config(reference);
            cfg.supervisor.jobs = 4;
            let mut faults = AnalysisFaultPlan::none();
            faults.add("densify/", AnalysisFault::PanicShard { attempts: 2 });
            cfg.supervisor.faults = faults;
            let run = run_census(&logs, &cfg).expect("panic drill must complete");
            assert_eq!(run.overall_quality(), Quality::Partial);
            assert!(run.manifest.render().contains("excluded densify/"));
            std::fs::remove_dir_all(&logs).unwrap();
        }
        "hang" => {
            let (logs, reference) = write_logs("hang", 71, &FaultSpec { faults: vec![] });
            let mut cfg = config(reference);
            cfg.supervisor.jobs = 2;
            cfg.supervisor.stage_deadline = Some(Duration::from_millis(400));
            let mut faults = AnalysisFaultPlan::none();
            faults.add("table1/", AnalysisFault::HangShard { millis: 300_000 });
            cfg.supervisor.faults = faults;
            let run = run_census(&logs, &cfg).expect("hang drill must complete");
            assert_eq!(run.overall_quality(), Quality::Partial);
            assert!(run.manifest.render().contains("timed-out table1/"));
            std::fs::remove_dir_all(&logs).unwrap();
        }
        "slow" => {
            let (logs, reference) = write_logs("slow", 73, &FaultSpec { faults: vec![] });
            let mut cfg = config(reference);
            cfg.supervisor.jobs = 4;
            cfg.supervisor.stage_deadline = Some(Duration::from_secs(60));
            let mut faults = AnalysisFaultPlan::none();
            faults.add("ingest/", AnalysisFault::SlowShard { millis: 15 });
            cfg.supervisor.faults = faults;
            let run = run_census(&logs, &cfg).expect("slow drill must complete");
            assert_eq!(
                run.overall_quality(),
                Quality::Exact,
                "slow-but-finishing shards must not be punished"
            );
            std::fs::remove_dir_all(&logs).unwrap();
        }
        "oversized-blob" => {
            // A valid but adversarially dense day file plus a trie node
            // budget: densify must degrade to a coarser level, not die.
            let first = epochs::mar2015();
            let spec = FaultSpec {
                faults: vec![(first + 7, Fault::OversizedPrefixBlob { addrs: 3_000 })],
            };
            let (logs, reference) = write_logs("blob", 79, &spec);
            let mut cfg = config(reference);
            cfg.supervisor.max_trie_nodes = 256;
            let run = run_census(&logs, &cfg).expect("blob drill must complete");
            assert_eq!(run.overall_quality(), Quality::Degraded);
            let dense = run.dense.as_ref().expect("dense present");
            assert!(dense.notes.iter().any(|n| n.contains("trie budget")));
            std::fs::remove_dir_all(&logs).unwrap();
        }
        "stream" => {
            // PR 1's file-level faults, through the supervised pipeline.
            let first = epochs::mar2015();
            let spec = FaultSpec {
                faults: vec![
                    (first + 2, Fault::CorruptLines { count: 2 }),
                    (first + 5, Fault::Truncate { keep_pct: 40 }),
                    (first + 9, Fault::DropDay),
                ],
            };
            let (logs, reference) = write_logs("stream", 83, &spec);
            let mut cfg = config(reference);
            cfg.ingest.max_bad_ratio = 0.05;
            cfg.supervisor.jobs = 4;
            let run = run_census(&logs, &cfg).expect("stream drill must complete");
            // The truncated day fails its budget and the dropped day is a
            // gap: stability answers with a widened window, not silence.
            assert!(!run.overall_quality().is_exact());
            assert!(run
                .stability
                .as_ref()
                .and_then(|s| s.value.as_ref())
                .is_some());
            std::fs::remove_dir_all(&logs).unwrap();
        }
        other => panic!("unknown V6CENSUS_FAULT_KIND {other:?}"),
    }
}

#[test]
fn fault_matrix() {
    const ALL: [&str; 5] = ["panic", "hang", "slow", "oversized-blob", "stream"];
    match std::env::var("V6CENSUS_FAULT_KIND") {
        Ok(kind) if !kind.is_empty() && kind != "all" => drill(&kind),
        _ => {
            for kind in ALL {
                drill(kind);
            }
        }
    }
}
