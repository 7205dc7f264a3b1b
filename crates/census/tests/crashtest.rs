//! Durability proofs for the checkpoint/snapshot pipeline.
//!
//! Three layers, all in-memory and fully deterministic:
//!
//! 1. `crash_point_exploration_proves_recovery` — the exhaustive
//!    explorer: every durability-relevant mutation of a full
//!    ingest→checkpoint→publish run becomes a simulated crash point,
//!    and recovery from each must converge byte-identically to the
//!    uninterrupted run, and answer like a restart from scratch
//!    (`restart_answers_like_the_live_daemon` pins the baseline).
//! 2. `checkpoint_torn_at_every_byte_offset_never_mixes` — the
//!    checkpoint property test: truncate one day's checkpoint at every
//!    byte offset; the restore either gets that whole day back or
//!    counts one recovery and omits it, never a partial day, and
//!    re-ingest always converges to the uninterrupted census.
//! 3. `crash_fault_matrix` — one drill per [`FaultKind`], selectable
//!    with `V6CENSUS_CRASH_KIND` so CI can run each as its own job:
//!    every injected fault either recovers or fails with a typed
//!    error — never a panic — and a clean restart always rebuilds the
//!    full census.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use v6census_census::crashtest::{self, CrashTestConfig};
use v6census_census::serve::restore_state;
use v6census_census::snapshot::Snapshot;
use v6census_census::stream::{checkpoint_path, IngestConfig, IngestReport};
use v6census_census::supervisor::{ingest_dir, SupervisorConfig};
use v6census_census::Census;
use v6census_core::spatial::DensityClass;
use v6census_core::temporal::{Day, StabilityParams};
use v6census_core::vfs::{FaultFs, FaultPlan, MemFs, Vfs};
use v6census_synth::faults::day_file_name;
use v6census_synth::world::epochs;
use v6census_synth::{World, WorldConfig};
use v6census_trie::AddrSet;

const DAYS: u32 = 4;

fn source_dir() -> PathBuf {
    PathBuf::from("/mem/source")
}

fn state_dir() -> PathBuf {
    PathBuf::from("/mem/state")
}

/// Emits a small synthetic world into a fresh in-memory filesystem,
/// keeping every `stride`-th entry of each day, and returns it with the
/// list of days it covers.
fn stage_world(seed: u64, stride: usize) -> (Arc<MemFs>, Vec<Day>) {
    let fs = Arc::new(MemFs::new());
    let world = World::standard(WorldConfig { seed, scale: 0.001 });
    let days: Vec<Day> = (0..DAYS as i32).map(|i| epochs::mar2015() + i).collect();
    fs.create_dir_all(&source_dir()).expect("source dir");
    for &day in &days {
        let mut log = world.day_log(day);
        log.entries = log.entries.into_iter().step_by(stride).collect();
        let path = source_dir().join(day_file_name(day));
        fs.write_atomic(&path, log.to_text().as_bytes())
            .expect("world emission");
    }
    (fs, days)
}

/// Runs a resumable checkpointed ingest of the staged source through
/// the given filesystem (possibly fault-injecting).
fn ingest_over(
    fs: Arc<dyn Vfs>,
    state: &Path,
) -> Result<IngestReport, v6census_census::stream::IngestError> {
    let cfg = IngestConfig {
        checkpoint_dir: Some(state.to_path_buf()),
        resume: true,
        vfs: fs,
        ..IngestConfig::default()
    };
    ingest_dir(&source_dir(), &cfg, &SupervisorConfig::default()).map(|(report, _)| report)
}

/// What a host reboot sees: only the durable side of the filesystem.
fn restart(fs: &MemFs) -> Arc<MemFs> {
    Arc::new(MemFs::from_durable(fs.durable_files(), fs.durable_dirs()))
}

fn generation_of(report: &IngestReport) -> u64 {
    Snapshot::build(
        report.census.clone(),
        StabilityParams::nd(3),
        DensityClass::new(8, 64),
    )
    .generation
}

// ---------------------------------------------------------------------------
// 1. Exhaustive crash-point exploration
// ---------------------------------------------------------------------------

#[test]
fn crash_point_exploration_proves_recovery() {
    let cfg = CrashTestConfig::default();
    let report = crashtest::explore(&cfg);
    assert!(
        report.violations.is_empty(),
        "{} invariant violations across {} crash points:\n{}\nop log:\n{}",
        report.violations.len(),
        report.crash_points,
        report.violations.join("\n"),
        report.op_log.join("\n"),
    );
    // One mkdir of the state dir, then a checkpoint's write + fsync +
    // rename per day.
    assert_eq!(
        report.crash_points,
        1 + 3 * cfg.days as usize,
        "crash points of the landing protocol:\n{}",
        report.op_log.join("\n"),
    );
    assert_eq!(report.baseline_days, 6, "baseline should commit 6 days");
    assert_eq!(
        report.baseline_generation, 6,
        "generation == days invariant"
    );
}

#[test]
fn restart_answers_like_the_live_daemon() {
    // A live daemon advances its snapshot day by day; a restarted one
    // builds it from the recovered census. Both must answer alike.
    let (live, recovered) =
        crashtest::converge(&CrashTestConfig::default()).expect("the run converges");
    let restarted = Snapshot::build(recovered, live.params, live.dense_class);
    assert_eq!(live.generation, 6);
    assert_eq!(live.generation, restarted.generation);
    assert_eq!(live.reference, restarted.reference);
    assert_eq!(live.active, restarted.active);
    assert_eq!(live.stable, restarted.stable);
    assert_eq!(live.stats.scheme_counts, restarted.stats.scheme_counts);
    assert_eq!(live.stats.daily, restarted.stats.daily);
    assert!(live.same_products(&restarted));
}

// ---------------------------------------------------------------------------
// 2. A checkpoint torn at every byte offset
// ---------------------------------------------------------------------------

/// Every day of `census`: its Other set, address total and hits.
fn days_of(census: &Census) -> Vec<(Day, AddrSet, usize, u64)> {
    census
        .summaries()
        .iter()
        .map(|s| (s.day, s.other.clone(), s.total(), s.hits))
        .collect()
}

#[test]
fn checkpoint_torn_at_every_byte_offset_never_mixes() {
    // Every 50th entry keeps the checkpoint short: one restore and one
    // re-ingest per byte offset.
    let (fs, days) = stage_world(77, 50);
    let state = state_dir();
    let baseline = ingest_over(fs.clone(), &state).expect("baseline ingest");
    assert_eq!(generation_of(&baseline), u64::from(DAYS));
    let want = days_of(&baseline.census);

    let torn_day = days[1];
    let cpath = checkpoint_path(&state, torn_day);
    let durable = fs.durable_files();
    let dirs = fs.durable_dirs();
    let bytes = durable.get(&cpath).cloned().expect("checkpoint is durable");
    assert!(bytes.len() > 200, "checkpoint should be non-trivial");

    for offset in 0..=bytes.len() {
        let mut files = durable.clone();
        files.insert(cpath.clone(), bytes[..offset].to_vec());
        let torn = Arc::new(MemFs::from_durable(files, dirs.clone()));

        // The restore: the torn day whole, or one recovery and no day.
        // Never a partial day — the header count and the `# end N H`
        // trailer make any truncation that loses data visible.
        let restored = restore_state(torn.as_ref(), &state);
        let mut expect = want.clone();
        if restored.census.has_day(torn_day) {
            assert_eq!(restored.recovered, 0, "offset {offset}");
        } else {
            assert_eq!(restored.recovered, 1, "offset {offset}");
            expect.retain(|(d, ..)| *d != torn_day);
        }
        assert_eq!(
            days_of(&restored.census),
            expect,
            "offset {offset}: restore mixed days"
        );

        // Recovery: the lost day re-ingests from source, so re-ingest
        // converges to the uninterrupted census from any truncation.
        let recovered = ingest_over(torn.clone(), &state).expect("recovery ingest");
        assert_eq!(
            days_of(&recovered.census),
            want,
            "offset {offset}: recovery must rebuild the baseline census"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Fault-plan matrix: one drill per FaultKind
// ---------------------------------------------------------------------------

/// Runs one fault drill: stage a world, ingest through a fault-injecting
/// filesystem, then prove a clean restart rebuilds everything. The run
/// under fault may succeed or fail — but only with a typed error, and
/// the fault must actually have fired.
fn drill(kind: &str) {
    let (fs, days) = stage_world(91, 1);
    let state = state_dir();

    // `readcorrupt` needs durable checkpoints to corrupt on read-back,
    // so that drill runs a clean pass first and injects on the resume.
    let (plan, preingest) = match kind {
        "enospc" => ("enospc@64:ckpt", false),
        "shortwrite" => ("shortwrite@16:ckpt", false),
        "eintr" => ("eintr@3:ckpt", false),
        "fsynclie" => ("fsynclie:ckpt", false),
        "renamedrop" => ("renamedrop:ckpt", false),
        "readcorrupt" => ("readcorrupt@33:ckpt", true),
        other => panic!("unknown V6CENSUS_CRASH_KIND {other:?}"),
    };
    if preingest {
        ingest_over(fs.clone(), &state).expect("pre-ingest for read-back drill");
    }
    let plan = FaultPlan::parse(plan).expect("plan parses");
    let faulty = Arc::new(FaultFs::new(fs.clone() as Arc<dyn Vfs>, plan));

    // The drill itself: reaching this far without a panic is half the
    // contract; the other half is that any failure is a typed error.
    match ingest_over(faulty.clone(), &state) {
        Ok(report) => {
            // Lying faults (shortwrite, fsynclie, renamedrop) report
            // success; the damage only shows after a restart.
            assert!(
                report
                    .files
                    .iter()
                    .all(|f| f.errors.iter().all(|e| !e.label().is_empty())),
                "{kind}: recorded errors must all be typed"
            );
        }
        Err(e) => {
            assert!(!e.label().is_empty(), "{kind}: abort must be typed");
            assert!(!e.to_string().is_empty(), "{kind}: abort must render");
        }
    }
    assert!(faulty.injected() >= 1, "{kind}: the fault plan never fired");

    // Recovery: restart from the durable image with no faults. Torn
    // checkpoints are detected (typed), stale tmp files are swept, and
    // every day is rebuilt from checkpoint or source.
    let clean = restart(fs.as_ref());
    let recovered = ingest_over(clean.clone(), &state).expect("clean restart must recover");
    for day in &days {
        assert!(
            recovered.census.has_day(*day),
            "{kind}: day {day} lost after recovery"
        );
    }
    assert_eq!(
        generation_of(&recovered),
        u64::from(DAYS),
        "{kind}: recovery must reach the full generation"
    );
    if kind == "renamedrop" {
        // The dropped rename strands a durable `.tmp` sibling; the
        // startup sweep must count it, not orphan it.
        assert!(
            recovered.stale_tmp_removed >= 1,
            "{kind}: stranded tmp file was not swept"
        );
    }

    // And a restart restores the recovered state cleanly from its
    // checkpoints.
    let restored = restore_state(restart(clean.as_ref()).as_ref(), &state);
    assert_eq!(restored.restored, days, "{kind}: restored days");
    assert_eq!(restored.recovered, 0, "{kind}: recoveries after recovery");
}

#[test]
fn crash_fault_matrix() {
    const ALL: [&str; 6] = [
        "enospc",
        "shortwrite",
        "eintr",
        "fsynclie",
        "renamedrop",
        "readcorrupt",
    ];
    match std::env::var("V6CENSUS_CRASH_KIND") {
        Ok(kind) if !kind.is_empty() && kind != "all" => drill(&kind),
        _ => {
            for kind in ALL {
                drill(kind);
            }
        }
    }
}
