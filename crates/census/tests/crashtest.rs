//! Durability proofs for the checkpoint/snapshot pipeline, all in
//! memory and deterministic, over a [`MemFs`] that models the
//! persistence contract (DESIGN.md "Crash consistency": what survives a
//! crash is fsynced bytes plus completed renames and removals):
//!
//! 1. `crash_point_exploration_proves_recovery` — every
//!    durability-relevant mutation of an uninterrupted run of serve's
//!    landing step (`serve::land_day`: parse → checkpoint → snapshot)
//!    becomes a simulated crash point. At each, the durable wreckage
//!    holds whole baseline checkpoints of a prefix of the days, and
//!    recovery converges to the uninterrupted run byte for byte and
//!    answers like a restart built from scratch.
//! 2. `checkpoint_torn_at_every_byte_offset_never_mixes` — truncate one
//!    day's checkpoint at every byte offset; the restore gets that
//!    whole day back or counts one recovery and omits it, never a
//!    partial day, and re-ingest converges to the uninterrupted census.
//! 3. `a_failed_checkpoint_write_keeps_the_day_and_resume_reingests_it`
//!    — an ENOSPC on a checkpoint write costs the checkpoint, not the
//!    day, and the next resumed ingest sweeps the stranded `.tmp` and
//!    re-reads the day from source.

use std::path::PathBuf;
use std::sync::Arc;

use v6census_census::serve::{land_day, restore_state, ServeConfig};
use v6census_census::snapshot::Snapshot;
use v6census_census::stream::{
    checkpoint_path, ErrorMode, FileOutcome, IngestConfig, IngestError, IngestReport,
};
use v6census_census::supervisor::{ingest_dir, SupervisorConfig};
use v6census_census::Census;
use v6census_core::temporal::Day;
use v6census_core::vfs::{is_stale_tmp, FaultFs, FaultPlan, MemFs, Vfs};
use v6census_synth::faults::day_file_name;
use v6census_synth::world::epochs;
use v6census_synth::{World, WorldConfig};
use v6census_trie::AddrSet;

fn source_dir() -> PathBuf {
    PathBuf::from("/mem/source")
}

fn state_dir() -> PathBuf {
    PathBuf::from("/mem/state")
}

/// Emits `days` days of a small synthetic world into a fresh in-memory
/// filesystem, keeping every `stride`-th entry of each day, and returns
/// it with each day's source file, in day order.
fn stage_world(seed: u64, days: i32, stride: usize) -> (Arc<MemFs>, Vec<(Day, PathBuf)>) {
    let fs = Arc::new(MemFs::new());
    let world = World::standard(WorldConfig { seed, scale: 0.001 });
    fs.create_dir_all(&source_dir()).expect("source dir");
    let sources = (0..days)
        .map(|i| {
            let day = epochs::mar2015() + i;
            let mut log = world.day_log(day);
            log.entries = log.entries.into_iter().step_by(stride).collect();
            let path = source_dir().join(day_file_name(day));
            fs.write_atomic(&path, log.to_text().as_bytes())
                .expect("world emission");
            (day, path)
        })
        .collect();
    (fs, sources)
}

/// What a host reboot sees: only the durable side of the filesystem.
fn reboot(fs: &MemFs) -> Arc<MemFs> {
    Arc::new(MemFs::from_durable(fs.durable_files(), fs.durable_dirs()))
}

// ---------------------------------------------------------------------------
// 1. Exhaustive crash-point exploration
// ---------------------------------------------------------------------------

/// One landing run's observable outcome.
struct Run {
    /// Days restored from the checkpoints, in day order.
    restored: Vec<Day>,
    /// Days committed: the restored ones, then those landed from source.
    committed: Vec<Day>,
    /// Published generations, starting with the restore's.
    generations: Vec<u64>,
    /// The last published snapshot, advanced day by day.
    last: Snapshot,
}

/// Serve's durability pipeline on `fs`: restore (sweep + checkpoints),
/// then `land_day` for each source day the census lacks. The ingest is
/// strict, so the first failure — a simulated crash — ends the run as
/// `Err` with the failure rendered.
fn run_pipeline(fs: &Arc<MemFs>, sources: &[(Day, PathBuf)]) -> Result<Run, String> {
    let cfg = ServeConfig {
        source_dir: source_dir(),
        state_dir: Some(state_dir()),
        ingest: IngestConfig {
            mode: ErrorMode::Strict,
            checkpoint_dir: Some(state_dir()),
            max_retries: 0,
            vfs: fs.clone(),
            ..IngestConfig::default()
        },
        ..ServeConfig::default()
    };
    let restore = restore_state(fs.as_ref(), &state_dir());
    let mut census = restore.census;
    let mut last = Snapshot::build(census.clone(), cfg.params, cfg.dense_class);
    let mut generations = vec![last.generation];
    let mut committed = restore.restored.clone();
    let pending: Vec<_> = sources
        .iter()
        .filter(|(day, _)| !census.has_day(*day))
        .collect();
    for (day, path) in pending {
        let (report, published) = land_day(&cfg, path, &mut census, &last)
            .map_err(|e| format!("landing {day} failed: [{}] {e}", e.label()))?;
        last = published.ok_or(format!("day {day} not committed ({:?})", report.outcome))?;
        committed.push(*day);
        generations.push(last.generation);
    }
    Ok(Run {
        restored: restore.restored,
        committed,
        generations,
        last,
    })
}

/// A restarted daemon builds its snapshot from scratch, a live one
/// advances it day by day: `live` must answer like a restart from
/// `fs`'s durable state.
fn assert_restart_answers_alike(fs: &MemFs, live: &Snapshot, at: &str) {
    let recovered = restore_state(fs, &state_dir()).census;
    let restarted = Snapshot::build(recovered, live.params, live.dense_class);
    assert_eq!(live.generation, restarted.generation, "{at}");
    assert!(
        live.same_products(&restarted),
        "{at}: the live snapshot differs from a restart's"
    );
}

#[test]
fn crash_point_exploration_proves_recovery() {
    let (seeded, sources) = stage_world(41, 6, 1);
    let days: Vec<Day> = sources.iter().map(|(day, _)| *day).collect();
    let increasing = |g: &[u64]| g.windows(2).all(|w| matches!(w, [a, b] if a < b));

    // The uninterrupted run every crashed run is compared to.
    let base_fs = reboot(&seeded);
    let baseline = run_pipeline(&base_fs, &sources).expect("the uninterrupted run");
    assert_eq!(baseline.committed, days);
    assert_eq!(baseline.generations, (0..=6).collect::<Vec<u64>>());
    assert_restart_answers_alike(&base_fs, &baseline.last, "baseline");
    let op_log = base_fs.op_log();
    let crash_points = base_fs.mutations();
    // One mkdir of the state dir, then a checkpoint's write + fsync +
    // rename per day.
    assert_eq!(crash_points, 1 + 3 * days.len(), "{op_log:#?}");
    let baseline_durable = base_fs.durable_files();

    for k in 0..crash_points {
        let at = format!("crash {k} ({})", op_log.get(k).map_or("?", String::as_str));
        let fs = reboot(&seeded);
        fs.set_crash_after(k);
        let crashed = run_pipeline(&fs, &sources);
        assert!(fs.crashed(), "{at}: the schedule never fired");
        assert!(crashed.is_err(), "{at}: the run reported success");

        // No torn state visible: every durable checkpoint is the
        // baseline's, byte for byte, and their days are a prefix of the
        // baseline's — never a mix.
        let wreck = fs.durable_files();
        let mut durable_days = Vec::new();
        for (path, bytes) in wreck.iter().filter(|(p, _)| p.starts_with(state_dir())) {
            let name = path.file_name().map(|n| n.to_string_lossy());
            if name.is_some_and(|n| is_stale_tmp(&n)) {
                continue; // an aborted write's leftover
            }
            let day = days
                .iter()
                .find(|day| checkpoint_path(&state_dir(), **day) == *path);
            assert!(day.is_some(), "{at}: unexpected {}", path.display());
            assert_eq!(
                Some(bytes),
                baseline_durable.get(path),
                "{at}: {} differs from the baseline",
                path.display()
            );
            durable_days.extend(day);
        }
        assert!(
            days.starts_with(&durable_days),
            "{at}: checkpointed days {durable_days:?}"
        );

        // Recovery restores a prefix, re-ingests every lost day,
        // republishes monotonically, and converges byte for byte.
        let rec_fs = Arc::new(MemFs::from_durable(wreck, fs.durable_dirs()));
        let rec = run_pipeline(&rec_fs, &sources)
            .unwrap_or_else(|e| panic!("{at}: recovery failed: {e}"));
        assert!(days.starts_with(&rec.restored), "{at}: {:?}", rec.restored);
        assert_eq!(rec.committed, days, "{at}");
        assert!(increasing(&rec.generations), "{at}: {:?}", rec.generations);
        assert_eq!(rec.generations.last(), baseline.generations.last(), "{at}");
        assert!(
            rec_fs.durable_files() == baseline_durable,
            "{at}: recovered durable state differs from the baseline's"
        );
        assert_restart_answers_alike(&rec_fs, &rec.last, &at);
    }
}

// ---------------------------------------------------------------------------
// 2. A checkpoint torn at every byte offset
// ---------------------------------------------------------------------------

/// Runs a resumable checkpointed ingest of the staged source through
/// `fs` (possibly fault-injecting).
fn ingest_over(fs: Arc<dyn Vfs>) -> Result<IngestReport, IngestError> {
    let cfg = IngestConfig {
        checkpoint_dir: Some(state_dir()),
        resume: true,
        vfs: fs,
        ..IngestConfig::default()
    };
    ingest_dir(&source_dir(), &cfg, &SupervisorConfig::default()).map(|(report, _)| report)
}

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
    let (fs, sources) = stage_world(77, 4, 50);
    let state = state_dir();
    let baseline = ingest_over(fs.clone()).expect("baseline ingest");
    assert_eq!(baseline.census.days().count(), sources.len());
    let want = days_of(&baseline.census);

    let torn_day = sources[1].0;
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
        let recovered = ingest_over(torn.clone()).expect("recovery ingest");
        assert_eq!(
            days_of(&recovered.census),
            want,
            "offset {offset}: recovery must rebuild the baseline census"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. A checkpoint write that fails
// ---------------------------------------------------------------------------

#[test]
fn a_failed_checkpoint_write_keeps_the_day_and_resume_reingests_it() {
    // ENOSPC 64 bytes into the first checkpoint write: lenient ingest
    // keeps the day and reports one `io` error on it.
    let (fs, sources) = stage_world(91, 4, 1);
    let plan = FaultPlan::parse("enospc@64:ckpt").expect("plan parses");
    let faulty = Arc::new(FaultFs::new(fs.clone(), plan));
    let run = ingest_over(faulty.clone()).expect("a lenient ingest completes");
    assert_eq!(faulty.injected(), 1);
    let outcomes = |report: &IngestReport| -> Vec<FileOutcome> {
        report.files.iter().map(|f| f.outcome).collect()
    };
    assert_eq!(outcomes(&run), [FileOutcome::Ingested; 4]);
    assert!(
        matches!(run.files[0].errors.as_slice(), [IngestError::Io { path, .. }]
            if path == &checkpoint_path(&state_dir(), sources[0].0)),
        "{:?}",
        run.files[0].errors
    );
    assert!(run.files[1..].iter().all(|f| f.errors.is_empty()));
    assert!(!fs.exists(&checkpoint_path(&state_dir(), sources[0].0)));

    // Resumed, the ingest sweeps the stranded `.tmp`, re-reads the day
    // whose checkpoint was lost, and restores the rest.
    let resumed = ingest_over(fs.clone()).expect("the resumed ingest");
    assert_eq!(resumed.stale_tmp_removed, 1);
    let mut want = vec![FileOutcome::FromCheckpoint; 4];
    want[0] = FileOutcome::Ingested;
    assert_eq!(outcomes(&resumed), want);
    assert_eq!(days_of(&resumed.census), days_of(&run.census));
}
