//! Exhaustive crash-point exploration of the durability pipeline.
//!
//! The serve daemon's crash story used to be demonstrated at a handful
//! of hand-picked points (SIGKILL after publish, one torn file).
//! Real durability bugs live in the gaps. This harness closes them by
//! *enumerating every gap*: it drives serve's own landing step
//! (`serve::land_day`: ingest→checkpoint→snapshot) against a
//! [`MemFs`] that models the documented persistence contract (DESIGN.md
//! "Crash consistency": what survives a crash is fsynced bytes plus
//! completed renames/removals), counts every durability-relevant
//! mutation of the uninterrupted baseline run, then replays the run once
//! per mutation ordinal with a crash scheduled at exactly that
//! operation. At each crash point it inspects the durable wreckage and
//! runs recovery, asserting the invariants:
//!
//! 1. **No torn state visible** — the durable checkpoints in the
//!    wreckage are those of a *prefix* of the baseline's committed days
//!    (generation g or earlier, never a mix), and every one is
//!    byte-identical to the baseline's.
//! 2. **Monotonic generations** — every run (baseline, crashed,
//!    recovery) publishes strictly increasing snapshot generations, and
//!    recovery restores at or below the last pre-crash generation.
//! 3. **Byte-identical resume** — recovery completes, commits exactly
//!    the baseline's days, reaches the baseline generation, and leaves
//!    the durable filesystem byte-for-byte equal to the uninterrupted
//!    run's. Resumed is *identical*, not just similar. Its last
//!    snapshot, advanced day by day, answers exactly like one a
//!    restart builds from scratch out of the durable state.
//! 4. **Lost days re-ingestable** — days whose checkpoint did not
//!    survive are re-ingested from source during
//!    recovery; nothing is silently orphaned (stale `.tmp` leftovers
//!    are swept and counted).
//!
//! Violations are collected, never panicked — the harness itself obeys
//! the census crates' no-panic discipline.

use std::path::PathBuf;
use std::sync::Arc;

use v6census_core::temporal::Day;
use v6census_core::vfs::{MemFs, Vfs};
use v6census_synth::world::epochs;
use v6census_synth::{World, WorldConfig};

use crate::ingest::Census;
use crate::serve::{land_day, restore_state, ServeConfig};
use crate::snapshot::Snapshot;
use crate::stream::{checkpoint_day, day_files, file_name, ErrorMode, IngestConfig};

/// Shape of the synthetic run the explorer drives.
#[derive(Clone, Copy, Debug)]
pub struct CrashTestConfig {
    /// Consecutive days to ingest (more days → more crash points: one
    /// state-dir mkdir, then a checkpoint's write + fsync + rename per
    /// day, so 6 days yield 19).
    pub days: u32,
    /// World seed (determinism: same seed → same crash points).
    pub seed: u64,
    /// World scale (fraction of the standard population).
    pub scale: f64,
}

impl Default for CrashTestConfig {
    fn default() -> CrashTestConfig {
        CrashTestConfig {
            days: 6,
            seed: 41,
            scale: 0.001,
        }
    }
}

/// What the exploration proved (or found broken).
#[derive(Clone, Debug)]
pub struct CrashReport {
    /// Distinct crash points enumerated (one per durability-relevant
    /// mutation of the baseline run).
    pub crash_points: usize,
    /// Days the baseline run committed.
    pub baseline_days: usize,
    /// The baseline's final published generation.
    pub baseline_generation: u64,
    /// The baseline's durability op log (one line per mutation), for
    /// diagnosing a violation at ordinal *k*.
    pub op_log: Vec<String>,
    /// Every invariant violation found, labeled by crash ordinal.
    /// Empty means the recovery invariants hold at every crash point.
    pub violations: Vec<String>,
}

/// Where the harness puts the synthetic world inside the [`MemFs`].
pub fn source_dir() -> PathBuf {
    PathBuf::from("/crash/source")
}

/// Where the pipeline keeps its checkpoints.
pub fn state_dir() -> PathBuf {
    PathBuf::from("/crash/state")
}

/// One pipeline run's observable outcome.
struct RunResult {
    /// Days committed, in commit order (restored first, then ingested).
    committed: Vec<Day>,
    /// Days restored from the checkpoints before any source ingest, in
    /// day order.
    restored: Vec<Day>,
    /// Published snapshot generations, starting with the restore
    /// generation.
    generations: Vec<u64>,
    /// The last published snapshot, advanced day by day from the
    /// restore snapshot.
    last: Snapshot,
}

impl RunResult {
    fn final_generation(&self) -> u64 {
        self.generations.last().copied().unwrap_or(0)
    }

    /// Strictly increasing after the restore generation.
    fn monotonic(&self) -> bool {
        self.generations.windows(2).all(|w| match w {
            [a, b] => a < b,
            _ => true,
        })
    }
}

/// The daemon configuration the explorer lands days with: strict, so
/// the first failure — the simulated crash — aborts the run.
fn serve_config(fs: &Arc<MemFs>) -> ServeConfig {
    ServeConfig {
        source_dir: source_dir(),
        state_dir: Some(state_dir()),
        ingest: IngestConfig {
            mode: ErrorMode::Strict,
            checkpoint_dir: Some(state_dir()),
            max_retries: 0,
            vfs: Arc::clone(fs) as Arc<dyn Vfs>,
            ..IngestConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Runs serve's durability pipeline to completion on `fs`: restore
/// (sweep + checkpoints), then `land_day` for each pending source day —
/// serve's own parse → commit → checkpoint → snapshot step. `Err`
/// carries the first failure rendered — under a crash schedule that is
/// the simulated crash surfacing as a typed I/O error.
fn run_pipeline(fs: &Arc<MemFs>) -> Result<RunResult, String> {
    let cfg = serve_config(fs);
    let state = state_dir();

    let restore = restore_state(fs.as_ref(), &state);
    let mut census = restore.census;
    let restored = restore.restored.clone();
    let mut committed = restore.restored;
    let mut last = Snapshot::build(census.clone(), cfg.params, cfg.dense_class);
    let mut generations = vec![last.generation];

    let mut pending =
        day_files(fs.as_ref(), &cfg.source_dir).map_err(|e| format!("source scan failed: {e}"))?;
    pending.retain(|(day, _)| !census.has_day(*day));
    for (day, path) in pending {
        let (report, published) = land_day(&cfg, &path, &mut census, &last)
            .map_err(|e| format!("landing {day} failed: [{}] {e}", e.label()))?;
        let Some(snapshot) = published else {
            return Err(format!("day {day} not committed ({:?})", report.outcome));
        };
        committed.push(day);
        generations.push(snapshot.generation);
        last = snapshot;
    }

    Ok(RunResult {
        committed,
        restored,
        generations,
        last,
    })
}

/// The synthetic world's day logs, emitted into a fresh [`MemFs`].
fn stage_world(cfg: &CrashTestConfig) -> Result<MemFs, String> {
    let world = World::standard(WorldConfig {
        seed: cfg.seed,
        scale: cfg.scale,
    });
    let fs = MemFs::new();
    world
        .emit_day_logs(&fs, &source_dir(), epochs::mar2015(), cfg.days)
        .map_err(|e| format!("world emission failed: {e}"))?;
    Ok(fs)
}

/// A restarted daemon builds its snapshot from scratch, a live one
/// advances it day by day; `Some` names the difference when `live`
/// does not answer like a restart from `fs`'s durable state.
fn restart_differs(fs: &MemFs, live: &Snapshot) -> Option<String> {
    let restarted = Snapshot::build(
        restore_state(fs, &state_dir()).census,
        live.params,
        live.dense_class,
    );
    (!live.same_products(&restarted)).then(|| {
        format!(
            "live snapshot (generation {}) differs from a restart's (generation {})",
            live.generation, restarted.generation
        )
    })
}

/// Runs the pipeline uninterrupted over the staged world and restarts
/// from its durable state. Returns the run's last published snapshot,
/// advanced day by day, and the census the restart recovers; `None`
/// when the run fails ([`explore`] reports why as a baseline
/// violation).
pub fn converge(cfg: &CrashTestConfig) -> Option<(Snapshot, Census)> {
    let fs = Arc::new(stage_world(cfg).ok()?);
    let run = run_pipeline(&fs).ok()?;
    Some((run.last, restore_state(fs.as_ref(), &state_dir()).census))
}

/// True when `prefix` is an exact leading slice of `full`.
fn is_prefix(prefix: &[Day], full: &[Day]) -> bool {
    prefix.len() <= full.len() && prefix.iter().zip(full.iter()).all(|(a, b)| a == b)
}

/// Enumerates every crash point of the baseline run, simulates a crash
/// at each, runs recovery, and checks the module-level invariants.
/// Returns the report; violations are collected, not panicked.
pub fn explore(cfg: &CrashTestConfig) -> CrashReport {
    let mut violations: Vec<String> = Vec::new();
    let bail = |violations: Vec<String>| CrashReport {
        crash_points: 0,
        baseline_days: 0,
        baseline_generation: 0,
        op_log: Vec::new(),
        violations,
    };

    // Stage the synthetic world once; every run starts from this
    // durable image, exactly as a host reboot would see it.
    let seeded = match stage_world(cfg) {
        Ok(fs) => fs,
        Err(e) => {
            violations.push(e);
            return bail(violations);
        }
    };
    let world_files = seeded.durable_files();
    let world_dirs = seeded.durable_dirs();

    // Baseline: the uninterrupted run every crashed run is compared to.
    let base_fs = Arc::new(MemFs::from_durable(world_files.clone(), world_dirs.clone()));
    let baseline = match run_pipeline(&base_fs) {
        Ok(r) => r,
        Err(e) => {
            violations.push(format!("baseline run failed: {e}"));
            return bail(violations);
        }
    };
    if !baseline.monotonic() {
        violations.push(format!(
            "baseline generations not strictly monotonic: {:?}",
            baseline.generations
        ));
    }
    if baseline.committed.len() != cfg.days as usize {
        violations.push(format!(
            "baseline committed {} days, expected {}",
            baseline.committed.len(),
            cfg.days
        ));
    }
    if let Some(v) = restart_differs(&base_fs, &baseline.last) {
        violations.push(format!("baseline: {v}"));
    }
    let crash_points = base_fs.mutations();
    let op_log = base_fs.op_log();
    let baseline_durable = base_fs.durable_files();

    for k in 0..crash_points {
        let fs = Arc::new(MemFs::from_durable(world_files.clone(), world_dirs.clone()));
        fs.set_crash_after(k);
        let crashed_run = run_pipeline(&fs);
        let at = op_log.get(k).map(String::as_str).unwrap_or("?");
        if !fs.crashed() {
            violations.push(format!("crash {k} ({at}): schedule never fired"));
            continue;
        }
        if crashed_run.is_ok() {
            violations.push(format!(
                "crash {k} ({at}): run reported success despite crashing"
            ));
        }
        let last_pre_crash_generation = match &crashed_run {
            Ok(r) => r.final_generation(),
            Err(_) => u64::MAX, // unknown: publish count not observable mid-crash
        };

        // The durable wreckage: exactly what a restart observes.
        let wreck_files = fs.durable_files();
        let wreck_dirs = fs.durable_dirs();

        // Invariant 1: no torn state visible. Durable checkpoints must
        // be byte-identical to the baseline's (content is deterministic
        // per day; write_atomic admits no intermediate states), and
        // their days must be a prefix of the baseline's committed days
        // — g or earlier, never a mix.
        let mut durable_days = Vec::new();
        for (path, bytes) in &wreck_files {
            if !path.starts_with(state_dir()) || v6census_core::vfs::is_stale_tmp(&file_name(path))
            {
                continue; // source, or an aborted-write leftover
            }
            durable_days.extend(checkpoint_day(path));
            match baseline_durable.get(path) {
                Some(base) if base == bytes => {}
                Some(_) => violations.push(format!(
                    "crash {k} ({at}): {} differs from baseline bytes",
                    path.display()
                )),
                None => violations.push(format!(
                    "crash {k} ({at}): unexpected durable file {}",
                    path.display()
                )),
            }
        }
        durable_days.sort();
        if !is_prefix(&durable_days, &baseline.committed) {
            violations.push(format!(
                "crash {k} ({at}): checkpointed days {durable_days:?} are not a prefix of baseline {:?}",
                baseline.committed
            ));
        }
        let rec_fs = Arc::new(MemFs::from_durable(wreck_files, wreck_dirs));

        // Invariants 2–4: recovery completes, restores at or below the
        // pre-crash generation, republishes monotonically, re-ingests
        // every lost day, and converges byte-identically.
        match run_pipeline(&rec_fs) {
            Ok(rec) => {
                if !rec.monotonic() {
                    violations.push(format!(
                        "crash {k} ({at}): recovery generations not monotonic: {:?}",
                        rec.generations
                    ));
                }
                let restored_generation = rec.generations.first().copied().unwrap_or(0);
                if restored_generation > last_pre_crash_generation {
                    violations.push(format!(
                        "crash {k} ({at}): restored generation {restored_generation} exceeds last pre-crash generation {last_pre_crash_generation}"
                    ));
                }
                if !is_prefix(&rec.restored, &baseline.committed) {
                    violations.push(format!(
                        "crash {k} ({at}): restored days {:?} not a prefix of baseline {:?}",
                        rec.restored, baseline.committed
                    ));
                }
                if rec.committed != baseline.committed {
                    violations.push(format!(
                        "crash {k} ({at}): recovery committed {:?}, baseline {:?}",
                        rec.committed, baseline.committed
                    ));
                }
                if rec.final_generation() != baseline.final_generation() {
                    violations.push(format!(
                        "crash {k} ({at}): recovery generation {} != baseline {}",
                        rec.final_generation(),
                        baseline.final_generation()
                    ));
                }
                if rec_fs.durable_files() != baseline_durable {
                    violations.push(format!(
                        "crash {k} ({at}): recovered durable state not byte-identical to baseline"
                    ));
                }
                if let Some(v) = restart_differs(&rec_fs, &rec.last) {
                    violations.push(format!("crash {k} ({at}): {v}"));
                }
            }
            Err(e) => violations.push(format!("crash {k} ({at}): recovery failed: {e}")),
        }
    }

    CrashReport {
        crash_points,
        baseline_days: baseline.committed.len(),
        baseline_generation: baseline.final_generation(),
        op_log,
        violations,
    }
}
