//! Supervised parallel execution of the analysis pipeline.
//!
//! The paper's measurement ran for years over a planetary CDN; at that
//! scale the question is not *whether* an analysis shard will misbehave
//! but *what the run does when it does*. This module runs the census
//! pipeline as a sequence of stages, each a set of independent work
//! units run by a pool of worker threads, under four guarantees:
//!
//! * **Panic isolation** — every unit runs under `catch_unwind`. A
//!   poisoned shard is retried once, inline on the same worker; if it
//!   dies again it is *excluded and recorded*, never allowed to abort
//!   the run.
//! * **Deadlines** — each stage has an optional wall-clock deadline. On
//!   expiry the collector raises the shared cancellation token, after
//!   which no worker claims a unit or starts a retry, and an attempt
//!   that was under way reports no value; it abandons hung workers
//!   (they are detached threads; a stuck unit cannot hold the run
//!   hostage) and records which units timed out vs. never ran.
//! * **Resource budgets** — units receive a [`UnitCtx`] carrying the
//!   trie node budget; a densify unit that hits the cap degrades to a
//!   coarser aggregation level ([`v6census_trie::RadixTree::densify_budgeted`])
//!   and reports that it did.
//! * **Degraded-mode results** — every stage yields a [`StageReport`],
//!   rolled into a [`RunManifest`]; every analysis product is an
//!   [`Annotated`] value on the `Exact ≥ Degraded ≥ Partial` lattice, so
//!   a reader can always tell what a number cost to produce.
//!
//! The engine takes no lock. Workers claim unit indices from one atomic
//! counter and send each unit's outcome back over a bounded channel: a
//! worker waits once `2 × jobs` outcomes are queued for the collector,
//! whose `recv_timeout` on that channel is also the stage deadline.
//!
//! Determinism: work decomposition is fixed (per day file for ingest,
//! per 16-bit address segment for densify) regardless of `--jobs`;
//! results are collected by unit index and committed serially in day
//! order. A clean run at `--jobs=8` is byte-identical to `--jobs=1`.

use crate::ingest::Census;
use crate::stream::{
    day_files, sweep_stale_tmp, FileOutcome, FileReport, IngestConfig, IngestError, IngestReport,
    ParsedFile, StreamIngestor,
};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};
use v6census_addr::{Addr, PrefixLen};
use v6census_core::quality::{Annotated, Quality};
use v6census_core::temporal::{Day, GapPolicy, StabilityParams, StabilityVerdict};
use v6census_synth::AnalysisFaultPlan;
use v6census_trie::{DensePrefix, RadixTree};

/// Worker threads are named with this prefix so the process-wide panic
/// hook can tell a *contained* (supervised) panic from a real one and
/// keep the former off stderr.
const WORKER_PREFIX: &str = "v6c-sup-";

/// How the supervised engine runs stages.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Worker threads per stage (at least 1; clamped to the unit count).
    pub jobs: usize,
    /// Wall-clock deadline applied to each stage, `None` for no limit.
    pub stage_deadline: Option<Duration>,
    /// Trie node budget per work unit (0 = unlimited); densify units
    /// degrade to coarser aggregation rather than exceed it.
    pub max_trie_nodes: usize,
    /// Injected analysis faults (empty outside tests and drills).
    pub faults: AnalysisFaultPlan,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            jobs: 1,
            stage_deadline: None,
            max_trie_nodes: 0,
            faults: AnalysisFaultPlan::none(),
        }
    }
}

/// Per-attempt context handed to a work unit: the cancellation token and
/// the accounting the unit reports back through. Each context lives on
/// the one worker thread that runs the attempt, so its accounting is
/// plain cells, not shared state.
pub struct UnitCtx {
    cancel: Arc<AtomicBool>,
    degraded: RefCell<Vec<String>>,
    trie_nodes: Cell<usize>,
}

impl UnitCtx {
    fn new(cancel: Arc<AtomicBool>) -> UnitCtx {
        UnitCtx {
            cancel,
            degraded: RefCell::new(Vec::new()),
            trie_nodes: Cell::new(0),
        }
    }

    /// True once the stage deadline expired; cooperative units check
    /// this at loop boundaries and return early.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Records that this unit produced a degraded (coarser, but still
    /// correct) result, and why.
    pub fn degrade(&self, note: impl Into<String>) {
        self.degraded.borrow_mut().push(note.into());
    }

    /// Records a trie-size observation; the per-unit peak is kept.
    pub fn record_trie_nodes(&self, nodes: usize) {
        self.trie_nodes.set(self.trie_nodes.get().max(nodes));
    }
}

/// One independent piece of a stage's work.
pub struct Unit<T> {
    /// Stable label, e.g. `ingest/2015-03-17` or `densify/2001` — the
    /// name fault injection patterns and manifests match against.
    pub label: String,
    work: Box<dyn Fn(&UnitCtx) -> T + Send + Sync>,
}

impl<T> Unit<T> {
    /// Creates a unit. `work` may run more than once (panic retry), so
    /// it must be a `Fn`, not a `FnOnce`.
    pub fn new(
        label: impl Into<String>,
        work: impl Fn(&UnitCtx) -> T + Send + Sync + 'static,
    ) -> Unit<T> {
        Unit {
            label: label.into(),
            work: Box::new(work),
        }
    }
}

/// What finally happened to one work unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UnitStatus {
    /// Completed; `attempts` is the total tries used (1 = clean).
    Ok {
        /// Attempts used, including the successful one.
        attempts: u32,
    },
    /// Panicked on every allowed attempt; excluded from the results.
    Excluded {
        /// The panic message of the final attempt.
        reason: String,
    },
    /// Was still running when the stage deadline expired.
    TimedOut,
    /// Never started: the deadline expired before a worker claimed it,
    /// or after its first attempt panicked but before the retry began.
    Cancelled,
}

impl UnitStatus {
    /// A stable short label, used in manifests and tests.
    pub fn label(&self) -> &'static str {
        match self {
            UnitStatus::Ok { .. } => "ok",
            UnitStatus::Excluded { .. } => "excluded",
            UnitStatus::TimedOut => "timed-out",
            UnitStatus::Cancelled => "cancelled",
        }
    }
}

/// The manifest entry for one unit.
#[derive(Clone, Debug)]
pub struct UnitReport {
    /// The unit's label.
    pub label: String,
    /// What happened to it.
    pub status: UnitStatus,
    /// Degradation notes the unit recorded.
    pub degraded: Vec<String>,
    /// Peak trie node count the unit observed.
    pub trie_nodes: usize,
}

/// What one stage did: the per-unit outcomes plus stage-level accounting.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// The stage name.
    pub stage: String,
    /// One report per unit, in unit order.
    pub units: Vec<UnitReport>,
    /// Stage wall time in milliseconds (not deterministic; excluded from
    /// [`StageReport::equivalence_key`]).
    pub wall_millis: u64,
    /// True when the stage deadline expired.
    pub deadline_expired: bool,
}

impl StageReport {
    /// Units that completed.
    pub fn ok(&self) -> usize {
        self.units
            .iter()
            .filter(|u| matches!(u.status, UnitStatus::Ok { .. }))
            .count()
    }

    /// Units that needed more than one attempt (recovered or excluded).
    pub fn retried(&self) -> usize {
        self.units
            .iter()
            .filter(|u| {
                matches!(u.status, UnitStatus::Ok { attempts } if attempts > 1)
                    || matches!(u.status, UnitStatus::Excluded { .. })
            })
            .count()
    }

    /// Labels of units excluded after exhausting retries.
    pub fn excluded(&self) -> Vec<&UnitReport> {
        self.units
            .iter()
            .filter(|u| matches!(u.status, UnitStatus::Excluded { .. }))
            .collect()
    }

    /// Labels of units lost to the deadline (timed out or cancelled).
    pub fn lost_to_deadline(&self) -> Vec<&UnitReport> {
        self.units
            .iter()
            .filter(|u| matches!(u.status, UnitStatus::TimedOut | UnitStatus::Cancelled))
            .collect()
    }

    /// Units that recorded a degraded (budget-capped) result.
    pub fn degraded(&self) -> usize {
        self.units.iter().filter(|u| !u.degraded.is_empty()).count()
    }

    /// Peak trie node count across units.
    pub fn peak_trie_nodes(&self) -> usize {
        self.units.iter().map(|u| u.trie_nodes).max().unwrap_or(0)
    }

    /// The stage's position on the quality lattice: `Partial` when any
    /// unit's output is missing, `Degraded` when all completed but some
    /// under a budget, `Exact` otherwise.
    pub fn quality(&self) -> Quality {
        let mut q = Quality::Exact;
        for u in &self.units {
            q = q.meet(match u.status {
                UnitStatus::Ok { .. } if u.degraded.is_empty() => Quality::Exact,
                UnitStatus::Ok { .. } => Quality::Degraded,
                _ => Quality::Partial,
            });
        }
        q
    }

    /// Everything deterministic about the stage — the unit labels and
    /// outcomes, but not wall time — for asserting that runs at
    /// different `--jobs` settings are equivalent.
    pub fn equivalence_key(&self) -> String {
        let mut out = format!("{}:", self.stage);
        for u in &self.units {
            out.push_str(&format!(" {}={}", u.label, u.status.label()));
            if !u.degraded.is_empty() {
                out.push_str("(degraded)");
            }
        }
        out
    }
}

/// The run-level roll-up of every stage, extending the ingest pipeline's
/// `VerdictQuality` idea to the whole analysis: outputs are `Exact`,
/// `Degraded`, or `Partial`, with the evidence attached.
#[derive(Clone, Debug, Default)]
pub struct RunManifest {
    /// Worker threads used.
    pub jobs: usize,
    /// Per-stage reports, in execution order.
    pub stages: Vec<StageReport>,
}

impl RunManifest {
    /// The worst stage quality (Exact when there are no stages).
    pub fn quality(&self) -> Quality {
        Quality::meet_all(self.stages.iter().map(|s| s.quality()))
    }

    /// The deterministic projection of the whole manifest; equal across
    /// `--jobs` settings for a given input.
    pub fn equivalence_key(&self) -> String {
        let keys: Vec<String> = self.stages.iter().map(|s| s.equivalence_key()).collect();
        keys.join("\n")
    }

    /// Renders the `==== run manifest ====` report section. Wall times
    /// make this section legitimately nondeterministic; it is emitted
    /// *before* the analysis section, which stays a pure function of the
    /// ingested data.
    pub fn render(&self) -> String {
        self.render_opts(true)
    }

    /// Renders the manifest without its execution details — the
    /// wall-time column becomes `-` and the `jobs:` line is omitted —
    /// leaving only what was computed, not how. This makes the section
    /// (and therefore the whole census report) a pure function of the
    /// ingested data: `v6census census --no-timings` output is
    /// byte-identical across reruns and `--jobs` settings, which CI
    /// asserts with a plain `diff`.
    pub fn render_stable(&self) -> String {
        self.render_opts(false)
    }

    fn render_opts(&self, timings: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("==== run manifest ====\n");
        if timings {
            let _ = writeln!(out, "jobs: {}", self.jobs);
        }
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>5} {:>7} {:>8} {:>9} {:>8} {:>9} {:>8}",
            "stage",
            "units",
            "ok",
            "retried",
            "excluded",
            "timed-out",
            "degraded",
            "peak-trie",
            "wall"
        );
        for s in &self.stages {
            let lost = s.lost_to_deadline();
            let timed_out = lost
                .iter()
                .filter(|u| u.status == UnitStatus::TimedOut)
                .count();
            let wall = if timings {
                format!("{}ms", s.wall_millis)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{:<12} {:>5} {:>5} {:>7} {:>8} {:>9} {:>8} {:>9} {:>8}",
                s.stage,
                s.units.len(),
                s.ok(),
                s.retried(),
                s.excluded().len(),
                timed_out,
                s.degraded(),
                s.peak_trie_nodes(),
                wall,
            );
        }
        // Unit labels are stage-prefixed by convention (`stability/2015-03-17`),
        // so casualty lines print the label alone.
        for s in &self.stages {
            for u in s.excluded() {
                let UnitStatus::Excluded { reason } = &u.status else {
                    continue;
                };
                let _ = writeln!(out, "  excluded {}: {}", u.label, reason);
            }
            for u in s.lost_to_deadline() {
                let _ = writeln!(out, "  {} {} at stage deadline", u.status.label(), u.label);
            }
            for u in &s.units {
                for note in &u.degraded {
                    let _ = writeln!(out, "  degraded {}: {}", u.label, note);
                }
            }
        }
        let _ = writeln!(out, "quality: {}", self.quality());
        out
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Turns a panic payload into a human-readable reason.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Installs (once per process) a panic hook that suppresses the default
/// stderr backtrace for panics on supervisor worker threads — those are
/// *contained* and reported through the manifest — while delegating
/// every other panic to the previously installed hook.
fn silence_supervised_panics() {
    static SILENCE: Once = Once::new();
    SILENCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let supervised = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(WORKER_PREFIX));
            if !supervised {
                prev(info);
            }
        }));
    });
}

/// A unit's final outcome, sent by its worker to the collector.
struct Done<T> {
    idx: usize,
    /// Attempts used, including the last one.
    attempts: u32,
    /// The value, or the last attempt's panic message.
    result: Result<T, String>,
    degraded: Vec<String>,
    trie_nodes: usize,
}

/// Runs one stage: executes `units` on up to `cfg.jobs` workers with
/// panic isolation, one retry per panicked unit, and the stage deadline.
/// Returns the per-unit results (by unit index; `None` for units whose
/// output is missing) and the stage report.
pub fn run_stage<T: Send + 'static>(
    stage: impl Into<String>,
    units: Vec<Unit<T>>,
    cfg: &SupervisorConfig,
) -> (Vec<Option<T>>, StageReport) {
    let stage = stage.into();
    // lint: allow(L002, reason = "wall-clock stage duration feeds operator-facing StageReport timing only; equivalence_key and product tables never read it")
    let start = Instant::now();
    let n = units.len();
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut reports: Vec<UnitReport> = units
        .iter()
        .map(|u| UnitReport {
            label: u.label.clone(),
            status: UnitStatus::Cancelled,
            degraded: Vec::new(),
            trie_nodes: 0,
        })
        .collect();
    if n == 0 {
        return (
            results,
            StageReport {
                stage,
                units: reports,
                wall_millis: 0,
                deadline_expired: false,
            },
        );
    }

    silence_supervised_panics();

    let jobs = cfg.jobs.max(1).min(n);
    let cancel = Arc::new(AtomicBool::new(false));
    let next = Arc::new(AtomicUsize::new(0));
    // Set while a unit has an attempt under way or finished; a unit
    // whose retry never starts is reset, so the deadline can tell a
    // unit that timed out from one that never ran.
    let started: Arc<Vec<AtomicBool>> = Arc::new((0..n).map(|_| AtomicBool::new(false)).collect());
    let units = Arc::new(units);
    // Bounded: workers block once `2 × jobs` results await collection,
    // so a fast stage cannot buffer its whole output ahead of the
    // (serial) collector.
    let (tx, rx) = mpsc::sync_channel::<Done<T>>(jobs * 2);

    let mut handles = Vec::with_capacity(jobs);
    for w in 0..jobs {
        let cancel = Arc::clone(&cancel);
        let next = Arc::clone(&next);
        let started = Arc::clone(&started);
        let units = Arc::clone(&units);
        let tx = tx.clone();
        let faults = cfg.faults.clone();
        // Detached on purpose: a hung unit must be abandonable. A scoped
        // pool would make the whole stage block on its slowest thread.
        let spawned = std::thread::Builder::new()
            .name(format!("{WORKER_PREFIX}{w}"))
            .spawn(move || {
                // Once the deadline raises `cancel`, no unit is claimed.
                while !cancel.load(Ordering::SeqCst) {
                    let idx = next.fetch_add(1, Ordering::SeqCst);
                    let Some(unit) = units.get(idx) else { break };
                    let mut attempt = 0;
                    let done = loop {
                        started[idx].store(true, Ordering::SeqCst);
                        let ctx = UnitCtx::new(Arc::clone(&cancel));
                        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                            faults.trip(&unit.label, attempt);
                            (unit.work)(&ctx)
                        }));
                        if caught.is_err() && attempt == 0 {
                            // One retry, inline on this worker. If the
                            // deadline fired meanwhile the retry never
                            // starts and the unit reports `Cancelled`.
                            started[idx].store(false, Ordering::SeqCst);
                            if cancel.load(Ordering::SeqCst) {
                                return;
                            }
                            attempt = 1;
                            continue;
                        }
                        break Done {
                            idx,
                            attempts: attempt + 1,
                            result: caught.map_err(panic_message),
                            degraded: ctx.degraded.take(),
                            trie_nodes: ctx.trie_nodes.get(),
                        };
                    };
                    // An attempt during which the deadline fired may have
                    // cut its work short, so it sends nothing and its unit
                    // reports `TimedOut`. A send error means the collector
                    // gave up (deadline); nothing left to do but exit.
                    if cancel.load(Ordering::SeqCst) || tx.send(done).is_err() {
                        break;
                    }
                }
            });
        match spawned {
            Ok(h) => handles.push(h),
            // Could not spawn a worker (resource exhaustion). The workers
            // that did start claim every unit; with zero workers the
            // channel disconnects at once and the units report below.
            Err(_) => break,
        }
    }
    drop(tx);

    let mut settled = vec![false; n];
    let mut settle = |done: Done<T>| {
        settled[done.idx] = true;
        let report = &mut reports[done.idx];
        report.status = match done.result {
            Ok(value) => {
                results[done.idx] = Some(value);
                UnitStatus::Ok {
                    attempts: done.attempts,
                }
            }
            Err(reason) => UnitStatus::Excluded { reason },
        };
        report.degraded = done.degraded;
        report.trie_nodes = done.trie_nodes;
    };
    // Each unit is claimed once, so it sends at most one outcome.
    let mut outstanding = n;
    let mut deadline_expired = false;
    while outstanding > 0 {
        let received = match cfg.stage_deadline {
            Some(d) => match d.checked_sub(start.elapsed()) {
                Some(remaining) => rx.recv_timeout(remaining),
                None => {
                    deadline_expired = true;
                    break;
                }
            },
            None => rx.recv().map_err(RecvTimeoutError::from),
        };
        match received {
            Ok(done) => {
                settle(done);
                outstanding -= 1;
            }
            // The loop top reads the clock again.
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    if deadline_expired {
        // Cooperative cancellation for units that poll, abandonment for
        // those that don't.
        cancel.store(true, Ordering::SeqCst);
    } else {
        // Clean path: every unit settled (or every worker is gone), so
        // each worker is at or heading for its exit. Join so no worker
        // still holds references (e.g. to a shared census) after the
        // stage returns. Never joined on the deadline path — that is
        // exactly when a worker may be hung.
        for h in handles {
            let _ = h.join();
        }
    }
    // Grace drain: outcomes already queued when the collector stopped
    // receiving still count.
    while let Ok(done) = rx.try_recv() {
        settle(done);
    }
    // Classify what the deadline left behind: a started unit was
    // abandoned mid-attempt (or its outcome is still in flight); one
    // never started (or whose retry never did) was cancelled.
    for (report, (started, settled)) in reports.iter_mut().zip(started.iter().zip(settled)) {
        if !settled {
            report.status = if started.load(Ordering::SeqCst) {
                UnitStatus::TimedOut
            } else {
                UnitStatus::Cancelled
            };
        }
    }

    let report = StageReport {
        stage,
        units: reports,
        wall_millis: start.elapsed().as_millis() as u64,
        deadline_expired,
    };
    (results, report)
}

// ---------------------------------------------------------------------------
// The supervised census pipeline
// ---------------------------------------------------------------------------

/// Full configuration of a supervised census run.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Streaming-ingestion configuration (error budget, checkpoints…).
    pub ingest: IngestConfig,
    /// Supervision configuration (jobs, deadlines, budgets, faults).
    pub supervisor: SupervisorConfig,
    /// nd-stability parameters for the stability stage.
    pub params: StabilityParams,
    /// Reference day; `None` picks the middle ingested day.
    pub reference: Option<Day>,
    /// Gap policy for the stability stage.
    pub gap_policy: GapPolicy,
    /// Density class numerator *n* for the densify stage.
    pub dense_n: u64,
    /// Density class prefix length *p* for the densify stage.
    pub dense_p: PrefixLen,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            ingest: IngestConfig::default(),
            supervisor: SupervisorConfig::default(),
            params: StabilityParams::nd(3),
            reference: None,
            gap_policy: GapPolicy::Widen { max_extra: 7 },
            dense_n: 8,
            dense_p: PrefixLen::lit::<64>(),
        }
    }
}

/// Everything a supervised census run produced: the ingest report, the
/// quality-annotated analysis products, and the run manifest.
pub struct SupervisedRun {
    /// Per-file ingest health plus the census itself.
    pub report: IngestReport,
    /// The reference day analysis ran against (`None`: nothing ingested).
    pub reference: Option<Day>,
    /// Rendered Table 1 for the reference day; `None` when the reference
    /// day is absent from the census; quality `Partial` when the stage
    /// lost the unit.
    pub table1: Option<Annotated<Option<String>>>,
    /// The gap-aware stability verdict; the annotation folds in both the
    /// verdict's own quality (widened/unknown windows) and supervision.
    pub stability: Option<Annotated<Option<StabilityVerdict>>>,
    /// Dense prefixes of the reference day's Other addresses, merged
    /// across per-segment shards.
    pub dense: Option<Annotated<Vec<DensePrefix>>>,
    /// The run manifest.
    pub manifest: RunManifest,
}

impl SupervisedRun {
    /// The run's overall quality: the manifest meet with every product
    /// annotation (so a widened stability window degrades the run even
    /// though no supervision machinery fired).
    pub fn overall_quality(&self) -> Quality {
        let mut q = self.manifest.quality();
        if let Some(t) = &self.table1 {
            q = q.meet(t.quality);
        }
        if let Some(s) = &self.stability {
            q = q.meet(s.quality);
        }
        if let Some(d) = &self.dense {
            q = q.meet(d.quality);
        }
        q
    }
}

/// Ingests every day file under `dir`: the one directory ingest behind
/// [`run_census`] (and so `v6census census`). It sweeps stale `.tmp`
/// leftovers from the checkpoint directory, parses one supervised unit
/// per file (in parallel at `jobs > 1`), then commits serially in day
/// order, so the report is the same at any job count. Files past
/// `max_days` are `Skipped`; a unit the supervisor lost (panic twice,
/// deadline) is reported as [`IngestError::UnitFailed`], not an abort.
///
/// The `Err` arm fires only for strict-mode aborts and an unreadable
/// directory.
pub fn ingest_dir(
    dir: &Path,
    cfg: &IngestConfig,
    sup: &SupervisorConfig,
) -> Result<(IngestReport, StageReport), IngestError> {
    let ingestor = StreamIngestor::new(cfg.clone());
    // Sweep aborted-write leftovers before resume can see them. A failed
    // sweep is not fatal — stale files survive to the next run.
    let stale_tmp_removed = match &cfg.checkpoint_dir {
        Some(ckpt_dir) => sweep_stale_tmp(cfg.vfs.as_ref(), ckpt_dir).unwrap_or(0),
        None => 0,
    };
    let paths = day_files(cfg.vfs.as_ref(), dir).map_err(|e| IngestError::Io {
        path: dir.to_path_buf(),
        kind: e.kind(),
        retries: 0,
        detail: e.to_string(),
    })?;

    // A day delivered more than once is read from its files even under
    // `--resume`: its checkpoint holds the merged day, which no single
    // delivery's health row stands for.
    let reread = StreamIngestor::new(IngestConfig {
        resume: false,
        ..cfg.clone()
    });
    let repeated: BTreeSet<Day> = paths
        .windows(2)
        .filter_map(|w| match w {
            [(a, _), (b, _)] if a == b => Some(*a),
            _ => None,
        })
        .collect();
    let units: Vec<Unit<Result<ParsedFile, IngestError>>> = paths
        .iter()
        .map(|(day, path)| {
            let ingestor = if repeated.contains(day) {
                reread.clone()
            } else {
                ingestor.clone()
            };
            let path = path.clone();
            Unit::new(format!("ingest/{day}"), move |_ctx: &UnitCtx| {
                ingestor.parse_file(&path)
            })
        })
        .collect();
    let (parsed, stage) = run_stage("ingest", units, sup);

    let mut census = Census::new_empty();
    let mut files: Vec<FileReport> = Vec::new();
    let mut ingested_days: Vec<Day> = Vec::new();
    for (slot, ((day, path), unit)) in parsed.into_iter().zip(paths.into_iter().zip(&stage.units)) {
        let mut report = FileReport {
            path: path.clone(),
            day,
            data_lines: 0,
            bad_lines: 0,
            outcome: FileOutcome::Skipped,
            errors: Vec::new(),
        };
        let stopped = cfg.max_days.is_some_and(|n| ingested_days.len() >= n);
        match slot {
            _ if stopped => {} // the run stopped first: stays `Skipped`
            Some(Ok(parsed)) => {
                report = ingestor.commit_parsed(parsed, &mut census, &mut ingested_days)?
            }
            Some(Err(e)) => return Err(e), // strict-mode abort, in file order
            None => {
                report.outcome = FileOutcome::Failed;
                report.errors.push(IngestError::UnitFailed {
                    path,
                    reason: format!("supervised ingest unit {}", unit.status.label()),
                });
            }
        }
        files.push(report);
    }
    let gaps = match (ingested_days.iter().min(), ingested_days.iter().max()) {
        (Some(&first), Some(&last)) => first
            .range_inclusive(last)
            .filter(|d| !census.has_day(*d))
            .collect(),
        _ => Vec::new(),
    };
    let report = IngestReport {
        census,
        files,
        gaps,
        stale_tmp_removed,
    };
    Ok((report, stage))
}

/// Runs the supervised census pipeline over a directory of day logs:
/// [`ingest_dir`], then the analysis stages (Table 1, stability, sharded
/// densify) under supervision.
///
/// The `Err` arm fires only for strict-mode aborts and an unreadable
/// directory; every contained failure is reported through the manifest.
pub fn run_census(dir: &Path, cfg: &PipelineConfig) -> Result<SupervisedRun, IngestError> {
    // Stage 1: ingest.
    let (report, ingest_stage) = ingest_dir(dir, &cfg.ingest, &cfg.supervisor)?;
    let ingest_quality = ingest_stage.quality();

    let mut manifest = RunManifest {
        jobs: cfg.supervisor.jobs.max(1),
        stages: vec![ingest_stage],
    };

    let reference = cfg.reference.or_else(|| {
        let all: Vec<Day> = report.census.days().collect();
        (!all.is_empty()).then(|| all[all.len() / 2])
    });
    let Some(reference) = reference else {
        return Ok(SupervisedRun {
            report,
            reference: None,
            table1: None,
            stability: None,
            dense: None,
            manifest,
        });
    };

    // The analysis stages share the census read-only.
    let census = Arc::new(report.census);

    // Stage 2: Table 1 (one unit; the table renderer is a whole-census
    // computation, but still deserves panic/deadline containment).
    let table1 = if census.summary(reference).is_some() {
        let c = Arc::clone(&census);
        let unit = Unit::new("table1/reference", move |_ctx: &UnitCtx| {
            let spec = [crate::tables::EpochSpec {
                label: "reference",
                reference,
            }];
            let (daily, _weekly) = crate::tables::table1(&c, &spec);
            daily.render()
        });
        let (mut values, stage) = run_stage("table1", vec![unit], &cfg.supervisor);
        let annotated = annotate_product(values.remove(0), &stage, ingest_quality);
        manifest.stages.push(stage);
        Some(annotated)
    } else {
        None
    };

    // Stage 3: gap-aware nd-stability on the reference day.
    let stability = {
        let c = Arc::clone(&census);
        let params = cfg.params;
        let policy = cfg.gap_policy;
        let unit = Unit::new(format!("stability/{reference}"), move |_ctx: &UnitCtx| {
            c.other_daily().stable_on_gapped(reference, &params, policy)
        });
        let (mut values, stage) = run_stage("stability", vec![unit], &cfg.supervisor);
        let mut annotated = annotate_product(values.remove(0), &stage, ingest_quality);
        if let Some(v) = &annotated.value {
            // Fold the verdict's own quality (widened/unknown window)
            // into the product annotation.
            let vq = v.quality.quality();
            if !vq.is_exact() {
                annotated.note(vq, String::new());
            }
        }
        manifest.stages.push(stage);
        Some(annotated)
    };

    // Stage 4: densify, sharded by top 16-bit segment. The decomposition
    // is a pure function of the data (never of the job count), so the
    // merged result is deterministic across --jobs settings.
    let dense = {
        let active = census.other_daily().on(reference);
        let mut shards: BTreeMap<u16, Vec<Addr>> = BTreeMap::new();
        for a in active.iter() {
            shards.entry((a.0 >> 112) as u16).or_default().push(a);
        }
        let (n, p, cap) = (cfg.dense_n, cfg.dense_p, cfg.supervisor.max_trie_nodes);
        let units: Vec<Unit<Vec<DensePrefix>>> = shards
            .into_iter()
            .map(|(seg, addrs)| {
                Unit::new(format!("densify/{seg:04x}"), move |ctx: &UnitCtx| {
                    let mut tree = RadixTree::new();
                    for chunk in addrs.chunks(256) {
                        if ctx.cancelled() {
                            break;
                        }
                        for &a in chunk {
                            tree.insert_addr(a, 1);
                        }
                    }
                    ctx.record_trie_nodes(tree.node_count());
                    let b = tree.densify_budgeted(n, p, cap);
                    if b.degraded {
                        ctx.degrade(format!(
                            "trie budget {cap}: {} nodes folded to {}",
                            b.nodes_before, b.nodes_after
                        ));
                    }
                    b.dense
                })
            })
            .collect();
        let (values, stage) = run_stage("densify", units, &cfg.supervisor);
        let mut merged: Vec<DensePrefix> = values.into_iter().flatten().flatten().collect();
        merged.sort();
        let mut annotated =
            annotate_product(Some(merged), &stage, ingest_quality).map(|v| v.unwrap_or_default());
        for u in &stage.units {
            for note in &u.degraded {
                annotated.note(Quality::Degraded, format!("shard {}: {note}", u.label));
            }
        }
        manifest.stages.push(stage);
        Some(annotated)
    };

    // Put the census back into the report for the caller. Workers are
    // detached, so one abandoned at a deadline (or simply not yet torn
    // down) may still hold a reference; clone rather than wait on it.
    let census = Arc::try_unwrap(census).unwrap_or_else(|arc| (*arc).clone());
    let report = IngestReport {
        census,
        files: report.files,
        gaps: report.gaps,
        stale_tmp_removed: report.stale_tmp_removed,
    };

    Ok(SupervisedRun {
        report,
        reference: Some(reference),
        table1,
        stability,
        dense,
        manifest,
    })
}

/// Annotates a stage's (single- or merged-unit) product: missing output
/// is `Partial` with the casualty list, degraded units are noted by the
/// caller, and the ingest stage's quality is inherited — analysis over
/// an incomplete census cannot claim to be exact.
fn annotate_product<T>(
    value: Option<T>,
    stage: &StageReport,
    ingest_quality: Quality,
) -> Annotated<Option<T>> {
    let mut a = Annotated::exact(value);
    for u in stage.excluded() {
        if let UnitStatus::Excluded { reason } = &u.status {
            a.note(
                Quality::Partial,
                format!("{}/{} excluded: {reason}", stage.stage, u.label),
            );
        }
    }
    for u in stage.lost_to_deadline() {
        a.note(
            Quality::Partial,
            format!("{}/{} {}", stage.stage, u.label, u.status.label()),
        );
    }
    if !ingest_quality.is_exact() {
        a.note(ingest_quality, "ingest stage incomplete");
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn cfg(jobs: usize) -> SupervisorConfig {
        SupervisorConfig {
            jobs,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn empty_stage_is_exact() {
        let (results, report) = run_stage("noop", Vec::<Unit<u32>>::new(), &cfg(4));
        assert!(results.is_empty());
        assert_eq!(report.quality(), Quality::Exact);
        assert!(!report.deadline_expired);
    }

    #[test]
    fn first_attempt_panic_is_retried_persistent_panic_is_excluded() {
        let flaky_tries = Arc::new(AtomicU32::new(0));
        let tries = Arc::clone(&flaky_tries);
        let units = vec![
            Unit::new("flaky", move |_ctx: &UnitCtx| {
                if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("first attempt dies");
                }
                7u32
            }),
            Unit::new("doomed", |_ctx: &UnitCtx| -> u32 {
                panic!("dies every time")
            }),
            Unit::new("fine", |_ctx: &UnitCtx| 40u32),
        ];
        let (results, report) = run_stage("mixed", units, &cfg(2));
        assert_eq!(results[0], Some(7));
        assert_eq!(results[1], None);
        assert_eq!(results[2], Some(40));
        assert!(matches!(
            report.units[0].status,
            UnitStatus::Ok { attempts: 2 }
        ));
        assert!(matches!(
            &report.units[1].status,
            UnitStatus::Excluded { reason } if reason.contains("dies every time")
        ));
        assert!(matches!(
            report.units[2].status,
            UnitStatus::Ok { attempts: 1 }
        ));
        assert_eq!(report.quality(), Quality::Partial);
        assert_eq!(report.retried(), 2);
        assert_eq!(flaky_tries.load(Ordering::SeqCst), 2);
    }

    /// Raises the stage's cancellation token from inside a unit: what the
    /// deadline does, pinned to a known point of the unit's attempt so
    /// the test does not race the collector's clock.
    fn fire_deadline(ctx: &UnitCtx) {
        ctx.cancel.store(true, Ordering::SeqCst);
    }

    #[test]
    fn deadline_classifies_timed_out_vs_cancelled() {
        let units = vec![
            Unit::new("hog", |_ctx: &UnitCtx| {
                std::thread::sleep(Duration::from_secs(30));
                0u32
            }),
            Unit::new("queued-1", |_ctx: &UnitCtx| 1u32),
            Unit::new("queued-2", |_ctx: &UnitCtx| 2u32),
        ];
        let deadline = SupervisorConfig {
            jobs: 1,
            stage_deadline: Some(Duration::from_millis(150)),
            ..SupervisorConfig::default()
        };
        let start = Instant::now();
        let (results, report) = run_stage("stuck", units, &deadline);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the hog must be abandoned, not awaited"
        );
        assert!(report.deadline_expired);
        assert_eq!(report.units[0].status, UnitStatus::TimedOut);
        assert_eq!(report.units[1].status, UnitStatus::Cancelled);
        assert_eq!(report.units[2].status, UnitStatus::Cancelled);
        assert!(results.iter().all(Option::is_none));
        assert_eq!(report.quality(), Quality::Partial);
        assert_eq!(report.lost_to_deadline().len(), 3);

        // A flaky unit whose first attempt panics after the deadline
        // fired: its retry would start too late, so it never does, and
        // the unit reports `Cancelled` like one that never ran. The hog
        // (claimed first) keeps the stage open until the real deadline.
        let flaky_tries = Arc::new(AtomicU32::new(0));
        let tries = Arc::clone(&flaky_tries);
        let units = vec![
            Unit::new("hog", |_ctx: &UnitCtx| {
                std::thread::sleep(Duration::from_secs(30));
                0u32
            }),
            Unit::new("flaky", move |ctx: &UnitCtx| {
                if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                    fire_deadline(ctx);
                    panic!("first attempt dies after the deadline");
                }
                9u32
            }),
        ];
        let two = SupervisorConfig {
            jobs: 2,
            ..deadline
        };
        let (results, report) = run_stage("late-retry", units, &two);
        assert!(report.deadline_expired);
        assert_eq!(report.units[0].status, UnitStatus::TimedOut);
        assert_eq!(report.units[1].status, UnitStatus::Cancelled);
        assert_eq!(flaky_tries.load(Ordering::SeqCst), 1, "no retry ran");
        assert!(results.iter().all(Option::is_none));
    }

    #[test]
    fn no_unit_is_claimed_after_the_deadline_fires() {
        let claims = Arc::new(AtomicU32::new(0));
        let mut units = vec![
            Unit::new("hog", |_ctx: &UnitCtx| {
                std::thread::sleep(Duration::from_secs(30));
                0u32
            }),
            Unit::new("trigger", |ctx: &UnitCtx| {
                fire_deadline(ctx);
                1u32
            }),
        ];
        for i in 0..4 {
            let claims = Arc::clone(&claims);
            units.push(Unit::new(format!("late-{i}"), move |_ctx: &UnitCtx| {
                claims.fetch_add(1, Ordering::SeqCst);
                2u32
            }));
        }
        let cfg = SupervisorConfig {
            jobs: 2,
            stage_deadline: Some(Duration::from_millis(150)),
            ..SupervisorConfig::default()
        };
        let (results, report) = run_stage("claims", units, &cfg);
        assert_eq!(claims.load(Ordering::SeqCst), 0, "a unit ran after cancel");
        assert_eq!(report.units[0].status, UnitStatus::TimedOut);
        // The token was raised during the trigger's own attempt.
        assert_eq!(report.units[1].status, UnitStatus::TimedOut);
        assert_eq!(results[1], None);
        for u in &report.units[2..] {
            assert_eq!(u.status, UnitStatus::Cancelled, "{}", u.label);
        }
    }

    #[test]
    fn a_unit_cut_short_by_the_deadline_reports_timed_out() {
        // What densify does: stop early once cancelled, then return a
        // value built from the partial work.
        let units = vec![Unit::new("spinner", |ctx: &UnitCtx| {
            while !ctx.cancelled() {
                std::thread::yield_now();
            }
            5u32
        })];
        let cfg = SupervisorConfig {
            jobs: 1,
            stage_deadline: Some(Duration::from_millis(50)),
            ..SupervisorConfig::default()
        };
        let (results, report) = run_stage("spin", units, &cfg);
        assert!(report.deadline_expired);
        assert_eq!(report.units[0].status, UnitStatus::TimedOut);
        assert_eq!(results[0], None);
    }

    #[test]
    fn unit_ctx_notes_reach_the_report() {
        let units = vec![Unit::new("budgeted", |ctx: &UnitCtx| {
            ctx.record_trie_nodes(1234);
            ctx.record_trie_nodes(99); // peak is kept
            ctx.degrade("budget hit");
            assert!(!ctx.cancelled());
            0u32
        })];
        let (_, report) = run_stage("ctx", units, &cfg(1));
        assert_eq!(report.units[0].trie_nodes, 1234);
        assert_eq!(report.units[0].degraded, vec!["budget hit".to_string()]);
        assert_eq!(report.quality(), Quality::Degraded);
        assert_eq!(report.degraded(), 1);
        assert_eq!(report.peak_trie_nodes(), 1234);
    }

    #[test]
    fn equivalence_key_ignores_wall_time() {
        let mk = |wall| StageReport {
            stage: "s".into(),
            units: vec![UnitReport {
                label: "u/1".into(),
                status: UnitStatus::Ok { attempts: 1 },
                degraded: vec!["capped".into()],
                trie_nodes: 10,
            }],
            wall_millis: wall,
            deadline_expired: false,
        };
        assert_eq!(mk(5).equivalence_key(), mk(5000).equivalence_key());
        assert!(mk(5).equivalence_key().contains("u/1=ok(degraded)"));
        let manifest = RunManifest {
            jobs: 2,
            stages: vec![mk(1)],
        };
        assert_eq!(manifest.quality(), Quality::Degraded);
        let rendered = manifest.render();
        assert!(rendered.contains("==== run manifest ===="));
        assert!(rendered.contains("degraded u/1: capped"));
        assert!(rendered.contains("quality: degraded"));
    }
}
