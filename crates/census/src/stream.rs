//! Fault-tolerant streaming ingestion of day-log files.
//!
//! The library's [`Census::run`] path assumes a perfect in-memory
//! [`v6census_synth::DayLog`]; a real multi-day census reads a directory
//! of text files produced by log collection, and log collection fails in
//! mundane ways: corrupt lines, files cut short, the same day delivered
//! twice, mislabeled headers, days that never arrive. This module makes
//! those failures first-class:
//!
//! * [`IngestError`] — a structured taxonomy with per-line diagnostics
//!   (file, line number, offending content) and per-file outcomes.
//! * [`IngestConfig`] — the error budget (`max_bad_ratio`), strict /
//!   lenient modes, retry-with-backoff for transient I/O, duplicate-day
//!   policy, and checkpointing for `--resume`.
//! * [`StreamIngestor`] — reads one file line-by-line in bounded memory,
//!   validates the header and the `# end` integrity trailer
//!   ([`StreamIngestor::parse_file`]), and commits it into a [`Census`]
//!   ([`StreamIngestor::commit_parsed`]).
//! * `day_files` — the one listing of a directory's day files.
//!
//! Two drivers sit on top: [`crate::supervisor::ingest_dir`] ingests a
//! whole directory into a per-day [`IngestReport`] health report (the
//! `census` command and [`crate::supervisor::run_census`]), and serve
//! lands one day at a time as files arrive.
//!
//! A file is read in one pass through a `BufReader`'s 8 KiB fills:
//! [`daylog::read`] parses each line in place in the fill and hands each
//! good one to a `DaySummaryBuilder`, which culls it at once into the
//! day's per-category key buffers. The `(address, hits)` entries themselves
//! are kept, in file order, only when a checkpoint will be written.
//!
//! Checkpoints are one file per ingested day (written atomically via
//! temp-file + rename): a canonical day log
//! ([`v6census_core::daylog`]) of the parsed `(address, hits)` entries.
//! A merged duplicate day's checkpoint holds the whole day.
//! `--resume` and serve's restore read a checkpoint through the same
//! builder, and a day summary is a pure function of its entries, so a
//! resumed census is *identical* to an uninterrupted one — not just
//! similar.

use crate::ingest::{Census, DaySummary, DaySummaryBuilder};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use v6census_addr::Addr;
use v6census_core::daylog::{self, Sink};
use v6census_core::temporal::Day;
use v6census_core::vfs::{self, RealFs, Vfs};

/// Everything that can go wrong while ingesting day logs.
#[derive(Clone, Debug, PartialEq)]
pub enum IngestError {
    /// An I/O failure that survived the retry budget.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The error kind, for programmatic triage.
        kind: io::ErrorKind,
        /// Retries attempted before giving up.
        retries: u32,
        /// The rendered error.
        detail: String,
    },
    /// A data line that did not parse (bad address or bad hits column).
    BadLine {
        /// The file involved.
        path: PathBuf,
        /// 1-based line number.
        line: usize,
        /// The offending content, truncated for reports.
        content: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The file's header is missing or malformed.
    BadHeader {
        /// The file involved.
        path: PathBuf,
        /// Why it was rejected.
        reason: String,
    },
    /// The file ended early: fewer data lines than the header/trailer
    /// declared, or no integrity trailer at all.
    Truncated {
        /// The file involved.
        path: PathBuf,
        /// Entries the header (or trailer) declared.
        expected: usize,
        /// Data lines actually present.
        got: usize,
    },
    /// The header date disagrees with the file name's date.
    DayMismatch {
        /// The file involved.
        path: PathBuf,
        /// The date in the file name.
        file_day: Day,
        /// The date in the header.
        header_day: Day,
    },
    /// A day that was already ingested arrived again.
    DuplicateDay {
        /// The repeated day.
        day: Day,
        /// The file carrying the repeat.
        path: PathBuf,
    },
    /// A file's day precedes one already ingested (streaming order
    /// violation; only serve can see it, when a late file lands after
    /// later days — a directory ingest commits in day order).
    OutOfOrderDay {
        /// The late-arriving day.
        day: Day,
        /// The latest day in the census when it arrived.
        after: Day,
    },
    /// A calendar day between the first and last ingested day was never
    /// successfully ingested.
    MissingDay {
        /// The uncovered day.
        day: Day,
    },
    /// Bad lines exceeded the configured budget; the file was abandoned.
    ErrorBudgetExceeded {
        /// The file involved.
        path: PathBuf,
        /// Bad data lines.
        bad: usize,
        /// Total data lines.
        total: usize,
        /// The configured ceiling.
        max_bad_ratio: f64,
    },
    /// A checkpoint file failed validation.
    BadCheckpoint {
        /// The checkpoint involved.
        path: PathBuf,
        /// Why it was rejected.
        reason: String,
    },
    /// A supervised work unit processing this file died (panic) or was
    /// abandoned (deadline); the file's data never reached the census.
    UnitFailed {
        /// The file involved.
        path: PathBuf,
        /// What happened to the unit.
        reason: String,
    },
}

impl IngestError {
    /// A stable short label per variant, for health reports and tests.
    pub fn label(&self) -> &'static str {
        match self {
            IngestError::Io { .. } => "io",
            IngestError::BadLine { .. } => "bad-line",
            IngestError::BadHeader { .. } => "bad-header",
            IngestError::Truncated { .. } => "truncated",
            IngestError::DayMismatch { .. } => "day-mismatch",
            IngestError::DuplicateDay { .. } => "duplicate-day",
            IngestError::OutOfOrderDay { .. } => "out-of-order-day",
            IngestError::MissingDay { .. } => "missing-day",
            IngestError::ErrorBudgetExceeded { .. } => "error-budget-exceeded",
            IngestError::BadCheckpoint { .. } => "bad-checkpoint",
            IngestError::UnitFailed { .. } => "unit-failed",
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io {
                path,
                kind,
                retries,
                detail,
            } => write!(
                f,
                "{}: I/O error ({kind:?}) after {retries} retries: {detail}",
                path.display()
            ),
            IngestError::BadLine {
                path,
                line,
                content,
                reason,
            } => write!(f, "{}:{line}: {reason}: {content:?}", path.display()),
            IngestError::BadHeader { path, reason } => {
                write!(f, "{}: bad header: {reason}", path.display())
            }
            IngestError::Truncated {
                path,
                expected,
                got,
            } => write!(
                f,
                "{}: truncated: expected {expected} entries, got {got}",
                path.display()
            ),
            IngestError::DayMismatch {
                path,
                file_day,
                header_day,
            } => write!(
                f,
                "{}: header says {header_day} but file name says {file_day}",
                path.display()
            ),
            IngestError::DuplicateDay { day, path } => {
                write!(f, "{}: day {day} already ingested", path.display())
            }
            IngestError::OutOfOrderDay { day, after } => {
                write!(f, "day {day} arrived after {after}")
            }
            IngestError::MissingDay { day } => write!(f, "day {day} was never ingested"),
            IngestError::ErrorBudgetExceeded {
                path,
                bad,
                total,
                max_bad_ratio,
            } => write!(
                f,
                "{}: {bad}/{total} bad lines exceeds --max-bad-ratio {max_bad_ratio}",
                path.display()
            ),
            IngestError::BadCheckpoint { path, reason } => {
                write!(f, "{}: bad checkpoint: {reason}", path.display())
            }
            IngestError::UnitFailed { path, reason } => {
                write!(f, "{}: work unit failed: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Whether an error aborts the whole run or is recorded and survived.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ErrorMode {
    /// First error aborts the run with that error.
    Strict,
    /// Errors are recorded in the report; ingestion continues with
    /// whatever can be salvaged.
    #[default]
    Lenient,
}

/// What to do when a day arrives twice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Keep the first delivery; record the repeat as an error.
    #[default]
    Reject,
    /// Union the deliveries (hits accumulate).
    Merge,
}

/// Configuration for [`StreamIngestor`].
#[derive(Clone, Debug)]
pub struct IngestConfig {
    /// Maximum tolerated fraction of bad data lines per file before the
    /// file is abandoned ([`IngestError::ErrorBudgetExceeded`]).
    pub max_bad_ratio: f64,
    /// Strict (fail fast) or lenient (record and continue).
    pub mode: ErrorMode,
    /// What to do when the same day arrives twice.
    pub on_duplicate: DuplicatePolicy,
    /// Transient-I/O retries per file.
    pub max_retries: u32,
    /// Base backoff between retries (doubles per attempt).
    pub retry_backoff: Duration,
    /// Directory for per-day checkpoints; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Reuse existing checkpoints instead of re-reading their days.
    pub resume: bool,
    /// Stop after ingesting this many days (used by tests to simulate a
    /// mid-run kill).
    pub max_days: Option<usize>,
    /// The filesystem every durability path goes through. Production
    /// uses [`RealFs`]; tests and the `--fault-fs` debug flag substitute
    /// a [`v6census_core::vfs::FaultFs`] or
    /// [`v6census_core::vfs::MemFs`].
    pub vfs: Arc<dyn Vfs>,
}

impl Default for IngestConfig {
    fn default() -> IngestConfig {
        IngestConfig {
            max_bad_ratio: 0.01,
            mode: ErrorMode::Lenient,
            on_duplicate: DuplicatePolicy::Reject,
            max_retries: 3,
            retry_backoff: Duration::from_millis(25),
            checkpoint_dir: None,
            resume: false,
            max_days: None,
            vfs: Arc::new(RealFs),
        }
    }
}

/// True for I/O errors worth retrying: the next attempt may succeed
/// without anything changing on disk.
pub fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs `op`, retrying transient failures with exponential backoff.
/// Returns the value and the number of retries used, or the final error
/// and the retries exhausted on it.
pub fn with_retry<T>(
    cfg: &IngestConfig,
    mut op: impl FnMut() -> io::Result<T>,
) -> Result<(T, u32), (io::Error, u32)> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok((v, attempt)),
            Err(e) if is_transient(e.kind()) && attempt < cfg.max_retries => {
                std::thread::sleep(cfg.retry_backoff * 2u32.saturating_pow(attempt));
                attempt += 1;
            }
            Err(e) => return Err((e, attempt)),
        }
    }
}

/// A path's file name, lossily decoded (empty when it has none).
pub(crate) fn file_name(path: &Path) -> Cow<'_, str> {
    path.file_name()
        .map(|n| n.to_string_lossy())
        .unwrap_or_default()
}

/// The day a path's file name carries (its leading `YYYY-MM-DD`).
pub(crate) fn day_of_path(path: &Path) -> Option<Day> {
    Day::parse_leading(&file_name(path))
}

/// The day files directly under `dir` — entries whose name starts with
/// a valid `YYYY-MM-DD` — sorted by day, then path.
pub fn day_files(fs: &dyn Vfs, dir: &Path) -> io::Result<Vec<(Day, PathBuf)>> {
    let mut files: Vec<(Day, PathBuf)> = fs
        .read_dir(dir)?
        .into_iter()
        .filter_map(|path| Some((day_of_path(&path)?, path)))
        .collect();
    files.sort();
    Ok(files)
}

/// What happened to one file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileOutcome {
    /// Parsed and ingested.
    Ingested,
    /// Satisfied from an existing checkpoint; the file was not read.
    FromCheckpoint,
    /// Read, but abandoned (truncation, budget, duplicate, mismatch).
    Failed,
    /// Never processed (run stopped first).
    Skipped,
}

/// Per-file ingestion health.
#[derive(Clone, Debug)]
pub struct FileReport {
    /// The file.
    pub path: PathBuf,
    /// The day the file contributes (from its name).
    pub day: Day,
    /// Data lines seen.
    pub data_lines: usize,
    /// Data lines rejected.
    pub bad_lines: usize,
    /// The outcome.
    pub outcome: FileOutcome,
    /// Every error attributed to this file.
    pub errors: Vec<IngestError>,
}

/// The result of a streaming ingestion run.
pub struct IngestReport {
    /// The census built from every ingested day.
    pub census: Census,
    /// Per-file health, in processing order.
    pub files: Vec<FileReport>,
    /// Calendar days between the first and last ingested day that were
    /// never ingested ([`IngestError::MissingDay`] for each).
    pub gaps: Vec<Day>,
    /// Stale `*.tmp` files deleted from the checkpoint directory before
    /// ingestion (leftovers of an aborted atomic write).
    pub stale_tmp_removed: u64,
}

impl IngestReport {
    /// All recorded errors across files plus the per-gap missing-day
    /// errors, in processing order.
    pub fn errors(&self) -> Vec<IngestError> {
        let mut out: Vec<IngestError> = self
            .files
            .iter()
            .flat_map(|f| f.errors.iter().cloned())
            .collect();
        out.extend(self.gaps.iter().map(|&day| IngestError::MissingDay { day }));
        out
    }

    /// The per-day ingest health report, one line per file plus gap and
    /// error sections.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "write! into a String cannot fail"
    )]
    pub fn health_report(&self) -> String {
        let mut out = String::from("==== ingest health ====\n");
        let _ = writeln!(
            out,
            "{:<12} {:<28} {:<16} {:>8} {:>5}",
            "day", "file", "outcome", "lines", "bad"
        );
        for f in &self.files {
            let name = f
                .path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| f.path.display().to_string());
            let outcome = match f.outcome {
                FileOutcome::Ingested => "ingested",
                FileOutcome::FromCheckpoint => "checkpoint",
                FileOutcome::Failed => "FAILED",
                FileOutcome::Skipped => "skipped",
            };
            let _ = writeln!(
                out,
                "{:<12} {:<28} {:<16} {:>8} {:>5}",
                f.day.to_string(),
                name,
                outcome,
                f.data_lines,
                f.bad_lines
            );
        }
        if self.gaps.is_empty() {
            out.push_str("gaps: none\n");
        } else {
            let days: Vec<String> = self.gaps.iter().map(|d| d.to_string()).collect();
            let _ = writeln!(out, "gaps: {}", days.join(", "));
        }
        if self.stale_tmp_removed > 0 {
            let _ = writeln!(out, "stale tmp files removed: {}", self.stale_tmp_removed);
        }
        let errors = self.errors();
        let _ = writeln!(out, "errors: {}", errors.len());
        for e in &errors {
            let _ = writeln!(out, "  [{}] {e}", e.label());
        }
        out
    }
}

/// The census-independent result of reading and fully validating one day
/// file, produced by [`StreamIngestor::parse_file`] and consumed by
/// [`StreamIngestor::commit_parsed`]. The split exists so the supervised
/// engine can parse files in parallel while committing serially.
pub struct ParsedFile {
    /// Per-file health so far (the outcome can still change at commit
    /// time — e.g. a duplicate day rejected under the duplicate policy).
    pub report: FileReport,
    /// The validated day summary, `None` when the file failed validation.
    pub summary: Option<DaySummary>,
    /// Entries to checkpoint after a successful commit, in file order
    /// (`None` when no checkpoint dir is set, the data came *from* a
    /// checkpoint, or validation failed).
    checkpoint_entries: Option<Vec<(Addr, u64)>>,
    /// The file's bad lines, recorded in its checkpoint beside the
    /// entries (empty when no checkpoint will be written).
    checkpoint_bad: Vec<daylog::BadLine>,
}

impl ParsedFile {
    /// Wraps a failed file report: nothing to commit or checkpoint.
    fn failed(report: FileReport) -> ParsedFile {
        ParsedFile {
            report,
            summary: None,
            checkpoint_entries: None,
            checkpoint_bad: Vec::new(),
        }
    }
}

/// Streaming, fault-tolerant ingestion over day-log files.
#[derive(Clone, Debug, Default)]
pub struct StreamIngestor {
    /// The configuration.
    pub cfg: IngestConfig,
}

impl StreamIngestor {
    /// Creates an ingestor.
    pub fn new(cfg: IngestConfig) -> StreamIngestor {
        StreamIngestor { cfg }
    }

    /// The census-independent half of ingestion: reads and fully
    /// validates one file (checkpoint short-circuit, retrying read,
    /// header/budget/truncation checks). Parsing many files this way is
    /// embarrassingly parallel — the supervised engine runs one
    /// [`StreamIngestor::parse_file`] per work unit and then applies
    /// [`StreamIngestor::commit_parsed`] serially, in day order, so the
    /// resulting census is the same at any job count.
    pub fn parse_file(&self, path: &Path) -> Result<ParsedFile, IngestError> {
        let Some(file_day) = day_of_path(path) else {
            let e = IngestError::BadHeader {
                path: path.to_path_buf(),
                reason: format!("file name {:?} has no YYYY-MM-DD date", file_name(path)),
            };
            return self
                .fail(path, Day(0), 0, 0, vec![e])
                .map(ParsedFile::failed);
        };
        let mut report = FileReport {
            path: path.to_path_buf(),
            day: file_day,
            data_lines: 0,
            bad_lines: 0,
            outcome: FileOutcome::Ingested,
            errors: Vec::new(),
        };

        // Resume: an existing checkpoint for this day replaces the read,
        // and reports the file's bad lines as the read did.
        if self.cfg.resume {
            if let Some(dir) = &self.cfg.checkpoint_dir {
                let ckpt = checkpoint_path(dir, file_day);
                if self.cfg.vfs.exists(&ckpt) {
                    let mut builder = DaySummaryBuilder::default();
                    match load_checkpoint(self.cfg.vfs.as_ref(), &ckpt, &mut builder) {
                        Ok((day, n, bad)) => {
                            report.data_lines = n + bad.len();
                            report.bad_lines = bad.len();
                            report.errors = bad.into_iter().map(|b| bad_line(path, b)).collect();
                            report.outcome = FileOutcome::FromCheckpoint;
                            return Ok(ParsedFile {
                                summary: Some(builder.finish(day)),
                                report,
                                checkpoint_entries: None,
                                checkpoint_bad: Vec::new(),
                            });
                        }
                        Err(e) => {
                            // A bad checkpoint falls through to re-reading
                            // the original file.
                            if self.cfg.mode == ErrorMode::Strict {
                                return Err(e);
                            }
                            report.errors.push(e);
                        }
                    }
                }
            }
        }

        // One pass: each good line is culled as it is read, and kept
        // only if it will be checkpointed. A retried read starts empty.
        let keep = self.cfg.checkpoint_dir.is_some();
        let read = with_retry(&self.cfg, || {
            let mut sink = (DaySummaryBuilder::default(), keep.then(Vec::new));
            let (log, bad) = self.read_and_parse(path, &mut sink)?;
            Ok((log, bad, sink))
        });
        let (log, bad, (builder, checkpoint_entries)) = match read {
            Ok((p, _retries)) => p,
            Err((e, retries)) => {
                let err = IngestError::Io {
                    path: path.to_path_buf(),
                    kind: e.kind(),
                    retries,
                    detail: e.to_string(),
                };
                return self
                    .fail(path, file_day, 0, 0, vec![err])
                    .map(ParsedFile::failed);
            }
        };
        report.data_lines = log.data_lines;
        report.bad_lines = bad.len();
        // The checkpoint records the file's bad lines.
        let checkpoint_bad = if keep { log.bad } else { Vec::new() };

        // Header validation.
        let Some((header_day, declared)) = log.header else {
            let e = IngestError::BadHeader {
                path: path.to_path_buf(),
                reason: "missing or malformed `# synthetic day` header".into(),
            };
            return self
                .fail(path, file_day, log.data_lines, report.bad_lines, vec![e])
                .map(ParsedFile::failed);
        };
        if header_day != file_day {
            let e = IngestError::DayMismatch {
                path: path.to_path_buf(),
                file_day,
                header_day,
            };
            let mut errors = bad;
            errors.push(e);
            return self
                .fail(path, file_day, log.data_lines, report.bad_lines, errors)
                .map(ParsedFile::failed);
        }

        // Per-line errors count against the budget.
        if self.cfg.mode == ErrorMode::Strict {
            if let Some(e) = bad.first() {
                return Err(e.clone());
            }
        }
        report.errors.extend(bad);
        if log.data_lines > 0 {
            let ratio = report.bad_lines as f64 / log.data_lines as f64;
            if ratio > self.cfg.max_bad_ratio {
                let e = IngestError::ErrorBudgetExceeded {
                    path: path.to_path_buf(),
                    bad: report.bad_lines,
                    total: log.data_lines,
                    max_bad_ratio: self.cfg.max_bad_ratio,
                };
                report.errors.push(e.clone());
                report.outcome = FileOutcome::Failed;
                if self.cfg.mode == ErrorMode::Strict {
                    return Err(e);
                }
                return Ok(ParsedFile::failed(report));
            }
        }

        // Truncation: the trailer is authoritative; without one, the
        // header's declared count must be met.
        let truncated = match log.trailer {
            Some((n, _hits)) => (log.data_lines != n).then_some(n),
            None => (log.data_lines < declared).then_some(declared),
        };
        if let Some(expected) = truncated {
            let e = IngestError::Truncated {
                path: path.to_path_buf(),
                expected,
                got: log.data_lines,
            };
            report.errors.push(e.clone());
            report.outcome = FileOutcome::Failed;
            if self.cfg.mode == ErrorMode::Strict {
                return Err(e);
            }
            return Ok(ParsedFile::failed(report));
        }

        Ok(ParsedFile {
            report,
            summary: Some(builder.finish(file_day)),
            checkpoint_entries,
            checkpoint_bad,
        })
    }

    /// The shared-state half of ingestion: applies ordering/duplicate
    /// policy, enters the day into the census, and writes the checkpoint.
    /// Must be called in delivery order — it is the serial step of a
    /// supervised parallel ingest. A day new to the census is pushed onto
    /// `ingested_days`; a late day is judged against the census itself.
    pub fn commit_parsed(
        &self,
        parsed: ParsedFile,
        census: &mut Census,
        ingested_days: &mut Vec<Day>,
    ) -> Result<FileReport, IngestError> {
        let ParsedFile {
            mut report,
            summary,
            checkpoint_entries,
            checkpoint_bad,
        } = parsed;
        let Some(summary) = summary else {
            return Ok(report);
        };
        let path = report.path.clone();
        let day = summary.day;
        let merging = census.has_day(day);
        let committed = self.commit(summary, &path, census, ingested_days, &mut report)?;
        if let (true, Some(entries), Some(dir)) =
            (committed, checkpoint_entries, &self.cfg.checkpoint_dir)
        {
            if let Err(e) = self.checkpoint(dir, day, entries, &checkpoint_bad, merging) {
                if self.cfg.mode == ErrorMode::Strict {
                    return Err(e);
                }
                report.errors.push(e);
            }
        }
        Ok(report)
    }

    /// Writes `day`'s checkpoint from one delivery's `entries` and `bad`
    /// lines. A merged day's checkpoint holds the whole day: the entries
    /// of the checkpoint the day already has, then this delivery's. It
    /// records no bad lines, since no one file's line numbers cover it
    /// (and `--resume` re-reads every delivery of a repeated day).
    fn checkpoint(
        &self,
        dir: &Path,
        day: Day,
        entries: Vec<(Addr, u64)>,
        bad: &[daylog::BadLine],
        merging: bool,
    ) -> Result<(), IngestError> {
        let fs = self.cfg.vfs.as_ref();
        let (entries, bad) = if merging {
            let mut all = Vec::new();
            load_checkpoint(fs, &checkpoint_path(dir, day), &mut all)?;
            all.extend(entries);
            (all, &[][..])
        } else {
            (entries, bad)
        };
        write_checkpoint(fs, dir, day, &entries, bad).map_err(|e| IngestError::Io {
            path: checkpoint_path(dir, day),
            kind: e.kind(),
            retries: 0,
            detail: e.to_string(),
        })
    }

    /// Applies ordering and duplicate policy, then ingests. Returns
    /// whether the day actually entered the census.
    fn commit(
        &self,
        summary: DaySummary,
        path: &Path,
        census: &mut Census,
        ingested_days: &mut Vec<Day>,
        report: &mut FileReport,
    ) -> Result<bool, IngestError> {
        let day = summary.day;
        if let Some(last) = census.days().next_back() {
            if day < last && !census.has_day(day) {
                let e = IngestError::OutOfOrderDay { day, after: last };
                if self.cfg.mode == ErrorMode::Strict {
                    return Err(e);
                }
                // Late data is still data: record the anomaly, ingest it.
                report.errors.push(e);
            }
        }
        if census.has_day(day) {
            let e = IngestError::DuplicateDay {
                day,
                path: path.to_path_buf(),
            };
            if self.cfg.mode == ErrorMode::Strict {
                return Err(e);
            }
            report.errors.push(e);
            match self.cfg.on_duplicate {
                DuplicatePolicy::Reject => {
                    report.outcome = FileOutcome::Failed;
                    return Ok(false);
                }
                DuplicatePolicy::Merge => {
                    census.ingest_summary(summary);
                    return Ok(true);
                }
            }
        }
        census.ingest_summary(summary);
        ingested_days.push(day);
        Ok(true)
    }

    /// Builds a failed report, or aborts in strict mode.
    fn fail(
        &self,
        path: &Path,
        day: Day,
        data_lines: usize,
        bad_lines: usize,
        errors: Vec<IngestError>,
    ) -> Result<FileReport, IngestError> {
        if self.cfg.mode == ErrorMode::Strict {
            // fail() is always invoked with at least one error; if that
            // invariant ever broke we fall through to the lenient Failed
            // report rather than panicking mid-stream.
            if let Some(e) = errors.last() {
                return Err(e.clone());
            }
        }
        Ok(FileReport {
            path: path.to_path_buf(),
            day,
            data_lines,
            bad_lines,
            outcome: FileOutcome::Failed,
            errors,
        })
    }

    /// Reads and parses one file through [`daylog::read`] into `sink`,
    /// naming its bad lines as [`IngestError::BadLine`]s of `path`.
    fn read_and_parse(
        &self,
        path: &Path,
        sink: &mut impl Sink,
    ) -> io::Result<(daylog::Parsed, Vec<IngestError>)> {
        let file = self.cfg.vfs.open_read(path)?;
        let log = daylog::read(io::BufReader::new(file), sink)?;
        let bad = log.bad.iter().cloned().map(|b| bad_line(path, b)).collect();
        Ok((log, bad))
    }
}

/// Bad line `b` of the file at `path`, as an ingest error.
fn bad_line(path: &Path, b: daylog::BadLine) -> IngestError {
    IngestError::BadLine {
        path: path.to_path_buf(),
        line: b.line,
        content: b.content,
        reason: b.reason.label().into(),
    }
}

/// The checkpoint file for a day.
pub fn checkpoint_path(dir: &Path, day: Day) -> PathBuf {
    dir.join(format!("ckpt-{day}.tsv"))
}

/// The day of a checkpoint file: the inverse of [`checkpoint_path`].
pub(crate) fn checkpoint_day(path: &Path) -> Option<Day> {
    let name = file_name(path);
    let day = Day::parse_leading(name.strip_prefix("ckpt-")?)?;
    (name == format!("ckpt-{day}.tsv")).then_some(day)
}

/// Writes a per-day checkpoint, a canonical day log of `entries` with
/// no kind column and a `# bad` record of each of `bad` (none for a
/// clean day), atomically *and durably* (temp file + fsync + rename
/// via [`Vfs::write_atomic`]), so a crash mid-write leaves either no
/// checkpoint or a complete one — and a completed write survives power
/// loss, per the DESIGN.md persistence model.
pub fn write_checkpoint(
    fs: &dyn Vfs,
    dir: &Path,
    day: Day,
    entries: &[(Addr, u64)],
    bad: &[daylog::BadLine],
) -> io::Result<()> {
    fs.create_dir_all(dir)?;
    let mut records = String::new();
    for b in bad {
        daylog::write_bad(&mut records, b);
    }
    let text = daylog::write(
        day,
        &records,
        entries.iter().map(|&(addr, h)| (addr, h, None)),
    );
    fs.write_atomic(&checkpoint_path(dir, day), text.as_bytes())
}

/// Deletes stale `.{name}.tmp` leftovers an aborted atomic write can
/// leave under `dir`, returning how many were removed. A missing
/// directory is not an error (cold start). Finished artifacts are never
/// touched: only names matching [`vfs::is_stale_tmp`] qualify.
pub fn sweep_stale_tmp(fs: &dyn Vfs, dir: &Path) -> io::Result<u64> {
    let entries = match fs.read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut removed = 0u64;
    for path in entries {
        if vfs::is_stale_tmp(&file_name(&path)) {
            fs.remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Loads and validates a checkpoint written by [`write_checkpoint`],
/// feeding its entries to `sink` (a `Vec` collects them; a
/// `DaySummaryBuilder` culls them): every line must be good, the
/// header must be present and declare the entry count, and the trailer
/// must match the entries. Returns the day, the entry count and the
/// bad lines the checkpoint records from its source file. On an error
/// the sink may hold part of the file.
pub fn load_checkpoint(
    fs: &dyn Vfs,
    path: &Path,
    sink: &mut impl Sink,
) -> Result<(Day, usize, Vec<daylog::BadLine>), IngestError> {
    let bad = |reason: String| IngestError::BadCheckpoint {
        path: path.to_path_buf(),
        reason,
    };
    let log = fs
        .open_read(path)
        .and_then(|file| daylog::read(io::BufReader::new(file), sink))
        .map_err(|e| IngestError::Io {
            path: path.to_path_buf(),
            kind: e.kind(),
            retries: 0,
            detail: e.to_string(),
        })?;
    if let Some(b) = log.bad.first() {
        return Err(bad(format!(
            "line {}: {}: {:?}",
            b.line,
            b.reason.label(),
            b.content
        )));
    }
    let (day, declared) = log
        .header
        .ok_or_else(|| bad("missing day-log header".into()))?;
    let trailer = log.trailer.ok_or_else(|| bad("missing trailer".into()))?;
    let (n, hits) = (log.data_lines, log.hits);
    if declared != n || trailer != (n, hits) {
        return Err(bad(format!(
            "header declares {declared} entries and trailer {trailer:?}, \
             but the file holds {n} entries, {hits} hits"
        )));
    }
    Ok((day, n, log.recorded))
}

/// Groups a report's errors by variant label — the health-report rollup.
pub fn errors_by_label(errors: &[IngestError]) -> BTreeMap<&'static str, usize> {
    let mut out = BTreeMap::new();
    for e in errors {
        *out.entry(e.label()).or_insert(0) += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::disallowed_methods,
        clippy::let_underscore_must_use,
        reason = "tests build their fixtures with std::fs and clean up best-effort"
    )]
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn filename_days() {
        assert_eq!(
            Day::parse_leading("2015-03-17.log"),
            Some(Day::from_ymd(2015, 3, 17))
        );
        assert_eq!(
            Day::parse_leading("2015-03-17"),
            Some(Day::from_ymd(2015, 3, 17))
        );
        assert!(Day::parse_leading("notes.txt").is_none());
        assert!(Day::parse_leading("2015-13-01.log").is_none());
        assert!(Day::parse_leading("20150317").is_none());
        assert!(Day::parse_leading("2015-02-29.log").is_none());
        assert!(Day::parse_leading("2015-04-31.log").is_none());
        assert_eq!(
            Day::parse_leading("2016-02-29.log"),
            Some(Day::from_ymd(2016, 2, 29))
        );
    }

    #[test]
    fn retry_survives_transient_errors() {
        let cfg = IngestConfig {
            max_retries: 3,
            retry_backoff: Duration::from_millis(1),
            ..IngestConfig::default()
        };
        let calls = AtomicU32::new(0);
        let (v, retries) = with_retry(&cfg, || {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(io::Error::new(io::ErrorKind::Interrupted, "flaky"))
            } else {
                Ok(7)
            }
        })
        .unwrap();
        assert_eq!(v, 7);
        assert_eq!(retries, 2);
    }

    #[test]
    fn retry_gives_up_on_persistent_and_fatal_errors() {
        let cfg = IngestConfig {
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            ..IngestConfig::default()
        };
        let calls = AtomicU32::new(0);
        let (e, retries) = with_retry::<()>(&cfg, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(io::Error::new(io::ErrorKind::TimedOut, "still down"))
        })
        .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
        assert_eq!(retries, 2);
        assert_eq!(calls.load(Ordering::SeqCst), 3, "initial try + 2 retries");
        // Non-transient errors never retry.
        let calls = AtomicU32::new(0);
        let (e, retries) = with_retry::<()>(&cfg, || {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(io::Error::new(io::ErrorKind::NotFound, "gone"))
        })
        .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::NotFound);
        assert_eq!(retries, 0);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn checkpoint_roundtrip_and_validation() {
        use v6census_synth::{world::epochs, World, WorldConfig};
        let dir =
            std::env::temp_dir().join(format!("v6census-ckpt-{}-{}", std::process::id(), line!()));
        let _ = std::fs::remove_dir_all(&dir);
        let day = Day::from_ymd(2015, 3, 17);
        let tiny = World::standard(WorldConfig {
            seed: 3,
            scale: 0.002,
        })
        .day_log(epochs::mar2015());
        // A source file's bad lines, as the reader reports them: content
        // with tabs, and content clipped at a char boundary.
        let bad = vec![
            daylog::BadLine {
                line: 2,
                content: "zz:bad\t7\tx".into(),
                reason: daylog::BadReason::Addr,
            },
            daylog::BadLine {
                line: 40,
                content: format!("2001:db8::9\t{}…", "é".repeat(24)),
                reason: daylog::BadReason::Hits,
            },
        ];
        type Entries = Vec<(Addr, u64)>;
        let inputs: [(Day, Entries, Vec<daylog::BadLine>); 2] = [
            (
                day,
                vec![
                    ("2001:db8::1".parse().unwrap(), 3),
                    ("2001:db8::2".parse().unwrap(), 9),
                ],
                bad,
            ),
            (
                tiny.day,
                tiny.entries.iter().map(|e| (e.addr, e.hits)).collect(),
                Vec::new(),
            ),
        ];
        for (day, entries, bad) in inputs {
            write_checkpoint(&RealFs, &dir, day, &entries, &bad).unwrap();
            let mut back = Vec::new();
            let (d, n, recorded) =
                load_checkpoint(&RealFs, &checkpoint_path(&dir, day), &mut back).unwrap();
            assert_eq!((d, n), (day, entries.len()));
            assert_eq!(back, entries);
            assert_eq!(recorded, bad);
            // A clean day's checkpoint is the plain canonical day log.
            let text = std::fs::read_to_string(checkpoint_path(&dir, day)).unwrap();
            assert_eq!(text.contains("# bad "), !bad.is_empty());
            // Tampering is detected.
            let path = checkpoint_path(&dir, day);
            let text = std::fs::read_to_string(&path).unwrap();
            let trailer = text.lines().last().unwrap();
            assert!(trailer.starts_with("# end "), "{trailer}");
            std::fs::write(&path, text.replace(&format!("{trailer}\n"), "")).unwrap();
            let e = load_checkpoint(&RealFs, &path, &mut Vec::new()).unwrap_err();
            assert_eq!(e.label(), "bad-checkpoint");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_sweep_removes_only_aborted_artifacts() {
        let dir =
            std::env::temp_dir().join(format!("v6census-sweep-{}-{}", std::process::id(), line!()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let day = Day::from_ymd(2015, 3, 17);
        write_checkpoint(
            &RealFs,
            &dir,
            day,
            &[("2001:db8::1".parse().unwrap(), 1)],
            &[],
        )
        .unwrap();
        std::fs::write(dir.join(".ckpt-2015-03-18.tsv.tmp"), "torn").unwrap();
        std::fs::write(dir.join(".2015-03-18.log.tmp"), "torn").unwrap();
        assert_eq!(sweep_stale_tmp(&RealFs, &dir).unwrap(), 2);
        assert!(checkpoint_path(&dir, day).exists(), "real artifact kept");
        assert!(!dir.join(".2015-03-18.log.tmp").exists());
        // Idempotent; missing directory is a no-op, not an error.
        assert_eq!(sweep_stale_tmp(&RealFs, &dir).unwrap(), 0);
        assert_eq!(sweep_stale_tmp(&RealFs, &dir.join("nope")).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_labels_and_display() {
        let e = IngestError::Truncated {
            path: PathBuf::from("x.log"),
            expected: 10,
            got: 7,
        };
        assert_eq!(e.label(), "truncated");
        assert!(e.to_string().contains("expected 10"));
        let grouped = errors_by_label(&[
            e.clone(),
            IngestError::MissingDay {
                day: Day::from_ymd(2015, 3, 17),
            },
            e,
        ]);
        assert_eq!(grouped["truncated"], 2);
        assert_eq!(grouped["missing-day"], 1);
    }

    /// A day file exercising every line shape the reader distinguishes:
    /// CRLF endings, separators outside ASCII's own whitespace set
    /// (U+000B, U+00A0, U+0085, U+1680), whitespace-only lines, an
    /// address-only line, a mid-file comment, a long bad line, and the
    /// `synth::faults` corrupt lines.
    fn pinned_day_file() -> Vec<u8> {
        use v6census_synth::{Fault, FaultInjector};
        let day = Day::from_ymd(2015, 3, 17);
        let mut clean = format!("# synthetic day {day}: 23 unique client addrs\n");
        clean.push_str("# addr\thits\ttrue_kind\n");
        for k in 1..=12u32 {
            let _ = writeln!(clean, "2001:db8:{k:x}::{k:x}\t{}\tcpe", 3 * k);
        }
        let corrupt = FaultInjector::new(7)
            .apply(day, &clean, &Fault::CorruptLines { count: 4 })
            .unwrap_or_default();
        let mut lines: Vec<String> = corrupt.lines().map(String::from).collect();
        lines.extend(
            [
                "2001:db8:a::1\u{0B}5",
                "2001:db8:a::2\u{A0}6\tcpe",
                "   \t ",
                "\u{0B}\u{A0}\u{3000}",
                "",
                "2001:db8:a::3",
                "\u{A0} 2001:db8:a::4\t9 \u{2003}",
                "2001:db8:a::5\u{1680}x",
                "2001:db8:a::6\u{85}7",
                "2001:db8:a::7\u{200B}8",
                "2001:db8:a::8\u{0C}10\u{0B}extra",
                "é2001:db8::1\t1",
                "# a comment in the middle",
                "   # an indented comment",
                "\tABCD:0DB8:0:0:0:0:0:9\t11",
            ]
            .map(String::from),
        );
        lines.push(format!("zz:{}\t1", "é".repeat(40)));
        lines.push("# end 23 0".into());
        (lines.join("\r\n") + "\r\n").into_bytes()
    }

    fn mem_ingestor(files: &[(&str, Vec<u8>)]) -> StreamIngestor {
        let files = files
            .iter()
            .map(|(name, bytes)| (PathBuf::from(name), bytes.clone()))
            .collect();
        StreamIngestor::new(IngestConfig {
            max_bad_ratio: 0.5,
            vfs: Arc::new(vfs::MemFs::from_durable(files, Default::default())),
            ..IngestConfig::default()
        })
    }

    #[test]
    fn impossible_calendar_dates_are_not_days() {
        let ingestor = mem_ingestor(&[
            (
                "/logs/2015-04-31.log",
                b"# synthetic day 2015-04-31: 0\n".to_vec(),
            ),
            ("/logs/notes.txt", Vec::new()),
            (
                "/logs/2015-02-28.log",
                b"# synthetic day 2015-02-30: 1 unique\n2001:db8::1\t1\n# end 1 1\n".to_vec(),
            ),
        ]);
        // Such a file name is skipped like any non-day name...
        let files = day_files(ingestor.cfg.vfs.as_ref(), Path::new("/logs")).unwrap();
        let feb28 = PathBuf::from("/logs/2015-02-28.log");
        assert_eq!(files, vec![(Day::from_ymd(2015, 2, 28), feb28.clone())]);
        // ...and such a header is a bad header, not a panic.
        let parsed = ingestor.parse_file(&feb28).unwrap();
        assert_eq!(parsed.report.outcome, FileOutcome::Failed);
        assert_eq!(
            parsed
                .report
                .errors
                .iter()
                .map(IngestError::label)
                .collect::<Vec<_>>(),
            vec!["bad-header"]
        );
    }

    #[test]
    fn read_and_parse_is_pinned_on_every_line_shape() {
        let path = Path::new("2015-03-17.log");
        let ingestor = mem_ingestor(&[("2015-03-17.log", pinned_day_file())]);
        let mut read = Vec::new();
        let (log, errors) = ingestor.read_and_parse(path, &mut read).unwrap();
        assert_eq!(log.header, Some((Day::from_ymd(2015, 3, 17), 23)));
        assert_eq!(log.trailer, Some((23, 0)));
        assert_eq!(log.data_lines, 23);
        let entries: Vec<String> = read.iter().map(|(a, h)| format!("{a} {h}")).collect();
        assert_eq!(
            entries,
            [
                "2001:db8:1::1 3",
                "2001:db8:2::2 6",
                "2001:db8:3::3 9",
                "2001:db8:4::4 12",
                "2001:db8:6::6 18",
                "2001:db8:7::7 21",
                "2001:db8:a::a 30",
                "2001:db8:b::b 33",
                "2001:db8:c::c 36",
                "2001:db8:a::1 5",
                "2001:db8:a::2 6",
                "2001:db8:a::3 1",
                "2001:db8:a::4 9",
                "2001:db8:a::6 7",
                "2001:db8:a::8 10",
                "abcd:db8::9 11",
            ]
        );
        let bad: Vec<(usize, &str, &str)> = errors
            .iter()
            .filter_map(|e| match e {
                IngestError::BadLine {
                    line,
                    content,
                    reason,
                    ..
                } => Some((*line, content.as_str(), reason.as_str())),
                _ => None,
            })
            .collect();
        let clipped = format!("zz:{}…", "é".repeat(28));
        assert_eq!(
            bad,
            [
                (
                    7,
                    "2001:db8:5::5\tbanana\tcorrupt",
                    "unparseable hits column"
                ),
                (
                    10,
                    "zz:not:an:addr:0\tbanana\tcorrupt",
                    "unparseable address"
                ),
                (11, "zz:not:an:addr:2\t7\tcorrupt", "unparseable address"),
                (22, "2001:db8:a::5\u{1680}x", "unparseable hits column"),
                (24, "2001:db8:a::7\u{200B}8", "unparseable address"),
                (26, "é2001:db8::1\t1", "unparseable address"),
                (30, clipped.as_str(), "unparseable address"),
            ]
        );
        assert_eq!(bad.len(), errors.len(), "only BadLine errors");

        let parsed = ingestor.parse_file(path).unwrap();
        assert_eq!(parsed.report.outcome, FileOutcome::Ingested);
        assert_eq!(parsed.report.data_lines, 23);
        assert_eq!(parsed.report.bad_lines, 7);
        assert_eq!(parsed.report.errors, errors);
        // Entries are kept, in file order, only to be checkpointed.
        assert_eq!(parsed.checkpoint_entries, None);
        let checkpointing = StreamIngestor::new(IngestConfig {
            checkpoint_dir: Some(PathBuf::from("/ckpt")),
            ..ingestor.cfg.clone()
        });
        let parsed = checkpointing.parse_file(path).unwrap();
        assert_eq!(parsed.checkpoint_entries, Some(read));
    }

    /// The two-pass reference for a day file: every entry read into a
    /// `Vec`, then each one through the full content classifier.
    fn two_pass_summary(day: Day, text: &[u8]) -> DaySummary {
        use std::collections::BTreeSet;
        use v6census_addr::scheme::classify;
        use v6census_addr::AddressScheme;
        use v6census_trie::AddrSet;
        let mut entries = Vec::new();
        daylog::read(text, &mut entries).unwrap();
        let mut sets: [Vec<Addr>; 5] = Default::default();
        let mut eui64_macs = BTreeSet::new();
        let mut hits = 0u64;
        for (a, h) in entries {
            hits = hits.saturating_add(h);
            let i = match classify(a) {
                AddressScheme::Teredo => 0,
                AddressScheme::Isatap => 1,
                AddressScheme::SixToFour => 2,
                AddressScheme::Eui64(mac) => {
                    eui64_macs.insert(mac);
                    sets[4].push(a);
                    3
                }
                _ => 3,
            };
            sets[i].push(a);
        }
        let [teredo, isatap, sixtofour, other, eui64] = sets.map(AddrSet::from_iter);
        DaySummary {
            day,
            teredo,
            isatap,
            sixtofour,
            other,
            eui64,
            eui64_macs,
            hits,
        }
    }

    fn assert_same_summary(a: &DaySummary, b: &DaySummary, what: &str) {
        assert_eq!(a.day, b.day, "{what}");
        assert_eq!(a.teredo, b.teredo, "{what}");
        assert_eq!(a.isatap, b.isatap, "{what}");
        assert_eq!(a.sixtofour, b.sixtofour, "{what}");
        assert_eq!(a.other, b.other, "{what}");
        assert_eq!(a.eui64, b.eui64, "{what}");
        assert_eq!(a.eui64_macs, b.eui64_macs, "{what}");
        assert_eq!(a.hits, b.hits, "{what}");
    }

    #[test]
    fn one_pass_summary_equals_two_pass_reference() {
        use v6census_synth::faults::day_file_name;
        use v6census_synth::{world::epochs, Fault, FaultInjector, World, WorldConfig};
        let pinned = pinned_day_file();
        let ingestor = mem_ingestor(&[("2015-03-17.log", pinned.clone())]);
        let parsed = ingestor.parse_file(Path::new("2015-03-17.log")).unwrap();
        let want = two_pass_summary(Day::from_ymd(2015, 3, 17), &pinned);
        assert_same_summary(parsed.summary.as_ref().unwrap(), &want, "pinned");

        let log = World::standard(WorldConfig::tiny(5)).day_log(epochs::mar2015());
        let clean = log.to_text();
        let name = day_file_name(log.day);
        let mut ingestable = Vec::new();
        for fault in [
            None,
            Some(Fault::CorruptLines { count: 6 }),
            Some(Fault::Truncate { keep_pct: 60 }),
            Some(Fault::DuplicateDay),
            Some(Fault::ShiftHeaderDay { offset: 1 }),
            Some(Fault::DropDay),
            Some(Fault::OversizedPrefixBlob { addrs: 50 }),
        ] {
            let text = match &fault {
                None => Some(clean.clone()),
                Some(f) => FaultInjector::new(11).apply(log.day, &clean, f),
            };
            let Some(text) = text else { continue };
            let ingestor = mem_ingestor(&[(name.as_str(), text.clone().into_bytes())]);
            let parsed = ingestor.parse_file(Path::new(&name)).unwrap();
            let Some(summary) = parsed.summary else {
                continue;
            };
            let what = format!("{fault:?}");
            let want = two_pass_summary(log.day, text.as_bytes());
            assert!(want.total() > 0 && !want.eui64_macs.is_empty(), "{what}");
            assert_same_summary(&summary, &want, &what);
            ingestable.push(what);
        }
        assert_eq!(
            ingestable,
            [
                "None",
                "Some(CorruptLines { count: 6 })",
                "Some(DuplicateDay)",
                "Some(OversizedPrefixBlob { addrs: 50 })",
            ]
        );
    }

    #[test]
    fn one_pass_checkpoints_reload_to_equal_summaries() {
        use v6census_synth::faults::day_file_name;
        use v6census_synth::{world::epochs, World, WorldConfig};
        let w = World::standard(WorldConfig::tiny(7));
        let days = [epochs::mar2015(), epochs::mar2015() + 1];
        let files: Vec<(String, Vec<u8>)> = days
            .iter()
            .map(|&d| {
                let name = format!("/logs/{}", day_file_name(d));
                (name, w.day_log(d).to_text().into_bytes())
            })
            .collect();
        let files: Vec<(&str, Vec<u8>)> =
            files.iter().map(|(n, b)| (n.as_str(), b.clone())).collect();
        let ckpts = PathBuf::from("/ckpt");
        let ingestor = StreamIngestor::new(IngestConfig {
            checkpoint_dir: Some(ckpts.clone()),
            ..mem_ingestor(&files).cfg
        });
        let mut census = Census::new_empty();
        for (name, _) in &files {
            let parsed = ingestor.parse_file(Path::new(name)).unwrap();
            assert!(parsed.checkpoint_entries.is_some());
            let report = ingestor
                .commit_parsed(parsed, &mut census, &mut Vec::new())
                .unwrap();
            assert_eq!(report.outcome, FileOutcome::Ingested);
        }
        for day in days {
            let mut builder = DaySummaryBuilder::default();
            let fs = ingestor.cfg.vfs.as_ref();
            let (back, n, _) =
                load_checkpoint(fs, &checkpoint_path(&ckpts, day), &mut builder).unwrap();
            assert_eq!((back, n), (day, w.day_log(day).len()));
            let what = day.to_string();
            assert_same_summary(&builder.finish(day), census.summary(day).unwrap(), &what);
        }
    }

    #[test]
    fn a_days_hits_saturate_at_u64_max() {
        let day = Day::from_ymd(2015, 3, 17);
        let text = format!(
            "# synthetic day {day}: 2 unique client addrs\n\
             2001:db8::1\t18446744073709551615\n2001:db8::2\t1\n# end 2 18446744073709551615\n"
        );
        let ckpts = PathBuf::from("/ckpt");
        let base = mem_ingestor(&[("2015-03-17.log", text.into_bytes())]);
        let ingestor = StreamIngestor::new(IngestConfig {
            checkpoint_dir: Some(ckpts.clone()),
            on_duplicate: DuplicatePolicy::Merge,
            ..base.cfg
        });
        let path = Path::new("2015-03-17.log");
        let mut census = Census::new_empty();
        for _ in 0..2 {
            let parsed = ingestor.parse_file(path).unwrap();
            assert_eq!(parsed.summary.as_ref().unwrap().hits, u64::MAX);
            ingestor
                .commit_parsed(parsed, &mut census, &mut Vec::new())
                .unwrap();
        }
        // A merged delivery and a week's rollup saturate too.
        assert_eq!(census.summary(day).unwrap().hits, u64::MAX);
        assert_eq!(census.week_summary(day).hits, u64::MAX);
        // The checkpoint's trailer and its reader agree.
        let mut entries = Vec::new();
        let fs = ingestor.cfg.vfs.as_ref();
        load_checkpoint(fs, &checkpoint_path(&ckpts, day), &mut entries).unwrap();
        assert_eq!(DaySummary::from_entries(day, entries).hits, u64::MAX);
    }

    #[test]
    fn a_file_is_judged_by_its_counts() {
        // 200 data lines, the first `bad` of them unparseable, `lost`
        // dropped from mid-file, and a trailer that counts all 200.
        let text = |bad: usize, lost: usize| {
            let mut text = "# synthetic day 2015-03-17: 200 unique client addrs\n".to_string();
            for i in (0..200).filter(|i| !(100..100 + lost).contains(i)) {
                text += &if i < bad {
                    "zz:bad\t1\n".to_string()
                } else {
                    format!("2001:db8::{i:x}\t1\n")
                };
            }
            (text + "# end 200 200\n").into_bytes()
        };
        let judge = |bad, lost| {
            let base = mem_ingestor(&[("2015-03-17.log", text(bad, lost))]);
            let ingestor = StreamIngestor::new(IngestConfig {
                max_bad_ratio: IngestConfig::default().max_bad_ratio,
                ..base.cfg
            });
            let report = ingestor
                .parse_file(Path::new("2015-03-17.log"))
                .unwrap()
                .report;
            (report.outcome, report.errors.last().map(IngestError::label))
        };
        // The default budget is 1% of the data lines: 2 of 200 is
        // within it, 3 of 200 is not.
        assert_eq!(judge(2, 0), (FileOutcome::Ingested, Some("bad-line")));
        assert_eq!(
            judge(3, 0),
            (FileOutcome::Failed, Some("error-budget-exceeded"))
        );
        // A file that kept its trailer but lost lines mid-file is
        // truncated: the trailer's count is authoritative.
        assert_eq!(judge(0, 0), (FileOutcome::Ingested, None));
        assert_eq!(judge(0, 5), (FileOutcome::Failed, Some("truncated")));
    }

    #[test]
    fn non_utf8_day_file_fails_as_invalid_data() {
        let mut bytes = b"# synthetic day 2015-03-17: 2 unique client addrs\n".to_vec();
        bytes.extend_from_slice(b"2001:db8::1\t3\n2001:db8::\xff\t4\n# end 2 7\n");
        let ingestor = mem_ingestor(&[("2015-03-17.log", bytes)]);
        let path = Path::new("2015-03-17.log");
        let e = ingestor
            .read_and_parse(path, &mut Vec::new())
            .err()
            .unwrap();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let parsed = ingestor.parse_file(path).unwrap();
        assert_eq!(parsed.report.outcome, FileOutcome::Failed);
        assert_eq!(
            parsed.report.errors,
            [IngestError::Io {
                path: path.to_path_buf(),
                kind: io::ErrorKind::InvalidData,
                retries: 0,
                detail: "stream did not contain valid UTF-8".into(),
            }]
        );
    }
}
