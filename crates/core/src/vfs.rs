//! Injectable filesystem layer for every durability path.
//!
//! The census's system of record is the on-disk corpus — per-day
//! checkpoints, published day logs — not the
//! in-memory tries. Crash safety of that corpus can only be *proved* if
//! every byte that reaches disk goes through a seam where faults can be
//! injected and durability can be modelled. This module is that seam:
//!
//! * [`Vfs`] — the trait every durability path writes through:
//!   open/read/write/fsync/rename/remove/create-dir, plus the
//!   [`Vfs::write_atomic`] discipline (write temp, fsync temp, rename)
//!   that makes a file's appearance atomic *and* durable.
//! * [`RealFs`] — the passthrough to `std::fs` used in production.
//! * [`MemFs`] — a deterministic in-memory filesystem that models the
//!   documented persistence contract (see DESIGN.md "Crash
//!   consistency"): a file has a *volatile* content (what the process
//!   reads back) and a *durable* content (what survives a crash).
//!   `write` replaces the volatile view and leaves the first half of
//!   its bytes durable (a torn write); `fsync` promotes the whole
//!   volatile view to durable; creating a file, `rename` and `remove`
//!   are durable metadata operations the moment they complete. Every
//!   mutation is recorded in an op log, and a crash schedule
//!   (`set_crash_after`) makes mutation *k* and everything after it
//!   fail — the substrate of the crash-point explorer in
//!   `crates/census/tests/crashtest.rs`.
//! * [`FaultFs`] — a fault-injecting overlay over any inner [`Vfs`]
//!   (the real one or a [`MemFs`]) executing a seeded [`FaultPlan`]:
//!   ENOSPC at byte N, silent short writes, EINTR storms, fsyncs that
//!   lie, renames that never hit disk, read-back bit corruption.
//!
//! Everything here is deterministic: no clocks, no randomness, ordered
//! maps only — the same plan against the same workload injects the same
//! faults, which is what lets CI replay a drill byte-for-byte.

#![expect(
    clippy::disallowed_types,
    reason = "lock confinement: MemFs and FaultFs keep their state behind a Mutex taken only inside a closure-scoped `with`"
)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The filesystem operations a durability path is allowed to use.
///
/// The contract mirrors POSIX semantics at the granularity the
/// persistence model needs: `write` replaces a file's content but
/// promises nothing about durability; `fsync` makes the current content
/// durable; `rename` atomically replaces the target and is treated as
/// durable on completion; `write_atomic` composes the three into the
/// only sanctioned way to publish a file.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Opens a file for streaming reads (bounded-memory line iteration).
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn Read + Send>>;

    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Creates or truncates `path` and writes `data`. The bytes are
    /// *not* durable until [`Vfs::fsync`] succeeds.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Flushes `path`'s content to stable storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;

    /// Atomically renames `from` onto `to` (replacing it). Completed
    /// renames survive a crash.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file. Completed removals survive a crash.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Creates a directory and its ancestors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Lists the entries directly under `path`, sorted by name.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// True when `path` exists.
    fn exists(&self, path: &Path) -> bool;

    /// Reads a whole file as UTF-8.
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        String::from_utf8(self.read(path)?)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 file content"))
    }

    /// Publishes `data` at `path` atomically *and* durably: write a
    /// dot-prefixed `.tmp` sibling, fsync it, rename it into place.
    /// Under the persistence model a crash at any point leaves either
    /// the old file, the new file, or a stale `.tmp` the startup sweep
    /// ([`is_stale_tmp`]) removes — never a torn `path`.
    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let tmp = tmp_path(path);
        self.write(&tmp, data)?;
        self.fsync(&tmp)?;
        self.rename(&tmp, path)
    }
}

/// The `.tmp` sibling [`Vfs::write_atomic`] stages into: `dir/file` →
/// `dir/.file.tmp`.
pub fn tmp_path(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    path.with_file_name(format!(".{name}.tmp"))
}

/// True for file names produced by [`tmp_path`]: the leftovers an
/// aborted atomic write can leave behind, safe to delete at startup.
pub fn is_stale_tmp(name: &str) -> bool {
    name.starts_with('.') && name.ends_with(".tmp") && name.len() > 5
}

// ---------------------------------------------------------------------------
// RealFs
// ---------------------------------------------------------------------------

/// The production filesystem: a passthrough to `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealFs;

#[expect(
    clippy::disallowed_methods,
    reason = "RealFs is the one implementation that mutates the real filesystem"
)]
impl Vfs for RealFs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(std::fs::File::open(path)?))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(path)? {
            out.push(entry?.path());
        }
        out.sort();
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ---------------------------------------------------------------------------
// MemFs: the crash-schedule model
// ---------------------------------------------------------------------------

/// One file in the [`MemFs`] model: what the process sees versus what a
/// crash preserves.
#[derive(Clone, Debug)]
struct MemFile {
    /// Content visible to reads while the process lives.
    volatile: Vec<u8>,
    /// Content that survives a crash: the last fsynced content, or the
    /// torn prefix of a write made since.
    durable: Vec<u8>,
}

#[derive(Debug, Default)]
struct MemState {
    files: BTreeMap<PathBuf, MemFile>,
    dirs: BTreeSet<PathBuf>,
    /// Performed durability-relevant mutations, in order.
    ops: Vec<String>,
    /// Crash schedule: mutation with ordinal `n` (0-based) and every
    /// operation after it fail with a simulated-crash error.
    crash_after: Option<usize>,
    crashed: bool,
}

/// A deterministic in-memory filesystem implementing the documented
/// persistence model, with an op log and a crash schedule.
///
/// What survives a crash: bytes that were fsynced, plus created files,
/// completed renames and removals (durable metadata). A write not yet
/// fsynced survives torn: the file holds the first half of the new
/// bytes (deterministically), neither the old content nor the new. A
/// file renamed into place without an fsync survives as that torn
/// prefix — the torn-artifact case recovery must detect and quarantine.
#[derive(Debug, Default)]
pub struct MemFs {
    state: Mutex<MemState>,
}

fn crash_error() -> io::Error {
    io::Error::other("simulated crash: operation after scheduled crash point")
}

impl MemFs {
    /// An empty filesystem with no crash scheduled.
    pub fn new() -> MemFs {
        MemFs::default()
    }

    /// A filesystem whose files are exactly `files`, all durable — the
    /// state a process restarting after a crash observes.
    pub fn from_durable(files: BTreeMap<PathBuf, Vec<u8>>, dirs: BTreeSet<PathBuf>) -> MemFs {
        let files = files
            .into_iter()
            .map(|(p, bytes)| {
                (
                    p,
                    MemFile {
                        volatile: bytes.clone(),
                        durable: bytes,
                    },
                )
            })
            .collect();
        MemFs {
            state: Mutex::new(MemState {
                files,
                dirs,
                ops: Vec::new(),
                crash_after: None,
                crashed: false,
            }),
        }
    }

    /// Runs `f` on the state under its lock. The guard lives only for
    /// the call, so no caller can hold it across another operation.
    fn with<R>(&self, f: impl FnOnce(&mut MemState) -> R) -> R {
        f(&mut self.state.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// The durable view: what a crash right now would preserve.
    pub fn durable_files(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        self.with(|state| {
            state
                .files
                .iter()
                .map(|(p, f)| (p.clone(), f.durable.clone()))
                .collect()
        })
    }

    /// The directories created so far (directory creation is treated as
    /// durable metadata).
    pub fn durable_dirs(&self) -> BTreeSet<PathBuf> {
        self.with(|state| state.dirs.clone())
    }

    /// Durability-relevant mutations performed since the last
    /// [`MemFs::reset_ops`].
    pub fn mutations(&self) -> usize {
        self.with(|state| state.ops.len())
    }

    /// The op log: one human-readable line per mutation, in order.
    pub fn op_log(&self) -> Vec<String> {
        self.with(|state| state.ops.clone())
    }

    /// Clears the op log (e.g. after staging fixture files) so crash
    /// ordinals count only the run under test.
    pub fn reset_ops(&self) {
        self.with(|state| state.ops.clear());
    }

    /// Schedules a crash: the mutation with 0-based ordinal `n` — and
    /// every operation after it, reads included — fails.
    pub fn set_crash_after(&self, n: usize) {
        self.with(|state| state.crash_after = Some(n));
    }

    /// True once the scheduled crash has triggered.
    pub fn crashed(&self) -> bool {
        self.with(|state| state.crashed)
    }
}

impl MemState {
    /// Gates one mutation against the crash schedule and records it.
    fn mutate(&mut self, record: String) -> io::Result<()> {
        if self.crashed {
            return Err(crash_error());
        }
        if self.crash_after.is_some_and(|n| self.ops.len() >= n) {
            self.crashed = true;
            return Err(crash_error());
        }
        self.ops.push(record);
        Ok(())
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            Err(crash_error())
        } else {
            Ok(())
        }
    }
}

impl Vfs for MemFs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        Ok(Box::new(io::Cursor::new(self.read(path)?)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.with(|state| {
            state.check_alive()?;
            match state.files.get(path) {
                Some(f) => Ok(f.volatile.clone()),
                None => Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("no such file: {}", path.display()),
                )),
            }
        })
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.with(|state| {
            state.mutate(format!("write {} ({} bytes)", path.display(), data.len()))?;
            // Until an fsync, a crash keeps the first half of the bytes.
            let torn = data.split_at(data.len() / 2).0;
            state.files.insert(
                path.to_path_buf(),
                MemFile {
                    volatile: data.to_vec(),
                    durable: torn.to_vec(),
                },
            );
            Ok(())
        })
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.with(|state| {
            state.mutate(format!("fsync {}", path.display()))?;
            match state.files.get_mut(path) {
                Some(f) => {
                    f.durable = f.volatile.clone();
                    Ok(())
                }
                None => Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("fsync of missing file: {}", path.display()),
                )),
            }
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.with(|state| {
            state.mutate(format!("rename {} -> {}", from.display(), to.display()))?;
            let Some(f) = state.files.remove(from) else {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("rename of missing file: {}", from.display()),
                ));
            };
            // The rename is durable metadata: after a crash, `to` exists
            // with whatever content of `from` was durable — a torn prefix
            // if `from`'s last write was never fsynced.
            state.files.insert(to.to_path_buf(), f);
            Ok(())
        })
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.with(|state| {
            state.mutate(format!("remove {}", path.display()))?;
            match state.files.remove(path) {
                Some(_) => Ok(()),
                None => Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("remove of missing file: {}", path.display()),
                )),
            }
        })
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.with(|state| {
            state.check_alive()?;
            if state.dirs.contains(path) {
                // Re-creating an existing directory is not a durability
                // event; it must not advance the crash clock.
                return Ok(());
            }
            state.mutate(format!("mkdir {}", path.display()))?;
            let mut cur = path.to_path_buf();
            loop {
                state.dirs.insert(cur.clone());
                match cur.parent() {
                    Some(p) if !p.as_os_str().is_empty() => cur = p.to_path_buf(),
                    _ => break,
                }
            }
            Ok(())
        })
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.with(|state| {
            state.check_alive()?;
            let mut out: Vec<PathBuf> = state
                .files
                .keys()
                .filter(|p| p.parent() == Some(path))
                .cloned()
                .collect();
            out.extend(
                state
                    .dirs
                    .iter()
                    .filter(|d| d.parent() == Some(path))
                    .cloned(),
            );
            out.sort();
            Ok(out)
        })
    }

    fn exists(&self, path: &Path) -> bool {
        self.with(|state| {
            !state.crashed && (state.files.contains_key(path) || state.dirs.contains(path))
        })
    }
}

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

/// One injectable I/O failure mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A write fails with `StorageFull` after persisting only the first
    /// `at_byte` bytes — disk-full mid-write.
    Enospc {
        /// Bytes that land before the failure.
        at_byte: usize,
    },
    /// A write silently persists only the first `keep` bytes and
    /// reports success — a torn page only read-back validation catches.
    ShortWrite {
        /// Bytes that land.
        keep: usize,
    },
    /// The operation fails with `Interrupted` — an EINTR storm the
    /// retry layer must absorb.
    Eintr,
    /// An fsync reports success without making anything durable (a
    /// write's torn prefix stays all that a crash keeps).
    FsyncLie,
    /// A rename reports success but never happens: the temp file stays,
    /// the destination never appears.
    RenameDrop,
    /// A read returns the file with one byte bit-flipped (`byte` is
    /// taken modulo the file length).
    ReadCorrupt {
        /// Index of the corrupted byte.
        byte: usize,
    },
}

impl FaultKind {
    /// A stable short label per variant, for plans and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Enospc { .. } => "enospc",
            FaultKind::ShortWrite { .. } => "shortwrite",
            FaultKind::Eintr => "eintr",
            FaultKind::FsyncLie => "fsynclie",
            FaultKind::RenameDrop => "renamedrop",
            FaultKind::ReadCorrupt { .. } => "readcorrupt",
        }
    }
}

/// One rule of a [`FaultPlan`]: inject `kind` on operations whose path
/// contains `path_contains` (empty: every path), after skipping the
/// first `skip` matches, for at most `times` firings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRule {
    /// What to inject.
    pub kind: FaultKind,
    /// Substring the operation's path must contain.
    pub path_contains: String,
    /// Matching operations to let through before the first firing.
    pub skip: u32,
    /// Maximum number of firings.
    pub times: u32,
}

/// A deterministic, seeded set of I/O faults, parseable from the
/// `--fault-fs` CLI flag.
///
/// Syntax: rules separated by `;`, each
/// `kind[@N]:[path-substring][:skip]` — e.g.
/// `enospc@64:ckpt`, `fsynclie:state`, `renamedrop:ckpt:1`,
/// `eintr@3:`, `readcorrupt@5:ckpt-2015-03-17`. `@N` is the byte offset
/// for `enospc`/`shortwrite`/`readcorrupt` and the firing count for
/// `eintr`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The rules, consulted in order; the first applicable rule fires.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parses the `--fault-fs` syntax documented on [`FaultPlan`].
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for rule in spec.split(';').filter(|r| !r.trim().is_empty()) {
            rules.push(parse_rule(rule.trim())?);
        }
        if rules.is_empty() {
            return Err(format!("empty --fault-fs plan {spec:?}"));
        }
        Ok(FaultPlan { rules })
    }
}

fn parse_rule(rule: &str) -> Result<FaultRule, String> {
    let mut cols = rule.splitn(3, ':');
    let head = cols.next().unwrap_or_default();
    let path_contains = cols.next().unwrap_or_default().to_string();
    let skip: u32 = match cols.next() {
        None => 0,
        Some(s) => s
            .parse()
            .map_err(|_| format!("bad skip count {s:?} in fault rule {rule:?}"))?,
    };
    let (name, n) = match head.split_once('@') {
        None => (head, None),
        Some((name, ns)) => {
            let n: usize = ns
                .parse()
                .map_err(|_| format!("bad @N operand {ns:?} in fault rule {rule:?}"))?;
            (name, Some(n))
        }
    };
    let mut times = 1u32;
    let kind = match name {
        "enospc" => FaultKind::Enospc {
            at_byte: n.unwrap_or(0),
        },
        "shortwrite" => FaultKind::ShortWrite { keep: n.unwrap_or(0) },
        "eintr" => {
            times = u32::try_from(n.unwrap_or(1)).unwrap_or(u32::MAX);
            FaultKind::Eintr
        }
        "fsynclie" => FaultKind::FsyncLie,
        "renamedrop" => FaultKind::RenameDrop,
        "readcorrupt" => FaultKind::ReadCorrupt { byte: n.unwrap_or(0) },
        other => {
            return Err(format!(
                "unknown fault kind {other:?}; expected enospc, shortwrite, eintr, fsynclie, renamedrop, or readcorrupt"
            ))
        }
    };
    Ok(FaultRule {
        kind,
        path_contains,
        skip,
        times,
    })
}

// ---------------------------------------------------------------------------
// FaultFs
// ---------------------------------------------------------------------------

/// The operation class a rule is matched against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpClass {
    Read,
    Write,
    Fsync,
    Rename,
}

fn applies(kind: &FaultKind, op: OpClass) -> bool {
    match kind {
        FaultKind::Eintr => true,
        FaultKind::Enospc { .. } | FaultKind::ShortWrite { .. } => op == OpClass::Write,
        FaultKind::FsyncLie => op == OpClass::Fsync,
        FaultKind::RenameDrop => op == OpClass::Rename,
        FaultKind::ReadCorrupt { .. } => op == OpClass::Read,
    }
}

#[derive(Debug)]
struct RuleState {
    rule: FaultRule,
    skip_left: u32,
    times_left: u32,
}

#[derive(Debug, Default)]
struct FaultFsState {
    rules: Vec<RuleState>,
    injected: u64,
}

/// A fault-injecting overlay over any inner [`Vfs`], executing a
/// [`FaultPlan`] deterministically. Operations no rule fires on pass
/// straight through.
#[derive(Debug)]
pub struct FaultFs {
    inner: Arc<dyn Vfs>,
    state: Mutex<FaultFsState>,
}

impl FaultFs {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: Arc<dyn Vfs>, plan: FaultPlan) -> FaultFs {
        FaultFs {
            inner,
            state: Mutex::new(FaultFsState {
                rules: plan
                    .rules
                    .into_iter()
                    .map(|rule| RuleState {
                        skip_left: rule.skip,
                        times_left: rule.times,
                        rule,
                    })
                    .collect(),
                injected: 0,
            }),
        }
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.with(|state| state.injected)
    }

    /// Runs `f` on the rule state under its lock. The guard lives only
    /// for the call, and `f` never reaches the inner Vfs, so this lock
    /// never nests inside `MemFs`'s.
    fn with<R>(&self, f: impl FnOnce(&mut FaultFsState) -> R) -> R {
        f(&mut self.state.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Consumes and returns the first applicable rule's fault for this
    /// operation, honoring skip/times budgets.
    fn fire(&self, op: OpClass, path: &Path) -> Option<FaultKind> {
        self.with(|state| {
            let text = path.to_string_lossy().into_owned();
            for r in state.rules.iter_mut() {
                if r.times_left == 0
                    || !applies(&r.rule.kind, op)
                    || !text.contains(&r.rule.path_contains)
                {
                    continue;
                }
                if r.skip_left > 0 {
                    r.skip_left -= 1;
                    continue;
                }
                r.times_left -= 1;
                let kind = r.rule.kind.clone();
                state.injected += 1;
                return Some(kind);
            }
            None
        })
    }
}

fn corrupt(mut data: Vec<u8>, byte: usize) -> Vec<u8> {
    if !data.is_empty() {
        let at = byte % data.len();
        if let Some(b) = data.get_mut(at) {
            *b ^= 0x01;
        }
    }
    data
}

fn eintr_error() -> io::Error {
    io::Error::new(io::ErrorKind::Interrupted, "injected EINTR")
}

impl Vfs for FaultFs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn Read + Send>> {
        match self.fire(OpClass::Read, path) {
            Some(FaultKind::Eintr) => Err(eintr_error()),
            Some(FaultKind::ReadCorrupt { byte }) => Ok(Box::new(io::Cursor::new(corrupt(
                self.inner.read(path)?,
                byte,
            )))),
            _ => self.inner.open_read(path),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.fire(OpClass::Read, path) {
            Some(FaultKind::Eintr) => Err(eintr_error()),
            Some(FaultKind::ReadCorrupt { byte }) => Ok(corrupt(self.inner.read(path)?, byte)),
            _ => self.inner.read(path),
        }
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.fire(OpClass::Write, path) {
            Some(FaultKind::Eintr) => Err(eintr_error()),
            Some(FaultKind::Enospc { at_byte }) => {
                let kept = data.get(..at_byte.min(data.len())).unwrap_or_default();
                self.inner.write(path, kept)?;
                Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    format!("injected ENOSPC after {} bytes", kept.len()),
                ))
            }
            Some(FaultKind::ShortWrite { keep }) => {
                // The torn write: a prefix lands, success is reported.
                let kept = data.get(..keep.min(data.len())).unwrap_or_default();
                self.inner.write(path, kept)
            }
            _ => self.inner.write(path, data),
        }
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        match self.fire(OpClass::Fsync, path) {
            Some(FaultKind::Eintr) => Err(eintr_error()),
            // The lying fsync: success reported, nothing made durable.
            Some(FaultKind::FsyncLie) => Ok(()),
            _ => self.inner.fsync(path),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.fire(OpClass::Rename, to) {
            Some(FaultKind::Eintr) => Err(eintr_error()),
            // The dropped rename: success reported, nothing moved.
            Some(FaultKind::RenameDrop) => Ok(()),
            _ => self.inner.rename(from, to),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::disallowed_methods,
        clippy::let_underscore_must_use,
        reason = "tests build their fixtures with std::fs and clean up best-effort"
    )]
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn tmp_names_round_trip_the_sweep_predicate() {
        assert_eq!(
            tmp_path(&p("/state/ckpt-2015-03-17.tsv")),
            p("/state/.ckpt-2015-03-17.tsv.tmp")
        );
        assert!(is_stale_tmp(".ckpt-2015-03-17.tsv.tmp"));
        assert!(is_stale_tmp(".2015-03-17.log.tmp"));
        assert!(!is_stale_tmp("ckpt-2015-03-17.tsv"));
        assert!(!is_stale_tmp("2015-03-17.log"));
        assert!(!is_stale_tmp(".tmp"));
    }

    #[test]
    fn memfs_models_volatile_vs_durable() {
        let fs = MemFs::new();
        fs.create_dir_all(&p("/state")).unwrap();
        fs.write(&p("/state/a"), b"hello").unwrap();
        // Written but not fsynced: readable now, torn on crash.
        assert_eq!(fs.read(&p("/state/a")).unwrap(), b"hello");
        assert_eq!(fs.durable_files().get(&p("/state/a")).unwrap(), b"he");
        fs.fsync(&p("/state/a")).unwrap();
        assert_eq!(fs.durable_files().get(&p("/state/a")).unwrap(), b"hello");
        // A later un-fsynced write is torn on crash too: the first half
        // of the new bytes, neither the old content nor the new.
        fs.write(&p("/state/a"), b"newer!").unwrap();
        assert_eq!(fs.read(&p("/state/a")).unwrap(), b"newer!");
        assert_eq!(fs.durable_files().get(&p("/state/a")).unwrap(), b"new");
    }

    #[test]
    fn memfs_rename_is_durable_metadata() {
        let fs = MemFs::new();
        fs.create_dir_all(&p("/d")).unwrap();
        fs.write(&p("/d/.x.tmp"), b"data").unwrap();
        fs.fsync(&p("/d/.x.tmp")).unwrap();
        fs.rename(&p("/d/.x.tmp"), &p("/d/x")).unwrap();
        let durable = fs.durable_files();
        assert_eq!(durable.get(&p("/d/x")).unwrap(), b"data");
        assert!(!durable.contains_key(&p("/d/.x.tmp")));
        // Renaming an un-fsynced file leaves a durable torn file.
        fs.write(&p("/d/.y.tmp"), b"data").unwrap();
        fs.rename(&p("/d/.y.tmp"), &p("/d/y")).unwrap();
        assert_eq!(fs.durable_files().get(&p("/d/y")).unwrap(), b"da");
        assert_eq!(
            fs.read(&p("/d/y")).unwrap(),
            b"data",
            "volatile view intact"
        );
    }

    #[test]
    fn memfs_crash_schedule_fails_everything_from_ordinal_n() {
        let fs = MemFs::new();
        fs.create_dir_all(&p("/d")).unwrap(); // mutation 0
        fs.write(&p("/d/a"), b"1").unwrap(); // mutation 1
        fs.set_crash_after(2);
        assert!(fs.fsync(&p("/d/a")).is_err(), "mutation 2 crashes");
        assert!(fs.crashed());
        assert!(fs.read(&p("/d/a")).is_err(), "reads fail after the crash");
        assert!(!fs.exists(&p("/d/a")));
        assert_eq!(fs.mutations(), 2);
        // The durable view is still inspectable from outside: the
        // un-fsynced one-byte write is torn to nothing.
        assert_eq!(fs.durable_files().get(&p("/d/a")).unwrap(), b"");
    }

    #[test]
    fn memfs_from_durable_restarts_clean() {
        let fs = MemFs::new();
        fs.create_dir_all(&p("/d")).unwrap();
        fs.write(&p("/d/a"), b"keep").unwrap();
        fs.fsync(&p("/d/a")).unwrap();
        fs.write(&p("/d/b"), b"torn").unwrap();
        let restarted = MemFs::from_durable(fs.durable_files(), fs.durable_dirs());
        assert_eq!(restarted.read(&p("/d/a")).unwrap(), b"keep");
        assert_eq!(restarted.read(&p("/d/b")).unwrap(), b"to");
        assert!(restarted.exists(&p("/d")));
        assert_eq!(restarted.mutations(), 0);
    }

    #[test]
    fn memfs_write_atomic_leaves_no_tmp_and_is_durable() {
        let fs = MemFs::new();
        fs.create_dir_all(&p("/d")).unwrap();
        fs.write_atomic(&p("/d/file"), b"payload").unwrap();
        assert_eq!(fs.durable_files().get(&p("/d/file")).unwrap(), b"payload");
        assert!(!fs.exists(&tmp_path(&p("/d/file"))));
        assert_eq!(
            fs.op_log(),
            vec![
                "mkdir /d".to_string(),
                "write /d/.file.tmp (7 bytes)".to_string(),
                "fsync /d/.file.tmp".to_string(),
                "rename /d/.file.tmp -> /d/file".to_string(),
            ]
        );
    }

    #[test]
    fn fault_plan_parses_and_rejects() {
        let plan = FaultPlan::parse("enospc@64:ckpt; fsynclie:state; eintr@3:; renamedrop:ckpt:2")
            .unwrap();
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(plan.rules[0].kind, FaultKind::Enospc { at_byte: 64 });
        assert_eq!(plan.rules[0].path_contains, "ckpt");
        assert_eq!(plan.rules[1].kind, FaultKind::FsyncLie);
        assert_eq!(plan.rules[2].kind, FaultKind::Eintr);
        assert_eq!(plan.rules[2].times, 3);
        assert_eq!(plan.rules[3].skip, 2);
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("warble:x").is_err());
        assert!(FaultPlan::parse("enospc@lots:x").is_err());
        assert!(FaultPlan::parse("renamedrop:x:often").is_err());
    }

    #[test]
    fn faultfs_enospc_and_shortwrite() {
        let inner = Arc::new(MemFs::new());
        inner.create_dir_all(&p("/d")).unwrap();
        let fs = FaultFs::new(
            inner.clone(),
            FaultPlan::parse("enospc@3:a; shortwrite@2:b").unwrap(),
        );
        let e = fs.write(&p("/d/a"), b"0123456789").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        assert_eq!(inner.read(&p("/d/a")).unwrap(), b"012", "prefix landed");
        // Short write lies about success.
        fs.write(&p("/d/b"), b"0123456789").unwrap();
        assert_eq!(inner.read(&p("/d/b")).unwrap(), b"01");
        assert_eq!(fs.injected(), 2);
        // Budget exhausted: later writes pass through.
        fs.write(&p("/d/a"), b"ok").unwrap();
        assert_eq!(inner.read(&p("/d/a")).unwrap(), b"ok");
    }

    #[test]
    fn faultfs_fsynclie_renamedrop_eintr_readcorrupt() {
        let inner = Arc::new(MemFs::new());
        inner.create_dir_all(&p("/d")).unwrap();
        let fs = FaultFs::new(
            inner.clone(),
            FaultPlan::parse("fsynclie:x; renamedrop:final; eintr@2:e; readcorrupt@0:c").unwrap(),
        );
        // Lying fsync: Ok reported, only the write's torn prefix durable.
        fs.write(&p("/d/x"), b"data").unwrap();
        fs.fsync(&p("/d/x")).unwrap();
        assert_eq!(inner.durable_files().get(&p("/d/x")).unwrap(), b"da");
        // Dropped rename: Ok reported, nothing moved.
        fs.rename(&p("/d/x"), &p("/d/final")).unwrap();
        assert!(inner.exists(&p("/d/x")));
        assert!(!inner.exists(&p("/d/final")));
        // EINTR storm: exactly two interruptions, then passthrough.
        assert_eq!(
            fs.write(&p("/d/e"), b"1").unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        assert_eq!(
            fs.write(&p("/d/e"), b"1").unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        fs.write(&p("/d/e"), b"1").unwrap();
        // Read corruption: one bit differs, length preserved.
        inner.write(&p("/d/c"), b"abc").unwrap();
        let got = fs.read(&p("/d/c")).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], b'a' ^ 0x01);
        assert_eq!(&got[1..], b"bc");
    }

    #[test]
    fn realfs_round_trips_and_sweeps() {
        let dir = std::env::temp_dir().join(format!("v6census-vfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = RealFs;
        fs.create_dir_all(&dir).unwrap();
        let file = dir.join("data.txt");
        fs.write_atomic(&file, b"payload").unwrap();
        assert!(fs.exists(&file));
        assert!(!fs.exists(&tmp_path(&file)));
        assert_eq!(fs.read_to_string(&file).unwrap(), "payload");
        let listed = fs.read_dir(&dir).unwrap();
        assert_eq!(listed, vec![file.clone()]);
        fs.remove_file(&file).unwrap();
        assert!(!fs.exists(&file));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
