//! `v6census serve`: a crash-safe, load-shedding census daemon.
//!
//! A long-running process on top of the PR-1/PR-2 failure-handling
//! substrate: it restores the last committed state from its per-day
//! checkpoints, ingests new day logs incrementally in the background,
//! and answers point queries over a hand-rolled HTTP/1.1 surface. The
//! robustness posture is designed in, not bolted on:
//!
//! * **Immutable published snapshots** ([`crate::snapshot`]): ingest
//!   builds the next [`Snapshot`] outside any lock and publishes it with
//!   a single pointer swap; readers never observe a half-ingested day
//!   and never block on ingest.
//! * **Bounded request buffers**: a request head larger than
//!   [`ServeConfig::max_request_bytes`] is answered `431` and dropped —
//!   memory per connection is capped, always.
//! * **Read/write deadlines**: per-socket timeouts plus a whole-header
//!   deadline defeat slow-writer (slowloris) clients with `408`.
//! * **Load shedding**: beyond [`ServeConfig::max_connections`]
//!   concurrent connections, new clients are answered `503` with
//!   `Retry-After` and closed — thread growth is bounded.
//! * **Checkpoints are the state**: each committed day writes its atomic
//!   checkpoint (PR 1), a self-checking day log; a kill -9 at any point
//!   leaves every earlier day's checkpoint complete, so a restart loads
//!   them all, in day order, and keeps serving the pre-crash snapshot.
//! * **Retry and quarantine on ingest failure**: failures reuse the
//!   [`IngestError`] taxonomy; every failed file backs off exponentially
//!   and is retried on later scans (a file still being written looks
//!   truncated), then quarantined after the configured retries so one
//!   bad day can never wedge the daemon.
//! * **Graceful drain**: shutdown stops accepting, lets in-flight
//!   responses finish under [`ServeConfig::drain_deadline`], and reports
//!   whether any connection had to be abandoned (the CLI maps that to
//!   its degraded exit code).
//!
//! Endpoints: `/stable/<addr>`, `/classify/<prefix>`, `/stats`,
//! `/healthz`, `/readyz`. Every response body carries the snapshot
//! `generation` and `days` — equal by construction — which the
//! atomicity tests assert on every concurrent read.

use std::collections::BTreeMap;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use v6census_addr::{Addr, Prefix, PrefixLen};
use v6census_core::query::{days_seen, prefix_profile};
use v6census_core::spatial::DensityClass;
use v6census_core::temporal::{Day, StabilityParams};
use v6census_core::vfs::Vfs;

use crate::ingest::{Census, DaySummaryBuilder};
use crate::routing::RoutingTable;
use crate::snapshot::{Snapshot, SnapshotCell};
use crate::stream::{
    checkpoint_day, checkpoint_path, day_files, load_checkpoint, sweep_stale_tmp, FileOutcome,
    FileReport, IngestConfig, IngestError, StreamIngestor,
};

/// The daemon's single monotonic clock read: header deadlines, drain
/// deadlines, and backoff pacing all derive from instants returned here.
#[expect(
    clippy::disallowed_methods,
    reason = "serve needs a monotonic clock for socket/drain deadlines (slowloris defeat, bounded drain); snapshots, response bodies, and equivalence keys never read it"
)]
fn now() -> Instant {
    Instant::now()
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Startup failures of the daemon. Runtime failures never surface here —
/// they are absorbed per connection or per ingest file and counted in
/// [`ServeMetrics`].
#[derive(Debug)]
pub enum ServeError {
    /// The listen address could not be bound.
    Bind {
        /// The requested bind address.
        addr: String,
        /// OS-level detail.
        detail: String,
    },
    /// The state directory could not be created or prepared.
    State {
        /// The offending path.
        path: PathBuf,
        /// OS-level detail.
        detail: String,
    },
    /// A routing-table entry was structurally invalid.
    Routing {
        /// What was wrong.
        detail: String,
    },
    /// A daemon thread could not be spawned.
    Spawn {
        /// Which thread.
        what: &'static str,
        /// OS-level detail.
        detail: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind { addr, detail } => write!(f, "cannot bind {addr}: {detail}"),
            ServeError::State { path, detail } => {
                write!(f, "cannot prepare state dir {}: {detail}", path.display())
            }
            ServeError::Routing { detail } => write!(f, "bad routing table: {detail}"),
            ServeError::Spawn { what, detail } => {
                write!(f, "cannot spawn {what} thread: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Full configuration of the serving daemon.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Directory scanned for day-log files (`YYYY-MM-DD*`).
    pub source_dir: PathBuf,
    /// Directory for the per-day checkpoints; `None` disables crash-safe
    /// persistence (queries still work).
    pub state_dir: Option<PathBuf>,
    /// Listen address, e.g. `127.0.0.1:0` (port 0: OS-assigned).
    pub bind: String,
    /// Concurrent-connection cap; beyond it new clients are shed with
    /// `503` + `Retry-After`.
    pub max_connections: usize,
    /// Per-socket read timeout.
    pub read_timeout: Duration,
    /// Per-socket write timeout.
    pub write_timeout: Duration,
    /// Whole-request-head deadline (defeats slowloris).
    pub header_deadline: Duration,
    /// Hard cap on buffered request bytes; beyond it the client gets
    /// `431` and the connection closes.
    pub max_request_bytes: usize,
    /// How long a graceful drain waits for in-flight responses.
    pub drain_deadline: Duration,
    /// How often the background ingest rescans `source_dir`.
    pub poll_interval: Duration,
    /// Streaming-ingest configuration (error budget, retries, backoff).
    /// `checkpoint_dir` is overridden to `state_dir` at spawn.
    pub ingest: IngestConfig,
    /// nd-stability parameters for the published `stable` set.
    pub params: StabilityParams,
    /// Density class `/classify` profiles report against.
    pub dense_class: DensityClass,
    /// Optional BGP entries for ASN attribution in `/classify`.
    pub routing: Vec<(Prefix, u32)>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            source_dir: PathBuf::from("."),
            state_dir: None,
            bind: "127.0.0.1:0".to_string(),
            max_connections: 64,
            read_timeout: Duration::from_millis(2_000),
            write_timeout: Duration::from_millis(2_000),
            header_deadline: Duration::from_millis(3_000),
            max_request_bytes: 8 * 1024,
            drain_deadline: Duration::from_millis(5_000),
            poll_interval: Duration::from_millis(200),
            ingest: IngestConfig::default(),
            params: StabilityParams::nd(3),
            dense_class: DensityClass::at(8, PrefixLen::lit::<64>()),
            routing: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Declares the serve counters once: the lock-free [`ServeMetrics`],
/// its plain-value [`MetricsReading`] and [`ServeMetrics::read`].
macro_rules! serve_counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Liveness counters, updated lock-free by every thread.
        #[derive(Default)]
        pub struct ServeMetrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// A plain-value reading of [`ServeMetrics`].
        #[derive(Clone, Copy, Debug, Default)]
        pub struct MetricsReading {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl ServeMetrics {
            /// A consistent-enough reading for reports (counters are
            /// independent; exactness across counters is not promised).
            pub fn read(&self) -> MetricsReading {
                MetricsReading {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }
    };
}

serve_counters! {
    /// Connections accepted (including ones later shed).
    accepted,
    /// Requests answered with a 2xx.
    served,
    /// Connections shed with `503` at the cap.
    shed,
    /// Requests rejected as malformed (`400`/`405`).
    malformed,
    /// Requests rejected as oversized (`431`).
    oversized,
    /// Requests that hit the header deadline (`408`).
    timeouts,
    /// Clients that disconnected before completing a request.
    early_disconnects,
    /// Responses dropped because the client went away mid-write
    /// (broken pipe / reset) — logged and dropped, never fatal.
    dropped_responses,
    /// Unknown-route requests (`404`).
    not_found,
    /// Well-routed requests with unparseable operands (`400`).
    bad_queries,
    /// Days committed and published by background ingest.
    ingested_days,
    /// Ingest attempts that failed (each one is retried or quarantined).
    ingest_failures,
    /// Source files quarantined after exhausting retries.
    quarantined_files,
    /// Days restored from their checkpoints at startup.
    resumed_days,
    /// Startup recoveries: unreadable checkpoints skipped (their days
    /// re-ingest from source).
    recovered_errors,
    /// Stale `*.tmp` files deleted by the startup sweep.
    stale_tmp_removed,
}

impl ServeMetrics {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------------

/// What startup restoration accomplished, surfaced on `/healthz` and
/// `/stats` so operators can watch recovery happen.
pub struct RestoreOutcome {
    /// The census of every restored day.
    pub census: Census,
    /// Days restored cleanly from their checkpoints, in day order.
    pub restored: Vec<Day>,
    /// Unreadable checkpoints skipped (their days re-ingest from
    /// source), plus one for an unlistable state directory.
    pub recovered: u64,
    /// Stale `*.tmp` leftovers deleted by the startup sweep.
    pub swept_tmp: u64,
}

/// Restores a census from the checkpoints in `state`. First sweeps and
/// deletes stale `*.tmp` files an aborted atomic write left behind
/// (counted, never silently orphaned), then loads every
/// `ckpt-YYYY-MM-DD.tsv` in day order through [`load_checkpoint`]. A
/// torn or unreadable checkpoint counts one recovery and restores
/// nothing of its day, which re-ingests from source. A missing state
/// directory is a cold start.
pub fn restore_state(fs: &dyn Vfs, state: &Path) -> RestoreOutcome {
    let mut out = RestoreOutcome {
        census: Census::new_empty(),
        restored: Vec::new(),
        recovered: 0,
        swept_tmp: sweep_stale_tmp(fs, state).unwrap_or(0),
    };
    let mut days: Vec<Day> = match fs.read_dir(state) {
        Ok(paths) => paths.iter().filter_map(|p| checkpoint_day(p)).collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(_) => {
            out.recovered = 1;
            Vec::new()
        }
    };
    days.sort();
    for day in days {
        let mut builder = DaySummaryBuilder::default();
        match load_checkpoint(fs, &checkpoint_path(state, day), &mut builder) {
            Ok((ckpt_day, _)) if ckpt_day == day => {
                out.census.ingest_summary(builder.finish(day));
                out.restored.push(day);
            }
            _ => out.recovered += 1,
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Shared daemon state
// ---------------------------------------------------------------------------

struct Shared {
    cfg: ServeConfig,
    cell: SnapshotCell,
    metrics: ServeMetrics,
    shutdown: AtomicBool,
    draining: AtomicBool,
    ready: AtomicBool,
    open: AtomicUsize,
    routing: Option<RoutingTable>,
    /// The generation restored from the checkpoints at startup; 0 means
    /// a cold start (nothing restored — fresh state or full recovery).
    restored_generation: u64,
}

impl Shared {
    fn log(&self, line: &str) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a log line stderr cannot take is dropped; the daemon keeps serving"
        )]
        let _ = writeln!(io::stderr(), "[serve] {line}");
    }
}

/// Decrements the open-connection gauge when a connection thread ends,
/// however it ends.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.open.fetch_sub(1, Ordering::AcqRel);
    }
}

/// What a graceful drain accomplished.
#[derive(Clone, Copy, Debug)]
pub struct DrainReport {
    /// True when every in-flight connection finished before the drain
    /// deadline.
    pub clean: bool,
    /// Connections abandoned at the deadline.
    pub abandoned: usize,
    /// The final published generation.
    pub generation: u64,
    /// Final counters.
    pub metrics: MetricsReading,
}

/// A handle to a running daemon: address discovery, introspection for
/// tests and benches, and graceful shutdown.
pub struct ServeHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    ingest: Option<JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound listen address (port resolved when binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn metrics(&self) -> MetricsReading {
        self.shared.metrics.read()
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared.cell.load()
    }

    /// True once the daemon answers `/readyz` with 200.
    pub fn is_ready(&self) -> bool {
        self.shared.ready.load(Ordering::Acquire)
    }

    /// Graceful drain: stop accepting, wait for in-flight connections
    /// under the drain deadline, stop ingest, and report.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.shutdown.store(true, Ordering::Release);
        let deadline = now() + self.shared.cfg.drain_deadline;
        while self.shared.open.load(Ordering::Acquire) > 0 && now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let abandoned = self.shared.open.load(Ordering::Acquire);
        if let Some(h) = self.accept.take() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "shutdown proceeds whether or not the thread panicked"
            )]
            let _ = h.join();
        }
        if let Some(h) = self.ingest.take() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "shutdown proceeds whether or not the thread panicked"
            )]
            let _ = h.join();
        }
        DrainReport {
            clean: abandoned == 0,
            abandoned,
            generation: self.shared.cell.load().generation,
            metrics: self.shared.metrics.read(),
        }
    }
}

// ---------------------------------------------------------------------------
// Spawn
// ---------------------------------------------------------------------------

/// Starts the daemon: restores the checkpointed state, publishes the
/// initial snapshot, binds the listener, and spawns the accept + ingest
/// threads.
pub fn spawn(mut cfg: ServeConfig) -> Result<ServeHandle, ServeError> {
    let (census, resumed, recovered, swept_tmp) = match &cfg.state_dir {
        None => (Census::new_empty(), 0, 0, 0),
        Some(state) => {
            cfg.ingest
                .vfs
                .create_dir_all(state)
                .map_err(|e| ServeError::State {
                    path: state.clone(),
                    detail: e.to_string(),
                })?;
            cfg.ingest.checkpoint_dir = Some(state.clone());
            let r = restore_state(cfg.ingest.vfs.as_ref(), state);
            (r.census, r.restored.len() as u64, r.recovered, r.swept_tmp)
        }
    };
    let routing = if cfg.routing.is_empty() {
        None
    } else {
        Some(
            RoutingTable::from_entries(cfg.routing.iter().copied()).map_err(|e| {
                ServeError::Routing {
                    detail: e.to_string(),
                }
            })?,
        )
    };
    let initial = Snapshot::build(census.clone(), cfg.params, cfg.dense_class);
    let ready_now = initial.generation > 0;

    let listener = TcpListener::bind(&cfg.bind).map_err(|e| ServeError::Bind {
        addr: cfg.bind.clone(),
        detail: e.to_string(),
    })?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ServeError::Bind {
            addr: cfg.bind.clone(),
            detail: e.to_string(),
        })?;
    let addr = listener.local_addr().map_err(|e| ServeError::Bind {
        addr: cfg.bind.clone(),
        detail: e.to_string(),
    })?;

    let shared = Arc::new(Shared {
        cfg,
        cell: SnapshotCell::new(initial),
        metrics: ServeMetrics::default(),
        shutdown: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        ready: AtomicBool::new(ready_now),
        open: AtomicUsize::new(0),
        routing,
        restored_generation: resumed,
    });
    shared
        .metrics
        .resumed_days
        .store(resumed, Ordering::Relaxed);
    shared
        .metrics
        .recovered_errors
        .store(recovered, Ordering::Relaxed);
    shared
        .metrics
        .stale_tmp_removed
        .store(swept_tmp, Ordering::Relaxed);
    if swept_tmp > 0 {
        shared.log(&format!(
            "startup sweep removed {swept_tmp} stale tmp file(s)"
        ));
    }

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::Builder::new()
        .name("v6c-serve-accept".into())
        .spawn(move || accept_loop(&accept_shared, &listener))
        .map_err(|e| ServeError::Spawn {
            what: "accept",
            detail: e.to_string(),
        })?;

    let ingest_shared = Arc::clone(&shared);
    let ingest = std::thread::Builder::new()
        .name("v6c-serve-ingest".into())
        .spawn(move || ingest_loop(&ingest_shared, census))
        .map_err(|e| ServeError::Spawn {
            what: "ingest",
            detail: e.to_string(),
        })?;

    Ok(ServeHandle {
        addr,
        shared,
        accept: Some(accept),
        ingest: Some(ingest),
    })
}

// ---------------------------------------------------------------------------
// Accept loop + load shedding
// ---------------------------------------------------------------------------

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                ServeMetrics::bump(&shared.metrics.accepted);
                let open = shared.open.load(Ordering::Acquire);
                if open >= shared.cfg.max_connections {
                    shed(shared, stream);
                    continue;
                }
                shared.open.fetch_add(1, Ordering::AcqRel);
                let conn_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("v6c-serve-conn".into())
                    .spawn(move || {
                        let _guard = ConnGuard(Arc::clone(&conn_shared));
                        handle_connection(&conn_shared, stream);
                    });
                if let Err(e) = spawned {
                    // The guard never ran; undo the reservation and shed.
                    shared.open.fetch_sub(1, Ordering::AcqRel);
                    shared.log(&format!("connection thread spawn failed: {e}"));
                    ServeMetrics::bump(&shared.metrics.shed);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                // Transient accept failure (EMFILE under a storm, …):
                // log, breathe, keep serving.
                shared.log(&format!("accept error: {e}"));
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Accept-then-503: the client gets an explicit retry signal instead of
/// a hang or a reset. Runs on the accept thread, so both the write and
/// the lingering close are bounded by short budgets — a hostile shed
/// target can stall accepting for at most ~½ s.
fn shed(shared: &Arc<Shared>, mut stream: TcpStream) {
    ServeMetrics::bump(&shared.metrics.shed);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best effort: a socket option that cannot be set keeps its default, and the deadlines still bound the connection"
    )]
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    if write_response(
        &mut stream,
        503,
        "Service Unavailable",
        Some(1),
        "{\"error\":\"overloaded\"}\n",
    )
    .is_ok()
    {
        drain_then_close(&mut stream, Duration::from_millis(300));
    }
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

enum HeadOutcome {
    Request(String),
    TooLarge,
    TimedOut,
    Disconnected,
    Failed(String),
}

/// Reads one request head under the byte cap and header deadline.
fn read_head(stream: &mut TcpStream, cfg: &ServeConfig) -> HeadOutcome {
    let deadline = now() + cfg.header_deadline;
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut tmp = [0u8; 512];
    loop {
        if buf.len() > cfg.max_request_bytes {
            return HeadOutcome::TooLarge;
        }
        if now() >= deadline {
            return HeadOutcome::TimedOut;
        }
        match stream.read(&mut tmp) {
            Ok(0) => return HeadOutcome::Disconnected,
            Ok(n) => {
                buf.extend_from_slice(tmp.get(..n).unwrap_or(&[]));
                if head_complete(&buf) {
                    return match String::from_utf8(buf) {
                        Ok(text) => HeadOutcome::Request(text),
                        Err(_) => HeadOutcome::Failed("non-utf8 request head".into()),
                    };
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Socket timeout: loop re-checks the overall deadline.
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::ConnectionReset
                    || e.kind() == io::ErrorKind::BrokenPipe =>
            {
                return HeadOutcome::Disconnected;
            }
            Err(e) => return HeadOutcome::Failed(e.to_string()),
        }
    }
}

fn head_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let cfg = &shared.cfg;
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best effort: a socket option that cannot be set keeps its default, and the deadlines still bound the connection"
    )]
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best effort: a socket option that cannot be set keeps its default, and the deadlines still bound the connection"
    )]
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best effort: a socket option that cannot be set keeps its default, and the deadlines still bound the connection"
    )]
    let _ = stream.set_nodelay(true);

    let head = match read_head(&mut stream, cfg) {
        HeadOutcome::Request(text) => text,
        HeadOutcome::TooLarge => {
            ServeMetrics::bump(&shared.metrics.oversized);
            deliver(
                shared,
                &mut stream,
                431,
                "Request Header Fields Too Large",
                None,
                "{\"error\":\"request too large\"}\n",
            );
            return;
        }
        HeadOutcome::TimedOut => {
            ServeMetrics::bump(&shared.metrics.timeouts);
            deliver(
                shared,
                &mut stream,
                408,
                "Request Timeout",
                None,
                "{\"error\":\"request timeout\"}\n",
            );
            return;
        }
        HeadOutcome::Disconnected => {
            ServeMetrics::bump(&shared.metrics.early_disconnects);
            return;
        }
        HeadOutcome::Failed(detail) => {
            ServeMetrics::bump(&shared.metrics.malformed);
            shared.log(&format!("malformed request: {detail}"));
            deliver(
                shared,
                &mut stream,
                400,
                "Bad Request",
                None,
                "{\"error\":\"bad request\"}\n",
            );
            return;
        }
    };

    let Some((method, target)) = parse_request_line(&head) else {
        ServeMetrics::bump(&shared.metrics.malformed);
        deliver(
            shared,
            &mut stream,
            400,
            "Bad Request",
            None,
            "{\"error\":\"bad request line\"}\n",
        );
        return;
    };
    if method != "GET" {
        ServeMetrics::bump(&shared.metrics.malformed);
        deliver(
            shared,
            &mut stream,
            405,
            "Method Not Allowed",
            None,
            "{\"error\":\"only GET\"}\n",
        );
        return;
    }

    let (status, reason, body) = route(shared, target);
    let retry = if status == 503 { Some(1) } else { None };
    if status == 200 {
        ServeMetrics::bump(&shared.metrics.served);
    }
    deliver(shared, &mut stream, status, reason, retry, &body);
}

/// Writes a response; a client that vanished mid-write is logged and
/// dropped per connection — never fatal to the daemon. Ends with a
/// lingering close so the response survives unread input.
fn deliver(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    retry_after: Option<u64>,
    body: &str,
) {
    match write_response(stream, status, reason, retry_after, body) {
        Ok(()) => drain_then_close(stream, Duration::from_millis(1_000)),
        Err(e) => {
            ServeMetrics::bump(&shared.metrics.dropped_responses);
            if e.kind() != io::ErrorKind::BrokenPipe
                && e.kind() != io::ErrorKind::ConnectionReset
                && e.kind() != io::ErrorKind::ConnectionAborted
            {
                shared.log(&format!("response write failed: {e}"));
            }
        }
    }
}

/// Lingering close: half-close the write side, then briefly drain
/// whatever the client is still sending. Closing a socket with unread
/// input makes the kernel answer with RST, which can destroy the final
/// response (a 431 to a client mid-blob, a 503 to an unread request)
/// before the client reads it. The drain buffer is one fixed KiB and the
/// loop is deadline-bounded, so hostile clients cannot pin memory — only
/// at most `budget` of this connection thread's time.
fn drain_then_close(stream: &mut TcpStream, budget: Duration) {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "the peer may already be gone; the connection closes either way"
    )]
    let _ = stream.shutdown(std::net::Shutdown::Write);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best effort: a socket option that cannot be set keeps its default, and the deadlines still bound the connection"
    )]
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let deadline = now() + budget;
    let mut tmp = [0u8; 1024];
    while now() < deadline {
        match stream.read(&mut tmp) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    Some((method, target))
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    retry_after: Option<u64>,
    body: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    if let Some(secs) = retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// A finite rendering of a possibly-degenerate float measurement.
fn fin(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

fn route(shared: &Arc<Shared>, target: &str) -> (u16, &'static str, String) {
    let snapshot = shared.cell.load();
    let gen = snapshot.generation;
    let days = snapshot.days();
    match target {
        "/healthz" => {
            let m = shared.metrics.read();
            let body = format!(
                "{{\"status\":\"ok\",\"generation\":{gen},\"days\":{days},\"open\":{},\"draining\":{},\"resumed\":{},\"served\":{},\"shed\":{},\"quarantined\":{},{}}}\n",
                shared.open.load(Ordering::Acquire),
                shared.draining.load(Ordering::Acquire),
                m.resumed_days,
                m.served,
                m.shed,
                m.quarantined_files,
                restore_json(shared, &m),
            );
            (200, "OK", body)
        }
        "/readyz" => {
            let ready =
                shared.ready.load(Ordering::Acquire) && !shared.draining.load(Ordering::Acquire);
            if ready {
                (
                    200,
                    "OK",
                    format!("{{\"status\":\"ready\",\"generation\":{gen},\"days\":{days}}}\n"),
                )
            } else {
                (
                    503,
                    "Service Unavailable",
                    format!("{{\"status\":\"not-ready\",\"generation\":{gen},\"days\":{days}}}\n"),
                )
            }
        }
        "/stats" => (200, "OK", stats_body(shared, &snapshot)),
        _ => {
            if let Some(raw) = target.strip_prefix("/stable/") {
                return stable_route(shared, &snapshot, raw);
            }
            if let Some(raw) = target.strip_prefix("/classify/") {
                return classify_route(shared, &snapshot, raw);
            }
            ServeMetrics::bump(&shared.metrics.not_found);
            (
                404,
                "Not Found",
                format!("{{\"error\":\"no such route\",\"generation\":{gen},\"days\":{days}}}\n"),
            )
        }
    }
}

/// The last-restore outcome as a JSON fragment (no surrounding braces):
/// whether this process cold-started or resumed a checkpointed generation,
/// plus what recovery had to do to get there.
fn restore_json(shared: &Arc<Shared>, m: &MetricsReading) -> String {
    format!(
        "\"restore\":{{\"restored_generation\":{},\"cold_start\":{},\"recovered\":{},\"stale_tmp_removed\":{}}}",
        shared.restored_generation,
        shared.restored_generation == 0,
        m.recovered_errors,
        m.stale_tmp_removed,
    )
}

fn stats_body(shared: &Arc<Shared>, snapshot: &Snapshot) -> String {
    let gen = snapshot.generation;
    let days = snapshot.days();
    let reference = match snapshot.reference {
        Some(r) => format!("\"{r}\""),
        None => "null".to_string(),
    };
    let schemes: Vec<String> = snapshot
        .stats
        .scheme_counts
        .iter()
        .map(|(label, n)| format!("\"{label}\":{n}"))
        .collect();
    let daily: Vec<String> = snapshot
        .stats
        .daily
        .iter()
        .map(|d| {
            format!(
                "{{\"day\":\"{}\",\"active\":{},\"stable\":{}}}",
                d.day, d.active, d.stable
            )
        })
        .collect();
    let m = shared.metrics.read();
    format!(
        "{{\"generation\":{gen},\"days\":{days},\"reference\":{reference},\"params\":\"{}\",\"active\":{},\"stable\":{},\"quarantined\":{},{},\"schemes\":{{{}}},\"daily\":[{}]}}\n",
        snapshot.params.label(),
        snapshot.active.len(),
        snapshot.stable.len(),
        m.quarantined_files,
        restore_json(shared, &m),
        schemes.join(","),
        daily.join(","),
    )
}

fn stable_route(
    shared: &Arc<Shared>,
    snapshot: &Snapshot,
    raw: &str,
) -> (u16, &'static str, String) {
    let gen = snapshot.generation;
    let days = snapshot.days();
    let Ok(addr) = raw.parse::<Addr>() else {
        ServeMetrics::bump(&shared.metrics.bad_queries);
        return (
            400,
            "Bad Request",
            format!("{{\"error\":\"bad address\",\"generation\":{gen},\"days\":{days}}}\n"),
        );
    };
    let active = snapshot.active.contains(addr);
    let stable = snapshot.stable.contains(addr);
    let seen = days_seen(snapshot.census.other_daily(), addr).len();
    let body = format!(
        "{{\"generation\":{gen},\"days\":{days},\"addr\":\"{addr}\",\"active\":{active},\"stable\":{stable},\"params\":\"{}\",\"days_seen\":{seen}}}\n",
        snapshot.params.label(),
    );
    (200, "OK", body)
}

fn classify_route(
    shared: &Arc<Shared>,
    snapshot: &Snapshot,
    raw: &str,
) -> (u16, &'static str, String) {
    let gen = snapshot.generation;
    let days = snapshot.days();
    let prefix = if raw.contains('/') {
        Prefix::from_str_lossy(raw).ok()
    } else {
        raw.parse::<Addr>().ok().map(Prefix::host)
    };
    let Some(prefix) = prefix else {
        ServeMetrics::bump(&shared.metrics.bad_queries);
        return (
            400,
            "Bad Request",
            format!("{{\"error\":\"bad prefix\",\"generation\":{gen},\"days\":{days}}}\n"),
        );
    };
    let profile = prefix_profile(&snapshot.active, prefix, snapshot.dense_class);
    let flatline = match profile.signature.flatline_at {
        Some(bit) => bit.to_string(),
        None => "null".to_string(),
    };
    let asn = match shared
        .routing
        .as_ref()
        .and_then(|t| t.asn_of(prefix.addr()))
    {
        Some(asn) => asn.to_string(),
        None => "null".to_string(),
    };
    let body = format!(
        "{{\"generation\":{gen},\"days\":{days},\"prefix\":\"{prefix}\",\"members\":{},\"privacy\":{},\"signature\":{{\"iid_head_ratio\":{:.4},\"u_bit_ratio\":{:.4},\"flatline_at\":{flatline}}},\"tail_prominence\":{:.4},\"common_prefix_len\":{},\"dense\":{{\"class\":\"{}\",\"prefixes\":{},\"members\":{}}},\"asn\":{asn}}}\n",
        profile.members,
        profile.privacy,
        fin(profile.signature.iid_head_ratio),
        fin(profile.signature.u_bit_ratio),
        fin(profile.tail_prominence),
        profile.common_prefix_len,
        snapshot.dense_class,
        profile.dense_prefixes,
        profile.dense_members,
    );
    (200, "OK", body)
}

// ---------------------------------------------------------------------------
// Background ingest
// ---------------------------------------------------------------------------

/// Sleeps up to `total`, in slices, returning early on shutdown.
fn nap(shared: &Arc<Shared>, total: Duration) {
    let deadline = now() + total;
    while now() < deadline {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn ingest_loop(shared: &Arc<Shared>, mut census: Census) {
    // Per-file failure counts; a file past `max_retries` is quarantined.
    let mut failures: BTreeMap<PathBuf, u32> = BTreeMap::new();
    let max_retries = shared.cfg.ingest.max_retries;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // An unreadable source dir is an empty scan; the next poll retries.
        let mut pending =
            day_files(shared.cfg.ingest.vfs.as_ref(), &shared.cfg.source_dir).unwrap_or_default();
        pending.retain(|(day, path)| {
            !census.has_day(*day) && failures.get(path).copied().unwrap_or(0) <= max_retries
        });
        let mut backoff_after_error = false;
        for (day, path) in pending {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let prev = shared.cell.load();
            let failure = match land_day(&shared.cfg, &path, &mut census, &prev) {
                Ok((_, Some(next))) => {
                    failures.remove(&path);
                    let generation = shared.cell.publish(next);
                    ServeMetrics::bump(&shared.metrics.ingested_days);
                    shared.ready.store(true, Ordering::Release);
                    shared.log(&format!(
                        "ingested {day}, published generation {generation}"
                    ));
                    continue;
                }
                Ok((report, None)) => report
                    .errors
                    .last()
                    .map(|e| format!("[{}] {e}", e.label()))
                    .unwrap_or_default(),
                Err(e) => format!("[{}] {e}", e.label()),
            };
            // One failure policy: a file that did not land (bad budget,
            // truncated — as a file still being written looks — or a
            // typed I/O or strict-mode error) is retried with
            // exponential backoff across scan rounds, then quarantined.
            ServeMetrics::bump(&shared.metrics.ingest_failures);
            let n = failures.entry(path.clone()).or_insert(0);
            *n += 1;
            let attempts = *n;
            shared.log(&format!(
                "ingest of {} failed (attempt {attempts}): {failure}",
                path.display(),
            ));
            if attempts > max_retries {
                ServeMetrics::bump(&shared.metrics.quarantined_files);
                shared.log(&format!("quarantined {}", path.display()));
            } else {
                let backoff = shared
                    .cfg
                    .ingest
                    .retry_backoff
                    .saturating_mul(2u32.saturating_pow(attempts.min(6)));
                nap(shared, backoff);
            }
            backoff_after_error = true;
            break;
        }
        // First full scan done (even over an empty dir): the daemon has
        // seen everything there is; it is as ready as it will get.
        shared.ready.store(true, Ordering::Release);
        if !backoff_after_error {
            nap(shared, shared.cfg.poll_interval);
        }
    }
}

/// Lands one day file: parse → commit (and its checkpoint) → next
/// snapshot, advanced from `prev` (the snapshot of `census` before this
/// day). The one landing step, shared by the daemon's ingest loop and
/// the crash explorer. Serve keeps no list of committed days: the census
/// is the record, and on disk the checkpoint set is.
///
/// `Ok((report, Some(snapshot)))`: the day entered the census.
/// `Ok((report, None))`: the file is structurally bad (budget,
/// truncation, duplicate) and was *not* committed. `Err`: a typed
/// failure (I/O, strict mode).
pub(crate) fn land_day(
    cfg: &ServeConfig,
    path: &Path,
    census: &mut Census,
    prev: &Snapshot,
) -> Result<(FileReport, Option<Snapshot>), IngestError> {
    let ingestor = StreamIngestor::new(cfg.ingest.clone());
    let parsed = ingestor.parse_file(path)?;
    let report = ingestor.commit_parsed(parsed, census, &mut Vec::new())?;
    if !matches!(
        report.outcome,
        FileOutcome::Ingested | FileOutcome::FromCheckpoint
    ) {
        return Ok((report, None));
    }
    Ok((report, Some(prev.advance(census.clone()))))
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::disallowed_methods,
        clippy::let_underscore_must_use,
        reason = "tests build their fixtures with std::fs and clean up best-effort"
    )]
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("v6census-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    use v6census_core::vfs::RealFs;

    #[test]
    fn restore_skips_missing_checkpoints_and_sweeps_tmp() {
        let dir = tempdir("restore");
        let d0 = Day::from_ymd(2015, 3, 17);
        let addr: Addr = "2001:db8::1".parse().unwrap();
        // Written out of day order; restore reads them in day order.
        for day in [d0 + 5, d0, d0 + 2] {
            crate::stream::write_checkpoint(&RealFs, &dir, day, &[(addr, 3)]).unwrap();
        }
        // d0+1's checkpoint is torn (its trailer is missing), an aborted
        // atomic write left a stale tmp file behind, and a file that
        // names no calendar day is not a checkpoint.
        std::fs::write(
            checkpoint_path(&dir, d0 + 1),
            "# synthetic day 2015-03-18: 1 unique client addrs\n2001:db8::1\t3\n",
        )
        .unwrap();
        std::fs::write(dir.join(".ckpt-2015-03-19.tsv.tmp"), "torn").unwrap();
        std::fs::write(dir.join("ckpt-2015-02-30.tsv"), "not a day").unwrap();
        let out = restore_state(&RealFs, &dir);
        assert_eq!(out.restored, vec![d0, d0 + 2, d0 + 5]);
        assert_eq!(out.recovered, 1);
        assert_eq!(out.swept_tmp, 1);
        assert!(!dir.join(".ckpt-2015-03-19.tsv.tmp").exists());
        assert!(out.census.has_day(d0));
        assert!(!out.census.has_day(d0 + 1));
        assert_eq!(
            out.census
                .summaries()
                .iter()
                .map(|s| s.day)
                .collect::<Vec<_>>(),
            vec![d0, d0 + 2, d0 + 5]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_header_is_bad_checkpoint_not_a_panic() {
        use v6census_core::vfs::MemFs;
        let state = PathBuf::from("/state");
        let d0 = Day::from_ymd(2015, 3, 17);
        let huge = usize::MAX;
        // A retired v1 checkpoint and a day-log one, each declaring
        // 18446744073709551615 entries.
        for text in [
            format!("# v6census checkpoint v1 {d0} {huge} 0\n# end\n"),
            format!("# synthetic day {d0}: {huge} unique client addrs\n# end 0 0\n"),
        ] {
            let fs = MemFs::new();
            fs.create_dir_all(&state).unwrap();
            fs.write_atomic(&checkpoint_path(&state, d0), text.as_bytes())
                .unwrap();
            let err =
                load_checkpoint(&fs, &checkpoint_path(&state, d0), &mut Vec::new()).unwrap_err();
            assert_eq!(err.label(), "bad-checkpoint", "{text}");
            let out = restore_state(&fs, &state);
            assert_eq!(out.restored, Vec::new());
            assert_eq!(out.recovered, 1);
        }
    }

    #[test]
    fn late_day_lands_as_out_of_order() {
        use crate::stream::ErrorMode;
        use v6census_core::vfs::MemFs;
        use v6census_synth::{world::epochs, World, WorldConfig};
        let fs = Arc::new(MemFs::new());
        let world = World::standard(WorldConfig {
            seed: 5,
            scale: 0.001,
        });
        let d = epochs::mar2015();
        let paths = world
            .emit_day_logs(fs.as_ref(), Path::new("/src"), d, 2)
            .unwrap();
        for mode in [ErrorMode::Lenient, ErrorMode::Strict] {
            let cfg = ServeConfig {
                ingest: IngestConfig {
                    mode,
                    vfs: fs.clone(),
                    ..IngestConfig::default()
                },
                ..ServeConfig::default()
            };
            let mut census = Census::new_empty();
            let empty = Snapshot::build(Census::new_empty(), cfg.params, cfg.dense_class);
            let (_, next) = land_day(&cfg, &paths[1], &mut census, &empty).unwrap();
            let Some(first) = next else {
                panic!("day d+1 lands first")
            };
            let late = land_day(&cfg, &paths[0], &mut census, &first);
            if mode == ErrorMode::Strict {
                assert_eq!(late.err().map(|e| e.label()), Some("out-of-order-day"));
                assert!(!census.has_day(d));
                continue;
            }
            // Lenient: late data is still data — committed, anomaly recorded.
            let (report, next) = late.unwrap();
            assert_eq!(report.outcome, FileOutcome::Ingested);
            assert!(matches!(
                report.errors.as_slice(),
                [IngestError::OutOfOrderDay { day, after }] if *day == d && *after == d + 1
            ));
            assert_eq!(next.map(|snapshot| snapshot.generation), Some(2));
            assert!(census.has_day(d + 1) && census.has_day(d));
        }
    }

    #[test]
    fn late_day_is_judged_alike_live_and_restarted() {
        use v6census_core::vfs::MemFs;
        use v6census_synth::{world::epochs, World, WorldConfig};
        let fs = Arc::new(MemFs::new());
        let world = World::standard(WorldConfig {
            seed: 5,
            scale: 0.001,
        });
        let d = epochs::mar2015();
        let paths = world
            .emit_day_logs(fs.as_ref(), Path::new("/src"), d, 6)
            .unwrap();
        let state = PathBuf::from("/state");
        let config = |fs: &Arc<MemFs>| ServeConfig {
            ingest: IngestConfig {
                checkpoint_dir: Some(state.clone()),
                vfs: fs.clone(),
                ..IngestConfig::default()
            },
            ..ServeConfig::default()
        };
        // The live daemon lands d, d+5, then d+2.
        let live = config(&fs);
        let mut live_census = Census::new_empty();
        let mut live_prev = Snapshot::build(Census::new_empty(), live.params, live.dense_class);
        for i in [0, 5, 2] {
            let (_, next) = land_day(&live, &paths[i], &mut live_census, &live_prev).unwrap();
            live_prev = next.expect("the day lands");
        }
        // A daemon restarted from those checkpoints gets the same days
        // back, in day order.
        let fs = Arc::new(MemFs::from_durable(fs.durable_files(), fs.durable_dirs()));
        let restarted = config(&fs);
        let restore = restore_state(fs.as_ref(), &state);
        assert_eq!(restore.restored, vec![d, d + 2, d + 5]);
        let mut census = restore.census;
        let prev = Snapshot::build(census.clone(), restarted.params, restarted.dense_class);
        // Both judge d+3 against d+5, the latest day in the census.
        for (cfg, census, prev) in [
            (&live, &mut live_census, &live_prev),
            (&restarted, &mut census, &prev),
        ] {
            let (report, next) = land_day(cfg, &paths[3], census, prev).unwrap();
            assert!(
                matches!(
                    report.errors.as_slice(),
                    [IngestError::OutOfOrderDay { day, after }] if *day == d + 3 && *after == d + 5
                ),
                "{:?}",
                report.errors
            );
            assert_eq!(next.map(|snapshot| snapshot.generation), Some(4));
        }
    }

    #[test]
    fn head_completion_and_request_line() {
        assert!(head_complete(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(head_complete(b"GET / HTTP/1.1\n\n"));
        assert!(!head_complete(b"GET / HTTP/1.1\r\n"));
        assert_eq!(
            parse_request_line("GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("GET", "/stats"))
        );
        assert_eq!(parse_request_line("FLOOP\r\n\r\n"), None);
        assert_eq!(parse_request_line("GET /stats SMTP/1.0\r\n\r\n"), None);
    }
}
