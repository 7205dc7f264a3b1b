//! The serve chaos drills: one test per hostility kind, each against
//! a live daemon while a well-formed control client queries it.
//!
//! Every drill asserts the same contract: the daemon never panics,
//! never serves a torn snapshot (`generation == days` on every control
//! read), keeps per-connection memory bounded, counts the abuse, and is
//! still answering well-formed queries after the abuse stops.

#![allow(
    clippy::disallowed_methods,
    clippy::let_underscore_must_use,
    reason = "the drills build their fixtures with std::fs, and a hostile client's socket I/O is best effort"
)]

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use v6census_census::serve::{spawn, ServeConfig, ServeHandle};
use v6census_census::snapshot::Snapshot;
use v6census_synth::chaos::http_get;
use v6census_synth::faults::day_file_name;
use v6census_synth::rng::Entropy;
use v6census_synth::world::epochs;
use v6census_synth::{Fault, FaultInjector, World, WorldConfig};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("v6census-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn world() -> World {
    World::standard(WorldConfig {
        seed: 43,
        scale: 0.002,
    })
}

fn write_day(dir: &Path, w: &World, offset: i32) {
    let day = epochs::mar2015() + offset;
    std::fs::write(dir.join(day_file_name(day)), w.day_log(day).to_text()).unwrap();
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    http_get(addr, path, Duration::from_secs(5)).expect("daemon must answer")
}

fn field_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key} in {body}"))
}

/// The control probe every drill interleaves with its abuse: a
/// well-formed query that must come back 200 and internally consistent.
fn assert_healthy(addr: SocketAddr) -> u64 {
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200, "control query failed: {body}");
    let gen = field_u64(&body, "generation");
    assert_eq!(gen, field_u64(&body, "days"), "torn snapshot: {body}");
    gen
}

fn wait_for_generation(addr: SocketAddr, want: u64) {
    for _ in 0..600 {
        let (_, body) = get(addr, "/healthz");
        if field_u64(&body, "generation") >= want {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never reached generation {want}");
}

fn launch(tag: &str, cfg_tune: impl FnOnce(&mut ServeConfig)) -> (ServeHandle, PathBuf) {
    let source = tempdir(tag);
    let w = world();
    write_day(&source, &w, 0);
    write_day(&source, &w, 1);
    let mut cfg = ServeConfig {
        source_dir: source.clone(),
        poll_interval: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    cfg_tune(&mut cfg);
    let handle = spawn(cfg).unwrap();
    wait_for_generation(handle.addr(), 2);
    (handle, source)
}

/// The daemon's live snapshot, advanced landing by landing, answers
/// every query as a from-scratch build of its census does.
fn assert_live_snapshot_is_built(handle: &ServeHandle, generation: u64) {
    let live = handle.snapshot();
    assert_eq!(live.generation, generation);
    let built = Snapshot::build(live.census.clone(), live.params, live.dense_class);
    assert!(
        live.same_products(&built),
        "generation {generation}: the published snapshot differs from a build of its census"
    );
}

// ---------------------------------------------------------------------------
// Hostile clients
// ---------------------------------------------------------------------------

/// One species of hostile client behaviour.
#[derive(Clone, Copy)]
enum ChaosKind {
    /// Sends seeded garbage bytes (not HTTP) and reads the reply.
    Malformed,
    /// Sends a request head cut off mid-line, then half-closes.
    Truncated,
    /// Sends a well-formed request and disconnects without reading.
    Disconnect,
    /// Drips a valid header one byte at a time with pauses — the
    /// slowloris shape; a robust server answers 408 or closes.
    Slowloris { pause: Duration, bytes: usize },
    /// Sends an endless header until the server caps it (431) or closes.
    Oversized { limit: usize },
}

/// What one hostile act observed.
#[derive(Default)]
struct ChaosOutcome {
    /// The connection was established.
    connected: bool,
    /// Bytes the client managed to send.
    sent: usize,
    /// HTTP status parsed from the reply, when one arrived.
    status: Option<u16>,
    /// The server closed (or the act finished) within the client's own
    /// deadline — false means the server left the client hanging.
    finished: bool,
}

/// Reads a reply to end-of-stream (bounded) and parses the status line.
fn read_status(stream: &mut TcpStream) -> (Option<u16>, bool) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(5_000)));
    let mut buf = Vec::with_capacity(512);
    let mut tmp = [0u8; 512];
    let finished = loop {
        match stream.read(&mut tmp) {
            Ok(0) => break true,
            Ok(n) if buf.len() < 64 * 1024 => buf.extend_from_slice(&tmp[..n]),
            Ok(_) => {} // drain without buffering
            Err(_) => break false,
        }
    };
    let text = String::from_utf8_lossy(&buf);
    let status = text
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok());
    (status, finished)
}

/// Writes as much of `bytes` as the peer accepts; hostile clients don't
/// care whether the write fully lands.
fn write_some(stream: &mut TcpStream, bytes: &[u8]) -> usize {
    match stream.write_all(bytes) {
        Ok(()) => bytes.len(),
        Err(_) => 0,
    }
}

/// Performs one hostile act against `addr`. Every byte sent derives
/// from `(seed, salt)`, so a failing drill reproduces bit for bit.
fn strike(seed: u64, addr: SocketAddr, kind: ChaosKind, salt: u64) -> ChaosOutcome {
    let ent = Entropy::new(seed);
    let mut out = ChaosOutcome::default();
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(2_000)) else {
        return out;
    };
    out.connected = true;
    let _ = stream.set_write_timeout(Some(Duration::from_millis(2_000)));
    let _ = stream.set_nodelay(true);
    match kind {
        ChaosKind::Malformed => {
            let mut garbage: Vec<u8> = (0..64u64)
                .map(|i| (ent.u64(b"chga", &[salt, i]) & 0xff) as u8)
                // Keep newlines possible so the head can "complete" into
                // a garbage request line.
                .map(|b| if b == 0 { b'\n' } else { b })
                .collect();
            garbage.extend_from_slice(b"\r\n\r\n");
            out.sent = write_some(&mut stream, &garbage);
        }
        ChaosKind::Truncated => {
            let cut = 3 + (ent.u64(b"chcu", &[salt]) % 14) as usize;
            let req = b"GET /stats HTTP/1.1\r\nHost: chaos\r\n\r\n";
            out.sent = write_some(&mut stream, &req[..cut.min(req.len())]);
            // Half-close the write side: the server sees EOF mid-head.
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
        ChaosKind::Disconnect => {
            out.sent = write_some(&mut stream, b"GET /stats HTTP/1.1\r\nHost: chaos\r\n\r\n");
            // Drop without reading: the server's write hits a closed
            // peer (EPIPE/ECONNRESET territory).
            out.finished = true;
            return out;
        }
        ChaosKind::Slowloris { pause, bytes } => {
            let req = b"GET /stats HTTP/1.1\r\nX-Drip: ";
            for i in 0..bytes {
                if stream.write_all(&[*req.get(i).unwrap_or(&b'a')]).is_err() {
                    break; // the server gave up on us: the point
                }
                out.sent += 1;
                std::thread::sleep(pause);
            }
        }
        ChaosKind::Oversized { limit } => {
            out.sent = write_some(&mut stream, b"GET /stats HTTP/1.1\r\n");
            let line = [&b"X-Pad: "[..], &[b'x'; 256], b"\r\n"].concat();
            while out.sent < limit && stream.write_all(&line).is_ok() {
                out.sent += line.len();
            }
        }
    }
    (out.status, out.finished) = read_status(&mut stream);
    out
}

/// Sends `head` as one request and returns the status of the reply.
fn send_head(addr: SocketAddr, head: &[u8]) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.write_all(head).ok()?;
    read_status(&mut stream).0
}

// ---------------------------------------------------------------------------
// The drills
// ---------------------------------------------------------------------------

/// Garbage requests, heads cut off mid-line, request lines that do not
/// parse, and clients that vanish before the response: a controlled
/// 400 or close per offender, each counted, and no effect on the
/// control client.
#[test]
fn hostile_heads_are_answered_and_counted() {
    let (handle, source) = launch("hostile", |cfg| {
        cfg.read_timeout = Duration::from_millis(100);
    });
    let addr = handle.addr();
    let post = send_head(addr, b"POST /stats HTTP/1.1\r\n\r\n");
    assert_eq!(post, Some(405), "only GET is served");
    for salt in 0..8 {
        let hit = strike(0xc4a0, addr, ChaosKind::Malformed, salt);
        assert!(hit.connected);
        assert!(
            hit.status.is_none() || hit.status == Some(400),
            "garbage must draw 400 or a close, got {:?}",
            hit.status
        );
        let line = format!("FLOOP{salt} /stats\r\n\r\n");
        assert_eq!(send_head(addr, line.as_bytes()), Some(400), "{line:?}");
        let cut = strike(0xc4a0, addr, ChaosKind::Truncated, salt);
        assert!(
            cut.connected && cut.finished,
            "server left a half-request hanging"
        );
        let gone = strike(0xd15c, addr, ChaosKind::Disconnect, salt);
        assert!(gone.connected && gone.finished);
        assert_healthy(addr);
    }
    // Each truncated head is one early disconnect; the POST, the
    // garbage and the bad request lines are the malformed ones.
    let metrics = handle.metrics();
    assert_eq!(metrics.early_disconnects, 8, "{metrics:?}");
    assert_eq!(metrics.malformed, 17, "{metrics:?}");
    let report = handle.shutdown();
    assert!(report.clean);
    let _ = std::fs::remove_dir_all(&source);
}

/// Slow-dripped headers hit the header deadline (408/close); unbounded
/// headers hit the byte cap (431). Memory stays capped.
#[test]
fn slow_and_oversized_heads_are_cut_off() {
    let (handle, source) = launch("slowclient", |cfg| {
        cfg.header_deadline = Duration::from_millis(300);
        cfg.read_timeout = Duration::from_millis(100);
        cfg.max_request_bytes = 2 * 1024;
    });
    let addr = handle.addr();
    let drip = ChaosKind::Slowloris {
        pause: Duration::from_millis(25),
        bytes: 200,
    };
    let slow = strike(0x510e, addr, drip, 0);
    assert!(slow.connected);
    // The 300ms deadline cuts the drip long before its 200 bytes land;
    // whether the client still catches the 408 depends on RST timing,
    // so the server-side `timeouts` metric below is the authoritative
    // check.
    assert!(
        slow.sent < 200,
        "server serviced the whole drip: slowloris not cut off"
    );
    if let Some(code) = slow.status {
        assert_eq!(code, 408, "slowloris must draw 408 if anything");
    }
    let big = strike(0x510e, addr, ChaosKind::Oversized { limit: 1024 * 1024 }, 0);
    assert!(big.connected && big.finished);
    assert_eq!(big.status, Some(431), "oversized head must draw 431");
    assert_healthy(addr);
    let report = handle.shutdown();
    assert!(report.clean);
    assert!(report.metrics.timeouts >= 1, "{:?}", report.metrics);
    assert!(report.metrics.oversized >= 1, "{:?}", report.metrics);
    let _ = std::fs::remove_dir_all(&source);
}

/// Past the connection cap the daemon sheds with 503+Retry-After
/// instead of queueing without bound — and recovers the moment the
/// holders go away. Its drain then waits for a request in flight, and
/// abandons one that outlives the drain deadline.
#[test]
fn a_connection_storm_is_shed_then_served() {
    let (handle, source) = launch("storm", |cfg| {
        cfg.max_connections = 4;
        cfg.read_timeout = Duration::from_millis(400);
        // The held slots must outlast the burst and the drain even on
        // a loaded machine.
        cfg.header_deadline = Duration::from_secs(10);
        cfg.drain_deadline = Duration::from_secs(3);
    });
    let addr = handle.addr();
    // Occupy every slot with half-open requests… A connection of the
    // launch's polls may still hold a slot, so a holder that draws a
    // 503 (anything to read) was shed and does not count.
    let mut holders: Vec<TcpStream> = Vec::new();
    for _ in 0..16 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /stats HTTP/1.1\r\n").unwrap();
        s.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        if s.read(&mut [0u8; 1]).is_err() {
            holders.push(s);
        }
        if holders.len() == 4 {
            break;
        }
    }
    assert_eq!(holders.len(), 4, "four slots held");
    // …then a burst of well-formed clients: every one must get a
    // *prompt* answer, and sheds must be explicit 503s.
    let mut shed = 0;
    for _ in 0..8 {
        let (status, body) = get(addr, "/healthz");
        match status {
            200 => {
                assert_eq!(field_u64(&body, "generation"), field_u64(&body, "days"));
            }
            503 => shed += 1,
            other => panic!("storm drew {other}: {body}"),
        }
    }
    assert!(shed >= 1, "cap of 4 with 4 held slots must shed");
    drop(holders);
    // Recovery: holders gone (their reads time out), service resumes.
    for _ in 0..100 {
        if http_get(addr, "/stats", Duration::from_secs(2))
            .map(|(s, _)| s == 200)
            .unwrap_or(false)
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_healthy(addr);

    // Two requests in flight as the drain starts: one completes 200 ms
    // in, and `/readyz` answers it 503; the other never completes.
    let mut late = TcpStream::connect(addr).unwrap();
    late.write_all(b"GET /readyz HTTP/1.1\r\n").unwrap();
    let mut stuck = TcpStream::connect(addr).unwrap();
    stuck.write_all(b"GET /stats HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let finish = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        late.write_all(b"\r\n").unwrap();
        read_status(&mut late).0
    });
    let report = handle.shutdown();
    assert_eq!(finish.join().unwrap(), Some(503), "/readyz while draining");
    assert_eq!((report.clean, report.abandoned), (false, 1), "{report:?}");
    assert!(report.metrics.shed >= 1, "{:?}", report.metrics);
    drop(stuck);
    let _ = std::fs::remove_dir_all(&source);
}

/// Faulted day files arriving during live queries: corrupt and
/// truncated days are quarantined (error budget / integrity trailer),
/// clean days keep publishing, and the control client never sees a
/// torn generation. A clean redelivery of the truncated day then lands
/// late, into the gap it left; after it and after the last landing, the
/// published snapshot equals a from-scratch build of the daemon's
/// census.
#[test]
fn faulty_day_files_are_quarantined_while_serving() {
    let (handle, source) = launch("ingestfaults", |cfg| {
        // Fast retry exhaustion so quarantine happens in-test.
        cfg.ingest.max_retries = 1;
        cfg.ingest.retry_backoff = Duration::from_millis(5);
    });
    let addr = handle.addr();
    let base = assert_healthy(addr);
    assert_eq!(base, 2);
    // Drop faulted files for days 2 and 3 into the live source.
    let w = world();
    let d0 = epochs::mar2015();
    let inj = FaultInjector::new(0xfa57);
    for (offset, fault) in [
        (2, Fault::CorruptLines { count: 100_000 }),
        (3, Fault::Truncate { keep_pct: 40 }),
    ] {
        let day = d0 + offset;
        let text = inj
            .apply(day, &w.day_log(day).to_text(), &fault)
            .expect("fault produces a file");
        std::fs::write(source.join(day_file_name(day)), text).unwrap();
    }
    // While the daemon chews on the poison, hammer the controls.
    for _ in 0..20 {
        assert_healthy(addr);
        std::thread::sleep(Duration::from_millis(10));
    }
    // A clean later day must still get through.
    write_day(&source, &w, 4);
    wait_for_generation(addr, 3);
    let gen = assert_healthy(addr);
    assert_eq!(gen, 3, "two clean days + the late one, poison excluded");
    assert_live_snapshot_is_built(&handle, 3);
    let redelivered = format!("{}.redelivered.log", d0 + 3);
    std::fs::write(source.join(redelivered), w.day_log(d0 + 3).to_text()).unwrap();
    wait_for_generation(addr, 4);
    assert_eq!(
        handle.snapshot().reference,
        Some(d0 + 4),
        "day 3 landed late"
    );
    assert_live_snapshot_is_built(&handle, 4);
    write_day(&source, &w, 5);
    wait_for_generation(addr, 5);
    assert_eq!(assert_healthy(addr), 5);
    assert_live_snapshot_is_built(&handle, 5);
    let report = handle.shutdown();
    assert!(report.clean);
    assert!(
        report.metrics.quarantined_files >= 2,
        "poisoned files must be quarantined: {:?}",
        report.metrics
    );
    assert_eq!(report.metrics.ingested_days, 5);
    let _ = std::fs::remove_dir_all(&source);
}
