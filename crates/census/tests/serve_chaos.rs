//! The serve chaos matrix: one drill per hostility kind, selectable
//! with the `V6CENSUS_CHAOS_KIND` environment variable so CI can run
//! each kind as its own job under a hard timeout. With the variable
//! unset, every kind runs in sequence.
//!
//! Every drill asserts the same contract: the daemon never panics,
//! never serves a torn snapshot (`generation == days` on every control
//! read), keeps per-connection memory bounded, and is still answering
//! well-formed queries after the abuse stops.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use v6census_census::serve::{spawn, ServeConfig, ServeHandle};
use v6census_census::snapshot::Snapshot;
use v6census_synth::chaos::{http_get, ChaosClient, ChaosKind};
use v6census_synth::faults::day_file_name;
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

/// One drill. Every arm must leave the daemon serving and drain clean.
fn drill(kind: &str) {
    match kind {
        // Garbage requests and heads cut off mid-line: controlled 4xx
        // per offender, zero effect on the control client.
        "malformed" => {
            let (handle, source) = launch("malformed", |_| {});
            let addr = handle.addr();
            let chaos = ChaosClient::new(0xc4a0);
            for salt in 0..8 {
                let hit = chaos.strike(addr, ChaosKind::Malformed, salt);
                assert!(hit.connected);
                assert!(
                    hit.status.is_none() || hit.status == Some(400),
                    "garbage must draw 400 or a close, got {:?}",
                    hit.status
                );
                let cut = chaos.strike(addr, ChaosKind::Truncated, salt);
                assert!(
                    cut.connected && cut.finished,
                    "server left a half-request hanging"
                );
                assert_healthy(addr);
            }
            let report = handle.shutdown();
            assert!(report.clean);
            assert!(
                report.metrics.malformed + report.metrics.early_disconnects >= 8,
                "abuse went uncounted: {:?}",
                report.metrics
            );
            let _ = std::fs::remove_dir_all(&source);
        }
        // Slow-dripped headers hit the header deadline (408/close);
        // unbounded headers hit the byte cap (431). Memory stays capped.
        "slowclient" => {
            let (handle, source) = launch("slowclient", |cfg| {
                cfg.header_deadline = Duration::from_millis(300);
                cfg.read_timeout = Duration::from_millis(100);
                cfg.max_request_bytes = 2 * 1024;
            });
            let addr = handle.addr();
            let chaos = ChaosClient::new(0x510e);
            let slow = chaos.strike(
                addr,
                ChaosKind::Slowloris {
                    pause: Duration::from_millis(25),
                    bytes: 200,
                },
                0,
            );
            assert!(slow.connected);
            // The 300ms deadline cuts the drip long before its 200 bytes
            // land; whether the client still catches the 408 depends on
            // RST timing, so the server-side `timeouts` metric below is
            // the authoritative check.
            assert!(
                slow.sent < 200,
                "server serviced the whole drip: slowloris not cut off"
            );
            if let Some(code) = slow.status {
                assert_eq!(code, 408, "slowloris must draw 408 if anything");
            }
            let big = chaos.strike(addr, ChaosKind::Oversized { limit: 1024 * 1024 }, 0);
            assert!(big.connected && big.finished);
            assert_eq!(big.status, Some(431), "oversized head must draw 431");
            assert_healthy(addr);
            let report = handle.shutdown();
            assert!(report.clean);
            assert!(report.metrics.timeouts >= 1, "{:?}", report.metrics);
            assert!(report.metrics.oversized >= 1, "{:?}", report.metrics);
            let _ = std::fs::remove_dir_all(&source);
        }
        // Past the connection cap the daemon sheds with 503+Retry-After
        // instead of queueing without bound — and recovers the moment
        // the holders go away.
        "storm" => {
            let (handle, source) = launch("storm", |cfg| {
                cfg.max_connections = 4;
                cfg.read_timeout = Duration::from_millis(400);
                cfg.header_deadline = Duration::from_millis(2_000);
            });
            let addr = handle.addr();
            // Occupy every slot with half-open requests…
            let holders: Vec<TcpStream> = (0..4)
                .map(|_| {
                    let mut s = TcpStream::connect(addr).unwrap();
                    s.write_all(b"GET /stats HTTP/1.1\r\n").unwrap();
                    s
                })
                .collect();
            std::thread::sleep(Duration::from_millis(100));
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
            let report = handle.shutdown();
            assert!(report.metrics.shed >= 1, "{:?}", report.metrics);
            let _ = std::fs::remove_dir_all(&source);
        }
        // Clients that vanish mid-exchange: before the response, during
        // the response. Logged-and-dropped per connection, never fatal.
        "disconnect" => {
            let (handle, source) = launch("disconnect", |cfg| {
                cfg.read_timeout = Duration::from_millis(100);
            });
            let addr = handle.addr();
            let chaos = ChaosClient::new(0xd15c);
            for salt in 0..8 {
                let hit = chaos.strike(addr, ChaosKind::Disconnect, salt);
                assert!(hit.connected && hit.finished);
                assert_healthy(addr);
            }
            let report = handle.shutdown();
            assert!(report.clean);
            let _ = std::fs::remove_dir_all(&source);
        }
        // Faulted day files arriving during live queries: corrupt and
        // truncated days are quarantined (error budget / integrity
        // trailer), clean days keep publishing, and the control client
        // never sees a torn generation. A clean redelivery of the
        // truncated day then lands late, into the gap it left; after
        // it and after the last landing, the published snapshot equals
        // a from-scratch build of the daemon's census.
        "ingestfaults" => {
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
        other => panic!("unknown V6CENSUS_CHAOS_KIND {other:?}"),
    }
}

const ALL: &[&str] = &[
    "malformed",
    "slowclient",
    "storm",
    "disconnect",
    "ingestfaults",
];

#[test]
fn chaos_matrix() {
    match std::env::var("V6CENSUS_CHAOS_KIND") {
        Ok(kind) => drill(&kind),
        Err(_) => {
            for kind in ALL {
                drill(kind);
            }
        }
    }
}
