//! The serve query mix: targets drawn from the data with the workload
//! seed, the answers `core::query` gives for them on a snapshot, an HTTP
//! client that times each phase of a request, and the open-loop load
//! generator.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use v6census_addr::{Addr, Prefix};
use v6census_census::Snapshot;
use v6census_core::query::{days_seen, members_in, prefix_profile};
use v6census_synth::chaos::http_get;
use v6census_synth::rng::Xoshiro256;

/// The four routes the mix exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `/stable/<addr>`.
    Stable,
    /// `/classify/<prefix>` for a /64 or /48.
    ClassifyPoint,
    /// `/classify/<prefix>` for a /12–/20 aggregate.
    ClassifyAggregate,
    /// `/stats`.
    Stats,
}

impl Route {
    /// Every route, in report order.
    pub const ALL: [Route; 4] = [
        Route::Stable,
        Route::ClassifyPoint,
        Route::ClassifyAggregate,
        Route::Stats,
    ];

    /// The metric-name label.
    pub fn label(self) -> &'static str {
        match self {
            Route::Stable => "stable",
            Route::ClassifyPoint => "classify_point",
            Route::ClassifyAggregate => "classify_aggregate",
            Route::Stats => "stats",
        }
    }
}

/// One query target.
#[derive(Clone, Debug)]
pub struct Query {
    /// The route.
    pub route: Route,
    /// The request path.
    pub path: String,
    /// The address of a `/stable` query.
    pub addr: Option<Addr>,
    /// The block of a `/classify` query.
    pub prefix: Option<Prefix>,
}

/// Draws `n` targets from the snapshot with `seed`. The mix is unweighted
/// over the four routes: no traffic trace says how often each is asked,
/// so each gets one query in four. Within a route the kinds alternate
/// too: `/stable` asks a reference-day active address, an address seen
/// on some ingested day, and a never-seen one in turn; point `/classify`
/// asks the /64 and the /48 of an active address in turn; aggregates ask
/// the /12, /13, … /20 around an active address in turn, so every seed
/// draws as many of the costly short prefixes.
pub fn sample_targets(snap: &Snapshot, seed: u64, n: usize) -> Vec<Query> {
    let mut rng = Xoshiro256::seeded(seed ^ 0x5e7e_c7ed_7a56_e75e);
    let active = snap.active.keys();
    let days: Vec<_> = snap.census.days().collect();
    assert!(!active.is_empty(), "the snapshot has no active addresses");
    let pick_active = |rng: &mut Xoshiro256| Addr(active[rng.below(active.len() as u64) as usize]);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let kind = i / 4;
        let q = match i % 4 {
            0 => {
                let addr = match kind % 3 {
                    0 => pick_active(&mut rng),
                    1 => {
                        // Seen on some other ingested day (often inactive
                        // on the reference day).
                        let day = days[rng.below(days.len() as u64) as usize];
                        let keys = snap
                            .census
                            .other_daily()
                            .get(day)
                            .map_or(&[][..], |s| s.keys());
                        if keys.is_empty() {
                            pick_active(&mut rng)
                        } else {
                            Addr(keys[rng.below(keys.len() as u64) as usize])
                        }
                    }
                    _ => {
                        // Never seen: a random IID inside an active /64.
                        let base = pick_active(&mut rng).0 & !0xffff_ffff_ffff_ffffu128;
                        Addr(base | u128::from(rng.next_u64() | 1 << 63))
                    }
                };
                Query {
                    route: Route::Stable,
                    path: format!("/stable/{addr}"),
                    addr: Some(addr),
                    prefix: None,
                }
            }
            1 => {
                let len = if kind % 2 == 0 { 64 } else { 48 };
                let p = Prefix::of(pick_active(&mut rng), len);
                Query {
                    route: Route::ClassifyPoint,
                    path: format!("/classify/{p}"),
                    addr: None,
                    prefix: Some(p),
                }
            }
            2 => {
                let len = 12 + (kind % 9) as u8;
                let p = Prefix::of(pick_active(&mut rng), len);
                Query {
                    route: Route::ClassifyAggregate,
                    path: format!("/classify/{p}"),
                    addr: None,
                    prefix: Some(p),
                }
            }
            _ => Query {
                route: Route::Stats,
                path: "/stats".to_string(),
                addr: None,
                prefix: None,
            },
        };
        out.push(q);
    }
    out
}

/// What a correct answer to a query contains, computed in process with
/// `AddrSet::contains` and `core::query` on the snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expected {
    /// `/stable`: active, stable, days seen.
    Stable(bool, bool, usize),
    /// `/classify`: member count.
    Classify(usize),
    /// `/stats`: active and stable counts.
    Stats(usize, usize),
}

/// Answers a query in process, doing the work the daemon's route does.
pub fn answer(snap: &Snapshot, q: &Query) -> Expected {
    match (q.route, q.addr, q.prefix) {
        (Route::Stable, Some(a), _) => Expected::Stable(
            snap.active.contains(a),
            snap.stable.contains(a),
            days_seen(snap.census.other_daily(), a).len(),
        ),
        (Route::ClassifyPoint | Route::ClassifyAggregate, _, Some(p)) => {
            let profile = prefix_profile(&snap.active, p, snap.dense_class);
            Expected::Classify(profile.members)
        }
        _ => Expected::Stats(snap.active.len(), snap.stable.len()),
    }
}

/// The cheap oracle for a query: the same facts without the profile work
/// (`members_in` instead of `prefix_profile`).
pub fn expected(snap: &Snapshot, q: &Query) -> Expected {
    match (q.route, q.addr, q.prefix) {
        (Route::ClassifyPoint | Route::ClassifyAggregate, _, Some(p)) => {
            Expected::Classify(members_in(&snap.active, p).len())
        }
        _ => answer(snap, q),
    }
}

/// The integer after `"key":` in a JSON body.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The boolean after `"key":` in a JSON body.
pub fn json_bool(body: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Checks a 200 body against the expected facts (when given) and the
/// `generation == days` invariant.
pub fn body_ok(body: &str, route: Route, want: Option<&Expected>) -> bool {
    let (Some(gen), Some(days)) = (json_u64(body, "generation"), json_u64(body, "days")) else {
        return false;
    };
    if gen != days {
        return false;
    }
    let Some(want) = want else {
        return true;
    };
    match (route, want) {
        (Route::Stable, Expected::Stable(active, stable, seen)) => {
            json_bool(body, "active") == Some(*active)
                && json_bool(body, "stable") == Some(*stable)
                && json_u64(body, "days_seen") == Some(*seen as u64)
        }
        (Route::ClassifyPoint | Route::ClassifyAggregate, Expected::Classify(m)) => {
            json_u64(body, "members") == Some(*m as u64)
        }
        (Route::Stats, Expected::Stats(active, stable)) => {
            json_u64(body, "active") == Some(*active as u64)
                && json_u64(body, "stable") == Some(*stable as u64)
        }
        _ => false,
    }
}

/// One request as the client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index of the target in the mix.
    pub target: usize,
    /// The route.
    pub route: Route,
    /// Latency from the scheduled send time to the end of the reply, ms.
    pub latency_ms: f64,
    /// How late the send started against its schedule, ms.
    pub late_ms: f64,
    /// TCP connect, ms.
    pub connect_ms: f64,
    /// Request written to first reply byte, ms.
    pub ttfb_ms: f64,
    /// First reply byte to the server's close, ms.
    pub close_ms: f64,
    /// HTTP status; 0 for a transport failure.
    pub status: u16,
    /// Whether the body passed its check.
    pub ok: bool,
}

/// One GET with per-phase timing. Returns `(status, body, connect,
/// ttfb, close)` with times in ms.
pub fn timed_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String, f64, f64, f64)> {
    let timeout = Duration::from_secs(5);
    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    let t1 = Instant::now();
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut buf = Vec::with_capacity(1024);
    let mut first = [0u8; 1];
    let n = stream.read(&mut first)?;
    let t2 = Instant::now();
    buf.extend_from_slice(&first[..n]);
    stream.read_to_end(&mut buf)?;
    let t3 = Instant::now();
    drop(stream);
    let text = String::from_utf8_lossy(&buf);
    let status = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    Ok((status, body, ms(t0, t1), ms(t1, t2), ms(t2, t3)))
}

/// Sends targets on a fixed schedule (`rate` per second from `start`,
/// cycling through the mix) from `senders` threads until `until`. Each
/// 200 reply is checked with `check(target index, body)`. Without
/// `phases` the plain client is used and the phase times read 0.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    targets: &[Query],
    rate: f64,
    senders: usize,
    start: Instant,
    until: Instant,
    phases: bool,
    check: &(dyn Fn(usize, &str) -> bool + Sync),
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let interval = 1.0 / rate;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..senders)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let due = start + Duration::from_secs_f64(i as f64 * interval);
                        if due >= until {
                            return out;
                        }
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let t = i % targets.len();
                        let q = &targets[t];
                        let reply = if phases {
                            timed_get(addr, &q.path)
                        } else {
                            http_get(addr, &q.path, Duration::from_secs(5))
                                .map(|(status, body)| (status, body, 0.0, 0.0, 0.0))
                        };
                        let (status, ok, connect, ttfb, close) = match reply {
                            Ok((status, body, c, f, cl)) => {
                                (status, status == 200 && check(t, &body), c, f, cl)
                            }
                            Err(_) => (0, false, 0.0, 0.0, 0.0),
                        };
                        let done = Instant::now();
                        out.push(Sample {
                            target: t,
                            route: q.route,
                            latency_ms: done.duration_since(due).as_secs_f64() * 1e3,
                            late_ms: sent.duration_since(due).as_secs_f64() * 1e3,
                            connect_ms: connect,
                            ttfb_ms: ttfb,
                            close_ms: close,
                            status,
                            ok,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a sender thread panicked"))
            .collect()
    })
}
