//! `serve-live`: an in-process daemon started with `census::serve::spawn`,
//! fed day files as they land, queried over loopback HTTP by an open-loop
//! generator with two sender threads, and observed through
//! `ServeHandle::{snapshot, metrics}`. The serve-side layer metrics of
//! both workloads' traced runs come from [`serve_layers`] here.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use v6census_census::serve::{spawn, ServeConfig, ServeHandle};
use v6census_census::stream::IngestConfig;
use v6census_census::supervisor::PipelineConfig;
use v6census_census::{Census, MetricsReading, Snapshot, StreamIngestor};
use v6census_core::spatial::DensityClass;
use v6census_core::temporal::{Day, StabilityParams};
use v6census_core::vfs::{RealFs, Vfs};
use v6census_synth::faults::day_file_name;
use v6census_synth::world::epochs;
use v6census_synth::{World, WorldConfig};

use crate::query::{self, Route, Sample};
use crate::util::{self, Metrics, Outcome, Trace, WorkDir};
use crate::yardstick::Yardstick;
use crate::{alloc, layers, RunCfg};

/// Population scale of the served census.
const SCALE: f64 = 0.25;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Sender threads (the box has two CPUs).
const SENDERS: usize = 2;

/// Query rate beside ingestion: the ≈100 req/s the workload is defined
/// with, a fraction of what the two senders sustain.
const LIVE_RATE: f64 = 100.0;

/// Distinct targets in the mix (cycled).
const TARGETS: usize = 4000;

/// Days the daemon starts with; the rest of the 21 land one at a time.
pub const PRELOAD_DAYS: usize = 7;

/// Landing sequences per `serve-live` run; the publish-lag percentiles
/// are over the lags of all of them (14 each).
const LIVE_SEQUENCES: usize = 3;

/// Cold starts before, between and after the sequences: with the three
/// that begin the sequences, `ready_s` is the median of eleven.
const COLD_STARTS: usize = 2;

/// How long before the next landing the yardstick stops.
const YARD_GUARD: Duration = Duration::from_millis(20);

/// Yardstick runs after a sequence that left no gap to run it in.
const YARD_FALLBACK_REPS: usize = 40;

/// A run whose generator started this late at p99 measured the
/// generator, not the daemon.
const MAX_LATE_P99_MS: f64 = 100.0;

/// How often the benchmark looks at the published generation: fine next
/// to a publish, coarse enough not to steal the daemon's CPU.
const POLL: Duration = Duration::from_millis(1);

/// How long any wait on the daemon may take before the run fails.
const PATIENCE: Duration = Duration::from_secs(120);

fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        source_dir: dir.to_path_buf(),
        // A short poll keeps scan wait small next to a publish.
        poll_interval: Duration::from_millis(10),
        ..ServeConfig::default()
    }
}

fn world(seed: u64) -> World {
    World::standard(WorldConfig { seed, scale: SCALE })
}

/// The landing interval for a run of `seconds`: `LIVE_SEQUENCES`
/// sequences, each landing `landed` days, fill the run. Traced runs land
/// one sequence at the same interval.
pub fn interval(seconds: f64, landed: usize) -> f64 {
    seconds / (LIVE_SEQUENCES * (landed + 1)) as f64
}

/// Spawns the daemon and records when each generation first appears,
/// up to `days`. Returns the handle and the times since spawn, in s.
fn spawn_and_wait(dir: &Path, days: u64, out: &mut Outcome) -> (ServeHandle, Vec<f64>) {
    let t0 = Instant::now();
    let h = spawn(config(dir)).expect("the daemon starts");
    let mut seen = Vec::new();
    let mut gen = h.snapshot().generation;
    while gen < days {
        if t0.elapsed() > PATIENCE {
            out.check(false, || {
                format!("daemon stuck at generation {gen} of {days}")
            });
            break;
        }
        std::thread::sleep(POLL);
        let g = h.snapshot().generation;
        while gen < g {
            gen += 1;
            seen.push(util::secs(t0));
        }
    }
    (h, seen)
}

/// Checks every sample and the generator's lateness; returns the late
/// p99, in ms.
fn check_samples(samples: &[Sample], out: &mut Outcome) -> f64 {
    for s in samples {
        out.check(s.ok, || {
            format!(
                "query #{} ({}) answered {} or failed its check",
                s.target,
                s.route.label(),
                s.status
            )
        });
    }
    let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    let late_p99 = util::percentile(&late, 0.99);
    out.check(late_p99 <= MAX_LATE_P99_MS, || {
        format!("the generator fell behind: late p99 {late_p99:.1} ms")
    });
    late_p99
}

/// The client-side serve metrics of one landing sequence.
fn client_metrics(samples: &[Sample], late_p99: f64, r: MetricsReading, m: &mut Metrics) {
    let phase =
        |f: fn(&Sample) -> f64| -> f64 { util::median(&samples.iter().map(f).collect::<Vec<_>>()) };
    m.set("serve.connect_ms", phase(|s| s.connect_ms), "ms");
    m.set("serve.ttfb_ms", phase(|s| s.ttfb_ms), "ms");
    m.set("serve.close_ms", phase(|s| s.close_ms), "ms");
    for route in Route::ALL {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.route == route)
            .map(|s| s.latency_ms)
            .collect();
        let l = route.label();
        m.set(
            &format!("serve.route.{l}.p50_ms"),
            util::percentile(&v, 0.50),
            "ms",
        );
        m.set(
            &format!("serve.route.{l}.p99_ms"),
            util::percentile(&v, 0.99),
            "ms",
        );
    }
    m.set("serve.accepted", r.accepted as f64, "count");
    m.set("serve.shed", r.shed as f64, "count");
    m.set("loadgen.late_p99_ms", late_p99, "ms");
    let failed = samples.iter().filter(|s| !s.ok).count();
    m.set(
        "loadgen.fail_ratio",
        failed as f64 / samples.len().max(1) as f64,
        "ratio",
    );
}

/// Share of request latency the client phases (lateness, connect, time
/// to first byte, rest of the reply) do not cover.
fn residual_share(samples: &[Sample]) -> f64 {
    let total: f64 = samples.iter().map(|s| s.latency_ms).sum();
    let covered: f64 = samples
        .iter()
        .map(|s| s.late_ms + s.connect_ms + s.ttfb_ms + s.close_ms)
        .sum();
    (total - covered) / total
}

/// The mix sent to a daemon that no longer changes, each answer checked
/// against `core::query` on its snapshot; returns the mean latency, in
/// ms. With `phases` the client times each phase of a request.
fn checked_pass(
    addr: SocketAddr,
    snap: &Snapshot,
    targets: &[query::Query],
    seconds: f64,
    phases: bool,
    out: &mut Outcome,
) -> f64 {
    let want: Vec<query::Expected> = targets.iter().map(|q| query::expected(snap, q)).collect();
    let check = |t: usize, body: &str| query::body_ok(body, targets[t].route, Some(&want[t]));
    let start = Instant::now() + Duration::from_millis(20);
    let until = start + Duration::from_secs_f64(seconds);
    let s = query::open_loop(
        addr, targets, LIVE_RATE, SENDERS, start, until, phases, &check,
    );
    check_samples(&s, out);
    s.iter().map(|s| s.latency_ms).sum::<f64>() / s.len().max(1) as f64
}

/// Lands one day file atomically and returns the rename time.
fn land(dir: &Path, day: Day, text: &str) -> (Instant, f64) {
    let t = Instant::now();
    RealFs
        .write_atomic(&dir.join(day_file_name(day)), text.as_bytes())
        .expect("atomic landing of a day file");
    let done = Instant::now();
    (done, done.duration_since(t).as_secs_f64() * 1e3)
}

/// Replays, in process, what the daemon does to publish each landed file:
/// `parse_file`, `commit_parsed`, `Census::clone`, `Snapshot::build`.
/// Returns the per-file sum, in ms, and sets the snapshot metrics.
fn replay_publishes(base: &Census, files: &[PathBuf], m: &mut Metrics) -> Vec<f64> {
    let ingestor = StreamIngestor::new(IngestConfig::default());
    let mut census = base.clone();
    let mut days: Vec<Day> = census.days().collect();
    let (mut explained, mut builds, mut clones) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_allocs = 0;
    for path in files {
        let t = Instant::now();
        let parsed = ingestor.parse_file(path).expect("landed file parses");
        ingestor
            .commit_parsed(parsed, &mut census, &mut days)
            .expect("landed file commits");
        let ingest_ms = t.elapsed().as_secs_f64() * 1e3;
        let ((clone_ms, build_ms), allocs) = alloc::counted(|| {
            let t = Instant::now();
            let copy = census.clone();
            let clone_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let snap = Snapshot::build(copy, StabilityParams::nd(3), DensityClass::new(8, 64));
            let build_ms = t.elapsed().as_secs_f64() * 1e3;
            drop(std::hint::black_box(snap)); // the daemon frees it after publishing
            (clone_ms, build_ms)
        });
        last_allocs = allocs;
        clones.push(clone_ms);
        builds.push(build_ms);
        explained.push(ingest_ms + clone_ms + build_ms);
    }
    m.set("snapshot.build_ms.min_k", builds[0], "ms");
    m.set(
        "snapshot.build_ms.max_k",
        *builds.last().expect("a landing"),
        "ms",
    );
    m.set("census.clone_ms", util::median(&clones), "ms");
    m.set("snapshot.allocs_per_publish", last_allocs as f64, "count");
    explained
}

/// Checks the drain report.
fn shut_down(h: ServeHandle, out: &mut Outcome) {
    let report = h.shutdown();
    out.check(report.clean, || {
        format!("drain abandoned {} connections", report.abandoned)
    });
}

/// What one landing sequence observed.
struct Sequence {
    /// `spawn` → snapshot with every preloaded day, s.
    ready_s: f64,
    /// Per landed day: rename → first snapshot with the day, ms.
    lags_ms: Vec<f64>,
    /// Per landed day: `Vfs::write_atomic`, ms.
    write_ms: Vec<f64>,
    /// Every query sent.
    samples: Vec<Sample>,
    /// The heap peak from `spawn` to the last publish, above what was
    /// live before `spawn`, MiB.
    heap_mb: f64,
    /// The yardstick's mean time over the gaps between publishes, ms.
    yard_ms: f64,
}

impl Sequence {
    /// The daemon's own time on the way to the last day: the cold start
    /// plus every publish lag, without the waits between landings, s.
    fn work_s(&self) -> f64 {
        self.ready_s + self.lags_ms.iter().sum::<f64>() / 1e3
    }
}

/// One landing sequence: spawn over the `preload` days already in `dir`,
/// then land one of `texts` every `interval` s with `Vfs::write_atomic`
/// while queries run, starting at target `first` of the mix; a watcher
/// records when each generation first appears. With a yardstick, the
/// lander runs it from each day's publish until just before the next
/// landing. Returns the daemon, still running, with what was observed.
fn live_sequence(
    dir: &Path,
    preload: usize,
    texts: &[(Day, String)],
    interval: f64,
    (seed, first): (u64, usize),
    mut yard: Option<&mut Yardstick>,
    out: &mut Outcome,
) -> (ServeHandle, Sequence) {
    let heap_base = alloc::reset_peak();
    let (h, seen) = spawn_and_wait(dir, preload as u64, out);
    let base = h.snapshot();
    let mut targets = query::sample_targets(&base, seed, TARGETS);
    targets.rotate_left(first % TARGETS);
    drop(base);
    let total = (preload + texts.len()) as u64;
    let check = |_: usize, body: &str| {
        query::body_ok(body, Route::Stats, None)
            && query::json_u64(body, "generation")
                .is_some_and(|g| (preload as u64..=total).contains(&g))
    };
    let start = Instant::now() + Duration::from_millis(20);
    let until = start + Duration::from_secs_f64(interval * texts.len() as f64);
    let renamed: Mutex<Vec<(Instant, f64)>> = Mutex::new(Vec::new());
    let published: Mutex<Vec<Instant>> = Mutex::new(Vec::new());
    let (samples, gaps) = std::thread::scope(|scope| {
        let lander = scope.spawn(|| {
            let mut gaps = Vec::with_capacity(texts.len());
            for (i, (day, text)) in texts.iter().enumerate() {
                let due = start + Duration::from_secs_f64(i as f64 * interval);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let r = land(dir, *day, text);
                renamed.lock().expect("lander state").push(r);
                let Some(y) = yard.as_deref_mut() else {
                    continue;
                };
                // Time the yardstick from this day's publish (or, if that
                // takes too long, from just before the next landing).
                let stop = due + Duration::from_secs_f64(interval) - YARD_GUARD;
                while published.lock().expect("watcher state").len() <= i && Instant::now() < stop {
                    std::thread::sleep(POLL);
                }
                gaps.push(y.run_until(stop));
            }
            gaps
        });
        scope.spawn(|| {
            let mut gen = preload as u64;
            let deadline = until + PATIENCE;
            while gen < total && Instant::now() < deadline {
                std::thread::sleep(POLL);
                let g = h.snapshot().generation;
                let now = Instant::now();
                while gen < g {
                    gen += 1;
                    published.lock().expect("watcher state").push(now);
                }
            }
        });
        let samples = query::open_loop(
            h.addr(),
            &targets,
            LIVE_RATE,
            SENDERS,
            start,
            until,
            true,
            &check,
        );
        (samples, lander.join().expect("the lander finishes"))
    });
    let heap_mb = alloc::peak_mib_above(heap_base);
    let renamed = renamed.into_inner().expect("lander state");
    let published = published.into_inner().expect("watcher state");
    out.check(published.len() == texts.len(), || {
        format!(
            "{} of {} landed days published",
            published.len(),
            texts.len()
        )
    });
    let mut seq = Sequence {
        ready_s: seen.last().copied().unwrap_or(f64::NAN),
        lags_ms: renamed
            .iter()
            .zip(&published)
            .map(|((r, _), p)| p.saturating_duration_since(*r).as_secs_f64() * 1e3)
            .collect(),
        write_ms: renamed.iter().map(|&(_, ms)| ms).collect(),
        samples,
        heap_mb,
        yard_ms: gaps.iter().map(|g| g.0).sum::<f64>()
            / gaps.iter().map(|g| g.1).sum::<usize>() as f64,
    };
    if let Some(y) = yard {
        if !seq.yard_ms.is_finite() {
            // Every publish outlasted its interval: time the yardstick now.
            seq.yard_ms = y.sample(YARD_FALLBACK_REPS);
        }
    }
    (h, seq)
}

/// What [`serve_layers`] leaves for the workload's own accounting.
pub struct ServeLayers {
    /// The final snapshot.
    pub end: Arc<Snapshot>,
    /// Share of request latency the client phases do not cover.
    pub residual_share: f64,
    /// Mean latency with per-phase timing against a plain GET, as a share
    /// of the plain GET's.
    pub overhead_share: f64,
}

/// The serve, snapshot and vfs layers of a traced run, the same way for
/// every workload: one landing sequence over the `preload` days in `dir`
/// and `texts`; the landed files' publishes replayed in process to split
/// each lag (`serve.scan_wait_ms` is what the replay does not explain);
/// then the mix sent twice more to the final snapshot, with per-phase
/// timing and without, every answer checked against `core::query`.
pub fn serve_layers(
    dir: &Path,
    preload: usize,
    texts: &[(Day, String)],
    seconds: f64,
    seed: u64,
    out: &mut Outcome,
) -> ServeLayers {
    let interval = interval(seconds, texts.len());
    let (h, seq) = live_sequence(dir, preload, texts, interval, (seed, 0), None, out);
    let late_p99 = check_samples(&seq.samples, out);
    client_metrics(&seq.samples, late_p99, h.metrics(), &mut out.metrics);
    out.metrics
        .set("vfs.write_atomic_ms", util::median(&seq.write_ms), "ms");
    let end = h.snapshot();
    let mut base = Census::new_empty();
    for s in &end.census.summaries()[..preload] {
        base.ingest_summary(s.clone());
    }
    let paths: Vec<PathBuf> = texts
        .iter()
        .map(|&(d, _)| dir.join(day_file_name(d)))
        .collect();
    let explained = replay_publishes(&base, &paths, &mut out.metrics);
    let waits: Vec<f64> = seq
        .lags_ms
        .iter()
        .zip(&explained)
        .map(|(l, e)| l - e)
        .collect();
    out.metrics
        .set("serve.scan_wait_ms", util::median(&waits), "ms");
    let targets = query::sample_targets(&end, seed, TARGETS);
    let pass = (seconds / 10.0).max(1.0);
    let plain = checked_pass(h.addr(), &end, &targets, pass, false, out);
    let phased = checked_pass(h.addr(), &end, &targets, pass, true, out);
    shut_down(h, out);
    ServeLayers {
        end,
        residual_share: residual_share(&seq.samples),
        overhead_share: (phased - plain) / plain,
    }
}

/// The preloaded and the landed days of the 21-day window.
fn window() -> (Vec<Day>, Vec<Day>) {
    let days: Vec<Day> = crate::paper::epoch_days(epochs::mar2015()).collect();
    let (preload, landing) = days.split_at(PRELOAD_DAYS);
    (preload.to_vec(), landing.to_vec())
}

/// Runs `serve-live`.
pub fn run_live(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::new();
    let work = WorkDir::new("serve-live");
    let (preload, landing) = window();
    let mut setups = Vec::new();
    let mut texts: Vec<(Day, String)> = Vec::new();
    let mut w = None;
    for _ in 0..if cfg.trace { 1 } else { SETUP_REPS } {
        texts.clear();
        let t = Instant::now();
        let dir = work.sub("days");
        let world = world(cfg.seed);
        layers::write_days(&world, &preload, &dir);
        texts = landing
            .iter()
            .map(|&d| (d, world.day_log(d).to_text()))
            .collect();
        setups.push(util::secs(t));
        w = Some(world);
    }
    let world = w.expect("one set-up");
    out.metrics.set("setup_s", util::median(&setups), "s");
    let fresh_dir = |name: &str| {
        let dir = work.sub(name);
        for &d in &preload {
            let name = day_file_name(d);
            std::fs::copy(work.path().join("days").join(&name), dir.join(&name))
                .expect("copy a preloaded day");
        }
        dir
    };

    if cfg.trace {
        let dir = fresh_dir("traced");
        let s = serve_layers(&dir, preload.len(), &texts, cfg.seconds, cfg.seed, &mut out);
        digest_days(&s.end, &mut out);
        let m = &mut out.metrics;
        m.set("trace.residual_share", s.residual_share, "ratio");
        m.set("trace.overhead_share", s.overhead_share, "ratio");
        layers::InProcessQueries::new(Arc::clone(&s.end), cfg.seed).finish(&mut out);
        let census = s.end.census.clone();
        drop(s);
        let files: Vec<(Day, PathBuf)> = preload
            .iter()
            .chain(&landing)
            .map(|&d| (d, dir.join(day_file_name(d))))
            .collect();
        let m = &mut out.metrics;
        let reference = layers::supervisor_probe(&dir, m);
        let mut trace = Trace::new();
        let r = layers::replay_ingest(&files, &mut trace);
        layers::replay_metrics(&r, &trace, m);
        let mut trace = Trace::new();
        let (_, inserted) =
            layers::trie_shards(&census, reference, &PipelineConfig::default(), &mut trace);
        layers::trie_metrics(&trace, inserted, m);
        layers::probe_common(&world, &census, &files, m);
        return out;
    }

    // Cold starts over the preloaded week, for `ready_s`, come before,
    // between and after the landing sequences (each of which starts with
    // one more), so they are sampled across the run.
    // The first cold start after set-up or after a sequence's daemon shuts
    // down runs while that memory is still being handed back and read up
    // to 50% slower, so it warms up and is not counted.
    let mut readies = Vec::new();
    let mut cold_starts = |out: &mut Outcome| {
        for k in 0..=COLD_STARTS {
            let dir = work.path().join("days");
            let (h, seen) = spawn_and_wait(&dir, preload.len() as u64, out);
            if k > 0 {
                readies.push(seen.last().copied().unwrap_or(f64::NAN));
            }
            shut_down(h, out);
        }
    };
    let interval = interval(cfg.seconds, landing.len());
    let mut yard = Yardstick::new();
    let mut seqs = Vec::new();
    let mut last: Option<ServeHandle> = None;
    for i in 0..LIVE_SEQUENCES {
        if let Some(h) = last.take() {
            shut_down(h, &mut out);
        }
        cold_starts(&mut out);
        let dir = fresh_dir(&format!("seq{i}"));
        // Each sequence goes on where the mix left off, so together they
        // cover every target rather than the first third three times.
        let first = i * TARGETS / LIVE_SEQUENCES;
        let (h, seq) = live_sequence(
            &dir,
            preload.len(),
            &texts,
            interval,
            (cfg.seed, first),
            Some(&mut yard),
            &mut out,
        );
        check_samples(&seq.samples, &mut out);
        seqs.push(seq);
        last = Some(h);
    }
    let h = last.expect("one sequence");
    let end = h.snapshot();
    shut_down(h, &mut out);
    cold_starts(&mut out);
    let total = (preload.len() + landing.len()) as u64;
    out.check(end.generation == total, || {
        format!("final generation {} != {total}", end.generation)
    });
    digest_days(&end, &mut out);

    // The sequences repeat the same landings, so each figure is the median
    // over sequences: a slow stretch of a shared host during one of them
    // does not set it. Each sequence has over ten queries beyond its p99;
    // the tail is set by stalls beside publishes on every route, not by
    // the costliest aggregates.
    let over_seqs =
        |f: &dyn Fn(&Sequence) -> f64| util::median(&seqs.iter().map(f).collect::<Vec<_>>());
    let per_day: Vec<f64> = (0..landing.len())
        .map(|d| over_seqs(&|s| s.lags_ms[d]))
        .collect();
    let ys: Vec<f64> = seqs.iter().map(|s| s.yard_ms).collect();
    eprintln!("[e2ebench] yardstick per sequence (ms): {ys:.3?}");
    let lags_ms: Vec<f64> = seqs.iter().flat_map(|s| s.lags_ms.clone()).collect();
    let lags_ys: Vec<f64> = seqs
        .iter()
        .flat_map(|s| s.lags_ms.iter().map(|l| l / s.yard_ms))
        .collect();
    eprintln!(
        "[e2ebench] serve-live publish lags per day, median of {LIVE_SEQUENCES} (ms): {per_day:.1?}"
    );
    let latency = |s: &Sequence, q: f64| {
        let lat: Vec<f64> = s.samples.iter().map(|x| x.latency_ms).collect();
        util::percentile(&lat, q)
    };
    readies.extend(seqs.iter().map(|s| s.ready_s));
    eprintln!("[e2ebench] serve-live cold starts (s): {readies:.3?}");
    let m = &mut out.metrics;
    m.set("ready_s", util::median(&readies), "s");
    m.set("wall_s", over_seqs(&Sequence::work_s), "s");
    m.set("peak_heap_mb", over_seqs(&|s| s.heap_mb), "MiB");
    util::set_lags(m, &lags_ms, &lags_ys);
    m.set("query_p50_ms", over_seqs(&|s| latency(s, 0.50)), "ms");
    m.set("query_p99_ms", over_seqs(&|s| latency(s, 0.99)), "ms");
    m.set(
        "wall_ys",
        over_seqs(&|s| s.work_s() * 1e3 / s.yard_ms),
        "ys",
    );
    m.set("yardstick_ms", util::median(&ys), "ms");
    out
}

/// Folds the snapshot's per-day active and stable counts into the digest.
fn digest_days(end: &Snapshot, out: &mut Outcome) {
    for s in &end.stats.daily {
        out.digest
            .add_str(&format!("{} {} {}", s.day, s.active, s.stable));
    }
}
