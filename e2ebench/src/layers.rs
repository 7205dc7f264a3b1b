//! Per-layer probes: benchmark-side spans and counters around calls into
//! each layer's public functions. Each per-layer metric has one producer
//! here or in `serve.rs`, and a traced run of either workload calls every
//! producer, on that workload's own world, census and day files.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use v6census_addr::Addr;
use v6census_census::stream::IngestConfig;
use v6census_census::supervisor::{run_census, PipelineConfig, SupervisedRun};
use v6census_census::{Census, DaySummary, RoutingTable, Snapshot, StreamIngestor};
use v6census_core::spatial::{DensityClass, MraCurve};
use v6census_core::temporal::{Day, StabilityParams};
use v6census_synth::faults::day_file_name;
use v6census_synth::world::epochs;
use v6census_synth::World;
use v6census_trie::{DensePrefix, RadixTree};

use crate::alloc;
use crate::paper;
use crate::query::{self, Route};
use crate::util::{self, Digest, Metrics, Outcome, Trace};

/// In-process query targets per run: p99 has forty targets beyond it.
const IN_PROCESS_QUERIES: usize = 4000;

/// The snapshot the serve daemon would publish for this census.
pub fn snapshot_of(census: &Census) -> Snapshot {
    Snapshot::build(
        census.clone(),
        StabilityParams::nd(3),
        DensityClass::new(8, 64),
    )
}

/// The query mix answered in process with `core::query` on a snapshot,
/// each answer checked against the `members_in`/`contains` oracle. A
/// workload answers it in slices between its own repetitions, [`PASSES`]
/// times over, so every target is timed at several moments of the run; a
/// target's latency is the median of all its timings, and the
/// percentiles are taken over targets. A slow stretch of a shared host
/// then moves a few timings of each target, not the tail of the mix.
pub struct InProcessQueries {
    snap: Arc<Snapshot>,
    targets: Vec<query::Query>,
    answered: usize,
    times_us: Vec<Vec<f64>>,
}

/// Passes over the query mix per run.
const PASSES: usize = 3;

/// Timings of a target per pass.
const RUNS: usize = 3;

impl InProcessQueries {
    /// Draws the targets from `snap` with `seed`.
    pub fn new(snap: Arc<Snapshot>, seed: u64) -> InProcessQueries {
        let targets = query::sample_targets(&snap, seed, IN_PROCESS_QUERIES);
        let times_us = vec![Vec::with_capacity(PASSES * RUNS); targets.len()];
        InProcessQueries {
            snap,
            targets,
            answered: 0,
            times_us,
        }
    }

    /// Answers targets until `share` (0..=1) of all passes is done.
    pub fn answer_up_to(&mut self, share: f64, out: &mut Outcome) {
        let total = PASSES * self.targets.len();
        let goal = ((share.min(1.0) * total as f64) as usize).min(total);
        while self.answered < goal {
            let i = self.answered % self.targets.len();
            let q = &self.targets[i];
            let mut got = None;
            for _ in 0..RUNS {
                let t = Instant::now();
                got = Some(black_box(query::answer(&self.snap, q)));
                self.times_us[i].push(t.elapsed().as_secs_f64() * 1e6);
            }
            if self.answered < self.targets.len() {
                let got = got.expect("at least one run");
                let want = query::expected(&self.snap, q);
                out.check(got == want, || {
                    format!("in-process answer to {} is {got:?}, want {want:?}", q.path)
                });
            }
            self.answered += 1;
        }
    }

    /// Answers the rest, records the per-route medians (`query.*_us`) and
    /// returns every target's latency, in ms.
    pub fn finish(mut self, out: &mut Outcome) -> Vec<f64> {
        self.answer_up_to(1.0, out);
        let per_target: Vec<(Route, f64)> = self
            .targets
            .iter()
            .zip(&self.times_us)
            .map(|(q, t)| (q.route, util::median(t)))
            .collect();
        for (route, name) in [
            (Route::Stable, "query.stable_us"),
            (Route::ClassifyPoint, "query.classify_point_us"),
            (Route::ClassifyAggregate, "query.classify_aggregate_us"),
        ] {
            let v: Vec<f64> = per_target
                .iter()
                .filter(|(r, _)| *r == route)
                .map(|&(_, us)| us)
                .collect();
            out.metrics.set(name, util::median(&v), "us");
        }
        per_target.iter().map(|&(_, us)| us / 1e3).collect()
    }
}

/// What replaying ingestion file by file produced.
pub struct IngestReplay {
    /// The census the replay built.
    pub census: Census,
    /// Data lines parsed.
    pub lines: usize,
    /// Addresses committed.
    pub addrs: usize,
    /// Allocations inside `parse_file`.
    pub parse_allocs: u64,
    /// Allocations inside `commit_parsed`.
    pub commit_allocs: u64,
    /// Files replayed.
    pub files: usize,
}

/// `parse_file` → `commit_parsed` for every file, in order, under the
/// spans `stream.parse_file` and `ingest.commit`.
pub fn replay_ingest(files: &[(Day, PathBuf)], trace: &mut Trace) -> IngestReplay {
    let ingestor = StreamIngestor::new(IngestConfig::default());
    let mut census = Census::new_empty();
    let mut days = Vec::new();
    let mut r = IngestReplay {
        census: Census::new_empty(),
        lines: 0,
        addrs: 0,
        parse_allocs: 0,
        commit_allocs: 0,
        files: files.len(),
    };
    for (_, path) in files {
        let (parsed, a) =
            alloc::counted(|| trace.span("stream.parse_file", |_| ingestor.parse_file(path)));
        let parsed = parsed.expect("a clean day file parses");
        r.parse_allocs += a;
        r.lines += parsed.report.data_lines;
        r.addrs += parsed.summary.as_ref().map_or(0, |s| s.total());
        let (report, a) = alloc::counted(|| {
            trace.span("ingest.commit", |_| {
                ingestor.commit_parsed(parsed, &mut census, &mut days)
            })
        });
        r.commit_allocs += a;
        report.expect("a clean day file commits");
    }
    r.census = census;
    r
}

/// Sets the stream/ingest metrics from a replay and its trace.
pub fn replay_metrics(r: &IngestReplay, trace: &Trace, m: &mut Metrics) {
    let files = r.files.max(1) as f64;
    let parse_ms = trace.self_ms("stream.parse_file");
    m.set("stream.parse_file_ms", parse_ms / files, "ms");
    m.set(
        "stream.lines_per_s",
        r.lines as f64 / (parse_ms / 1e3),
        "1/s",
    );
    m.set(
        "stream.allocs_per_line",
        r.parse_allocs as f64 / r.lines.max(1) as f64,
        "count",
    );
    m.set(
        "ingest.commit_ms",
        trace.self_ms("ingest.commit") / files,
        "ms",
    );
    m.set(
        "ingest.allocs_per_addr",
        r.commit_allocs as f64 / r.addrs.max(1) as f64,
        "count",
    );
}

/// Separate calls on up to three files' text: `str::parse::<Addr>` over
/// the address column and `DaySummary::from_entries` (the cull behind
/// `from_log`) over the parsed entries.
pub fn text_probe(files: &[(Day, PathBuf)], m: &mut Metrics) {
    let (mut parse_ns, mut cull_ms) = (Vec::new(), Vec::new());
    for (day, path) in files.iter().take(3) {
        let text = std::fs::read_to_string(path).expect("read a day file");
        let mut cols: Vec<(&str, u64)> = Vec::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut it = line.split('\t');
            let a = it.next().unwrap_or("");
            let h = it.next().and_then(|h| h.parse().ok()).unwrap_or(1);
            cols.push((a, h));
        }
        let t = Instant::now();
        let entries: Vec<(Addr, u64)> = cols
            .iter()
            .map(|&(a, h)| (a.parse::<Addr>().expect("synth addresses parse"), h))
            .collect();
        parse_ns.push(t.elapsed().as_secs_f64() * 1e9 / cols.len().max(1) as f64);
        let t = Instant::now();
        black_box(DaySummary::from_entries(*day, entries));
        cull_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.set("addr.parse_ns", util::median(&parse_ns), "ns");
    m.set("ingest.cull_ms", util::median(&cull_ms), "ms");
}

/// The stage walls of a `run_census` call, from its manifest, and
/// `supervisor.unstaged_ms`, the rest of the call's wall.
pub fn supervisor_metrics(run: &SupervisedRun, wall_ms: f64, m: &mut Metrics) {
    let mut staged = 0.0;
    for stage in &run.manifest.stages {
        let ms = stage.wall_millis as f64;
        staged += ms;
        m.set(&format!("supervisor.{}_ms", stage.stage), ms, "ms");
    }
    m.set("supervisor.unstaged_ms", wall_ms - staged, "ms");
}

/// `run_census` with the CLI defaults over `dir`, for a workload that
/// does not call it itself. Returns the reference day it chose.
pub fn supervisor_probe(dir: &Path, m: &mut Metrics) -> Day {
    let t = Instant::now();
    let run = run_census(dir, &PipelineConfig::default()).expect("run_census over clean files");
    supervisor_metrics(&run, t.elapsed().as_secs_f64() * 1e3, m);
    run.reference.expect("a reference day")
}

/// The densify stage of `run_census`, through public calls: the reference
/// day's addresses split into /16 segments, one radix tree each, built
/// under `trie.insert` and densified (`8@/64`, the stage's node budget)
/// under `trie.densify`. Returns the sorted dense prefixes and the number
/// of addresses inserted.
pub fn trie_shards(
    census: &Census,
    reference: Day,
    cfg: &PipelineConfig,
    trace: &mut Trace,
) -> (Vec<DensePrefix>, usize) {
    let mut inserted = 0;
    let dense = trace.span("trie.shards", |t| {
        let mut shards: BTreeMap<u16, Vec<u128>> = BTreeMap::new();
        for a in census.other_daily().on(reference).iter() {
            shards.entry((a.0 >> 112) as u16).or_default().push(a.0);
        }
        let mut dense = Vec::new();
        for addrs in shards.values() {
            inserted += addrs.len();
            let mut tree = t.span("trie.insert", |_| {
                let mut tree = RadixTree::new();
                for &a in addrs {
                    tree.insert_addr(Addr(a), 1);
                }
                tree
            });
            let b = t.span("trie.densify", |_| {
                tree.densify_budgeted(cfg.dense_n, cfg.dense_p, cfg.supervisor.max_trie_nodes)
            });
            dense.extend(b.dense);
        }
        dense.sort();
        dense
    });
    (dense, inserted)
}

/// Sets `trie.insert_per_s` and `trie.densify_ms` from a trace that ran
/// [`trie_shards`].
pub fn trie_metrics(trace: &Trace, inserted: usize, m: &mut Metrics) {
    m.set(
        "trie.insert_per_s",
        inserted as f64 / (trace.self_ms("trie.insert") / 1e3),
        "1/s",
    );
    m.set("trie.densify_ms", trace.self_ms("trie.densify"), "ms");
}

/// `stable_on` for every census day (what each snapshot publish does),
/// and `MraCurve::of` on the middle day's active set.
pub fn kernel_probe(census: &Census, m: &mut Metrics) {
    let params = StabilityParams::nd(3);
    let days: Vec<Day> = census.days().collect();
    let t = Instant::now();
    for &d in &days {
        black_box(census.other_daily().stable_on(d, &params));
    }
    m.set(
        "temporal.stable_on_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    m.set("temporal.stable_on_calls", days.len() as f64, "count");
    let active = census.other_daily().on(days[days.len() / 2]);
    let t = Instant::now();
    black_box(MraCurve::of(&active));
    m.set("spatial.mra_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
}

/// Tables and figures over a census that may hold a single epoch.
pub fn tables_probe(world: &World, census: &Census, m: &mut Metrics) {
    let days: Vec<Day> = census.days().collect();
    let reference = days[days.len() / 2];
    let inp = paper::Inputs {
        census: census.clone(),
        rt: RoutingTable::of(world, epochs::mar2015()),
        specs: vec![v6census_census::tables::EpochSpec {
            label: "reference",
            reference,
        }],
        week: reference,
    };
    let mut trace = Trace::new();
    paper::products(&inp, &mut trace, &mut Digest::default());
    for (span, name) in [
        ("tables.table1", "tables.table1_ms"),
        ("tables.table2", "tables.table2_ms"),
        ("figures.fig3", "figures.fig3_ms"),
        ("figures.fig4", "figures.fig4_ms"),
        ("figures.fig5", "figures.fig5_ms"),
    ] {
        m.set(name, trace.self_ms(span), "ms");
    }
}

/// The probes neither workload runs as part of its own work: address
/// parsing and culling, the temporal and MRA kernels, and the tables and
/// figures.
pub fn probe_common(world: &World, census: &Census, files: &[(Day, PathBuf)], m: &mut Metrics) {
    text_probe(files, m);
    kernel_probe(census, m);
    tables_probe(world, census, m);
}

/// Writes the world's logs for `days` as day files (plain writes: inputs
/// made before the system under test sees them).
pub fn write_days(world: &World, days: &[Day], dir: &Path) -> Vec<(Day, PathBuf)> {
    days.iter()
        .map(|&d| {
            let path = dir.join(day_file_name(d));
            std::fs::write(&path, world.day_log(d).to_text()).expect("write a day file");
            (d, path)
        })
        .collect()
}
