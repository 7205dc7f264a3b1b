//! `batch-census`: 21 consecutive day-log files (the March 2015 epoch
//! window) run through `census::supervisor::run_census` with the CLI
//! defaults. Text parsing dominates, so a `census::stream` or `addr`
//! parse change shows here and an analysis-kernel change should not.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use v6census_census::supervisor::{run_census, PipelineConfig, SupervisedRun};
use v6census_census::tables::{table1, EpochSpec};
use v6census_census::Census;
use v6census_core::temporal::Day;
use v6census_synth::faults::day_file_name;
use v6census_synth::world::epochs;
use v6census_synth::{World, WorldConfig};
use v6census_trie::{DensePrefix, RadixTree};

use crate::util::{self, Digest, Outcome, Trace, WorkDir};
use crate::yardstick::Yardstick;
use crate::{alloc, layers, paper, serve, RunCfg};

/// Population scale (≈125K addresses a day): small enough that about
/// twenty `run_census` calls fit in one run, so their median is steady
/// on a shared two-CPU machine.
const SCALE: f64 = 0.25;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Yardstick runs per sample, one sample between `run_census` calls
/// (≈0.3 s beside a ≈2 s call).
const YARD_REPS: usize = 24;

/// The analysis products of one census run, as compared and digested.
#[derive(Debug, PartialEq, Eq)]
struct Products {
    table1: String,
    stable: Vec<u128>,
    dense: Vec<DensePrefix>,
}

impl Products {
    fn of(run: &SupervisedRun) -> Products {
        Products {
            table1: run
                .table1
                .as_ref()
                .and_then(|t| t.value.clone())
                .unwrap_or_default(),
            stable: run
                .stability
                .as_ref()
                .and_then(|s| s.value.as_ref())
                .map(|v| v.stable.keys().to_vec())
                .unwrap_or_default(),
            dense: run
                .dense
                .as_ref()
                .map(|d| d.value.clone())
                .unwrap_or_default(),
        }
    }

    fn digest(&self, census: &Census) -> Digest {
        let mut d = Digest::default();
        d.add_str(&self.table1);
        for k in &self.stable {
            d.add(&k.to_be_bytes());
        }
        for p in &self.dense {
            d.add_str(&format!("{} {}", p.prefix, p.count));
        }
        for s in census.summaries() {
            d.add_str(&day_counts(census, s.day));
        }
        d
    }
}

/// Per-day category counts and hits, as compared against the oracle.
fn day_counts(census: &Census, day: Day) -> String {
    match census.summary(day) {
        None => format!("{day} missing"),
        Some(s) => format!(
            "{day} teredo {} isatap {} 6to4 {} other {} eui64 {} macs {} hits {}",
            s.teredo.len(),
            s.isatap.len(),
            s.sixtofour.len(),
            s.other.len(),
            s.eui64.len(),
            s.eui64_macs.len(),
            s.hits
        ),
    }
}

/// The same products from an in-memory `Census::ingest` of the day logs,
/// which never touches the text parser. Dense prefixes come from one
/// radix tree over the whole day rather than `run_census`'s per-segment
/// shards.
fn oracle_products(oracle: &Census, reference: Day, cfg: &PipelineConfig) -> Products {
    let spec = [EpochSpec {
        label: "reference",
        reference,
    }];
    let mut tree = RadixTree::new();
    for a in oracle.other_daily().on(reference).iter() {
        tree.insert_addr(a, 1);
    }
    let mut dense = tree.densify(cfg.dense_n, cfg.dense_p);
    dense.sort();
    Products {
        table1: table1(oracle, &spec).0.render(),
        stable: oracle
            .other_daily()
            .stable_on_gapped(reference, &cfg.params, cfg.gap_policy)
            .stable
            .keys()
            .to_vec(),
        dense,
    }
}

fn check_against_oracle(
    run: &SupervisedRun,
    oracle: &Census,
    cfg: &PipelineConfig,
    out: &mut Outcome,
) {
    let census = &run.report.census;
    for day in oracle.days() {
        let (got, want) = (day_counts(census, day), day_counts(oracle, day));
        out.check(got == want, || {
            format!("run_census {got} != in-memory {want}")
        });
    }
    let Some(reference) = run.reference else {
        out.check(false, || "run_census chose no reference day".into());
        return;
    };
    let got = Products::of(run);
    let want = oracle_products(oracle, reference, cfg);
    out.check(got.table1 == want.table1, || {
        "Table 1 differs from the oracle".into()
    });
    out.check(got.stable == want.stable, || {
        format!(
            "3d-stable set: {} addresses, oracle {}",
            got.stable.len(),
            want.stable.len()
        )
    });
    out.check(got.dense == want.dense, || {
        let diff = got.dense.iter().zip(&want.dense).find(|(a, b)| a != b);
        format!(
            "dense prefixes: {}, oracle {}; first difference {diff:?}",
            got.dense.len(),
            want.dense.len()
        )
    });
}

/// Replays `run_census` stage by stage through public calls under spans:
/// `parse_file` → `commit_parsed` → `tables::table1` → `stable_on_gapped`
/// → per-segment radix-tree densify.
fn replay(
    files: &[(Day, PathBuf)],
    reference: Day,
    cfg: &PipelineConfig,
    trace: &mut Trace,
) -> (Products, layers::IngestReplay, usize) {
    let r = layers::replay_ingest(files, trace);
    let census = &r.census;
    let spec = [EpochSpec {
        label: "reference",
        reference,
    }];
    let table1 = trace.span("tables.table1", |_| table1(census, &spec).0.render());
    let stable = trace.span("temporal.stable_on_gapped", |_| {
        census
            .other_daily()
            .stable_on_gapped(reference, &cfg.params, cfg.gap_policy)
            .stable
    });
    let (dense, inserted) = layers::trie_shards(census, reference, cfg, trace);
    let products = Products {
        table1,
        stable: stable.keys().to_vec(),
        dense,
    };
    (products, r, inserted)
}

/// Wall of the named stage of a run, in ms (0 when it did not run).
fn stage_ms(run: &SupervisedRun, name: &str) -> f64 {
    run.manifest
        .stages
        .iter()
        .find(|s| s.stage == name)
        .map_or(0.0, |s| s.wall_millis as f64)
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::new();
    let work = WorkDir::new("batch-census");
    let days: Vec<Day> = paper::epoch_days(epochs::mar2015()).collect();
    let mut setups = Vec::new();
    let mut files = Vec::new();
    let mut world = None;
    for _ in 0..if cfg.trace { 1 } else { SETUP_REPS } {
        let t = Instant::now();
        let w = World::standard(WorldConfig {
            seed: cfg.seed,
            scale: SCALE,
        });
        files = layers::write_days(&w, &days, &work.sub("days"));
        setups.push(util::secs(t));
        world = Some(w);
    }
    let world = world.expect("one set-up");
    let dir = work.path().join("days");
    out.metrics.set("setup_s", util::median(&setups), "s");

    // Timed phase: run_census repeated for the run length. Each call's
    // heap peak is taken above what was live when it started, so it
    // covers run_census alone.
    let pcfg = PipelineConfig::default();
    let (mut walls, mut walls_ys) = (Vec::new(), Vec::new());
    let (mut readies, mut heaps, mut lags_ms, mut lags_ys) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<SupervisedRun> = None;
    let mut queries: Option<layers::InProcessQueries> = None;
    // A yardstick sample before the first call and after every call: each
    // call's times are read in the mean of the two samples around it.
    let mut yard = Yardstick::new();
    let mut ys = vec![yard.sample(YARD_REPS)];
    let start = Instant::now();
    while walls.is_empty() || util::secs(start) < cfg.seconds {
        drop(last.take());
        let heap_base = alloc::reset_peak();
        let t = Instant::now();
        let run = run_census(&dir, &pcfg).expect("run_census over clean files");
        let wall = util::secs(t);
        heaps.push(alloc::peak_mib_above(heap_base));
        ys.push(yard.sample(YARD_REPS));
        let norm = (ys[ys.len() - 2] + ys[ys.len() - 1]) / 2.0;
        walls.push(wall);
        walls_ys.push(wall * 1e3 / norm);
        // The census is ready when ingestion ends; the analysis products
        // are then published one after another.
        readies.push(stage_ms(&run, "ingest") / 1e3);
        let mut done = 0.0;
        for stage in ["table1", "stability", "densify"] {
            done += stage_ms(&run, stage);
            lags_ms.push(done);
            lags_ys.push(done / norm);
        }
        let digest = Products::of(&run).digest(&run.report.census);
        if walls.len() == 1 {
            out.digest = digest;
        } else {
            out.check(digest == out.digest, || {
                "a repeated run_census differs".into()
            });
        }
        // Between calls, the share of the query mix due by now is answered
        // on the snapshot of the result.
        let q = queries.get_or_insert_with(|| {
            let snap = Arc::new(layers::snapshot_of(&run.report.census));
            layers::InProcessQueries::new(snap, cfg.seed)
        });
        q.answer_up_to(util::secs(start) / cfg.seconds, &mut out);
        last = Some(run);
        if cfg.trace {
            break;
        }
    }
    eprintln!("[e2ebench] run_census walls (s): {walls:.3?}");
    eprintln!("[e2ebench] yardstick samples (ms): {ys:.3?}");
    let query_ms = queries.expect("one run").finish(&mut out);
    let run = last.expect("one run");
    let mut oracle = Census::new_empty();
    for &day in &days {
        oracle.ingest(&world.day_log(day));
    }
    check_against_oracle(&run, &oracle, &pcfg, &mut out);
    drop(oracle);
    let m = &mut out.metrics;
    m.set("wall_s", util::median(&walls), "s");
    m.set("ready_s", util::median(&readies), "s");
    m.set("peak_heap_mb", util::median(&heaps), "MiB");
    m.set("wall_ys", util::median(&walls_ys), "ys");
    m.set("yardstick_ms", util::median(&ys), "ms");
    util::set_lags(m, &lags_ms, &lags_ys);
    m.set("query_p50_ms", util::percentile(&query_ms, 0.50), "ms");
    m.set("query_p99_ms", util::percentile(&query_ms, 0.99), "ms");

    if cfg.trace {
        let untraced_ms = walls[0] * 1e3;
        layers::supervisor_metrics(&run, untraced_ms, m);
        let reference = run.reference.expect("a reference day");
        let mut trace = Trace::new();
        let (products, r, inserted) = replay(&files, reference, &pcfg, &mut trace);
        let wall = trace.wall_ms();
        out.check(products == Products::of(&run), || {
            "the stage-by-stage replay differs from run_census".into()
        });
        drop(run);
        eprintln!(
            "[e2ebench] replay self ms: parse {:.1} commit {:.1} table1 {:.1} stability {:.1} shards {:.1} insert {:.1} densify {:.1} residual {:.1} of {wall:.1}",
            trace.self_ms("stream.parse_file"),
            trace.self_ms("ingest.commit"),
            trace.self_ms("tables.table1"),
            trace.self_ms("temporal.stable_on_gapped"),
            trace.self_ms("trie.shards"),
            trace.self_ms("trie.insert"),
            trace.self_ms("trie.densify"),
            trace.residual_ms(),
        );
        let m = &mut out.metrics;
        layers::replay_metrics(&r, &trace, m);
        layers::trie_metrics(&trace, inserted, m);
        m.set("trace.residual_share", trace.residual_ms() / wall, "ratio");
        m.set(
            "trace.overhead_share",
            (wall - untraced_ms) / untraced_ms,
            "ratio",
        );
        layers::probe_common(&world, &r.census, &files, m);
        drop(r);
        // The serve layers, measured as on serve-live: the first week
        // preloaded, the other fourteen days landed.
        let serve_dir = work.sub("serve");
        let (preload, landed) = files.split_at(serve::PRELOAD_DAYS);
        for (d, p) in preload {
            std::fs::copy(p, serve_dir.join(day_file_name(*d))).expect("copy a day file");
        }
        let texts: Vec<(Day, String)> = landed
            .iter()
            .map(|(d, p)| (*d, std::fs::read_to_string(p).expect("read a day file")))
            .collect();
        serve::serve_layers(
            &serve_dir,
            preload.len(),
            &texts,
            cfg.seconds,
            cfg.seed,
            &mut out,
        );
    }
    out
}
