//! End-to-end and per-layer benchmark of v6census.
//!
//! ```text
//! e2ebench --workload <batch-census|serve-live|all>
//!          --seed N --seconds S --trace <0|1>
//! ```
//!
//! Inputs come from `v6census-synth` with the given seed; the system is
//! driven only through its public entry points. With `--trace 0` the run
//! measures the end-to-end metrics; with `--trace 1` it replays the work
//! under benchmark-side spans and reports the per-layer metrics. The last
//! line of standard output is one JSON object; the exit code is non-zero
//! when an output check failed. See `README.md` beside this crate.

mod alloc;
mod batch;
mod layers;
mod paper;
mod query;
mod serve;
mod util;
mod yardstick;

use util::Outcome;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Metrics a user of the system sees. The result line of every workload
/// carries each one, so a metric that belongs to the other workload is
/// given its nearest independent meaning there (see `README.md`). Times
/// other than set-up are in yardsticks (`_ys`, see [`yardstick`]); the
/// same times in ms or s, `ready_s` and the query latencies are measured
/// too, but only printed on standard error: on a shared two-CPU host
/// their run-to-run spread is wider than any regression bound the result
/// line may carry.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "wall_ys",
    "peak_heap_mb",
    "publish_lag_p50_ys",
    "publish_lag_p75_ys",
];

/// Metrics of single layers, reported by a traced run of every workload.
pub const PER_LAYER: [&str; 48] = [
    "addr.parse_ns",
    "stream.parse_file_ms",
    "stream.lines_per_s",
    "stream.allocs_per_line",
    "ingest.cull_ms",
    "ingest.commit_ms",
    "ingest.allocs_per_addr",
    "supervisor.ingest_ms",
    "supervisor.table1_ms",
    "supervisor.stability_ms",
    "supervisor.densify_ms",
    "supervisor.unstaged_ms",
    "temporal.stable_on_ms",
    "temporal.stable_on_calls",
    "trie.insert_per_s",
    "trie.densify_ms",
    "spatial.mra_ms",
    "tables.table1_ms",
    "tables.table2_ms",
    "figures.fig3_ms",
    "figures.fig4_ms",
    "figures.fig5_ms",
    "query.stable_us",
    "query.classify_point_us",
    "query.classify_aggregate_us",
    "serve.connect_ms",
    "serve.ttfb_ms",
    "serve.close_ms",
    "serve.route.stable.p50_ms",
    "serve.route.stable.p99_ms",
    "serve.route.classify_point.p50_ms",
    "serve.route.classify_point.p99_ms",
    "serve.route.classify_aggregate.p50_ms",
    "serve.route.classify_aggregate.p99_ms",
    "serve.route.stats.p50_ms",
    "serve.route.stats.p99_ms",
    "serve.accepted",
    "serve.shed",
    "snapshot.build_ms.min_k",
    "snapshot.build_ms.max_k",
    "census.clone_ms",
    "snapshot.allocs_per_publish",
    "serve.scan_wait_ms",
    "vfs.write_atomic_ms",
    "loadgen.late_p99_ms",
    "loadgen.fail_ratio",
    "trace.residual_share",
    "trace.overhead_share",
];

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 2] = ["batch-census", "serve-live"];

/// What every workload is given.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: e2ebench --workload <{}|all> --seed N --seconds S --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> (Vec<&'static str>, RunCfg) {
    let mut workload: Option<String> = None;
    let mut cfg = RunCfg {
        seed: 1,
        seconds: 50.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => cfg.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                cfg.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
                    usage("--seconds must be positive");
                }
            }
            "--trace" => {
                cfg.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let chosen = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        match WORKLOADS.iter().find(|&&w| w == workload) {
            Some(&w) => vec![w],
            None => usage(&format!("unknown workload {workload}")),
        }
    };
    (chosen, cfg)
}

fn run_one(name: &str, cfg: &RunCfg) -> Outcome {
    match name {
        "batch-census" => batch::run(cfg),
        "serve-live" => serve::run_live(cfg),
        _ => unreachable!("workload names are validated in parse_args"),
    }
}

fn main() {
    let (workloads, cfg) = parse_args();
    let mut all_correct = true;
    for name in workloads {
        eprintln!(
            "[e2ebench] {name}: seed {} seconds {} trace {}",
            cfg.seed, cfg.seconds, cfg.trace
        );
        let out = run_one(name, &cfg);
        let names: &[&str] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
        let metrics = match out.metrics.select(names) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("[e2ebench] {name}: {e}");
                std::process::exit(2);
            }
        };
        let correct = out.failed == 0;
        all_correct &= correct;
        // Standard error gets everything measured, the result line only the
        // selected metrics.
        eprintln!(
            "[e2ebench] {name}: attempted {} failed {} output digest {:016x}\n{}",
            out.attempted,
            out.failed,
            out.digest.0,
            out.metrics.describe()
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            out.attempted.max(1),
            out.failed,
            metrics.json()
        );
    }
    if !all_correct {
        std::process::exit(1);
    }
}
