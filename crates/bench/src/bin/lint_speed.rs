//! Records what the full `v6census-lint` pipeline — scan, lex, symbol
//! table, call graph, per-file rules, semantic rules — finds and proves
//! over the workspace at HEAD, plus the allocation pass's summary
//! counters, and emits a `BENCH_lint.json` point (files scanned,
//! findings, allocation proofs) so later PRs can track the analysis as
//! the rule set and the codebase grow. It takes
//! no wall-clock readings: on one unchanged tree they spread wider than
//! any change they could show. The JSON is written to the repository
//! root unconditionally; CI uploads it as an artifact and commits track
//! it as the baseline.

use std::fmt::Write as _;
use std::path::Path;

use lint::callgraph::CallGraph;
use lint::engine::{discover, lint_workspace, load_config, SeverityMap};
use lint::rules::Workspace;
use lint::symbols::SymbolTable;
use v6census_bench::Opts;

fn main() {
    let opts = Opts::parse();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let cfg = load_config(&root).expect("lint.toml parses");

    let report = lint_workspace(&root, &cfg, &SeverityMap::default()).expect("workspace lints");
    let files_scanned = report.files_scanned;
    let findings = report.diagnostics.len();
    let suppressed = report.suppressed_count();

    // The semantic passes' own counters, over the shared inputs (scan,
    // symbols, call graph) built once.
    let paths = discover(&root).expect("workspace discovery");
    let files: Vec<_> = paths
        .iter()
        .map(|p| {
            let rel = p
                .strip_prefix(&root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(p).expect("read source file");
            lint::scan::scan(p.clone(), rel, &text)
        })
        .collect();
    let symbols = SymbolTable::build(&files);
    let calls = CallGraph::build(&symbols, &files);
    let ws = Workspace {
        files: &files,
        symbols: &symbols,
        calls: &calls,
    };
    // R005/R006: per-function allocation summaries, hot-loop
    // obligations, and capacity-discipline proofs.
    let alloc_stats = lint::allocs::analyze(&ws, &cfg).stats;

    println!(
        "lint_workspace  {files_scanned} files, {findings} findings ({suppressed} suppressed)"
    );
    println!(
        "allocs (R005/6) {} fns ({} no-alloc, {} amortized, {} per-call), {} hot entries, {} loops, {}/{} loop + {}/{} capacity obligations proven",
        alloc_stats.fns_summarized,
        alloc_stats.no_alloc_fns,
        alloc_stats.amortized_fns,
        alloc_stats.per_call_fns,
        alloc_stats.hot_entry_points,
        alloc_stats.loops_scanned,
        alloc_stats.hot_loop_proven,
        alloc_stats.hot_loop_obligations,
        alloc_stats.capacity_proven,
        alloc_stats.capacity_obligations
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"lint_speed\",");
    let _ = writeln!(json, "  \"files_scanned\": {files_scanned},");
    let _ = writeln!(json, "  \"findings\": {findings},");
    let _ = writeln!(json, "  \"suppressed\": {suppressed},");
    let _ = writeln!(json, "  \"allocs\": {{");
    let _ = writeln!(
        json,
        "    \"fns_summarized\": {},",
        alloc_stats.fns_summarized
    );
    let _ = writeln!(json, "    \"no_alloc_fns\": {},", alloc_stats.no_alloc_fns);
    let _ = writeln!(
        json,
        "    \"amortized_fns\": {},",
        alloc_stats.amortized_fns
    );
    let _ = writeln!(json, "    \"per_call_fns\": {},", alloc_stats.per_call_fns);
    let _ = writeln!(
        json,
        "    \"hot_entry_points\": {},",
        alloc_stats.hot_entry_points
    );
    let _ = writeln!(
        json,
        "    \"loops_scanned\": {},",
        alloc_stats.loops_scanned
    );
    let _ = writeln!(
        json,
        "    \"hot_loop_obligations\": {},",
        alloc_stats.hot_loop_obligations
    );
    let _ = writeln!(
        json,
        "    \"hot_loop_proven\": {},",
        alloc_stats.hot_loop_proven
    );
    let _ = writeln!(
        json,
        "    \"capacity_obligations\": {},",
        alloc_stats.capacity_obligations
    );
    let _ = writeln!(
        json,
        "    \"capacity_proven\": {}",
        alloc_stats.capacity_proven
    );
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    opts.emit("BENCH_lint.json", &json);
    v6census_bench::write_baseline("BENCH_lint.json", &json);
}
