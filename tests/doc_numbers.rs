//! The docs quote counters and speedups from the committed `BENCH_*.json`
//! files. This test renders each quoted number from its JSON source and
//! asserts the doc contains it, so a regenerated baseline that moves a
//! number fails here until the prose follows.
//!
//! Only counters and committed speedups are checked, never wall times:
//! those drift from run to run and the docs do not quote them.

use std::fs;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The value of every `"key": value` in `json`, in document order,
/// with string quotes stripped.
fn values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let pat = format!("\"{key}\":");
    json.match_indices(&pat)
        .map(|(i, _)| {
            let rest = json[i + pat.len()..].trim_start();
            let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
            rest[..end].trim().trim_matches('"')
        })
        .collect()
}

/// The single value of `"key"` inside the `"block": { … }` object.
fn counter<'a>(json: &'a str, block: &str, key: &str) -> &'a str {
    let open = format!("\"{block}\": {{");
    let start = json
        .find(&open)
        .unwrap_or_else(|| panic!("no `{block}` block"));
    let body = &json[start..];
    let body = &body[..body.find('}').expect("block closes")];
    match values(body, key).as_slice() {
        [v] => v,
        other => panic!("`{block}.{key}`: expected one value, found {other:?}"),
    }
}

/// Asserts `doc` contains `want`, comparing with line breaks and runs
/// of spaces folded, so the prose may wrap anywhere.
fn assert_quotes(doc_rel: &str, doc: &str, want: &str, source: &str) {
    let folded = doc.split_whitespace().collect::<Vec<_>>().join(" ");
    assert!(
        folded.contains(want),
        "{doc_rel} should quote `{want}` ({source}); update the prose to the committed number"
    );
}

#[test]
fn verify_skill_quotes_bench_lint_counters() {
    let json = read("BENCH_lint.json");
    let skill_rel = ".claude/skills/verify/SKILL.md";
    let skill = read(skill_rel);
    let dataflow = format!(
        "{}/{}",
        counter(&json, "dataflow", "proven"),
        counter(&json, "dataflow", "obligations")
    );
    assert_quotes(skill_rel, &skill, &dataflow, "dataflow.proven/obligations");
    let effects = format!(
        "{}/{}",
        counter(&json, "locks", "proven"),
        counter(&json, "locks", "effect_obligations")
    );
    assert_quotes(
        skill_rel,
        &skill,
        &effects,
        "locks.proven/effect_obligations",
    );
    let locks = format!("locks_found: {}", counter(&json, "locks", "locks_found"));
    assert_quotes(skill_rel, &skill, &locks, "locks.locks_found");
}

#[test]
fn experiments_quotes_pipeline_speedups() {
    let json = read("BENCH_pipeline.json");
    let doc = read("EXPERIMENTS.md");
    // Each `"scale":` opens one scale's object; its stages follow.
    let scales: Vec<&str> = json.split("\"scale\":").skip(1).collect();
    assert_eq!(scales.len(), 2, "BENCH_pipeline.json scale count changed");
    let per_scale: Vec<(&str, Vec<(&str, &str)>)> = scales
        .iter()
        .map(|seg| {
            let scale = seg.split(',').next().unwrap_or("").trim();
            let stages = values(seg, "stage");
            let speedups = values(seg, "speedup_min");
            assert_eq!(stages.len(), speedups.len(), "scale {scale}");
            (scale, stages.into_iter().zip(speedups).collect())
        })
        .collect();
    let (lo_scale, lo) = &per_scale[0];
    let (hi_scale, hi) = &per_scale[1];
    assert_eq!(lo.len(), 3, "three pipeline stages");
    for ((stage, a), (stage_hi, b)) in lo.iter().zip(hi) {
        assert_eq!(stage, stage_hi, "stage order differs between scales");
        let want = format!("`{stage}` {a}× at scale {lo_scale} and {b}× at scale {hi_scale}");
        assert_quotes("EXPERIMENTS.md", &doc, &want, "speedup_min per scale");
    }
}
