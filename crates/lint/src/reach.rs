//! R001 panic-reachability: an interprocedural proof that no non-test
//! call path from the configured entry points reaches a panicking
//! construct.
//!
//! The workspace's exit-code contract says a run ends with a documented
//! `EXIT_*` status — which is only true if nothing on the way can
//! `panic!` its way past `main`. L001 already forbids panicking
//! constructs file-by-file inside its scoped paths, but a lexical rule
//! cannot see that `cli::main → census::run_census → …` crosses into a
//! crate outside those paths. This pass can: it walks the
//! [`crate::callgraph`] breadth-first from each entry point in
//! `lint.toml`'s `[reach] entry_points` (default `cli::main`) and flags
//! every reachable panic site, printing the full call chain
//! (`cli::main → census::supervisor::run_census → …`).
//!
//! A site is exempt when the line carries a valid reasoned pragma for
//! the lexical rule that owns the construct (`L001` for panics and
//! literal indexing, `L006` for overflow-capable arithmetic) — those
//! risks are already argued in place — or when the finding itself is
//! suppressed with `allow(R001, reason = …)`.
//!
//! Because the call graph over-approximates (see `callgraph`), a clean
//! run is a proof; a finding is a lead that names its witness chain.

use std::collections::BTreeMap;

use crate::callgraph::{reach, render, tree_path};
use crate::config::Config;
use crate::report::Diagnostic;
use crate::rules::{
    arith_sites, code_lines, literal_index_positions, semantic_finding, token_positions,
    SemanticRule, Workspace, PANIC_TOKENS,
};

/// Entry points assumed when `lint.toml` has no `[reach]` section.
const DEFAULT_ENTRY_POINTS: &[&str] = &["cli::main"];

/// The R001 panic-reachability rule.
pub struct PanicReach;

impl SemanticRule for PanicReach {
    fn id(&self) -> &'static str {
        "R001"
    }
    fn name(&self) -> &'static str {
        "panic-reachability"
    }
    fn describe(&self) -> &'static str {
        "no non-test call path from the [reach] entry points may hit a panicking construct without a reasoned pragma"
    }
    fn check(&self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        let configured = cfg.list("reach", "entry_points");
        let entries: Vec<String> = if configured.is_empty() {
            DEFAULT_ENTRY_POINTS.iter().map(|s| s.to_string()).collect()
        } else {
            configured.to_vec()
        };

        // Each root is labelled by the first entry point naming it.
        let mut entry_label: BTreeMap<usize, &str> = BTreeMap::new();
        for entry in &entries {
            for id in ws.symbols.find_by_suffix(entry) {
                entry_label.entry(id).or_insert(entry);
            }
        }
        let parent = reach(
            ws,
            entries.iter().flat_map(|e| ws.symbols.find_by_suffix(e)),
        );

        for (fidx, file) in ws.files.iter().enumerate() {
            for (line_no, what, owner) in panic_sites(file, cfg) {
                // A reasoned pragma for the owning lexical rule means
                // this site's risk is already argued in place.
                let argued = file.pragmas.iter().any(|p| {
                    p.error.is_none()
                        && p.rule == owner
                        && (p.target_line.is_none() || p.target_line == Some(line_no))
                });
                if argued {
                    continue;
                }
                let Some(fn_id) = enclosing_fn(ws, fidx, line_no) else {
                    continue;
                };
                if !parent.contains_key(&fn_id) {
                    continue;
                }
                let path = tree_path(ws, &parent, fn_id);
                let entry = path.first().and_then(|r| entry_label.get(r)).unwrap_or(&"");
                out.push(semantic_finding(
                    self.id(),
                    self.name(),
                    file,
                    line_no,
                    format!(
                        "{what} is reachable from entry `{entry}` — make the path total or pragma the site with a reason"
                    ),
                    Some(render(ws, &path)),
                ));
            }
        }
    }
}

/// Panic sites of one file as `(line, what, owning lexical rule)`.
/// L001-family constructs count everywhere; overflow-capable arithmetic
/// counts only where `lint.toml` puts L006 in scope (arithmetic is
/// ordinary outside bit-math modules).
fn panic_sites(
    file: &crate::scan::ScannedFile,
    cfg: &Config,
) -> Vec<(usize, String, &'static str)> {
    let mut sites = Vec::new();
    for (line_no, code) in code_lines(file) {
        for &(tok, _why) in PANIC_TOKENS {
            if !token_positions(code, tok).is_empty() {
                sites.push((line_no, format!("`{}`", tok.trim_end_matches('(')), "L001"));
            }
        }
        if !literal_index_positions(code).is_empty() {
            sites.push((line_no, "literal indexing".to_string(), "L001"));
        }
    }
    if cfg.rule_applies("L006", &file.rel) && cfg.has_section("rules.L006") {
        for (line_no, what) in arith_sites(file) {
            sites.push((line_no, what, "L006"));
        }
    }
    sites
}

/// The innermost function of `file` whose body spans `line`.
fn enclosing_fn(ws: &Workspace<'_>, fidx: usize, line: usize) -> Option<usize> {
    let file = ws.files.get(fidx)?;
    let mut best: Option<(usize, usize)> = None; // (body start line, fn id)
    for (id, f) in ws.symbols.fns.iter().enumerate() {
        if f.file != fidx {
            continue;
        }
        let Some((s, e)) = f.body else { continue };
        let Some(start) = file.tokens.get(s).map(|t| t.line) else {
            continue;
        };
        let Some(end) = file.tokens.get(e.saturating_sub(1)).map(|t| t.end_line) else {
            continue;
        };
        if (start..=end).contains(&line) && best.is_none_or(|(bs, _)| start >= bs) {
            best = Some((start, id));
        }
    }
    best.map(|(_, id)| id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::scan::{scan, ScannedFile};
    use crate::symbols::SymbolTable;
    use std::path::PathBuf;

    fn check_reach(cfg: &Config, files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let scanned: Vec<ScannedFile> = files
            .iter()
            .map(|(rel, src)| scan(PathBuf::from(rel), (*rel).into(), src))
            .collect();
        let symbols = SymbolTable::build(&scanned);
        let calls = CallGraph::build(&symbols, &scanned);
        let ws = Workspace {
            files: &scanned,
            symbols: &symbols,
            calls: &calls,
        };
        let mut out = Vec::new();
        PanicReach.check(&ws, cfg, &mut out);
        out
    }

    fn entry_cfg(entries: &str) -> Config {
        Config::parse(&format!("[reach]\nentry_points = [{entries}]\n")).expect("config parses")
    }

    #[test]
    fn reachable_panic_is_found_with_its_chain() {
        let cli = "\
use v6census_census::supervisor::run_census;
fn main() { run_census(); }
";
        let census = "\
use v6census_trie::node::node_at;
pub fn run_census() { densify(); }
fn densify() { node_at(); }
";
        let trie = "\
pub fn node_at() {
    let v: Vec<u8> = Vec::new();
    v.get(9).unwrap();
}
";
        let diags = check_reach(
            &entry_cfg("\"cli::main\""),
            &[
                ("crates/cli/src/main.rs", cli),
                ("crates/census/src/supervisor.rs", census),
                ("crates/trie/src/node.rs", trie),
            ],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = diags.first().expect("one finding");
        assert_eq!(d.rel, "crates/trie/src/node.rs");
        assert_eq!(d.line, 3);
        assert!(d.message.contains(".unwrap"), "{}", d.message);
        assert_eq!(
            d.chain.as_deref(),
            Some(
                "cli::main → census::supervisor::run_census → census::supervisor::densify → trie::node::node_at"
            ),
            "{:?}",
            d.chain
        );
    }

    #[test]
    fn chains_cross_impl_trait_signatures() {
        // Regression: an `impl Trait` param used to make the symbol
        // table drop `helper`'s body, so this chain went unseen and the
        // "clean run is a proof" contract was silently false.
        let src = "\
fn main() { helper(1, |x| x); }
fn helper(n: u64, f: impl Fn(u64) -> u64) -> u64 { boom(f(n)) }
fn boom(n: u64) -> u64 { n.checked_add(1).unwrap() }
";
        let diags = check_reach(
            &entry_cfg("\"cli::main\""),
            &[("crates/cli/src/main.rs", src)],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = diags.first().expect("one finding");
        assert_eq!(d.line, 3);
        assert_eq!(
            d.chain.as_deref(),
            Some("cli::main → cli::helper → cli::boom"),
            "{:?}",
            d.chain
        );
    }

    #[test]
    fn unreachable_and_test_panics_are_ignored() {
        let src = "\
fn main() { safe(); }
fn safe() {}
fn dead_code() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
";
        let diags = check_reach(
            &entry_cfg("\"cli::main\""),
            &[("crates/cli/src/main.rs", src)],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn pragmad_sites_are_exempt_but_bare_ones_are_not() {
        let src = "\
fn main() {
    argued();
    bare();
}
fn argued() {
    x.unwrap(); // lint: allow(L001, reason = \"invariant: seeded above\")
}
fn bare() {
    y.unwrap();
}
";
        let diags = check_reach(
            &entry_cfg("\"cli::main\""),
            &[("crates/cli/src/main.rs", src)],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags.first().map(|d| d.line), Some(9));
    }

    #[test]
    fn multiple_entry_points_are_walked() {
        let src = "\
pub fn census() { boom(); }
pub fn synth() {}
fn boom() { panic!(\"no\"); }
";
        let none = check_reach(
            &entry_cfg("\"commands::synth\""),
            &[("crates/cli/src/commands/mod.rs", src)],
        );
        assert!(none.is_empty(), "{none:?}");
        let hit = check_reach(
            &entry_cfg("\"commands::synth\", \"commands::census\""),
            &[("crates/cli/src/commands/mod.rs", src)],
        );
        assert_eq!(hit.len(), 1, "{hit:?}");
        assert!(
            hit.first()
                .and_then(|d| d.chain.as_deref())
                .is_some_and(|c| c.contains("cli::commands::census")),
            "{hit:?}"
        );
    }
}
