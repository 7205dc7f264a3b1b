//! R004 blocking-under-lock and L008 vfs-bypass: the effect side of
//! the concurrency proofs in [`crate::locks`].
//!
//! **R004** answers "can this thread stall while holding a guard?".
//! Each function gets a *blocking effect* summary — the direct sites
//! where it performs file I/O (`std::fs::…`, `.sync_all()`), stream
//! I/O (`.write_all(`, `.read_exact(`, `.flush(`, `.accept(`…),
//! channel receives (`.recv()`, `.recv_timeout(`), `thread::sleep`,
//! or an empty-argument `.join()` (thread join; `Path::join(arg)`
//! takes arguments and never matches). The summary is lifted to a
//! `may_block` bit over the call graph, and every guard scope computed
//! by [`crate::locks`] is then checked: a direct blocking site or a
//! call to a `may_block` function inside a live guard scope is a
//! finding with an R001-style witness chain down to the concrete
//! blocking operation. `Condvar::wait(guard)` atomically releases the
//! guard for the duration of the wait, so waits on `Condvar`-typed
//! fields are sanctioned, not findings.
//!
//! **L008** is the durability-path proof: modules whose crash
//! consistency is guaranteed by `core::vfs` (scoped in `lint.toml` to
//! `census::{stream,serve,supervisor}` and `synth::loggen`) must not
//! mutate the real filesystem behind the Vfs's back — a raw
//! `std::fs::write`/`rename`/`File::create` there is invisible to the
//! crash-point explorer and voids PR 7's guarantees. The rule is
//! token-level over non-test code lines, with the mutation-token list
//! overridable via `[rules.L008] mutation_tokens`.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::callgraph::{lift, scope_calls, site_chain, Call, Hops, Lattice};
use crate::config::Config;
use crate::lexer::{code_tokens, TokKind, Token};
use crate::locks::{skips, FnLocks, LockDecl};
use crate::report::Diagnostic;
use crate::rules::{code_lines, semantic_finding, token_positions, SemanticRule, Workspace};

/// One direct blocking operation inside a function body.
#[derive(Clone, Debug)]
pub struct EffectSite {
    /// Original token index of the site (for guard-scope containment).
    pub pos: usize,
    /// 1-based source line.
    pub line: usize,
    /// Human description, e.g. `std::fs::rename` or `.recv_timeout(…)`.
    pub desc: String,
}

/// Per-workspace blocking-effect summaries.
pub struct EffectSummaries {
    /// `direct[fn]` = that fn's own blocking sites, in token order.
    pub direct: Vec<Vec<EffectSite>>,
    /// `may_block[fn]` = the fn, or anything it may call, blocks.
    pub may_block: Vec<bool>,
    /// For lifted bits: the call hop `(callee, line)` that introduced
    /// blocking into a fn with no direct site of its own.
    pub via: Hops<()>,
}

/// The may-block bit; the first blocking callee is the witness.
impl Lattice for bool {
    type Key = ();
    fn is_top(&self) -> bool {
        *self
    }
    fn join(&mut self, callee: &Self, mut hop: impl FnMut(())) -> bool {
        let grew = *callee && !*self;
        if grew {
            *self = true;
            hop(());
        }
        grew
    }
}

/// Methods that block when invoked with any argument list.
const BLOCKING_METHODS: &[(&str, &str)] = &[
    ("sync_all", "fsyncs the file"),
    ("sync_data", "fsyncs the file's data"),
    ("accept", "blocks for an incoming connection"),
    ("write_all", "performs stream I/O"),
    ("read_exact", "performs stream I/O"),
    ("read_line", "performs stream I/O"),
    ("read_to_string", "performs stream I/O"),
    ("read_to_end", "performs stream I/O"),
    ("flush", "flushes buffered I/O"),
    ("recv", "blocks on a channel receive"),
    ("recv_timeout", "blocks on a channel receive"),
    ("recv_deadline", "blocks on a channel receive"),
    ("sleep", "sleeps the thread"),
];

/// Scans every function body for direct blocking sites and lifts them
/// over the call graph to a `may_block` fixpoint. Acquisition and
/// condvar-wait call sites (`summaries[id].skip_parens`) are never
/// effects and never propagation edges.
pub fn summarize(ws: &Workspace<'_>, summaries: &[FnLocks]) -> EffectSummaries {
    let n = ws.symbols.fns.len();
    let mut direct: Vec<Vec<EffectSite>> = vec![Vec::new(); n];
    for (id, _, file, body) in ws.bodies() {
        let skip = summaries.get(id).map(|s| &s.skip_parens);
        direct[id] = direct_effects(&file.tokens, body, skip);
    }

    let mut may_block: Vec<bool> = direct.iter().map(|d| !d.is_empty()).collect();
    let via = lift(ws, &mut may_block, |id, call| skips(summaries, id, call));
    EffectSummaries {
        direct,
        may_block,
        via,
    }
}

/// Token walk over one body range collecting blocking sites.
fn direct_effects(
    tokens: &[Token],
    body: Range<usize>,
    skip: Option<&BTreeSet<usize>>,
) -> Vec<EffectSite> {
    let toks = code_tokens(tokens, body);
    let mut out = Vec::new();
    for j in 0..toks.len() {
        let (orig, t) = toks[j];
        // `std :: fs :: name` — any real-filesystem call blocks (and
        // on the mutation subset, L008 additionally owns the policy).
        if t.is_ident("std")
            && toks.get(j + 1).is_some_and(|(_, x)| x.is_op("::"))
            && toks.get(j + 2).is_some_and(|(_, x)| x.is_ident("fs"))
            && toks.get(j + 3).is_some_and(|(_, x)| x.is_op("::"))
        {
            let name = toks.get(j + 4).map(|(_, x)| x.text.as_str()).unwrap_or("…");
            out.push(EffectSite {
                pos: orig,
                line: t.line,
                desc: format!("std::fs::{name} touches the real filesystem"),
            });
            continue;
        }
        if !t.is_op("(") || j < 2 {
            continue;
        }
        let (mpos, m) = toks[j - 1];
        if m.kind != TokKind::Ident {
            continue;
        }
        let dotted = toks.get(j - 2).is_some_and(|(_, x)| x.is_op("."));
        let pathed = toks.get(j - 2).is_some_and(|(_, x)| x.is_op("::"));
        if !dotted && !pathed {
            continue;
        }
        if skip.is_some_and(|s| s.contains(&orig)) {
            continue; // lock acquisition or sanctioned condvar wait
        }
        // Thread join: `.join()` with an empty argument list. With
        // arguments it is `Path::join`/`Unit::join` — pure.
        let desc =
            if dotted && m.is_ident("join") && toks.get(j + 1).is_some_and(|(_, x)| x.is_op(")")) {
                "`.join()` blocks on thread completion".to_string()
            } else if let Some((_, why)) = BLOCKING_METHODS.iter().find(|(n, _)| m.is_ident(n)) {
                format!("`.{}(…)` {why}", m.text)
            } else {
                continue;
            };
        out.push(EffectSite {
            pos: mpos,
            line: m.line,
            desc,
        });
    }
    out
}

/// Checks every guard scope against the effect summaries and appends
/// R004 findings; updates `stats.effect_obligations` / `stats.proven`.
pub fn blocking_under_lock(
    ws: &Workspace<'_>,
    registry: &[LockDecl],
    summaries: &[FnLocks],
    effects: &EffectSummaries,
    out: &mut Vec<Diagnostic>,
    stats: &mut crate::locks::LockStats,
) {
    let mut seen: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
    for (id, f, file, _) in ws.bodies() {
        let Some(s) = summaries.get(id) else { continue };
        for a in &s.acquired {
            let Some((lo, hi)) = a.scope else { continue };
            let held = &registry[a.lock].id;
            // Obligation 1: no direct blocking site inside the scope.
            for site in effects.direct.get(id).into_iter().flatten() {
                if site.pos <= lo || site.pos >= hi {
                    continue;
                }
                stats.effect_obligations += 1;
                if !seen.insert((id, a.paren, site.pos)) {
                    continue;
                }
                out.push(semantic_finding(
                    "R004",
                    "blocking-under-lock",
                    file,
                    site.line,
                    format!(
                        "{} while holding `{held}` (acquired line {}) — shrink the guard scope or drop before blocking",
                        site.desc, a.line
                    ),
                    Some(format!(
                        "{} holds `{held}` ({}:{}) → {} (line {})",
                        f.qname, file.rel, a.line, site.desc, site.line
                    )),
                ));
            }
            // Obligation 2: no call inside the scope reaches blocking.
            let skip = |call: &Call| s.skip_parens.contains(&call.paren);
            for (call, blocker) in scope_calls(ws, id, (lo, hi), &effects.may_block, skip) {
                stats.effect_obligations += 1;
                let Some(blocker) = blocker else {
                    stats.proven += 1;
                    continue;
                };
                if !seen.insert((id, a.paren, call.paren)) {
                    continue;
                }
                let (path, leaf) = site_chain(ws, blocker, &effects.via, "blocking effect", |f| {
                    let s = effects.direct.get(f)?.first()?;
                    Some((s.desc.as_str(), s.line))
                });
                out.push(semantic_finding(
                    "R004",
                    "blocking-under-lock",
                    file,
                    call.line,
                    format!(
                        "call may block ({leaf}) while holding `{held}` (acquired line {}) — drop the guard before I/O",
                        a.line
                    ),
                    Some(format!(
                        "{} holds `{held}` ({}:{}) → {path}",
                        f.qname, file.rel, a.line
                    )),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- R004

/// R004 blocking-under-lock as a registered semantic rule. The engine
/// runs the shared [`crate::locks::analyze`] pass once for R003+R004;
/// this impl exists for `--list-rules` and direct tests.
pub struct BlockingUnderLock;

impl SemanticRule for BlockingUnderLock {
    fn id(&self) -> &'static str {
        "R004"
    }
    fn name(&self) -> &'static str {
        "blocking-under-lock"
    }
    fn describe(&self) -> &'static str {
        "no path may perform file/stream I/O, sleep, thread join, or a channel receive while a Mutex/RwLock guard is live"
    }
    fn check(&self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        out.extend(crate::locks::analyze(ws, cfg).blocking_findings);
    }
}

// ---------------------------------------------------------------- L008

/// Raw-filesystem mutation tokens L008 bans in durability-scoped
/// modules. Short `fs::` forms also match fully qualified
/// `std::fs::…` spellings (the boundary check treats `:` as a
/// separator). Overridable via `[rules.L008] mutation_tokens`.
pub const MUTATION_TOKENS: &[&str] = &[
    "fs::write",
    "fs::rename",
    "fs::remove_file",
    "fs::remove_dir_all",
    "fs::create_dir_all",
    "fs::create_dir",
    "fs::copy",
    "fs::hard_link",
    "fs::set_permissions",
    "File::create",
    "OpenOptions::new",
    ".sync_all(",
    ".sync_data(",
];

/// L008 vfs-bypass: durability-scoped modules must route every
/// filesystem mutation through `core::vfs`.
pub struct VfsBypass;

impl SemanticRule for VfsBypass {
    fn id(&self) -> &'static str {
        "L008"
    }
    fn name(&self) -> &'static str {
        "vfs-bypass"
    }
    fn describe(&self) -> &'static str {
        "durability-scoped modules must not mutate the real filesystem directly — route writes/renames/fsyncs through core::vfs"
    }
    fn check(&self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        let configured = cfg.list("rules.L008", "mutation_tokens");
        let defaults: Vec<String> = MUTATION_TOKENS.iter().map(|s| s.to_string()).collect();
        let tokens: &[String] = if configured.is_empty() {
            &defaults
        } else {
            configured
        };
        for file in ws.files {
            for (line_no, code) in code_lines(file) {
                for tok in tokens {
                    if !token_positions(code, tok).is_empty() {
                        out.push(semantic_finding(
                            "L008",
                            "vfs-bypass",
                            file,
                            line_no,
                            format!(
                                "raw filesystem mutation `{}` bypasses core::vfs — crash-point exploration cannot see it; use the module's Vfs handle",
                                tok.trim_end_matches('(')
                            ),
                            None,
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::scan::scan;
    use crate::symbols::SymbolTable;
    use std::path::PathBuf;

    fn run(src: &str) -> crate::locks::LockAnalysis {
        let scanned = vec![scan(
            PathBuf::from("crates/x/src/lib.rs"),
            "crates/x/src/lib.rs".into(),
            src,
        )];
        let symbols = SymbolTable::build(&scanned);
        let calls = CallGraph::build(&symbols, &scanned);
        let ws = Workspace {
            files: &scanned,
            symbols: &symbols,
            calls: &calls,
        };
        crate::locks::analyze(&ws, &Config::default())
    }

    #[test]
    fn sleep_under_guard_is_flagged() {
        let a = run("\
use std::sync::Mutex;
use std::time::Duration;
static A: Mutex<u32> = Mutex::new(0);
fn bad() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    std::thread::sleep(Duration::from_millis(1));
    drop(g);
}
");
        assert_eq!(a.blocking_findings.len(), 1, "{:?}", a.blocking_findings);
        let d = &a.blocking_findings[0];
        assert_eq!(d.rule, "R004");
        assert!(
            d.chain.as_deref().is_some_and(|c| c.contains("`A`")),
            "{d:?}"
        );
    }

    #[test]
    fn guard_dropped_before_blocking_is_clean() {
        let a = run("\
use std::sync::Mutex;
use std::time::Duration;
static A: Mutex<u32> = Mutex::new(0);
fn ok() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    drop(g);
    std::thread::sleep(Duration::from_millis(1));
}
");
        assert!(a.blocking_findings.is_empty(), "{:?}", a.blocking_findings);
    }

    #[test]
    fn condvar_wait_releases_the_guard() {
        let a = run("\
use std::sync::{Condvar, Mutex};
struct Q { state: Mutex<bool>, cv: Condvar }
impl Q {
    fn pump(&self) {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while !*g {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}
");
        assert!(a.blocking_findings.is_empty(), "{:?}", a.blocking_findings);
    }

    #[test]
    fn transitive_blocking_through_a_callee_is_flagged() {
        let a = run("\
use std::sync::Mutex;
static A: Mutex<u32> = Mutex::new(0);
fn flush_logs() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}
fn bad() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    flush_logs();
    drop(g);
}
");
        assert_eq!(a.blocking_findings.len(), 1, "{:?}", a.blocking_findings);
        let chain = a.blocking_findings[0].chain.as_deref().unwrap_or("");
        assert!(chain.contains("x::flush_logs"), "{chain}");
    }

    #[test]
    fn path_join_with_args_is_not_thread_join() {
        let a = run("\
use std::path::{Path, PathBuf};
use std::sync::Mutex;
static A: Mutex<u32> = Mutex::new(0);
fn ok(dir: &Path) -> PathBuf {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    let p = dir.join(\"segment\");
    drop(g);
    p
}
");
        assert!(a.blocking_findings.is_empty(), "{:?}", a.blocking_findings);
    }

    #[test]
    fn vfs_bypass_flags_raw_fs_write() {
        let src = "\
pub fn persist(path: &str, data: &[u8]) -> std::io::Result<()> {
    std::fs::write(path, data)
}
";
        let scanned = vec![scan(
            PathBuf::from("crates/x/src/lib.rs"),
            "crates/x/src/lib.rs".into(),
            src,
        )];
        let symbols = SymbolTable::build(&scanned);
        let calls = CallGraph::build(&symbols, &scanned);
        let ws = Workspace {
            files: &scanned,
            symbols: &symbols,
            calls: &calls,
        };
        let mut out = Vec::new();
        VfsBypass.check(&ws, &Config::default(), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("fs::write"), "{:?}", out[0]);
    }
}
