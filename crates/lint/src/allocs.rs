//! R005 alloc-in-hot-loop and R006 capacity-discipline: the
//! allocation-effect side of the performance proofs.
//!
//! The census hot paths — trie descent, aggregate counting, the ±7-day
//! stability window, nybble extraction — process one record per active
//! address, so a single per-item heap allocation multiplies into
//! hundreds of millions at paper scale (318M daily addresses in
//! Plonka & Berger's data). This pass turns "this loop allocates" into
//! a machine-checked obligation, the same proof-not-promise posture
//! R001–R004 established for panics, bit ranges, and locks.
//!
//! Every function gets an *allocation effect* on a three-point
//! lattice, `NoAlloc < AmortizedAlloc < AllocPerCall`:
//!
//! * `NoAlloc` — no allocating construct at all;
//! * `AmortizedAlloc` — allocation proportional to a one-time capacity
//!   reservation (`with_capacity`, `reserve`) or growth into an
//!   already-reserved buffer (`push`/`extend` — whether those are
//!   *actually* reserved is R006's separate obligation);
//! * `AllocPerCall` — an unconditional fresh allocation per invocation:
//!   `Vec::new`/`Box::new`/`String::new`-style constructors, `vec!` /
//!   `format!`, `.to_string()`, `.to_owned()`, `.to_vec()`,
//!   `.clone()`, `.collect()`.
//!
//! Direct effects are lifted over the call graph to a max-lattice
//! fixpoint by `callgraph::lift`, with `via` hops recorded so
//! findings can print the concrete allocation site.
//!
//! Loop scopes are tracked token-precisely: `for`/`while`/`loop`
//! bodies by brace matching, plus closure bodies passed to per-element
//! iterator adapters (`.map(|…| …)`, `.for_each`, `.filter`, `.fold`,
//! …). A closure bound to a `let` is *not* a loop scope — only one
//! syntactically passed to an adapter runs per element.
//!
//! **R005** walks the call graph from the `[hot] entry_points`
//! (default: every non-test function) and flags any `AllocPerCall`
//! construct or call inside a reachable loop scope, printing an
//! R001-style witness chain
//! `hot entry → … → loop @ file:line → allocation site`.
//!
//! **R006** is intraprocedural: a `Vec`/`String` grown inside a loop
//! (`push`/`push_str`/`extend`/`extend_from_slice`/`append`) must show
//! a dominating reservation before the growth site (`with_capacity`
//! assignment, `.reserve(…)`, or `.clear()`-and-reuse), be a `&mut`
//! out-param (the caller owns the reservation), or be a field of
//! `&mut self` (the structure owns its buffer across calls, e.g. an
//! arena). Everything else is an unreserved growth loop: a
//! reallocation storm at census scale.
//!
//! Both rules are scoped by `[hot] paths` in `lint.toml` (empty or
//! absent = everywhere, which is what the fixture tests rely on).

use std::collections::BTreeSet;

use crate::callgraph::{
    lift, reach, render, scope_calls, site_chain, tree_path, Call, Hops, Lattice,
};
use crate::config::Config;
use crate::lexer::{code_tokens, TokKind, Token};
use crate::report::Diagnostic;
use crate::rules::{semantic_finding, SemanticRule, Workspace};

/// A function's allocation effect. `Ord` follows the lattice:
/// `NoAlloc < AmortizedAlloc < AllocPerCall`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum AllocEffect {
    /// No allocating construct, directly or transitively.
    #[default]
    NoAlloc,
    /// Allocates only via capacity reservations or reserved growth.
    AmortizedAlloc,
    /// Performs an unconditional fresh allocation per invocation.
    AllocPerCall,
}

/// The max-lattice; only `AllocPerCall` records a witness hop. Every
/// per-call callee of the call that lifts a fn records its hop, so the
/// last one wins — the highest id, as callee lists ascend.
impl Lattice for AllocEffect {
    type Key = ();
    fn is_top(&self) -> bool {
        *self == AllocEffect::AllocPerCall
    }
    fn join(&mut self, callee: &Self, mut hop: impl FnMut(())) -> bool {
        if callee.is_top() {
            hop(());
        }
        let grew = callee > self;
        if grew {
            *self = *callee;
        }
        grew
    }
}

/// One direct allocating construct inside a function body.
#[derive(Clone, Debug)]
pub struct AllocSite {
    /// Original token index (for loop-scope containment).
    pub pos: usize,
    /// 1-based source line.
    pub line: usize,
    /// Human description, e.g. `Vec::new` or `.to_string()`.
    pub desc: String,
    /// What this site contributes to the lattice.
    pub effect: AllocEffect,
}

/// One loop scope inside a function body, as a token range.
#[derive(Clone, Debug)]
pub struct LoopScope {
    /// Token index of the opening `{` (keyword loops) or the closure's
    /// opening `|` (adapter loops); sites strictly inside count.
    pub open: usize,
    /// Token index of the matching `}` / the adapter call's `)`.
    pub close: usize,
    /// 1-based line of the loop keyword / adapter name.
    pub line: usize,
    /// `for` / `while` / `loop` or the adapter name (`map`, `fold`…).
    pub kind: String,
}

/// Per-workspace allocation-effect summaries.
pub struct AllocSummaries {
    /// `direct[fn]` = that fn's own allocating sites, in token order.
    pub direct: Vec<Vec<AllocSite>>,
    /// `effect[fn]` = the lifted lattice point (max over callees).
    pub effect: Vec<AllocEffect>,
    /// For lifted `AllocPerCall` bits: the call hop `(callee, line)`
    /// that introduced per-call allocation into a fn with no direct
    /// per-call site of its own.
    pub via: Hops<()>,
    /// `loops[fn]` = that fn's loop scopes, in token order.
    pub loops: Vec<Vec<LoopScope>>,
}

/// Counters for `BENCH_lint.json`'s `allocs` block and the self-check.
#[derive(Clone, Debug, Default)]
pub struct AllocStats {
    /// Non-test functions with bodies that received a summary.
    pub fns_summarized: usize,
    /// Of those, how many land on each lattice point (post-lift).
    pub no_alloc_fns: usize,
    /// Functions whose effect lifted to `AmortizedAlloc`.
    pub amortized_fns: usize,
    /// Functions whose effect lifted to `AllocPerCall`.
    pub per_call_fns: usize,
    /// Resolved `[hot]` entry-point functions.
    pub hot_entry_points: usize,
    /// Loop scopes found across all summarized functions.
    pub loops_scanned: usize,
    /// R005: sites/calls examined inside hot-reachable loops, and how
    /// many were proven allocation-free per iteration.
    pub hot_loop_obligations: usize,
    /// Of the R005 obligations, how many were proven per-iteration free.
    pub hot_loop_proven: usize,
    /// R006: growth sites examined inside loops, and how many showed a
    /// dominating reservation / out-param discipline.
    pub capacity_obligations: usize,
    /// Of the R006 obligations, how many carried a reservation proof.
    pub capacity_proven: usize,
}

/// The result of the shared R005+R006 pass.
pub struct AllocAnalysis {
    /// R005 alloc-in-hot-loop findings.
    pub hot_findings: Vec<Diagnostic>,
    /// R006 capacity-discipline findings.
    pub capacity_findings: Vec<Diagnostic>,
    /// Summaries (exposed for the bench and for tests).
    pub summaries: AllocSummaries,
    /// Counters for the bench's `allocs` block and the self-check.
    pub stats: AllocStats,
}

/// Allocating constructors in path form `Type::method(` — each is an
/// unconditional fresh allocation (or, for `Vec::new`, the root of an
/// unreserved growth buffer, which costs the same by the first push).
const PER_CALL_CTORS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "from"),
    ("VecDeque", "new"),
    ("String", "new"),
    ("String", "from"),
    ("Box", "new"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
    ("HashMap", "new"),
    ("HashSet", "new"),
];

/// Allocating method calls `.name(` — fresh allocation per call.
const PER_CALL_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "clone", "collect"];

/// Allocating macros `name!` — each expansion allocates.
const PER_CALL_MACROS: &[&str] = &["vec", "format"];

/// Capacity-reserving calls — `AmortizedAlloc`.
const RESERVE_METHODS: &[&str] = &["reserve", "reserve_exact"];

/// Growth methods — `AmortizedAlloc` on the effect lattice (R006 owns
/// the question of whether the buffer was actually reserved).
const GROW_METHODS: &[&str] = &["push", "push_str", "extend", "extend_from_slice", "append"];

/// Iterator adapters whose closure argument runs once per element:
/// a closure body passed to one of these is a loop scope.
const ADAPTER_LOOPS: &[&str] = &[
    "map",
    "for_each",
    "filter",
    "filter_map",
    "flat_map",
    "fold",
    "retain",
    "retain_mut",
    "any",
    "all",
    "find",
    "find_map",
    "position",
    "take_while",
    "skip_while",
    "map_while",
    "scan",
    "inspect",
    "partition",
    "max_by_key",
    "min_by_key",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// True when `rel` is inside the `[hot] paths` scope (empty or absent
/// section = everywhere, as in `Config::rule_applies`).
pub fn hot_scope_applies(cfg: &Config, rel: &str) -> bool {
    let paths = cfg.list("hot", "paths");
    paths.is_empty() || paths.iter().any(|p| rel.starts_with(p.as_str()))
}

/// True when a method-call expression (`.push`, `.clone`, …) is one
/// the direct-site classifier owns. The call graph over-approximates
/// method calls to every same-name workspace method, so `.push(` on a
/// `Vec` would otherwise pick up the allocation effect of an unrelated
/// workspace `push` — for these names the std-container semantics in
/// the site tables is the model, and the call edge is noise.
fn classifier_owned(expr: &str) -> bool {
    expr.strip_prefix('.').is_some_and(|n| {
        PER_CALL_METHODS.contains(&n)
            || RESERVE_METHODS.contains(&n)
            || GROW_METHODS.contains(&n)
            || n == "with_capacity"
    })
}

/// The shared pass: summarize every function, then run both rules.
pub fn analyze(ws: &Workspace<'_>, cfg: &Config) -> AllocAnalysis {
    let summaries = summarize(ws);
    let mut stats = AllocStats::default();
    for (id, f) in ws.symbols.fns.iter().enumerate() {
        if f.is_test || f.body.is_none() {
            continue;
        }
        stats.fns_summarized += 1;
        stats.loops_scanned += summaries.loops.get(id).map(Vec::len).unwrap_or(0);
        match summaries.effect.get(id) {
            Some(AllocEffect::NoAlloc) => stats.no_alloc_fns += 1,
            Some(AllocEffect::AmortizedAlloc) => stats.amortized_fns += 1,
            Some(AllocEffect::AllocPerCall) => stats.per_call_fns += 1,
            None => {}
        }
    }
    let hot_findings = hot_loop_check(ws, cfg, &summaries, &mut stats);
    let capacity_findings = capacity_check(ws, &summaries, &mut stats);
    AllocAnalysis {
        hot_findings,
        capacity_findings,
        summaries,
        stats,
    }
}

/// Scans every function body for direct allocating sites and loop
/// scopes, then lifts the effects over the call graph to a max-lattice
/// fixpoint, skipping calls the site classifier owns.
pub fn summarize(ws: &Workspace<'_>) -> AllocSummaries {
    let n = ws.symbols.fns.len();
    let mut direct: Vec<Vec<AllocSite>> = vec![Vec::new(); n];
    let mut loops: Vec<Vec<LoopScope>> = vec![Vec::new(); n];
    for (id, _, file, body) in ws.bodies() {
        let body = code_tokens(&file.tokens, body);
        direct[id] = direct_sites(&body);
        loops[id] = loop_scopes(&body);
    }

    let mut effect: Vec<AllocEffect> = direct
        .iter()
        .map(|d| {
            d.iter()
                .map(|s| s.effect)
                .max()
                .unwrap_or(AllocEffect::NoAlloc)
        })
        .collect();
    let via = lift(ws, &mut effect, |_, call| classifier_owned(&call.expr));
    AllocSummaries {
        direct,
        effect,
        via,
        loops,
    }
}

/// Token walk over one body collecting direct allocating sites.
fn direct_sites(toks: &[(usize, &Token)]) -> Vec<AllocSite> {
    use AllocEffect::{AllocPerCall, AmortizedAlloc};
    let site = |pos, line, desc, effect| AllocSite {
        pos,
        line,
        desc,
        effect,
    };
    let mut out = Vec::new();
    for j in 0..toks.len() {
        let Some(&(orig, t)) = toks.get(j) else {
            continue;
        };
        // Allocating macro: `vec !` / `format !`.
        if t.kind == TokKind::Ident
            && PER_CALL_MACROS.iter().any(|m| t.is_ident(m))
            && toks.get(j + 1).is_some_and(|&(_, x)| x.is_op("!"))
        {
            out.push(site(orig, t.line, format!("{}!", t.text), AllocPerCall));
            continue;
        }
        if !t.is_op("(") || j < 2 {
            continue;
        }
        let Some(&(mpos, m)) = toks.get(j - 1) else {
            continue;
        };
        if m.kind != TokKind::Ident {
            continue;
        }
        let dotted = toks
            .get(j.wrapping_sub(2))
            .is_some_and(|&(_, x)| x.is_op("."));
        let pathed = toks
            .get(j.wrapping_sub(2))
            .is_some_and(|&(_, x)| x.is_op("::"));
        // `Type :: method (` — allocating constructors, with_capacity.
        if pathed {
            let ty = toks.get(j.wrapping_sub(3)).map(|&(_, x)| x.text.as_str());
            if let Some(ty) = ty {
                if PER_CALL_CTORS
                    .iter()
                    .any(|&(t0, m0)| ty == t0 && m.is_ident(m0))
                {
                    out.push(site(
                        mpos,
                        m.line,
                        format!("{ty}::{}", m.text),
                        AllocPerCall,
                    ));
                    continue;
                }
            }
            if m.is_ident("with_capacity") {
                out.push(site(
                    mpos,
                    m.line,
                    "with_capacity".to_string(),
                    AmortizedAlloc,
                ));
                continue;
            }
        }
        if !dotted {
            continue;
        }
        // `.method (` — per-call copies, reservations, growth.
        if PER_CALL_METHODS.iter().any(|n| m.is_ident(n)) {
            out.push(site(mpos, m.line, format!(".{}()", m.text), AllocPerCall));
        } else if RESERVE_METHODS
            .iter()
            .chain(GROW_METHODS)
            .any(|n| m.is_ident(n))
        {
            // Reservations and (presumed-reserved) growth both land on
            // the amortized point; R006 separately audits the growth
            // sites for an actual dominating reservation.
            out.push(site(mpos, m.line, format!(".{}()", m.text), AmortizedAlloc));
        }
    }
    out
}

/// Token walk over one body collecting loop scopes: keyword loops by
/// brace matching, iterator-adapter closures by paren matching.
fn loop_scopes(toks: &[(usize, &Token)]) -> Vec<LoopScope> {
    let mut out = Vec::new();
    for j in 0..toks.len() {
        let Some(&(_, t)) = toks.get(j) else { continue };
        if t.kind == TokKind::Ident
            && (t.is_ident("for") || t.is_ident("while") || t.is_ident("loop"))
        {
            // `for<'a>` in a higher-ranked bound is not a loop.
            if toks.get(j + 1).is_some_and(|&(_, x)| x.is_op("<")) {
                continue;
            }
            if let Some((open, close, _)) = keyword_loop_body(toks, j) {
                out.push(LoopScope {
                    open,
                    close,
                    line: t.line,
                    kind: t.text.clone(),
                });
            }
            continue;
        }
        // `. adapter ( … |closure| … )` — per-element closure scope.
        if t.is_op(".")
            && toks
                .get(j + 1)
                .is_some_and(|&(_, x)| ADAPTER_LOOPS.iter().any(|a| x.is_ident(a)))
            && toks.get(j + 2).is_some_and(|&(_, x)| x.is_op("("))
        {
            let Some(&(_, name)) = toks.get(j + 1) else {
                continue;
            };
            if let Some((open, close)) = adapter_closure_scope(toks, j + 2) {
                out.push(LoopScope {
                    open,
                    close,
                    line: name.line,
                    kind: name.text.clone(),
                });
            }
        }
    }
    out
}

/// From a loop keyword at `kw`, finds the body's `{ … }` token range:
/// the first `{` outside parens/brackets before a `;`, then its
/// matching `}`. Returns original token indices `(open, close, ok)`.
fn keyword_loop_body(toks: &[(usize, &Token)], kw: usize) -> Option<(usize, usize, usize)> {
    let mut depth = 0i32;
    let mut j = kw + 1;
    let open_at = loop {
        let &(_, t) = toks.get(j)?;
        if t.is_op("(") || t.is_op("[") {
            depth += 1;
        } else if t.is_op(")") || t.is_op("]") {
            depth -= 1;
        } else if t.is_op(";") && depth <= 0 {
            return None;
        } else if t.is_op("{") && depth <= 0 {
            break j;
        }
        j += 1;
    };
    let mut braces = 0i32;
    let mut k = open_at;
    loop {
        let &(orig, t) = toks.get(k)?;
        if t.is_op("{") {
            braces += 1;
        } else if t.is_op("}") {
            braces -= 1;
            if braces == 0 {
                let &(open_orig, _) = toks.get(open_at)?;
                return Some((open_orig, orig, k));
            }
        }
        k += 1;
    }
}

/// From an adapter's `(` at `open_paren`, finds the closure scope:
/// the first `|` directly inside the call (paren depth 1) through the
/// call's matching `)`. `fold(init, |acc, x| …)` starts at the `|`, so
/// the once-per-call init expression is outside the scope. Returns
/// `None` when no closure is passed (e.g. `.map(f)`).
fn adapter_closure_scope(toks: &[(usize, &Token)], open_paren: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut pipe: Option<usize> = None;
    let mut k = open_paren;
    loop {
        let &(orig, t) = toks.get(k)?;
        if t.is_op("(") || t.is_op("[") || t.is_op("{") {
            depth += 1;
        } else if t.is_op(")") || t.is_op("]") || t.is_op("}") {
            depth -= 1;
            if depth == 0 {
                return pipe.map(|p| (p, orig));
            }
        } else if t.is_op("|") && depth == 1 && pipe.is_none() {
            pipe = Some(orig);
        }
        k += 1;
    }
}

/// R005: BFS the call graph from the `[hot] entry_points` and flag
/// per-call allocation inside any reachable loop scope.
fn hot_loop_check(
    ws: &Workspace<'_>,
    cfg: &Config,
    sums: &AllocSummaries,
    stats: &mut AllocStats,
) -> Vec<Diagnostic> {
    // Entry points: configured suffixes, or every non-test fn when the
    // section is absent (fixture tests run config-free).
    let configured = cfg.list("hot", "entry_points");
    let parent = if configured.is_empty() {
        reach(ws, 0..ws.symbols.fns.len())
    } else {
        reach(
            ws,
            configured.iter().flat_map(|e| ws.symbols.find_by_suffix(e)),
        )
    };
    stats.hot_entry_points = parent.values().filter(|p| p.is_none()).count();

    let mut out = Vec::new();
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (&id, _) in parent.iter() {
        let Some(f) = ws.symbols.fns.get(id) else {
            continue;
        };
        let Some(file) = ws.files.get(f.file) else {
            continue;
        };
        for lp in sums.loops.get(id).map(Vec::as_slice).unwrap_or(&[]) {
            let chain = |tail: String| {
                let entry = render(ws, &tree_path(ws, &parent, id));
                Some(format!(
                    "{entry} → loop @ {}:{} → {tail}",
                    file.rel, lp.line
                ))
            };
            // Obligation 1: no direct per-call construct in the loop.
            for site in sums.direct.get(id).into_iter().flatten() {
                if site.pos <= lp.open || site.pos >= lp.close {
                    continue;
                }
                stats.hot_loop_obligations += 1;
                if site.effect != AllocEffect::AllocPerCall {
                    stats.hot_loop_proven += 1;
                    continue;
                }
                if !seen.insert((id, site.pos)) {
                    continue;
                }
                out.push(semantic_finding(
                    "R005",
                    "alloc-in-hot-loop",
                    file,
                    site.line,
                    format!(
                        "`{}` allocates on every iteration of this hot `{}` loop (line {}) — hoist the buffer or reserve once outside",
                        site.desc, lp.kind, lp.line
                    ),
                    chain(format!("{} ({}:{})", site.desc, file.rel, site.line)),
                ));
            }
            // Obligation 2: no call in the loop reaches AllocPerCall.
            // Foreign calls have no obligation: the direct-site scan owns them.
            let scope = (lp.open, lp.close);
            let skip = |call: &Call| classifier_owned(&call.expr);
            for (call, allocator) in scope_calls(ws, id, scope, &sums.effect, skip) {
                stats.hot_loop_obligations += 1;
                let Some(allocator) = allocator else {
                    stats.hot_loop_proven += 1;
                    continue;
                };
                if !seen.insert((id, call.paren)) {
                    continue;
                }
                let (path, leaf) =
                    site_chain(ws, allocator, &sums.via, "per-call allocation", |f| {
                        let d = sums.direct.get(f)?;
                        let s = d.iter().find(|s| s.effect == AllocEffect::AllocPerCall)?;
                        Some((s.desc.as_str(), s.line))
                    });
                out.push(semantic_finding(
                    "R005",
                    "alloc-in-hot-loop",
                    file,
                    call.line,
                    format!(
                        "call `{}` allocates on every iteration of this hot `{}` loop (line {}) — via {leaf}; hoist or make the callee allocation-free",
                        call.expr, lp.kind, lp.line
                    ),
                    chain(path),
                ));
            }
        }
    }
    out
}

/// R006: every `Vec`/`String` grown inside a loop must show a
/// dominating reservation, be a `&mut` out-param, or be `&mut self`
/// state. Intraprocedural by design — the obligation names the one
/// function that must hold the discipline.
fn capacity_check(
    ws: &Workspace<'_>,
    sums: &AllocSummaries,
    stats: &mut AllocStats,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, _, file, range) in ws.bodies() {
        let body = code_tokens(&file.tokens, range.clone());
        let sig = signature_tokens(&file.tokens, range.start);
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        for lp in sums.loops.get(id).map(Vec::as_slice).unwrap_or(&[]) {
            for j in 0..body.len() {
                let Some(&(orig, t)) = body.get(j) else {
                    continue;
                };
                if orig <= lp.open || orig >= lp.close {
                    continue;
                }
                if t.kind != TokKind::Ident || !GROW_METHODS.iter().any(|n| t.is_ident(n)) {
                    continue;
                }
                if !body.get(j + 1).is_some_and(|&(_, x)| x.is_op("(")) {
                    continue;
                }
                if !body
                    .get(j.wrapping_sub(1))
                    .is_some_and(|&(_, x)| x.is_op("."))
                {
                    continue;
                }
                let Some(&(_, recv)) = body.get(j.wrapping_sub(2)) else {
                    continue;
                };
                if recv.kind != TokKind::Ident {
                    continue; // chained/indexed receiver: out of scope
                }
                let on_self_field = body
                    .get(j.wrapping_sub(3))
                    .is_some_and(|&(_, x)| x.is_op("."))
                    && body
                        .get(j.wrapping_sub(4))
                        .is_some_and(|&(_, x)| x.is_ident("self"));
                if recv.is_ident("self") {
                    continue; // `self.extend(…)` — the type owns growth
                }
                if !seen.insert(orig) {
                    continue;
                }
                stats.capacity_obligations += 1;
                let proven = if on_self_field {
                    // `&mut self` state: the buffer outlives the call
                    // and its reservation is the constructor's job.
                    sig.iter().any(|&(_, x)| x.is_ident("self"))
                } else {
                    dominating_reservation(&body, j, &recv.text) || mut_out_param(&sig, &recv.text)
                };
                if proven {
                    stats.capacity_proven += 1;
                    continue;
                }
                out.push(semantic_finding(
                    "R006",
                    "capacity-discipline",
                    file,
                    t.line,
                    format!(
                        "`{}` grows via `.{}()` inside a `{}` loop (line {}) with no dominating `with_capacity`/`reserve`, `clear()`-reuse, or `&mut` out-param — unreserved growth reallocates O(log n) times",
                        recv.text, t.text, lp.kind, lp.line
                    ),
                    None,
                ));
            }
        }
    }
    out
}

/// True when a reservation for `recv` dominates the growth site at
/// body index `site`: an earlier `recv.reserve(…)` / `recv.clear(…)`,
/// or an earlier statement binding/assigning `recv` that mentions
/// `with_capacity` before its `;`.
fn dominating_reservation(body: &[(usize, &Token)], site: usize, recv: &str) -> bool {
    for j in 0..site.saturating_sub(2) {
        let Some(&(_, t)) = body.get(j) else { continue };
        if t.kind != TokKind::Ident || !t.is_ident(recv) {
            continue;
        }
        if body.get(j + 1).is_some_and(|&(_, x)| x.is_op(".")) {
            let is_reserve = body.get(j + 2).is_some_and(|&(_, x)| {
                RESERVE_METHODS.iter().any(|n| x.is_ident(n)) || x.is_ident("clear")
            });
            if is_reserve {
                return true;
            }
        }
        // `recv = … with_capacity(…) …;` (also covers `let mut recv`).
        let mut k = j + 1;
        let mut saw_eq = false;
        while let Some(&(_, x)) = body.get(k) {
            if x.is_op(";") || k > j + 40 {
                break;
            }
            if x.is_op("=") {
                saw_eq = true;
            }
            if saw_eq && x.is_ident("with_capacity") {
                return true;
            }
            k += 1;
        }
    }
    false
}

/// True when `recv` is declared `recv: &[lifetime] mut …` in the
/// signature — a caller-owned out-param.
fn mut_out_param(sig: &[(usize, &Token)], recv: &str) -> bool {
    for j in 0..sig.len() {
        let Some(&(_, t)) = sig.get(j) else { continue };
        if t.kind != TokKind::Ident || !t.is_ident(recv) {
            continue;
        }
        if !sig.get(j + 1).is_some_and(|&(_, x)| x.is_op(":")) {
            continue;
        }
        if !sig.get(j + 2).is_some_and(|&(_, x)| x.is_op("&")) {
            continue;
        }
        let mut_near = (3..=4).any(|d| sig.get(j + d).is_some_and(|&(_, x)| x.is_ident("mut")));
        if mut_near {
            return true;
        }
    }
    false
}

/// The tokens of the function signature: backwards from the body's
/// opening brace to the nearest `fn` keyword.
fn signature_tokens(tokens: &[Token], body_start: usize) -> Vec<(usize, &Token)> {
    let mut fn_at = None;
    let lo = body_start.saturating_sub(120);
    for j in (lo..body_start).rev() {
        if tokens.get(j).is_some_and(|t| t.is_ident("fn")) {
            fn_at = Some(j);
            break;
        }
    }
    let Some(fn_at) = fn_at else {
        return Vec::new();
    };
    code_tokens(tokens, fn_at..body_start)
}

// ---------------------------------------------------------------- R005

/// R005 alloc-in-hot-loop as a registered semantic rule. The engine
/// runs the shared [`analyze`] pass once for R005+R006; this impl
/// exists for `--list-rules` and direct tests.
pub struct AllocInHotLoop;

impl SemanticRule for AllocInHotLoop {
    fn id(&self) -> &'static str {
        "R005"
    }
    fn name(&self) -> &'static str {
        "alloc-in-hot-loop"
    }
    fn describe(&self) -> &'static str {
        "no per-call allocation (construct or callee) inside a loop reachable from a [hot] entry point"
    }
    fn check(&self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        out.extend(analyze(ws, cfg).hot_findings);
    }
}

// ---------------------------------------------------------------- R006

/// R006 capacity-discipline as a registered semantic rule.
pub struct CapacityDiscipline;

impl SemanticRule for CapacityDiscipline {
    fn id(&self) -> &'static str {
        "R006"
    }
    fn name(&self) -> &'static str {
        "capacity-discipline"
    }
    fn describe(&self) -> &'static str {
        "a Vec/String grown in a loop must have a dominating with_capacity/reserve, clear()-reuse, or be a &mut out-param"
    }
    fn check(&self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        out.extend(analyze(ws, cfg).capacity_findings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::scan::scan;
    use crate::symbols::SymbolTable;
    use std::path::PathBuf;

    fn run(src: &str) -> (AllocAnalysis, Vec<String>) {
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
        let a = analyze(&ws, &Config::default());
        let qnames = symbols.fns.iter().map(|f| f.qname.clone()).collect();
        (a, qnames)
    }

    #[test]
    fn lattice_classification() {
        let (a, names) = run("\
fn pure(x: u32) -> u32 { x.wrapping_add(1) }
fn amortized(n: usize) -> Vec<u32> {
    let mut v = Vec::with_capacity(n);
    v.push(1);
    v
}
fn per_call() -> Vec<u32> {
    let v = Vec::new();
    v
}
");
        let eff = |suffix: &str| {
            let id = names
                .iter()
                .position(|q| q.ends_with(suffix))
                .expect(suffix);
            a.summaries.effect[id]
        };
        assert_eq!(eff("::pure"), AllocEffect::NoAlloc);
        assert_eq!(eff("::amortized"), AllocEffect::AmortizedAlloc);
        assert_eq!(eff("::per_call"), AllocEffect::AllocPerCall);
        assert_eq!(a.stats.no_alloc_fns, 1);
        assert_eq!(a.stats.amortized_fns, 1);
        assert_eq!(a.stats.per_call_fns, 1);
    }

    #[test]
    fn direct_alloc_in_loop_is_flagged_with_chain() {
        let (a, _) = run("\
fn hot(xs: &[u32]) -> u32 {
    let mut acc = 0u32;
    for x in xs {
        let label = format!(\"{x}\");
        acc = acc.wrapping_add(label.len() as u32);
    }
    acc
}
");
        assert_eq!(a.hot_findings.len(), 1, "{:?}", a.hot_findings);
        let d = &a.hot_findings[0];
        assert_eq!(d.rule, "R005");
        let chain = d.chain.as_deref().unwrap_or("");
        assert!(chain.contains("x::hot"), "{chain}");
        assert!(chain.contains("loop @ crates/x/src/lib.rs:3"), "{chain}");
        assert!(chain.contains("format!"), "{chain}");
    }

    #[test]
    fn transitive_alloc_through_two_hops_is_flagged() {
        let (a, _) = run("\
fn leaf() -> String { String::new() }
fn mid() -> usize { leaf().len() }
fn hot(n: usize) -> usize {
    let mut acc = 0usize;
    let mut i = 0usize;
    while i < n {
        acc = acc.saturating_add(mid());
        i = i.saturating_add(1);
    }
    acc
}
");
        let ours: Vec<_> = a
            .hot_findings
            .iter()
            .filter(|d| d.message.contains("mid"))
            .collect();
        assert_eq!(ours.len(), 1, "{:?}", a.hot_findings);
        let chain = ours[0].chain.as_deref().unwrap_or("");
        assert!(chain.contains("x::hot"), "{chain}");
        assert!(chain.contains("x::mid"), "{chain}");
        assert!(chain.contains("x::leaf"), "{chain}");
        assert!(chain.contains("String::new"), "{chain}");
    }

    #[test]
    fn adapter_closure_is_a_loop_scope_but_let_closure_is_not() {
        let (a, _) = run("\
fn adapter(xs: &[u32]) -> usize {
    xs.iter().map(|x| x.to_string()).count()
}
fn bound(x: u32) -> String {
    let f = |v: u32| v.to_string();
    f(x)
}
");
        assert_eq!(a.hot_findings.len(), 1, "{:?}", a.hot_findings);
        assert!(a.hot_findings[0].message.contains("to_string"));
        assert_eq!(a.hot_findings[0].rel, "crates/x/src/lib.rs");
    }

    #[test]
    fn fold_init_is_outside_the_closure_scope() {
        let (a, _) = run("\
fn folds(xs: &[u32]) -> Vec<u32> {
    xs.iter().fold(Vec::with_capacity(xs.len()), |mut acc, &x| {
        acc.push(x);
        acc
    })
}
");
        assert!(a.hot_findings.is_empty(), "{:?}", a.hot_findings);
    }

    #[test]
    fn reuse_buffer_pattern_is_clean() {
        let (a, _) = run("\
fn hot(batches: &[&[u32]]) -> usize {
    let mut buf: Vec<u32> = Vec::with_capacity(64);
    let mut total = 0usize;
    for b in batches {
        buf.clear();
        buf.extend_from_slice(b);
        total = total.saturating_add(buf.len());
    }
    total
}
");
        assert!(a.hot_findings.is_empty(), "{:?}", a.hot_findings);
        assert!(a.capacity_findings.is_empty(), "{:?}", a.capacity_findings);
        assert!(a.stats.hot_loop_proven >= 1);
    }

    #[test]
    fn unreserved_push_loop_is_r006() {
        let (a, _) = run("\
fn grow(xs: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    for &x in xs {
        out.push(x);
    }
    out
}
");
        assert_eq!(a.capacity_findings.len(), 1, "{:?}", a.capacity_findings);
        assert_eq!(a.capacity_findings[0].rule, "R006");
        assert!(a.capacity_findings[0].message.contains("`out`"));
    }

    #[test]
    fn with_capacity_and_out_param_satisfy_r006() {
        let (a, _) = run("\
fn reserved(xs: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(xs.len());
    for &x in xs {
        out.push(x);
    }
    out
}
fn out_param(xs: &[u32], out: &mut Vec<u32>) {
    for &x in xs {
        out.push(x);
    }
}
");
        assert!(a.capacity_findings.is_empty(), "{:?}", a.capacity_findings);
        assert_eq!(a.stats.capacity_proven, 2);
    }

    #[test]
    fn self_field_growth_needs_mut_self() {
        let (a, _) = run("\
struct Arena { nodes: Vec<u32> }
impl Arena {
    fn fill(&mut self, xs: &[u32]) {
        for &x in xs {
            self.nodes.push(x);
        }
    }
}
");
        assert!(a.capacity_findings.is_empty(), "{:?}", a.capacity_findings);
    }

    #[test]
    fn hot_entry_points_restrict_the_bfs() {
        let cfg = Config::parse("[hot]\nentry_points = [\"x::hot\"]\n").expect("parses");
        let scanned = vec![scan(
            PathBuf::from("crates/x/src/lib.rs"),
            "crates/x/src/lib.rs".into(),
            "\
fn cold(xs: &[u32]) -> usize {
    let mut n = 0usize;
    for x in xs {
        n = n.saturating_add(x.to_string().len());
    }
    n
}
fn hot(xs: &[u32]) -> usize {
    let mut n = 0usize;
    for x in xs {
        n = n.saturating_add(*x as usize);
    }
    n
}
",
        )];
        let symbols = SymbolTable::build(&scanned);
        let calls = CallGraph::build(&symbols, &scanned);
        let ws = Workspace {
            files: &scanned,
            symbols: &symbols,
            calls: &calls,
        };
        let a = analyze(&ws, &cfg);
        assert_eq!(a.stats.hot_entry_points, 1);
        assert!(a.hot_findings.is_empty(), "{:?}", a.hot_findings);
    }

    #[test]
    fn hot_scope_gating() {
        let cfg = Config::parse("[hot]\npaths = [\"crates/trie/src\"]\n").expect("parses");
        assert!(hot_scope_applies(&cfg, "crates/trie/src/tree.rs"));
        assert!(!hot_scope_applies(&cfg, "crates/census/src/serve.rs"));
        assert!(hot_scope_applies(&Config::default(), "anything.rs"));
    }
}
