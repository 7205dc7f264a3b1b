//! R003 lock-order: a compositional proof that the workspace's lock
//! acquisition graph is acyclic, plus the guard-scope machinery that
//! R004 (blocking-under-lock, see [`crate::effects`]) builds on.
//!
//! The serving daemon's robustness posture leans on a handful of
//! `Mutex`/`RwLock` cells (the snapshot pointer, the supervisor's job
//! queue and degradation list, the in-memory and fault-injecting VFS
//! states). A deadlock between any two of them would hang the hot path
//! in a way no chaos drill is guaranteed to sample. This pass proves it
//! cannot happen, RacerD-style, without running the code:
//!
//! 1. **Lock registry** — every struct field and `static` whose
//!    declared type is `Mutex<…>`/`RwLock<…>` becomes a lock identity
//!    (`Type.field` or the static's name). `Condvar` fields are
//!    recorded too, so `cv.wait(guard)` — which atomically *releases*
//!    the guard — is never mistaken for blocking under it.
//! 2. **Per-function summaries** — walking each body's token stream,
//!    `recv.lock()` / `recv.read()` / `recv.write()` sites whose
//!    receiver resolves to a registered lock (by `self`-field identity,
//!    unique field name, static name, or lock-typed parameter) become
//!    acquisitions with a computed guard scope: a `let`-bound guard
//!    lives to the end of its enclosing block or an explicit
//!    `drop(name)`, a temporary dies at its statement's `;`. Functions
//!    that *return* a guard (`-> MutexGuard<…>`) are lock helpers: a
//!    call to one is an acquisition at the call site, with the lock
//!    taken from the helper's own summary or its lock-typed argument.
//! 3. **Interprocedural lifting** — each function's transitively
//!    acquired lock set is propagated over [`crate::callgraph`] to a
//!    fixpoint. Call edges that merely *are* an acquisition site
//!    (`.lock()` resolving by method name to some workspace `fn lock`)
//!    are skipped: the acquisition is modelled precisely above, and the
//!    name-match edge is an artifact of conservative call resolution.
//! 4. **Lock-order graph** — while a guard for lock `X` is live, every
//!    acquisition of lock `Y` (directly in scope, or anywhere inside a
//!    callee reached from the scope) contributes an edge `X → Y`. Rule
//!    **R003** proves this graph acyclic; a cycle prints one witness
//!    chain per edge (`fn A holds X → … → acquires Y` vs. the reverse
//!    chain), R001-style.
//!
//! Like the call graph itself, the analysis has no alias analysis:
//! guards are tracked by field/static identity, not by points-to sets.
//! Receivers that cannot be resolved to a registered lock contribute no
//! acquisition — so the proof is exactly as strong as the workspace's
//! (enforced) habit of locking through named fields, statics, and the
//! poison-surviving helper fns, and DESIGN.md §7 documents the gap.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{lift, render, walk, Call, Hops, Lattice};
use crate::config::Config;
use crate::effects;
use crate::lexer::{code_tokens, TokKind, Token};
use crate::report::Diagnostic;
use crate::rules::{semantic_finding, SemanticRule, Workspace};

/// What kind of synchronisation primitive a declaration is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// `std::sync::Mutex` — acquired with `.lock()`.
    Mutex,
    /// `std::sync::RwLock` — acquired with `.read()` / `.write()`.
    RwLock,
}

/// One registered lock: a struct field or a static with a lock type.
#[derive(Clone, Debug)]
pub struct LockDecl {
    /// Display identity: `Type.field` for fields, `NAME` for statics.
    pub id: String,
    /// Owning struct for fields, `None` for statics.
    pub owner: Option<String>,
    /// Field or static name.
    pub name: String,
    /// Mutex or RwLock.
    pub kind: LockKind,
    /// Index of the declaring file.
    pub file: usize,
    /// 1-based declaration line.
    pub line: usize,
}

/// Where an acquisition got its lock identity from.
#[derive(Clone, Debug, PartialEq, Eq)]
enum LockRef {
    /// A registered lock (index into the registry).
    Concrete(usize),
    /// The caller decides: the acquisition is on a lock-typed
    /// parameter (helper fns like `fn lock<T>(m: &Mutex<T>)`).
    Param(usize),
}

/// One lock acquisition inside a function body.
#[derive(Clone, Debug)]
pub struct Acquisition {
    /// Registry index of the acquired lock.
    pub lock: usize,
    /// 1-based line of the acquiring call.
    pub line: usize,
    /// Token index of the call's `(` in the owning file's stream.
    pub paren: usize,
    /// Guard liveness as a token-index range `[start, end)` in the
    /// owning file's stream; `None` when the guard escapes (the fn
    /// returns it) — its scope belongs to the caller.
    pub scope: Option<(usize, usize)>,
}

/// Per-function lock summary.
#[derive(Clone, Debug, Default)]
pub struct FnLocks {
    /// Locally scoped acquisitions, in source order.
    pub acquired: Vec<Acquisition>,
    /// Set when the fn hands its guard to the caller: the registry
    /// index of the returned guard's lock, or the lock-typed parameter
    /// it forwards.
    returns_guard: Option<LockRef>,
    /// Token indices of call-`(`s that are themselves acquisition
    /// sites or condvar waits — their name-resolved call edges are
    /// artifacts and must not be lifted.
    pub skip_parens: BTreeSet<usize>,
}

/// One directed edge of the lock-order graph, with its witness.
#[derive(Clone, Debug)]
pub struct LockEdge {
    /// Held lock (registry index).
    pub from: usize,
    /// Acquired-while-held lock (registry index).
    pub to: usize,
    /// Human witness: `fn F holds X (file:line) → … acquires Y (…)`.
    pub witness: String,
    /// File index and line anchoring a diagnostic for this edge.
    pub file: usize,
    /// 1-based line of the holding acquisition.
    pub line: usize,
}

/// Counters for `BENCH_lint.json`'s `locks` block.
#[derive(Clone, Copy, Debug, Default)]
pub struct LockStats {
    /// Functions with a computed lock/effect summary.
    pub fns_summarized: usize,
    /// Registered Mutex/RwLock fields and statics.
    pub locks_found: usize,
    /// Distinct edges in the lock-order graph.
    pub lock_edges: usize,
    /// Guard-scope × (call | effect) obligations examined for R004.
    pub effect_obligations: usize,
    /// Obligations proven non-blocking.
    pub proven: usize,
    /// True when the lock-order graph has no cycle.
    pub acyclic: bool,
}

/// The full analysis result: R003 + R004 findings plus the counters.
#[derive(Debug, Default)]
pub struct LockAnalysis {
    /// R003 lock-order cycle findings.
    pub cycle_findings: Vec<Diagnostic>,
    /// R004 blocking-under-lock findings.
    pub blocking_findings: Vec<Diagnostic>,
    /// The lock-order graph, one witness per distinct `X → Y` pair.
    pub edges: Vec<LockEdge>,
    /// Bench counters.
    pub stats: LockStats,
}

// ---------------------------------------------------------------- rules

/// R003 lock-order as a registered semantic rule.
pub struct LockOrder;

impl SemanticRule for LockOrder {
    fn id(&self) -> &'static str {
        "R003"
    }
    fn name(&self) -> &'static str {
        "lock-order"
    }
    fn describe(&self) -> &'static str {
        "the interprocedural lock-acquisition graph over every Mutex/RwLock field and static must be acyclic"
    }
    fn check(&self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
        out.extend(analyze(ws, cfg).cycle_findings);
    }
}

/// Runs the combined lock/effect analysis once. The engine calls this
/// directly (like R002's `dataflow::analyze`) so R003 and R004 share
/// one pass; the rule impls exist for `--list-rules` and direct tests.
pub fn analyze(ws: &Workspace<'_>, _cfg: &Config) -> LockAnalysis {
    let registry = build_registry(ws);
    let condvars = condvar_fields(ws);
    let mut summaries: Vec<FnLocks> = Vec::with_capacity(ws.symbols.fns.len());
    // Pass 1: signature-level facts (guard-returning helpers) plus
    // direct field/static/param acquisitions.
    let mut direct: Vec<FnLocks> = Vec::new();
    for (id, _) in ws.symbols.fns.iter().enumerate() {
        direct.push(scan_fn(ws, id, &registry, &condvars));
    }
    // Pass 2: add acquisitions made through guard-returning helpers,
    // now that every helper's summary is known.
    for (id, _) in ws.symbols.fns.iter().enumerate() {
        let mut s = direct[id].clone();
        helper_acquisitions(ws, id, &registry, &direct, &mut s);
        s.acquired.sort_by_key(|a| a.paren);
        summaries.push(s);
    }

    let trans = transitive_locks(ws, &summaries);
    let effects = effects::summarize(ws, &summaries);
    let edges = order_edges(ws, &registry, &summaries, &trans);

    let mut analysis = LockAnalysis {
        stats: LockStats {
            fns_summarized: summaries
                .iter()
                .zip(ws.symbols.fns.iter())
                .filter(|(_, f)| f.body.is_some() && !f.is_test)
                .count(),
            locks_found: registry.len(),
            lock_edges: edges.len(),
            ..LockStats::default()
        },
        ..LockAnalysis::default()
    };
    analysis.stats.acyclic = report_cycles(ws, &registry, &edges, &mut analysis.cycle_findings);
    analysis.edges = edges;
    effects::blocking_under_lock(
        ws,
        &registry,
        &summaries,
        &effects,
        &mut analysis.blocking_findings,
        &mut analysis.stats,
    );
    analysis
}

// ------------------------------------------------------- lock registry

/// True when the type tokens starting at `i` name a lock, looking
/// through leading path segments (`std :: sync :: Mutex`).
fn lock_ty_at(toks: &[(usize, &Token)], mut i: usize) -> Option<LockKind> {
    for _ in 0..4 {
        let (_, t) = toks.get(i)?;
        if t.kind != TokKind::Ident {
            return None;
        }
        match t.text.as_str() {
            "Mutex" => return Some(LockKind::Mutex),
            "RwLock" => return Some(LockKind::RwLock),
            _ => {
                if toks.get(i + 1).is_some_and(|(_, n)| n.is_op("::")) {
                    i += 2;
                } else {
                    return None;
                }
            }
        }
    }
    None
}

/// Scans every file for lock-typed struct fields and statics.
pub fn build_registry(ws: &Workspace<'_>) -> Vec<LockDecl> {
    let mut out = Vec::new();
    for (fidx, file) in ws.files.iter().enumerate() {
        let toks = code_tokens(&file.tokens, 0..file.tokens.len());
        let mut i = 0usize;
        while i < toks.len() {
            let (_, t) = toks[i];
            if t.is_ident("struct") {
                scan_struct_fields(&toks, i, fidx, &mut out);
            } else if t.is_ident("static") {
                // `static NAME : <lock type> = …`.
                let name = toks.get(i + 1).filter(|(_, n)| n.kind == TokKind::Ident);
                let colon = toks.get(i + 2).is_some_and(|(_, c)| c.is_op(":"));
                if let (Some((_, name)), true) = (name, colon) {
                    if let Some(kind) = lock_ty_at(&toks, i + 3) {
                        out.push(LockDecl {
                            id: name.text.clone(),
                            owner: None,
                            name: name.text.clone(),
                            kind,
                            file: fidx,
                            line: name.line,
                        });
                    }
                }
            }
            i += 1;
        }
    }
    out
}

/// Registers the lock-typed fields of one `struct Name { … }`.
fn scan_struct_fields(toks: &[(usize, &Token)], at: usize, fidx: usize, out: &mut Vec<LockDecl>) {
    let Some((_, name)) = toks.get(at + 1).filter(|(_, t)| t.kind == TokKind::Ident) else {
        return;
    };
    let struct_name = name.text.clone();
    // Find the body `{`, skipping generics; `;` means a unit/tuple
    // struct (no named lock fields to register).
    let mut i = at + 2;
    let mut angle = 0i64;
    let open = loop {
        let Some((_, t)) = toks.get(i) else { return };
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            ">>" => angle -= 2,
            "<<" => angle += 2,
            "{" if angle <= 0 => break i,
            ";" | "(" if angle <= 0 => return,
            _ => {}
        }
        i += 1;
    };
    // Walk `field : Type` pairs at depth 1.
    let mut depth = 1i64;
    let mut i = open + 1;
    while i < toks.len() && depth > 0 {
        let (_, t) = toks[i];
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {}
        }
        if depth == 1
            && t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|(_, c)| c.is_op(":"))
            && toks
                .get(i.wrapping_sub(1))
                .is_none_or(|(_, p)| matches!(p.text.as_str(), "{" | "," | "pub" | ")"))
        {
            if let Some(kind) = lock_ty_at(toks, i + 2) {
                out.push(LockDecl {
                    id: format!("{struct_name}.{}", t.text),
                    owner: Some(struct_name.clone()),
                    name: t.text.clone(),
                    kind,
                    file: fidx,
                    line: t.line,
                });
            }
        }
        i += 1;
    }
}

/// Names of struct fields declared as `Condvar` — their `.wait(…)`
/// family atomically releases the guard passed in.
pub fn condvar_fields(ws: &Workspace<'_>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for file in ws.files {
        let toks = code_tokens(&file.tokens, 0..file.tokens.len());
        for i in 0..toks.len() {
            let (_, t) = toks[i];
            if t.kind == TokKind::Ident
                && toks.get(i + 1).is_some_and(|(_, c)| c.is_op(":"))
                && toks
                    .get(i + 2)
                    .is_some_and(|(_, ty)| ty.is_ident("Condvar"))
            {
                out.insert(t.text.clone());
            }
        }
    }
    out
}

// ------------------------------------------- per-function acquisitions

/// The acquiring method names per lock kind.
fn method_kind(name: &str) -> Option<LockKind> {
    match name {
        "lock" => Some(LockKind::Mutex),
        "read" | "write" => Some(LockKind::RwLock),
        _ => None,
    }
}

/// Scans one function body for direct acquisitions, guard-return
/// facts, and condvar-wait sites.
fn scan_fn(
    ws: &Workspace<'_>,
    id: usize,
    registry: &[LockDecl],
    condvars: &BTreeSet<String>,
) -> FnLocks {
    let mut s = FnLocks::default();
    let Some(f) = ws.symbols.fns.get(id) else {
        return s;
    };
    let Some((start, end)) = f.body else { return s };
    let Some(file) = ws.files.get(f.file) else {
        return s;
    };
    let lock_params = lock_typed_params(file, start);
    let returns_guard_ty = signature_returns_guard(file, start);

    let toks = code_tokens(&file.tokens, start..end);

    let mut first_acq: Option<LockRef> = None;
    for j in 0..toks.len() {
        let (orig, t) = toks[j];
        if !t.is_op("(") || j < 2 {
            continue;
        }
        let (_, m) = toks[j - 1];
        if m.kind != TokKind::Ident {
            continue;
        }
        let (_, dot) = toks[j - 2];
        if !dot.is_op(".") {
            continue;
        }
        // Condvar waits: `cv.wait(g)` releases `g` for the wait.
        if matches!(m.text.as_str(), "wait" | "wait_timeout" | "wait_while") {
            if let Some((_, recv)) = toks.get(j.wrapping_sub(3)) {
                if condvars.contains(&recv.text) {
                    s.skip_parens.insert(orig);
                }
            }
            continue;
        }
        let Some(kind) = method_kind(&m.text) else {
            continue;
        };
        let Some(lockref) = resolve_receiver(
            ws,
            f.self_ty.as_deref(),
            registry,
            &lock_params,
            &toks,
            j,
            kind,
        ) else {
            continue;
        };
        s.skip_parens.insert(orig);
        if first_acq.is_none() {
            first_acq = Some(lockref.clone());
        }
        if let LockRef::Concrete(lk) = lockref {
            let scope = guard_scope(&toks, j, end);
            s.acquired.push(Acquisition {
                lock: lk,
                line: m.line,
                paren: orig,
                scope,
            });
        }
    }
    if returns_guard_ty {
        // A helper that hands its guard out: prefer the lock-typed
        // parameter (generic helpers), else the first acquisition.
        s.returns_guard = lock_params
            .first()
            .map(|&(i, _, _)| LockRef::Param(i))
            .or(first_acq);
        // The guard escapes, so local scopes do not apply.
        for a in &mut s.acquired {
            a.scope = None;
        }
    }
    s
}

/// Lock-typed parameters of the fn whose body starts at token `start`:
/// `(param index, name, kind)`.
fn lock_typed_params(
    file: &crate::scan::ScannedFile,
    body_start: usize,
) -> Vec<(usize, String, LockKind)> {
    let toks = code_tokens(&file.tokens, 0..file.tokens.len());
    let Some(body_pos) = toks.iter().position(|(o, _)| *o == body_start) else {
        return Vec::new();
    };
    // Walk back to the parameter list's `(` … `)` for this fn.
    let Some(close) = rev_find_params_close(&toks, body_pos) else {
        return Vec::new();
    };
    let Some(open) = matching_open(&toks, close) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut idx = 0usize;
    let mut depth = 0i64;
    let mut i = open + 1;
    while i < close {
        let (_, t) = toks[i];
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "<<" => depth += 2,
            ">>" => depth -= 2,
            "," if depth == 0 => idx += 1,
            _ => {}
        }
        if depth == 0
            && t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|(_, c)| c.is_op(":"))
        {
            // `name : [&] [lifetime] [mut] Mutex<…>`.
            let mut k = i + 2;
            while toks.get(k).is_some_and(|(_, x)| {
                x.is_op("&") || x.kind == TokKind::Lifetime || x.is_ident("mut")
            }) {
                k += 1;
            }
            if let Some(kind) = lock_ty_at(&toks, k) {
                out.push((idx, t.text.clone(), kind));
            }
        }
        i += 1;
    }
    out
}

/// From the body-`{` position, walks back to the fn's parameter-list
/// closing `)`, skipping a `-> Type` return clause and `where` bounds.
fn rev_find_params_close(toks: &[(usize, &Token)], body_pos: usize) -> Option<usize> {
    let mut i = body_pos.checked_sub(1)?;
    let mut depth = 0i64;
    loop {
        let (_, t) = toks.get(i)?;
        match t.text.as_str() {
            ")" if depth == 0 => return Some(i),
            ")" | "]" | "}" => depth -= 1,
            "(" | "[" | "{" => depth += 1,
            "fn" | ";" => return None,
            _ => {}
        }
        i = i.checked_sub(1)?;
    }
}

/// Index of the `(` matching the `)` at `close`.
fn matching_open(toks: &[(usize, &Token)], close: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut i = close;
    loop {
        let (_, t) = toks.get(i)?;
        match t.text.as_str() {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i = i.checked_sub(1)?;
    }
}

/// True when the fn's declared return type names a guard.
fn signature_returns_guard(file: &crate::scan::ScannedFile, body_start: usize) -> bool {
    let toks = code_tokens(&file.tokens, 0..file.tokens.len());
    let Some(body_pos) = toks.iter().position(|(o, _)| *o == body_start) else {
        return false;
    };
    // Scan back to `->`, stopping at the params `)` boundary walk.
    let mut i = body_pos;
    while i > 0 {
        i -= 1;
        let (_, t) = toks[i];
        match t.text.as_str() {
            "->" => {
                return (i + 1..body_pos).any(|k| {
                    matches!(
                        toks[k].1.text.as_str(),
                        "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard"
                    )
                })
            }
            "{" | "}" | ";" | "fn" => return false,
            _ => {}
        }
    }
    false
}

/// Resolves the receiver of `….m(` (the `(` at comment-free index `j`)
/// to a lock. The receiver chain ends at `j - 3`.
fn resolve_receiver(
    ws: &Workspace<'_>,
    self_ty: Option<&str>,
    registry: &[LockDecl],
    lock_params: &[(usize, String, LockKind)],
    toks: &[(usize, &Token)],
    j: usize,
    kind: LockKind,
) -> Option<LockRef> {
    let (_, last) = toks.get(j.wrapping_sub(3))?;
    if last.kind != TokKind::Ident {
        return None;
    }
    // Chain walk: `a . b . last`.
    let mut chain = vec![last.text.clone()];
    let mut p = j - 3;
    while p >= 2
        && toks.get(p - 1).is_some_and(|(_, t)| t.is_op("."))
        && toks
            .get(p - 2)
            .is_some_and(|(_, t)| t.kind == TokKind::Ident)
    {
        p -= 2;
        if let Some((_, seg)) = toks.get(p) {
            chain.insert(0, seg.text.clone());
        }
    }
    resolve_lock_path(ws, self_ty, registry, lock_params, &chain, kind)
}

/// Resolves an ident chain (`self.state`, `ctx.degraded`, `A`, `m`) to
/// a lock of the right kind.
fn resolve_lock_path(
    ws: &Workspace<'_>,
    self_ty: Option<&str>,
    registry: &[LockDecl],
    lock_params: &[(usize, String, LockKind)],
    chain: &[String],
    kind: LockKind,
) -> Option<LockRef> {
    let _ = ws;
    let last = chain.last()?;
    if chain.len() == 1 {
        // A lock-typed parameter (`m.lock()` in a helper)…
        if let Some(&(i, _, _)) = lock_params.iter().find(|(_, n, k)| n == last && *k == kind) {
            return Some(LockRef::Param(i));
        }
        // …or a static by name.
        let hit = registry
            .iter()
            .position(|d| d.owner.is_none() && &d.name == last && d.kind == kind)?;
        return Some(LockRef::Concrete(hit));
    }
    let starts_with_self = chain.first().is_some_and(|c| c == "self");
    if starts_with_self && chain.len() == 2 {
        // `self.field` — exact (Type, field) identity.
        let ty = self_ty?;
        let hit = registry
            .iter()
            .position(|d| d.owner.as_deref() == Some(ty) && &d.name == last && d.kind == kind)?;
        return Some(LockRef::Concrete(hit));
    }
    // `expr.field` with an unknown receiver type: accept only a field
    // name that names exactly one registered lock of this kind —
    // ambiguity would invent lock identities, so it contributes none.
    let matches: Vec<usize> = registry
        .iter()
        .enumerate()
        .filter(|(_, d)| d.owner.is_some() && &d.name == last && d.kind == kind)
        .map(|(i, _)| i)
        .collect();
    match matches.as_slice() {
        [only] => Some(LockRef::Concrete(*only)),
        _ => None,
    }
}

/// Computes the guard's live token range for the acquisition whose `(`
/// sits at comment-free index `j`. Returns `[start, end)` in original
/// token indices, or `None` when the guard is returned.
fn guard_scope(toks: &[(usize, &Token)], j: usize, body_end: usize) -> Option<(usize, usize)> {
    let start_orig = toks[j].0;
    // Is the acquisition inside a `let` statement? Walk back to the
    // statement start (a `;`, `{`, or `}` at depth 0).
    let mut i = j;
    let mut depth = 0i64;
    let mut binding: Option<String> = None;
    while i > 0 {
        i -= 1;
        let (_, t) = toks[i];
        match t.text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            ";" if depth == 0 => break,
            "let" if depth == 0 => {
                // `let [mut] name = …`.
                let mut k = i + 1;
                if toks.get(k).is_some_and(|(_, t)| t.is_ident("mut")) {
                    k += 1;
                }
                if let Some((_, name)) = toks.get(k).filter(|(_, t)| t.kind == TokKind::Ident) {
                    binding = Some(name.text.clone());
                }
                break;
            }
            _ => {}
        }
    }

    match binding {
        Some(name) if name != "_" => {
            // Live until `drop(name)` or the enclosing block closes.
            let mut depth = 0i64;
            let mut k = j + 1;
            while k < toks.len() {
                let (orig, t) = toks[k];
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "}" => {
                        depth -= 1;
                        if depth < 0 {
                            return Some((start_orig, orig));
                        }
                    }
                    "drop"
                        if toks.get(k + 1).is_some_and(|(_, t)| t.is_op("("))
                            && toks.get(k + 2).is_some_and(|(_, t)| t.is_ident(&name)) =>
                    {
                        return Some((start_orig, orig));
                    }
                    _ => {}
                }
                k += 1;
            }
            Some((start_orig, body_end))
        }
        _ => {
            // Temporary (or `let _ =`): dies at the statement's end —
            // a `;` at relative depth 0 or the enclosing close.
            let mut depth = 0i64;
            let mut k = j; // include the call's own parens in depth
            while k < toks.len() {
                let (orig, t) = toks[k];
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth < 0 {
                            return Some((start_orig, orig));
                        }
                    }
                    ";" if depth == 0 => return Some((start_orig, orig)),
                    _ => {}
                }
                k += 1;
            }
            Some((start_orig, body_end))
        }
    }
}

/// Adds acquisitions made through calls to guard-returning helpers.
fn helper_acquisitions(
    ws: &Workspace<'_>,
    id: usize,
    registry: &[LockDecl],
    direct: &[FnLocks],
    s: &mut FnLocks,
) {
    let Some(f) = ws.symbols.fns.get(id) else {
        return;
    };
    let Some((body_start, body_end)) = f.body else {
        return;
    };
    let Some(file) = ws.files.get(f.file) else {
        return;
    };
    let lock_params = lock_typed_params(file, body_start);
    let toks = code_tokens(&file.tokens, body_start..body_end);
    let calls: &[Call] = ws.calls.calls.get(id).map(Vec::as_slice).unwrap_or(&[]);
    for call in calls {
        if s.skip_parens.contains(&call.paren) {
            continue; // already modelled as a direct acquisition
        }
        // A helper call acquires when some callee returns a guard.
        let ret = call
            .callees
            .iter()
            .find_map(|&c| direct.get(c).and_then(|d| d.returns_guard.clone()));
        let Some(ret) = ret else { continue };
        let lock = match ret {
            LockRef::Concrete(l) => Some(l),
            LockRef::Param(i) => argument_lock(
                ws,
                f.self_ty.as_deref(),
                registry,
                &lock_params,
                &toks,
                call.paren,
                i,
            ),
        };
        let Some(lock) = lock else { continue };
        s.skip_parens.insert(call.paren);
        let Some(j) = toks.iter().position(|(o, _)| *o == call.paren) else {
            continue;
        };
        let scope = guard_scope(&toks, j, body_end);
        s.acquired.push(Acquisition {
            lock,
            line: call.line,
            paren: call.paren,
            scope,
        });
    }
}

/// Resolves the `i`-th argument of the call whose `(` has original
/// token index `paren` to a registered lock (`&self.state`, `&A`…).
fn argument_lock(
    ws: &Workspace<'_>,
    self_ty: Option<&str>,
    registry: &[LockDecl],
    lock_params: &[(usize, String, LockKind)],
    toks: &[(usize, &Token)],
    paren: usize,
    i: usize,
) -> Option<usize> {
    let open = toks.iter().position(|(o, _)| *o == paren)?;
    let mut depth = 0i64;
    let mut arg = 0usize;
    let mut chain: Vec<String> = Vec::new();
    let mut k = open + 1;
    while k < toks.len() {
        let (_, t) = toks[k];
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            "," if depth == 0 => {
                arg += 1;
                chain.clear();
            }
            _ if depth == 0 && arg == i => {
                if t.kind == TokKind::Ident {
                    chain.push(t.text.clone());
                } else if !t.is_op("&") && !t.is_op(".") && !t.is_op("*") && !t.is_ident("mut") {
                    // Anything structurally richer than `&x.y` — give up.
                    if !chain.is_empty() {
                        break;
                    }
                }
            }
            _ => {}
        }
        k += 1;
    }
    if chain.is_empty() {
        return None;
    }
    // The helper accepts either kind; try both.
    for kind in [LockKind::Mutex, LockKind::RwLock] {
        if let Some(LockRef::Concrete(l)) =
            resolve_lock_path(ws, self_ty, registry, lock_params, &chain, kind)
        {
            return Some(l);
        }
    }
    None
}

// --------------------------------------------- interprocedural lifting

/// Transitively acquired lock sets per fn, with, for each `(fn, lock)`,
/// the callee hop it arrived through (for witness chains).
pub struct TransLocks {
    /// `sets[fn]` = locks acquired by `fn` or anything it may call.
    pub sets: Vec<BTreeSet<usize>>,
    /// `(fn, lock)` → the call hop `(callee, line)` that introduced it;
    /// absent when the fn acquires the lock directly.
    pub via: Hops<usize>,
}

/// Lock sets under union; the first hop to bring a lock is its witness.
impl Lattice for BTreeSet<usize> {
    type Key = usize;
    fn join(&mut self, callee: &Self, mut hop: impl FnMut(usize)) -> bool {
        let mut grew = false;
        for &l in callee {
            if self.insert(l) {
                hop(l);
                grew = true;
            }
        }
        grew
    }
}

/// True when `call` of fn `id` is an acquisition site or condvar wait
/// (`FnLocks::skip_parens`): its name-resolved edges are not lifted.
pub(crate) fn skips(summaries: &[FnLocks], id: usize, call: &Call) -> bool {
    summaries
        .get(id)
        .is_some_and(|s| s.skip_parens.contains(&call.paren))
}

/// Lifts the direct lock sets over the call graph. Non-test fns only:
/// a test helper locking something is not part of the product's lock
/// discipline.
fn transitive_locks(ws: &Workspace<'_>, summaries: &[FnLocks]) -> TransLocks {
    let mut sets: Vec<BTreeSet<usize>> = summaries
        .iter()
        .map(|s| s.acquired.iter().map(|a| a.lock).collect())
        .collect();
    let via = lift(ws, &mut sets, |id, call| skips(summaries, id, call));
    TransLocks { sets, via }
}

/// Renders the call path from `fn_id` down to wherever `lock` is
/// directly acquired, following `via` hops; also returns that
/// acquisition's file index and line (`(0, 0)` if the walk ends early).
pub fn acquisition_path(
    ws: &Workspace<'_>,
    trans: &TransLocks,
    summaries: &[FnLocks],
    fn_id: usize,
    lock: usize,
) -> (String, usize, usize) {
    let acquires = |f: usize| {
        summaries
            .get(f)
            .and_then(|s| s.acquired.iter().find(|a| a.lock == lock))
    };
    let ids = walk(ws, fn_id, |f| match acquires(f) {
        Some(_) => None,
        None => trans.via.get(&(f, lock)).map(|&(next, _)| next),
    });
    let (file, line) = match ids.last().and_then(|&f| Some((f, acquires(f)?))) {
        Some((f, a)) => (ws.symbols.fns.get(f).map_or(0, |x| x.file), a.line),
        None => (0, 0),
    };
    (render(ws, &ids), file, line)
}

// ------------------------------------------------- the lock-order graph

/// Builds the edge set: lock X → lock Y when some fn acquires Y (in
/// scope, directly or transitively through a call) while X is held.
fn order_edges(
    ws: &Workspace<'_>,
    registry: &[LockDecl],
    summaries: &[FnLocks],
    trans: &TransLocks,
) -> Vec<LockEdge> {
    let mut edges: BTreeMap<(usize, usize), LockEdge> = BTreeMap::new();
    for (id, f, file, _) in ws.bodies() {
        let Some(s) = summaries.get(id) else { continue };
        let rel = file.rel.as_str();
        for a in &s.acquired {
            let Some((lo, hi)) = a.scope else { continue };
            let held = &registry[a.lock].id;
            // Other direct acquisitions inside the guard's scope.
            for b in &s.acquired {
                if b.paren > lo && b.paren < hi && b.paren != a.paren {
                    let to = &registry[b.lock].id;
                    edges.entry((a.lock, b.lock)).or_insert_with(|| LockEdge {
                        from: a.lock,
                        to: b.lock,
                        witness: format!(
                            "{} holds `{held}` ({rel}:{}) → acquires `{to}` (line {})",
                            f.qname, a.line, b.line
                        ),
                        file: f.file,
                        line: a.line,
                    });
                }
            }
            // Calls inside the scope: everything the callee may lock.
            for call in ws.calls.calls.get(id).map(Vec::as_slice).unwrap_or(&[]) {
                if call.paren <= lo || call.paren >= hi || s.skip_parens.contains(&call.paren) {
                    continue;
                }
                for &callee in &call.callees {
                    if ws.symbols.is_test(callee) {
                        continue;
                    }
                    for &l in trans.sets.get(callee).into_iter().flatten() {
                        edges.entry((a.lock, l)).or_insert_with(|| {
                            let (path, pfile, pline) =
                                acquisition_path(ws, trans, summaries, callee, l);
                            let prel = ws.files.get(pfile).map_or("", |x| x.rel.as_str());
                            LockEdge {
                                from: a.lock,
                                to: l,
                                witness: format!(
                                    "{} holds `{held}` ({rel}:{}) → {path} acquires `{}` ({prel}:{pline})",
                                    f.qname, a.line, registry[l].id
                                ),
                                file: f.file,
                                line: a.line,
                            }
                        });
                    }
                }
            }
        }
    }
    edges.into_values().collect()
}

/// Detects cycles and emits one R003 finding per cycle found. Returns
/// true when the graph is acyclic (the proof holds).
fn report_cycles(
    ws: &Workspace<'_>,
    registry: &[LockDecl],
    edges: &[LockEdge],
    out: &mut Vec<Diagnostic>,
) -> bool {
    let n = registry.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, e) in edges.iter().enumerate() {
        adj[e.from].push(i);
    }
    // Iterative coloring DFS; when a back edge closes a cycle, rebuild
    // the edge list along the stack.
    let mut color = vec![0u8; n]; // 0 white, 1 grey, 2 black
    let mut reported: BTreeSet<Vec<usize>> = BTreeSet::new();
    for root in 0..n {
        if color[root] != 0 {
            continue;
        }
        // Stack of (node, next edge cursor); path holds edge indices.
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        let mut path: Vec<usize> = Vec::new();
        color[root] = 1;
        while let Some(top) = stack.len().checked_sub(1) {
            let (node, cursor) = stack[top];
            if let Some(&eidx) = adj[node].get(cursor) {
                stack[top].1 += 1;
                let to = edges[eidx].to;
                match color[to] {
                    0 => {
                        color[to] = 1;
                        path.push(eidx);
                        stack.push((to, 0));
                    }
                    1 => {
                        // Back edge: the cycle is the path suffix from
                        // `to` plus this edge.
                        let mut cyc: Vec<usize> = Vec::new();
                        if let Some(pos) = stack.iter().position(|&(nd, _)| nd == to) {
                            cyc.extend(path.iter().skip(pos).copied());
                        }
                        cyc.push(eidx);
                        let mut key = cyc.clone();
                        key.sort_unstable();
                        if reported.insert(key) {
                            emit_cycle(ws, registry, edges, &cyc, out);
                        }
                    }
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
                path.pop();
            }
        }
    }
    out.is_empty() && reported.is_empty()
}

/// Emits one R003 diagnostic for the cycle spelled by `cyc` (edge
/// indices in traversal order).
fn emit_cycle(
    ws: &Workspace<'_>,
    registry: &[LockDecl],
    edges: &[LockEdge],
    cyc: &[usize],
    out: &mut Vec<Diagnostic>,
) {
    let Some(&first) = cyc.first() else { return };
    let anchor = &edges[first];
    let Some(file) = ws.files.get(anchor.file) else {
        return;
    };
    let mut ring: Vec<&str> = cyc
        .iter()
        .map(|&e| registry[edges[e].from].id.as_str())
        .collect();
    ring.push(registry[edges[first].from].id.as_str());
    let chains: Vec<String> = cyc.iter().map(|&e| edges[e].witness.clone()).collect();
    out.push(semantic_finding(
        "R003",
        "lock-order",
        file,
        anchor.line,
        format!(
            "lock-order cycle `{}` — a thread interleaving exists that deadlocks; impose one global acquisition order",
            ring.join("` → `"),
        ),
        Some(chains.join("  ⇄  ")),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::scan::{scan, ScannedFile};
    use crate::symbols::SymbolTable;
    use std::path::PathBuf;

    fn run(files: &[(&str, &str)]) -> LockAnalysis {
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
        analyze(&ws, &Config::default())
    }

    const CYCLE: &str = "\
use std::sync::Mutex;
static A: Mutex<u32> = Mutex::new(0);
static B: Mutex<u32> = Mutex::new(0);
fn fwd() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    take_b();
    drop(g);
}
fn take_b() {
    let h = B.lock().unwrap_or_else(|e| e.into_inner());
    drop(h);
}
fn rev() {
    let g = B.lock().unwrap_or_else(|e| e.into_inner());
    take_a();
    drop(g);
}
fn take_a() {
    let h = A.lock().unwrap_or_else(|e| e.into_inner());
    drop(h);
}
";

    #[test]
    fn registry_finds_fields_and_statics() {
        let src = "\
use std::sync::{Condvar, Mutex, RwLock};
struct Cell { inner: RwLock<u32>, tag: String }
struct Queue { state: Mutex<u32>, cv: Condvar }
static GLOBAL: Mutex<u8> = Mutex::new(0);
";
        let scanned = vec![scan(PathBuf::from("x.rs"), "x.rs".into(), src)];
        let symbols = SymbolTable::build(&scanned);
        let calls = CallGraph::build(&symbols, &scanned);
        let ws = Workspace {
            files: &scanned,
            symbols: &symbols,
            calls: &calls,
        };
        let reg = build_registry(&ws);
        let ids: Vec<&str> = reg.iter().map(|d| d.id.as_str()).collect();
        assert_eq!(ids, ["Cell.inner", "Queue.state", "GLOBAL"], "{reg:?}");
        assert_eq!(reg[0].kind, LockKind::RwLock);
        assert!(condvar_fields(&ws).contains("cv"));
    }

    #[test]
    fn two_lock_cycle_is_found_with_both_chains() {
        let a = run(&[("crates/x/src/lib.rs", CYCLE)]);
        assert!(!a.stats.acyclic);
        assert_eq!(a.cycle_findings.len(), 1, "{:?}", a.cycle_findings);
        let d = &a.cycle_findings[0];
        let chain = d.chain.as_deref().expect("cycle witness");
        for hop in ["x::fwd", "x::take_b", "x::rev", "x::take_a"] {
            assert!(chain.contains(hop), "missing hop {hop} in {chain}");
        }
        assert!(chain.contains("`A`") && chain.contains("`B`"), "{chain}");
    }

    #[test]
    fn consistent_order_is_acyclic() {
        let src = "\
use std::sync::Mutex;
static A: Mutex<u32> = Mutex::new(0);
static B: Mutex<u32> = Mutex::new(0);
fn ok() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    let h = B.lock().unwrap_or_else(|e| e.into_inner());
    drop(h);
    drop(g);
}
fn also_ok() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    drop(g);
    let h = B.lock().unwrap_or_else(|e| e.into_inner());
    drop(h);
}
";
        let a = run(&[("crates/x/src/lib.rs", src)]);
        assert!(a.stats.acyclic, "{:?}", a.cycle_findings);
        assert!(a.cycle_findings.is_empty());
        assert_eq!(a.stats.lock_edges, 1, "one A→B edge from `ok`");
    }

    #[test]
    fn guard_returning_helper_attributes_to_call_site() {
        let src = "\
use std::sync::{Mutex, MutexGuard};
struct Q { state: Mutex<u32> }
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
impl Q {
    fn bump(&self) {
        let mut g = lock(&self.state);
        *g += 1;
    }
}
";
        let a = run(&[("crates/x/src/lib.rs", src)]);
        assert!(a.stats.acyclic);
        assert_eq!(a.stats.locks_found, 1);
        // The helper's own `m.lock()` is a param acquisition; `bump`'s
        // call to it is the concrete `Q.state` acquisition.
        assert!(a.cycle_findings.is_empty() && a.blocking_findings.is_empty());
    }

    #[test]
    fn double_lock_is_a_self_cycle() {
        let src = "\
use std::sync::Mutex;
static A: Mutex<u32> = Mutex::new(0);
fn twice() {
    let g = A.lock().unwrap_or_else(|e| e.into_inner());
    let h = A.lock().unwrap_or_else(|e| e.into_inner());
    drop(h);
    drop(g);
}
";
        let a = run(&[("crates/x/src/lib.rs", src)]);
        assert!(!a.stats.acyclic, "relocking a held Mutex deadlocks");
        assert_eq!(a.cycle_findings.len(), 1);
    }

    #[test]
    fn atomics_read_is_not_a_lock() {
        let src = "\
use std::sync::atomic::{AtomicU64, Ordering};
struct Metrics { hits: AtomicU64 }
impl Metrics {
    fn read(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}
fn poll(m: &Metrics) -> u64 { m.read() }
";
        let a = run(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(a.stats.locks_found, 0, "AtomicU64 is not a lock");
        assert!(a.cycle_findings.is_empty() && a.blocking_findings.is_empty());
    }
}
