//! Intra-workspace call graph over the symbol table.
//!
//! For every function body in [`crate::symbols::SymbolTable`] this
//! walks the token stream and records call sites — `free_fn(…)`,
//! `path::to::fn(…)`, `Type::method(…)`, `recv.method(…)`, including
//! turbofish forms — and resolves each one to the workspace functions
//! it may reach. Resolution is deliberately a *conservative
//! over-approximation*: a method call by name binds to every workspace
//! method with that name unless the receiver is `self` (which narrows
//! to the enclosing `impl` type), and unresolvable calls (std, core,
//! foreign crates) simply contribute no edges. Over-approximation is
//! the safe direction for panic-reachability: we may report a chain
//! that the borrow checker would rule out, but we never miss one.
//!
//! The semantic rules share three operations over the graph, defined
//! once here: `lift` carries a per-function fact from callees to
//! callers to a fixpoint (R003's lock sets, R004's may-block bit,
//! R005's allocation effect), `reach` walks it breadth-first from a
//! root set (R001's and R005's entry points), and `walk` + `render`
//! turn hop maps and parent maps into `a → b → c` witness chains.

use std::collections::{BTreeMap, VecDeque};

use crate::lexer::{code_tokens, TokKind, Token};
use crate::rules::Workspace;
use crate::scan::ScannedFile;
use crate::symbols::{normalize_crate_seg, FnSym, SymbolTable};

/// One syntactic call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Workspace functions this site may invoke (empty for foreign
    /// calls).
    pub callees: Vec<usize>,
    /// 1-based source line of the callee name.
    pub line: usize,
    /// Rendered callee expression for diagnostics, e.g.
    /// `trie::densify` or `.node_at`.
    pub expr: String,
    /// Index of the call's opening `(` in the owning file's full token
    /// stream, so statement-level rules (L007) can walk the
    /// surrounding tokens instead of a single source line.
    pub paren: usize,
}

/// Call sites grouped by calling function, same indexing as
/// `SymbolTable::fns`.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `calls[fn_id]` lists that function's call sites in source order.
    pub calls: Vec<Vec<Call>>,
}

/// Keywords that may immediately precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "in", "loop", "match", "return", "break", "continue", "fn",
    "let", "mut", "ref", "move", "as", "where", "impl", "dyn", "use", "pub", "mod", "struct",
    "enum", "trait", "type", "const", "static", "unsafe", "async", "await", "box", "yield",
];

impl CallGraph {
    /// Builds the graph; `files` must be the same slice the table was
    /// built from.
    pub fn build(table: &SymbolTable, files: &[ScannedFile]) -> CallGraph {
        let mut calls = vec![Vec::new(); table.fns.len()];
        for (id, f) in table.fns.iter().enumerate() {
            let Some((start, end)) = f.body else { continue };
            let Some(file) = files.get(f.file) else {
                continue;
            };
            let body = code_tokens(&file.tokens, start..end);
            if let Some(slot) = calls.get_mut(id) {
                *slot = collect_calls(table, f, &body);
            }
        }
        CallGraph { calls }
    }

    /// All `(callee, line, expr)` edges out of `caller`.
    pub fn edges(&self, caller: usize) -> impl Iterator<Item = (usize, usize, &str)> + '_ {
        self.calls
            .get(caller)
            .into_iter()
            .flatten()
            .flat_map(|c| c.callees.iter().map(move |&k| (k, c.line, c.expr.as_str())))
    }
}

/// A per-function fact lifted over the call graph by [`lift`]: a join
/// semilattice of finite height whose `Default` is the bottom.
pub(crate) trait Lattice: Default {
    /// The part of a value one witness hop explains: `()` when the
    /// whole value shares one hop, a lock id for lock sets.
    type Key: Ord;
    /// True when the value can no longer grow; [`lift`] stops visiting
    /// a function once its value is top.
    fn is_top(&self) -> bool {
        false
    }
    /// Joins a callee's value into `self`, handing `hop` each key the
    /// callee is to be recorded as the witness for. True when `self`
    /// grew.
    fn join(&mut self, callee: &Self, hop: impl FnMut(Self::Key)) -> bool;
}

/// Witness hops recorded by `lift`: `(fn, key)` → the call
/// `(callee, line)` that carried that part of the value into `fn`.
pub type Hops<K> = BTreeMap<(usize, K), (usize, usize)>;

/// Lifts `values` (one per function, seeded with its direct facts)
/// from callees to callers over every call that `skip` does not
/// exclude, until nothing grows. Test functions neither receive nor
/// pass on values.
///
/// Visiting order fixes which hop becomes a witness: function ids
/// ascending, calls in source order, callees in [`Call::callees`]
/// order, values updated in place. A function stops at the first call
/// after which it is top. Each round carries every value at least one
/// more call along, so on a finite lattice `n + 1` rounds reach the
/// fixpoint; the bound only guards a non-monotone `join`.
pub(crate) fn lift<V: Lattice>(
    ws: &Workspace<'_>,
    values: &mut [V],
    skip: impl Fn(usize, &Call) -> bool,
) -> Hops<V::Key> {
    let n = values.len();
    let live = |id: &usize| !ws.symbols.is_test(*id);
    let mut hops = Hops::new();
    let mut changed = true;
    let mut rounds = 0usize;
    while changed && rounds <= n {
        changed = false;
        rounds += 1;
        for id in (0..n).filter(live) {
            if values[id].is_top() {
                continue;
            }
            // Out of the slice while it joins: a recursive call then
            // reads bottom, which joins to the same no-op as itself.
            let mut value = std::mem::take(&mut values[id]);
            for call in ws.calls.calls.get(id).into_iter().flatten() {
                if skip(id, call) {
                    continue;
                }
                for &callee in call.callees.iter().filter(|c| live(c)) {
                    changed |= value.join(&values[callee], |key| {
                        hops.insert((id, key), (callee, call.line));
                    });
                }
                if value.is_top() {
                    break;
                }
            }
            values[id] = value;
        }
    }
    hops
}

/// The calls of `id` whose `(` lies strictly inside the token range
/// `(lo, hi)`, that `skip` keeps and that have a non-test callee; each
/// comes with its first non-test callee whose lifted value is top.
pub(crate) fn scope_calls<'a, V: Lattice>(
    ws: &Workspace<'a>,
    id: usize,
    (lo, hi): (usize, usize),
    values: &'a [V],
    skip: impl Fn(&Call) -> bool + 'a,
) -> impl Iterator<Item = (&'a Call, Option<usize>)> + 'a {
    let symbols: &'a SymbolTable = ws.symbols;
    let live = move |c: &usize| !symbols.is_test(*c);
    ws.calls
        .calls
        .get(id)
        .into_iter()
        .flatten()
        .filter(move |call| call.paren > lo && call.paren < hi && !skip(call))
        .filter(move |call| call.callees.iter().any(live))
        .map(move |call| {
            let top = call
                .callees
                .iter()
                .copied()
                .find(|c| live(c) && values.get(*c).is_some_and(V::is_top));
            (call, top)
        })
}

/// Breadth-first search from `roots` (test functions and repeats
/// skipped) over non-test callees. Returns the search tree as parent
/// pointers, which double as the reached set; roots map to `None`.
pub(crate) fn reach(
    ws: &Workspace<'_>,
    roots: impl IntoIterator<Item = usize>,
) -> BTreeMap<usize, Option<usize>> {
    let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
    // `(fn, parent)` in discovery order; a fn's first entry sets its
    // parent and expands it, later entries are no-ops.
    let mut queue: VecDeque<(usize, Option<usize>)> =
        roots.into_iter().map(|id| (id, None)).collect();
    while let Some((id, from)) = queue.pop_front() {
        if ws.symbols.is_test(id) || parent.contains_key(&id) {
            continue;
        }
        parent.insert(id, from);
        queue.extend(ws.calls.edges(id).map(|(callee, _, _)| (callee, Some(id))));
    }
    parent
}

/// Follows `next` from `start` until it yields `None`, returning the
/// functions visited. At most one step per function, so a malformed
/// hop map cannot loop forever.
pub(crate) fn walk(
    ws: &Workspace<'_>,
    start: usize,
    mut next: impl FnMut(usize) -> Option<usize>,
) -> Vec<usize> {
    let mut ids = vec![start];
    while ids.len() <= ws.symbols.fns.len() {
        match ids.last().and_then(|&id| next(id)) {
            Some(id) => ids.push(id),
            None => break,
        }
    }
    ids
}

/// The root-first path to `id` in a [`reach`] parent map.
pub(crate) fn tree_path(
    ws: &Workspace<'_>,
    parent: &BTreeMap<usize, Option<usize>>,
    id: usize,
) -> Vec<usize> {
    let mut ids = walk(ws, id, |f| parent.get(&f).copied().flatten());
    ids.reverse();
    ids
}

/// Renders functions as the `a → b → c` qname chain.
pub(crate) fn render(ws: &Workspace<'_>, ids: &[usize]) -> String {
    let names: Vec<&str> = ids
        .iter()
        .map(|&id| ws.symbols.fns.get(id).map_or("", |f| f.qname.as_str()))
        .collect();
    names.join(" → ")
}

/// Renders `start → … → f → desc (file:line)` down `via` hops to the
/// first function `f` with a direct `site` (its description and line).
/// Also returns the description, or `fallback` when the hops end first.
pub(crate) fn site_chain<'s>(
    ws: &Workspace<'_>,
    start: usize,
    via: &Hops<()>,
    fallback: &str,
    site: impl Fn(usize) -> Option<(&'s str, usize)>,
) -> (String, String) {
    let ids = walk(ws, start, |f| match site(f) {
        Some(_) => None,
        None => via.get(&(f, ())).map(|&(next, _)| next),
    });
    let path = render(ws, &ids);
    let Some((f, (desc, line))) = ids.last().and_then(|&f| Some((f, site(f)?))) else {
        return (path, fallback.to_string());
    };
    let rel = ws
        .symbols
        .fns
        .get(f)
        .and_then(|x| ws.files.get(x.file))
        .map_or("", |x| x.rel.as_str());
    (format!("{path} → {desc} ({rel}:{line})"), desc.to_string())
}

/// Scans one body's comment-free tokens (paired with their index in
/// the file's full token stream) for call sites.
fn collect_calls(table: &SymbolTable, caller: &FnSym, toks: &[(usize, &Token)]) -> Vec<Call> {
    let mut out = Vec::new();
    for (j, (orig, t)) in toks.iter().enumerate() {
        if !t.is_op("(") || j == 0 {
            continue;
        }
        // Walk back over an optional `::<…>` turbofish.
        let mut k = j - 1;
        if toks
            .get(k)
            .is_some_and(|(_, t)| matches!(t.text.as_str(), ">" | ">>"))
        {
            let Some(open) = skip_angles_back(toks, k) else {
                continue;
            };
            if open < 2 || !toks.get(open - 1).is_some_and(|(_, t)| t.is_op("::")) {
                continue;
            }
            k = open - 2;
        }
        let name_tok = match toks.get(k) {
            Some((_, t)) if t.kind == TokKind::Ident => *t,
            _ => continue,
        };
        if NON_CALL_KEYWORDS.contains(&name_tok.text.as_str()) {
            continue;
        }
        // Collect `seg::seg::name` backwards.
        let mut path = vec![name_tok.text.clone()];
        let mut p = k;
        while p >= 2
            && toks.get(p - 1).is_some_and(|(_, t)| t.is_op("::"))
            && toks
                .get(p - 2)
                .is_some_and(|(_, t)| t.kind == TokKind::Ident)
        {
            p -= 2;
            if let Some((_, seg)) = toks.get(p) {
                path.insert(0, seg.text.clone());
            }
        }
        let before = p.checked_sub(1).and_then(|q| toks.get(q));
        if before.is_some_and(|(_, t)| t.is_ident("fn")) {
            continue; // nested `fn` declaration, not a call
        }
        let is_method = path.len() == 1 && before.is_some_and(|(_, t)| t.is_op("."));
        let receiver_is_self =
            is_method && p >= 2 && toks.get(p - 2).is_some_and(|(_, t)| t.is_ident("self"));
        let callees = resolve(table, caller, &path, is_method, receiver_is_self);
        let expr = if is_method {
            format!(".{}", name_tok.text)
        } else {
            path.join("::")
        };
        out.push(Call {
            callees,
            line: name_tok.line,
            expr,
            paren: *orig,
        });
    }
    out
}

/// From a closing `>`/`>>` at `close`, steps back to the index of the
/// matching opening `<`; `None` when unbalanced.
fn skip_angles_back(toks: &[(usize, &Token)], close: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut i = close;
    loop {
        let (_, t) = toks.get(i)?;
        match t.text.as_str() {
            ">" => depth += 1,
            ">>" => depth += 2,
            "<" => depth -= 1,
            "<<" => depth -= 2,
            _ => {}
        }
        if depth <= 0 {
            return Some(i);
        }
        i = i.checked_sub(1)?;
    }
}

/// Resolves a call path to candidate workspace functions.
fn resolve(
    table: &SymbolTable,
    caller: &FnSym,
    path: &[String],
    is_method: bool,
    receiver_is_self: bool,
) -> Vec<usize> {
    let Some(name) = path.last() else {
        return Vec::new();
    };
    if is_method {
        // `.name(…)`: narrow to the enclosing impl type when the
        // receiver is literally `self`, otherwise every method with
        // this name may be the target.
        if receiver_is_self {
            if let Some(ty) = &caller.self_ty {
                if let Some(ids) = table.methods_by_ty.get(&(ty.clone(), name.clone())) {
                    return ids.clone();
                }
            }
        }
        return table.methods_by_name.get(name).cloned().unwrap_or_default();
    }

    // Qualified or bare path call: build candidate absolute paths in
    // priority order, then take the first that resolves.
    let scope = table.scopes.get(caller.file);
    let mut candidates: Vec<Vec<String>> = Vec::new();
    if path.len() == 1 {
        // A bare ident may still be a `use`-imported name.
        match scope.and_then(|s| s.uses.get(name)) {
            Some(target) => candidates.push(target.clone()),
            None => return resolve_bare(table, caller, name),
        }
    } else {
        let Some(first) = path.first() else {
            return Vec::new();
        };
        let rest = || path.iter().skip(1).cloned();
        match first.as_str() {
            "Self" => {
                if let (Some(ty), 2) = (&caller.self_ty, path.len()) {
                    if let Some(ids) = table.methods_by_ty.get(&(ty.clone(), name.clone())) {
                        return ids.clone();
                    }
                }
                return Vec::new();
            }
            "self" => {
                let mut abs = vec![caller.krate.clone()];
                abs.extend(caller.module.iter().cloned());
                abs.extend(rest());
                candidates.push(abs);
            }
            "super" => {
                let mut abs = vec![caller.krate.clone()];
                let parent = caller.module.len().saturating_sub(1);
                abs.extend(caller.module.iter().take(parent).cloned());
                abs.extend(rest());
                candidates.push(abs);
            }
            _ => {
                if let Some(target) = scope.and_then(|s| s.uses.get(first)) {
                    // `use a::b; b::c(…)` — alias names a module/type.
                    let mut abs = target.clone();
                    abs.extend(rest());
                    candidates.push(abs);
                } else {
                    // First segment as a crate name, then the whole
                    // path relative to the caller's module, then
                    // relative to the crate root.
                    let mut abs = vec![normalize_crate_seg(first, &caller.krate)];
                    abs.extend(rest());
                    candidates.push(abs);
                    let mut rel = vec![caller.krate.clone()];
                    rel.extend(caller.module.iter().cloned());
                    rel.extend(path.iter().cloned());
                    candidates.push(rel);
                    let mut root = vec![caller.krate.clone()];
                    root.extend(path.iter().cloned());
                    candidates.push(root);
                }
            }
        }
    }

    for full in &candidates {
        let ids = resolve_absolute(table, full, name);
        if !ids.is_empty() {
            return ids;
        }
    }
    // Last resort: free fns with this name in the crate named by the
    // first candidate (handles re-exports that shift the module path).
    let Some(krate) = candidates.first().and_then(|c| c.first()) else {
        return Vec::new();
    };
    free_fns(table, name, |f| &f.krate == krate)
}

/// Free functions named `name` that satisfy `keep`, ids ascending.
fn free_fns(table: &SymbolTable, name: &str, keep: impl Fn(&FnSym) -> bool) -> Vec<usize> {
    let ids = table.free_by_name.get(name).into_iter().flatten().copied();
    ids.filter(|&id| table.fns.get(id).is_some_and(&keep))
        .collect()
}

/// Resolves one absolute path (`crate::…::name`) to functions: a
/// method when the penultimate segment is type-cased, else an exact
/// free-fn qname match.
fn resolve_absolute(table: &SymbolTable, full: &[String], name: &str) -> Vec<usize> {
    if full.len() >= 2 {
        if let Some(ty) = full.get(full.len().saturating_sub(2)) {
            if ty.chars().next().is_some_and(char::is_uppercase) {
                if let Some(ids) = table.methods_by_ty.get(&(ty.clone(), name.to_string())) {
                    return ids.clone();
                }
            }
        }
    }
    let qname = full.join("::");
    free_fns(table, name, |f| f.qname == qname)
}

/// Resolves a bare-ident call: a `use` alias was already expanded by
/// the caller, so try same module, then same crate. Type-cased idents
/// (`Some`, `Ok`, tuple structs) are constructors, not calls.
fn resolve_bare(table: &SymbolTable, caller: &FnSym, name: &str) -> Vec<usize> {
    if name.chars().next().is_some_and(char::is_uppercase) {
        return Vec::new();
    }
    let same_module = free_fns(table, name, |f| {
        f.krate == caller.krate && f.module == caller.module
    });
    if !same_module.is_empty() {
        return same_module;
    }
    free_fns(table, name, |f| f.krate == caller.krate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;
    use std::path::PathBuf;

    fn graph_of(files: &[(&str, &str)]) -> (SymbolTable, CallGraph) {
        let scanned: Vec<ScannedFile> = files
            .iter()
            .map(|(rel, src)| scan(PathBuf::from(rel), (*rel).into(), src))
            .collect();
        let table = SymbolTable::build(&scanned);
        let graph = CallGraph::build(&table, &scanned);
        (table, graph)
    }

    fn callee_names(table: &SymbolTable, graph: &CallGraph, caller: &str) -> Vec<String> {
        let ids = table.find_by_suffix(caller);
        let id = *ids.first().expect("caller exists");
        graph
            .edges(id)
            .map(|(k, _, _)| table.fns[k].qname.clone())
            .collect()
    }

    #[test]
    fn same_module_and_qualified_calls() {
        let src = "\
fn helper() {}
mod sub { pub fn inner() {} }
fn driver() {
    helper();
    sub::inner();
    self::helper();
    std::process::exit(1);
}
";
        let (t, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let names = callee_names(&t, &g, "x::driver");
        assert!(names.contains(&"x::helper".into()), "{names:?}");
        assert!(names.contains(&"x::sub::inner".into()), "{names:?}");
        assert_eq!(names.iter().filter(|n| *n == "x::helper").count(), 2);
        assert_eq!(names.len(), 3, "std call contributes no edge: {names:?}");
    }

    #[test]
    fn use_alias_resolves_cross_crate() {
        let a = "pub fn run_census() { }\n";
        let b = "\
use v6census_census::supervisor::run_census;
fn main() { run_census(); }
";
        let (t, g) = graph_of(&[
            ("crates/census/src/supervisor.rs", a),
            ("crates/cli/src/main.rs", b),
        ]);
        let names = callee_names(&t, &g, "cli::main");
        assert_eq!(names, vec!["census::supervisor::run_census".to_string()]);
    }

    #[test]
    fn self_method_calls_narrow_to_impl_type() {
        let src = "\
struct A;
struct B;
impl A {
    fn step(&self) {}
    fn go(&self) { self.step(); }
}
impl B {
    fn step(&self) {}
}
fn free(a: &A, b: &B) { a.step(); }
";
        let (t, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let narrowed = callee_names(&t, &g, "A::go");
        assert_eq!(narrowed, vec!["x::A::step".to_string()], "self narrows");
        let broad = callee_names(&t, &g, "x::free");
        assert_eq!(
            broad.len(),
            2,
            "unknown receiver over-approximates: {broad:?}"
        );
    }

    #[test]
    fn type_path_and_turbofish_calls() {
        let src = "\
struct Node;
impl Node {
    pub fn new() -> Node { Node }
}
fn parse<T>() -> T { todo!() }
fn driver() {
    let n = Node::new();
    let v = parse::<u32>();
}
";
        let (t, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let names = callee_names(&t, &g, "x::driver");
        assert!(names.contains(&"x::Node::new".into()), "{names:?}");
        assert!(names.contains(&"x::parse".into()), "turbofish: {names:?}");
    }

    #[test]
    fn call_lines_and_exprs_are_recorded() {
        let src = "fn f() {}\nfn g() {\n    f();\n}\n";
        let (t, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let id = *t.find_by_suffix("x::g").first().expect("g");
        let calls = &g.calls[id];
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].line, 3);
        assert_eq!(calls[0].expr, "f");
    }

    #[test]
    fn keywords_and_macros_are_not_calls() {
        let src = "\
fn f(x: bool) {
    if (x) { }
    while (x) { }
    println!(\"{}\", 1);
    return ();
}
";
        let (t, g) = graph_of(&[("crates/x/src/lib.rs", src)]);
        let id = *t.find_by_suffix("x::f").first().expect("f");
        assert!(g.calls[id].is_empty(), "{:?}", g.calls[id]);
    }
}
