//! Item-level symbol table over the lexed workspace.
//!
//! This is the first semantic layer: from each file's token stream it
//! extracts the `fn` items (free functions, inherent/trait methods,
//! trait default methods), the `impl`/`trait` blocks that own them, the
//! inline `mod` nesting, and the `use` declarations — enough to give
//! every function a stable qualified name and to resolve
//! workspace-local call paths in [`crate::callgraph`].
//!
//! Naming scheme (crate names are the workspace directory names, so
//! `v6census_census::supervisor::run_census` is
//! `census::supervisor::run_census`):
//!
//! * free function: `crate::module::…::name`
//! * method (inherent, trait impl, or trait default): `crate::Type::name`
//!
//! The parser is a single forward walk with a scope stack keyed to brace
//! depth; it is deliberately total — unparseable constructs degrade to
//! "no symbol recorded", never to a crash, because the lint must never
//! panic on the code it audits (that is rule L001's own contract).

use std::collections::BTreeMap;

use crate::lexer::{code_tokens, TokKind, Token};
use crate::scan::ScannedFile;

/// One function item (free function or method).
#[derive(Clone, Debug)]
pub struct FnSym {
    /// Qualified name: `crate::module::name` or `crate::Type::name`.
    pub qname: String,
    /// Bare function name, the last segment of `qname`.
    pub name: String,
    /// The `impl`/`trait` self type when this is a method.
    pub self_ty: Option<String>,
    /// Workspace crate (directory name under `crates/`).
    pub krate: String,
    /// Module path within the crate (file modules + inline `mod`s).
    pub module: Vec<String>,
    /// Index of the owning file in the scanned-file slice.
    pub file: usize,
    /// 1-based line of the `fn` name.
    pub line: usize,
    /// Token-index range `[start, end)` of the body block, braces
    /// included; `None` for bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// True when declared inside a `#[cfg(test)]`/`#[test]` region.
    pub is_test: bool,
    /// True when the return type mentions `Result`.
    pub returns_result: bool,
    /// True for `pub` items (any visibility scope).
    pub is_pub: bool,
}

/// Per-file resolution context.
#[derive(Clone, Debug, Default)]
pub struct FileScope {
    /// Workspace crate name derived from the path.
    pub krate: String,
    /// Module path derived from the path (inline `mod`s are carried on
    /// each [`FnSym`], not here).
    pub module: Vec<String>,
    /// `use` aliases: imported name → absolute path segments (first
    /// segment is a normalized workspace crate name, or a foreign crate
    /// like `std` left as-is).
    pub uses: BTreeMap<String, Vec<String>>,
}

/// The workspace symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// One entry per scanned file, same order.
    pub scopes: Vec<FileScope>,
    /// Every function item found.
    pub fns: Vec<FnSym>,
    /// Free functions by bare name.
    pub free_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods by bare name (across all self types).
    pub methods_by_name: BTreeMap<String, Vec<usize>>,
    /// Methods by `(Type, name)`.
    pub methods_by_ty: BTreeMap<(String, String), Vec<usize>>,
}

impl SymbolTable {
    /// Builds the table from every scanned file.
    pub fn build(files: &[ScannedFile]) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (idx, file) in files.iter().enumerate() {
            let scope = parse_file(&mut table, idx, file);
            table.scopes.push(scope);
        }
        for (id, f) in table.fns.iter().enumerate() {
            match &f.self_ty {
                Some(ty) => {
                    table
                        .methods_by_name
                        .entry(f.name.clone())
                        .or_default()
                        .push(id);
                    table
                        .methods_by_ty
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(id);
                }
                None => table
                    .free_by_name
                    .entry(f.name.clone())
                    .or_default()
                    .push(id),
            }
        }
        table
    }

    /// True when `id` is a function declared in test code.
    pub(crate) fn is_test(&self, id: usize) -> bool {
        self.fns.get(id).is_some_and(|f| f.is_test)
    }

    /// Function ids whose qualified name ends with the given
    /// `::`-separated suffix (`"cli::main"` matches `cli::main` but not
    /// `cli::commands::main`'s prefix; `"census"` alone matches any fn
    /// named census).
    pub fn find_by_suffix(&self, suffix: &str) -> Vec<usize> {
        let want: Vec<&str> = suffix.split("::").collect();
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                let have: Vec<&str> = f.qname.split("::").collect();
                have.len() >= want.len() && have[have.len() - want.len()..] == want[..]
            })
            .map(|(id, _)| id)
            .collect()
    }
}

/// Maps a workspace-relative path to (crate, module path).
///
/// `crates/census/src/supervisor.rs` → (`census`, `[supervisor]`);
/// `src/lib.rs` → (`v6census`, `[]`); `crates/bench/src/bin/fig1.rs` →
/// (`bench`, `[bin, fig1]`). Paths outside the known layout fall back to
/// the file stem as a pseudo-crate so single-file fixtures still
/// resolve same-module calls.
pub fn crate_and_module(rel: &str) -> (String, Vec<String>) {
    let parts: Vec<&str> = rel.split('/').collect();
    let (krate, rest): (String, &[&str]) = match parts.as_slice() {
        ["crates", k, "src", rest @ ..] => ((*k).to_string(), rest),
        ["src", rest @ ..] => ("v6census".to_string(), rest),
        _ => {
            let stem = parts
                .last()
                .and_then(|p| p.strip_suffix(".rs"))
                .unwrap_or("file");
            return (stem.to_string(), Vec::new());
        }
    };
    let mut module: Vec<String> = rest
        .iter()
        .map(|p| p.strip_suffix(".rs").unwrap_or(p).to_string())
        .collect();
    // `lib.rs`, `main.rs`, and `mod.rs` are their parent module.
    if matches!(
        module.last().map(String::as_str),
        Some("lib" | "main" | "mod")
    ) {
        module.pop();
    }
    (krate, module)
}

/// Normalizes a path's first segment to a workspace crate name:
/// `v6census_addr` → `addr`, `crate` → the current crate. Foreign
/// crates (`std`, `core`, …) are returned unchanged — note that a bare
/// `core::` path is *std's* core; our core crate is only reachable as
/// `v6census_core`.
pub fn normalize_crate_seg(seg: &str, current_crate: &str) -> String {
    if seg == "crate" {
        return current_crate.to_string();
    }
    match seg.strip_prefix("v6census_") {
        Some("") | None => seg.to_string(),
        Some(rest) => rest.to_string(),
    }
}

/// What the scope stack is tracking at each brace depth.
#[derive(Clone, Debug)]
enum Scope {
    Module(String),
    SelfTy(String),
    Fn { id: usize },
    Block,
}

/// Item keyword seen since the last statement boundary, waiting for its
/// `{`.
#[derive(Clone, Debug)]
enum Pending {
    Module(String),
    SelfTy(String),
    Fn { id: usize },
}

/// Walks one file's tokens, appending function symbols to `table`.
fn parse_file(table: &mut SymbolTable, file_idx: usize, file: &ScannedFile) -> FileScope {
    let (krate, file_module) = crate_and_module(&file.rel);
    let mut scope = FileScope {
        krate: krate.clone(),
        module: file_module.clone(),
        uses: BTreeMap::new(),
    };
    // Comment-free view with original token indices.
    let toks = code_tokens(&file.tokens, 0..file.tokens.len());

    let mut stack: Vec<Scope> = Vec::new();
    let mut pending: Option<Pending> = None;
    // Start of the current item's prefix tokens, for visibility checks.
    let mut item_start = 0usize;

    let mut i = 0usize;
    while i < toks.len() {
        let (orig, t) = toks[i];
        match t.kind {
            TokKind::Ident => match t.text.as_str() {
                "mod" => {
                    if let Some((_, name)) =
                        toks.get(i + 1).filter(|(_, n)| n.kind == TokKind::Ident)
                    {
                        pending = Some(Pending::Module(name.text.clone()));
                        i += 1;
                    }
                }
                // Only an item-position `impl` opens an impl block.
                // With a Pending::Fn (or other item) active, this is
                // `impl Trait` inside a signature (`f: impl Fn(u64)`,
                // `-> impl Iterator`) and must not steal the body.
                "impl" if pending.is_none() => {
                    if let Some(ty) = impl_self_type(&toks, i + 1) {
                        pending = Some(Pending::SelfTy(ty));
                    }
                }
                "trait" => {
                    if let Some((_, name)) =
                        toks.get(i + 1).filter(|(_, n)| n.kind == TokKind::Ident)
                    {
                        pending = Some(Pending::SelfTy(name.text.clone()));
                        i += 1;
                    }
                }
                "use" => {
                    i = parse_use(&mut scope, &toks, i);
                    item_start = i + 1;
                }
                "fn" => {
                    if let Some((_, name)) =
                        toks.get(i + 1).filter(|(_, n)| n.kind == TokKind::Ident)
                    {
                        let id = record_fn(
                            table,
                            file_idx,
                            file,
                            &krate,
                            &file_module,
                            &stack,
                            &toks,
                            i,
                            name,
                            item_start,
                        );
                        if let Some(id) = id {
                            pending = Some(Pending::Fn { id });
                        }
                        i += 1;
                    }
                }
                _ => {}
            },
            TokKind::Op => match t.text.as_str() {
                "{" => {
                    stack.push(match pending.take() {
                        Some(Pending::Module(m)) => Scope::Module(m),
                        Some(Pending::SelfTy(ty)) => Scope::SelfTy(ty),
                        Some(Pending::Fn { id }) => {
                            table.fns[id].body = Some((orig, orig + 1)); // end patched at `}`
                            Scope::Fn { id }
                        }
                        None => Scope::Block,
                    });
                    item_start = i + 1;
                }
                "}" => {
                    if let Some(Scope::Fn { id }) = stack.pop() {
                        if let Some((start, _)) = table.fns[id].body {
                            table.fns[id].body = Some((start, orig + 1));
                        }
                    }
                    pending = None;
                    item_start = i + 1;
                }
                ";" => {
                    pending = None;
                    item_start = i + 1;
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    scope
}

/// Extracts the self type of an `impl` header starting right after the
/// `impl` keyword: skips generics, honours `impl Trait for Type`, and
/// takes the last path segment of the type at angle depth 0.
fn impl_self_type(toks: &[(usize, &Token)], mut i: usize) -> Option<String> {
    // Skip `<...>` generic parameters.
    if toks.get(i).is_some_and(|(_, t)| t.is_op("<")) {
        let mut depth = 0i64;
        while let Some((_, t)) = toks.get(i) {
            match t.text.as_str() {
                "<" | "<<" => depth += angle_arrows(t),
                ">" | ">>" => {
                    depth -= angle_arrows(t);
                    if depth <= 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    // Walk the header up to the body `{` (or a `where` clause),
    // remembering the last ident at angle depth 0 both before and after
    // a top-level `for`.
    let mut depth = 0i64;
    let mut before_for: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while let Some((_, t)) = toks.get(i) {
        match t.kind {
            TokKind::Op => match t.text.as_str() {
                "{" | ";" => break,
                "<" | "<<" => depth += angle_arrows(t),
                ">" | ">>" => depth -= angle_arrows(t),
                _ => {}
            },
            TokKind::Ident if depth == 0 => match t.text.as_str() {
                "for" => saw_for = true,
                "where" => break,
                "dyn" | "mut" | "const" => {}
                name => {
                    let slot = if saw_for {
                        &mut after_for
                    } else {
                        &mut before_for
                    };
                    *slot = Some(name.to_string());
                }
            },
            _ => {}
        }
        i += 1;
    }
    if saw_for {
        after_for
    } else {
        before_for
    }
}

fn angle_arrows(t: &Token) -> i64 {
    if t.text.len() == 2 {
        2
    } else {
        1
    }
}

/// Records one `fn` item. `fn_at` indexes the `fn` keyword in `toks`;
/// `name` is the following ident. Returns the new symbol id, or `None`
/// when the signature runs off the file.
#[allow(clippy::too_many_arguments)]
fn record_fn(
    table: &mut SymbolTable,
    file_idx: usize,
    file: &ScannedFile,
    krate: &str,
    file_module: &[String],
    stack: &[Scope],
    toks: &[(usize, &Token)],
    fn_at: usize,
    name: &Token,
    item_start: usize,
) -> Option<usize> {
    // Visibility: a `pub` among the item-prefix tokens (attributes,
    // qualifiers) since the last statement boundary.
    let is_pub = toks[item_start..fn_at]
        .iter()
        .any(|(_, t)| t.is_ident("pub"));

    // Scan the signature up to the body `{` or declaration `;` to learn
    // the return type. Angle depth guards against `->` inside generic
    // bounds; return types carry no braces, so a `{` at depth 0 is the
    // body.
    let mut i = fn_at + 2;
    let mut angle = 0i64;
    let mut saw_arrow = false;
    let mut returns_result = false;
    while let Some((_, t)) = toks.get(i) {
        match t.kind {
            TokKind::Op => match t.text.as_str() {
                "<" | "<<" => angle += angle_arrows(t),
                ">" | ">>" => angle -= angle_arrows(t),
                "->" => saw_arrow = true,
                "{" if angle <= 0 => break,
                ";" if angle <= 0 => break,
                _ => {}
            },
            TokKind::Ident if saw_arrow && t.text == "Result" => returns_result = true,
            _ => {}
        }
        i += 1;
    }
    toks.get(i)?; // ran off the file: unparseable, record nothing

    // Enclosing inline modules and self type from the scope stack.
    let mut module = file_module.to_vec();
    let mut self_ty = None;
    for s in stack {
        match s {
            Scope::Module(m) => module.push(m.clone()),
            Scope::SelfTy(ty) => self_ty = Some(ty.clone()),
            _ => {}
        }
    }
    let qname = match &self_ty {
        Some(ty) => format!("{krate}::{ty}::{}", name.text),
        None => {
            let mut parts = vec![krate.to_string()];
            parts.extend(module.iter().cloned());
            parts.push(name.text.clone());
            parts.join("::")
        }
    };
    let id = table.fns.len();
    table.fns.push(FnSym {
        qname,
        name: name.text.clone(),
        self_ty,
        krate: krate.to_string(),
        module,
        file: file_idx,
        line: name.line,
        body: None, // filled in when the `{` is reached
        is_test: file.is_test_line(name.line),
        returns_result,
        is_pub,
    });
    Some(id)
}

/// Parses a `use` declaration starting at the `use` keyword; returns
/// the index of its terminating `;` (or the last token). Fills
/// `scope.uses` with alias → absolute path entries. Glob imports are
/// ignored (nothing in the workspace depends on them for fn calls).
fn parse_use(scope: &mut FileScope, toks: &[(usize, &Token)], use_at: usize) -> usize {
    let mut end = use_at + 1;
    while let Some((_, t)) = toks.get(end) {
        if t.is_op(";") {
            break;
        }
        end += 1;
    }
    let krate = scope.krate.clone();
    let module = scope.module.clone();
    collect_use_tree(
        scope,
        &krate,
        &module,
        &toks[use_at + 1..end.min(toks.len())],
        &[],
    );
    end
}

/// Recursively walks a use tree (`a::b::{c, d as e}`) and records leaf
/// aliases against `prefix` + their path.
fn collect_use_tree(
    scope: &mut FileScope,
    krate: &str,
    module: &[String],
    toks: &[(usize, &Token)],
    prefix: &[String],
) {
    let mut path: Vec<String> = prefix.to_vec();
    let mut i = 0usize;
    let mut last_leaf: Option<String> = None;
    while i < toks.len() {
        let (_, t) = toks[i];
        match t.kind {
            TokKind::Ident if t.text == "as" => {
                // `leaf as alias`: the next ident renames the leaf.
                if let (Some(leaf), Some((_, alias))) = (last_leaf.take(), toks.get(i + 1)) {
                    let mut full = path.clone();
                    full.push(leaf);
                    record_use(scope, krate, module, alias.text.clone(), full);
                    i += 1;
                }
            }
            TokKind::Ident => last_leaf = Some(t.text.clone()),
            TokKind::Op => match t.text.as_str() {
                "::" => {
                    if let Some(seg) = last_leaf.take() {
                        path.push(seg);
                    }
                }
                "{" => {
                    // Group: split the balanced interior on top commas.
                    let close = matching_brace(toks, i);
                    let inner = &toks[i + 1..close];
                    for part in split_top_commas(inner) {
                        collect_use_tree(scope, krate, module, part, &path);
                    }
                    i = close;
                    last_leaf = None;
                }
                "*" => last_leaf = None, // glob: ignored
                "," => {
                    if let Some(leaf) = last_leaf.take() {
                        let mut full = path.clone();
                        full.push(leaf.clone());
                        record_use(scope, krate, module, leaf, full);
                    }
                    path = prefix.to_vec();
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    if let Some(leaf) = last_leaf {
        let mut full = path;
        full.push(leaf.clone());
        record_use(scope, krate, module, leaf, full);
    }
}

/// Records one alias, absolutizing `crate`/`self`/`super` and workspace
/// lib names.
fn record_use(
    scope: &mut FileScope,
    krate: &str,
    module: &[String],
    alias: String,
    mut path: Vec<String>,
) {
    let Some(first) = path.first().cloned() else {
        return;
    };
    match first.as_str() {
        "self" => {
            let mut abs = vec![krate.to_string()];
            abs.extend(module.iter().cloned());
            abs.extend(path.drain(1..));
            path = abs;
        }
        "super" => {
            let mut abs = vec![krate.to_string()];
            let parent = module.len().saturating_sub(1);
            abs.extend(module[..parent].iter().cloned());
            abs.extend(path.drain(1..));
            path = abs;
        }
        _ => {
            let norm = normalize_crate_seg(&first, krate);
            if let Some(slot) = path.first_mut() {
                *slot = norm;
            }
        }
    }
    scope.uses.insert(alias, path);
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[(usize, &Token)], open: usize) -> usize {
    let mut depth = 0i64;
    for (j, (_, t)) in toks.iter().enumerate().skip(open) {
        if t.is_op("{") {
            depth += 1;
        } else if t.is_op("}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Splits a token slice on commas at brace depth 0.
fn split_top_commas<'s, 't>(toks: &'s [(usize, &'t Token)]) -> Vec<&'s [(usize, &'t Token)]> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut start = 0usize;
    for (j, (_, t)) in toks.iter().enumerate() {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => depth -= 1,
            "," if depth == 0 => {
                out.push(&toks[start..j]);
                start = j + 1;
            }
            _ => {}
        }
    }
    out.push(&toks[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;
    use std::path::PathBuf;

    fn table_of(rel: &str, src: &str) -> (SymbolTable, Vec<ScannedFile>) {
        let files = vec![scan(PathBuf::from(rel), rel.into(), src)];
        (SymbolTable::build(&files), files)
    }

    #[test]
    fn crate_and_module_mapping() {
        assert_eq!(
            crate_and_module("crates/census/src/supervisor.rs"),
            ("census".into(), vec!["supervisor".into()])
        );
        assert_eq!(
            crate_and_module("crates/cli/src/commands/mod.rs"),
            ("cli".into(), vec!["commands".into()])
        );
        assert_eq!(
            crate_and_module("crates/cli/src/main.rs"),
            ("cli".into(), vec![])
        );
        assert_eq!(crate_and_module("src/lib.rs"), ("v6census".into(), vec![]));
        assert_eq!(crate_and_module("l006_bad.rs"), ("l006_bad".into(), vec![]));
    }

    #[test]
    fn free_fns_methods_and_modules() {
        let src = "\
pub fn top() {}
mod inner {
    pub fn nested() {}
}
struct S;
impl S {
    pub fn method(&self) -> Result<(), E> { Ok(()) }
}
impl std::fmt::Display for S {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
}
trait T {
    fn required(&self);
    fn defaulted(&self) { body(); }
}
";
        let (t, _) = table_of("crates/x/src/lib.rs", src);
        let names: Vec<&str> = t.fns.iter().map(|f| f.qname.as_str()).collect();
        assert!(names.contains(&"x::top"), "{names:?}");
        assert!(names.contains(&"x::inner::nested"), "{names:?}");
        assert!(names.contains(&"x::S::method"), "{names:?}");
        assert!(names.contains(&"x::S::fmt"), "{names:?}");
        assert!(names.contains(&"x::T::required"), "{names:?}");
        assert!(names.contains(&"x::T::defaulted"), "{names:?}");
        let method = &t.fns[t.methods_by_ty[&("S".into(), "method".into())][0]];
        assert!(method.returns_result);
        assert!(method.is_pub);
        assert!(method.body.is_some());
        let required = &t.fns[t.methods_by_ty[&("T".into(), "required".into())][0]];
        assert!(required.body.is_none(), "bodyless trait decl");
    }

    #[test]
    fn bodies_span_their_braces() {
        let src = "fn a() { if x { y(); } }\nfn b() {}\n";
        let (t, files) = table_of("crates/x/src/lib.rs", src);
        assert_eq!(t.fns.len(), 2);
        let (s, e) = t.fns[0].body.expect("a has a body");
        let toks = &files[0].tokens;
        assert!(toks[s].is_op("{"));
        assert!(toks[e - 1].is_op("}"));
        let inner: Vec<_> = toks[s..e].iter().filter(|t| t.is_ident("y")).collect();
        assert_eq!(inner.len(), 1, "body covers nested blocks");
        assert!(t.fns[1].body.is_some());
    }

    #[test]
    fn use_declarations_resolve() {
        let src = "\
use v6census_census::supervisor::run_census;
use crate::trie::{densify, Node as TrieNode};
use std::collections::BTreeMap;
use self::sub::helper;
fn f() {}
";
        let (t, _) = table_of("crates/cli/src/commands/census.rs", src);
        let uses = &t.scopes[0].uses;
        assert_eq!(
            uses["run_census"],
            vec!["census", "supervisor", "run_census"]
        );
        assert_eq!(uses["densify"], vec!["cli", "trie", "densify"]);
        assert_eq!(uses["TrieNode"], vec!["cli", "trie", "Node"]);
        assert_eq!(uses["BTreeMap"], vec!["std", "collections", "BTreeMap"]);
        assert_eq!(
            uses["helper"],
            vec!["cli", "commands", "census", "sub", "helper"]
        );
    }

    #[test]
    fn impl_trait_in_signature_keeps_the_body() {
        // Regression: `impl` inside a fn signature (param or return
        // position) used to overwrite the pending fn with a bogus
        // impl-block scope, dropping the body (and with it every
        // call-graph edge out of the function).
        let src = "\
fn helper(n: u64, f: impl Fn(u64) -> u64) -> impl Iterator<Item = u64> {
    inner();
    std::iter::once(f(n))
}
fn inner() {}
fn outer(x: impl Into<String>) {
    fn nested() {}
    nested();
}
";
        let (t, files) = table_of("crates/x/src/lib.rs", src);
        let helper = t.fns.iter().find(|f| f.name == "helper").expect("helper");
        assert!(helper.self_ty.is_none(), "not a method: {helper:?}");
        let (s, e) = helper.body.expect("impl Trait must not steal the body");
        let body = &files[0].tokens[s..e];
        assert!(
            body.iter().any(|t| t.is_ident("inner")),
            "body covers the call to inner"
        );
        let nested = t.fns.iter().find(|f| f.name == "nested").expect("nested");
        assert!(
            nested.self_ty.is_none(),
            "nested fn is not a method of the trait name: {nested:?}"
        );
        assert_eq!(nested.qname, "x::nested");
        let outer = t.fns.iter().find(|f| f.name == "outer").expect("outer");
        assert!(outer.body.is_some());
    }

    #[test]
    fn test_region_fns_are_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        let (t, _) = table_of("crates/x/src/lib.rs", src);
        let lib = t.fns.iter().find(|f| f.name == "lib").expect("lib");
        let test = t.fns.iter().find(|f| f.name == "t").expect("t");
        assert!(!lib.is_test);
        assert!(test.is_test);
        assert_eq!(test.qname, "x::tests::t");
    }

    #[test]
    fn suffix_lookup() {
        let src = "fn main() {}\nmod commands { pub fn census() {} }\n";
        let (t, _) = table_of("crates/cli/src/main.rs", src);
        assert_eq!(t.find_by_suffix("cli::main").len(), 1);
        assert_eq!(t.find_by_suffix("commands::census").len(), 1);
        assert_eq!(t.find_by_suffix("nope::census").len(), 0);
    }
}
