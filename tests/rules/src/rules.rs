//! The rule table, the scopes that deny each rule, and the source
//! checks for what no clippy lint covers.

use crate::scan::{is_ident, lines, Source};

/// A source check: findings as `(line, what)` over one file's non-test
/// text.
pub type Check = fn(&Source) -> Vec<(usize, String)>;

/// One rule: the clippy lints that enforce it and the source check for
/// what no lint covers.
pub struct Rule {
    /// The fixture stem: `tests/lint_fixtures/{id}_*bad.rs` and
    /// `{id}_ok.rs`.
    pub id: &'static str,
    /// The clippy (or rustc) lints a scope denies for this rule.
    pub lints: &'static [&'static str],
    /// The source check, where a lint does not cover the rule.
    pub check: Option<Check>,
}

const NO_PANIC: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];

/// Every rule, in DESIGN.md §7's order.
pub const RULES: &[Rule] = &[
    // No panic paths: library code returns typed errors.
    Rule {
        id: "l001",
        lints: NO_PANIC,
        check: Some(literal_indexing),
    },
    // Determinism: no hash iteration order, wall clocks, or run-varying
    // float formats in code that feeds product output.
    Rule {
        id: "l002",
        lints: &["clippy::disallowed_types", "clippy::disallowed_methods"],
        check: Some(unstable_float_formats),
    },
    // Cast safety: bit and nybble math does not truncate silently.
    Rule {
        id: "l003",
        lints: &["clippy::cast_possible_truncation"],
        check: None,
    },
    // Error taxonomy: public fallible APIs expose typed errors.
    Rule {
        id: "l004",
        lints: &[],
        check: Some(stringly_errors),
    },
    // Exit codes: `process::exit` names a documented EXIT_* constant.
    Rule {
        id: "l005",
        lints: &[],
        check: Some(bare_exits),
    },
    // Overflow policy: bit math spells what overflow does.
    Rule {
        id: "l006",
        lints: &["clippy::arithmetic_side_effects"],
        check: Some(variable_shifts),
    },
    // Discarded results: no `let _ =` or trailing `.ok()` on a Result.
    Rule {
        id: "l007",
        lints: &[
            "clippy::let_underscore_must_use",
            "clippy::unused_result_ok",
        ],
        check: None,
    },
    // Durability: filesystem mutations go through core::vfs.
    Rule {
        id: "l008",
        lints: &["clippy::disallowed_methods"],
        check: None,
    },
    // Lock confinement: Mutex, RwLock and Condvar only where expected.
    Rule {
        id: "l009",
        lints: &["clippy::disallowed_types"],
        check: None,
    },
    // Accountable suppressions: `#[expect]` with a reason, never a stale
    // one, never `#[allow]`.
    Rule {
        id: "pragma",
        lints: &[
            "clippy::allow_attributes",
            "clippy::allow_attributes_without_reason",
            "unfulfilled_lint_expectations",
        ],
        check: None,
    },
];

/// Each file that carries an inner `#![deny(…)]`, and the rules it
/// denies. A crate root's rules cover its whole `src/` tree.
pub const SCOPES: &[(&str, &[&str])] = &[
    (
        "crates/addr/src/lib.rs",
        &["l001", "l002", "l003", "l006", "l007", "l009", "pragma"],
    ),
    (
        "crates/trie/src/lib.rs",
        &["l001", "l002", "l003", "l006", "l007", "l009", "pragma"],
    ),
    (
        "crates/core/src/lib.rs",
        &["l001", "l002", "l007", "l009", "pragma"],
    ),
    (
        "crates/census/src/lib.rs",
        &["l001", "l002", "l004", "l007", "l008", "l009", "pragma"],
    ),
    (
        "crates/cli/src/lib.rs",
        &["l001", "l002", "l004", "l005", "l007", "l009", "pragma"],
    ),
    (
        "crates/cli/src/main.rs",
        &["l001", "l002", "l004", "l005", "l007", "l009", "pragma"],
    ),
    // Every path from a CLI entry point reaches synth, so it is held to
    // the no-panic rule too.
    (
        "crates/synth/src/lib.rs",
        &["l001", "l007", "l009", "pragma"],
    ),
    ("crates/synth/src/loggen.rs", &["l008"]),
    ("crates/bench/src/lib.rs", &["l007", "pragma"]),
    ("crates/bench/src/bin/repro_all.rs", &["l007", "pragma"]),
    ("src/lib.rs", &["l001", "l007", "l009", "pragma"]),
];

/// The exit codes `process::exit` may name.
pub const EXIT_CODES: &[&str] = &["EXIT_OK", "EXIT_DATA_ERROR", "EXIT_USAGE", "EXIT_DEGRADED"];

/// The rule `id`; an unknown id is a bug in the caller's table.
pub fn rule(id: &str) -> &'static Rule {
    RULES
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("no rule {id}"))
}

/// True when `s` is a decimal integer literal, with an optional type
/// suffix.
fn is_int_literal(s: &str) -> bool {
    const SUFFIXES: &[&str] = &[
        "", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    let end = s
        .find(|c: char| !c.is_ascii_digit() && c != '_')
        .unwrap_or(s.len());
    let (digits, suffix) = s.split_at(end);
    digits.starts_with(|c: char| c.is_ascii_digit()) && SUFFIXES.contains(&suffix)
}

/// No panic paths: an index by an integer literal (`v[0]`, `self.0[3]`)
/// panics when out of bounds. Clippy's `indexing_slicing` would flag
/// every index, variable ones too, so this stays a source check.
pub fn literal_indexing(src: &Source) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (n, line) in lines(&src.code) {
        for (i, _) in line.match_indices('[') {
            let indexes = line[..i]
                .trim_end()
                .chars()
                .next_back()
                .is_some_and(|p| is_ident(p) || p == ')' || p == ']');
            let inner = line[i + 1..].split(']').next().unwrap_or("").trim();
            if indexes && line[i + 1..].contains(']') && is_int_literal(inner) {
                out.push((
                    n,
                    format!("literal index `[{inner}]`: destructure or use .get()"),
                ));
            }
        }
    }
    out
}

/// Determinism: `{:e}` and argument-supplied precision (`{:.*}`,
/// `{:.1$}`, `{:.prec$}`) render differently as values vary; product
/// output uses a fixed `{:.N}`. Clippy has no lint for format specs.
pub fn unstable_float_formats(src: &Source) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (n, line) in lines(&src.text) {
        let mut rest = line;
        while let Some(open) = rest.find('{') {
            rest = &rest[open + 1..];
            if let Some(escaped) = rest.strip_prefix('{') {
                rest = escaped;
                continue;
            }
            let Some(spec) = rest.split('}').next() else {
                break;
            };
            if spec.contains(char::is_whitespace) || spec.contains('{') {
                continue;
            }
            if let Some((_, fmt)) = spec.split_once(':') {
                let scientific = fmt.ends_with('e') || fmt.ends_with('E');
                let runtime =
                    fmt.contains(".*") || fmt.split_once('.').is_some_and(|(_, p)| p.contains('$'));
                if scientific || runtime {
                    out.push((
                        n,
                        format!("format spec `{{{spec}}}`: use a fixed {{:.N}} precision"),
                    ));
                }
            }
        }
    }
    out
}

/// Error taxonomy: a public fn returning `Result<_, String>` or
/// `Result<_, Box<dyn …>>` erases the error kinds callers triage on.
pub fn stringly_errors(src: &Source) -> Vec<(usize, String)> {
    let code = &src.code;
    let mut out = Vec::new();
    for (at, _) in code.match_indices("pub") {
        let before_ok = code[..at].chars().next_back().is_none_or(|c| !is_ident(c));
        let mut rest = &code[at + 3..];
        if !before_ok || rest.starts_with(is_ident) {
            continue;
        }
        // `pub(crate)`, then fn qualifiers.
        rest = rest.trim_start();
        if rest.starts_with('(') {
            rest = rest.split_once(')').map_or("", |(_, r)| r);
        }
        let mut words = rest.split_whitespace().peekable();
        while words
            .next_if(|w| matches!(*w, "const" | "async" | "unsafe"))
            .is_some()
        {}
        if words.next() != Some("fn") {
            continue;
        }
        let sig = rest.split(['{', ';']).next().unwrap_or("");
        let Some((_, ret)) = sig.split_once("->") else {
            continue;
        };
        let Some(args) = ret.trim().strip_prefix("Result<") else {
            continue;
        };
        // The second argument at the top bracket level.
        let (mut depth, mut comma, mut end) = (0i32, None, args.len());
        for (i, c) in args.char_indices() {
            match c {
                '>' if depth == 0 => {
                    end = i;
                    break;
                }
                '<' | '(' | '[' => depth += 1,
                '>' | ')' | ']' => depth -= 1,
                ',' if depth == 0 => comma = Some(i + 1),
                _ => {}
            }
        }
        let err = comma.map_or("", |c| args[c..end].trim());
        if err == "String" || err.starts_with("Box<dyn") {
            let line = code[..at].matches('\n').count() + 1;
            out.push((
                line,
                format!("public fn returns Result<_, {err}>: use a typed error"),
            ));
        }
    }
    out
}

/// Exit codes: every `process::exit` names one of [`EXIT_CODES`].
pub fn bare_exits(src: &Source) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (n, line) in lines(&src.code) {
        for (i, pat) in line.match_indices("process::exit(") {
            let arg = line[i + pat.len()..].split(')').next().unwrap_or("").trim();
            let name = arg.rsplit("::").next().unwrap_or(arg);
            if !EXIT_CODES.contains(&name) {
                out.push((
                    n,
                    format!("process::exit({arg}): use one of {EXIT_CODES:?}"),
                ));
            }
        }
    }
    out
}

/// Overflow policy: a shift by anything but a literal panics in debug
/// once the amount reaches the width, and `arithmetic_side_effects` does
/// not flag shifts. Shift through `v6census_addr::bits` or
/// `checked_shl`/`checked_shr`. rustfmt spaces binary operators, so a
/// spaced `<<`/`>>` is a shift and a closing `>>` of generics is not.
pub fn variable_shifts(src: &Source) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (n, line) in lines(&src.code) {
        for op in [" << ", " >> ", " <<= ", " >>= "] {
            for (i, _) in line.match_indices(op) {
                let amount: String = line[i + op.len()..]
                    .chars()
                    .take_while(|&c| is_ident(c))
                    .collect();
                if !is_int_literal(&amount) {
                    out.push((n, format!("shift by `{amount}`: use v6census_addr::bits")));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::clippy_snippet;

    /// The source check's findings on `code`, by line.
    fn check(check: Check, code: &str) -> Vec<usize> {
        check(&Source::new(code))
            .into_iter()
            .map(|(n, _)| n)
            .collect()
    }

    /// `(lint, line)` of each error clippy reports on `code` with rule
    /// `id`'s lints denied, as library code.
    fn lints(name: &str, id: &str, code: &str) -> Vec<(String, usize)> {
        clippy_snippet(name, code, rule(id).lints, false).errors()
    }

    #[test]
    fn l001_flags_panic_paths_not_lookalikes() {
        let bad = "pub fn f(x: Option<u8>, y: Result<u8, ()>, v: &[u8]) -> u8 {\n\
                   x.unwrap() + y.expect(\"m\") + v[0]\n}\n\
                   pub fn g() { panic!(\"n\"); }\n";
        let found = lints("l001_bad", "l001", bad);
        assert_eq!(
            found,
            [
                ("clippy::unwrap_used".to_string(), 2),
                ("clippy::expect_used".to_string(), 2),
                ("clippy::panic".to_string(), 4)
            ],
            "{found:?}"
        );
        assert_eq!(check(literal_indexing, bad), [2]);
        let ok = "pub fn f(x: Option<u8>, y: Result<u8, ()>, v: &[u8], i: usize) -> u8 {\n\
                  x.unwrap_or(0) + y.unwrap_or_else(|()| 1) + v.get(0).copied().unwrap_or(0) + v[i]\n}\n";
        assert!(lints("l001_ok", "l001", ok).is_empty());
        assert!(check(literal_indexing, ok).is_empty());
        let test_only = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); let v = [1]; assert_eq!(v[0], 1); }\n}\n";
        let as_test = clippy_snippet("l001_test_only", test_only, NO_PANIC, true);
        assert!(as_test.compiled, "{}", as_test.diagnostics);
        assert!(check(literal_indexing, test_only).is_empty());
    }

    #[test]
    fn l001_ignores_array_types_and_attributes() {
        let ok = "fn f(a: [u8; 6]) -> [u8; 4] { let b: [u8; 2] = m; b }\n\
                  #[derive(Debug)]\nstruct S;\nlet z = [0; 4]; let s = \"v[0]\";\n";
        assert!(check(literal_indexing, ok).is_empty());
        assert_eq!(check(literal_indexing, "f()[2]; self.0[3];"), [1, 1]);
    }

    #[test]
    fn l002_flags_hazards() {
        let bad = "use std::collections::HashMap;\n\
                   pub fn f() -> usize {\n\
                   let m: HashMap<u8, u8> = HashMap::new();\n\
                   let _t = std::time::Instant::now();\n\
                   m.len()\n}\n";
        let found = lints("l002_bad", "l002", bad);
        assert!(
            found.contains(&("clippy::disallowed_types".to_string(), 1))
                && found.contains(&("clippy::disallowed_methods".to_string(), 4)),
            "{found:?}"
        );
        let ok = "use std::collections::BTreeMap;\npub struct MyHashMapLike;\n\
                  pub fn f() -> (usize, MyHashMapLike) { (BTreeMap::<u8, u8>::new().len(), MyHashMapLike) }\n";
        assert!(lints("l002_ok", "l002", ok).is_empty());
    }

    #[test]
    fn l002_flags_unstable_float_formats() {
        assert_eq!(
            check(unstable_float_formats, "format!(\"x {:e} y\", v)"),
            [1]
        );
        assert_eq!(check(unstable_float_formats, "\"{:.*}\""), [1]);
        assert_eq!(
            check(unstable_float_formats, "\"{:.1$}\"\n\"{x:.prec$}\""),
            [1, 2]
        );
        assert!(
            check(unstable_float_formats, "\"{:.3} {x:.3}\"").is_empty(),
            "fixed precision is stable"
        );
        assert!(check(unstable_float_formats, "\"{{:e}} escaped\"").is_empty());
        assert!(check(unstable_float_formats, "\"{:>8}\" S { a: e }").is_empty());
        assert!(check(unstable_float_formats, "// \"{:e}\" in a comment").is_empty());
    }

    #[test]
    fn l003_flags_narrowing_as() {
        let bad = "pub fn f(x: u64) -> (u8, u16) {\n    (x as u8, x as u16)\n}\n";
        let found = lints("l003_bad", "l003", bad);
        assert_eq!(found.len(), 2, "{found:?}");
        let ok = "pub fn f(x: u8) -> (u32, u64, f64) { (u32::from(x), x as u64, x as f64) }\n";
        assert!(lints("l003_ok", "l003", ok).is_empty());
    }

    #[test]
    fn l004_flags_stringly_public_results() {
        let bad = "pub fn f() -> Result<(), String> { Ok(()) }\n";
        assert_eq!(check(stringly_errors, bad), [1]);
        let boxed = "pub fn g(\n    x: u8,\n) -> Result<u8, Box<dyn std::error::Error>> {\n";
        assert_eq!(check(stringly_errors, boxed), [1]);
        let ok = "pub fn f() -> Result<(), MyError> { Ok(()) }\n\
                  fn private() -> Result<(), String> { Ok(()) }\n\
                  pub fn io() -> io::Result<()> { Ok(()) }\npub struct S { f: fn() }\n";
        assert!(check(stringly_errors, ok).is_empty());
    }

    #[test]
    fn l005_requires_named_constants() {
        let bad = "fn f() { std::process::exit(42); }\n";
        assert_eq!(check(bare_exits, bad), [1]);
        let ok =
            "fn f() { std::process::exit(EXIT_USAGE); process::exit(v6census_cli::EXIT_OK); }\n";
        assert!(check(bare_exits, ok).is_empty());
    }

    #[test]
    fn l006_flags_bare_arithmetic_on_sized_ints() {
        let bad = "\
pub fn f(len: u8, i: usize) -> u128 {
    let base = 1u128 << (i % 64);
    let a = len - 1;
    let b = base * 3;
    let c = i + 1;
    u128::from(a) + b + c as u128
}
";
        let lines: Vec<usize> = lints("l006_bad", "l006", bad)
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        // `len - 1`, `base * 3`, the `usize` counter `i + 1` (which the
        // retired lexical rule let through) and the sum, once; the `%`
        // by a non-zero literal cannot overflow.
        assert_eq!(lines, [3, 4, 5, 6], "{lines:?}");
        let ok = "\
pub fn f(len: u8) -> u8 {
    let a = len.wrapping_sub(1);
    let c = 3 + 4;
    a.checked_mul(2).unwrap_or(c)
}
";
        assert!(
            lints("l006_ok", "l006", ok).is_empty(),
            "wrapping, checked and constant forms are exempt"
        );
    }

    #[test]
    fn l006_flags_variable_shifts_not_literal_shifts() {
        let bad = "fn f(len: u32) -> u128 { u128::MAX << (128 - len) }\n";
        let found = variable_shifts(&Source::new(bad));
        assert!(
            found.iter().any(|(_, w)| w.contains("shift by")),
            "{found:?}"
        );
        let ok =
            "fn f(b: u64) -> u64 { (b << 56) | (b >> 8) }\nfn g() -> Vec<Vec<u8>> { Vec::new() }\n";
        assert!(
            check(variable_shifts, ok).is_empty(),
            "literal shifts and generic closers are exempt"
        );
    }

    #[test]
    fn l006_ignores_nested_generic_closers() {
        // `Addr>>(iter` in a generic fn signature is two closing angle
        // brackets, not a right shift by a parenthesised expression.
        let ok = "\
pub fn from_iter<I: IntoIterator<Item = Addr>>(iter: I) -> AddrSet {
    AddrSet::new()
}
fn collect(xs: &[u64]) -> Vec<Vec<u8>> {
    xs.iter().map(|x| x.to_be_bytes().to_vec()).collect::<Vec<Vec<u8>>>()
}
";
        assert!(check(variable_shifts, ok).is_empty());
        // Real shifts still flag after generics earlier in the file.
        let bad = "\
pub fn f<I: IntoIterator<Item = u64>>(iter: I, n: u32) -> u128 {
    u128::MAX << (128 - n)
}
";
        assert_eq!(check(variable_shifts, bad), [2]);
    }

    #[test]
    fn l006_unspaced_comparison_does_not_swallow_later_shift() {
        // `n<m` hugging an ident must not hide the `>>` later in the
        // same statement.
        let bad = "fn f(n: u64, m: u64, k: u32) -> bool { let ok = n<m || (n >> k) == 0; ok }\n";
        assert_eq!(check(variable_shifts, bad), [1]);
        // A spaced comparison followed by a generic closer is clean.
        let ok = "fn g(n: u64) -> bool { n < 3 && Vec::<Vec<u8>>::new().is_empty() }\n";
        assert!(check(variable_shifts, ok).is_empty());
    }

    #[test]
    fn l006_skips_unary_minus_and_tests() {
        // The workspace's clippy run is `--lib --bins`, so a test module
        // is not compiled and its arithmetic is not judged.
        let ok = "\
pub fn f(x: i8) -> i8 {
    let y = -1i8;
    if x < 0 {
        return -2i8;
    }
    y
}
#[cfg(test)]
mod tests {
    fn t(a: u8, s: u32) -> u8 { (a + 1) << s }
}
";
        assert!(lints("l006_unary", "l006", ok).is_empty());
        assert!(check(variable_shifts, ok).is_empty());
    }

    /// A fallible API, then `body`, as one snippet.
    fn with_save(body: &str) -> String {
        format!("pub struct E;\npub fn save(_x: u64) -> Result<(), E> {{ Ok(()) }}\n{body}")
    }

    #[test]
    fn l007_flags_discarded_workspace_results() {
        let src = with_save("pub fn driver() {\n    let _ = save(1);\n    save(2).ok();\n}\n");
        let found = lints("l007_bad", "l007", &src);
        assert_eq!(
            found,
            [
                ("clippy::let_underscore_must_use".to_string(), 4),
                ("clippy::unused_result_ok".to_string(), 5)
            ],
            "{found:?}"
        );
    }

    #[test]
    fn l007_exempts_handled_results_and_std_calls() {
        let src = with_save(
            "\
pub fn infallible() {}
pub fn driver(v: &mut Vec<u8>) -> Result<Option<()>, E> {
    save(1)?;
    let kept = save(2).ok();
    let _ = infallible();
    let _ = v.pop();
    save(3)?;
    Ok(kept)
}
",
        );
        assert!(lints("l007_ok", "l007", &src).is_empty());
        // Clippy sees types, so a discarded `fmt::Result` is flagged
        // even where it cannot fail (writing into a `String`); the
        // rendering modules carry one reasoned `#[expect]` for it.
        let render =
            "use std::fmt::Write;\npub fn r(s: &mut String) {\n    let _ = write!(s, \"x\");\n}\n";
        let found = lints("l007_render", "l007", render);
        assert_eq!(found, [("clippy::let_underscore_must_use".to_string(), 3)]);
    }

    #[test]
    fn l007_sees_multiline_ok_chains() {
        let src = with_save(
            "\
pub fn driver() {
    save(1)
        .ok();
}
pub fn kept() {
    let r = save(2)
        .ok();
    drop(r);
}
",
        );
        let found = lints("l007_multiline", "l007", &src);
        assert_eq!(
            found,
            [("clippy::unused_result_ok".to_string(), 4)],
            "anchored at the call"
        );
    }

    #[test]
    fn l007_let_underscore_needs_every_candidate_fallible() {
        // Two methods named `flush`; clippy resolves each call by type,
        // so only the fallible one is a finding.
        let src = "\
pub struct E;
pub struct Sink;
pub struct Store;
impl Sink {
    pub fn flush(&self) {}
}
impl Store {
    pub fn flush(&self) -> Result<(), E> { Ok(()) }
}
pub fn mixed(s: &Sink) {
    let _ = s.flush();
}
pub fn certain(st: &Store) {
    let _ = Store::flush(st);
}
";
        let found = lints("l007_candidates", "l007", src);
        assert_eq!(found, [("clippy::let_underscore_must_use".to_string(), 14)]);
    }
}
