//! Each rule's fixtures, judged. `tests/lint_fixtures/` holds one or
//! more `<rule>_*bad.rs` and one `<rule>_ok.rs` per rule of
//! `v6census_rules::rules::RULES`. A bad fixture must be rejected: by the
//! rule's clippy lints, which `clippy-driver` runs under the real
//! `clippy.toml`, and by its source check where it has one. An ok
//! fixture must pass both, as library code and as test code.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use v6census_rules::engine::clippy;
use v6census_rules::rules::{rule, RULES};
use v6census_rules::scan::Source;
use v6census_rules::{read, root};

fn fixture(name: &str) -> PathBuf {
    let path = root().join("tests/lint_fixtures").join(name);
    assert!(path.is_file(), "missing fixture {}", path.display());
    path
}

/// Asserts `name` is rejected under rule `id` with at least `at_least`
/// findings, every one of the rule's lints among them. Returns the lines
/// with findings, sorted.
fn assert_bad(name: &str, id: &str, at_least: usize) -> Vec<usize> {
    let (path, r) = (fixture(name), rule(id));
    let mut lines = Vec::new();
    if !r.lints.is_empty() {
        let verdict = clippy(&path, r.lints, false);
        assert!(!verdict.compiled, "{name} was accepted");
        let errors = verdict.errors();
        for lint in r.lints {
            assert!(
                errors.iter().any(|(l, _)| l == lint),
                "{name} does not trip {lint}: {errors:?}"
            );
        }
        lines.extend(errors.into_iter().map(|(_, line)| line));
    }
    if let Some(check) = r.check {
        let found = check(&Source::new(&read(&path)));
        assert!(!found.is_empty(), "{name} passes its source check");
        lines.extend(found.into_iter().map(|(line, _)| line));
    }
    assert!(
        lines.len() >= at_least,
        "{name}: expected >= {at_least} findings, got {lines:?}"
    );
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// Asserts `name` is accepted under rule `id`, as library code and as
/// test code, and passes the rule's source check.
fn assert_ok(name: &str, id: &str) {
    let (path, r) = (fixture(name), rule(id));
    for as_test in [false, true] {
        let verdict = clippy(&path, r.lints, as_test);
        assert!(
            verdict.compiled,
            "{name} (as test: {as_test}) was rejected:\n{}",
            verdict.diagnostics
        );
    }
    if let Some(check) = r.check {
        let found = check(&Source::new(&read(&path)));
        assert!(found.is_empty(), "{name}: {found:?}");
    }
}

#[test]
fn every_fixture_belongs_to_a_rule() {
    let dir = root().join("tests/lint_fixtures");
    let names: BTreeSet<String> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| Some(e.ok()?.file_name().to_str()?.to_string()))
        .collect();
    for name in &names {
        assert!(
            RULES
                .iter()
                .any(|r| name.starts_with(&format!("{}_", r.id))),
            "{name} names no rule"
        );
    }
    for r in RULES {
        assert!(
            names.contains(&format!("{}_ok.rs", r.id)),
            "{} has no ok fixture",
            r.id
        );
        assert!(
            names
                .iter()
                .any(|n| n.starts_with(&format!("{}_", r.id)) && n.ends_with("bad.rs")),
            "{} has no bad fixture",
            r.id
        );
    }
}

// ------------------------------------------------------- per-rule pairs

#[test]
fn l001_bad_fixture_is_flagged() {
    // unwrap, expect, panic!, todo!, unimplemented!, unreachable!, and
    // two literal index sites.
    assert_bad("l001_bad.rs", "l001", 8);
}

#[test]
fn l001_ok_fixture_is_clean() {
    assert_ok("l001_ok.rs", "l001");
}

#[test]
fn l002_bad_fixture_is_flagged() {
    // HashMap/HashSet on the use line and at their sites, the two
    // wall-clock reads, and the `{:e}` format spec.
    assert_bad("l002_bad.rs", "l002", 5);
}

#[test]
fn l002_ok_fixture_is_clean() {
    assert_ok("l002_ok.rs", "l002");
}

#[test]
fn l003_bad_fixture_is_flagged() {
    assert_eq!(assert_bad("l003_bad.rs", "l003", 3), [8, 9, 10]);
}

#[test]
fn l003_ok_fixture_is_clean() {
    assert_ok("l003_ok.rs", "l003");
}

#[test]
fn l004_bad_fixture_is_flagged() {
    // One stringly `String` error and one multi-line `Box<dyn Error>`
    // signature.
    assert_bad("l004_bad.rs", "l004", 2);
}

#[test]
fn l004_ok_fixture_is_clean() {
    assert_ok("l004_ok.rs", "l004");
}

#[test]
fn l005_bad_fixture_is_flagged() {
    assert_bad("l005_bad.rs", "l005", 2);
}

#[test]
fn l005_ok_fixture_is_clean() {
    assert_ok("l005_ok.rs", "l005");
}

#[test]
fn l006_bad_fixture_is_flagged() {
    // The expression shift and its `128 - n`, the parameter shift
    // `x << n`, `len * 3`, `scaled + 1`, `total += step`, and the
    // `usize` index math.
    assert_bad("l006_bad.rs", "l006", 7);
}

#[test]
fn l006_ok_fixture_is_clean() {
    // Also the regression fixture for `>>` generic closers: the
    // `IntoIterator<Item = u64>>(iter` signature must not read as a
    // right shift.
    assert_ok("l006_ok.rs", "l006");
}

#[test]
fn l007_bad_fixture_is_flagged() {
    // One `let _ =` and one trailing `.ok();`.
    assert_eq!(assert_bad("l007_bad.rs", "l007", 2), [13, 18]);
}

#[test]
fn l007_ok_fixture_is_clean() {
    assert_ok("l007_ok.rs", "l007");
}

/// Raw `std::fs` mutations: the write, the rename, and the
/// `File::create` are each a bypass of core::vfs.
#[test]
fn l008_bad_fixture_flags_every_bypass() {
    assert_eq!(assert_bad("l008_bad.rs", "l008", 3), [11, 16, 21]);
}

/// Mutations routed through a Vfs seam are clean.
#[test]
fn l008_ok_fixture_is_clean() {
    assert_ok("l008_ok.rs", "l008");
}

/// The seeded AB/BA deadlock (`fwd` holds `A` and takes `B` through
/// `take_b`, `rev` the reverse) cannot be written without naming
/// `Mutex`: the `use` line and both statics are findings.
#[test]
fn l009_cycle_bad_fixture_flags_every_lock() {
    assert_eq!(assert_bad("l009_cycle_bad.rs", "l009", 3), [7, 10, 12]);
}

/// Blocking while a guard is live (a sleep under a static's guard, a
/// channel `recv()` under a field's guard) needs the locks L009 flags:
/// the `use` line, the static and the field.
#[test]
fn l009_blocking_bad_fixture_flags_every_lock() {
    assert_eq!(assert_bad("l009_blocking_bad.rs", "l009", 3), [8, 12, 24]);
}

/// The same shapes on an atomic and a channel name no lock: clean.
#[test]
fn l009_ok_fixture_is_clean() {
    assert_ok("l009_ok.rs", "l009");
}

// ------------------------------------------------------------- pragmas

/// Every `#[expect]` in `pragma_ok.rs` carries a reason and suppresses a
/// real finding: with the lints it names denied, the fixture compiles,
/// so no expectation went unfulfilled.
#[test]
fn valid_pragmas_suppress_and_are_all_used() {
    let name = "pragma_ok.rs";
    let path = fixture(name);
    let mut lints = rule("pragma").lints.to_vec();
    lints.extend([
        "clippy::cast_possible_truncation",
        "clippy::unwrap_used",
        "clippy::panic",
        "clippy::disallowed_methods",
    ]);
    for as_test in [false, true] {
        let verdict = clippy(&path, &lints, as_test);
        assert!(
            verdict.compiled,
            "{name} (as test: {as_test}) was rejected:\n{}",
            verdict.diagnostics
        );
    }
    assert_eq!(
        read(&path).matches("expect(").count(),
        4,
        "statement, item and file level expectations each suppress a finding"
    );
}

/// A reason-less expectation, one that suppresses nothing, and an
/// `allow` are each reported.
#[test]
fn bad_pragmas_do_not_suppress_and_are_reported() {
    let path = fixture("pragma_bad.rs");
    let mut lints = rule("pragma").lints.to_vec();
    lints.extend(["clippy::unwrap_used", "clippy::cast_possible_truncation"]);
    let verdict = clippy(&path, &lints, false);
    assert!(!verdict.compiled);
    let errors = verdict.errors();
    for want in [
        ("clippy::allow_attributes_without_reason", 6),
        ("unfulfilled_lint_expectations", 12),
        ("clippy::allow_attributes", 18),
    ] {
        assert!(
            errors.iter().any(|(l, n)| (l.as_str(), *n) == want),
            "{want:?} not in {errors:?}"
        );
    }
}
