//! The workspace holds its static rules (DESIGN.md §7).
//!
//! Most rules are clippy lints that a crate root (or, for one durability
//! module, a module) denies with an inner `#![deny(…)]`; the root
//! `clippy.toml` holds the type and method lists they read. A few have no
//! clippy twin and are source checks, run over each in-scope file's text
//! above its first `#[cfg(test)]` with comments blanked. The rule table and
//! the checks are `v6census_rules`; `tests/engine.rs` judges each rule's
//! fixtures with them. This file checks that
//!
//! 1. every scope denies its rules' lints, and the source checks hold in
//!    every file of the scopes they cover;
//! 2. `cargo clippy --workspace --lib --bins -- -D warnings` is clean.

use std::collections::BTreeSet;
use std::process::Command;

use v6census_rules::engine::denied_in;
use v6census_rules::rules::{rule, RULES, SCOPES};
use v6census_rules::scan::Source;
use v6census_rules::{read, root, rust_files};

#[test]
fn every_scope_denies_its_rules_lints() {
    for (file, ids) in SCOPES {
        let denied = denied_in(&read(&root().join(file)));
        for id in *ids {
            for lint in rule(id).lints {
                assert!(denied.contains(*lint), "{file} does not deny {lint} ({id})");
            }
        }
    }
}

#[test]
fn source_checks_hold_in_every_scoped_file() {
    let mut findings = Vec::new();
    let mut checked = 0;
    for r in RULES {
        let Some(check) = r.check else { continue };
        let mut files = BTreeSet::new();
        for (file, _) in SCOPES.iter().filter(|(_, ids)| ids.contains(&r.id)) {
            let path = root().join(file);
            match path.file_name().and_then(|n| n.to_str()) {
                Some("lib.rs" | "main.rs") => {
                    rust_files(path.parent().unwrap_or(root()), &mut files)
                }
                _ => {
                    files.insert(path);
                }
            }
        }
        for path in &files {
            checked += 1;
            for (line, what) in check(&Source::new(&read(path))) {
                let rel = path.strip_prefix(root()).unwrap_or(path);
                findings.push(format!("{}:{line}: {} {what}", rel.display(), r.id));
            }
        }
    }
    assert!(checked > 80, "only {checked} file checks ran");
    assert!(
        findings.is_empty(),
        "source check findings:\n{}",
        findings.join("\n")
    );
}

#[test]
fn workspace_is_clippy_clean() {
    let output = Command::new(env!("CARGO"))
        .current_dir(root())
        .env("CLIPPY_CONF_DIR", root())
        .args(["clippy", "--quiet", "--workspace", "--lib", "--bins", "--target-dir"])
        .arg(root().join("target/lint-rules"))
        .args(["--", "-D", "warnings"])
        .output()
        .unwrap_or_else(|e| panic!("cannot run cargo clippy ({e}); install the clippy component: rustup component add clippy"));
    assert!(
        output.status.success(),
        "cargo clippy --workspace --lib --bins -- -D warnings failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
