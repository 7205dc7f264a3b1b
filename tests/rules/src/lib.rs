//! The workspace's static rules (DESIGN.md §7), as test support.
//!
//! Most rules are clippy lints that a crate root denies with an inner
//! `#![deny(…)]`; the root `clippy.toml` holds the type and method lists
//! they read. A few have no clippy twin and are source checks over each
//! in-scope file's text above its first `#[cfg(test)]`, comments and
//! literals blanked. This crate holds what the workspace's rule tests share:
//!
//! * [`scan`] — a source file's non-test text, comments and literals
//!   blanked;
//! * [`rules`] — the rule table, the scopes that deny each rule, and the
//!   source checks;
//! * [`engine`] — `clippy-driver` over one file under the real
//!   `clippy.toml`, and the lints a crate root denies.
//!
//! `tests/engine.rs` judges each rule's fixtures with it and
//! `tests/lint_rules.rs` holds the workspace to it. Nothing here ships:
//! the crate is a dev-dependency of the umbrella crate only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod rules;
pub mod scan;

use std::fs;
use std::path::{Path, PathBuf};

/// The workspace root: the directory that holds `clippy.toml`.
pub fn root() -> &'static Path {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.ancestors().nth(2).unwrap_or(manifest)
}

/// The text of `path`; a test that cannot read its input fails.
pub fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, sorted.
pub fn rust_files(dir: &Path, out: &mut std::collections::BTreeSet<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for path in entries.filter_map(|e| Some(e.ok()?.path())) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.insert(path);
        }
    }
}
