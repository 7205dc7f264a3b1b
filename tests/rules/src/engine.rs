//! How the rules are enforced: `clippy-driver` over one file under the
//! real `clippy.toml`, and the lints a scope's inner `#![deny(…)]`
//! names.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::root;
use crate::scan::Source;

/// What `clippy-driver` made of one file.
pub struct Verdict {
    /// The file compiled: no lint was raised to an error.
    pub compiled: bool,
    /// The JSON diagnostics, one per line.
    pub diagnostics: String,
}

impl Verdict {
    /// `(lint, line)` of each error, in the order reported.
    pub fn errors(&self) -> Vec<(String, usize)> {
        self.diagnostics
            .lines()
            .filter(|d| d.contains("\"level\":\"error\""))
            .filter_map(|d| {
                let code = d.split("\"code\":{\"code\":\"").nth(1)?;
                let line = d.split("\"line_start\":").nth(1)?;
                let line = line.split(|c: char| !c.is_ascii_digit()).next()?;
                Some((code.split('"').next()?.to_string(), line.parse().ok()?))
            })
            .collect()
    }
}

/// Where `clippy-driver` writes its metadata.
fn out_dir(as_test: bool) -> PathBuf {
    root()
        .join("target/rules")
        .join(if as_test { "test" } else { "lib" })
}

/// Runs `clippy-driver` over `file` with `lints` denied, as library code
/// or as test code (`--test`, so `#[cfg(test)]` modules compile and
/// clippy.toml's in-tests allowances apply). `CLIPPY_CONF_DIR` is the
/// workspace root, so the file is judged by the real `clippy.toml`.
pub fn clippy(file: &Path, lints: &[&str], as_test: bool) -> Verdict {
    let mut cmd = Command::new("clippy-driver");
    cmd.env("CLIPPY_CONF_DIR", root())
        .args([
            "--edition",
            "2021",
            "--emit=metadata",
            "--error-format=json",
        ])
        .args(if as_test {
            &["--test"][..]
        } else {
            &["--crate-type", "lib"][..]
        })
        .arg("--out-dir")
        .arg(out_dir(as_test))
        .arg(file);
    for lint in lints {
        cmd.args(["-D", lint]);
    }
    let output = cmd.output().unwrap_or_else(|e| {
        panic!("cannot run clippy-driver ({e}); install the clippy component: rustup component add clippy")
    });
    Verdict {
        compiled: output.status.success(),
        diagnostics: String::from_utf8_lossy(&output.stderr).into_owned(),
    }
}

/// [`clippy`] over `code`, written to `target/rules/{name}.rs`. Each
/// caller names its snippet, so snippets judged in parallel do not
/// share a file.
#[expect(
    clippy::disallowed_methods,
    reason = "a snippet is a scratch file under target/, not state the vfs guards"
)]
pub fn clippy_snippet(name: &str, code: &str, lints: &[&str], as_test: bool) -> Verdict {
    let dir = root().join("target/rules");
    let file = dir.join(format!("{name}.rs"));
    fs::create_dir_all(&dir)
        .and_then(|()| fs::write(&file, code))
        .unwrap_or_else(|e| panic!("{}: {e}", file.display()));
    clippy(&file, lints, as_test)
}

/// The lints of every inner `#![deny(…)]` in `file`'s text.
pub fn denied_in(file: &str) -> BTreeSet<String> {
    Source::new(file)
        .code
        .split("#![deny(")
        .skip(1)
        .flat_map(|attr| attr.split(')').next().unwrap_or("").split(','))
        .map(|lint| lint.trim().to_string())
        .filter(|lint| !lint.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{rule, SCOPES};

    #[test]
    fn pragmas_suppress_and_account() {
        let code = "\
pub fn f(x: Option<u8>, y: Option<u8>) -> u8 {
    #[expect(clippy::unwrap_used, reason = \"seeded\")]
    let a = x.unwrap();
    let b = y.unwrap();
    a + b
}
#[expect(clippy::cast_possible_truncation, reason = \"nothing to suppress\")]
pub fn g() {}
";
        let mut lints = rule("pragma").lints.to_vec();
        lints.extend(["clippy::unwrap_used", "clippy::cast_possible_truncation"]);
        let found = clippy_snippet("pragmas_account", code, &lints, false).errors();
        assert_eq!(
            found,
            [
                ("clippy::unwrap_used".to_string(), 4),
                ("unfulfilled_lint_expectations".to_string(), 7)
            ],
            "the expected finding is suppressed, the bare one stays, and \
             the stale expectation is reported: {found:?}"
        );
    }

    #[test]
    fn malformed_pragmas_are_p000() {
        let code = "\
#[allow(clippy::unwrap_used)]
pub fn f(x: Option<u8>) -> u8 {
    x.unwrap()
}
#[expect(clippy::unwrap_used)]
pub fn g(x: Option<u8>) -> u8 {
    x.unwrap()
}
";
        let mut lints = rule("pragma").lints.to_vec();
        lints.push("clippy::unwrap_used");
        let verdict = clippy_snippet("pragmas_malformed", code, &lints, false);
        assert!(!verdict.compiled, "{}", verdict.diagnostics);
        let found = verdict.errors();
        for want in [
            ("clippy::allow_attributes".to_string(), 1),
            ("clippy::allow_attributes_without_reason".to_string(), 1),
            ("clippy::allow_attributes_without_reason".to_string(), 5),
        ] {
            assert!(found.contains(&want), "{want:?} not in {found:?}");
        }
    }

    #[test]
    fn rule_scoping_follows_config() {
        let root_text = "#![forbid(unsafe_code)]\n// #![deny(clippy::panic)]\n\
                         #![deny(clippy::unwrap_used, clippy::expect_used)]\n\
                         #![deny(\n    clippy::todo,\n)]\n";
        assert_eq!(
            denied_in(root_text).into_iter().collect::<Vec<_>>(),
            ["clippy::expect_used", "clippy::todo", "clippy::unwrap_used"],
            "a commented-out deny does not count"
        );
        // Cast safety is scoped to the bit-math crates, and the whole
        // workspace may not panic.
        let scoped = |id: &str| -> Vec<&str> {
            SCOPES
                .iter()
                .filter(|(_, ids)| ids.contains(&id))
                .map(|(file, _)| *file)
                .collect()
        };
        assert_eq!(
            scoped("l003"),
            ["crates/addr/src/lib.rs", "crates/trie/src/lib.rs"]
        );
        assert!(scoped("l001").len() >= 7);
        let census = denied_in(&crate::read(&root().join("crates/census/src/lib.rs")));
        assert!(!census.contains("clippy::cast_possible_truncation"));
        assert!(census.contains("clippy::unwrap_used"), "{census:?}");
    }
}
