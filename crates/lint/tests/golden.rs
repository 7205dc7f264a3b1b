//! Golden report over every fixture in `tests/fixtures/`: one
//! `lint_files` call with R001's entry point configured, its
//! `--format json` rendering compared byte for byte with the checked-in
//! `tests/golden/fixtures.json`.
//!
//! The per-rule engine tests check finding counts and chain substrings;
//! this test pins every byte of every finding — messages, snippets,
//! witness chains — and the order they render in. Regenerate the golden
//! file only for an intended output change, with the CLI:
//!
//! ```text
//! printf '[reach]\nentry_points = ["reach_entry::main"]\n' > golden.toml
//! cargo run -q -p lint -- --root crates/lint/tests/fixtures --config golden.toml \
//!     --format json crates/lint/tests/fixtures/*.rs > crates/lint/tests/golden/fixtures.json
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use lint::config::Config;
use lint::engine::{lint_files, SeverityMap};

const CONFIG: &str = "\
[reach]
entry_points = [\"reach_entry::main\"]
";

#[test]
fn fixture_report_matches_golden_json() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = manifest.join("tests/fixtures");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("fixtures dir lists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 24, "fixture set changed: {files:?}");

    let cfg = Config::parse(CONFIG).expect("config parses");
    let report =
        lint_files(&dir, &files, &cfg, &SeverityMap::default()).expect("fixtures lint cleanly");
    let got = report.render_json();
    let want =
        fs::read_to_string(manifest.join("tests/golden/fixtures.json")).expect("golden file reads");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "report differs from tests/golden/fixtures.json at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}
