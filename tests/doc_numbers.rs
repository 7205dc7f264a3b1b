//! The guides name only source files and binaries that exist: a moved
//! or deleted file fails here until the prose follows.

use std::fs;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The docs that walk a reader through the source tree and its
/// binaries.
const GUIDES: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

/// Every `crates/….rs` path in `doc`.
fn source_paths(doc: &str) -> Vec<&str> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    doc.match_indices("crates/")
        .map(|(i, _)| {
            let run = &doc[i..];
            let end = run.find(|c| !is_path(c)).unwrap_or(run.len());
            run[..end].trim_end_matches('.')
        })
        .filter(|p| p.ends_with(".rs"))
        .collect()
}

/// Every `NAME` of a `--bin NAME` in `doc`.
fn bin_names(doc: &str) -> Vec<&str> {
    let is_name = |c: char| c.is_ascii_alphanumeric() || "_-".contains(c);
    doc.match_indices("--bin")
        .filter_map(|(i, flag)| {
            let rest = &doc[i + flag.len()..];
            // `--bin NAME` or `--bin=NAME`, not `--bind`.
            let value = rest.strip_prefix('=').or_else(|| {
                rest.starts_with(char::is_whitespace)
                    .then(|| rest.trim_start())
            })?;
            let end = value.find(|c| !is_name(c)).unwrap_or(value.len());
            (end > 0).then(|| &value[..end])
        })
        .collect()
}

/// The workspace's binaries: each `crates/*/src/bin/NAME.rs`, and each
/// `[[bin]]` `name` in a crate manifest.
fn binaries() -> Vec<String> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut out = Vec::new();
    for krate in fs::read_dir(&crates).expect("crates/").flatten() {
        let dir = krate.path();
        if let Ok(bins) = fs::read_dir(dir.join("src/bin")) {
            for bin in bins.flatten() {
                let path = bin.path();
                if let Some(stem) = path
                    .file_stem()
                    .filter(|_| path.extension() == Some("rs".as_ref()))
                {
                    out.push(stem.to_string_lossy().into_owned());
                }
            }
        }
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
        for section in manifest.split("[[bin]]").skip(1) {
            let name = section
                .lines()
                .find_map(|l| l.trim().strip_prefix("name = "))
                .map(|v| v.trim_matches('"').to_string());
            out.extend(name);
        }
    }
    out
}

#[test]
fn guides_name_only_sources_and_binaries_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bins = binaries();
    assert!(bins.iter().any(|b| b == "repro_all"), "bins: {bins:?}");
    for rel in GUIDES {
        let doc = read(rel);
        for path in source_paths(&doc) {
            assert!(
                root.join(path).is_file(),
                "{rel} names `{path}`, which does not exist"
            );
        }
        for name in bin_names(&doc) {
            assert!(
                bins.iter().any(|b| b == name),
                "{rel} names `--bin {name}`, which is no binary of the workspace ({bins:?})"
            );
        }
    }
}
