//! The docs and the command table agree: every `v6census <command>` or
//! `$V <command>` invocation in the README, DESIGN.md, the verify notes
//! and the CI workflow passes only flags its command's row lists, and
//! every row's default passes its own check and shows in `v6census help`.

use v6census_cli::commands::{command, help, COMMANDS};

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

/// Each invocation in `text`: its command word and the `--flag` names
/// that follow it, up to a pipe, `;`, a backtick or a `#` comment.
fn invocations(text: &str) -> Vec<(String, Vec<String>)> {
    let joined = text.replace("\\\n", " ");
    let mut found = Vec::new();
    for line in joined.lines() {
        for marker in ["v6census ", "$V "] {
            for (at, _) in line.match_indices(marker) {
                let before = line[..at].chars().next_back();
                if before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') {
                    continue;
                }
                let rest = &line[at + marker.len()..];
                let end = rest.find(['|', ';', '`', '#']).unwrap_or(rest.len());
                let mut words = rest[..end].split_whitespace();
                let Some(name) = words.next() else { continue };
                let flags = words
                    .filter_map(|w| w.strip_prefix("--"))
                    .map(|w| w.split('=').next().unwrap_or(w).to_string())
                    .collect();
                found.push((name.to_string(), flags));
            }
        }
    }
    found
}

#[test]
fn docs_pass_only_flags_the_table_lists() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut checked = 0;
    for doc in DOCS {
        let text = std::fs::read_to_string(format!("{root}/{doc}")).unwrap();
        for (name, flags) in invocations(&text) {
            // Prose such as "v6census uses four exit codes" names no command.
            let Some(cmd) = command(&name) else { continue };
            for flag in flags {
                assert!(
                    cmd.flag(&flag).is_some(),
                    "{doc}: `{name} --{flag}`: {name} takes no --{flag}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 60, "only {checked} flags found in the docs");
}

#[test]
fn invocations_are_split_at_pipes_and_comments() {
    let text =
        "x | ./target/release/v6census synth --scale 0.02 | v6census profile --threshold 0.02\n\
                $V census logs/ --jobs=4 \\\n  --no-timings # --not-a-flag\n\
                `v6census serve` takes --bind; -p v6census-cli --release\n";
    let got = invocations(text);
    let want = [
        ("synth", vec!["scale"]),
        ("profile", vec!["threshold"]),
        ("census", vec!["jobs", "no-timings"]),
        ("serve", vec![]),
    ];
    assert_eq!(got.len(), want.len(), "{got:?}");
    for ((name, flags), (want_name, want_flags)) in got.iter().zip(want) {
        assert_eq!(
            (name.as_str(), flags.clone()),
            (
                want_name,
                want_flags.iter().map(|s| s.to_string()).collect()
            )
        );
    }
}

#[test]
fn every_default_passes_its_check_and_shows_in_help() {
    let help = help();
    let mut defaults = 0;
    for cmd in COMMANDS {
        assert!(help.contains(&format!("\n  {:<12}{}\n", cmd.name, cmd.summary)));
        for flag in cmd.takes() {
            let Some(check) = flag.check else {
                assert!(flag.default.is_none(), "{} --{}", cmd.name, flag.name);
                continue;
            };
            let Some(default) = flag.default else {
                continue;
            };
            assert_eq!(check(default), Ok(()), "{} --{}", cmd.name, flag.name);
            let shown = if default.contains(' ') {
                format!("--{} {default:?}", flag.name)
            } else {
                format!("--{} {default}", flag.name)
            };
            assert!(help.contains(&shown), "help lacks {shown}");
            defaults += 1;
        }
    }
    assert!(defaults > 30, "only {defaults} defaults");
}
