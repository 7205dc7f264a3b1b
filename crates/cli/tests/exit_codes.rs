//! Process-level contract of the `v6census` binary: the documented exit
//! codes, including 3 (completed-but-degraded) when a supervised census
//! sheds work — never a panic abort.

#![allow(
    clippy::disallowed_methods,
    reason = "integration tests build their fixtures with std::fs"
)]

use std::path::{Path, PathBuf};
use std::process::Command;
use v6census_cli::{EXIT_DATA_ERROR, EXIT_DEGRADED, EXIT_OK, EXIT_USAGE};
use v6census_synth::world::epochs;
use v6census_synth::{FaultInjector, FaultSpec, World, WorldConfig};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_v6census"))
}

fn logs_dir(tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("v6census-exit-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let world = World::standard(WorldConfig {
        seed: 97,
        scale: 0.002,
    });
    let first = epochs::mar2015();
    FaultInjector::new(0xec0)
        .write_day_files(
            &world,
            first,
            first + 14,
            &dir,
            &FaultSpec { faults: vec![] },
        )
        .unwrap();
    (dir.clone(), format!("{}", first + 7))
}

#[test]
fn usage_errors_exit_2() {
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
    let out = bin().arg("no-such-command").output().unwrap();
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
    let help = bin().arg("help").output().unwrap();
    assert_eq!(help.status.code(), Some(EXIT_OK));
    let usage = String::from_utf8(help.stdout).unwrap();
    for needle in [
        "EXIT CODES",
        "--jobs",
        "--stage-deadline",
        "--max-trie-nodes",
    ] {
        assert!(usage.contains(needle), "usage lacks {needle}:\n{usage}");
    }

    // A flag value that does not parse, a --scale that cannot size a
    // world, and a missing required flag are usage errors too. The
    // commands that need a directory get a real one, so the flag under
    // test is what fails.
    let dir = std::env::temp_dir().join(format!("v6census-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("2015-03-17.txt"), "2001:db8::1\n").unwrap();
    let d = dir.to_str().unwrap();
    // `synth --out` writes nothing when its `--days` is refused.
    let days0 = format!("{d}/days0");
    for (args, message) in [
        (vec!["synth", "--scale", "nan"], "bad --scale"),
        // `--days` is read without `--out` too, and refused there.
        (vec!["synth", "--days", "x"], "bad value for --days"),
        (
            vec!["synth", "--days", "0"],
            "bad value for --days: \"0\": must be at least 1",
        ),
        (vec!["synth", "--days", "3"], "--days needs --out"),
        (
            vec!["synth", "--out", d, "--days", "x"],
            "bad value for --days",
        ),
        (
            vec!["stability", "--dir", d, "--n", "abc"],
            "bad value for --n",
        ),
        (
            vec!["census", "--dir", d, "--jobs", "x"],
            "bad value for --jobs",
        ),
        (
            vec!["serve", "--dir", d, "--max-connections", "x"],
            "bad value for --max-connections",
        ),
        (vec!["stable"], "stable requires --earlier"),
        // A value that parses but that its flag refuses is named too.
        (
            vec!["census", "--dir", d, "--n", "0"],
            "bad value for --n: \"0\": must be at least 1",
        ),
        (
            vec!["census", "--dir", d, "--jobs", "0"],
            "bad value for --jobs: \"0\": must be at least 1",
        ),
        (
            vec!["serve", "--dir", d, "--max-connections", "0"],
            "bad value for --max-connections: \"0\": must be at least 1",
        ),
        (
            vec!["synth", "--out", days0.as_str(), "--days", "0"],
            "bad value for --days: \"0\": must be at least 1",
        ),
        (
            vec!["stable", "--earlier", d, "--step", "0"],
            "bad value for --step: \"0\": must be at least 1",
        ),
        (
            vec!["targets", "--budget", "0"],
            "bad value for --budget: \"0\": must be at least 1",
        ),
        (
            vec!["synth", "--day", "2015-02-30"],
            "bad value for --day: \"2015-02-30\": not a calendar day",
        ),
        // A day is exactly `YYYY-MM-DD`: no unpadded month or day.
        (
            vec!["synth", "--day", "2015-3-7"],
            "bad value for --day: \"2015-3-7\": not a calendar day",
        ),
        // A flag the command does not take is named, not ignored while
        // its value silently defaults.
        (
            vec!["synth", "--sclae", "0.5", "--day", "2015-03-17"],
            "unknown flag --sclae for synth",
        ),
        (
            vec!["census", "--job", "2", d],
            "unknown flag --job for census",
        ),
        (
            vec!["stability", "--dir", d, "--windows=3"],
            "unknown flag --windows for stability",
        ),
        (
            vec!["serve", "--dir", d, "--max-conections", "4"],
            "unknown flag --max-conections for serve",
        ),
        (vec!["ptr", "--revers"], "unknown flag --revers for ptr"),
        // A value flag needs its value; a switch takes none.
        (vec!["mra", "--title"], "--title needs a value"),
        (vec!["mra", "--title", "--tsv"], "--title needs a value"),
        (vec!["classify", "--tsv=yes"], "--tsv takes no value"),
        // Each command takes its own flags, not another's.
        (
            vec!["classify", "--jobs", "2"],
            "unknown flag --jobs for classify",
        ),
    ] {
        let out = bin().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(EXIT_USAGE), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    assert!(!Path::new(&days0).exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs `v6census ARGS` with `input` on stdin.
fn run_with_stdin(args: &[&str], input: &str) -> std::process::Output {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = bin()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

/// A prefix length past /128 is a bad flag value like any other (a
/// usage error): no report is printed, rather than a /128 report headed
/// `/200`.
#[test]
fn out_of_range_prefix_length_is_rejected_not_clamped() {
    let input = "2001:db8::1\n2001:db8::2\n2001:db8:1::1\n";
    let out = run_with_stdin(&["aggregate", "--populations", "--length", "200"], input);
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad value for --length: \"200\""),
        "{stderr}"
    );

    let out = run_with_stdin(&["aggregate", "--populations", "--length", "128"], input);
    assert_eq!(out.status.code(), Some(EXIT_OK));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("# populations of active /128 aggregates\naggregates : 3\n"),
        "{stdout}"
    );
}

#[test]
fn data_errors_exit_1() {
    let out = bin()
        .args(["census", "--dir", "/nonexistent/v6census-exit-test"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(EXIT_DATA_ERROR));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn impossible_calendar_dates_are_errors_not_panics() {
    // A `--day` that names no calendar day is a bad flag value.
    let out = bin()
        .args(["synth", "--day", "2015-02-30"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error: bad value for --day"));

    // A file named for an impossible date is skipped like any non-day
    // name: the census stays the clean, exact one.
    let (dir, reference) = logs_dir("baddate");
    std::fs::write(
        dir.join("2015-04-31.log"),
        "# synthetic day 2015-04-31: 0\n",
    )
    .unwrap();
    let out = bin()
        .args([
            "census",
            "--dir",
            dir.to_str().unwrap(),
            &format!("--reference={reference}"),
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(EXIT_OK),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!String::from_utf8_lossy(&out.stdout).contains("2015-04-31"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `stability --dir` reads every file `census` and `serve` read: a
/// name that starts `YYYY-MM-DD`, whatever follows.
#[test]
fn stability_reads_every_day_file_name() {
    let dir = std::env::temp_dir().join(format!("v6census-exit-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("2015-03-16.txt"), "2001:db8::a\n").unwrap();
    std::fs::write(dir.join("2015-03-17_b.txt"), "2001:db8::a\n2001:db8::b\n").unwrap();
    std::fs::write(dir.join("2015-03-18.b.log"), "2001:db8::a\n").unwrap();
    std::fs::write(dir.join("notes.txt"), "2001:db8::c\n").unwrap();
    let out = bin()
        .args(["stability", "--dir", dir.to_str().unwrap()])
        .args(["--reference", "2015-03-17"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(EXIT_OK), "{stdout}");
    assert!(stdout.contains(" over 3 days "), "{stdout}");
    assert!(stdout.contains("2015-03-17            2"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn clean_census_exits_0_and_injected_panic_exits_3() {
    let (dir, reference) = logs_dir("codes");

    let clean = bin()
        .args([
            "census",
            "--dir",
            dir.to_str().unwrap(),
            &format!("--reference={reference}"),
            "--jobs=4",
        ])
        .output()
        .unwrap();
    assert_eq!(
        clean.status.code(),
        Some(EXIT_OK),
        "stderr: {}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let stdout = String::from_utf8(clean.stdout).unwrap();
    assert!(stdout.contains("==== run manifest ===="), "{stdout}");
    assert!(stdout.contains("quality: exact"), "{stdout}");

    // A shard that panics on both attempts: the process must still
    // finish the run, print a manifest naming the casualty, and exit 3.
    let degraded = bin()
        .args([
            "census",
            "--dir",
            dir.to_str().unwrap(),
            &format!("--reference={reference}"),
            "--jobs=4",
            "--inject=panic:stability:2",
        ])
        .output()
        .unwrap();
    assert_eq!(
        degraded.status.code(),
        Some(EXIT_DEGRADED),
        "stderr: {}",
        String::from_utf8_lossy(&degraded.stderr)
    );
    let stdout = String::from_utf8(degraded.stdout).unwrap();
    assert!(stdout.contains("excluded stability/"), "{stdout}");
    assert!(stdout.contains("quality: partial"), "{stdout}");
    // The contained panic stays off stderr — it is reported through the
    // manifest, not as a crash trace.
    let stderr = String::from_utf8_lossy(&degraded.stderr);
    assert!(
        !stderr.contains("panicked at"),
        "contained panic leaked to stderr: {stderr}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A switch never takes the next token as its value, so a switch placed
/// before a positional leaves the positional where it was.
#[test]
fn a_switch_before_a_positional_leaves_it_positional() {
    let (dir, reference) = logs_dir("switches");
    let d = dir.to_str().unwrap();
    for switch in ["--no-timings", "--strict"] {
        let out = bin()
            .args(["census", switch, d, &format!("--reference={reference}")])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(EXIT_OK), "{switch}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("quality: exact"), "{switch}: {stdout}");
    }
    std::fs::remove_dir_all(&dir).unwrap();

    let input = "2001:db8::1\n2001:db8::2\n2001:db8:1::1\n";
    for (args, head) in [
        (["classify", "--tsv", "pos"], "# addr\tscheme"),
        (["dense", "--table3", "pos"], "class "),
    ] {
        let out = run_with_stdin(&args, input);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(EXIT_OK), "{args:?}: {stdout}");
        assert!(stdout.starts_with(head), "{args:?}: {stdout}");
    }
}
