//! Process-level contract of `v6census serve`: port discovery via the
//! `listening on` line, live queries against the spawned binary, the
//! exit-code contract for clean runs and bad flags — and the crash
//! drill: a daemon killed with SIGKILL mid-life restarts from its
//! checkpoints and serves the pre-crash snapshot without its source logs.

#![allow(
    clippy::disallowed_methods,
    reason = "integration tests build their fixtures with std::fs"
)]

use std::io::{BufRead as _, BufReader, Read as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use v6census_cli::{EXIT_DATA_ERROR, EXIT_OK, EXIT_USAGE};
use v6census_synth::chaos::http_get;
use v6census_synth::faults::day_file_name;
use v6census_synth::world::epochs;
use v6census_synth::{World, WorldConfig};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_v6census"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("v6census-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_days(dir: &Path, count: i32) {
    let w = World::standard(WorldConfig {
        seed: 47,
        scale: 0.002,
    });
    for offset in 0..count {
        let day = epochs::mar2015() + offset;
        std::fs::write(dir.join(day_file_name(day)), w.day_log(day).to_text()).unwrap();
    }
}

/// Spawns the daemon and reads the advertised address off stdout. The
/// returned reader holds the rest of the stdout stream — the post-drain
/// summary arrives there, not via `wait_with_output` (stdout is taken).
fn spawn_daemon(args: &[&str]) -> (Child, SocketAddr, BufReader<ChildStdout>) {
    let mut child = bin()
        .arg("serve")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("bad announce line {line:?}"))
        .parse()
        .unwrap();
    (child, addr, reader)
}

/// Drains the daemon (stdin EOF), waits for exit, and returns the
/// summary it printed plus the exit status code.
fn drain_and_collect(
    mut child: Child,
    mut reader: BufReader<ChildStdout>,
) -> (Option<i32>, String) {
    drop(child.stdin.take());
    let mut summary = String::new();
    reader.read_to_string(&mut summary).unwrap();
    let status = child.wait().unwrap();
    (status.code(), summary)
}

fn field_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = body
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

fn wait_for_generation(addr: SocketAddr, want: u64) {
    for _ in 0..600 {
        if let Ok((200, body)) = http_get(addr, "/healthz", Duration::from_secs(2)) {
            if field_u64(&body, "generation") >= want {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never reached generation {want}");
}

#[test]
fn serves_queries_and_exits_clean_on_stdin_eof() {
    let source = tempdir("basic-src");
    write_days(&source, 3);
    let routes = source.join("routes.txt");
    std::fs::write(&routes, "2001:db8::/32 64496\n").unwrap();
    let (child, addr, reader) = spawn_daemon(&[
        "--dir",
        &source.to_string_lossy(),
        "--routing",
        &routes.to_string_lossy(),
        "--poll-ms",
        "25",
    ]);
    wait_for_generation(addr, 3);

    let (status, body) = http_get(addr, "/stats", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(field_u64(&body, "generation"), 3);
    assert_eq!(field_u64(&body, "days"), 3);
    assert!(body.contains("\"schemes\""), "{body}");

    let (status, body) = http_get(addr, "/classify/2001:db8::/32", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert!(
        body.contains("\"asn\":64496"),
        "routing must attribute: {body}"
    );
    assert!(body.contains("\"signature\""), "{body}");

    let (status, body) = http_get(addr, "/stable/2001:db8::1", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"active\":"), "{body}");

    let (status, _) = http_get(addr, "/readyz", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    let (status, _) = http_get(addr, "/no/such", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_get(addr, "/stable/not-an-addr", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 400);

    // Closing stdin asks for a graceful drain; clean drain exits 0.
    let (code, summary) = drain_and_collect(child, reader);
    assert_eq!(code, Some(EXIT_OK));
    assert!(summary.contains("== serve summary =="), "{summary}");
    assert!(summary.contains("drain: clean"), "{summary}");
    let _ = std::fs::remove_dir_all(&source);
}

#[test]
fn sigkill_mid_life_restart_resumes_from_checkpoints() {
    let source = tempdir("kill-src");
    let state = tempdir("kill-state");
    write_days(&source, 3);
    let (mut child, addr, _reader) = spawn_daemon(&[
        "--dir",
        &source.to_string_lossy(),
        "--state",
        &state.to_string_lossy(),
        "--poll-ms",
        "25",
    ]);
    wait_for_generation(addr, 3);
    let (_, before) = http_get(addr, "/stats", Duration::from_secs(5)).unwrap();

    // kill -9: no drain, no flush — whatever is on disk is what
    // the next life gets.
    child.kill().unwrap();
    let _ = child.wait();

    // Restart against an EMPTY source: the checkpoints alone
    // must bring back the full pre-crash census, served immediately.
    let empty = tempdir("kill-empty");
    let (child, addr, reader) = spawn_daemon(&[
        "--dir",
        &empty.to_string_lossy(),
        "--state",
        &state.to_string_lossy(),
        "--poll-ms",
        "25",
    ]);
    let (status, body) = http_get(addr, "/readyz", Duration::from_secs(5)).unwrap();
    assert_eq!(
        status, 200,
        "checkpointed state must be ready at once: {body}"
    );
    let (status, after) = http_get(addr, "/stats", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(field_u64(&after, "generation"), 3);
    assert_eq!(
        field_u64(&after, "active"),
        field_u64(&before, "active"),
        "pre-crash snapshot must be served"
    );
    // Every checkpoint a kill -9 left behind loads: none is recovered.
    let (status, health) = http_get(addr, "/healthz", Duration::from_secs(5)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(field_u64(&health, "recovered"), 0, "{health}");
    let (code, summary) = drain_and_collect(child, reader);
    assert_eq!(code, Some(EXIT_OK));
    assert!(
        summary.contains("3 days resumed from checkpoints"),
        "{summary}"
    );
    for d in [&source, &state, &empty] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn run_for_ms_mode_and_flag_errors() {
    let source = tempdir("flags-src");
    write_days(&source, 1);
    // --run-for-ms: daemon exits on its own, cleanly.
    let mut child = bin()
        .arg("serve")
        .args([
            "--dir",
            &source.to_string_lossy(),
            "--run-for-ms",
            "300",
            "--poll-ms",
            "25",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    assert!(line.starts_with("listening on "), "{line:?}");
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(EXIT_OK));

    // A missing directory is a usage error (2), and so is a flag value
    // its flag refuses; an unbindable address, a startup failure, is a
    // data error (1).
    let out = bin().arg("serve").output().unwrap();
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
    let out = bin()
        .arg("serve")
        .args(["--dir", &source.to_string_lossy(), "--max-connections", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
    let out = bin()
        .arg("serve")
        .args(["--dir", &source.to_string_lossy(), "--bind", "256.0.0.1:1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(EXIT_DATA_ERROR));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot bind"));

    // `help` documents the serve surface.
    let out = bin().arg("help").output().unwrap();
    assert_eq!(out.status.code(), Some(EXIT_OK));
    let usage = String::from_utf8_lossy(&out.stdout);
    assert!(usage.contains("serve"), "{usage}");
    assert!(usage.contains("--run-for-ms"), "{usage}");
    let _ = std::fs::remove_dir_all(&source);
}

#[test]
fn unknown_command_is_a_usage_error() {
    let out = bin().arg("serve-wrong").output().unwrap();
    assert_eq!(out.status.code(), Some(EXIT_USAGE));
}
