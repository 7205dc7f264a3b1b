//! The `serve` subcommand: run the crash-safe census daemon.
//!
//! Unlike the batch subcommands, `serve` is a long-running process: it
//! prints the bound address on its first output line (so callers can
//! discover an OS-assigned port), answers queries until told to stop
//! (`--run-for-ms`, or stdin closing), then drains gracefully. The
//! returned report is the post-drain summary; a drain that had to
//! abandon in-flight connections maps to [`Quality::Degraded`] and thus
//! the documented exit code 3.

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use v6census_addr::Prefix;
use v6census_census::serve::{spawn, DrainReport, ServeConfig};
use v6census_core::quality::Quality;
use v6census_core::temporal::StabilityParams;

use crate::{err, usage, CliError, Flags};

/// Builds the daemon configuration from flags (shared with tests).
pub fn serve_config_from_flags(flags: &Flags) -> Result<ServeConfig, CliError> {
    let dir = flags
        .get("dir")
        .map(str::to_string)
        .or_else(|| flags.positional.first().cloned())
        .ok_or_else(|| usage("serve requires a log directory (--dir DIR or positional)"))?;
    let ms = |name: &str| flags.get_parsed(name).map(Duration::from_millis);
    let routing = match flags.get("routing") {
        None => Vec::new(),
        Some(path) => parse_routing_file(path)?,
    };
    Ok(ServeConfig {
        source_dir: PathBuf::from(dir),
        state_dir: flags.get("state").map(PathBuf::from),
        bind: flags.get_parsed("bind")?,
        max_connections: flags.get_parsed("max-connections")?,
        read_timeout: ms("read-timeout-ms")?,
        write_timeout: ms("write-timeout-ms")?,
        header_deadline: ms("header-deadline-ms")?,
        max_request_bytes: flags.get_parsed("max-request-bytes")?,
        drain_deadline: ms("drain-ms")?,
        poll_interval: ms("poll-ms")?,
        ingest: super::census::config_from_flags(flags)?,
        params: StabilityParams::nd(flags.get_parsed("n")?),
        dense_class: flags.get_parsed("class")?,
        routing,
    })
}

/// Parses a routing file: one `prefix asn` pair per line, `#` comments.
fn parse_routing_file(path: &str) -> Result<Vec<(Prefix, u32)>, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read --routing {path}: {e}")))?;
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cols = line.split_whitespace();
        let bad = |what: &str| err(format!("--routing {path}:{}: {what}", i + 1));
        let prefix: Prefix = cols
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| bad("bad prefix"))?;
        let asn: u32 = cols
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| bad("bad ASN"))?;
        entries.push((prefix, asn));
    }
    Ok(entries)
}

/// Runs the daemon until `--run-for-ms` elapses or stdin closes, then
/// drains and reports.
pub fn serve(flags: &Flags) -> Result<(String, Quality), CliError> {
    let mut cfg = serve_config_from_flags(flags)?;
    let run_for = flags.get_opt("run-for-ms", str::parse)?;
    let fault = super::census::install_fault_fs(flags, &mut cfg.ingest.vfs)?;
    let handle = spawn(cfg).map_err(|e| err(format!("serve failed to start: {e}")))?;

    // Announce the bound address immediately — callers discover the
    // OS-assigned port from this line. EPIPE-tolerant, like main's
    // output path: a vanished parent must not panic the daemon.
    let mut stdout = std::io::stdout();
    #[expect(
        clippy::let_underscore_must_use,
        reason = "a closed stdout leaves no one to tell; the daemon serves regardless"
    )]
    let _ = writeln!(stdout, "listening on {}", handle.addr()).and_then(|()| stdout.flush());

    match run_for {
        Some(ms) => std::thread::sleep(Duration::from_millis(ms)),
        // Foreground mode: serve until the operator closes stdin. EOF and
        // a read error both mean drain now.
        None => std::io::stdin()
            .lines()
            .map_while(Result::ok)
            .for_each(drop),
    }

    let report = handle.shutdown();
    let quality = if report.clean {
        Quality::Exact
    } else {
        Quality::Degraded
    };
    let mut out = render(&report);
    if let Some(fault) = fault {
        out.push_str(&format!("fault injections: {}\n", fault.injected()));
    }
    Ok((out, quality))
}

/// The post-drain summary report.
fn render(report: &DrainReport) -> String {
    let m = &report.metrics;
    let mut out = String::new();
    out.push_str("== serve summary ==\n");
    out.push_str(&format!(
        "generation: {} ({} days resumed from checkpoints, {} recoveries)\n",
        report.generation, m.resumed_days, m.recovered_errors
    ));
    out.push_str(&format!(
        "requests: {} accepted, {} served, {} shed, {} malformed, {} oversized, {} timed out\n",
        m.accepted, m.served, m.shed, m.malformed, m.oversized, m.timeouts
    ));
    out.push_str(&format!(
        "clients: {} early disconnects, {} responses dropped on broken pipes\n",
        m.early_disconnects, m.dropped_responses
    ));
    out.push_str(&format!(
        "ingest: {} days published, {} failures, {} files quarantined\n",
        m.ingested_days, m.ingest_failures, m.quarantined_files
    ));
    out.push_str(&format!(
        "drain: {}\n",
        if report.clean {
            "clean".to_string()
        } else {
            format!(
                "abandoned {} connection(s) at the deadline",
                report.abandoned
            )
        }
    ));
    out
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::disallowed_methods,
        clippy::let_underscore_must_use,
        reason = "tests build their fixtures with std::fs and clean up best-effort"
    )]
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(
            "serve",
            &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn config_requires_a_directory_and_validates_flags() {
        assert!(serve_config_from_flags(&flags(&[])).is_err());
        let cfg = serve_config_from_flags(&flags(&["--dir", "logs"])).unwrap();
        assert_eq!(cfg.source_dir, PathBuf::from("logs"));
        assert!(cfg.state_dir.is_none());
        // The table's defaults are the daemon's own.
        let daemon = ServeConfig::default();
        assert_eq!(cfg.bind, daemon.bind);
        assert_eq!(cfg.max_connections, daemon.max_connections);
        assert_eq!(cfg.read_timeout, daemon.read_timeout);
        assert_eq!(cfg.write_timeout, daemon.write_timeout);
        assert_eq!(cfg.header_deadline, daemon.header_deadline);
        assert_eq!(cfg.max_request_bytes, daemon.max_request_bytes);
        assert_eq!(cfg.drain_deadline, daemon.drain_deadline);
        assert_eq!(cfg.poll_interval, daemon.poll_interval);
        // Positional form works too.
        let cfg = serve_config_from_flags(&flags(&["logs"])).unwrap();
        assert_eq!(cfg.source_dir, PathBuf::from("logs"));
        // Knobs flow through.
        let cfg = serve_config_from_flags(&flags(&[
            "--dir",
            "logs",
            "--state",
            "st",
            "--bind",
            "127.0.0.1:8080",
            "--max-connections",
            "7",
            "--header-deadline-ms",
            "250",
            "--n",
            "5",
            "--class",
            "2@/112",
        ]))
        .unwrap();
        assert_eq!(cfg.state_dir, Some(PathBuf::from("st")));
        assert_eq!(cfg.bind, "127.0.0.1:8080");
        assert_eq!(cfg.max_connections, 7);
        assert_eq!(cfg.header_deadline, Duration::from_millis(250));
        assert_eq!(cfg.params.label(), "5d-stable (-7d,+7d)");
        assert_eq!(cfg.dense_class.to_string(), "2@/112-dense");
        // Bad values are refused as the flags parse, usage errors naming
        // the flag, not panics.
        for (flag, value) in [
            ("--n", "0"),
            ("--max-connections", "0"),
            ("--poll-ms", "0"),
            ("--drain-ms", "0"),
            ("--run-for-ms", "abc"),
            ("--class", "zap"),
        ] {
            let args = ["--dir", "l", flag, value].map(String::from);
            let e = Flags::parse("serve", &args).unwrap_err();
            assert!(e.is_usage() && e.to_string().contains(flag), "{e}");
        }
    }

    #[test]
    fn routing_file_parses_or_rejects() {
        let dir = std::env::temp_dir().join(format!("v6census-serve-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("routes.txt");
        std::fs::write(
            &good,
            "# comment\n2001:db8::/32 64496\n\n2001:db9::/32 64497\n",
        )
        .unwrap();
        let entries = parse_routing_file(&good.to_string_lossy()).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].1, 64496);
        let bad = dir.join("bad.txt");
        std::fs::write(&bad, "2001:db8::/32 not-an-asn\n").unwrap();
        assert!(parse_routing_file(&bad.to_string_lossy()).is_err());
        assert!(parse_routing_file("/no/such/file").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
