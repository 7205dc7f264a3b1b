//! The `v6census` command-line tool: argument splitting and I/O around
//! the pure subcommand functions in [`v6census_cli::commands`].
//!
//! Exit codes (documented in `v6census help`): 0 ok, 1 data error,
//! 2 usage error, 3 completed-but-degraded (see the run manifest).

// Workspace rules (DESIGN.md §7, checked by tests/lint_rules.rs):
// no panic paths,
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
// determinism, durability and lock confinement (lists in clippy.toml),
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// no discarded results, and accountable suppressions.
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![deny(unfulfilled_lint_expectations)]

use std::io::Read;
use v6census_cli::commands::{
    accepted_flags, aggregate, census, classify, dense, mra, profile, ptr, serve, stability,
    stable, synth, targets, DayFile, USAGE,
};
use v6census_cli::{Flags, EXIT_DATA_ERROR, EXIT_DEGRADED, EXIT_USAGE};
use v6census_core::quality::Quality;
use v6census_core::temporal::Day;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        eprint!("{USAGE}");
        std::process::exit(EXIT_USAGE);
    };
    // `help` and an unknown command take no flags; the dispatch below
    // answers them.
    let flags = match accepted_flags(command) {
        Some(_) => Flags::parse(command, &args[1..]).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(EXIT_USAGE)
        }),
        None => Flags::default(),
    };

    // Every subcommand yields (output, quality); only `census` and
    // `serve` can come back non-exact today, and that maps to
    // EXIT_DEGRADED below.
    let exact = |s: String| (s, Quality::Exact);
    let result = match command {
        "classify" => classify(&read_stdin(), &flags).map(exact),
        "mra" => mra(&read_stdin(), &flags).map(exact),
        "dense" => dense(&read_stdin(), &flags).map(exact),
        "aggregate" => aggregate(&read_stdin(), &flags).map(exact),
        "stable" => {
            let earlier_path = flags.get("earlier").unwrap_or_default().to_string();
            if earlier_path.is_empty() {
                Err(v6census_cli::usage("stable requires --earlier FILE"))
            } else {
                match std::fs::read_to_string(&earlier_path) {
                    Ok(earlier) => stable(&read_stdin(), &earlier, &flags).map(exact),
                    Err(e) => Err(v6census_cli::err(format!(
                        "cannot read --earlier {earlier_path}: {e}"
                    ))),
                }
            }
        }
        "ptr" => ptr(&read_stdin(), &flags).map(exact),
        "targets" => targets(&read_stdin(), &flags).map(exact),
        "stability" => {
            let dir = flags.get("dir").unwrap_or_default().to_string();
            if dir.is_empty() {
                Err(v6census_cli::usage("stability requires --dir DIR"))
            } else {
                read_day_files(&dir)
                    .and_then(|days| stability(days, &flags))
                    .map(exact)
            }
        }
        "profile" => profile(&read_stdin(), &flags).map(exact),
        "census" => census(&flags),
        "serve" => serve(&flags),
        "synth" => synth(&flags).map(exact),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return;
        }
        other => {
            eprintln!("unknown command {other:?}\n");
            eprint!("{USAGE}");
            std::process::exit(EXIT_USAGE);
        }
    };

    match result {
        Ok((output, quality)) => {
            // Tolerate a closed pipe (`v6census synth | head`): treat
            // EPIPE as a normal early exit rather than a panic.
            use std::io::Write;
            if let Err(e) = std::io::stdout().write_all(output.as_bytes()) {
                if e.kind() != std::io::ErrorKind::BrokenPipe {
                    eprintln!("error writing output: {e}");
                    std::process::exit(EXIT_DATA_ERROR);
                }
            }
            if !quality.is_exact() {
                std::process::exit(EXIT_DEGRADED);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            if e.is_usage() {
                std::process::exit(EXIT_USAGE);
            }
            std::process::exit(EXIT_DATA_ERROR);
        }
    }
}

fn read_day_files(dir: &str) -> Result<Vec<DayFile>, v6census_cli::CliError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| v6census_cli::err(format!("cannot read --dir {dir}: {e}")))?;
    let mut days = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(day) = Day::parse_leading(&name.to_string_lossy()) else {
            continue;
        };
        let text = std::fs::read_to_string(entry.path())
            .map_err(|e| v6census_cli::err(format!("cannot read {:?}: {e}", entry.path())))?;
        days.push(DayFile { day, text });
    }
    Ok(days)
}

fn read_stdin() -> String {
    let mut buf = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
        eprintln!("error reading stdin: {e}");
        std::process::exit(EXIT_DATA_ERROR);
    }
    buf
}
