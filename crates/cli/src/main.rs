//! The `v6census` command-line tool: argument splitting and I/O around
//! the subcommand functions in [`v6census_cli::commands`], dispatched
//! through its table.
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

use v6census_cli::commands::{help, Run};
use v6census_cli::input::read_stdin;
use v6census_cli::{Flags, EXIT_DATA_ERROR, EXIT_DEGRADED, EXIT_USAGE};
use v6census_core::quality::Quality;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{}", help());
        std::process::exit(EXIT_USAGE);
    };
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        print!("{}", help());
        return;
    }
    // Every flag is checked before the command runs; only `census` and
    // `serve` can come back non-exact, which maps to EXIT_DEGRADED below.
    let result = Flags::parse(command, &args[1..]).and_then(|flags| match flags.command.run {
        Run::Stdin(run) => read_stdin()
            .and_then(|input| run(&input, &flags))
            .map(|s| (s, Quality::Exact)),
        Run::Own(run) => run(&flags).map(|s| (s, Quality::Exact)),
        Run::Graded(run) => run(&flags),
    });

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
