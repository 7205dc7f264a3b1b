//! Library backing the `v6census` command-line tool.
//!
//! Every subcommand is a pure function from parsed input to an output
//! string, so the full command surface is unit-testable without spawning
//! processes; `src/main.rs` only does argument splitting and I/O.
//!
//! Subcommands:
//!
//! * `classify`  — content-based scheme classification per address (§3)
//! * `mra`       — Multi-Resolution Aggregate plot + signatures (§5.2.1)
//! * `dense`     — `n@/p-dense` prefixes and the density report (§5.2.2)
//! * `aggregate` — active aggregate counts / populations (Kohler metrics)
//! * `stable`    — cross-epoch stability spectrum and boundary (§7.2)
//! * `ptr`       — `ip6.arpa` pointer names, both directions
//! * `profile`   — aguri-style traffic profile from `addr hits` lines
//! * `synth`     — emit a synthetic day log for piping into the above
//! * `census`    — fault-tolerant streaming pipeline over day-log files,
//!   run under the supervised parallel engine: ingest health report, run
//!   manifest, Table 1, gap-aware stability, dense prefixes
//!
//! Exit codes: [`EXIT_OK`] (0), [`EXIT_DATA_ERROR`] (1), [`EXIT_USAGE`]
//! (2), and [`EXIT_DEGRADED`] (3) for a run that completed but shed work
//! (see the run manifest in its output).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
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

pub mod commands;
pub mod input;

/// Exit code: success with an exact (no caveat) result.
pub const EXIT_OK: i32 = 0;
/// Exit code: the command failed on its data or I/O (bad input, strict
/// abort, unreadable files).
pub const EXIT_DATA_ERROR: i32 = 1;
/// Exit code: usage error (unknown command, a flag the command does
/// not take, a missing required flag or argument, a flag value that
/// does not parse, a rejected `--scale`).
pub const EXIT_USAGE: i32 = 2;
/// Exit code: the command *completed* but some result is `Degraded` or
/// `Partial` — a supervised census that excluded a panicked shard, hit a
/// trie budget, or lost a stage to its deadline. The report itself says
/// what was shed; scripts gate on this code.
pub const EXIT_DEGRADED: i32 = 3;

/// A command error carrying the message shown to the user. Its kind
/// picks the exit code.
#[derive(Debug)]
pub enum CliError {
    /// The command failed on its data or I/O: [`EXIT_DATA_ERROR`].
    Data(String),
    /// The command was invoked wrongly: a flag it does not take, a
    /// missing required flag or argument, a flag value that does not
    /// parse as its type, or a `--scale` that cannot size a world.
    /// [`EXIT_USAGE`].
    Usage(String),
}

impl CliError {
    /// True for [`CliError::Usage`].
    pub fn is_usage(&self) -> bool {
        matches!(self, CliError::Usage(_))
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Data(m) | CliError::Usage(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// A data error.
pub fn err(msg: impl Into<String>) -> CliError {
    CliError::Data(msg.into())
}

/// A usage error.
pub fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Whether a flag takes a value: the kind each command's flag table
/// ([`commands::accepted_flags`]) gives every flag it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagKind {
    /// `--name` alone.
    Switch,
    /// `--name VALUE` or `--name=VALUE`.
    Value,
}

/// Minimal flag parser: `--key value` pairs plus positional arguments.
#[derive(Debug, Default, Clone)]
pub struct Flags {
    kv: Vec<(String, String)>,
    /// Bare (non-flag) arguments in order.
    pub positional: Vec<String>,
    /// Flags given without a value (`--tsv`).
    pub switches: Vec<String>,
}

impl Flags {
    /// Parses `command`'s argument list against its flag table
    /// ([`commands::accepted_flags`]), which gives each flag its kind. A
    /// switch never takes the next token, so it may stand before a
    /// positional. A value flag takes `--key value` or `--key=value`; the
    /// `=` form is the way to pass a value that itself starts with `--`.
    /// A flag the command does not take, a value flag without its value
    /// and a switch given a value are usage errors.
    pub fn parse(command: &str, args: &[String]) -> Result<Flags, CliError> {
        let table = commands::accepted_flags(command)
            .ok_or_else(|| usage(format!("unknown command {command:?}")))?;
        let mut f = Flags::default();
        let mut args = args.iter();
        while let Some(a) = args.next() {
            let Some(name) = a.strip_prefix("--") else {
                f.positional.push(a.clone());
                continue;
            };
            let (key, inline) = match name.split_once('=') {
                Some((key, value)) => (key, Some(value.to_string())),
                None => (name, None),
            };
            let Some(&(_, kind)) = table.iter().find(|(k, _)| *k == key) else {
                let takes: Vec<String> = table.iter().map(|(k, _)| format!("--{k}")).collect();
                return Err(usage(format!(
                    "unknown flag --{key} for {command}; it takes {}",
                    takes.join(" ")
                )));
            };
            match (kind, inline) {
                (FlagKind::Switch, None) => f.switches.push(key.to_string()),
                (FlagKind::Switch, Some(_)) => {
                    return Err(usage(format!("--{key} takes no value")));
                }
                (FlagKind::Value, Some(value)) => f.kv.push((key.to_string(), value)),
                (FlagKind::Value, None) => match args.next() {
                    Some(value) if !value.starts_with("--") => {
                        f.kv.push((key.to_string(), value.clone()));
                    }
                    _ => return Err(usage(format!("--{key} needs a value"))),
                },
            }
        }
        Ok(f)
    }

    /// The value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.kv
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when `--name` appeared as a switch (or with any value).
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name) || self.get(name).is_some()
    }

    /// Parses `--name` into `T`, with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| usage(format!("bad value for --{name}: {v:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(command: &str, args: &[&str]) -> Result<Flags, CliError> {
        Flags::parse(
            command,
            &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parses_kv_switches_positional() {
        let f = flags("mra", &["--title", "0.5", "pos1", "--tsv", "pos2"]).unwrap();
        assert_eq!(f.get("title"), Some("0.5"));
        assert!(f.has("tsv"));
        assert!(!f.has("tsv-x"));
        assert_eq!(f.positional, vec!["pos1", "pos2"]);
        assert_eq!(f.get_parsed("title", 1.0f64).unwrap(), 0.5);
        assert_eq!(f.get_parsed("missing", 42u32).unwrap(), 42);
        assert!(f.get_parsed::<u32>("title", 0).unwrap_err().is_usage());
    }

    #[test]
    fn a_switch_never_takes_the_next_token() {
        let f = flags("census", &["--no-timings", "logs", "--strict", "more"]).unwrap();
        assert!(f.has("no-timings") && f.has("strict"));
        assert_eq!(f.positional, vec!["logs", "more"]);
        assert_eq!(f.get("no-timings"), None);
        let e = flags("classify", &["--tsv=yes"]).unwrap_err();
        assert!(
            e.is_usage() && e.to_string().contains("--tsv takes no value"),
            "{e}"
        );
    }

    #[test]
    fn trailing_flag_is_switch() {
        let f = flags("classify", &["--tsv"]).unwrap();
        assert!(f.has("tsv"));
        assert_eq!(f.get("tsv"), None);
    }

    #[test]
    fn key_equals_value_form() {
        let f = flags("mra", &["--title=MRA plot", "pos"]).unwrap();
        assert_eq!(f.get("title"), Some("MRA plot"));
        assert_eq!(f.positional, vec!["pos"]);
    }

    #[test]
    fn equals_form_carries_values_starting_with_dashes() {
        let f = flags("mra", &["--title=--tsv"]).unwrap();
        assert_eq!(f.get("title"), Some("--tsv"));
        assert!(!f.has("tsv"));
        // Empty value and embedded '=' both survive.
        let f = flags("mra", &["--title="]).unwrap();
        assert_eq!(f.get("title"), Some(""));
        assert!(f.has("title"), "a valued flag still answers has()");
        let f = flags("census", &["--gap-policy=a=b"]).unwrap();
        assert_eq!(f.get("gap-policy"), Some("a=b"));
    }

    #[test]
    fn a_value_flag_without_its_value_is_a_usage_error() {
        for args in [&["--title"][..], &["--title", "--tsv"]] {
            let e = flags("mra", args).unwrap_err();
            assert!(
                e.is_usage() && e.to_string().contains("--title needs a value"),
                "{e}"
            );
        }
    }

    #[test]
    fn only_accepted_flags_pass() {
        assert!(flags("synth", &["--scale", "0.5", "--day=2015-03-17"]).is_ok());
        let e = flags("synth", &["--sclae=0.5"]).unwrap_err();
        assert!(e.is_usage());
        assert!(
            e.to_string().starts_with("unknown flag --sclae for synth"),
            "{e}"
        );
        assert!(e.to_string().contains("--scale"), "{e}");
        assert!(flags("ptr", &["pos"]).is_ok());
        assert!(flags("no-such-command", &[]).unwrap_err().is_usage());
    }

    #[test]
    fn two_token_form_still_treats_dashes_as_switch() {
        let f = flags("census", &["--strict", "--dir", "logs"]).unwrap();
        assert!(f.has("strict"));
        assert_eq!(f.get("dir"), Some("logs"));
    }
}
