//! Library backing the `v6census` command-line tool.
//!
//! Every subcommand is a function from parsed [`Flags`] (and, for most,
//! the address text on stdin) to an output string, so the full command
//! surface is unit-testable without spawning processes; `src/main.rs`
//! only does argument splitting and stdin/stdout. The commands, their
//! flags and the `help` text all come from one table,
//! [`commands::COMMANDS`].
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

use commands::Command;

/// Exit code: success with an exact (no caveat) result.
pub const EXIT_OK: i32 = 0;
/// Exit code: the command failed on its data or I/O (bad input, strict
/// abort, unreadable files).
pub const EXIT_DATA_ERROR: i32 = 1;
/// Exit code: usage error (unknown command, a flag the command does
/// not take, a missing required flag or argument, a flag given without
/// the flag it needs, a flag value that its flag's check refuses).
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
    /// missing required flag or argument, a flag given without the flag
    /// it needs, or a flag value that its flag's check refuses.
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

/// Parsed arguments of one command: its flags, checked against the
/// command's row of [`commands::COMMANDS`], plus positional arguments.
#[derive(Debug, Clone)]
pub struct Flags {
    /// The command parsed for.
    pub command: &'static Command,
    kv: Vec<(String, String)>,
    /// Bare (non-flag) arguments in order.
    pub positional: Vec<String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses `command`'s argument list against its flag table. A switch
    /// never takes the next token, so it may stand before a positional.
    /// A value flag takes `--key value` or `--key=value`; the `=` form is
    /// the way to pass a value that itself starts with `--`. An unknown
    /// command, a flag the command does not take, a value flag without
    /// its value, a switch given a value, a value its flag's check
    /// refuses, a missing required flag and a flag given without the flag
    /// it needs are usage errors, all raised before the command runs (so
    /// before it reads stdin).
    pub fn parse(command: &str, args: &[String]) -> Result<Flags, CliError> {
        let command = commands::command(command).ok_or_else(|| {
            usage(format!(
                "unknown command {command:?}; `v6census help` lists them"
            ))
        })?;
        let mut f = Flags {
            command,
            kv: Vec::new(),
            positional: Vec::new(),
            switches: Vec::new(),
        };
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
            let Some(flag) = command.flag(key) else {
                let takes: Vec<String> = command.takes().map(|r| format!("--{}", r.name)).collect();
                return Err(usage(format!(
                    "unknown flag --{key} for {}; it takes {}",
                    command.name,
                    takes.join(" ")
                )));
            };
            let Some(check) = flag.check else {
                if inline.is_some() {
                    return Err(usage(format!("--{key} takes no value")));
                }
                f.switches.push(key.to_string());
                continue;
            };
            let value = match inline {
                Some(value) => value,
                None => match args.next() {
                    Some(value) if !value.starts_with("--") => value.clone(),
                    _ => return Err(usage(format!("--{key} needs a value"))),
                },
            };
            check(&value).map_err(|why| bad_value(key, &value, why))?;
            f.kv.push((key.to_string(), value));
        }
        for flag in command.takes() {
            if flag.required && !f.has(flag.name) {
                return Err(usage(format!("{} requires --{}", command.name, flag.name)));
            }
            if let Some(other) = flag.needs.filter(|o| f.has(flag.name) && !f.has(o)) {
                return Err(usage(format!("--{} needs --{other}", flag.name)));
            }
        }
        Ok(f)
    }

    /// The value of `--name`: the one given, else its row's default.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.kv
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .or_else(|| self.command.flag(name).and_then(|f| f.default))
    }

    /// True when `--name` was given, as a switch or with a value.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name) || self.kv.iter().any(|(k, _)| k == name)
    }

    /// `--name`'s value ([`Flags::get`]) read by `parse`; `None` when the
    /// flag was not given and has no default.
    pub fn get_opt<T, E: std::fmt::Display>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, CliError> {
        self.get(name)
            .map(|v| parse(v).map_err(|e| bad_value(name, v, e)))
            .transpose()
    }

    /// `--name`'s value read by `parse`, its row's default when not
    /// given.
    pub fn get_with<T, E: std::fmt::Display>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<T, CliError> {
        self.get_opt(name, parse)?
            .ok_or_else(|| usage(format!("--{name} needs a value")))
    }

    /// `--name`'s value parsed as `T`, its row's default when not given.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        self.get_with(name, str::parse)
    }
}

/// The usage error for a value its flag refuses.
fn bad_value(name: &str, value: &str, why: impl std::fmt::Display) -> CliError {
    usage(format!("bad value for --{name}: {value:?}: {why}"))
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
        assert_eq!(f.get_parsed::<f64>("title").unwrap(), 0.5);
        assert!(f.get_parsed::<u32>("title").unwrap_err().is_usage());
        // A flag not given reads its row's default, and only a given
        // flag answers `has`.
        let f = flags("stability", &["--dir", "d"]).unwrap();
        assert_eq!(f.get_parsed::<u32>("n").unwrap(), 3);
        assert!(!f.has("n"));
        assert_eq!(f.get("reference"), None);
        let e = f.get_parsed::<u32>("reference").unwrap_err();
        assert!(e.is_usage() && e.to_string().contains("--reference"), "{e}");
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
        let f = flags("census", &["--inject=panic:a=b"]).unwrap();
        assert_eq!(f.get("inject"), Some("panic:a=b"));
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
        // A value its flag's check refuses, a missing required flag and a
        // flag without the flag it needs are usage errors naming the flag.
        for (command, args, message) in [
            ("stable", &[][..], "stable requires --earlier"),
            ("stability", &["--n", "3"], "stability requires --dir"),
            ("census", &["--class", "abc"], "bad value for --class"),
            (
                "census",
                &["--gap-policy=bogus"],
                "bad value for --gap-policy",
            ),
            ("census", &["--stage-deadline=0"], "must be at least 1"),
            ("census", &["--max-bad-ratio", "2"], "must be within [0, 1]"),
            ("census", &["--resume"], "--resume needs --checkpoint"),
            (
                "aggregate",
                &["--length", "48"],
                "--length needs --populations",
            ),
            ("synth", &["--fault-fs", "enospc"], "--fault-fs needs --out"),
        ] {
            let e = flags(command, args).unwrap_err();
            assert!(e.is_usage() && e.to_string().contains(message), "{e}");
        }
    }

    #[test]
    fn two_token_form_still_treats_dashes_as_switch() {
        let f = flags("census", &["--strict", "--dir", "logs"]).unwrap();
        assert!(f.has("strict"));
        assert_eq!(f.get("dir"), Some("logs"));
    }
}
