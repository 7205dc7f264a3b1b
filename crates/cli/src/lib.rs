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
    /// Parses an argument list. Both `--key value` and `--key=value` are
    /// accepted. In the two-token form, `--key` consumes the next token
    /// as its value unless that token also starts with `--` or is
    /// absent, in which case it is a switch; the `--key=value` form has
    /// no such ambiguity, so it is the way to pass a value that itself
    /// starts with `--`.
    pub fn parse(args: &[String]) -> Flags {
        let mut f = Flags::default();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if let Some((key, value)) = name.split_once('=') {
                    f.kv.push((key.to_string(), value.to_string()));
                    i += 1;
                    continue;
                }
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        f.kv.push((name.to_string(), v.clone()));
                        i += 2;
                    }
                    _ => {
                        f.switches.push(name.to_string());
                        i += 1;
                    }
                }
            } else {
                f.positional.push(a.clone());
                i += 1;
            }
        }
        f
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

    /// Checks that every flag given is one of `accepted`, the flags
    /// `command` reads: a misspelt or foreign flag is a usage error
    /// naming it, not a flag silently ignored while its value defaults.
    pub fn accept_only(&self, command: &str, accepted: &[&str]) -> Result<(), CliError> {
        let given = self.kv.iter().map(|(k, _)| k).chain(&self.switches);
        match given.into_iter().find(|k| !accepted.contains(&k.as_str())) {
            None => Ok(()),
            Some(k) => Err(usage(format!(
                "unknown flag --{k} for {command}; it takes {}",
                accepted
                    .iter()
                    .map(|a| format!("--{a}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ))),
        }
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

    fn flags(args: &[&str]) -> Flags {
        Flags::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_kv_switches_positional() {
        let f = flags(&["--scale", "0.5", "pos1", "--tsv", "--seed", "7", "pos2"]);
        assert_eq!(f.get("scale"), Some("0.5"));
        assert_eq!(f.get("seed"), Some("7"));
        assert!(f.has("tsv"));
        assert!(!f.has("scale-x"));
        assert_eq!(f.positional, vec!["pos1", "pos2"]);
        assert_eq!(f.get_parsed("scale", 1.0f64).unwrap(), 0.5);
        assert_eq!(f.get_parsed("missing", 42u32).unwrap(), 42);
        assert!(f.get_parsed::<u32>("scale", 0).unwrap_err().is_usage());
    }

    #[test]
    fn trailing_flag_is_switch() {
        let f = flags(&["--tsv"]);
        assert!(f.has("tsv"));
        assert_eq!(f.get("tsv"), None);
    }

    #[test]
    fn key_equals_value_form() {
        let f = flags(&["--scale=0.5", "--title=MRA plot", "pos"]);
        assert_eq!(f.get("scale"), Some("0.5"));
        assert_eq!(f.get("title"), Some("MRA plot"));
        assert_eq!(f.positional, vec!["pos"]);
        assert_eq!(f.get_parsed("scale", 1.0f64).unwrap(), 0.5);
    }

    #[test]
    fn equals_form_carries_values_starting_with_dashes() {
        // `--title --tsv` makes --title a switch; `--title=--tsv` does not.
        let f = flags(&["--title=--tsv", "--gap-policy=widen"]);
        assert_eq!(f.get("title"), Some("--tsv"));
        assert!(!f.switches.iter().any(|s| s == "tsv"));
        assert_eq!(f.get("gap-policy"), Some("widen"));
        // Empty value and embedded '=' both survive.
        let f = flags(&["--note=", "--expr=a=b"]);
        assert_eq!(f.get("note"), Some(""));
        assert_eq!(f.get("expr"), Some("a=b"));
        assert!(f.has("note"), "a valued flag still answers has()");
    }

    #[test]
    fn only_accepted_flags_pass() {
        let f = flags(&["--scale", "0.5", "--tsv", "--note=x", "pos"]);
        assert!(f.accept_only("synth", &["scale", "tsv", "note"]).is_ok());
        let e = f.accept_only("synth", &["scale", "note"]).unwrap_err();
        assert!(e.is_usage());
        assert!(e.to_string().contains("--tsv"), "{e}");
        let e = flags(&["--sclae=0.5"]).accept_only("synth", &["scale"]);
        assert!(e
            .unwrap_err()
            .to_string()
            .starts_with("unknown flag --sclae for synth"));
        assert!(flags(&["pos"]).accept_only("ptr", &[]).is_ok());
    }

    #[test]
    fn two_token_form_still_treats_dashes_as_switch() {
        let f = flags(&["--strict", "--dir", "logs"]);
        assert!(f.has("strict"));
        assert_eq!(f.get("dir"), Some("logs"));
    }
}
