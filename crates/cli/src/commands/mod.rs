//! The subcommands and the one table that declares them: each command's
//! name, summary, flags and entry point ([`COMMANDS`]), and each flag's
//! check, default, help and the flags it needs ([`Flag`]).
//! [`crate::Flags::parse`] checks arguments against it and `v6census
//! help` ([`help`]) is rendered from it.

mod aggregate;
mod census;
mod classify;
mod dense;
mod mra;
mod profile;
mod ptr;
mod serve;
mod stability;
mod stable;
mod synth;
mod targets;

pub use aggregate::aggregate;
pub use census::census;
pub use classify::classify;
pub use dense::dense;
pub use mra::mra;
pub use profile::profile;
pub use ptr::ptr;
pub use serve::serve;
pub use stability::stability;
pub use stable::{spectrum, stable};
pub use synth::synth;
pub use targets::targets;

use crate::{CliError, Flags};
use std::fmt::Display;
use std::str::FromStr;
use v6census_addr::PrefixLen;
use v6census_core::quality::Quality;
use v6census_core::spatial::DensityClass;
use v6census_core::temporal::{Day, GapPolicy};
use v6census_core::vfs::FaultPlan;
use v6census_synth::{check_scale, AnalysisFaultPlan};

/// A value flag's check: `Err` says why it refuses a value.
pub type Check = fn(&str) -> Result<(), String>;

/// One flag of a command, declared once.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The name, without `--`.
    pub name: &'static str,
    /// The check of its value, `--name VALUE` or `--name=VALUE`; `None`
    /// for a switch, `--name` alone.
    pub check: Option<Check>,
    /// The value read when the flag is not given; `None`: not set.
    pub default: Option<&'static str>,
    /// What `help` shows for the value: the default, or a placeholder.
    pub arg: &'static str,
    /// Whether the command refuses to run without it.
    pub required: bool,
    /// A flag this one means nothing without (a usage error alone).
    pub needs: Option<&'static str>,
    /// One line of help.
    pub help: &'static str,
}

/// A row's text: a name, a default, a placeholder or help.
type Text = &'static str;

/// A switch.
const fn switch(name: Text, help: Text) -> Flag {
    Flag {
        check: None,
        ..optional(name, parses::<String>, "", help)
    }
}

/// A value flag with a default.
const fn value(name: Text, check: Check, default: Text, help: Text) -> Flag {
    Flag {
        default: Some(default),
        ..optional(name, check, default, help)
    }
}

/// A value flag without a default; `arg` names its value in `help`.
const fn optional(name: Text, check: Check, arg: Text, help: Text) -> Flag {
    Flag {
        name,
        check: Some(check),
        default: None,
        arg,
        required: false,
        needs: None,
        help,
    }
}

impl Flag {
    /// This flag, without which the command does not run.
    const fn required(self) -> Flag {
        Flag {
            required: true,
            ..self
        }
    }

    /// This flag, meaningless without `--other`.
    const fn needs(self, other: Text) -> Flag {
        Flag {
            needs: Some(other),
            ..self
        }
    }
}

/// A command row; it takes [`INGEST_FLAGS`] only once `with_ingest`.
const fn cmd(name: Text, run: Run, summary: Text, flags: &'static [Flag]) -> Command {
    Command {
        name,
        summary,
        flags,
        ingest: false,
        run,
    }
}

/// How a command runs.
#[derive(Debug, Clone, Copy)]
pub enum Run {
    /// On the address text read from stdin.
    Stdin(fn(&str, &Flags) -> Result<String, CliError>),
    /// Reading its own inputs: the files its flags name, and stdin.
    Own(fn(&Flags) -> Result<String, CliError>),
    /// Reading its own inputs; may complete degraded.
    Graded(fn(&Flags) -> Result<(String, Quality), CliError>),
}

/// One command: its row of the table.
#[derive(Debug)]
pub struct Command {
    /// The name, as typed after `v6census`.
    pub name: &'static str,
    /// What `help` says it does, in one line.
    pub summary: &'static str,
    /// Its own flags.
    pub flags: &'static [Flag],
    /// Whether it also takes [`INGEST_FLAGS`].
    pub ingest: bool,
    /// Its entry point.
    pub run: Run,
}

impl Command {
    /// This command, taking the ingest flags too.
    const fn with_ingest(self) -> Command {
        Command {
            ingest: true,
            ..self
        }
    }

    /// Every flag the command takes: its own, then the ingest flags.
    pub fn takes(&self) -> impl Iterator<Item = &'static Flag> {
        let ingest: &'static [Flag] = if self.ingest { &INGEST_FLAGS } else { &[] };
        self.flags.iter().chain(ingest)
    }

    /// The row of `--name`, if the command takes it.
    pub fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.takes().find(|f| f.name == name)
    }
}

/// The command named `name`.
pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// The check of a value that parses as `T`; any text parses as a
/// `String` (a path, a title, an address to bind).
fn parses<T: FromStr>(v: &str) -> Result<(), String>
where
    T::Err: Display,
{
    v.parse::<T>().map(drop).map_err(|e| e.to_string())
}

/// The check of a count that parses as `T` and is at least 1.
fn at_least_one<T: FromStr + PartialOrd + From<u8>>(v: &str) -> Result<(), String>
where
    T::Err: Display,
{
    match v.parse::<T>() {
        Ok(n) if n >= T::from(1) => Ok(()),
        Ok(_) => Err("must be at least 1".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// The check of a share within [0, 1].
fn fraction(v: &str) -> Result<(), String> {
    match v.parse::<f64>() {
        Ok(x) if (0.0..=1.0).contains(&x) => Ok(()),
        Ok(_) => Err("must be within [0, 1]".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Reads a `--gap-policy` word.
fn gap_policy(word: &str) -> Result<GapPolicy, String> {
    match word {
        "widen" => Ok(GapPolicy::Widen { max_extra: 7 }),
        "flag" => Ok(GapPolicy::Flag),
        "ignore" => Ok(GapPolicy::AssumeInactive),
        _ => Err("expected widen, flag or ignore".into()),
    }
}

/// Reads a `--scale` that can size a world.
fn scale(v: &str) -> Result<f64, String> {
    v.parse::<f64>()
        .map_err(|e| e.to_string())
        .and_then(check_scale)
}

// Flags that several commands take, each declared once here.
#[rustfmt::skip]
const N: Flag = value("n", at_least_one::<u32>, "3", "nd-stable: seen on n days of the window");
#[rustfmt::skip]
const REFERENCE: Flag = optional("reference", parses::<Day>, "DATE", "default: the middle day");
#[rustfmt::skip]
const LOG_DIR: Flag = optional("dir", parses::<String>, "DIR", "YYYY-MM-DD* logs (or positional)");
#[rustfmt::skip]
const CLASS_64: Flag = value("class", parses::<DensityClass>, "8@/64", "density class of /64s");
#[rustfmt::skip]
const CLASS_112: Flag = value("class", parses::<DensityClass>, "2@/112", "density class n@/p");
#[rustfmt::skip]
const FAULT_FS: Flag = optional("fault-fs", |v| FaultPlan::parse(v).map(drop), "PLAN",
                                "filesystem faults, e.g. enospc@64:ckpt");

/// The ingest flags `census` and `serve` share.
#[rustfmt::skip]
pub const INGEST_FLAGS: [Flag; 7] = [
    value("max-bad-ratio", fraction, "0.01", "a file with a larger share of bad lines fails"),
    switch("strict", "abort on the first bad line"),
    switch("merge-duplicates", "union a day delivered twice"),
    optional("checkpoint", parses::<String>, "DIR", "checkpoint each ingested day there"),
    switch("resume", "load days already checkpointed").needs("checkpoint"),
    optional("max-days", parses::<usize>, "N", "stop after ingesting N days"),
    FAULT_FS,
];

/// Every command, in `help` order, one row each: rustfmt would spread
/// every flag over six lines.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    cmd("classify", Run::Stdin(classify), "content-based scheme per address, and a histogram", &[
        switch("tsv", "tab-separated rows, no summary"),
        switch("malone", "add the content-only Malone verdict"),
    ]),
    cmd("mra", Run::Stdin(mra), "Multi-Resolution Aggregate plot + signatures", &[
        value("title", parses::<String>, "stdin population", "plot title"),
        switch("tsv", "tab-separated plot data"),
    ]),
    cmd("dense", Run::Stdin(dense), "n@/p-dense prefixes and density report (§5.2.2)", &[
        CLASS_112,
        switch("table3", "the Table 3 sweep of classes"),
        switch("general", "least-specific dense prefixes of any length"),
    ]),
    cmd("aggregate", Run::Stdin(aggregate), "active aggregate counts n_p, or populations", &[
        value("length", parses::<PrefixLen>, "64", "aggregate length").needs("populations"),
        switch("populations", "populations of the active aggregates"),
    ]),
    cmd("stable", Run::Own(stable), "§7.2 stability spectrum against --earlier", &[
        optional("earlier", parses::<String>, "FILE", "the earlier epoch").required(),
        value("threshold", fraction, "0.5", "stable share that sets the boundary"),
        value("step", at_least_one::<u8>, "8", "prefix-length step of the spectrum"),
        switch("prefixes", "list the longest stable prefixes"),
    ]),
    cmd("stability", Run::Own(stability), "§5.1 nd-stable analysis over day files", &[
        optional("dir", parses::<String>, "DIR", "files named YYYY-MM-DD*, one a day").required(),
        N,
        value("window", parses::<u32>, "7", "window reach in days, each way"),
        value("slew", parses::<u32>, "0", "extra days of clock slew"),
        REFERENCE,
    ]),
    cmd("census", Run::Graded(census), "fault-tolerant supervised census of day logs", &[
        LOG_DIR,
        N,
        REFERENCE,
        value("gap-policy", |v| gap_policy(v).map(drop), "widen",
              "missing window days: widen, flag or ignore"),
        value("jobs", at_least_one::<usize>, "1", "worker threads per stage"),
        optional("stage-deadline", at_least_one::<u64>, "MS", "per-stage wall-clock deadline"),
        value("max-trie-nodes", parses::<usize>, "0", "densify node budget, 0 for none"),
        CLASS_64,
        switch("no-timings", "omit wall clocks: the report is byte-stable"),
        optional("inject", |v| AnalysisFaultPlan::parse(v).map(drop), "SPEC",
                 "analysis fault drill, e.g. panic:densify/2001"),
    ]).with_ingest(),
    cmd("serve", Run::Graded(serve), "crash-safe census daemon answering HTTP", &[
        LOG_DIR,
        value("bind", parses::<String>, "127.0.0.1:0", "address to listen on"),
        optional("state", parses::<String>, "DIR", "crash-safe per-day checkpoints"),
        optional("routing", parses::<String>, "FILE", "`prefix asn` lines for /classify"),
        value("max-connections", at_least_one::<usize>, "64", "load-shed (503) past the cap"),
        value("header-deadline-ms", at_least_one::<u64>, "3000", "time to read a request head"),
        value("max-request-bytes", parses::<usize>, "8192", "request head size cap"),
        value("read-timeout-ms", at_least_one::<u64>, "2000", "socket read timeout"),
        value("write-timeout-ms", at_least_one::<u64>, "2000", "socket write timeout"),
        value("poll-ms", at_least_one::<u64>, "200", "source rescan cadence"),
        value("drain-ms", at_least_one::<u64>, "5000", "graceful-drain deadline"),
        optional("run-for-ms", parses::<u64>, "MS", "exit after MS (default: at stdin EOF)"),
        N,
        CLASS_64,
    ]).with_ingest(),
    cmd("targets", Run::Stdin(targets), "probe-target list from dense prefixes (§6.2.2)", &[
        CLASS_112,
        value("budget", at_least_one::<usize>, "10000", "most targets listed"),
        switch("include-observed", "keep the observed addresses"),
    ]),
    cmd("ptr", Run::Stdin(ptr), "addresses -> ip6.arpa names", &[
        switch("reverse", "ip6.arpa names -> addresses"),
    ]),
    cmd("profile", Run::Stdin(profile), "aguri traffic profile from `addr hits` lines", &[
        value("threshold", fraction, "0.01", "least share of hits a prefix reports"),
    ]),
    cmd("synth", Run::Own(synth), "emit a synthetic day log (addr, hits, true kind)", &[
        value("day", parses::<Day>, "2015-03-17", "the (first) day"),
        value("scale", |v| scale(v).map(drop), "0.02", "world size; 1.0 is the paper's"),
        value("seed", parses::<u64>, "130580255801345", "world seed"),
        optional("out", parses::<String>, "DIR", "write day files there instead"),
        value("days", at_least_one::<u32>, "1", "day files written").needs("out"),
        FAULT_FS.needs("out"),
    ]),
];

/// The `EXIT CODES` section of `help`.
const EXIT_CODES: &str = "\
EXIT CODES
  0  success, all results exact
  1  data or I/O error: bad input, a strict-mode abort, unreadable files,
     a day delivered twice to `stability`, a serve that cannot start
  2  usage error, raised before the command runs: an unknown command or
     flag (synth --sclae), a missing required flag (--dir, stable's
     --earlier), a flag without the flag it needs (--resume without
     --checkpoint), or a value its flag's check refuses (--n abc, --n 0,
     --class abc, --gap-policy bogus, --max-bad-ratio 2, --poll-ms 0)
  3  completed but degraded: a shard panicked twice, a stage hit its
     deadline, or a budget forced coarser aggregation (the run manifest
     names every casualty); for `serve`, the drain had to abandon
     in-flight connections (the summary says how many)
";

/// The `v6census help` text: the commands and their flags from
/// [`COMMANDS`], then the exit codes.
pub fn help() -> String {
    let mut out = String::from(
        "v6census — temporal & spatial classification of IPv6 addresses (IMC'15)\n\n\
         USAGE: v6census <command> [flags]   (address input on stdin, one per line)\n\n\
         COMMANDS\n",
    );
    for c in COMMANDS {
        out.push_str(&format!("  {:<12}{}\n", c.name, c.summary));
        for f in c.takes() {
            let arg = if f.arg.contains(' ') {
                format!("{:?}", f.arg)
            } else {
                f.arg.to_string()
            };
            let flag = format!("--{} {arg}", f.name);
            let needs = match (f.required, f.needs) {
                (true, _) => " (required)".to_string(),
                (false, Some(n)) => format!(" (needs --{n})"),
                (false, None) => String::new(),
            };
            out.push_str(&format!("    {:<30}{}{needs}\n", flag.trim_end(), f.help));
        }
    }
    out.push_str("  help        this text\n\n");
    out.push_str(EXIT_CODES);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `--flag` the help text shows under a command is one the
    /// command accepts.
    #[test]
    fn every_flag_in_the_usage_text_is_accepted() {
        let help = help();
        let commands = help
            .split("COMMANDS")
            .nth(1)
            .and_then(|s| s.split("EXIT CODES").next())
            .unwrap();
        let mut current = "";
        let mut checked = 0;
        for line in commands.lines() {
            if let Some(name) = line.strip_prefix("  ").and_then(|l| l.split(' ').next()) {
                if !name.is_empty() {
                    current = name;
                }
            }
            let Some(accepted) = command(current) else {
                assert!(matches!(current, "" | "help"), "{line}");
                continue;
            };
            for flag in line.split("--").skip(1) {
                let name: String = flag
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                assert!(accepted.flag(&name).is_some(), "{current} --{name}");
                checked += 1;
            }
        }
        assert!(checked > 60, "only {checked} flags found");
        assert!(command("bogus").is_none());
    }
}
