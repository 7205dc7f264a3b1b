//! The subcommand implementations. Each takes its input text (already
//! read) plus parsed [`crate::Flags`] and returns the output string.

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
pub use serve::{serve, serve_config_from_flags};
pub use stability::{day_from_name, stability, DayFile};
pub use stable::stable;
pub use synth::synth;
pub use targets::targets;

pub(crate) use synth::parse_day as synth_day;

use crate::FlagKind::{self, Switch, Value};

/// The ingest flags `census` and `serve` share.
const INGEST_FLAGS: [(&str, FlagKind); 7] = [
    ("max-bad-ratio", Value),
    ("strict", Switch),
    ("merge-duplicates", Switch),
    ("checkpoint", Value),
    ("resume", Switch),
    ("max-days", Value),
    ("fault-fs", Value),
];

/// The flags `command` reads, each with its kind; `None` for a command
/// that is not one. [`crate::Flags::parse`] takes a flag's kind from here
/// and refuses any flag not listed.
pub fn accepted_flags(command: &str) -> Option<Vec<(&'static str, FlagKind)>> {
    let own: &[(&str, FlagKind)] = match command {
        "classify" => &[("tsv", Switch), ("malone", Switch)],
        "mra" => &[("title", Value), ("tsv", Switch)],
        "dense" => &[("class", Value), ("table3", Switch), ("general", Switch)],
        "aggregate" => &[("length", Value), ("populations", Switch)],
        "stable" => &[
            ("earlier", Value),
            ("threshold", Value),
            ("step", Value),
            ("prefixes", Switch),
        ],
        "stability" => &[
            ("dir", Value),
            ("n", Value),
            ("window", Value),
            ("slew", Value),
            ("reference", Value),
        ],
        "census" => &[
            ("dir", Value),
            ("n", Value),
            ("reference", Value),
            ("gap-policy", Value),
            ("jobs", Value),
            ("stage-deadline", Value),
            ("max-trie-nodes", Value),
            ("class", Value),
            ("no-timings", Switch),
            ("inject", Value),
        ],
        "serve" => &[
            ("dir", Value),
            ("bind", Value),
            ("state", Value),
            ("routing", Value),
            ("max-connections", Value),
            ("header-deadline-ms", Value),
            ("max-request-bytes", Value),
            ("read-timeout-ms", Value),
            ("write-timeout-ms", Value),
            ("poll-ms", Value),
            ("drain-ms", Value),
            ("run-for-ms", Value),
            ("n", Value),
            ("class", Value),
        ],
        "targets" => &[
            ("class", Value),
            ("budget", Value),
            ("include-observed", Switch),
        ],
        "ptr" => &[("reverse", Switch)],
        "profile" => &[("threshold", Value)],
        "synth" => &[
            ("day", Value),
            ("scale", Value),
            ("seed", Value),
            ("out", Value),
            ("days", Value),
            ("fault-fs", Value),
        ],
        _ => return None,
    };
    let ingest = matches!(command, "census" | "serve").then_some(INGEST_FLAGS);
    Some(
        own.iter()
            .copied()
            .chain(ingest.into_iter().flatten())
            .collect(),
    )
}

/// Usage text for the tool.
pub const USAGE: &str = "\
v6census — temporal & spatial classification of IPv6 addresses (IMC'15)

USAGE: v6census <command> [flags]   (address input on stdin, one per line)

COMMANDS
  classify              content-based scheme per address; summary histogram
                        [--tsv] [--malone]
  mra                   Multi-Resolution Aggregate plot + signatures
                        [--title T] [--tsv]
  dense                 n@/p-dense prefixes and density report
                        [--class 2@/112] [--table3] [--general]
  aggregate             active aggregate counts n_p, or populations
                        [--length P] [--populations]
  stable                cross-epoch stability spectrum + boundary (§7.2)
                        --earlier FILE  (current epoch on stdin)
                        [--threshold 0.5] [--step 8] [--prefixes]
  stability             full nd-stable analysis over daily files (§5.1)
                        --dir DIR  (files named YYYY-MM-DD*, one addr/line)
                        [--n 3] [--window 7] [--slew 0] [--reference DATE]
  census                fault-tolerant supervised pipeline over day-log files:
                        ingest health, run manifest, Table 1, gap-aware
                        stability, dense prefixes
                        --dir DIR (or positional; files named YYYY-MM-DD*)
                        [--max-bad-ratio 0.01] [--strict] [--merge-duplicates]
                        [--checkpoint DIR] [--resume] [--max-days N]
                        [--n 3] [--reference DATE] [--gap-policy widen|flag|ignore]
                        [--jobs 1] worker threads per analysis stage
                        [--stage-deadline MS] per-stage wall-clock deadline
                        [--max-trie-nodes N] densify node budget (degrade, not die)
                        [--class 8@/64] density class for the dense section
                        [--no-timings] omit wall clocks from the manifest so
                          the report is byte-identical across reruns/--jobs
                        [--inject SPEC] analysis fault drill, e.g.
                          panic:densify/2001  hang:stability:60000  slow:ingest:50
  serve                 crash-safe census daemon over day-log files:
                        background incremental ingest, immutable published
                        snapshots, HTTP/1.1 queries on /stable/<addr>,
                        /classify/<prefix>, /stats, /healthz, /readyz
                        --dir DIR (or positional; files named YYYY-MM-DD*)
                        [--bind 127.0.0.1:0] prints `listening on ADDR`
                        [--state DIR] crash-safe per-day checkpoints
                        [--routing FILE] `prefix asn` lines for /classify
                        [--max-connections 64] load-shed (503) past the cap
                        [--header-deadline-ms 3000] [--max-request-bytes 8192]
                        [--read-timeout-ms 2000] [--write-timeout-ms 2000]
                        [--poll-ms 200] source rescan cadence
                        [--drain-ms 5000] graceful-drain deadline
                        [--run-for-ms MS] exit after MS (default: stdin EOF)
                        [--n 3] [--class 8@/64] plus the census ingest flags
  targets               probe-target list from dense prefixes (§6.2.2)
                        [--class 2@/112] [--budget 10000] [--include-observed]
  ptr                   addresses -> ip6.arpa names [--reverse]
  profile               aguri traffic profile from `addr hits` lines
                        [--threshold 0.01]
  synth                 emit a synthetic day log (addr, hits, true kind)
                        [--day 2015-03-17] [--scale 0.02] [--seed N]
                        [--out DIR [--days 1]]: write day files instead
  help                  this text

EXIT CODES
  0  success, all results exact
  1  data or I/O error (bad input, strict-mode abort, unreadable files,
     a flag value the command rejects, such as --n 0)
  2  usage error: an unknown command, a flag the command does not take
     (synth --sclae), a missing required flag (--dir, stable's --earlier,
     --resume without --checkpoint, --days without --out), a flag value
     that does not parse (--n abc), or a --scale that cannot size a
     world (nan, 0)
  3  completed but degraded: some result is coarser or partial — a shard
     panicked twice, a stage hit its deadline, or a budget forced coarser
     aggregation; the run manifest in the output names every casualty.
     For `serve`: the daemon ran and drained, but had to abandon
     in-flight connections at the drain deadline (the summary says how
     many). A serve that cannot even start (bad bind, unusable state
     dir) exits 1; a missing --dir or a flag that does not parse
     exits 2.
";

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `--flag` the usage text shows under a command is one the
    /// command accepts.
    #[test]
    fn every_flag_in_the_usage_text_is_accepted() {
        let commands = USAGE
            .split("COMMANDS")
            .nth(1)
            .and_then(|s| s.split("EXIT CODES").next())
            .unwrap();
        let mut command = "";
        let mut checked = 0;
        for line in commands.lines() {
            if let Some(name) = line.strip_prefix("  ").and_then(|l| l.split(' ').next()) {
                if !name.is_empty() {
                    command = name;
                }
            }
            let Some(accepted) = accepted_flags(command) else {
                assert!(matches!(command, "" | "help"), "{line}");
                continue;
            };
            for flag in line.split("--").skip(1) {
                let name: String = flag
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                assert!(
                    accepted.iter().any(|(k, _)| *k == name),
                    "{command} --{name}"
                );
                checked += 1;
            }
        }
        assert!(checked > 50, "only {checked} flags found");
        assert_eq!(accepted_flags("bogus"), None);
    }
}
