//! `v6census stability` — the paper's full nd-stable analysis (§5.1)
//! over user-supplied daily observation files.
//!
//! Input: `--dir`, a directory of files named `YYYY-MM-DD*`, each holding
//! one address per line, one file per day. Output: per-day active counts and the
//! nd-stable / not-nd-stable partition for a reference day, for both
//! addresses and /64s — i.e. one column of the paper's Table 2a/2b for
//! your own data.

#![expect(
    clippy::let_underscore_must_use,
    reason = "write! into a String cannot fail"
)]

use crate::input::parse_addr_lines;
use crate::{err, CliError, Flags};
use std::fmt::Write as _;
use std::path::Path;
use v6census_addr::PrefixLen;
use v6census_census::stream::day_files;
use v6census_core::temporal::{DailyObservations, Day, StabilityParams};
use v6census_core::vfs::RealFs;

/// Runs the subcommand over the day files in `--dir`.
pub fn stability(flags: &Flags) -> Result<String, CliError> {
    analyse(read_day_files(&flags.get_parsed::<String>("dir")?)?, flags)
}

/// Reads each day file of `dir` (named `YYYY-MM-DD*`, as `census` lists
/// them), in day order. A second file for a day already read is a data
/// error naming both: `census` reports it as a duplicate day, and
/// merging it silently would report a day that was never observed.
fn read_day_files(dir: &str) -> Result<Vec<(Day, String)>, CliError> {
    let named = day_files(&RealFs, Path::new(dir))
        .map_err(|e| err(format!("cannot read --dir {dir}: {e}")))?;
    let twice = named.windows(2).find_map(|w| match w {
        [(day, first), (next, second)] if day == next => Some((day, first, second)),
        _ => None,
    });
    if let Some((day, first, second)) = twice {
        return Err(err(format!(
            "day {day} delivered twice: {} and {}",
            first.display(),
            second.display()
        )));
    }
    named
        .into_iter()
        .map(|(day, path)| match std::fs::read_to_string(&path) {
            Ok(text) => Ok((day, text)),
            Err(e) => Err(err(format!("cannot read {}: {e}", path.display()))),
        })
        .collect()
}

/// The analysis of read day files.
fn analyse(days: Vec<(Day, String)>, flags: &Flags) -> Result<String, CliError> {
    if days.is_empty() {
        return Err(err(
            "no day files found (expected names like 2015-03-17.txt with one address per line)",
        ));
    }
    let n: u32 = flags.get_parsed("n")?;
    let reach: u32 = flags.get_parsed("window")?;
    let slew: u32 = flags.get_parsed("slew")?;
    let params = StabilityParams::nd(n)
        .with_window(reach, reach)
        .with_slew(slew);

    let mut obs = DailyObservations::new();
    let mut total_bad = 0usize;
    for (day, text) in &days {
        let (addrs, bad) = parse_addr_lines(text);
        total_bad += bad;
        obs.record(*day, v6census_trie::AddrSet::from_iter(addrs));
    }
    let reference = match flags.get_opt("reference", str::parse)? {
        Some(day) => day,
        None => {
            // Default: the middle observed day.
            let all: Vec<Day> = obs.days().collect();
            all[all.len() / 2]
        }
    };

    let mut out = format!(
        "# {} over {} days ({} unparseable lines)\n\n",
        params.label(),
        obs.day_count(),
        total_bad
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>12} {:>10}",
        "day", "active", "∩reference", "/64s"
    );
    let ref_set = obs.on(reference);
    for d in obs.days().collect::<Vec<_>>() {
        let set = obs.on(d);
        let marker = if d == reference { "  <- reference" } else { "" };
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>12} {:>10}{marker}",
            d.to_string(),
            set.len(),
            ref_set.intersection_len(&set),
            set.map_prefix(PrefixLen::lit::<64>()).len(),
        );
    }

    for (what, store) in [
        ("addresses", obs.clone()),
        ("/64 prefixes", obs.prefix_view(PrefixLen::lit::<64>())),
    ] {
        let active = store.on(reference);
        if active.is_empty() {
            let _ = writeln!(out, "\n{what}: reference day has no observations");
            continue;
        }
        let stable = store.stable_on(reference, &params);
        let _ = writeln!(
            out,
            "\n{what} on {reference}:\n  {:<16} {:>10} ({:.2}%)\n  {:<16} {:>10} ({:.2}%)",
            params.label(),
            stable.len(),
            100.0 * stable.len() as f64 / active.len() as f64,
            format!("not {}d-stable", params.n),
            active.len() - stable.len(),
            100.0 * (active.len() - stable.len()) as f64 / active.len() as f64,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dayfile(date: &str, addrs: &[&str]) -> (Day, String) {
        (Day::parse_leading(date).unwrap(), addrs.join("\n"))
    }

    /// `args` parsed for `analyse`, which does not read `--dir`.
    fn flags(args: &[&str]) -> Flags {
        let args: Vec<String> = ["--dir=unread"]
            .iter()
            .chain(args)
            .map(|s| s.to_string())
            .collect();
        Flags::parse("stability", &args).unwrap()
    }

    #[test]
    fn date_parsing_from_names() {
        // `--dir` names are read as `census` and `serve` read them: a
        // leading `YYYY-MM-DD`, whatever follows.
        for name in [
            "2015-03-17.txt",
            "2015-03-17",
            "2015-03-17_b.txt",
            "2015-03-17.b.log",
        ] {
            assert_eq!(
                Day::parse_leading(name),
                Some(Day::from_ymd(2015, 3, 17)),
                "{name}"
            );
        }
        assert_eq!(Day::parse_leading("notes.txt"), None);
        assert_eq!(Day::parse_leading("2015-13-17.txt"), None);
        assert_eq!(Day::parse_leading("2015-02-29.txt"), None);
        assert_eq!(Day::parse_leading("2015-04-31.txt"), None);
        assert_eq!(Day::parse_leading("2015-3-17.txt"), None);
        assert_eq!(
            Day::parse_leading("2016-02-29.txt"),
            Some(Day::from_ymd(2016, 2, 29))
        );
    }

    #[test]
    fn partitions_reference_day() {
        let days = vec![
            dayfile("2015-03-16.txt", &["2001:db8::a", "2001:db8::b"]),
            dayfile("2015-03-17.txt", &["2001:db8::a", "2001:db8::c"]),
            dayfile("2015-03-20.txt", &["2001:db8::a"]),
        ];
        let out = analyse(days, &flags(&["--reference", "2015-03-17"])).unwrap();
        // ::a is 3d-stable (17th + 20th); ::c is not.
        assert!(out.contains("3d-stable (-7d,+7d)"));
        assert!(out.contains("1 (50.00%)"), "{out}");
        assert!(out.contains("<- reference"));
    }

    #[test]
    fn parameter_overrides() {
        let days = vec![
            dayfile("2015-03-17.txt", &["2001:db8::a"]),
            dayfile("2015-03-18.txt", &["2001:db8::a"]),
        ];
        let f = flags(&["--n", "1", "--window", "3", "--reference", "2015-03-17"]);
        let out = analyse(days, &f).unwrap();
        assert!(out.contains("1d-stable (-3d,+3d)"));
        assert!(out.contains("1 (100.00%)"), "{out}");
    }

    #[test]
    fn errors() {
        assert!(analyse(vec![], &flags(&[])).is_err());
        // A missing `--dir` and `--n 0` are refused as the flags parse,
        // usage errors.
        let e = Flags::parse("stability", &[]).unwrap_err();
        assert!(e.is_usage() && e.to_string().contains("--dir"), "{e}");
        let e = Flags::parse("stability", &["--dir=d".into(), "--n=0".into()]).unwrap_err();
        assert!(e.is_usage() && e.to_string().contains("--n"), "{e}");
        // An unreadable `--dir` is a data error.
        let e = stability(&flags(&[])).unwrap_err();
        assert!(
            !e.is_usage() && e.to_string().contains("--dir unread"),
            "{e}"
        );
    }
}
