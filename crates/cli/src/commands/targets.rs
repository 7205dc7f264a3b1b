//! `v6census targets` — the §6.2.2 application: turn observed addresses
//! into an active-probing target list by enumerating the possible
//! addresses of their dense prefixes ("These blocks are natural targets
//! if future, active scanning or probing is intended").

#![expect(
    clippy::let_underscore_must_use,
    reason = "write! into a String cannot fail"
)]

use crate::input::addr_set;
use crate::{err, CliError, Flags};
use std::fmt::Write as _;
use v6census_addr::Addr;
use v6census_core::spatial::DensityClass;

/// Runs the subcommand: emits up to `--budget` target addresses drawn
/// round-robin from the dense prefixes (so the list covers all blocks
/// even when truncated), skipping the already-observed addresses unless
/// `--include-observed`.
pub fn targets(input: &str, flags: &Flags) -> Result<String, CliError> {
    let (set, _) = addr_set(input)?;
    let class: DensityClass = flags
        .get("class")
        .unwrap_or("2@/112")
        .parse()
        .map_err(|e| err(format!("{e}")))?;
    let budget: usize = flags.get_parsed("budget", 10_000usize)?;
    let include_observed = flags.has("include-observed");

    let dense = class.dense_prefixes(&set);
    if dense.is_empty() {
        return Err(err(format!("no {class} prefixes in the input")));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        // The literal "probe targets" keeps the header grep-able.
        "# probe targets from {} {class} prefixes (budget {budget})",
        dense.len()
    );
    // Round-robin across blocks: offset 0 of every block, then offset 1…
    let mut emitted = 0usize;
    let max_span = dense
        .iter()
        .map(|d| d.possible().unwrap_or(0))
        .max()
        .unwrap_or(0);
    'outer: for offset in 0..max_span {
        for d in &dense {
            if offset >= d.possible().unwrap_or(0) {
                continue;
            }
            let candidate = Addr(d.prefix.addr().0 | offset);
            if !include_observed && set.contains(candidate) {
                continue;
            }
            let _ = writeln!(out, "{candidate}");
            emitted += 1;
            if emitted >= budget {
                break 'outer;
            }
        }
    }
    let _ = writeln!(out, "# {emitted} targets");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const INPUT: &str = "2001:db8::1\n2001:db8::4\n2400::1\n";

    #[test]
    fn emits_unobserved_neighbours_round_robin() {
        let f = Flags::parse("targets", &["--budget".into(), "6".into()]).unwrap();
        let out = targets(INPUT, &f).unwrap();
        let addrs: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(addrs.len(), 6);
        // ::0 is unobserved and comes first; ::1 and ::4 are skipped.
        assert_eq!(addrs[0], "2001:db8::");
        assert!(!addrs.contains(&"2001:db8::1"));
        assert!(!addrs.contains(&"2001:db8::4"));
        // All targets lie inside the dense /112.
        for a in addrs {
            assert!(a.starts_with("2001:db8::"), "{a}");
        }
    }

    #[test]
    fn include_observed_keeps_members() {
        let f = Flags::parse(
            "targets",
            &["--budget".into(), "5".into(), "--include-observed".into()],
        )
        .unwrap();
        let out = targets(INPUT, &f).unwrap();
        assert!(out.contains("2001:db8::1\n"), "{out}");
    }

    #[test]
    fn errors_without_dense_blocks() {
        let f = Flags::parse("targets", &["--class".into(), "64@/112".into()]).unwrap();
        assert!(targets(INPUT, &f).is_err());
        // `--budget 0` is refused as the flags parse, a usage error.
        let e = Flags::parse("targets", &["--budget".into(), "0".into()]).unwrap_err();
        assert!(e.is_usage() && e.to_string().contains("--budget"), "{e}");
    }
}
