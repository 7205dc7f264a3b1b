//! `v6census profile` — an aguri-style traffic profile (Cho et al., the
//! paper's §2/§5.2 baseline): aggregate `addr hits` input until every
//! reported prefix carries at least a threshold fraction of total hits.

#![expect(
    clippy::let_underscore_must_use,
    reason = "write! into a String cannot fail"
)]

use crate::input::parse_weighted_lines;
use crate::{err, CliError, Flags};
use std::fmt::Write as _;
use v6census_trie::RadixTree;

/// Runs the subcommand.
pub fn profile(input: &str, flags: &Flags) -> Result<String, CliError> {
    let (entries, diag) = parse_weighted_lines(input);
    if entries.is_empty() {
        return Err(err("no parseable `address hits` lines on stdin"));
    }
    let threshold: f64 = flags.get_parsed("threshold")?;

    let mut tree = RadixTree::new();
    for &(addr, hits) in &entries {
        tree.insert_addr(addr, hits);
    }
    let total = tree.total();
    let aggregates = tree.aguri_aggregate(threshold);

    let mut out = format!(
        "# aguri profile: {} addrs, {} hits, threshold {:.2}% ({} bad addrs, {} bad weights)\n",
        entries.len(),
        total,
        threshold * 100.0,
        diag.bad_addrs,
        diag.bad_weights
    );
    let _ = writeln!(out, "{:<46} {:>12} {:>8}", "# prefix", "hits", "share");
    for (prefix, hits) in &aggregates {
        let _ = writeln!(
            out,
            "{:<46} {:>12} {:>7.2}%",
            prefix.to_string(),
            hits,
            100.0 * *hits as f64 / total as f64
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_hitter_survives() {
        let mut input = String::new();
        for i in 0..50 {
            input.push_str(&format!("2001:db8::{i:x} 10\n"));
        }
        input.push_str("2400::1 5\n");
        let f = Flags::parse("profile", &["--threshold".into(), "0.05".into()]).unwrap();
        let out = profile(&input, &f).unwrap();
        // The heavy /121-ish block is reported inside 2001:db8::/64.
        assert!(out.contains("2001:db8::/"), "{out}");
        // Counts conserve.
        assert!(out.contains("505 hits"), "{out}");
    }

    #[test]
    fn threshold_validation() {
        let e = Flags::parse("profile", &["--threshold".into(), "2".into()]).unwrap_err();
        assert!(e.is_usage() && e.to_string().contains("--threshold"), "{e}");
        assert!(profile("", &Flags::parse("profile", &[]).unwrap()).is_err());
    }
}
