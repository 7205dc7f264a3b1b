//! `v6census classify` — per-address content classification (§3) plus a
//! population histogram, optionally with the Malone content-only verdict.

#![expect(
    clippy::let_underscore_must_use,
    reason = "write! into a String cannot fail"
)]

use crate::input::parse_addr_lines;
use crate::{err, CliError, Flags};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use v6census_addr::malone::classify_content_only;
use v6census_addr::scheme::classify as classify_scheme;

/// Runs the subcommand.
pub fn classify(input: &str, flags: &Flags) -> Result<String, CliError> {
    let (addrs, bad) = parse_addr_lines(input);
    if addrs.is_empty() {
        return Err(err("no parseable IPv6 addresses on stdin"));
    }
    let tsv = flags.has("tsv");
    let with_malone = flags.has("malone");

    let mut out = String::new();
    let mut histogram: BTreeMap<&'static str, usize> = BTreeMap::new();
    if tsv {
        let _ = writeln!(
            out,
            "# addr\tscheme{}",
            if with_malone { "\tmalone" } else { "" }
        );
    }
    for &a in &addrs {
        let scheme = classify_scheme(a);
        *histogram.entry(scheme.label()).or_default() += 1;
        let malone_col = if with_malone {
            format!(
                "{}{:?}",
                if tsv { "\t" } else { "  " },
                classify_content_only(a)
            )
        } else {
            String::new()
        };
        if tsv {
            let _ = writeln!(out, "{a}\t{}{malone_col}", scheme.label());
        } else {
            let _ = writeln!(out, "{a:<46} {:<13}{malone_col}", scheme.label());
        }
    }
    if !tsv {
        let _ = writeln!(
            out,
            "\nsummary ({} addresses, {} unparseable lines):",
            addrs.len(),
            bad
        );
        for (label, count) in &histogram {
            let _ = writeln!(
                out,
                "  {label:<14} {count:>8}  ({:.1}%)",
                100.0 * *count as f64 / addrs.len() as f64
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_figure1_samples() {
        let input = "2001:db8:10:1::103\n2001:db8:0:1cdf:21e:c2ff:fec0:11db\n\
                     2001:db8:4137:9e76:3031:f3fd:bbdd:2c2a\n";
        let out = classify(input, &Flags::parse("classify", &[]).unwrap()).unwrap();
        assert!(out.contains("low-iid"));
        assert!(out.contains("eui64"));
        assert!(out.contains("pseudorandom"));
        assert!(out.contains("summary (3 addresses"));
    }

    #[test]
    fn tsv_mode_and_malone() {
        let f = Flags::parse("classify", &["--tsv".into(), "--malone".into()]).unwrap();
        let out = classify("2001:db8::1\n", &f).unwrap();
        assert!(out.starts_with("# addr\tscheme\tmalone"));
        assert!(out.contains("2001:db8::1\tlow-iid\tNotPrivacy"));
    }

    #[test]
    fn rejects_empty() {
        assert!(classify("", &Flags::parse("classify", &[]).unwrap()).is_err());
    }
}
