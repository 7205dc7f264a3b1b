//! `v6census dense` — the §5.2.2 density classes over an input
//! population: one class, the Table 3 parameter sweep, or the general
//! least-specific densify.

#![expect(
    clippy::let_underscore_must_use,
    reason = "write! into a String cannot fail"
)]

use crate::input::addr_set;
use crate::{CliError, Flags};
use std::fmt::Write as _;
use v6census_core::spatial::DensityClass;
use v6census_trie::RadixTree;

/// Runs the subcommand.
pub fn dense(input: &str, flags: &Flags) -> Result<String, CliError> {
    let (set, _) = addr_set(input)?;
    let class: DensityClass = flags.get_parsed("class")?;

    let mut out = String::new();
    if flags.has("table3") {
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>12} {:>16} {:>16}",
            "class", "prefixes", "covered", "possible", "density"
        );
        for c in v6census_census::tables::table3_classes() {
            let r = c.report(&set);
            let _ = writeln!(
                out,
                "{:<14} {:>10} {:>12} {:>16} {:>16.10}",
                c.to_string(),
                r.dense_prefixes,
                r.covered_addresses,
                r.possible_addresses,
                r.density()
            );
        }
        return Ok(out);
    }

    if flags.has("general") {
        // Least-specific non-overlapping dense prefixes (trie densify).
        let mut tree = RadixTree::new();
        for a in set.iter() {
            tree.insert_addr(a, 1);
        }
        let dense = tree.densify(class.n, class.p);
        let _ = writeln!(out, "# least-specific {class} prefixes");
        for d in &dense {
            let _ = writeln!(out, "{}\t{}", d.prefix, d.count);
        }
        let _ = writeln!(out, "# {} prefixes", dense.len());
        return Ok(out);
    }

    let report = class.report(&set);
    let _ = writeln!(out, "# {class} prefixes (fixed length)");
    for d in class.dense_prefixes(&set) {
        let _ = writeln!(out, "{}\t{}", d.prefix, d.count);
    }
    let _ = writeln!(
        out,
        "# {} prefixes, {} covered addrs, {} possible targets, density {:.10}",
        report.dense_prefixes,
        report.covered_addresses,
        report.possible_addresses,
        report.density()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const INPUT: &str = "2001:db8::1\n2001:db8::4\n2400::1\n";

    #[test]
    fn paper_example_via_cli() {
        let out = dense(INPUT, &Flags::parse("dense", &[]).unwrap()).unwrap();
        assert!(out.contains("2001:db8::/112\t2"));
        assert!(out.contains("# 1 prefixes, 2 covered addrs, 65536 possible"));
    }

    #[test]
    fn general_mode_finds_least_specific() {
        let f = Flags::parse(
            "dense",
            &["--general".into(), "--class".into(), "2@/112".into()],
        )
        .unwrap();
        let out = dense(INPUT, &f).unwrap();
        assert!(out.contains("2001:db8::/112\t2"), "{out}");
    }

    #[test]
    fn table3_sweep() {
        let f = Flags::parse("dense", &["--table3".into()]).unwrap();
        let out = dense(INPUT, &f).unwrap();
        assert!(out.contains("2@/124-dense"));
        assert!(out.lines().count() >= 13);
    }

    #[test]
    fn bad_class_is_an_error() {
        let e = Flags::parse("dense", &["--class".into(), "nope".into()]).unwrap_err();
        assert!(e.is_usage() && e.to_string().contains("--class"), "{e}");
    }
}
