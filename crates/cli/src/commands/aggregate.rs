//! `v6census aggregate` — Kohler-style active aggregate counts (n_p for
//! all prefix lengths) or per-aggregate populations at one length.

use crate::input::addr_set;
use crate::{CliError, Flags};
use std::fmt::Write as _;
use v6census_addr::PrefixLen;
use v6census_core::spatial::Ccdf;
use v6census_trie::{populations, AggregateCounts};

/// Runs the subcommand.
pub fn aggregate(input: &str, flags: &Flags) -> Result<String, CliError> {
    let (set, _) = addr_set(input)?;
    let mut out = String::new();

    if flags.has("populations") {
        let p: PrefixLen = flags.get_parsed("length", PrefixLen::lit::<64>())?;
        let pops = populations(&set, p);
        let ccdf = Ccdf::new(pops.clone());
        let _ = writeln!(out, "# populations of active /{p} aggregates");
        let _ = writeln!(out, "aggregates : {}", pops.len());
        let _ = writeln!(out, "max        : {}", ccdf.max());
        let _ = writeln!(out, "median     : {}", ccdf.quantile(0.5));
        let _ = writeln!(out, "p99        : {}", ccdf.quantile(0.99));
        let _ = writeln!(out, "\n# ccdf: population  proportion_ge");
        for (x, prop) in ccdf.steps() {
            let _ = writeln!(out, "{x}\t{prop:.9}");
        }
        return Ok(out);
    }

    let agg = AggregateCounts::of(&set);
    let _ = writeln!(out, "# p\tn_p\tgamma1\tgamma16");
    for p in PrefixLen::all() {
        let g1 = if p < PrefixLen::MAX {
            format!("{:.4}", agg.ratio(p, 1))
        } else {
            String::new()
        };
        let g16 = if p.get() % 16 == 0 && p < PrefixLen::MAX {
            format!("{:.4}", agg.ratio(p, 16))
        } else {
            String::new()
        };
        let _ = writeln!(out, "{p}\t{}\t{g1}\t{g16}", agg.n(p));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const INPUT: &str = "2001:db8::1\n2001:db8::2\n2001:db8:1::1\n";

    #[test]
    fn counts_table() {
        let out = aggregate(INPUT, &Flags::default()).unwrap();
        assert!(out.contains("# p\tn_p"));
        // n_0 = 1 and n_128 = 3 rows present.
        assert!(out.lines().any(|l| l.starts_with("0\t1\t")));
        assert!(out.lines().any(|l| l.starts_with("128\t3")));
    }

    #[test]
    fn populations_mode() {
        let f = Flags::parse(&["--populations".into(), "--length".into(), "64".into()]);
        let out = aggregate(INPUT, &f).unwrap();
        assert!(out.contains("aggregates : 2"));
        assert!(out.contains("max        : 2"));
    }

    #[test]
    fn populations_length_past_128_is_a_bad_value() {
        let f = Flags::parse(&["--populations".into(), "--length".into(), "200".into()]);
        let e = aggregate(INPUT, &f).unwrap_err();
        assert_eq!(e.to_string(), "bad value for --length: \"200\"");
    }
}
