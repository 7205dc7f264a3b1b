//! `v6census mra` — the §5.2.1 MRA plot for an arbitrary population.

#![expect(
    clippy::let_underscore_must_use,
    reason = "write! into a String cannot fail"
)]

use crate::input::addr_set;
use crate::{CliError, Flags};
use std::fmt::Write as _;
use v6census_census::figures::MraFigure;
use v6census_census::plot::{ascii_mra, tsv_mra};
use v6census_core::spatial::MraCurve;

/// Runs the subcommand.
pub fn mra(input: &str, flags: &Flags) -> Result<String, CliError> {
    let (set, _) = addr_set(input)?;
    let title: String = flags.get_parsed("title")?;
    let fig = MraFigure::of(&title, &set);
    if flags.has("tsv") {
        return Ok(tsv_mra(&fig));
    }
    let mut out = ascii_mra(&fig);
    let curve = MraCurve::of(&set);
    let sig = curve.privacy_signature();
    let _ = writeln!(
        out,
        "privacy signature : {} (head {:.2}, u-bit {:.2}, flatline {:?})",
        if sig.matches() { "present" } else { "absent" },
        sig.iid_head_ratio,
        sig.u_bit_ratio,
        sig.flatline_at
    );
    let _ = writeln!(out, "112-128 bit mass  : {:.3}", curve.tail_prominence());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population() -> String {
        // Dense low-IID block: strong tail prominence.
        (1..=64u32)
            .map(|i| format!("2001:db8:1:2::{i:x}\n"))
            .collect()
    }

    #[test]
    fn ascii_output_with_signature_lines() {
        let out = mra(&population(), &Flags::parse("mra", &[]).unwrap()).unwrap();
        assert!(out.contains("privacy signature : absent"));
        assert!(out.contains("112-128 bit mass"));
        assert!(out.contains("single bits"));
    }

    #[test]
    fn tsv_output() {
        let f = Flags::parse("mra", &["--tsv".into()]).unwrap();
        let out = mra(&population(), &f).unwrap();
        assert!(out.starts_with("# prefix_len"));
        assert!(out.lines().count() > 100);
    }
}
