//! `v6census ptr` — conversion between addresses and `ip6.arpa` pointer
//! names (the §6.2.3 harvesting direction and its inverse).

#![expect(
    clippy::let_underscore_must_use,
    reason = "write! into a String cannot fail"
)]

use crate::{err, CliError, Flags};
use std::fmt::Write as _;
use v6census_addr::Addr;

/// Runs the subcommand.
pub fn ptr(input: &str, flags: &Flags) -> Result<String, CliError> {
    let reverse = flags.has("reverse");
    let mut out = String::new();
    let mut converted = 0usize;
    let mut bad = 0usize;
    for line in input.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if reverse {
            match Addr::from_ip6_arpa(t) {
                Ok(a) => {
                    let _ = writeln!(out, "{a}");
                    converted += 1;
                }
                Err(_) => bad += 1,
            }
        } else {
            match t.parse::<Addr>() {
                Ok(a) => {
                    let _ = writeln!(out, "{}", a.to_ip6_arpa());
                    converted += 1;
                }
                Err(_) => bad += 1,
            }
        }
    }
    if converted == 0 {
        return Err(err(format!(
            "nothing converted ({bad} unparseable lines); use --reverse for ip6.arpa input"
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_back() {
        let fwd = ptr("2001:db8::1\n", &Flags::default()).unwrap();
        assert!(fwd.trim().ends_with("ip6.arpa"));
        let back = ptr(&fwd, &Flags::parse("ptr", &["--reverse".into()]).unwrap()).unwrap();
        assert_eq!(back.trim(), "2001:db8::1");
    }

    #[test]
    fn empty_is_error() {
        assert!(ptr("junk\n", &Flags::default()).is_err());
    }
}
