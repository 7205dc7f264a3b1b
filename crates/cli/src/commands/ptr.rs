//! `v6census ptr` — conversion between addresses and `ip6.arpa` pointer
//! names (the §6.2.3 harvesting direction and its inverse).

use crate::input::parse_addr_lines;
use crate::{err, CliError, Flags};
use v6census_addr::Addr;

/// Runs the subcommand. Forward, it reads addresses as every address
/// command does; with `--reverse`, one `ip6.arpa` name per line.
pub fn ptr(input: &str, flags: &Flags) -> Result<String, CliError> {
    let (names, bad): (Vec<String>, usize) = if flags.has("reverse") {
        let lines = input.lines().map(str::trim);
        let (ok, bad): (Vec<_>, Vec<_>) = lines
            .filter(|t| !t.is_empty() && !t.starts_with('#'))
            .map(Addr::from_ip6_arpa)
            .partition(Result::is_ok);
        (
            ok.into_iter().flatten().map(|a| a.to_string()).collect(),
            bad.len(),
        )
    } else {
        let (addrs, bad) = parse_addr_lines(input);
        (addrs.into_iter().map(Addr::to_ip6_arpa).collect(), bad)
    };
    if names.is_empty() {
        return Err(err(format!(
            "nothing converted ({bad} unparseable lines); use --reverse for ip6.arpa input"
        )));
    }
    Ok(names.iter().map(|n| format!("{n}\n")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_and_back() {
        let fwd = ptr("2001:db8::1\n", &Flags::parse("ptr", &[]).unwrap()).unwrap();
        assert!(fwd.trim().ends_with("ip6.arpa"));
        let back = ptr(&fwd, &Flags::parse("ptr", &["--reverse".into()]).unwrap()).unwrap();
        assert_eq!(back.trim(), "2001:db8::1");
    }

    #[test]
    fn empty_is_error() {
        assert!(ptr("junk\n", &Flags::parse("ptr", &[]).unwrap()).is_err());
    }
}
