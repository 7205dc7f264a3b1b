//! `v6census stable` — the §7.2 cross-epoch stability spectrum: current
//! epoch on stdin, earlier epoch from `--earlier FILE`.

#![expect(
    clippy::let_underscore_must_use,
    reason = "write! into a String cannot fail"
)]

use crate::input::addr_set;
use crate::{err, CliError, Flags};
use std::fmt::Write as _;
use v6census_addr::PrefixLen;
use v6census_core::temporal::{longest_stable_prefixes, stable_fraction_spectrum};

/// Runs the subcommand. `earlier_text` is the earlier epoch's address
/// list (main.rs reads the `--earlier` file; tests pass it directly).
pub fn stable(input: &str, earlier_text: &str, flags: &Flags) -> Result<String, CliError> {
    let (current, _) = addr_set(input)?;
    let (earlier, _) = addr_set(earlier_text).map_err(|e| err(format!("earlier epoch: {e}")))?;
    let step: u8 = flags.get_parsed("step", 8u8)?;
    let threshold: f64 = flags.get_parsed("threshold", 0.5f64)?;

    let lengths: Vec<PrefixLen> = PrefixLen::all()
        .take(65)
        .step_by(step as usize)
        .skip(1)
        .collect();
    let spec = stable_fraction_spectrum(&current, &earlier, lengths);
    let mut out = String::from("# length\tactive_aggregates\tstable_fraction\n");
    for (p, n, f) in &spec.points {
        let _ = writeln!(out, "/{p}\t{n}\t{f:.4}");
    }
    match spec.boundary(threshold) {
        Some(b) => {
            let _ = writeln!(out, "\nstable boundary (>= {threshold:.2}): /{b}");
            if let Some((knee, drop)) = spec.sharpest_drop() {
                let _ = writeln!(out, "sharpest drop: at /{knee} (-{drop:.2})");
            }
            if flags.has("prefixes") {
                let stable = longest_stable_prefixes(&current, &earlier, b);
                let _ = writeln!(out, "\n# {} longest stable prefixes (/{b})", stable.len());
                for p in stable.iter() {
                    let _ = writeln!(out, "{p}/{b}");
                }
            }
        }
        None => {
            let _ = writeln!(
                out,
                "\nno length meets the {threshold:.2} stability threshold"
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(tag: u64) -> String {
        // /48 stable, bits beyond rotated per epoch.
        (0..40u64)
            .map(|h| {
                let nid = (h * 131 + tag * 7919) % 0xffff;
                format!("2001:db8:{:x}:{nid:x}::{}\n", h % 8, h + 1)
            })
            .collect()
    }

    #[test]
    fn finds_the_boundary() {
        let out = stable(&epoch(2), &epoch(1), &Flags::default()).unwrap();
        assert!(out.contains("stable boundary"), "{out}");
        assert!(out.contains("/48"), "{out}");
    }

    #[test]
    fn prefix_listing() {
        let f = Flags::parse("stable", &["--prefixes".into()]).unwrap();
        let out = stable(&epoch(2), &epoch(1), &f).unwrap();
        assert!(out.contains("longest stable prefixes"), "{out}");
    }

    #[test]
    fn identical_epochs_are_stable_to_64() {
        let e = epoch(1);
        let out = stable(&e, &e, &Flags::default()).unwrap();
        assert!(out.contains("stable boundary (>= 0.50): /64"), "{out}");
    }

    #[test]
    fn bad_flags() {
        // `--step 0` is refused as the flags parse, a usage error.
        let e = Flags::parse("stable", &["--step".into(), "0".into()]).unwrap_err();
        assert!(e.is_usage() && e.to_string().contains("--step"), "{e}");
        assert!(stable("", &epoch(1), &Flags::default()).is_err());
        assert!(stable(&epoch(1), "", &Flags::default()).is_err());
    }
}
