//! The unified per-address classification record: addressing scheme ×
//! temporal class × spatial class.
//!
//! The paper's classifiers are complementary views; applications (target
//! selection, data-retention policy, reputation) consume them together.
//! [`ClassifiedAddr`] is the join the census pipeline emits per address.

use std::fmt;
use v6census_addr::{Addr, AddressScheme, PrefixLen};

/// The temporal classification outcome for one address or prefix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TemporalClass {
    /// Witnessed nd-stable for the recorded n within the recorded window.
    NdStable {
        /// The n of nd-stable.
        n: u32,
        /// Window reach before the reference day.
        back: u32,
        /// Window reach after the reference day.
        fwd: u32,
    },
    /// Stable across epochs separated by roughly `months` months
    /// (6 ⇒ "6m-stable (-6m)", 12 ⇒ "1y-stable (-1y)").
    EpochStable {
        /// Months between the observations.
        months: u32,
    },
    /// Stability was not witnessed. The paper is explicit that this means
    /// *unknown*, not ephemeral: "we do not know that address to be
    /// stable."
    NotKnownStable,
}

impl fmt::Display for TemporalClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemporalClass::NdStable { n, back, fwd } => {
                write!(f, "{n}d-stable (-{back}d,+{fwd}d)")
            }
            TemporalClass::EpochStable { months } if months % 12 == 0 => {
                write!(f, "{}y-stable (-{}y)", months / 12, months / 12)
            }
            TemporalClass::EpochStable { months } => {
                write!(f, "{months}m-stable (-{months}m)")
            }
            TemporalClass::NotKnownStable => write!(f, "not stable"),
        }
    }
}

/// A fully classified address.
#[derive(Clone, Copy, Debug)]
pub struct ClassifiedAddr {
    /// The address.
    pub addr: Addr,
    /// Content-based scheme (§3).
    pub scheme: AddressScheme,
    /// Temporal class (§5.1).
    pub temporal: TemporalClass,
    /// The density class the address fell into, as `(n, p)` of
    /// `n@/p-dense`, when spatial classification placed it in a dense
    /// prefix (§5.2.2).
    pub dense_in: Option<(u64, PrefixLen)>,
}

impl fmt::Display for ClassifiedAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}",
            self.addr,
            self.scheme.label(),
            self.temporal
        )?;
        if let Some((n, p)) = self.dense_in {
            write!(f, " {n}@/{p}-dense")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temporal_labels_match_paper_notation() {
        assert_eq!(
            TemporalClass::NdStable {
                n: 3,
                back: 7,
                fwd: 7
            }
            .to_string(),
            "3d-stable (-7d,+7d)"
        );
        assert_eq!(
            TemporalClass::EpochStable { months: 6 }.to_string(),
            "6m-stable (-6m)"
        );
        assert_eq!(
            TemporalClass::EpochStable { months: 12 }.to_string(),
            "1y-stable (-1y)"
        );
        assert_eq!(TemporalClass::NotKnownStable.to_string(), "not stable");
    }

    #[test]
    fn classified_display() {
        let c = ClassifiedAddr {
            addr: "2001:db8::1".parse().unwrap(),
            scheme: v6census_addr::scheme::classify("2001:db8::1".parse().unwrap()),
            temporal: TemporalClass::NdStable {
                n: 3,
                back: 7,
                fwd: 7,
            },
            dense_in: Some((2, PrefixLen::lit::<112>())),
        };
        let s = c.to_string();
        assert!(s.contains("2001:db8::1"));
        assert!(s.contains("low-iid"));
        assert!(s.contains("3d-stable"));
        assert!(s.contains("2@/112-dense"));
    }
}
