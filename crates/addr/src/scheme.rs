//! Content-based classification of an address into the addressing schemes
//! of §3 of the paper.
//!
//! Content-only classification is *exact* for the transition mechanisms
//! (their formats are reserved or strongly marked) and *heuristic* for
//! everything else — which is precisely the paper's motivation for adding
//! temporal analysis. The classifier here produces the categories used to
//! build Table 1 and to cull transition mechanisms before temporal/spatial
//! classification.

use crate::{embedded_ipv4, iid_entropy_bits, special, Addr, Iid, Mac};

/// The addressing scheme an address appears (by content alone) to use.
///
/// Variants are ordered by the precedence the classifier applies: the
/// transition mechanisms are checked first because their formats are
/// authoritative; the remaining variants are content heuristics over the
/// IID of "Other" (native-transport) addresses.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AddressScheme {
    /// Teredo (RFC 4380): inside `2001::/32`.
    Teredo,
    /// ISATAP (RFC 5214): IID is `[02]00:5efe` + embedded IPv4.
    Isatap,
    /// 6to4 (RFC 3056): inside `2002::/16`.
    SixToFour,
    /// SLAAC with modified EUI-64 IID (RFC 4862): `ff:fe` marker present.
    /// Carries the embedded MAC.
    Eui64(Mac),
    /// An IPv4 address embedded ad hoc in the low 32 bits (dual-stack
    /// router/host convenience, §3).
    EmbeddedV4([u8; 4]),
    /// "Low" IID: only the bottom 16 bits used — manual assignment or a
    /// small DHCPv6 pool (Figure 1 sample (i)).
    LowIid,
    /// Structured value in the low 64 bits: small IID (≤32 bits) with
    /// visible subnetting structure (Figure 1 sample (ii)).
    Structured,
    /// Apparently pseudorandom IID — consistent with RFC 4941 privacy
    /// extensions or RFC 7217 stable-privacy (Figure 1 sample (iv)).
    /// Content alone cannot distinguish these; the temporal classifier
    /// can.
    Pseudorandom,
    /// None of the above: a mid-entropy IID that is neither clearly
    /// structured nor clearly random.
    Unclassified,
}

impl AddressScheme {
    /// True for the three early transition mechanisms the census culls
    /// from the "Other" population (§4.1).
    pub const fn is_transition_mechanism(self) -> bool {
        matches!(
            self,
            AddressScheme::Teredo | AddressScheme::Isatap | AddressScheme::SixToFour
        )
    }

    /// True for EUI-64 (carries a persistent, globally meaningful IID).
    pub const fn is_eui64(self) -> bool {
        matches!(self, AddressScheme::Eui64(_))
    }

    /// A short stable label for reports.
    pub const fn label(self) -> &'static str {
        match self {
            AddressScheme::Teredo => "teredo",
            AddressScheme::Isatap => "isatap",
            AddressScheme::SixToFour => "6to4",
            AddressScheme::Eui64(_) => "eui64",
            AddressScheme::EmbeddedV4(_) => "embedded-v4",
            AddressScheme::LowIid => "low-iid",
            AddressScheme::Structured => "structured",
            AddressScheme::Pseudorandom => "pseudorandom",
            AddressScheme::Unclassified => "unclassified",
        }
    }
}

/// Entropy (bits) at or above which an IID is deemed pseudorandom. Chosen
/// so RFC 4941 IIDs (uniform 64-bit less the fixed u-bit) essentially
/// always clear it while hand-assigned and subnet-structured IIDs do not;
/// see the calibration test below and `tests/scheme_calibration.rs`.
pub const PSEUDORANDOM_ENTROPY_BITS: f64 = 34.0;

/// Classifies an address by content alone (§3 categories).
///
/// Precedence: the [`cull`] tests first (Teredo and 6to4 by reserved
/// prefix, ISATAP then EUI-64 by IID marker), then embedded IPv4, then
/// IID size heuristics, then the entropy heuristic.
///
/// Note that 6to4 wins over IID structure: a 6to4 address with an EUI-64
/// IID is still 6to4 for culling purposes (Table 1 counts "EUI-64 addr
/// (!6to4)" separately for exactly this reason — use
/// [`classify_beneath_6to4`] to see through the 6to4 prefix).
pub fn classify(a: Addr) -> AddressScheme {
    cull(a).unwrap_or_else(|| classify_heuristic(a))
}

/// Classifies the IID content of an address, ignoring whether the network
/// prefix is 6to4 — used for the Table 1 "EUI-64 addr (!6to4)" split.
pub fn classify_beneath_6to4(a: Addr) -> AddressScheme {
    cull_iid(Iid::of(a)).unwrap_or_else(|| classify_heuristic(a))
}

/// The §4.1 cull: the prefix of [`classify`] that answers only the
/// questions the census asks of every logged address — Teredo, then
/// 6to4, then the IID's ISATAP and EUI-64 markers, in that order.
/// `Some` holds the scheme those tests decide (`Teredo`, `SixToFour`,
/// `Isatap` or `Eui64` with its MAC); `None` is "Other" with no EUI-64
/// marker, the addresses [`classify`] goes on to grade by heuristic.
#[inline]
pub fn cull(a: Addr) -> Option<AddressScheme> {
    if special::is_teredo(a) {
        return Some(AddressScheme::Teredo);
    }
    if special::is_6to4(a) {
        return Some(AddressScheme::SixToFour);
    }
    cull_iid(Iid::of(a))
}

/// The IID half of [`cull`]: ISATAP, then EUI-64.
#[inline]
fn cull_iid(iid: Iid) -> Option<AddressScheme> {
    if iid.is_isatap() {
        return Some(AddressScheme::Isatap);
    }
    iid.eui64_mac().map(AddressScheme::Eui64)
}

/// The heuristic rest of [`classify`], for an address [`cull`] left in
/// "Other": embedded IPv4, IID size, then entropy.
fn classify_heuristic(a: Addr) -> AddressScheme {
    let iid = Iid::of(a);
    if let Some(v4) = embedded_ipv4(a) {
        return AddressScheme::EmbeddedV4(v4);
    }
    if iid.is_low() {
        return AddressScheme::LowIid;
    }
    if iid.is_small() {
        return AddressScheme::Structured;
    }
    let e = iid_entropy_bits(iid);
    if e >= PSEUDORANDOM_ENTROPY_BITS {
        AddressScheme::Pseudorandom
    } else if e < 20.0 {
        AddressScheme::Structured
    } else {
        AddressScheme::Unclassified
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn figure1_samples() {
        // The four sample addresses of the paper's Figure 1.
        assert_eq!(classify(a("2001:db8:10:1::103")), AddressScheme::LowIid);
        assert_eq!(
            classify(a("2001:db8:167:1109::10:901")),
            AddressScheme::Structured
        );
        assert!(matches!(
            classify(a("2001:db8:0:1cdf:21e:c2ff:fec0:11db")),
            AddressScheme::Eui64(_)
        ));
        assert_eq!(
            classify(a("2001:db8:4137:9e76:3031:f3fd:bbdd:2c2a")),
            AddressScheme::Pseudorandom
        );
    }

    #[test]
    fn transition_mechanisms_take_precedence() {
        // A 6to4 address with an EUI-64 IID is 6to4 at top level...
        let sixtofour_eui = a("2002:c000:0201:1:21e:c2ff:fec0:11db");
        assert_eq!(classify(sixtofour_eui), AddressScheme::SixToFour);
        // ...but classify_beneath_6to4 sees the EUI-64.
        assert!(matches!(
            classify_beneath_6to4(sixtofour_eui),
            AddressScheme::Eui64(_)
        ));
        assert_eq!(classify(a("2001::1")), AddressScheme::Teredo);
        assert_eq!(
            classify(a("2400::200:5efe:192.0.2.1")),
            AddressScheme::Isatap
        );
    }

    /// `cull` is `classify`'s bucket: the scheme itself for the four
    /// §4.1 answers, `None` for every other scheme.
    fn assert_cull_is_classify_bucket(a: Addr) {
        match cull(a) {
            Some(s) => assert_eq!(classify(a), s, "{a}"),
            None => {
                let s = classify(a);
                assert!(!s.is_transition_mechanism() && !s.is_eui64(), "{a}: {s:?}");
            }
        }
    }

    #[test]
    fn cull_agrees_with_classify_on_hand_cases() {
        let cases = [
            // Teredo and 6to4 win over IIDs that look ISATAP or EUI-64.
            (
                "2001:0:4136:e378:0:5efe:c000:201",
                Some(AddressScheme::Teredo),
            ),
            (
                "2001:0:4136:e378:21e:c2ff:fec0:11db",
                Some(AddressScheme::Teredo),
            ),
            (
                "2002:c000:201::200:5efe:c000:201",
                Some(AddressScheme::SixToFour),
            ),
            (
                "2002:c000:201:1:21e:c2ff:fec0:11db",
                Some(AddressScheme::SixToFour),
            ),
            // ISATAP with the u/l bit set, and without it.
            ("2400::200:5efe:c000:201", Some(AddressScheme::Isatap)),
            ("2400::5efe:c000:201", Some(AddressScheme::Isatap)),
            // `ff:fe` at IID bytes 1–2 and 5–6, not 3–4: no EUI-64.
            ("2400::aff:fe0b:c:d", None),
            ("2400::a:b:ff:fe00", None),
            // Native heuristics are all "Other".
            ("2001:db8:10:1::103", None),
            ("2600:db8:10:1::c633:6407", None),
            ("2001:db8:4137:9e76:3031:f3fd:bbdd:2c2a", None),
        ];
        for (s, want) in cases {
            assert_eq!(cull(a(s)), want, "{s}");
            assert_cull_is_classify_bucket(a(s));
        }
        assert!(matches!(
            cull(a("2400::21e:c2ff:fec0:11db")),
            Some(AddressScheme::Eui64(_))
        ));
        assert_cull_is_classify_bucket(a("2400::21e:c2ff:fec0:11db"));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AddressScheme::SixToFour.label(), "6to4");
        assert_eq!(AddressScheme::Pseudorandom.label(), "pseudorandom");
    }

    #[test]
    fn transition_predicate() {
        assert!(AddressScheme::Teredo.is_transition_mechanism());
        assert!(AddressScheme::Isatap.is_transition_mechanism());
        assert!(AddressScheme::SixToFour.is_transition_mechanism());
        assert!(!AddressScheme::Pseudorandom.is_transition_mechanism());
        assert!(!AddressScheme::Eui64(Mac::PAPER_DUPLICATE).is_transition_mechanism());
    }

    #[test]
    fn embedded_v4_scheme() {
        assert_eq!(
            classify(a("2600:db8:10:1::c633:6407")), // 198.51.100.7
            AddressScheme::EmbeddedV4([198, 51, 100, 7])
        );
    }
}
