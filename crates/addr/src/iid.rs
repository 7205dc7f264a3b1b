//! Interface-identifier (IID) content analysis.
//!
//! Under /64 addressing the low 64 bits of an address are the interface
//! identifier. The paper's content-based classification (§3) and the
//! Malone baseline (§2) both reason about IID *structure*: EUI-64 markers,
//! embedded IPv4 addresses, small ("low") values typical of manual
//! assignment, and apparent randomness typical of RFC 4941 privacy
//! addresses.

use crate::cast::{low32, low8};
use crate::{Addr, Mac};

/// A 64-bit interface identifier extracted from an address, with
/// content-analysis helpers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Iid(pub u64);

impl Iid {
    /// Extracts the IID (low 64 bits) of an address.
    pub const fn of(a: Addr) -> Iid {
        Iid(a.iid_bits())
    }

    /// The MAC embedded by modified EUI-64, if the `ff:fe` marker is
    /// present.
    pub const fn eui64_mac(self) -> Option<Mac> {
        Mac::from_modified_eui64(self.0)
    }

    /// True when the IID carries the modified-EUI-64 `ff:fe` marker.
    pub const fn is_eui64(self) -> bool {
        self.eui64_mac().is_some()
    }

    /// The RFC 4291 "u" (universal/local) bit of the IID — bit 70 of the
    /// address, bit 6 of the IID's first octet. RFC 4941 privacy IIDs set
    /// it to 0; universal EUI-64 IIDs set it to 1. The MRA privacy
    /// signature in the paper (§5.2.1, Figure 2a) is the per-bit
    /// aggregation ratio dipping to ~1 exactly at this bit.
    pub const fn u_bit(self) -> u8 {
        low8((self.0 >> 57) as u128 & 1)
    }

    /// True when the IID is "low": at most the bottom 16 bits are used.
    /// Typical of manual assignment (`::1`, `::103`) and DHCPv6 pools.
    pub const fn is_low(self) -> bool {
        self.0 <= 0xffff
    }

    /// True when the IID uses only the bottom 32 bits (covers "low" plus
    /// structured schemes like `::10:901` from the paper's Figure 1).
    pub const fn is_small(self) -> bool {
        self.0 <= 0xffff_ffff
    }

    /// The IPv4 address embedded in the low 32 bits, presented as octets.
    /// Meaningful for ISATAP (`::[02]00:5efe:a.b.c.d`) and the ad hoc
    /// dual-stack conventions of §3.
    pub const fn low32_as_v4(self) -> [u8; 4] {
        low32(self.0 as u128).to_be_bytes()
    }

    /// True when the IID matches the ISATAP format (RFC 5214 §6.1):
    /// `[02]00:5efe` followed by an embedded IPv4 address. Both the
    /// universal (`0200`) and local (`0000`) forms are accepted.
    pub const fn is_isatap(self) -> bool {
        let top = self.0 >> 32;
        top == 0x0000_5efe || top == 0x0200_5efe
    }

    /// Number of leading zero bits in the IID.
    pub const fn leading_zeros(self) -> u32 {
        self.0.leading_zeros()
    }

    /// Number of one-bits in the IID.
    pub const fn ones(self) -> u32 {
        self.0.count_ones()
    }

    /// All 16 nybbles of the IID at once, most significant first — the
    /// batched form used by the entropy estimator: one pass over the
    /// big-endian bytes instead of 16 independent 64-bit shifts.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the counter stops at the byte count, 8, so 2 * i + 1 < 16"
    )]
    pub const fn nybbles(self) -> [u8; 16] {
        let bytes = self.0.to_be_bytes();
        let mut out = [0u8; 16];
        let mut i = 0;
        while i < 8 {
            out[2 * i] = bytes[i] >> 4;
            out[2 * i + 1] = bytes[i] & 0xf;
            i += 1;
        }
        out
    }
}

/// Extracts the IPv4 address that an *ad hoc* scheme may have embedded in
/// the low 32 bits of `a`, if the surrounding IID bytes are zero and the
/// embedded value looks like a plausible global-unicast IPv4 address.
///
/// This intentionally conservative test mirrors the paper's observation
/// (§3) that some router and dual-stack host interfaces embed an IPv4
/// address by convenience: it requires `xxxx:xxxx::a.b.c.d` shape with the
/// IID's top 32 bits zero, and rejects `0.x`, `127.x`, `10.x`, `192.168.x`,
/// `172.16-31.x`, multicast/reserved (≥224) and `169.254.x` values.
pub fn embedded_ipv4(a: Addr) -> Option<[u8; 4]> {
    let iid = Iid::of(a);
    if iid.0 == 0 || iid.0 > 0xffff_ffff {
        return None;
    }
    let v4 = iid.low32_as_v4();
    let [o0, o1, _, _] = v4;
    let plausible = match o0 {
        0 | 10 | 127 => false,
        169 if o1 == 254 => false,
        172 if (16..=31).contains(&o1) => false,
        192 if o1 == 168 => false,
        x if x >= 224 => false,
        _ => true,
    };
    // Require all four octets in dotted form to be "interesting": a value
    // like ::101 would decode as 0.0.1.1 and is rejected above via octet 0.
    if plausible {
        Some(v4)
    } else {
        None
    }
}

/// True when the IID of `a` is "low" per [`Iid::is_low`].
pub fn is_low_iid(a: Addr) -> bool {
    Iid::of(a).is_low()
}

/// A crude entropy estimate, in bits, of an IID — the metric behind
/// Malone-style content-only privacy detection (§2 of the paper; Malone,
/// PAM 2008).
///
/// Detecting randomness in a single 63-bit string is fundamentally hard
/// (the paper's motivation for temporal classification), so this is a
/// heuristic: it scores the IID's 16 nybbles by a first-order empirical
/// model — distinct-nybble spread and adjacent-nybble changes — and
/// returns a value in `[0, 64]`. Pseudorandom IIDs land high (≳ 40);
/// manual/structured IIDs land low.
#[expect(
    clippy::arithmetic_side_effects,
    reason = "16 nybble counters, each at most 16"
)]
pub fn iid_entropy_bits(iid: Iid) -> f64 {
    let mut counts = [0u32; 16];
    let mut transitions = 0u32;
    let mut prev: Option<u8> = None;
    for &n in &iid.nybbles() {
        counts[usize::from(n) & 0xf] += 1;
        if let Some(p) = prev {
            if p != n {
                // 15 transitions at most; saturation spells the policy.
                transitions = transitions.saturating_add(1);
            }
        }
        prev = Some(n);
    }
    // Shannon entropy of the nybble histogram, scaled to the 16 nybbles.
    let mut h = 0.0f64;
    for &c in &counts {
        if c > 0 {
            let p = c as f64 / 16.0;
            h -= p * p.log2();
        }
    }
    let histogram_bits = h * 16.0; // up to 64 when all nybbles distinct-ish
                                   // Penalize runs: structured IIDs have few adjacent changes.
    let transition_factor = transitions as f64 / 15.0;
    histogram_bits * (0.5 + 0.5 * transition_factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn eui64_detection() {
        assert!(Iid::of(a("2001:db8:0:1cdf:21e:c2ff:fec0:11db")).is_eui64());
        assert!(!Iid::of(a("2001:db8:4137:9e76:3031:f3fd:bbdd:2c2a")).is_eui64());
    }

    #[test]
    fn ubit() {
        // EUI-64 from a universal MAC: u-bit 1.
        assert_eq!(Iid::of(a("2001:db8::21e:c2ff:fec0:11db")).u_bit(), 1);
        // Privacy-style IID with u-bit cleared.
        assert_eq!(Iid::of(a("2001:db8::3031:f3fd:bbdd:2c2a")).u_bit(), 0);
    }

    #[test]
    fn low_and_small() {
        assert!(Iid::of(a("2001:db8::103")).is_low());
        assert!(!Iid::of(a("2001:db8::10:901")).is_low());
        assert!(Iid::of(a("2001:db8::10:901")).is_small());
        assert!(!Iid::of(a("2001:db8::1:0:0:1")).is_small());
    }

    #[test]
    fn isatap_forms() {
        assert!(Iid::of(a("2001:db8::5efe:192.0.2.1")).is_isatap());
        assert!(Iid::of(a("2001:db8::200:5efe:192.0.2.1")).is_isatap());
        assert!(!Iid::of(a("2001:db8::5eff:192.0.2.1")).is_isatap());
    }

    #[test]
    fn embedded_v4() {
        assert_eq!(
            embedded_ipv4(a("2001:db8::c000:0201")),
            Some([192, 0, 2, 1])
        );
        // Small manual IIDs decode to 0.x and are rejected.
        assert_eq!(embedded_ipv4(a("2001:db8::103")), None);
        // Private ranges rejected.
        assert_eq!(embedded_ipv4(a("2001:db8::0a00:0001")), None); // 10.0.0.1
        assert_eq!(embedded_ipv4(a("2001:db8::c0a8:0001")), None); // 192.168.0.1
        assert_eq!(embedded_ipv4(a("2001:db8::ac10:0001")), None); // 172.16.0.1
        assert_eq!(embedded_ipv4(a("2001:db8::a9fe:0001")), None); // 169.254.0.1
        assert_eq!(embedded_ipv4(a("2001:db8::e000:0001")), None); // 224.0.0.1
                                                                   // High IID bits set -> not an embedded v4.
        assert_eq!(embedded_ipv4(a("2001:db8::1:c000:0201")), None);
    }

    #[test]
    fn entropy_separates_random_from_structured() {
        let random = iid_entropy_bits(Iid::of(a("2001:db8::3031:f3fd:bbdd:2c2a")));
        let manual = iid_entropy_bits(Iid::of(a("2001:db8::103")));
        let structured = iid_entropy_bits(Iid::of(a("2001:db8::10:901")));
        assert!(random > 30.0, "random scored {random}");
        assert!(manual < 15.0, "manual scored {manual}");
        assert!(
            structured < random,
            "structured {structured} vs random {random}"
        );
    }

    #[test]
    fn batched_nybbles_agree_with_shifts() {
        for s in [
            "2001:db8::3031:f3fd:bbdd:2c2a",
            "::",
            "::1",
            "2001:db8::10:901",
        ] {
            let iid = Iid::of(a(s));
            let batch = iid.nybbles();
            for (i, &n) in batch.iter().enumerate() {
                let want = (iid.0 >> (60 - 4 * i)) & 0xf;
                assert_eq!(u64::from(n), want, "{s} nybble {i}");
            }
        }
    }
}
