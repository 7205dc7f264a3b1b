//! Registry of special-use IPv6 prefixes relevant to the study (§3, §4.1).
//!
//! The census pipeline culls addresses of the early transition mechanisms
//! (Teredo, ISATAP, 6to4) from the "Other" (native end-to-end) population
//! before classification, because those mechanisms' addresses are trivially
//! recognized by content and would skew the temporal/spatial results.

use crate::cast::{low16, low32};
use crate::{Addr, Iid, Prefix, PrefixLen};

/// `2001::/32` — Teredo (RFC 4380).
pub const TEREDO: Prefix = Prefix::new(
    Addr(0x2001_0000_0000_0000_0000_0000_0000_0000),
    PrefixLen::lit::<32>(),
);

/// `2002::/16` — 6to4 (RFC 3056 / RFC 3068 relays).
pub const SIX_TO_FOUR: Prefix = Prefix::new(
    Addr(0x2002_0000_0000_0000_0000_0000_0000_0000),
    PrefixLen::lit::<16>(),
);

/// `2000::/3` — the global unicast space.
pub const GLOBAL_UNICAST: Prefix = Prefix::new(
    Addr(0x2000_0000_0000_0000_0000_0000_0000_0000),
    PrefixLen::lit::<3>(),
);

/// `2001:db8::/32` — documentation (RFC 3849); used in the paper's figures.
pub const DOCUMENTATION: Prefix = Prefix::new(
    Addr(0x2001_0db8_0000_0000_0000_0000_0000_0000),
    PrefixLen::lit::<32>(),
);

/// `fe80::/10` — link-local unicast.
pub const LINK_LOCAL: Prefix = Prefix::new(
    Addr(0xfe80_0000_0000_0000_0000_0000_0000_0000),
    PrefixLen::lit::<10>(),
);

/// `fc00::/7` — unique local addresses (RFC 4193).
pub const UNIQUE_LOCAL: Prefix = Prefix::new(
    Addr(0xfc00_0000_0000_0000_0000_0000_0000_0000),
    PrefixLen::lit::<7>(),
);

/// `ff00::/8` — multicast.
pub const MULTICAST: Prefix = Prefix::new(
    Addr(0xff00_0000_0000_0000_0000_0000_0000_0000),
    PrefixLen::lit::<8>(),
);

/// `::ffff:0:0/96` — IPv4-mapped addresses.
pub const V4_MAPPED: Prefix = Prefix::new(
    Addr(0x0000_0000_0000_0000_0000_ffff_0000_0000),
    PrefixLen::lit::<96>(),
);

/// `64:ff9b::/96` — the NAT64 well-known prefix (RFC 6052), used by
/// 464XLAT deployments; these count as *native* IPv6 transport in the
/// paper (§4.1) because the client speaks IPv6 end-to-end.
pub const NAT64_WKP: Prefix = Prefix::new(
    Addr(0x0064_ff9b_0000_0000_0000_0000_0000_0000),
    PrefixLen::lit::<96>(),
);

/// True for Teredo addresses.
pub fn is_teredo(a: Addr) -> bool {
    TEREDO.contains_addr(a)
}

/// True for 6to4 addresses.
pub fn is_6to4(a: Addr) -> bool {
    SIX_TO_FOUR.contains_addr(a)
}

/// True for ISATAP addresses, recognized by their IID format
/// (`[02]00:5efe` + embedded IPv4, RFC 5214 §6.1). ISATAP has no reserved
/// network prefix — any /64 can host ISATAP interfaces.
pub fn is_isatap(a: Addr) -> bool {
    Iid::of(a).is_isatap()
}

/// True for addresses in the global unicast space (`2000::/3`).
pub fn is_global_unicast(a: Addr) -> bool {
    GLOBAL_UNICAST.contains_addr(a)
}

/// True for an address a CDN could plausibly log as a WWW client source:
/// global unicast and not multicast/link-local/ULA/v4-mapped.
pub fn is_plausible_client(a: Addr) -> bool {
    is_global_unicast(a)
        && !MULTICAST.contains_addr(a)
        && !LINK_LOCAL.contains_addr(a)
        && !UNIQUE_LOCAL.contains_addr(a)
        && !V4_MAPPED.contains_addr(a)
}

/// The IPv4 address embedded in a 6to4 address (`2002:AABB:CCDD::/48`),
/// or `None` when `a` is not 6to4.
pub fn sixtofour_embedded_v4(a: Addr) -> Option<[u8; 4]> {
    if is_6to4(a) {
        Some(a.v4_in_6to4())
    } else {
        None
    }
}

/// The IPv4 address of the Teredo *server* embedded in a Teredo address
/// (bits 32..64), or `None` when `a` is not Teredo.
pub fn teredo_server_v4(a: Addr) -> Option<[u8; 4]> {
    if is_teredo(a) {
        Some(low32(a.0 >> 64).to_be_bytes())
    } else {
        None
    }
}

/// The IPv4 address of the Teredo *client* embedded (obfuscated, XOR
/// 0xffffffff) in the low 32 bits of a Teredo address.
pub fn teredo_client_v4(a: Addr) -> Option<[u8; 4]> {
    if is_teredo(a) {
        Some((low32(a.0) ^ 0xffff_ffff).to_be_bytes())
    } else {
        None
    }
}

/// The Teredo flags field (bits 64..80 of a Teredo address, RFC 4380
/// §4): bit 0x8000 marks a client behind a cone NAT.
pub fn teredo_flags(a: Addr) -> Option<u16> {
    if is_teredo(a) {
        Some(low16(a.0 >> 48))
    } else {
        None
    }
}

/// The Teredo client's mapped UDP port, de-obfuscated (bits 80..96 are
/// the port XOR 0xffff).
pub fn teredo_client_port(a: Addr) -> Option<u16> {
    if is_teredo(a) {
        Some(low16(a.0 >> 32) ^ 0xffff)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    #[test]
    fn classification_of_reserved_spaces() {
        assert!(is_teredo(a("2001::1")));
        assert!(is_teredo(a("2001:0:4136:e378:8000:63bf:3fff:fdd2")));
        assert!(!is_teredo(a("2001:db8::1"))); // 2001:db8 is /32-adjacent, not /32-inside
        assert!(is_6to4(a("2002:c000:0201::1")));
        assert!(!is_6to4(a("2001:db8::1")));
        assert!(is_isatap(a("2001:db8::200:5efe:192.0.2.1")));
        assert!(is_global_unicast(a("2400::1")));
        assert!(!is_global_unicast(a("fe80::1")));
    }

    #[test]
    fn plausible_client_filter() {
        assert!(is_plausible_client(a("2001:db8::1")));
        assert!(!is_plausible_client(a("fe80::1")));
        assert!(!is_plausible_client(a("fd00::1")));
        assert!(!is_plausible_client(a("ff02::1")));
        assert!(!is_plausible_client(a("::ffff:192.0.2.1")));
        assert!(!is_plausible_client(a("::1")));
    }

    #[test]
    fn embedded_v4_extraction() {
        assert_eq!(
            sixtofour_embedded_v4(a("2002:c000:0201::1")),
            Some([192, 0, 2, 1])
        );
        assert_eq!(sixtofour_embedded_v4(a("2001:db8::1")), None);

        // Teredo: 2001:0:SERVER:flags:port:~CLIENT
        let t = a("2001:0:4136:e378:8000:63bf:3fff:fdd2");
        assert_eq!(teredo_server_v4(t), Some([0x41, 0x36, 0xe3, 0x78]));
        // client = ~(3fff:fdd2) = c000:022d = 192.0.2.45
        assert_eq!(teredo_client_v4(t), Some([192, 0, 2, 45]));
        assert_eq!(teredo_client_v4(a("2002::1")), None);
        // flags = 0x8000 (cone NAT), port = ~0x63bf = 0x9c40 = 40000.
        assert_eq!(teredo_flags(t), Some(0x8000));
        assert_eq!(teredo_client_port(t), Some(40000));
        assert_eq!(teredo_flags(a("2400::1")), None);
        assert_eq!(teredo_client_port(a("2400::1")), None);
    }

    #[test]
    fn teredo_is_inside_global_unicast() {
        // Sanity on prefix relationships the culling logic relies on.
        assert!(GLOBAL_UNICAST.contains(TEREDO));
        assert!(GLOBAL_UNICAST.contains(SIX_TO_FOUR));
        assert!(!TEREDO.overlaps(SIX_TO_FOUR));
        assert!(TEREDO.contains(Prefix::new(a("2001::"), PrefixLen::lit::<33>())));
        assert!(!TEREDO.contains(DOCUMENTATION));
    }
}
