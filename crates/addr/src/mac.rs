//! 48-bit MAC addresses and the modified EUI-64 interface-identifier
//! encoding used by SLAAC (RFC 4291 §2.5.1, RFC 4862).

use crate::bits::shr64;
use crate::cast::{low32, low8};
use std::fmt;
use std::str::FromStr;

/// Extracts the byte at `shift` from a packed integer, for the EUI-64
/// bit shuffles below.
const fn byte(v: u64, shift: u32) -> u8 {
    low8(shr64(v, shift) as u128)
}

/// A 48-bit IEEE 802 MAC address.
///
/// The paper tracks EUI-64 SLAAC addresses because their IIDs embed the
/// host's MAC address, making them persistent, globally-meaningful
/// identifiers: Table 1 reports "EUI-64 IIDs (MACs)" — the number of
/// *unique* MAC addresses behind the observed EUI-64 addresses.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mac(pub [u8; 6]);

impl Mac {
    /// The MAC address the paper calls out as anomalously duplicated
    /// across many devices in one mobile carrier's network (§4.1 fn 2).
    pub const PAPER_DUPLICATE: Mac = Mac([0x00, 0x11, 0x22, 0x33, 0x44, 0x56]);

    /// Builds a MAC from a 24-bit OUI and a 24-bit NIC-specific part.
    ///
    /// # Panics
    /// Panics if either argument exceeds 24 bits.
    pub const fn from_oui_nic(oui: u32, nic: u32) -> Mac {
        assert!(oui <= 0xff_ffff && nic <= 0xff_ffff);
        Mac([
            byte(oui as u64, 16),
            byte(oui as u64, 8),
            byte(oui as u64, 0),
            byte(nic as u64, 16),
            byte(nic as u64, 8),
            byte(nic as u64, 0),
        ])
    }

    /// The Organizationally Unique Identifier (first 24 bits).
    pub const fn oui(self) -> u32 {
        let [m0, m1, m2, _, _, _] = self.0;
        low32(((m0 as u128) << 16) | ((m1 as u128) << 8) | m2 as u128)
    }

    /// True when the universally/locally-administered bit marks this MAC
    /// as locally administered.
    pub const fn is_locally_administered(self) -> bool {
        let [m0, _, _, _, _, _] = self.0;
        m0 & 0x02 != 0
    }

    /// True when the individual/group bit marks this MAC as multicast.
    pub const fn is_multicast(self) -> bool {
        let [m0, _, _, _, _, _] = self.0;
        m0 & 0x01 != 0
    }

    /// Encodes this MAC as a modified EUI-64 interface identifier:
    /// `ff:fe` is inserted between the OUI and NIC halves, and the
    /// universal/local ("u") bit is inverted, so a factory-assigned
    /// (universal) MAC yields an IID with the u-bit *set*.
    pub const fn to_modified_eui64(self) -> u64 {
        let [m0, m1, m2, m3, m4, m5] = self.0;
        let b0 = m0 ^ 0x02;
        ((b0 as u64) << 56)
            | ((m1 as u64) << 48)
            | ((m2 as u64) << 40)
            | (0xff_u64 << 32)
            | (0xfe_u64 << 24)
            | ((m3 as u64) << 16)
            | ((m4 as u64) << 8)
            | m5 as u64
    }

    /// Decodes a modified EUI-64 interface identifier back to the MAC it
    /// embeds. Returns `None` when the IID does not carry the `ff:fe`
    /// marker in bits 24–39 of the IID.
    ///
    /// Note: a matching marker does not *prove* SLAAC derivation — the
    /// paper notes false positives and invalid embedded MACs (§4.1 fn 2) —
    /// so callers treat the result as a strong content-based hint.
    pub const fn from_modified_eui64(iid: u64) -> Option<Mac> {
        if (iid >> 24) & 0xffff != 0xfffe {
            return None;
        }
        Some(Mac([
            byte(iid, 56) ^ 0x02,
            byte(iid, 48),
            byte(iid, 40),
            byte(iid, 16),
            byte(iid, 8),
            byte(iid, 0),
        ]))
    }

    /// Returns the MAC as a `u64` in the low 48 bits (useful as a map key).
    pub const fn to_u64(self) -> u64 {
        let [m0, m1, m2, m3, m4, m5] = self.0;
        ((m0 as u64) << 40)
            | ((m1 as u64) << 32)
            | ((m2 as u64) << 24)
            | ((m3 as u64) << 16)
            | ((m4 as u64) << 8)
            | m5 as u64
    }

    /// Builds a MAC from the low 48 bits of a `u64`.
    ///
    /// # Panics
    /// Panics if bits above 48 are set.
    pub const fn from_u64(v: u64) -> Mac {
        assert!(v <= 0xffff_ffff_ffff, "MAC exceeds 48 bits");
        Mac([
            byte(v, 40),
            byte(v, 32),
            byte(v, 24),
            byte(v, 16),
            byte(v, 8),
            byte(v, 0),
        ])
    }
}

impl fmt::Display for Mac {
    /// Colon-separated lower-case hex pairs, e.g. `00:11:22:33:44:56`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [m0, m1, m2, m3, m4, m5] = self.0;
        write!(f, "{m0:02x}:{m1:02x}:{m2:02x}:{m3:02x}:{m4:02x}:{m5:02x}")
    }
}

impl fmt::Debug for Mac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mac({self})")
    }
}

/// Errors parsing a MAC address from text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacParseError;

impl fmt::Display for MacParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed MAC address")
    }
}

impl std::error::Error for MacParseError {}

impl FromStr for Mac {
    type Err = MacParseError;

    /// Parses `aa:bb:cc:dd:ee:ff` (case-insensitive, `-` also accepted).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "the octet counter stops at 6"
    )]
    fn from_str(s: &str) -> Result<Mac, MacParseError> {
        let sep = if s.contains('-') { '-' } else { ':' };
        let mut out = [0u8; 6];
        let mut n = 0;
        for part in s.split(sep) {
            if n == 6 || part.len() != 2 {
                return Err(MacParseError);
            }
            out[n] = u8::from_str_radix(part, 16).map_err(|_| MacParseError)?;
            n += 1;
        }
        if n != 6 {
            return Err(MacParseError);
        }
        Ok(Mac(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eui64_roundtrip() {
        let mac: Mac = "00:1e:c2:c0:11:db".parse().unwrap();
        let iid = mac.to_modified_eui64();
        // Sample address from the paper's Figure 1 (iii):
        // 2001:db8:0:1cdf:21e:c2ff:fec0:11db
        assert_eq!(iid, 0x021e_c2ff_fec0_11db);
        assert_eq!(Mac::from_modified_eui64(iid), Some(mac));
    }

    #[test]
    fn non_eui64_iid_rejected() {
        assert_eq!(Mac::from_modified_eui64(0x3031_f3fd_bbdd_2c2a), None);
    }

    #[test]
    fn ubit_inversion() {
        // Universal MAC (u-bit 0 in MAC) -> IID with bit 70 set (0x02 in top byte).
        let mac = Mac([0x00, 0x00, 0x00, 0x00, 0x00, 0x01]);
        assert_eq!(mac.to_modified_eui64() >> 56, 0x02);
        // Locally administered MAC keeps u-bit clear in the IID.
        let local = Mac([0x02, 0x00, 0x00, 0x00, 0x00, 0x01]);
        assert_eq!(local.to_modified_eui64() >> 56, 0x00);
        assert!(local.is_locally_administered());
        assert!(!mac.is_locally_administered());
    }

    #[test]
    fn display_and_parse() {
        let mac = Mac::PAPER_DUPLICATE;
        assert_eq!(mac.to_string(), "00:11:22:33:44:56");
        assert_eq!("00-11-22-33-44-56".parse::<Mac>().unwrap(), mac);
        assert!("00:11:22:33:44".parse::<Mac>().is_err());
        assert!("00:11:22:33:44:5g".parse::<Mac>().is_err());
        assert!("001:1:22:33:44:56".parse::<Mac>().is_err());
    }

    #[test]
    fn u64_roundtrip() {
        let mac = Mac::from_oui_nic(0x001ec2, 0xc011db);
        assert_eq!(Mac::from_u64(mac.to_u64()), mac);
        assert_eq!(mac.oui(), 0x001ec2);
    }

    #[test]
    fn multicast_bit() {
        assert!(Mac([0x01, 0, 0, 0, 0, 0]).is_multicast());
        assert!(!Mac([0x00, 0, 0, 0, 0, 0]).is_multicast());
    }
}
