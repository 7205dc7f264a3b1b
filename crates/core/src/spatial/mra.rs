//! Multi-Resolution Aggregate (MRA) count ratios and plot curves
//! (§5.2.1).
//!
//! Given active aggregate counts `n_p`, the MRA count ratio is
//! γ^k_p = n_{p+k}/n_p with range [1, 2^k]. Plotted against p at several
//! resolutions k simultaneously (16-bit segments, nybbles, single bits),
//! these ratios expose *where in the address* a population of addresses
//! differs — the paper's MRA plot (Figures 2 and 5).

use v6census_addr::PrefixLen;
use v6census_trie::{AddrSet, AggregateCounts};

/// The segment resolutions the paper plots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MraResolution {
    /// k = 1: single bits (blue curves in the paper).
    SingleBit,
    /// k = 4: nybbles / hex characters (black curves).
    Nybble,
    /// k = 8: bytes (provided for completeness; the paper mentions k=8 in
    /// the γ definition but does not plot it).
    Byte,
    /// k = 16: colon-delimited 16-bit segments (dashed red curves).
    Segment16,
}

impl MraResolution {
    /// The segment width k in bits.
    pub const fn k(self) -> u8 {
        match self {
            MraResolution::SingleBit => 1,
            MraResolution::Nybble => 4,
            MraResolution::Byte => 8,
            MraResolution::Segment16 => 16,
        }
    }

    /// The paper's plot-legend label.
    pub const fn label(self) -> &'static str {
        match self {
            MraResolution::SingleBit => "single bits",
            MraResolution::Nybble => "4-bit segments",
            MraResolution::Byte => "8-bit segments",
            MraResolution::Segment16 => "16-bit segments",
        }
    }
}

/// The full MRA characterization of one address set: aggregate counts for
/// all prefix lengths, from which any γ^k_p is derived.
#[derive(Clone, Debug)]
pub struct MraCurve {
    counts: AggregateCounts,
}

/// The privacy-extension signature the paper reads off single-bit MRA
/// curves (§5.2.1, Figure 2a): ratios near 2 just after bit 64, a dip to
/// ~1 at the RFC 4941 "u" bit (address bit 70, plotted at 70), and a
/// flat-line at 1 once prefixes isolate single pseudorandom IIDs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrivacySignature {
    /// Mean single-bit ratio over bits 64..68 (≈2 for privacy IIDs when
    /// /64s hold more than a handful of addresses).
    pub iid_head_ratio: f64,
    /// The single-bit ratio at the u bit (γ¹₇₀; ≈1 for privacy IIDs).
    pub u_bit_ratio: f64,
    /// First bit position ≥ 72 where the curve flat-lines at ≤ 1.05.
    pub flatline_at: Option<PrefixLen>,
}

impl MraCurve {
    /// Computes the MRA characterization of a set of addresses.
    pub fn of(set: &AddrSet) -> MraCurve {
        MraCurve {
            counts: AggregateCounts::of(set),
        }
    }

    /// Wraps precomputed aggregate counts.
    pub fn from_counts(counts: AggregateCounts) -> MraCurve {
        MraCurve { counts }
    }

    /// The underlying aggregate counts.
    pub fn counts(&self) -> &AggregateCounts {
        &self.counts
    }

    /// Number of addresses in the characterized set.
    pub fn total(&self) -> u64 {
        self.counts.total()
    }

    /// γ^k_p for the given resolution.
    pub fn ratio(&self, p: PrefixLen, res: MraResolution) -> f64 {
        self.counts.ratio(p, res.k())
    }

    /// One plot curve: `(p, γ^k_p)` for p = 0, k, 2k, …, 128−k.
    pub fn curve(&self, res: MraResolution) -> Vec<(PrefixLen, f64)> {
        self.counts.ratio_curve(res.k())
    }

    /// The length of the longest common prefix of the whole set — the
    /// "known BGP prefix" marker on the paper's plots. For fewer than two
    /// addresses the set trivially shares all 128 bits.
    pub fn common_prefix_len(&self) -> PrefixLen {
        PrefixLen::all()
            .take_while(|&p| p < PrefixLen::MAX)
            .find(|&p| self.counts.n(p.saturating_add(1)) > 1)
            .unwrap_or(PrefixLen::MAX)
    }

    /// Detects the privacy-extension signature on the single-bit curve.
    /// Returns measurements; [`PrivacySignature::matches`] applies the
    /// paper's visual criteria as thresholds.
    pub fn privacy_signature(&self) -> PrivacySignature {
        let lens = |from: u8, to: u8| (from..to).filter_map(PrefixLen::new);
        let head: f64 = lens(64, 68).map(|p| self.counts.ratio(p, 1)).sum::<f64>() / 4.0;
        let u_bit_ratio = self.counts.ratio(PrefixLen::lit::<70>(), 1);
        let mut flatline_at = None;
        for p in lens(72, 121) {
            // Flat-line: this and the next few ratios all ≈ 1.
            let end = p.get().saturating_add(8).min(127);
            if lens(p.get(), end).all(|q| self.counts.ratio(q, 1) <= 1.05) {
                flatline_at = Some(p);
                break;
            }
        }
        PrivacySignature {
            iid_head_ratio: head,
            u_bit_ratio,
            flatline_at,
        }
    }

    /// Mass of aggregation in the 112–128 bit segment relative to the
    /// total: log2(n_128/n_112) / log2(n_128/n_0). Near 1 means addresses
    /// differ almost exclusively in their last 16 bits — the
    /// "dense block" prominence of Figure 2b / Figure 5g.
    pub fn tail_prominence(&self) -> f64 {
        let n128 = self.counts.n(PrefixLen::MAX) as f64;
        let n112 = self.counts.n(PrefixLen::lit::<112>()) as f64;
        let n0 = self.counts.n(PrefixLen::ZERO) as f64;
        if self.counts.total() < 2 {
            return 0.0;
        }
        (n128 / n112).log2() / (n128 / n0).log2()
    }
}

impl PrivacySignature {
    /// True when the measurements match the paper's privacy-extension
    /// signature: elevated IID head ratios (≈2 when /64s hold many
    /// addresses; diluted toward 1 by single-address /64s under
    /// heavy-tailed client activity), the u-bit dip to ~1, and a
    /// flat-line before bit 120.
    pub fn matches(&self) -> bool {
        self.iid_head_ratio >= 1.45 && self.u_bit_ratio <= 1.05 && self.flatline_at.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_addr::Addr;

    /// A deterministic pseudorandom IID with the RFC 4941 u-bit cleared.
    fn privacy_iid(seed: u64) -> u64 {
        // splitmix64 step
        let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        z & !(1 << 57) // clear the u bit (bit 70 of the address)
    }

    fn privacy_population(n: u64, per_64: u64) -> AddrSet {
        let mut addrs = Vec::new();
        for subnet in 0..n / per_64 {
            let net = 0x2001_0db8_0000_0000u64 | subnet;
            for h in 0..per_64 {
                let iid = privacy_iid(subnet * 1_000_003 + h);
                addrs.push(Addr(((net as u128) << 64) | iid as u128));
            }
        }
        AddrSet::from_iter(addrs)
    }

    #[test]
    fn privacy_signature_detected() {
        let set = privacy_population(4096, 64);
        let mra = MraCurve::of(&set);
        let sig = mra.privacy_signature();
        assert!(
            sig.iid_head_ratio > 1.9,
            "head ratio {:.3}",
            sig.iid_head_ratio
        );
        assert!(sig.u_bit_ratio < 1.01, "u-bit ratio {:.3}", sig.u_bit_ratio);
        assert!(sig.flatline_at.is_some());
        assert!(sig.matches());
    }

    #[test]
    fn dense_block_signature_not_privacy() {
        // Tightly packed low IIDs: a university department /64 (Fig 5g).
        let set =
            AddrSet::from_iter((0..100u128).map(|i| Addr((0x2001_0db8_0000_0001u128 << 64) | i)));
        let mra = MraCurve::of(&set);
        assert!(!mra.privacy_signature().matches());
        assert!(
            mra.tail_prominence() > 0.9,
            "prominence {:.3}",
            mra.tail_prominence()
        );
        // All structure within the last 16 bits: γ at 112 (16-bit) = 100.
        assert!(
            (mra.ratio(PrefixLen::lit::<112>(), MraResolution::Segment16) - 100.0).abs() < 1e-9
        );
    }

    #[test]
    fn curve_shapes_and_identity() {
        let set = privacy_population(1024, 8);
        let mra = MraCurve::of(&set);
        for res in [
            MraResolution::SingleBit,
            MraResolution::Nybble,
            MraResolution::Byte,
            MraResolution::Segment16,
        ] {
            let curve = mra.curve(res);
            assert_eq!(curve.len(), 128 / res.k() as usize);
            let product: f64 = curve.iter().map(|&(_, r)| r).product();
            assert!(
                (product - set.len() as f64).abs() / (set.len() as f64) < 1e-9,
                "{}: ∏γ = {product}",
                res.label()
            );
            let max = (1u64 << res.k().min(63)) as f64;
            for &(p, r) in &curve {
                assert!(r >= 1.0 && r <= max, "γ^{}_{p} = {r}", res.k());
            }
        }
    }

    #[test]
    fn common_prefix_marker() {
        let set = AddrSet::from_iter([
            "2001:db8::1".parse::<Addr>().unwrap(),
            "2001:db8::2".parse().unwrap(),
        ]);
        let mra = MraCurve::of(&set);
        assert_eq!(mra.common_prefix_len().get(), 126);
        let single = AddrSet::from_iter(["2001:db8::1".parse::<Addr>().unwrap()]);
        assert_eq!(MraCurve::of(&single).common_prefix_len(), PrefixLen::MAX);
    }

    #[test]
    fn resolution_labels() {
        assert_eq!(MraResolution::SingleBit.label(), "single bits");
        assert_eq!(MraResolution::Segment16.k(), 16);
    }
}
