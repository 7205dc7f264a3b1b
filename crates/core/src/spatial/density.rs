//! Prefix-density classes (`n@/p-dense`) and the Table 3 style density
//! report (§5.2.2–§5.2.3, §6.2.2).

use std::fmt;
use v6census_addr::bits::high_mask;
use v6census_addr::PrefixLen;
use v6census_trie::{dense_prefixes, AddrSet, DensePrefix};

/// A density class `n@/p-dense`: prefixes of length `p` containing at
/// least `n` observed addresses, and the addresses therein.
///
/// Densities are restricted to the form n/2^(128−p) so that all the
/// arithmetic stays in integers — the paper's explicit design choice
/// ("a simpler solution that does not require base-10 math with large
/// numbers").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DensityClass {
    /// Minimum observed addresses for a block to be dense.
    pub n: u64,
    /// The block length in bits.
    pub p: PrefixLen,
}

impl DensityClass {
    /// Creates the density class `n@/p`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub const fn at(n: u64, p: PrefixLen) -> DensityClass {
        assert!(n >= 1, "density numerator must be at least 1");
        DensityClass { n, p }
    }

    /// [`DensityClass::at`] for callers that hold a raw `u8`; the
    /// end-to-end benchmark calls it with literals.
    ///
    /// # Panics
    /// Panics if `n == 0` or `p > 128`.
    pub const fn new(n: u64, p: u8) -> DensityClass {
        assert!(p <= 128, "prefix length out of range");
        match PrefixLen::new(p) {
            Some(p) => DensityClass::at(n, p),
            None => DensityClass::at(n, PrefixLen::MAX),
        }
    }

    /// The minimum density as a fraction.
    pub fn min_density(&self) -> f64 {
        // The block spans 2^(128−p) addresses: one past the host mask,
        // which overflows only for /0.
        match (!high_mask(self.p)).checked_add(1) {
            Some(span) => self.n as f64 / span as f64,
            None => self.n as f64 / 2f64.powi(128),
        }
    }

    /// The dense prefixes of this class within a set of observed
    /// addresses, via the sorted fast path.
    pub fn dense_prefixes(&self, set: &AddrSet) -> Vec<DensePrefix> {
        dense_prefixes(set, self.n, self.p)
    }

    /// Full report for this class over a set (one Table 3 row).
    pub fn report(&self, set: &AddrSet) -> DensityReport {
        DensityReport::compute(*self, set)
    }

    /// The addresses of the set contained in this class's dense prefixes
    /// — the spatial *address* classification of §5.2 ("It is also the
    /// class of those addresses contained therein").
    pub fn dense_addresses(&self, set: &AddrSet) -> AddrSet {
        let dense = self.dense_prefixes(set);
        let mut di = dense.iter().peekable();
        // At most every address is dense-contained.
        let mut out = Vec::with_capacity(set.len());
        for a in set.iter() {
            while let Some(d) = di.peek() {
                if d.prefix.last_addr() < a {
                    di.next();
                } else {
                    break;
                }
            }
            if let Some(d) = di.peek() {
                if d.prefix.contains_addr(a) {
                    out.push(a);
                }
            }
        }
        AddrSet::from_iter(out)
    }
}

impl fmt::Display for DensityClass {
    /// The paper's notation, e.g. `2@/112-dense`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@/{}-dense", self.n, self.p)
    }
}

/// Error parsing a [`DensityClass`] from its `n@/p[-dense]` notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DensityClassParseError;

impl fmt::Display for DensityClassParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected density class like `2@/112` or `3@/120-dense`")
    }
}

impl std::error::Error for DensityClassParseError {}

impl std::str::FromStr for DensityClass {
    type Err = DensityClassParseError;

    /// Parses the paper's notation: `2@/112`, `2@/112-dense`.
    fn from_str(s: &str) -> Result<DensityClass, DensityClassParseError> {
        let s = s.strip_suffix("-dense").unwrap_or(s);
        let (n_s, p_s) = s.split_once("@/").ok_or(DensityClassParseError)?;
        let n: u64 = n_s.parse().map_err(|_| DensityClassParseError)?;
        let p: PrefixLen = p_s.parse().map_err(|_| DensityClassParseError)?;
        if n == 0 {
            return Err(DensityClassParseError);
        }
        Ok(DensityClass { n, p })
    }
}

/// One row of Table 3: the outcome of applying a density class to an
/// observed address set.
#[derive(Clone, Debug)]
pub struct DensityReport {
    /// The class applied.
    pub class: DensityClass,
    /// Number of dense prefixes found.
    pub dense_prefixes: usize,
    /// Observed addresses covered by the dense prefixes.
    pub covered_addresses: u64,
    /// Total addresses the dense prefixes span (possible probe targets).
    pub possible_addresses: u128,
}

impl DensityReport {
    /// Computes the report for a class over a set.
    pub fn compute(class: DensityClass, set: &AddrSet) -> DensityReport {
        let dense = class.dense_prefixes(set);
        let covered: u64 = dense.iter().map(|d| d.count).sum();
        let possible: u128 = dense
            .iter()
            .map(|d| d.possible().unwrap_or(u128::MAX))
            .sum();
        DensityReport {
            class,
            dense_prefixes: dense.len(),
            covered_addresses: covered,
            possible_addresses: possible,
        }
    }

    /// The "Address Density" column: covered / possible.
    pub fn density(&self) -> f64 {
        if self.possible_addresses == 0 {
            0.0
        } else {
            self.covered_addresses as f64 / self.possible_addresses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_addr::Addr;

    fn set(addrs: &[&str]) -> AddrSet {
        AddrSet::from_iter(addrs.iter().map(|s| s.parse::<Addr>().unwrap()))
    }

    #[test]
    fn paper_notation() {
        assert_eq!(DensityClass::new(2, 112).to_string(), "2@/112-dense");
        assert_eq!(DensityClass::new(64, 112).to_string(), "64@/112-dense");
    }

    #[test]
    fn parse_notation() {
        assert_eq!(
            "2@/112".parse::<DensityClass>().unwrap(),
            DensityClass::new(2, 112)
        );
        assert_eq!(
            "3@/120-dense".parse::<DensityClass>().unwrap(),
            DensityClass::new(3, 120)
        );
        for bad in ["", "2/112", "0@/112", "2@/129", "x@/112", "2@/y"] {
            assert!(bad.parse::<DensityClass>().is_err(), "accepted {bad:?}");
        }
        // Display → parse roundtrip.
        let c = DensityClass::new(16, 96);
        assert_eq!(c.to_string().parse::<DensityClass>().unwrap(), c);
    }

    #[test]
    fn report_columns_match_hand_count() {
        // Two addrs in one /112, one elsewhere.
        let s = set(&["2001:db8::1", "2001:db8::4", "2400::1"]);
        let r = DensityClass::new(2, 112).report(&s);
        assert_eq!(r.dense_prefixes, 1);
        assert_eq!(r.covered_addresses, 2);
        assert_eq!(r.possible_addresses, 65536);
        assert!((r.density() - 2.0 / 65536.0).abs() < 1e-15);
    }

    #[test]
    fn dense_addresses_classification() {
        let s = set(&["2001:db8::1", "2001:db8::4", "2400::1"]);
        let c = DensityClass::new(2, 112);
        let dense = c.dense_addresses(&s);
        assert_eq!(dense.len(), 2);
        assert!(dense.contains("2001:db8::1".parse().unwrap()));
        assert!(dense.contains("2001:db8::4".parse().unwrap()));
        assert!(!dense.contains("2400::1".parse().unwrap()));
    }

    #[test]
    fn min_density_fraction() {
        let c = DensityClass::new(2, 112);
        assert!((c.min_density() - 2.0 / 65536.0).abs() < 1e-15);
        let tight = DensityClass::new(3, 120);
        assert!((tight.min_density() - 3.0 / 256.0).abs() < 1e-15);
    }

    #[test]
    fn monotonicity_in_n() {
        // More demanding n ⇒ fewer (or equal) dense prefixes.
        let mut addrs = Vec::new();
        for b in 0..8u128 {
            for i in 0..(b + 1) {
                addrs.push(Addr((0x2001_0db8_0000_0000u128 << 64) | (b << 16) | i));
            }
        }
        let s = AddrSet::from_iter(addrs);
        let mut last = usize::MAX;
        for n in 1..=9u64 {
            let cnt = DensityClass::new(n, 112).dense_prefixes(&s).len();
            assert!(cnt <= last, "n={n}: {cnt} > {last}");
            last = cnt;
        }
        assert_eq!(DensityClass::new(9, 112).dense_prefixes(&s).len(), 0);
    }

    #[test]
    fn empty_set_report() {
        let r = DensityClass::new(2, 112).report(&AddrSet::new());
        assert_eq!(r.dense_prefixes, 0);
        assert_eq!(r.covered_addresses, 0);
        assert_eq!(r.possible_addresses, 0);
        assert_eq!(r.density(), 0.0);
    }
}
