//! Complementary cumulative distribution functions over aggregate
//! populations (§5.2.2, Figure 3) and other count distributions
//! (Figure 5a).

use v6census_addr::PrefixLen;
use v6census_trie::{populations, AddrSet};

/// An empirical complementary CDF over non-negative integer counts:
/// `proportion(x)` = fraction of samples ≥ x.
///
/// Both Figure 3 (addresses or /64s per aggregate) and Figure 5a (actives
/// per ASN) are CCDFs of count samples; this type computes and serves
/// them, and emits the `(x, proportion)` step points for plotting.
#[derive(Clone, Debug, PartialEq)]
pub struct Ccdf {
    /// The samples, ascending.
    sorted: Vec<u64>,
}

impl Ccdf {
    /// Builds a CCDF from count samples.
    pub fn new(mut samples: Vec<u64>) -> Ccdf {
        samples.sort_unstable();
        Ccdf { sorted: samples }
    }

    /// The CCDF of per-aggregate populations: how many of the set's
    /// addresses fall in each active /p block (Figure 3's
    /// "p-agg. of IPv6 addrs" curves; feed a /64-mapped set for the
    /// "p-agg. of /64s" curves).
    pub fn of_aggregate_populations(set: &AddrSet, p: PrefixLen) -> Ccdf {
        Ccdf::new(populations(set, p))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≥ `x`.
    pub fn proportion_ge(&self, x: u64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v < x);
        (self.sorted.len() - idx) as f64 / self.sorted.len() as f64
    }

    /// The maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.sorted.last().copied().unwrap_or(0)
    }

    /// Sum of all samples.
    pub fn total(&self) -> u64 {
        self.sorted.iter().sum()
    }

    /// The distinct step points `(x, proportion ≥ x)` of the CCDF, in
    /// ascending x — what the figures plot on log-log axes.
    pub fn steps(&self) -> Vec<(u64, f64)> {
        let n = self.sorted.len();
        // One step per distinct sample value — never more than n.
        let mut out = Vec::with_capacity(n);
        if n == 0 {
            return out;
        }
        let mut i = 0usize;
        while i < n {
            let x = self.sorted[i];
            out.push((x, (n - i) as f64 / n as f64));
            while i < n && self.sorted[i] == x {
                i += 1;
            }
        }
        out
    }

    /// The value at a quantile q in `[0, 1]` (nearest-rank).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.sorted.is_empty() {
            return 0;
        }
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len()) - 1;
        self.sorted[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_addr::Addr;

    #[test]
    fn proportions() {
        let c = Ccdf::new(vec![1, 1, 2, 5, 10]);
        assert_eq!(c.len(), 5);
        assert!((c.proportion_ge(1) - 1.0).abs() < 1e-12);
        assert!((c.proportion_ge(2) - 0.6).abs() < 1e-12);
        assert!((c.proportion_ge(10) - 0.2).abs() < 1e-12);
        assert!((c.proportion_ge(11) - 0.0).abs() < 1e-12);
        assert_eq!(c.max(), 10);
        assert_eq!(c.total(), 19);
    }

    #[test]
    fn steps_are_monotone() {
        let c = Ccdf::new(vec![3, 1, 4, 1, 5, 9, 2, 6]);
        let steps = c.steps();
        assert_eq!(steps.first().map(|&(x, _)| x), Some(1));
        assert!((steps[0].1 - 1.0).abs() < 1e-12);
        for w in steps.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 > w[1].1);
        }
    }

    #[test]
    fn from_aggregate_populations() {
        let set = AddrSet::from_iter(
            ["2001:db8::1", "2001:db8::2", "2001:db8:0:1::1", "2400::1"]
                .iter()
                .map(|s| s.parse::<Addr>().unwrap()),
        );
        let c = Ccdf::of_aggregate_populations(&set, PrefixLen::lit::<64>());
        // Aggregates: {2}, {1}, {1} → proportion with ≥2 addrs = 1/3.
        assert_eq!(c.len(), 3);
        assert!((c.proportion_ge(2) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let c = Ccdf::new((1..=100).collect());
        assert_eq!(c.quantile(0.5), 50);
        assert_eq!(c.quantile(0.0), 1);
        assert_eq!(c.quantile(1.0), 100);
        assert_eq!(Ccdf::new(vec![]).quantile(0.5), 0);
    }

    #[test]
    fn empty() {
        let c = Ccdf::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.proportion_ge(1), 0.0);
        assert!(c.steps().is_empty());
    }
}
