//! Property-based tests for the classifiers' invariants.
//!
//! Cases are driven by a deterministic splitmix64 stream (no external
//! property-testing crate), so the workspace builds offline. Failure
//! messages carry the case index, which reproduces the input.

use v6census_addr::{Addr, PrefixLen};
use v6census_core::spatial::{BoxStats, Ccdf, DensityClass, MraCurve, MraResolution};
use v6census_core::temporal::{DailyObservations, Day, StabilityParams};
use v6census_trie::AddrSet;

const CASES: u64 = 120;

/// Deterministic case generator: a splitmix64 stream.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x6a09_e667_f3bc_c909)
    }

    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n >= 1);
        ((self.u64() as u128 * n as u128) >> 64) as u64
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// Clustered addresses: realistic populations share prefixes, so
    /// bias toward a handful of /64-ish bases with small offsets.
    fn clustered_addrs(&mut self) -> Vec<Addr> {
        const BASES: [u64; 3] = [
            0x2001_0db8_0000_0000,
            0x2001_0db8_0000_0001,
            0x2a00_8000_1234_0000,
        ];
        let n = self.range(1, 150) as usize;
        (0..n)
            .map(|_| {
                let hi = BASES[self.below(3) as usize];
                let lo = self.below(0x1_0000);
                Addr(((hi as u128) << 64) | lo as u128)
            })
            .collect()
    }

    /// A small random observation history: day offset → address indices.
    fn history(&mut self) -> Vec<(i32, Vec<u8>)> {
        let days = self.range(1, 12) as usize;
        (0..days)
            .map(|_| {
                let off = self.below(15) as i32;
                let members = (0..self.below(20)).map(|_| self.u64() as u8).collect();
                (off, members)
            })
            .collect()
    }
}

fn store(history: &[(i32, Vec<u8>)]) -> (DailyObservations, Day) {
    let base = Day::from_ymd(2015, 3, 10);
    let mut obs = DailyObservations::new();
    for (off, members) in history {
        obs.record(
            base + *off,
            AddrSet::from_iter(members.iter().map(|&m| Addr(0x2001_0000 + m as u128))),
        );
    }
    (obs, base + 7)
}

#[test]
fn mra_product_identity() {
    let mut g = Gen::new(21);
    for case in 0..CASES {
        let set = AddrSet::from_iter(g.clustered_addrs());
        let mra = MraCurve::of(&set);
        for res in [
            MraResolution::SingleBit,
            MraResolution::Nybble,
            MraResolution::Byte,
            MraResolution::Segment16,
        ] {
            let product: f64 = mra.curve(res).iter().map(|&(_, r)| r).product();
            let relative = (product - set.len() as f64).abs() / set.len() as f64;
            assert!(
                relative < 1e-9,
                "case {case} {}: ∏γ = {product}",
                res.label()
            );
        }
    }
}

#[test]
fn mra_ratio_ranges() {
    let mut g = Gen::new(22);
    for case in 0..CASES {
        let set = AddrSet::from_iter(g.clustered_addrs());
        let p = PrefixLen::new(g.below(113) as u8).unwrap();
        let mra = MraCurve::of(&set);
        for res in [
            MraResolution::SingleBit,
            MraResolution::Nybble,
            MraResolution::Segment16,
        ] {
            if p.checked_add(res.k()).is_some() {
                let r = mra.ratio(p, res);
                assert!(
                    (1.0..=(1u64 << res.k()) as f64).contains(&r),
                    "case {case}: γ^{} at /{p} = {r}",
                    res.k()
                );
            }
        }
    }
}

#[test]
fn stability_antitone_in_n() {
    let mut g = Gen::new(23);
    for case in 0..CASES {
        let (obs, reference) = store(&g.history());
        let mut prev: Option<AddrSet> = None;
        for n in 1u32..=6 {
            let cur = obs.stable_on(reference, &StabilityParams::nd(n));
            if let Some(p) = &prev {
                assert_eq!(
                    cur.intersection_len(p),
                    cur.len(),
                    "case {case}: {n}d-stable must be ⊆ {}d-stable",
                    n - 1
                );
            }
            prev = Some(cur);
        }
    }
}

#[test]
fn stability_monotone_in_window() {
    let mut g = Gen::new(24);
    for case in 0..CASES {
        let (obs, reference) = store(&g.history());
        let mut prev: Option<AddrSet> = None;
        for reach in [3u32, 5, 7, 10] {
            let cur = obs.stable_on(reference, &StabilityParams::nd(3).with_window(reach, reach));
            if let Some(p) = &prev {
                assert_eq!(
                    p.intersection_len(&cur),
                    p.len(),
                    "case {case} reach {reach}"
                );
            }
            prev = Some(cur);
        }
    }
}

#[test]
fn stability_antitone_in_slew() {
    let mut g = Gen::new(25);
    for case in 0..CASES {
        let (obs, reference) = store(&g.history());
        let base = obs.stable_on(reference, &StabilityParams::nd(2));
        for slew in 1u32..=3 {
            let cur = obs.stable_on(reference, &StabilityParams::nd(2).with_slew(slew));
            assert_eq!(
                cur.intersection_len(&base),
                cur.len(),
                "case {case} slew {slew}"
            );
        }
    }
}

#[test]
fn stability_partitions() {
    let mut g = Gen::new(26);
    for case in 0..CASES {
        let (obs, reference) = store(&g.history());
        let params = StabilityParams::three_day();
        let stable = obs.stable_on(reference, &params);
        let not = obs.not_stable_on(reference, &params);
        let active = obs.on(reference);
        assert_eq!(stable.len() + not.len(), active.len(), "case {case}");
        assert_eq!(stable.intersection_len(&not), 0, "case {case}");
        assert_eq!(stable.union(&not).len(), active.len(), "case {case}");
        assert_eq!(
            stable.intersection_len(&active),
            stable.len(),
            "case {case}"
        );
    }
}

#[test]
fn prefix_stability_dominates() {
    let mut g = Gen::new(27);
    for case in 0..CASES {
        let (obs, reference) = store(&g.history());
        let params = StabilityParams::three_day();
        let stable = obs.stable_on(reference, &params);
        let stable64 = obs
            .prefix_view(PrefixLen::lit::<64>())
            .stable_on(reference, &params);
        for a in stable.iter() {
            assert!(
                stable64.contains(a.mask(PrefixLen::lit::<64>())),
                "case {case}: {a}"
            );
        }
    }
}

#[test]
fn ccdf_laws() {
    let mut g = Gen::new(28);
    for case in 0..CASES {
        let n = g.range(1, 200) as usize;
        let samples: Vec<u64> = (0..n).map(|_| g.below(5_000)).collect();
        let c = Ccdf::new(samples.clone());
        let min = *samples.iter().min().unwrap();
        assert!((c.proportion_ge(min) - 1.0).abs() < 1e-12, "case {case}");
        assert_eq!(c.proportion_ge(c.max() + 1), 0.0, "case {case}");
        let steps = c.steps();
        for w in steps.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 > w[1].1, "case {case}");
        }
        for &(x, prop_at) in &steps {
            assert!((c.proportion_ge(x) - prop_at).abs() < 1e-12, "case {case}");
        }
    }
}

#[test]
fn box_stats_ordered() {
    let mut g = Gen::new(29);
    for case in 0..CASES {
        let n = g.range(1, 120) as usize;
        let samples: Vec<f64> = (0..n).map(|_| g.below(1_000_000) as f64).collect();
        let b = BoxStats::of(&samples).unwrap();
        assert!(
            b.min <= b.p5 && b.p5 <= b.p25 && b.p25 <= b.median,
            "case {case}"
        );
        assert!(
            b.median <= b.p75 && b.p75 <= b.p95 && b.p95 <= b.max,
            "case {case}"
        );
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(b.min, lo, "case {case}");
        assert_eq!(b.max, hi, "case {case}");
        assert_eq!(b.count, samples.len(), "case {case}");
    }
}

#[test]
fn density_report_consistency() {
    let mut g = Gen::new(30);
    for case in 0..CASES {
        let set = AddrSet::from_iter(g.clustered_addrs());
        let n = g.range(1, 4);
        let p = g.range(96, 125) as u8;
        let class = DensityClass::new(n, p);
        let report = class.report(&set);
        let dense_addrs = class.dense_addresses(&set);
        assert_eq!(
            dense_addrs.len() as u64,
            report.covered_addresses,
            "case {case}"
        );
        let prefixes = class.dense_prefixes(&set);
        assert_eq!(prefixes.len(), report.dense_prefixes, "case {case}");
        for a in dense_addrs.iter() {
            assert!(
                prefixes.iter().any(|d| d.prefix.contains_addr(a)),
                "case {case}: {a}"
            );
        }
        for d in &prefixes {
            for a in set.iter().filter(|&a| d.prefix.contains_addr(a)) {
                assert!(dense_addrs.contains(a), "case {case}: {a}");
            }
        }
    }
}
