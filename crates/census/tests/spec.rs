//! The kernels checked against the paper's §5 definitions.
//!
//! `spec` writes each definition out literally, by brute force over
//! sorted vectors, ordered sets and per-address day bit sets (no maps,
//! so the file runs in seconds in a debug build), and calls none of the
//! code it checks:
//!
//! * nd-stable (§5.1): active on the reference day `r` and on some
//!   observed day `d` in `[r − back, r + fwd]` with `|d − r| ≥ n + slew`,
//!   and the gap accounting of each `GapPolicy` as its documentation
//!   states it;
//! * `n_p` (§5.2.1): the number of distinct /p blocks, and
//!   γ^k_p = n_{p+k} / n_p;
//! * n@/p-dense at a fixed p (§5.2.2): every /p block holding at least
//!   n addresses, and the addresses inside those blocks;
//! * densify (§5.2.3): every prefix of length ≤ 127 of an observed
//!   address that holds at least n addresses at density at least
//!   n/2^(128−p), less those with a qualifying proper ancestor;
//! * 6m/1y-stable (§5.1, Table 2): the intersection of two unions.
//!
//! The kernels run on seeded synthetic worlds (scale 0.02, seeds 7 and
//! 59, the 21 days around 2015-03-17), on the same window with days
//! carved out, and on hand-written edge sets. Every case has a
//! non-empty expected answer for at least one parameter set. The
//! serving snapshot's per-day counts are checked as each world's days
//! land, in order, one late into its gap and one merged into an
//! earlier day, under 3d-stable and an asymmetric, slewed window. Three
//! metamorphic relations close the file: shifting every day shifts
//! every verdict, moving a /32 onto an unused /32 keeps its own counts
//! and every count at /32 and longer, and permuting and duplicating a
//! day log's lines keeps its address sets.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the memo is a lookup table, never iterated; the tests build their fixtures with std::fs"
)]

use std::collections::HashMap;
use std::sync::OnceLock;

use v6census_addr::{Addr, PrefixLen};
use v6census_census::snapshot::Snapshot;
use v6census_census::{Census, DaySummary, IngestConfig, StreamIngestor};
use v6census_core::daylog;
use v6census_core::spatial::{DensityClass, MraCurve, MraResolution};
use v6census_core::temporal::{DailyObservations, Day, GapPolicy, StabilityParams, VerdictQuality};
use v6census_synth::rng::splitmix64;
use v6census_synth::world::epochs;
use v6census_synth::{DayLog, World, WorldConfig};
use v6census_trie::{
    dense_prefixes, dense_prefixes_at, AddrSet, AggregateCounts, DensePrefix, RadixTree,
};

/// The paper's definitions, by brute force.
mod spec {
    use std::collections::BTreeSet;
    use v6census_core::temporal::{Day, GapPolicy, StabilityParams, VerdictQuality};

    /// A set of addresses.
    pub type Set = BTreeSet<u128>;
    /// A prefix as `(first address, length, addresses inside)`.
    pub type Dense = (u128, u32, u64);
    /// For each length L = 0..=128, the /L blocks holding an address of
    /// a set, ascending, with the number of addresses inside.
    pub type Blocks = Vec<Vec<(u128, u64)>>;

    /// Daily observations: the days observed at all, and the days on
    /// which each address was active, as a bit set.
    #[derive(Clone, Debug)]
    pub struct Days {
        /// The day bit 0 stands for; bits cover `base..base + 128`.
        base: i32,
        /// Every observed day, those with no active address included.
        pub observed: BTreeSet<i32>,
        /// Each address with its active days, bit `d − base` for day
        /// `d`; ascending by address.
        active: Vec<(u128, u128)>,
    }

    impl Days {
        /// No observations; days may range over `base..base + 128`.
        pub fn new(base: i32) -> Days {
            Days {
                base,
                observed: BTreeSet::new(),
                active: Vec::new(),
            }
        }

        /// The bits of those of `days` that a bit can stand for: no
        /// other day can have been observed.
        fn bits(&self, days: impl IntoIterator<Item = i32>) -> u128 {
            days.into_iter()
                .filter_map(|d| u32::try_from(d - self.base).ok())
                .filter(|&i| i < 128)
                .fold(0, |bits, i| bits | 1 << i)
        }

        /// Every day a bit can stand for.
        fn span(&self) -> std::ops::Range<i32> {
            self.base..self.base + 128
        }

        /// Records `addrs` as active on `day`.
        pub fn record(&mut self, day: i32, addrs: impl IntoIterator<Item = u128>) {
            let bit = self.bits([day]);
            assert_ne!(bit, 0, "day {day} is outside the bit set");
            self.observed.insert(day);
            self.active.extend(addrs.into_iter().map(|a| (a, bit)));
            self.active.sort_by_key(|&(a, _)| a);
            self.active.dedup_by(|(a, days), (kept, kept_days)| {
                let same = a == kept;
                if same {
                    *kept_days |= *days;
                }
                same
            });
        }

        /// The addresses whose active days meet `all` of `masks`.
        fn select(&self, masks: &[u128]) -> Set {
            let hit = |active: u128| masks.iter().all(|&m| active & m != 0);
            self.active
                .iter()
                .filter(|&&(_, active)| hit(active))
                .map(|&(a, _)| a)
                .collect()
        }

        /// The addresses active on some day of `days`.
        pub fn union(&self, days: impl IntoIterator<Item = i32>) -> Set {
            self.select(&[self.bits(days)])
        }
    }

    /// `a` with every bit after the first `len` cleared.
    pub fn mask(a: u128, len: u32) -> u128 {
        match len {
            0 => 0,
            len => a & (u128::MAX << (128 - len)),
        }
    }

    /// nd-stable (§5.1): the addresses active on `r` that are also
    /// active on some observed day `d` in `[r − back, r + fwd]` with
    /// `|d − r| ≥ n + slew`, over unbounded integers (`i64` holds every
    /// sum and difference of a day and a `u32`).
    pub fn stable_on(days: &Days, r: i32, params: &StabilityParams) -> Set {
        let at = i64::from(r);
        let window = at - i64::from(params.back)..=at + i64::from(params.fwd);
        let min = u64::from(params.n) + u64::from(params.slew_tolerance);
        let witness = |d: &i32| {
            let d = i64::from(*d);
            window.contains(&d) && d.abs_diff(at) >= min
        };
        let witnesses = days.bits(days.span().filter(witness));
        days.select(&[days.bits([r]), witnesses])
    }

    /// The gap-aware verdict as `GapPolicy` documents it. The window's
    /// never-observed days are its gaps. With none, or under
    /// `AssumeInactive`, the verdict is nd-stability as above and
    /// complete. An unobserved reference day gives an empty, unknown
    /// verdict. `Flag` keeps the window and marks the verdict unknown;
    /// `Widen` reaches one day further on each side per gap day on that
    /// side, at most `max_extra` days per side.
    pub fn stable_on_gapped(
        days: &Days,
        r: i32,
        params: &StabilityParams,
        policy: GapPolicy,
    ) -> (Set, VerdictQuality) {
        let window = (r - params.back as i32)..=(r + params.fwd as i32);
        let gaps: Vec<i32> = window.filter(|d| !days.observed.contains(d)).collect();
        let unknown = VerdictQuality::Unknown {
            missing: gaps.iter().map(|&d| Day(d)).collect(),
        };
        if gaps.is_empty() || policy == GapPolicy::AssumeInactive {
            return (stable_on(days, r, params), VerdictQuality::Complete);
        }
        if !days.observed.contains(&r) {
            return (Set::new(), unknown);
        }
        match policy {
            GapPolicy::Widen { max_extra } => {
                let side = |before: bool| {
                    let n = gaps.iter().filter(|&&d| (d < r) == before).count();
                    u32::try_from(n).unwrap().min(max_extra)
                };
                let (back_extra, fwd_extra) = (side(true), side(false));
                let widened = StabilityParams {
                    back: params.back + back_extra,
                    fwd: params.fwd + fwd_extra,
                    ..*params
                };
                let quality = VerdictQuality::Widened {
                    back_extra,
                    fwd_extra,
                };
                (stable_on(days, r, &widened), quality)
            }
            _ => (stable_on(days, r, params), unknown),
        }
    }

    /// Table 2c/2d: the addresses active in the week from `first`, and
    /// those nd-stable on at least one of its days.
    pub fn week(days: &Days, first: i32, params: &StabilityParams) -> (Set, Set) {
        let week = first..first + 7;
        let stable = week.clone().flat_map(|d| stable_on(days, d, params));
        (days.union(week), stable.collect())
    }

    /// 6m/1y-stable: active in the current epoch and in the earlier
    /// one, each epoch the union of its days.
    pub fn epoch_stable(days: &Days, current: &[i32], earlier: &[i32]) -> Set {
        let (now, then) = (
            days.union(current.iter().copied()),
            days.union(earlier.iter().copied()),
        );
        now.intersection(&then).copied().collect()
    }

    /// Every /L block, L = 0..=128, holding an address of `set`: the
    /// paper's footnote 3, `sort | cut -c1-$((p/4)) | uniq -c`, at
    /// every length.
    pub fn blocks(set: &Set) -> Blocks {
        (0..=128)
            .map(|len| {
                let mut at: Vec<(u128, u64)> = Vec::new();
                // `set` ascends, so equal masked addresses are adjacent.
                for &a in set {
                    let key = mask(a, len);
                    match at.last_mut() {
                        Some((last, count)) if *last == key => *count += 1,
                        _ => at.push((key, 1)),
                    }
                }
                at
            })
            .collect()
    }

    /// n_p: the number of distinct /p blocks.
    pub fn n_p(blocks: &Blocks, p: u32) -> u64 {
        blocks[p as usize].len() as u64
    }

    /// γ^k_p = n_{p+k} / n_p.
    pub fn gamma(blocks: &Blocks, p: u32, k: u32) -> f64 {
        n_p(blocks, p + k) as f64 / n_p(blocks, p) as f64
    }

    /// n@/p-dense at a fixed p: every /p block holding at least n
    /// addresses.
    pub fn dense_at(blocks: &Blocks, n: u64, p: u32) -> Vec<Dense> {
        blocks[p as usize]
            .iter()
            .filter(|&&(_, c)| c >= n)
            .map(|&(key, c)| (key, p, c))
            .collect()
    }

    /// The addresses of `set` inside its n@/p-dense blocks.
    pub fn dense_addresses(set: &Set, blocks: &Blocks, n: u64, p: u32) -> Set {
        let at = &blocks[p as usize];
        let count = |a: u128| at[at.binary_search_by_key(&mask(a, p), |&(k, _)| k).unwrap()].1;
        set.iter().copied().filter(|&a| count(a) >= n).collect()
    }

    /// densify (§5.2.3): the prefixes of length L ≤ 127 that qualify,
    /// holding `count ≥ n` addresses at density `count / 2^(128−L)` at
    /// least `n / 2^(128−p)`, i.e. `count · 2^(L−p) ≥ n`, less every one
    /// with a qualifying proper ancestor. Ascending by address.
    pub fn densify(blocks: &Blocks, n: u64, p: u32) -> Vec<Dense> {
        // Exact in f64: counts stay far below 2^53, and scaling by a
        // power of two in 2^-128..=2^127 only moves the exponent.
        let qualifies =
            |len: u32, c: u64| c >= n && c as f64 * 2f64.powi(len as i32 - p as i32) >= n as f64;
        let mut out = Vec::new();
        // For each block one bit shorter: whether it or one of its
        // ancestors qualifies, i.e. whether its children have a
        // qualifying proper ancestor.
        let mut covered: Vec<bool> = Vec::new();
        for len in 0..128u32 {
            let (at, mut parent) = (&blocks[len as usize], 0);
            let mut next = Vec::with_capacity(at.len());
            for &(key, c) in at {
                // Parents ascend as their children do.
                let shadowed = len > 0 && {
                    let up = &blocks[len as usize - 1];
                    while up[parent].0 != mask(key, len - 1) {
                        parent += 1;
                    }
                    covered[parent]
                };
                let qualifying = qualifies(len, c);
                if qualifying && !shadowed {
                    out.push((key, len, c));
                }
                next.push(qualifying || shadowed);
            }
            covered = next;
        }
        out.sort_unstable();
        out
    }
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

const SEEDS: [u64; 2] = [7, 59];

/// Offsets from the reference day carved out of the window for the gap
/// policies: gaps on both sides of most reference days, two adjacent,
/// and two reference days that were never observed.
const CARVED: [i32; 5] = [-5, -2, 3, 4, 9];

fn reference() -> Day {
    epochs::mar2015()
}

/// The 21 day logs `reference − 7 ..= reference + 13` of each seed's
/// world, built once per test binary.
fn worlds() -> &'static [(u64, Vec<DayLog>)] {
    static WORLDS: OnceLock<Vec<(u64, Vec<DayLog>)>> = OnceLock::new();
    WORLDS.get_or_init(|| {
        SEEDS
            .iter()
            .map(|&seed| {
                let world = World::standard(WorldConfig { seed, scale: 0.02 });
                let r = reference();
                let logs = (r - 7).range_inclusive(r + 13);
                (seed, logs.map(|d| world.day_log(d)).collect())
            })
            .collect()
    })
}

/// A world's logs, less the [`CARVED`] days when `carve` is set.
fn window(logs: &[DayLog], carve: bool) -> impl Iterator<Item = &DayLog> {
    let carved = move |day: Day| carve && CARVED.iter().any(|&o| day == reference() + o);
    logs.iter().filter(move |l| !carved(l.day))
}

fn case_label(seed: u64, carve: bool) -> String {
    format!("seed {seed}{}", if carve { " carved" } else { "" })
}

/// Hand-written days around the reference day: for each offset `o`, an
/// address active on the reference day and on `reference + o`, so every
/// window edge and distance threshold has a witness on both sides. Day
/// `+5` is observed and empty; `-5`, `-4` and `+4` are never observed.
fn edge_observations() -> DailyObservations {
    let r = reference();
    let offsets = [-9, -8, -7, -6, -3, -2, -1, 1, 2, 3, 6, 7, 8, 9];
    let tag = |o: i32| Addr(0x2001_0db8_0000_0000_0000_0000_0000_0100 + (o + 100) as u128);
    let only_today = Addr(0x2001_0db8_0000_0000_0000_0000_0000_0001);
    let mut obs = DailyObservations::new();
    obs.record(
        r,
        AddrSet::from_iter(offsets.iter().map(|&o| tag(o)).chain([only_today])),
    );
    for o in offsets {
        obs.record(r + o, AddrSet::from_iter([tag(o)]));
    }
    obs.record(r + 5, AddrSet::new());
    obs
}

/// One temporal case: the kernels' store and the oracle's.
struct TemporalCase {
    label: String,
    /// True when days inside some checked window were never observed.
    gaps: bool,
    obs: DailyObservations,
    days: spec::Days,
}

/// Every temporal case, built once: each world's whole and carved
/// window, then the hand-written days.
fn temporal_cases() -> &'static [TemporalCase] {
    static CASES: OnceLock<Vec<TemporalCase>> = OnceLock::new();
    CASES.get_or_init(|| {
        let mut out = Vec::new();
        for (seed, logs) in worlds() {
            for carve in [false, true] {
                let mut obs = DailyObservations::new();
                for log in window(logs, carve) {
                    obs.record(log.day, AddrSet::from_iter(log.addrs()));
                }
                out.push((case_label(*seed, carve), carve, obs));
            }
        }
        out.push(("edge days".to_string(), true, edge_observations()));
        out.into_iter()
            .map(|(label, gaps, obs)| TemporalCase {
                label,
                gaps,
                days: days_of(&obs),
                obs,
            })
            .collect()
    })
}

/// The cases with gaps, for the gap policies.
fn gapped_cases() -> impl Iterator<Item = &'static TemporalCase> {
    temporal_cases().iter().filter(|c| c.gaps)
}

/// Hand-written address sets for the spatial kernels.
fn edge_sets() -> Vec<(&'static str, Vec<u128>)> {
    const DB8: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
    const FAR: u128 = 0x2400_0000_0000_0000_0000_0000_0000_0001;
    // 2^i addresses in the i-th /64: every density threshold is met
    // exactly somewhere.
    let ladder = (0..8u128).flat_map(|i| (0..1u128 << i).map(move |j| DB8 | (i << 64) | j));
    // Runs that are not powers of two, in sibling /112s.
    let uneven = [3u128, 5, 6, 7, 9]
        .into_iter()
        .enumerate()
        .flat_map(|(i, c)| (0..c).map(move |j| DB8 | ((i as u128) << 16) | (j * 3)));
    vec![
        ("paper §5.2.2 example", vec![DB8 | 1, DB8 | 4, FAR]),
        ("single address", vec![DB8 | 1]),
        (
            "both ends of the space",
            vec![0, 1, u128::MAX - 1, u128::MAX],
        ),
        (
            "a full /120 and a stray",
            (0..256).map(|j| DB8 | j).chain([FAR]).collect(),
        ),
        ("power-of-two ladder", ladder.collect()),
        ("uneven /112 runs", uneven.collect()),
    ]
}

/// One spatial case: a label, the kernels' set, and the oracle's set
/// and blocks.
type SpatialCase = (String, AddrSet, spec::Set, spec::Blocks);

/// Every spatial case, built once: each world's reference day, then the
/// edge sets.
fn spatial_cases() -> &'static [SpatialCase] {
    static CASES: OnceLock<Vec<SpatialCase>> = OnceLock::new();
    CASES.get_or_init(|| {
        let mut sets: Vec<(String, AddrSet)> = worlds()
            .iter()
            .map(|(seed, logs)| {
                let log = logs.iter().find(|l| l.day == reference()).unwrap();
                (format!("seed {seed}"), AddrSet::from_iter(log.addrs()))
            })
            .collect();
        for (label, keys) in edge_sets() {
            sets.push((label.to_string(), AddrSet::from_keys(keys)));
        }
        sets.into_iter()
            .map(|(label, set)| {
                let keys = set_of(&set);
                let blocks = spec::blocks(&keys);
                (label, set, keys, blocks)
            })
            .collect()
    })
}

/// `(n, p)` pairs for densify and the fixed-length classes: the paper's
/// 2@/112, the table parameters, and n that are not powers of two.
const DENSITY_PARAMS: [(u64, u8); 8] = [
    (1, 128),
    (1, 64),
    (2, 112),
    (2, 48),
    (3, 100),
    (4, 64),
    (5, 126),
    (8, 112),
];

/// nd-stability parameters: the paper's 3d-stable, the shortest and
/// longest distances the ±7-day window admits, an asymmetric window
/// with slew, and three whose window bounds or distance do not fit an
/// `i32` or a `u32`: a distance no two days of a window are apart, a
/// window reaching past every day, and `n + slew` past `u32::MAX`.
fn stability_params() -> [StabilityParams; 7] {
    [
        StabilityParams::three_day(),
        StabilityParams::nd(1),
        StabilityParams::nd(7),
        StabilityParams::nd(2).with_window(3, 5).with_slew(1),
        StabilityParams::nd(3_000_000_000),
        StabilityParams::nd(3).with_window(3_000_000_000, 3_000_000_000),
        StabilityParams::nd(u32::MAX).with_slew(2),
    ]
}

/// The parameters the composite classes and the gap policies are
/// checked under: 3d-stable, and 7d-stable, whose witnesses sit at the
/// window's edges, where widening matters.
fn composite_params() -> [StabilityParams; 2] {
    [StabilityParams::three_day(), StabilityParams::nd(7)]
}

const POLICIES: [GapPolicy; 4] = [
    GapPolicy::AssumeInactive,
    GapPolicy::Flag,
    GapPolicy::Widen { max_extra: 1 },
    GapPolicy::Widen { max_extra: 7 },
];

fn set_of(s: &AddrSet) -> spec::Set {
    s.keys().iter().copied().collect()
}

/// The oracle's day bit sets start 40 days before the reference day,
/// which covers every window and widening checked here.
fn oracle_days() -> spec::Days {
    spec::Days::new(reference().0 - 40)
}

fn days_of(obs: &DailyObservations) -> spec::Days {
    let mut days = oracle_days();
    for d in obs.days() {
        days.record(d.0, obs.on(d).keys().iter().copied());
    }
    days
}

fn dense_of(found: &[DensePrefix]) -> Vec<spec::Dense> {
    found
        .iter()
        .map(|d| (d.prefix.addr().0, u32::from(d.prefix.len().get()), d.count))
        .collect()
}

fn plen(p: u8) -> PrefixLen {
    PrefixLen::new(p).unwrap()
}

/// The reference days whose verdicts are checked: the reference week,
/// plus the window's first and last day, whose reach runs past the
/// observed days.
fn checked_days() -> impl Iterator<Item = Day> {
    let r = reference();
    r.range_inclusive(r + 6).chain([r - 7, r + 13])
}

// ---------------------------------------------------------------------
// Spatial kernels
// ---------------------------------------------------------------------

fn tree_of(set: &AddrSet) -> RadixTree {
    let mut tree = RadixTree::new();
    for a in set.iter() {
        tree.insert_addr(a, 1);
    }
    tree
}

#[test]
fn trie_holds_exactly_the_inserted_hosts() {
    for (label, set, keys, _) in spatial_cases() {
        let tree = tree_of(set);
        // The trie holds exactly what was inserted, in address order.
        let held: Vec<(u128, u64)> = tree
            .entries()
            .iter()
            .map(|&(p, c)| {
                assert_eq!(p.len(), PrefixLen::MAX, "{label}: {p} is not a host");
                (p.addr().0, c)
            })
            .collect();
        let inserted: Vec<(u128, u64)> = keys.iter().map(|&a| (a, 1)).collect();
        assert!(!inserted.is_empty(), "{label}: nothing was inserted");
        assert_eq!(held, inserted, "{label}: trie entries");
    }
}

#[test]
fn densify_matches_the_definition() {
    for (label, set, _, blocks) in spatial_cases() {
        let mut tree = tree_of(set);
        let mut any = false;
        for (n, p) in DENSITY_PARAMS {
            let want = spec::densify(blocks, n, u32::from(p));
            any |= !want.is_empty();
            let got = tree.densify(n, plen(p));
            assert_eq!(dense_of(&got), want, "{label}: densify({n}, {p})");
            let budgeted = tree.densify_budgeted(n, plen(p), 0);
            assert!(!budgeted.degraded, "{label}: a zero budget degraded");
            let what = format!("{label}: densify_budgeted({n}, {p}, 0)");
            assert_eq!(dense_of(&budgeted.dense), want, "{what}");
        }
        assert!(any, "{label}: no parameter set finds a dense prefix");
    }
}

#[test]
fn fixed_length_dense_classes_match_the_definition() {
    for (label, set, keys, blocks) in spatial_cases() {
        let mut any = false;
        for (n, p) in DENSITY_PARAMS {
            let want = spec::dense_at(blocks, n, u32::from(p));
            any |= !want.is_empty();
            let got = dense_prefixes(set, n, plen(p));
            assert_eq!(dense_of(&got), want, "{label}: dense_prefixes({n}, {p})");
            let got = dense_prefixes_at(set, n, p);
            assert_eq!(dense_of(&got), want, "{label}: dense_prefixes_at({n}, {p})");
            let class = DensityClass::at(n, plen(p));
            assert_eq!(
                set_of(&class.dense_addresses(set)),
                spec::dense_addresses(keys, blocks, n, u32::from(p)),
                "{label}: {class} dense_addresses"
            );
        }
        assert!(any, "{label}: no parameter set finds a dense block");
    }
}

#[test]
fn aggregate_counts_and_mra_ratios_match_the_definition() {
    for (label, set, _, blocks) in spatial_cases() {
        let counts = AggregateCounts::of(set);
        assert_eq!(counts.total(), set.len() as u64, "{label}: total");
        for p in PrefixLen::all() {
            let want = spec::n_p(blocks, u32::from(p.get()));
            assert_eq!(counts.n(p), want, "{label}: n_{p}");
        }
        let mra = MraCurve::of(set);
        for res in [
            MraResolution::SingleBit,
            MraResolution::Nybble,
            MraResolution::Byte,
            MraResolution::Segment16,
        ] {
            let k = u32::from(res.k());
            for p in 0..=128 - k {
                let want = spec::gamma(blocks, p, k);
                assert_eq!(mra.ratio(plen(p as u8), res), want, "{label}: γ^{k}_{p}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Temporal kernels
// ---------------------------------------------------------------------

#[test]
fn stable_on_matches_the_definition() {
    for case in temporal_cases() {
        let label = &case.label;
        let mut any = false;
        for params in stability_params() {
            for r in checked_days() {
                let want = spec::stable_on(&case.days, r.0, &params);
                any |= !want.is_empty();
                let got = set_of(&case.obs.stable_on(r, &params));
                assert_eq!(got, want, "{label}: stable_on({r}, {})", params.label());
            }
        }
        assert!(any, "{label}: nothing is ever stable");
    }
}

#[test]
fn gap_policies_match_their_documentation() {
    for case in gapped_cases() {
        let label = &case.label;
        let mut any = false;
        for params in composite_params() {
            for r in checked_days() {
                for policy in POLICIES {
                    let (want, quality) = spec::stable_on_gapped(&case.days, r.0, &params, policy);
                    any |= !want.is_empty();
                    let got = case.obs.stable_on_gapped(r, &params, policy);
                    let what = format!("{label}: {r}, {}, {policy:?}", params.label());
                    assert_eq!(set_of(&got.stable), want, "{what}");
                    assert_eq!(got.quality, quality, "{what}");
                }
            }
        }
        assert!(any, "{label}: nothing is ever stable");
    }
}

#[test]
fn weekly_and_epoch_classes_match_the_definition() {
    let r = reference();
    let week: Vec<i32> = (r.0..r.0 + 7).collect();
    let before: Vec<i32> = (r.0 - 7..r.0).collect();
    for case in temporal_cases() {
        let (label, obs, days) = (&case.label, &case.obs, &case.days);
        for params in composite_params() {
            let got = obs.stable_over_week(r, &params);
            let (active, stable) = spec::week(days, r.0, &params);
            let not_stable: spec::Set = active.difference(&stable).copied().collect();
            let what = format!("{label}: week of {r}, {}", params.label());
            assert!(!stable.is_empty(), "{what}: nothing stable");
            assert_eq!(set_of(&got.active), active, "{what}: active");
            assert_eq!(set_of(&got.stable), stable, "{what}: stable");
            assert_eq!(set_of(&got.not_stable), not_stable, "{what}: not stable");
        }
        let days_of = |ds: &[i32]| ds.iter().map(|&d| Day(d)).collect::<Vec<_>>();
        let got = obs.epoch_stable(days_of(&week), days_of(&before));
        let want = spec::epoch_stable(days, &week, &before);
        assert!(!want.is_empty(), "{label}: no address spans both epochs");
        assert_eq!(set_of(&got.stable), want, "{label}: epoch_stable");
        let base = days.union(week.iter().copied()).len();
        assert_eq!(got.current_total, base, "{label}: epoch base");
    }
}

/// The deliveries a serving daemon sees for one world: the window's
/// days in order, less one held back (the carved `reference + 3`, or
/// `reference + 2` when nothing is carved) that lands late into its
/// gap, then a duplicate delivery of `reference + 1` carrying
/// `reference + 5`'s addresses, merged into the earlier day.
fn deliveries(logs: &[DayLog], carve: bool) -> Vec<DayLog> {
    let r = reference();
    let held = if carve { r + 3 } else { r + 2 };
    let mut out: Vec<DayLog> = window(logs, carve)
        .filter(|l| l.day != held)
        .cloned()
        .collect();
    let of = |day: Day| logs.iter().find(|l| l.day == day).cloned();
    out.extend(of(held));
    out.extend(of(r + 5).map(|log| DayLog { day: r + 1, ..log }));
    out
}

#[test]
fn snapshot_day_stats_match_the_definition_as_days_land() {
    let skewed = StabilityParams::nd(2).with_window(3, 6).with_slew(1);
    for params in [StabilityParams::three_day(), skewed] {
        for ((seed, logs), carve) in worlds().iter().zip([false, true]) {
            let label = format!("{}, {}", case_label(*seed, carve), params.label());
            // A day's counts read only the observed days of its window
            // and the deliveries merged so far, so they are memoized on
            // them.
            let mut memo: HashMap<(i32, Vec<i32>, usize), (usize, spec::Set)> = HashMap::new();
            let mut days = oracle_days();
            let (mut census, mut merged) = (Census::new_empty(), 0);
            let mut snapshot: Option<Snapshot> = None;
            let (mut late, mut dup) = (false, false);
            for log in deliveries(logs, carve) {
                let last = days.observed.last().copied();
                late |= last.is_some_and(|d| log.day.0 < d) && !census.has_day(log.day);
                if census.has_day(log.day) {
                    (merged, dup) = (merged + 1, true);
                }
                census.ingest(&log);
                let landed = census.other_daily().on(log.day);
                days.record(log.day.0, landed.keys().iter().copied());
                let next = match &snapshot {
                    None => Snapshot::build(census.clone(), params, DensityClass::at(2, plen(112))),
                    Some(prev) => prev.advance(census.clone()),
                };
                let r = *days.observed.last().expect("a day landed");
                assert_eq!(next.reference, Some(Day(r)), "{label}: reference");
                let mut stable_days = 0;
                for stat in &next.stats.daily {
                    let (on, d) = (stat.day, stat.day.0);
                    let window = d - params.back as i32..=d + params.fwd as i32;
                    let seen = days.observed.range(window).copied().collect();
                    let (active, stable) = memo.entry((d, seen, merged)).or_insert_with(|| {
                        let active = days.union([d]).len();
                        (active, spec::stable_on(&days, d, &params))
                    });
                    let what = format!("{label}: {on} after {} lands", log.day);
                    assert_eq!(stat.active, *active, "{what}: active");
                    assert_eq!(stat.stable, stable.len(), "{what}: stable");
                    if d == r {
                        assert_eq!(set_of(&next.stable), *stable, "{what}: stable set");
                    }
                    stable_days += usize::from(!stable.is_empty());
                }
                let generation = days.observed.len() as u64;
                assert_eq!(next.generation, generation, "{label}: generation");
                assert!(generation < 4 || stable_days > 0, "{label}: nothing stable");
                snapshot = Some(next);
            }
            assert!(late && dup, "{label}: a late and a merged delivery landed");
        }
    }
}

// ---------------------------------------------------------------------
// Metamorphic relations
// ---------------------------------------------------------------------

#[test]
fn shifting_every_day_shifts_every_verdict() {
    let r = reference();
    for case in gapped_cases() {
        let (label, obs) = (&case.label, &case.obs);
        for shift in [9, -400] {
            let mut moved = DailyObservations::new();
            for d in obs.days() {
                moved.record(d + shift, obs.on(d));
            }
            for params in composite_params() {
                for r in r.range_inclusive(r + 6) {
                    for policy in POLICIES {
                        let here = obs.stable_on_gapped(r, &params, policy);
                        let there = moved.stable_on_gapped(r + shift, &params, policy);
                        let what =
                            format!("{label}: {r} + {shift}, {}, {policy:?}", params.label());
                        assert_eq!(there.stable, here.stable, "{what}");
                        let want = match here.quality {
                            VerdictQuality::Unknown { missing } => VerdictQuality::Unknown {
                                missing: missing.into_iter().map(|d| d + shift).collect(),
                            },
                            q => q,
                        };
                        assert_eq!(there.quality, want, "{what}");
                    }
                }
            }
        }
    }
}

/// The MRA ratios γ^k_p of `set` at every resolution, for the `p`
/// that `keep` selects.
fn mra_ratios(set: &AddrSet, keep: impl Fn(u8) -> bool) -> Vec<(u8, u8, f64)> {
    let mra = MraCurve::of(set);
    let mut out = Vec::new();
    for res in [
        MraResolution::SingleBit,
        MraResolution::Nybble,
        MraResolution::Byte,
        MraResolution::Segment16,
    ] {
        for p in (0..=128 - res.k()).filter(|&p| keep(p)) {
            out.push((p, res.k(), mra.ratio(plen(p), res)));
        }
    }
    out
}

/// The aggregate counts n_p of `set` for the `p` that `keep` selects.
fn counts(set: &AddrSet, keep: impl Fn(u8) -> bool) -> Vec<(u8, u64)> {
    let counts = AggregateCounts::of(set);
    PrefixLen::all()
        .filter(|p| keep(p.get()))
        .map(|p| (p.get(), counts.n(p)))
        .collect()
}

#[test]
fn moving_a_slash_32_keeps_every_count_at_slash_32_and_longer() {
    let within = |a: u128| a & (u128::MAX >> 32);
    for (seed, logs) in worlds() {
        let log = logs.iter().find(|l| l.day == reference()).unwrap();
        let keys: Vec<u128> = log.addrs().map(|a| a.0).collect();
        // The most populated /32, and the first /32 above it holding no
        // address of the day.
        let top = |a: u128| a >> 96;
        let mut sizes: Vec<(u128, usize)> = Vec::new();
        for &k in &keys {
            match sizes.last_mut() {
                Some((t, n)) if *t == top(k) => *n += 1,
                _ => sizes.push((top(k), 1)),
            }
        }
        let (from, size) = *sizes.iter().max_by_key(|&&(_, n)| n).unwrap();
        let to = (from + 1..)
            .find(|t| sizes.iter().all(|&(u, _)| u != *t))
            .unwrap();
        assert!(
            size > 1 && sizes.len() > 1,
            "seed {seed}: one /32 or one address"
        );
        let moved = |k: u128| {
            if top(k) == from {
                (to << 96) | within(k)
            } else {
                k
            }
        };

        let own = AddrSet::from_keys(keys.iter().copied().filter(|&k| top(k) == from).collect());
        let own_moved = AddrSet::from_keys(own.keys().iter().map(|&k| moved(k)).collect());
        let any = |_: u8| true;
        let what = format!("seed {seed}: /32 {from:#x} → {to:#x}");
        assert_eq!(
            counts(&own_moved, any),
            counts(&own, any),
            "{what}: its n_p"
        );
        assert_eq!(
            mra_ratios(&own_moved, any),
            mra_ratios(&own, any),
            "{what}: its γ"
        );

        let all = AddrSet::from_keys(keys.clone());
        let all_moved = AddrSet::from_keys(keys.iter().map(|&k| moved(k)).collect());
        let long = |p: u8| p >= 32;
        assert_eq!(
            counts(&all_moved, long),
            counts(&all, long),
            "{what}: n_p, p ≥ 32"
        );
        assert_eq!(
            mra_ratios(&all_moved, long),
            mra_ratios(&all, long),
            "{what}: γ, p ≥ 32"
        );
    }
}

#[test]
fn permuted_and_duplicated_day_log_keeps_its_address_sets() {
    let dir = std::env::temp_dir().join(format!("v6census-spec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ingest = StreamIngestor::new(IngestConfig::default());
    let summary = |name: &str, text: &str| -> DaySummary {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let parsed = ingest.parse_file(&path).unwrap();
        assert_eq!(parsed.report.bad_lines, 0, "{name}");
        parsed.summary.unwrap()
    };
    let sets =
        |s: &DaySummary| [&s.teredo, &s.isatap, &s.sixtofour, &s.other, &s.eui64].map(set_of);
    for (seed, logs) in worlds() {
        let log = logs.iter().find(|l| l.day == reference()).unwrap();
        let text = log.to_text();
        // Every line twice, then a Fisher–Yates shuffle.
        let mut lines: Vec<(Addr, u64, Option<&str>)> = log
            .entries
            .iter()
            .flat_map(|e| [(e.addr, e.hits, Some(e.kind.label())); 2])
            .collect();
        for i in (1..lines.len()).rev() {
            let j = splitmix64(seed ^ i as u64) % (i as u64 + 1);
            lines.swap(i, j as usize);
        }
        let shuffled = daylog::write(log.day, Some(daylog::KIND_COLUMNS), lines.into_iter());
        let name = |tag: &str| format!("{}-{seed}-{tag}.log", log.day);
        let before = summary(&name("sorted"), &text);
        let after = summary(&name("shuffled"), &shuffled);
        assert!(!before.other.is_empty(), "seed {seed}: empty day");
        assert_eq!(sets(&after), sets(&before), "seed {seed}: address sets");
        assert_eq!(after.eui64_macs, before.eui64_macs, "seed {seed}: MACs");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
