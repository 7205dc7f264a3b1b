//! The nd-stable classifier over daily observation sets (§5.1).

use super::Day;
use std::collections::BTreeMap;
use v6census_addr::PrefixLen;
use v6census_trie::AddrSet;

/// Parameters of an nd-stability assessment.
///
/// Definition (§5.1): an address is **nd-stable** when there exist
/// observations of activity on two different days with an intervening
/// period of at least *n−1* days — equivalently, on two days at distance
/// ≥ *n*. Assessment is relative to a reference day inside a sliding
/// window spanning `back` days before through `fwd` days after; the
/// paper's canonical window is `(-7d,+7d)`.
///
/// `slew_tolerance` accommodates the log-processing timestamp slew of
/// §4.1: aggregated logs complete up to a day after the requests occurred,
/// so two "log processed dates" at distance *k* may reflect activity as
/// close as *k − slew* days apart. A non-zero tolerance makes the
/// classifier conservative by requiring distance ≥ *n + slew* before
/// declaring nd-stability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StabilityParams {
    /// The *n* of nd-stable: minimum day distance between observations.
    pub n: u32,
    /// Window reach before the reference day, in days.
    pub back: u32,
    /// Window reach after the reference day, in days.
    pub fwd: u32,
    /// Extra distance demanded to absorb log-timestamp slew (§4.1).
    pub slew_tolerance: u32,
}

impl StabilityParams {
    /// nd-stability with the paper's canonical `(-7d,+7d)` window and no
    /// slew tolerance.
    pub const fn nd(n: u32) -> StabilityParams {
        StabilityParams {
            n,
            back: 7,
            fwd: 7,
            slew_tolerance: 0,
        }
    }

    /// The paper's headline class: `3d-stable (-7d,+7d)`.
    pub const fn three_day() -> StabilityParams {
        StabilityParams::nd(3)
    }

    /// Replaces the window, keeping n and slew.
    pub const fn with_window(self, back: u32, fwd: u32) -> StabilityParams {
        StabilityParams { back, fwd, ..self }
    }

    /// Replaces the slew tolerance.
    pub const fn with_slew(self, slew_tolerance: u32) -> StabilityParams {
        StabilityParams {
            slew_tolerance,
            ..self
        }
    }

    /// The class label in the paper's notation, e.g. `3d-stable (-7d,+7d)`.
    pub fn label(&self) -> String {
        format!("{}d-stable (-{}d,+{}d)", self.n, self.back, self.fwd)
    }

    /// Effective minimum distance between observation days, `n + slew`
    /// without wrapping.
    fn min_distance(&self) -> u64 {
        u64::from(self.n) + u64::from(self.slew_tolerance)
    }

    /// True when activity on `witness` counts toward nd-stability on
    /// `reference` (§5.1): `witness` lies in `reference`'s window and
    /// at least `n + slew` days from it. Not symmetric when
    /// `back != fwd`.
    pub fn witnesses(&self, witness: Day, reference: Day) -> bool {
        let (lo, hi) = self.window(reference);
        (lo..=hi).contains(&witness)
            && u64::from(witness.0.abs_diff(reference.0)) >= self.min_distance()
    }

    /// The window's first and last day around `reference`. A reach past
    /// the days a [`Day`] can name stops at the first or last of them,
    /// which leaves out no day.
    fn window(&self, reference: Day) -> (Day, Day) {
        let r = i64::from(reference.0);
        let day = |d: i64| Day(i32::try_from(d).unwrap_or(if d < 0 { i32::MIN } else { i32::MAX }));
        (day(r - i64::from(self.back)), day(r + i64::from(self.fwd)))
    }
}

/// Per-day sets of active addresses (or prefixes): the input to temporal
/// classification.
///
/// The same engine classifies full addresses and /64s — record /64-mapped
/// sets (via [`AddrSet::map_prefix`]) in a second store, or use
/// [`DailyObservations::prefix_view`].
///
/// A day is **covered** when it was recorded at all — possibly with an
/// empty set ("observed inactive"). A day never recorded is a **gap**
/// ("not ingested"), which is a different thing: an address absent on a
/// covered day was provably quiet; an address absent on a gap day was
/// simply not looked at. The gap-aware classifier entry point
/// [`DailyObservations::stable_on_gapped`] keeps the two apart.
#[derive(Clone, Debug, Default)]
pub struct DailyObservations {
    days: BTreeMap<Day, AddrSet>,
}

/// How the classifier treats days that were never ingested inside the
/// assessment window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GapPolicy {
    /// Legacy semantics: a gap day is treated as if every address were
    /// inactive on it. The verdict is always reported [`VerdictQuality::Complete`]
    /// because the caller explicitly opted out of gap accounting.
    AssumeInactive,
    /// Widens the window by one day per gap day on each side (capped at
    /// `max_extra` per side), recovering the witness opportunities the
    /// gaps removed.
    Widen {
        /// Maximum extra reach added to either side of the window.
        max_extra: u32,
    },
    /// Leaves the window alone but downgrades the verdict to
    /// [`VerdictQuality::Unknown`] when gaps intersect it — a "not
    /// stable" outcome cannot be trusted if witness days are missing.
    Flag,
}

/// How trustworthy a gap-aware stability verdict is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerdictQuality {
    /// Every day of the assessment window was covered (or the caller
    /// chose [`GapPolicy::AssumeInactive`]).
    Complete,
    /// The window was widened to compensate for gap days.
    Widened {
        /// Extra backward reach applied, in days.
        back_extra: u32,
        /// Extra forward reach applied, in days.
        fwd_extra: u32,
    },
    /// Gap days intersect the window (or the reference day itself was
    /// never ingested); absence of a stability witness proves nothing.
    Unknown {
        /// The uncovered days, ascending.
        missing: Vec<Day>,
    },
}

impl VerdictQuality {
    /// True when a "not stable" outcome can be taken at face value.
    pub fn is_conclusive(&self) -> bool {
        !matches!(self, VerdictQuality::Unknown { .. })
    }

    /// The position of this verdict on the run-level quality lattice:
    /// `Complete` is exact, a widened window is a degraded-but-honest
    /// answer, and uncovered days make the verdict partial.
    pub fn quality(&self) -> crate::quality::Quality {
        match self {
            VerdictQuality::Complete => crate::quality::Quality::Exact,
            VerdictQuality::Widened { .. } => crate::quality::Quality::Degraded,
            VerdictQuality::Unknown { .. } => crate::quality::Quality::Partial,
        }
    }
}

/// The outcome of [`DailyObservations::stable_on_gapped`].
#[derive(Clone, Debug)]
pub struct StabilityVerdict {
    /// Addresses assessed nd-stable on the reference day.
    pub stable: AddrSet,
    /// How trustworthy the assessment is given ingestion gaps.
    pub quality: VerdictQuality,
}

/// The outcome of a weekly stability assessment (Table 2c/2d): for each of
/// the seven days the nd-stable set is determined; the weekly classes are
/// the unions.
#[derive(Clone, Debug)]
pub struct WeeklyStability {
    /// Unique addresses active during the week.
    pub active: AddrSet,
    /// Unique addresses nd-stable on at least one day of the week.
    pub stable: AddrSet,
    /// Unique active addresses never assessed nd-stable — the paper's
    /// "not nd-stable", meaning only that stability was not witnessed.
    pub not_stable: AddrSet,
}

/// The outcome of a cross-epoch stability assessment (the `6m-stable
/// (-6m)` and `1y-stable (-1y)` rows of Table 2).
#[derive(Clone, Debug)]
pub struct EpochStability {
    /// Addresses active in the current epoch and the earlier one.
    pub stable: AddrSet,
    /// Size of the current epoch's active set (the percentage base).
    pub current_total: usize,
}

impl EpochStability {
    /// The stable fraction of the current epoch's actives.
    pub fn fraction(&self) -> f64 {
        if self.current_total == 0 {
            0.0
        } else {
            self.stable.len() as f64 / self.current_total as f64
        }
    }
}

impl DailyObservations {
    /// Creates an empty store.
    pub fn new() -> DailyObservations {
        DailyObservations::default()
    }

    /// Records (or merges) the active set observed on `day`.
    pub fn record(&mut self, day: Day, set: AddrSet) {
        self.days
            .entry(day)
            .and_modify(|existing| *existing = existing.union(&set))
            .or_insert(set);
    }

    /// The active set for a day (empty when unobserved). The returned
    /// set shares the stored one's keys: a pointer copy, not a copy of
    /// the addresses.
    pub fn on(&self, day: Day) -> AddrSet {
        self.days.get(&day).cloned().unwrap_or_default()
    }

    /// Borrowing accessor for a day's set.
    pub fn get(&self, day: Day) -> Option<&AddrSet> {
        self.days.get(&day)
    }

    /// The observed days in ascending order.
    pub fn days(&self) -> impl Iterator<Item = Day> + '_ {
        self.days.keys().copied()
    }

    /// Number of days with observations.
    pub fn day_count(&self) -> usize {
        self.days.len()
    }

    /// A store of the same days with every set mapped to its containing
    /// `/len` blocks — e.g. the /64 view for the paper's /64 stability
    /// analysis (Table 2b/2d).
    pub fn prefix_view(&self, len: PrefixLen) -> DailyObservations {
        DailyObservations {
            days: self
                .days
                .iter()
                .map(|(&d, set)| (d, set.map_prefix(len)))
                .collect(),
        }
    }

    /// True when `day` was recorded at all (even with an empty set) —
    /// the "observed inactive" versus "not ingested" distinction.
    pub fn is_covered(&self, day: Day) -> bool {
        self.days.contains_key(&day)
    }

    /// The uncovered days within `first..=last`, ascending.
    pub fn gaps_in(&self, first: Day, last: Day) -> Vec<Day> {
        first
            .range_inclusive(last)
            .filter(|d| !self.is_covered(*d))
            .collect()
    }

    /// Gap-aware stability assessment: like
    /// [`DailyObservations::stable_on`], but days missing from the
    /// ingestion are accounted for per `policy` instead of being silently
    /// read as "inactive everywhere".
    ///
    /// The window's gaps on each side are counted from its covered days,
    /// so a window of any reach costs O(covered days). Only a
    /// [`VerdictQuality::Unknown`] verdict lists its missing days, which
    /// costs O(window): `Flag` over a gapped window, and a reference day
    /// never observed.
    pub fn stable_on_gapped(
        &self,
        reference: Day,
        params: &StabilityParams,
        policy: GapPolicy,
    ) -> StabilityVerdict {
        let (first, last) = params.window(reference);
        let (mut back_seen, mut fwd_seen) = (0u64, 0u64);
        for &d in self.days.range(first..=last).map(|(d, _)| d) {
            match d.cmp(&reference) {
                std::cmp::Ordering::Less => back_seen += 1,
                std::cmp::Ordering::Greater => fwd_seen += 1,
                std::cmp::Ordering::Equal => {}
            }
        }
        let back_gaps = u64::from(reference.0.abs_diff(first.0)) - back_seen;
        let fwd_gaps = u64::from(last.0.abs_diff(reference.0)) - fwd_seen;
        let covered = self.is_covered(reference);
        if (covered && back_gaps == 0 && fwd_gaps == 0) || policy == GapPolicy::AssumeInactive {
            return StabilityVerdict {
                stable: self.stable_on(reference, params),
                quality: VerdictQuality::Complete,
            };
        }
        let unknown = |stable| StabilityVerdict {
            stable,
            quality: VerdictQuality::Unknown {
                missing: self.gaps_in(first, last),
            },
        };
        // No amount of widening recovers an unobserved reference day.
        if !covered {
            return unknown(AddrSet::new());
        }
        match policy {
            // Already returned Complete above; kept total for safety.
            GapPolicy::AssumeInactive => StabilityVerdict {
                stable: self.stable_on(reference, params),
                quality: VerdictQuality::Complete,
            },
            GapPolicy::Flag => unknown(self.stable_on(reference, params)),
            GapPolicy::Widen { max_extra } => {
                let extra = |gaps: u64| u32::try_from(gaps).unwrap_or(u32::MAX).min(max_extra);
                let (back_extra, fwd_extra) = (extra(back_gaps), extra(fwd_gaps));
                let widened = params.with_window(
                    params.back.saturating_add(back_extra),
                    params.fwd.saturating_add(fwd_extra),
                );
                StabilityVerdict {
                    stable: self.stable_on(reference, &widened),
                    quality: VerdictQuality::Widened {
                        back_extra,
                        fwd_extra,
                    },
                }
            }
        }
    }

    /// Addresses active on `reference` that are nd-stable per `params`:
    /// also active on some observed day `d` in the window with
    /// `|d − reference| ≥ n + slew`.
    pub fn stable_on(&self, reference: Day, params: &StabilityParams) -> AddrSet {
        let active = match self.days.get(&reference) {
            Some(s) => s,
            None => return AddrSet::new(),
        };
        // One pass over the reference day's actives against a cursor
        // per witness day. Every cursor moves monotonically forward,
        // so the whole ±window costs O(|active|·w + Σ|witness|) with a
        // single reserved output buffer — where the old
        // union-of-intersections built and dropped two intermediate
        // sets per witness day.
        let mut witnesses: Vec<&[u128]> = Vec::with_capacity(self.days.len());
        for (_, s) in self.witness_days(reference, params) {
            witnesses.push(s.keys());
        }
        let mut cursors: Vec<usize> = vec![0; witnesses.len()];
        let mut out: Vec<u128> = Vec::with_capacity(active.len());
        for &a in active.keys() {
            let mut hit = false;
            for (w, cur) in witnesses.iter().zip(cursors.iter_mut()) {
                while w.get(*cur).is_some_and(|&k| k < a) {
                    *cur += 1;
                }
                if w.get(*cur) == Some(&a) {
                    hit = true;
                    break; // later witnesses' cursors catch up lazily
                }
            }
            if hit {
                out.push(a);
            }
        }
        AddrSet::from_sorted(out)
    }

    /// The observed days [`DailyObservations::stable_on`] may take a
    /// witness from, with their sets, ascending: inside the window and
    /// at least `n + slew` days from `reference`.
    fn witness_days<'a>(
        &'a self,
        reference: Day,
        params: &StabilityParams,
    ) -> impl Iterator<Item = (Day, &'a AddrSet)> + 'a {
        let (lo, hi) = params.window(reference);
        let min_d = params.min_distance();
        self.days
            .range(lo..=hi)
            .filter(move |(&d, _)| u64::from(d.0.abs_diff(reference.0)) >= min_d)
            .map(|(&d, s)| (d, s))
    }

    /// The days whose sets `self` holds and `earlier` does not share
    /// ([`AddrSet::shares_storage`]): days new to `self`, and days
    /// whose set was replaced, as a merged duplicate delivery replaces
    /// it. A day that is not changed, and that no changed day
    /// witnesses, has the same nd-stable set in both stores. `None`
    /// when `earlier` holds a day that `self` does not.
    pub fn changed_since(&self, earlier: &DailyObservations) -> Option<Vec<Day>> {
        if earlier.days.keys().any(|d| !self.days.contains_key(d)) {
            return None;
        }
        let kept = |d: &Day, s: &AddrSet| earlier.days.get(d).is_some_and(|e| e.shares_storage(s));
        Some(
            self.days
                .iter()
                .filter(|&(d, s)| !kept(d, s))
                .map(|(&d, _)| d)
                .collect(),
        )
    }

    /// The nd-stable addresses that landing one new day adds, day by
    /// day, without re-running [`DailyObservations::stable_on`].
    ///
    /// `self` must be `earlier` plus the day `landed`: `earlier` lacks
    /// it, and every other day shares its set with `earlier`
    /// ([`DailyObservations::changed_since`] is `[landed]`). Under §5.1
    /// a day's nd-stable set is its actives that some witness day
    /// holds, so `landed` can only add witnesses, and only to the days
    /// it witnesses. One merge of `landed`'s set against each day the
    /// witness relation links to it, either way round (the relation is
    /// not symmetric when `back != fwd`), gives both halves:
    ///
    /// * for each day `r` that `landed` witnesses, the addresses active
    ///   on both that none of `r`'s witness days in `earlier` holds:
    ///   exactly what `r`'s nd-stable set gains. They are visited as
    ///   `gained(r, keys)` when there are any, in ascending day order;
    /// * then `landed`'s own nd-stable set, as `gained(landed, keys)`.
    ///
    /// `stable_on(r)` in `self` is therefore `stable_on(r)` in `earlier`
    /// plus the keys visited for `r`, for every day `r`. The pass holds
    /// one day's candidates at a time; its cost follows the sets in
    /// `landed`'s reach, not the number of days.
    pub fn landed_gains(
        &self,
        earlier: &DailyObservations,
        landed: Day,
        params: &StabilityParams,
        mut gained: impl FnMut(Day, &[u128]),
    ) {
        let Some(new) = self.days.get(&landed) else {
            return;
        };
        let keys = new.keys();
        let mut hit = vec![false; keys.len()];
        let mut candidates: Vec<u128> = Vec::with_capacity(keys.len());
        let reach = params.back.max(params.fwd);
        let (lo, hi) = params.with_window(reach, reach).window(landed);
        for (&day, set) in self.days.range(lo..=hi) {
            let witness = params.witnesses(day, landed);
            let witnessed = day != landed && params.witnesses(landed, day);
            if !witness && !witnessed {
                continue;
            }
            candidates.clear();
            for_each_common(keys, set.keys(), |i, a| {
                if witness {
                    if let Some(h) = hit.get_mut(i) {
                        *h = true;
                    }
                }
                if witnessed {
                    candidates.push(a);
                }
            });
            if !witnessed {
                continue;
            }
            // An address an old witness day holds was already stable.
            for (_, old) in earlier.witness_days(day, params) {
                if candidates.is_empty() {
                    break;
                }
                let (old, mut at) = (old.keys(), 0);
                candidates.retain(|&a| {
                    at = gallop(old, at, a);
                    old.get(at) != Some(&a)
                });
            }
            if !candidates.is_empty() {
                gained(day, &candidates);
            }
        }
        candidates.clear();
        let stable = keys.iter().zip(&hit).filter(|&(_, &h)| h);
        candidates.extend(stable.map(|(&a, _)| a));
        gained(landed, &candidates);
    }

    /// Addresses active on `reference` but *not* witnessed nd-stable —
    /// the complement of [`DailyObservations::stable_on`] within the
    /// reference day's actives.
    pub fn not_stable_on(&self, reference: Day, params: &StabilityParams) -> AddrSet {
        let active = self.on(reference);
        let stable = self.stable_on(reference, params);
        AddrSet::from_iter(active.iter().filter(|&a| !stable.contains(a)))
    }

    /// Weekly stability (Table 2c/2d): for each day in
    /// `first..=first+6`, determine the nd-stable set; report unions.
    pub fn stable_over_week(&self, first: Day, params: &StabilityParams) -> WeeklyStability {
        self.stable_over_days(first.range_inclusive(first + 6), params)
    }

    /// Generalization of [`DailyObservations::stable_over_week`] to any
    /// set of reference days.
    pub fn stable_over_days<I: IntoIterator<Item = Day>>(
        &self,
        days: I,
        params: &StabilityParams,
    ) -> WeeklyStability {
        let mut active = AddrSet::new();
        let mut stable = AddrSet::new();
        for d in days {
            if let Some(s) = self.days.get(&d) {
                active = active.union(s);
            }
            stable = stable.union(&self.stable_on(d, params));
        }
        let not_stable = AddrSet::from_iter(active.iter().filter(|&a| !stable.contains(a)));
        WeeklyStability {
            active,
            stable,
            not_stable,
        }
    }

    /// Cross-epoch stability (the `6m-stable (-6m)` / `1y-stable (-1y)`
    /// rows): addresses active in the current epoch (union over
    /// `current`) that were also active in the earlier epoch (union over
    /// `earlier`). The percentage base is the current epoch's active
    /// count.
    pub fn epoch_stable(
        &self,
        current: impl IntoIterator<Item = Day>,
        earlier: impl IntoIterator<Item = Day>,
    ) -> EpochStability {
        let cur = AddrSet::union_all(current.into_iter().filter_map(|d| self.days.get(&d)));
        let old = AddrSet::union_all(earlier.into_iter().filter_map(|d| self.days.get(&d)));
        EpochStability {
            stable: cur.intersection(&old),
            current_total: cur.len(),
        }
    }

    /// The Figure 4 series: for every observed day, the day's active
    /// count and the size of its intersection with the reference day's
    /// active set.
    pub fn reference_overlap_series(&self, reference: Day) -> Vec<(Day, usize, usize)> {
        let ref_set = self.on(reference);
        self.days
            .iter()
            .map(|(&d, s)| (d, s.len(), ref_set.intersection_len(s)))
            .collect()
    }
}

/// Calls `f(i, key)` for each key of `a`, at index `i`, that `b` also
/// holds; both ascending.
fn for_each_common(a: &[u128], b: &[u128], mut f: impl FnMut(usize, u128)) {
    let (mut i, mut j) = (0, 0);
    // Both cursors step by comparison results rather than by branch:
    // a merge of two similar sets mispredicts every other branch.
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        if x == y {
            f(i, x);
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
}

/// The first index at or after `from` whose key in the ascending
/// `keys` is not below `target` (`keys.len()` when none is): doubling
/// steps from `from`, then a binary search inside the last step, so a
/// cursor moved across a set costs O(log gap) a probe.
fn gallop(keys: &[u128], from: usize, target: u128) -> usize {
    let rest = keys.get(from..).unwrap_or_default();
    let (mut lo, mut step) = (0, 1);
    while rest.get(step - 1).is_some_and(|&k| k < target) {
        lo = step;
        step *= 2;
    }
    let tail = rest.get(lo..step.min(rest.len())).unwrap_or_default();
    from + lo + tail.partition_point(|&k| k < target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_addr::Addr;

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    fn set(addrs: &[&str]) -> AddrSet {
        AddrSet::from_iter(addrs.iter().map(|s| a(s)))
    }

    fn day(d: u8) -> Day {
        Day::from_ymd(2015, 3, d)
    }

    #[test]
    fn changed_days_are_the_unshared_ones() {
        let mut base = DailyObservations::new();
        base.record(day(17), set(&["2001:db8::1"]));
        base.record(day(20), set(&["2001:db8::1"]));
        assert_eq!(base.clone().changed_since(&base), Some(vec![]));
        // A new day, and a day whose set a merge replaced, changed.
        let mut later = base.clone();
        later.record(day(22), set(&["2001:db8::2"]));
        later.record(day(17), set(&["2001:db8::3"]));
        assert_eq!(later.changed_since(&base), Some(vec![day(17), day(22)]));
        // A store that lost a day is not a later state.
        assert_eq!(base.changed_since(&later), None);
        // Equal contents in fresh storage are not shared storage.
        let mut copy = DailyObservations::new();
        copy.record(day(17), set(&["2001:db8::1"]));
        copy.record(day(20), set(&["2001:db8::1"]));
        assert_eq!(copy.changed_since(&base), Some(vec![day(17), day(20)]));
    }

    /// Lands each of `days` in turn into a store holding the others
    /// already landed, and checks that every day's nd-stable set after
    /// the landing is its set before plus the keys `landed_gains`
    /// visits for it, and that only changed days are visited.
    fn check_landings(days: &[(u8, &[&str])], params: &StabilityParams) {
        let mut store = DailyObservations::new();
        for &(d, addrs) in days {
            let before = store.clone();
            store.record(day(d), set(addrs));
            assert_eq!(store.changed_since(&before), Some(vec![day(d)]));
            let mut visited = Vec::new();
            store.landed_gains(&before, day(d), params, |r, keys| {
                visited.push((r, AddrSet::from_sorted(keys.to_vec())));
            });
            let ctx = format!("landing {d} under {params:?}");
            assert_eq!(visited.last().map(|(r, _)| *r), Some(day(d)), "{ctx}");
            assert!(visited
                .windows(2)
                .all(|w| w[0].0 < w[1].0 || w[1].0 == day(d)));
            for r in store.days() {
                let gained = visited.iter().find(|(v, _)| *v == r).map(|(_, g)| g);
                let was = before.stable_on(r, params);
                let want = store.stable_on(r, params);
                let got = gained.map_or(was.clone(), |g| was.union(g));
                assert_eq!(got, want, "{ctx}: day {r}");
                // Gains are new addresses, so counts add up.
                let added = gained.map_or(0, AddrSet::len);
                assert_eq!(was.len() + added, want.len(), "{ctx}: count on {r}");
                assert!(added > 0 || r == day(d) || gained.is_none(), "{ctx}: {r}");
            }
        }
    }

    #[test]
    fn landed_gains_are_what_each_verdict_gains() {
        // Late days into gaps, witnesses on both sides, and addresses
        // an old witness already holds.
        let days: [(u8, &[&str]); 7] = [
            (10, &["2001:db8::1", "2001:db8::2"]),
            (20, &["2001:db8::1", "2001:db8::3"]),
            (
                14,
                &["2001:db8::1", "2001:db8::2", "2001:db8::3", "2001:db8::4"],
            ),
            (17, &["2001:db8::2", "2001:db8::4"]),
            (12, &["2001:db8::3", "2001:db8::4", "2001:db8::5"]),
            (25, &["2001:db8::1", "2001:db8::5"]),
            (16, &[]),
        ];
        for params in [
            StabilityParams::nd(3),
            StabilityParams::nd(2).with_window(3, 6).with_slew(1),
            StabilityParams::nd(1).with_window(6, 2),
            StabilityParams::nd(0),
        ] {
            check_landings(&days, &params);
        }
    }

    #[test]
    fn gallop_finds_the_first_key_not_below_the_target() {
        let keys = [2u128, 4, 4, 8, 16, 32, 64];
        for from in 0..=keys.len() {
            for target in 0..70u128 {
                let want = from + keys[from..].partition_point(|&k| k < target);
                assert_eq!(gallop(&keys, from, target), want, "{from} {target}");
            }
        }
    }

    #[test]
    fn paper_examples_from_section_5_1() {
        // "A given address seen on March 17 and again on March 18 ... is
        // 1d-stable. An address seen on March 17 and on March 19 ... is
        // 2d-stable [and therefore also 1d-stable]."
        let mut obs = DailyObservations::new();
        let x = a("2001:db8::1718");
        let y = a("2001:db8::1719");
        obs.record(day(17), set(&["2001:db8::1718", "2001:db8::1719"]));
        obs.record(day(18), set(&["2001:db8::1718"]));
        obs.record(day(19), set(&["2001:db8::1719"]));

        let s1 = obs.stable_on(day(17), &StabilityParams::nd(1));
        assert!(s1.contains(x));
        assert!(s1.contains(y));

        let s2 = obs.stable_on(day(17), &StabilityParams::nd(2));
        assert!(!s2.contains(x));
        assert!(s2.contains(y), "Mar 17 + Mar 19 is 2d-stable");

        // nd-stable implies (n-1)d-stable: s2 ⊆ s1.
        for addr in s2.iter() {
            assert!(s1.contains(addr));
        }
    }

    #[test]
    fn window_limits_witnesses() {
        let mut obs = DailyObservations::new();
        obs.record(day(17), set(&["2001:db8::1"]));
        obs.record(day(27), set(&["2001:db8::1"])); // 10 days later
        let p = StabilityParams::nd(3); // (-7d,+7d)
        assert!(obs.stable_on(day(17), &p).is_empty(), "outside window");
        let wide = p.with_window(7, 10);
        assert!(!obs.stable_on(day(17), &wide).is_empty());
    }

    #[test]
    fn backward_witnesses_count() {
        let mut obs = DailyObservations::new();
        obs.record(day(12), set(&["2001:db8::1"]));
        obs.record(day(17), set(&["2001:db8::1", "2001:db8::2"]));
        let s = obs.stable_on(day(17), &StabilityParams::nd(3));
        assert!(s.contains(a("2001:db8::1")));
        assert!(!s.contains(a("2001:db8::2")));
    }

    #[test]
    fn slew_tolerance_is_conservative() {
        let mut obs = DailyObservations::new();
        obs.record(day(17), set(&["2001:db8::1"]));
        obs.record(day(20), set(&["2001:db8::1"]));
        let p = StabilityParams::nd(3);
        assert_eq!(obs.stable_on(day(17), &p).len(), 1);
        // With 1-day slew, distance 3 no longer proves 3d-stability.
        assert!(obs.stable_on(day(17), &p.with_slew(1)).is_empty());
        // Distance 4 does.
        obs.record(day(21), set(&["2001:db8::1"]));
        assert_eq!(obs.stable_on(day(17), &p.with_slew(1)).len(), 1);
    }

    #[test]
    fn unobserved_reference_day_is_empty() {
        let obs = DailyObservations::new();
        assert!(obs
            .stable_on(day(17), &StabilityParams::three_day())
            .is_empty());
        assert!(obs.on(day(17)).is_empty());
    }

    #[test]
    fn not_stable_partitions_actives() {
        let mut obs = DailyObservations::new();
        obs.record(day(17), set(&["2001:db8::1", "2001:db8::2", "2001:db8::3"]));
        obs.record(day(20), set(&["2001:db8::1"]));
        let p = StabilityParams::three_day();
        let stable = obs.stable_on(day(17), &p);
        let not = obs.not_stable_on(day(17), &p);
        assert_eq!(stable.len() + not.len(), 3);
        assert_eq!(stable.intersection_len(&not), 0);
    }

    #[test]
    fn weekly_union_semantics() {
        let mut obs = DailyObservations::new();
        // Address A stable relative to Mar 18 (seen 18 and 23);
        // address B active only once.
        for d in [18u8, 23] {
            obs.record(day(d), set(&["2001:db8::a"]));
        }
        obs.record(day(19), set(&["2001:db8::b"]));
        let w = obs.stable_over_week(day(17), &StabilityParams::nd(3));
        assert_eq!(w.active.len(), 2);
        assert_eq!(w.stable.len(), 1);
        assert!(w.stable.contains(a("2001:db8::a")));
        assert_eq!(w.not_stable.len(), 1);
        assert!(w.not_stable.contains(a("2001:db8::b")));
        // Partition invariant: stable ∪ not = active, disjoint.
        assert_eq!(w.stable.len() + w.not_stable.len(), w.active.len());
    }

    #[test]
    fn epoch_stability() {
        let mut obs = DailyObservations::new();
        let mar14 = Day::from_ymd(2014, 3, 17);
        obs.record(mar14, set(&["2001:db8::1", "2001:db8::9"]));
        obs.record(day(17), set(&["2001:db8::1", "2001:db8::2"]));
        let e = obs.epoch_stable([day(17)], [mar14]);
        assert_eq!(e.stable.len(), 1);
        assert!(e.stable.contains(a("2001:db8::1")));
        assert_eq!(e.current_total, 2);
        assert!((e.fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn prefix_view_generalizes_to_64s() {
        let mut obs = DailyObservations::new();
        // Two privacy addresses in the same /64 on different days: the
        // addresses are not stable, but the /64 is.
        obs.record(day(17), set(&["2001:db8:0:1:aaaa::1"]));
        obs.record(day(20), set(&["2001:db8:0:1:bbbb::2"]));
        let p = StabilityParams::three_day();
        assert!(obs.stable_on(day(17), &p).is_empty());
        let v64 = obs.prefix_view(PrefixLen::lit::<64>());
        let s = v64.stable_on(day(17), &p);
        assert_eq!(s.len(), 1);
        assert!(s.contains(a("2001:db8:0:1::")));
    }

    #[test]
    fn reference_overlap_series_shapes_figure_4() {
        let mut obs = DailyObservations::new();
        obs.record(day(16), set(&["2001:db8::1", "2001:db8::9"]));
        obs.record(day(17), set(&["2001:db8::1", "2001:db8::2"]));
        obs.record(day(18), set(&["2001:db8::2", "2001:db8::7"]));
        let series = obs.reference_overlap_series(day(17));
        assert_eq!(series.len(), 3);
        assert_eq!(series[0], (day(16), 2, 1));
        assert_eq!(series[1], (day(17), 2, 2)); // self-overlap is full
        assert_eq!(series[2], (day(18), 2, 1));
    }

    #[test]
    fn record_merges() {
        let mut obs = DailyObservations::new();
        obs.record(day(17), set(&["2001:db8::1"]));
        obs.record(day(17), set(&["2001:db8::2"]));
        assert_eq!(obs.on(day(17)).len(), 2);
        assert_eq!(obs.day_count(), 1);
        assert_eq!(obs.days().collect::<Vec<_>>(), vec![day(17)]);
    }

    #[test]
    fn coverage_distinguishes_inactive_from_missing() {
        let mut obs = DailyObservations::new();
        obs.record(day(17), set(&["2001:db8::1"]));
        obs.record(day(18), AddrSet::new()); // observed, nobody active
        assert!(obs.is_covered(day(17)));
        assert!(obs.is_covered(day(18)), "empty day is still covered");
        assert!(!obs.is_covered(day(19)), "never-ingested day is a gap");
        assert_eq!(obs.gaps_in(day(17), day(20)), vec![day(19), day(20)]);
    }

    #[test]
    fn gapped_verdict_complete_when_window_covered() {
        let mut obs = DailyObservations::new();
        for d in 10..=24u8 {
            obs.record(day(d), set(&["2001:db8::1"]));
        }
        let v = obs.stable_on_gapped(day(17), &StabilityParams::three_day(), GapPolicy::Flag);
        assert_eq!(v.quality, VerdictQuality::Complete);
        assert_eq!(v.stable.len(), 1);
        assert!(v.quality.is_conclusive());
    }

    #[test]
    fn flag_policy_downgrades_gapped_windows() {
        let mut obs = DailyObservations::new();
        obs.record(day(17), set(&["2001:db8::1"]));
        obs.record(day(18), set(&["2001:db8::1"]));
        // Days 10..=16 and 19..=24 never ingested.
        let v = obs.stable_on_gapped(day(17), &StabilityParams::three_day(), GapPolicy::Flag);
        match &v.quality {
            VerdictQuality::Unknown { missing } => {
                assert_eq!(missing.len(), 13);
                assert!(missing.contains(&day(10)) && missing.contains(&day(24)));
            }
            q => panic!("expected Unknown, got {q:?}"),
        }
        assert!(!v.quality.is_conclusive());
        // The stable set itself matches the legacy classifier.
        assert_eq!(
            v.stable.len(),
            obs.stable_on(day(17), &StabilityParams::three_day()).len()
        );
    }

    #[test]
    fn widen_policy_recovers_lost_witnesses() {
        let mut obs = DailyObservations::new();
        // Witness at distance 9 — outside (-7,+7). Days 13..=16 are gaps,
        // so widening by 4 restores reach to the day-8 witness.
        obs.record(day(8), set(&["2001:db8::1"]));
        for d in 9..=12u8 {
            obs.record(day(d), AddrSet::new());
        }
        obs.record(day(17), set(&["2001:db8::1"]));
        for d in 18..=24u8 {
            obs.record(day(d), AddrSet::new());
        }
        let p = StabilityParams::three_day();
        assert!(
            obs.stable_on(day(17), &p).is_empty(),
            "witness out of reach"
        );
        let v = obs.stable_on_gapped(day(17), &p, GapPolicy::Widen { max_extra: 7 });
        assert_eq!(
            v.quality,
            VerdictQuality::Widened {
                back_extra: 4,
                fwd_extra: 0
            }
        );
        assert_eq!(v.stable.len(), 1, "widened window reaches the witness");
        // The cap is honoured: back reach 7+1 = 8 stops short of day 8.
        let capped = obs.stable_on_gapped(day(17), &p, GapPolicy::Widen { max_extra: 1 });
        assert_eq!(
            capped.quality,
            VerdictQuality::Widened {
                back_extra: 1,
                fwd_extra: 0
            }
        );
        assert!(capped.stable.is_empty());
    }

    #[test]
    fn uncovered_reference_day_is_unknown() {
        let mut obs = DailyObservations::new();
        obs.record(day(10), set(&["2001:db8::1"]));
        let v = obs.stable_on_gapped(
            day(17),
            &StabilityParams::three_day(),
            GapPolicy::Widen { max_extra: 7 },
        );
        assert!(v.stable.is_empty());
        assert!(matches!(v.quality, VerdictQuality::Unknown { .. }));
    }

    #[test]
    fn unbounded_windows_count_their_gaps_without_listing_them() {
        // Every day of an i32 is in the window, so the gaps on each
        // side number in the billions; only the covered days are read.
        let mut obs = DailyObservations::new();
        obs.record(day(10), set(&["2001:db8::1", "2001:db8::2"]));
        obs.record(day(12), AddrSet::new());
        obs.record(day(17), set(&["2001:db8::1", "2001:db8::3"]));
        obs.record(day(30), set(&["2001:db8::3"]));
        let p = StabilityParams::nd(3).with_window(3_000_000_000, 3_000_000_000);
        let want = set(&["2001:db8::1", "2001:db8::3"]);
        let v = obs.stable_on_gapped(day(17), &p, GapPolicy::AssumeInactive);
        assert_eq!(
            (v.stable, v.quality),
            (want.clone(), VerdictQuality::Complete)
        );
        let v = obs.stable_on_gapped(day(17), &p, GapPolicy::Widen { max_extra: 7 });
        let widened = VerdictQuality::Widened {
            back_extra: 7,
            fwd_extra: 7,
        };
        assert_eq!((v.stable, v.quality), (want, widened));
        // Gaps on one side only widen that side.
        let p = StabilityParams::nd(3).with_window(7, 3_000_000_000);
        let v = obs.stable_on_gapped(day(17), &p, GapPolicy::Widen { max_extra: 7 });
        let widened = VerdictQuality::Widened {
            back_extra: 5,
            fwd_extra: 7,
        };
        assert_eq!(
            (v.stable, v.quality),
            (set(&["2001:db8::1", "2001:db8::3"]), widened)
        );
    }

    #[test]
    fn assume_inactive_matches_legacy() {
        let mut obs = DailyObservations::new();
        obs.record(day(17), set(&["2001:db8::1"]));
        obs.record(day(20), set(&["2001:db8::1"]));
        let p = StabilityParams::three_day();
        let v = obs.stable_on_gapped(day(17), &p, GapPolicy::AssumeInactive);
        assert_eq!(v.quality, VerdictQuality::Complete);
        assert_eq!(v.stable.len(), obs.stable_on(day(17), &p).len());
    }

    #[test]
    fn labels() {
        assert_eq!(StabilityParams::nd(3).label(), "3d-stable (-7d,+7d)");
        assert_eq!(
            StabilityParams::nd(1).with_window(0, 14).label(),
            "1d-stable (-0d,+14d)"
        );
    }
}
