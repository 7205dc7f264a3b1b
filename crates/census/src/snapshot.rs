//! Immutable published census snapshots for the serving daemon.
//!
//! The serving robustness posture rests on one rule: **readers never see
//! a census mid-ingest**. Ingest builds everything a query could touch —
//! the census itself, the reference day's active and stable sets, and
//! the aggregate stats — into a fresh [`Snapshot`] *outside* any lock,
//! then publishes it into the [`SnapshotCell`] with a single pointer
//! swap under a briefly held write lock. Readers clone the `Arc` under a
//! read lock (nanoseconds) and keep the snapshot alive for the duration
//! of their request, so a response is internally consistent with exactly
//! one generation even while the next day is being ingested.
//!
//! The generation number is defined as the number of ingested days, so
//! `generation == days` is an invariant every response can carry and the
//! atomicity tests can assert: a torn read would break it.

use std::sync::{Arc, RwLock};
use v6census_core::spatial::DensityClass;
use v6census_core::temporal::{DailyObservations, Day, StabilityParams};
use v6census_trie::AddrSet;

use crate::ingest::Census;

/// Per-day stability counts — the `/stats` stability histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DayStat {
    /// The observation day.
    pub day: Day,
    /// Active "Other" addresses on the day.
    pub active: usize,
    /// Of those, nd-stable under the snapshot's parameters.
    pub stable: usize,
}

/// Aggregate figures precomputed at publish time so `/stats` is a read,
/// not a computation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Reference-day counts by scheme category, in a stable order:
    /// `(label, count)` for teredo / isatap / 6to4 / other / eui64.
    pub scheme_counts: Vec<(&'static str, usize)>,
    /// Per-day active/stable counts, ascending by day.
    pub daily: Vec<DayStat>,
}

/// One immutable, internally consistent view of the census. Everything a
/// query endpoint reads lives here; nothing is computed against shared
/// mutable state.
#[derive(Clone)]
pub struct Snapshot {
    /// Publish generation; equals the number of ingested days.
    pub generation: u64,
    /// The census as of this generation.
    pub census: Census,
    /// The reference day queries run against: the latest ingested day.
    pub reference: Option<Day>,
    /// Stability parameters the `stable` set was computed with.
    pub params: StabilityParams,
    /// Density class `/classify` profiles report against.
    pub dense_class: DensityClass,
    /// Active "Other" addresses on the reference day.
    pub active: AddrSet,
    /// nd-stable "Other" addresses on the reference day.
    pub stable: AddrSet,
    /// Aggregate `/stats` figures.
    pub stats: SnapshotStats,
}

impl std::fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("generation", &self.load().generation)
            .finish()
    }
}

impl Snapshot {
    /// Builds a snapshot of `census` from scratch: every day's
    /// stability verdict is computed. It runs on the ingest thread,
    /// outside any lock readers touch; the caller passes its own clone
    /// of the census, which shares every day set with the original.
    pub fn build(census: Census, params: StabilityParams, dense_class: DensityClass) -> Snapshot {
        assemble(census, params, dense_class, None)
    }

    /// The snapshot of `census`, a later state of this snapshot's
    /// census, under the same parameters. Equal to
    /// [`Snapshot::build`]`(census, self.params, self.dense_class)`,
    /// but it starts from this snapshot's [`DayStat`]s. When `census`
    /// is this census plus one new day, one landed-day pass
    /// ([`DailyObservations::landed_gains`]) gives the new day's
    /// verdict and what each day it witnesses gains, and no other
    /// verdict is recomputed: the cost of a publish follows the landed
    /// day, not the window or the length of the census. Otherwise
    /// (a merged duplicate day, several new days) the changed days and
    /// the days they witness are recomputed, and the rest kept.
    pub fn advance(&self, census: Census) -> Snapshot {
        assemble(census, self.params, self.dense_class, Some(self))
    }

    /// True when `self` and `other` answer every query alike: same
    /// generation, reference day, parameters, reference-day sets and
    /// `/stats` figures. The census itself is not compared; these are
    /// its products.
    pub fn same_products(&self, other: &Snapshot) -> bool {
        self.generation == other.generation
            && self.reference == other.reference
            && self.params == other.params
            && self.dense_class == other.dense_class
            && self.active == other.active
            && self.stable == other.stable
            && self.stats == other.stats
    }

    /// Number of ingested days (always equals `generation`).
    pub fn days(&self) -> u64 {
        self.stats.daily.len() as u64
    }
}

/// The one snapshot assembly behind [`Snapshot::build`] (no `prev`)
/// and [`Snapshot::advance`]. `prev`'s figures are reused only under
/// the same parameters: after one new day through the landed-day pass,
/// and otherwise for every day no changed day witnesses.
fn assemble(
    census: Census,
    params: StabilityParams,
    dense_class: DensityClass,
    prev: Option<&Snapshot>,
) -> Snapshot {
    let observations = census.other_daily();
    let reference = census.days().last();
    let reusable = prev
        .filter(|p| p.params == params)
        .and_then(|p| Some((p, observations.changed_since(p.census.other_daily())?)));
    let (daily, stable) = match reusable {
        Some((p, changed)) => match changed[..] {
            [landed] if !p.census.has_day(landed) => {
                after_landing(p, observations, landed, reference)
            }
            _ => verdicts(observations, &params, reference, |day| {
                let touched = changed
                    .iter()
                    .any(|&c| c == day || params.witnesses(c, day));
                let i = p.stats.daily.binary_search_by_key(&day, |s| s.day).ok()?;
                p.stats.daily.get(i).copied().filter(|_| !touched)
            }),
        },
        None => verdicts(observations, &params, reference, |_| None),
    };
    let active = reference.map_or_else(AddrSet::new, |r| observations.on(r));
    let scheme_counts = match reference.and_then(|r| census.summary(r)) {
        None => Vec::new(),
        Some(s) => vec![
            ("teredo", s.teredo.len()),
            ("isatap", s.isatap.len()),
            ("6to4", s.sixtofour.len()),
            ("other", s.other.len()),
            ("eui64", s.eui64.len()),
        ],
    };
    let generation = daily.len() as u64;
    Snapshot {
        generation,
        census,
        reference,
        params,
        dense_class,
        active,
        stable,
        stats: SnapshotStats {
            scheme_counts,
            daily,
        },
    }
}

/// Every day's [`DayStat`], and the reference day's stable set: a day
/// keeps the stat `kept` gives it, and its verdict is computed
/// otherwise. The reference day's is always computed, once.
fn verdicts(
    observations: &DailyObservations,
    params: &StabilityParams,
    reference: Option<Day>,
    kept: impl Fn(Day) -> Option<DayStat>,
) -> (Vec<DayStat>, AddrSet) {
    let mut stable = AddrSet::new();
    let mut daily: Vec<DayStat> = Vec::with_capacity(observations.day_count());
    for day in observations.days() {
        let stat = match kept(day) {
            Some(stat) if Some(day) != reference => stat,
            _ => {
                let set = observations.stable_on(day, params);
                let stat = DayStat {
                    day,
                    active: observations.get(day).map_or(0, AddrSet::len),
                    stable: set.len(),
                };
                if Some(day) == reference {
                    stable = set;
                }
                stat
            }
        };
        daily.push(stat);
    }
    (daily, stable)
}

/// `prev`'s figures after `landed`, the one day `observations` adds to
/// `prev`'s census: the landed day's stat is new, each day it
/// witnesses adds its gains to its count, and the reference day's
/// stable set is the landed day's own, or `prev`'s with its gains.
fn after_landing(
    prev: &Snapshot,
    observations: &DailyObservations,
    landed: Day,
    reference: Option<Day>,
) -> (Vec<DayStat>, AddrSet) {
    let mut daily = prev.stats.daily.clone();
    let at = daily.partition_point(|s| s.day < landed);
    let active = observations.get(landed).map_or(0, AddrSet::len);
    daily.insert(
        at,
        DayStat {
            day: landed,
            active,
            stable: 0,
        },
    );
    let mut stable = prev.stable.clone();
    let earlier = prev.census.other_daily();
    observations.landed_gains(earlier, landed, &prev.params, |day, gained| {
        let i = daily.binary_search_by_key(&day, |s| s.day);
        if let Some(stat) = i.ok().and_then(|i| daily.get_mut(i)) {
            stat.stable += gained.len();
        }
        if Some(day) == reference {
            let gained = AddrSet::from_sorted(gained.to_vec());
            stable = if day == landed {
                gained
            } else {
                stable.union(&gained)
            };
        }
    });
    (daily, stable)
}

/// The publish point: a swappable pointer to the current [`Snapshot`].
///
/// `load` takes a read lock only long enough to clone the `Arc`;
/// `publish` takes the write lock only long enough to swap the pointer.
/// Snapshot *construction* never happens under either lock, so readers
/// never block on ingest. Neither method returns its guard, so no lock
/// is held past the call that took it. Lock poisoning is survived: a
/// poisoned cell still holds a complete snapshot (the swap is a single
/// pointer store), so we take the inner value and keep serving.
pub struct SnapshotCell {
    inner: RwLock<Arc<Snapshot>>,
}

impl SnapshotCell {
    /// Creates a cell publishing `initial`.
    pub fn new(initial: Snapshot) -> SnapshotCell {
        SnapshotCell {
            inner: RwLock::new(Arc::new(initial)),
        }
    }

    /// The current snapshot. Cheap: one `Arc` clone under a read lock.
    pub fn load(&self) -> Arc<Snapshot> {
        self.inner.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Publishes a new snapshot, returning its generation. The write
    /// lock is held only for the pointer swap.
    pub fn publish(&self, snapshot: Snapshot) -> u64 {
        let generation = snapshot.generation;
        let fresh = Arc::new(snapshot);
        let mut slot = self.inner.write().unwrap_or_else(|e| e.into_inner());
        *slot = fresh;
        generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_addr::PrefixLen;
    use v6census_synth::world::epochs;
    use v6census_synth::{World, WorldConfig};

    fn snapshot_of(days: u32) -> Snapshot {
        let world = World::standard(WorldConfig::tiny(7));
        let first = epochs::mar2015();
        let census = Census::run(&world, first, first + (days as i32) - 1);
        Snapshot::build(
            census,
            StabilityParams::nd(3),
            DensityClass::at(8, PrefixLen::lit::<64>()),
        )
    }

    #[test]
    fn generation_equals_days() {
        for days in [1u32, 3, 5] {
            let s = snapshot_of(days);
            assert_eq!(s.generation, days as u64);
            assert_eq!(s.days(), days as u64);
            assert_eq!(s.stats.daily.len(), days as usize);
        }
        let empty = Snapshot::build(
            Census::new_empty(),
            StabilityParams::nd(3),
            DensityClass::at(8, PrefixLen::lit::<64>()),
        );
        assert_eq!(empty.generation, 0);
        assert!(empty.reference.is_none());
        assert!(empty.active.is_empty());
    }

    #[test]
    fn reference_products_are_consistent() {
        let s = snapshot_of(5);
        let r = s.reference.expect("5 days ingested");
        assert_eq!(s.active.len(), s.census.other_daily().on(r).len());
        assert!(s.stable.len() <= s.active.len());
        assert_eq!(
            s.stats.scheme_counts.iter().map(|&(_, n)| n).sum::<usize>(),
            s.census
                .summary(r)
                .map(|d| d.total() + d.eui64.len())
                .unwrap_or(0),
            "scheme counts cover the reference day (other includes eui64)"
        );
        let last = s.stats.daily.last().expect("daily stats present");
        assert_eq!(last.active, s.active.len());
        assert_eq!(last.stable, s.stable.len());
    }

    /// Asserts `got` has every product of `want`, field by field.
    fn assert_same(got: &Snapshot, want: &Snapshot, ctx: &str) {
        assert_eq!(got.generation, want.generation, "{ctx}: generation");
        assert_eq!(got.reference, want.reference, "{ctx}: reference");
        assert_eq!(got.params, want.params, "{ctx}: params");
        assert_eq!(got.active, want.active, "{ctx}: active");
        assert_eq!(got.stable, want.stable, "{ctx}: stable");
        assert_eq!(
            got.stats.scheme_counts, want.stats.scheme_counts,
            "{ctx}: scheme_counts"
        );
        assert_eq!(got.stats.daily, want.stats.daily, "{ctx}: daily");
        assert!(got.same_products(want), "{ctx}: same_products");
    }

    /// Lands `logs` one at a time (`Census::ingest` merges a duplicate
    /// day) and checks every snapshot advanced under `params` against a
    /// from-scratch build of the same census, and, through the shared
    /// assembly, that `other` params disable reuse rather than keep
    /// stale stats.
    fn land_and_compare(
        logs: &[v6census_synth::DayLog],
        params: StabilityParams,
        other: StabilityParams,
        ctx: &str,
    ) {
        let class = DensityClass::at(8, PrefixLen::lit::<64>());
        let mut census = Census::new_empty();
        let mut prev = Snapshot::build(census.clone(), params, class);
        for (i, log) in logs.iter().enumerate() {
            let new = !census.has_day(log.day);
            census.ingest(log);
            let next = prev.advance(census.clone());
            let ctx = format!("{ctx}, {params:?}, landing {i} ({})", log.day);
            assert_same(&next, &Snapshot::build(census.clone(), params, class), &ctx);
            let changed = assemble(census.clone(), other, class, Some(&prev));
            let want = Snapshot::build(census.clone(), other, class);
            assert_same(&changed, &want, &format!("{ctx}, other params"));
            // A day the landed day does not witness keeps its stat, and
            // a new day takes no address out of a stable set.
            for stat in &prev.stats.daily {
                let now = next.stats.daily.iter().find(|s| s.day == stat.day);
                let now = now.expect("every earlier day is still there");
                if stat.day != log.day && !params.witnesses(log.day, stat.day) {
                    assert_eq!(now, stat, "{ctx}: {} changed", stat.day);
                }
                assert!(!new || now.stable >= stat.stable, "{ctx}: {}", stat.day);
            }
            prev = next;
        }
    }

    #[test]
    fn advance_equals_build() {
        let world = World::standard(WorldConfig::tiny(11));
        let first = epochs::mar2015();
        let logs: Vec<_> = (0..12).map(|i| world.day_log(first + i)).collect();
        // The paper's symmetric class, and an asymmetric, slewed one
        // whose witness relation is not symmetric.
        let (paper, skewed) = (
            StabilityParams::nd(3),
            StabilityParams::nd(2).with_window(3, 6).with_slew(1),
        );
        // Day 5 lands last, into the gap its absence left.
        let mut late = logs.clone();
        let gap = late.remove(5);
        late.push(gap);
        // A duplicate of day 6 carrying day 2's addresses merges into
        // day 6 and changes the verdicts of its neighbours.
        let mut dup = logs.clone();
        let mut extra = logs[2].clone();
        extra.day = logs[6].day;
        dup.push(extra);
        for (params, other) in [(paper, skewed), (skewed, paper)] {
            land_and_compare(&logs, params, other, "in order");
            land_and_compare(&late, params, other, "out of order");
            land_and_compare(&dup, params, other, "duplicate-day merge");
        }
    }

    #[test]
    fn cell_swaps_whole_snapshots() {
        let cell = SnapshotCell::new(snapshot_of(1));
        assert_eq!(cell.load().generation, 1);
        let held = cell.load();
        assert_eq!(cell.publish(snapshot_of(3)), 3);
        // The published snapshot replaced the pointer…
        assert_eq!(cell.load().generation, 3);
        assert_eq!(cell.load().days(), 3);
        // …but a reader that loaded before the swap still holds a
        // complete, consistent old generation.
        assert_eq!(held.generation, 1);
        assert_eq!(held.days(), 1);
    }
}
