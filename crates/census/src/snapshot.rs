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
    /// but a day's [`DayStat`] is kept from `self` when every set its
    /// stability verdict reads is shared with this snapshot's census
    /// (`DailyObservations::shares_stable_on_inputs`). A landed day
    /// changes only the days whose window holds it, so the cost of a
    /// publish follows the window, not the length of the census.
    pub fn advance(&self, census: Census) -> Snapshot {
        assemble(census, self.params, self.dense_class, Some(self))
    }

    /// This snapshot's [`DayStat`] for `day`, when `observations`
    /// would give `day` the same verdict under `params`.
    fn kept_stat(
        &self,
        observations: &DailyObservations,
        day: Day,
        params: &StabilityParams,
    ) -> Option<DayStat> {
        if self.params != *params
            || !observations.shares_stable_on_inputs(self.census.other_daily(), day, params)
        {
            return None;
        }
        let i = self
            .stats
            .daily
            .binary_search_by_key(&day, |s| s.day)
            .ok()?;
        self.stats.daily.get(i).copied()
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

/// The one snapshot assembly loop behind [`Snapshot::build`] (no
/// `prev`) and [`Snapshot::advance`]. The reference day's stable set is
/// always computed, once; every other day keeps `prev`'s [`DayStat`]
/// when its inputs are unchanged and is computed otherwise.
fn assemble(
    census: Census,
    params: StabilityParams,
    dense_class: DensityClass,
    prev: Option<&Snapshot>,
) -> Snapshot {
    let observations = census.other_daily();
    let reference = census.days().last();
    let mut stable = AddrSet::new();
    let mut daily: Vec<DayStat> = Vec::with_capacity(observations.day_count());
    for day in census.days() {
        let kept = prev.and_then(|p| p.kept_stat(observations, day, &params));
        let stat = match kept {
            Some(stat) if Some(day) != reference => stat,
            _ => {
                let set = observations.stable_on(day, &params);
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
    /// day) and checks every advanced snapshot against a from-scratch
    /// build of the same census, under the previous snapshot's params
    /// and, through the shared loop, under `other` params.
    fn land_and_compare(logs: &[v6census_synth::DayLog], other: StabilityParams, ctx: &str) {
        let (params, class) = (
            StabilityParams::nd(3),
            DensityClass::at(8, PrefixLen::lit::<64>()),
        );
        let mut census = Census::new_empty();
        let mut prev = Snapshot::build(census.clone(), params, class);
        for (i, log) in logs.iter().enumerate() {
            census.ingest(log);
            let next = prev.advance(census.clone());
            let ctx = format!("{ctx}, landing {i} ({})", log.day);
            assert_same(&next, &Snapshot::build(census.clone(), params, class), &ctx);
            // Different params must disable reuse, not keep stale stats.
            let changed = assemble(census.clone(), other, class, Some(&prev));
            let want = Snapshot::build(census.clone(), other, class);
            assert_same(&changed, &want, &format!("{ctx}, other params"));
            // Days whose window cannot hold the landed day are kept.
            for stat in &prev.stats.daily {
                if (stat.day - log.day).abs() > params.back.max(params.fwd) as i32 {
                    let kept = prev.kept_stat(census.other_daily(), stat.day, &params);
                    assert_eq!(kept, Some(*stat), "{ctx}: {} not kept", stat.day);
                }
            }
            prev = next;
        }
    }

    #[test]
    fn advance_equals_build() {
        let world = World::standard(WorldConfig::tiny(11));
        let first = epochs::mar2015();
        let logs: Vec<_> = (0..12).map(|i| world.day_log(first + i)).collect();
        let other = StabilityParams::nd(2).with_window(3, 3);
        land_and_compare(&logs, other, "in order");

        // Day 5 lands last, into the gap its absence left.
        let mut late = logs.clone();
        let gap = late.remove(5);
        late.push(gap);
        land_and_compare(&late, other, "out of order");

        // A duplicate of day 6 carrying day 2's addresses merges into
        // day 6 and changes the verdicts of its neighbours.
        let mut dup = logs.clone();
        let mut extra = logs[2].clone();
        extra.day = logs[6].day;
        dup.push(extra);
        land_and_compare(&dup, other, "duplicate-day merge");
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
