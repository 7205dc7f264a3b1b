//! Log ingestion and transition-mechanism culling (§4.1).
//!
//! The census separates client addresses of the early transition
//! mechanisms (Teredo, ISATAP, 6to4) from "Other" addresses — native
//! end-to-end IPv6 transport, which includes 464XLAT and DS-Lite — before
//! any temporal or spatial classification, because the mechanisms'
//! content-defined address formats would skew results.
//!
//! The cull asks each address only the four §4.1 questions,
//! [`scheme::cull`], the prefix of the content classifier that decides
//! Teredo, 6to4, ISATAP and EUI-64. `DaySummaryBuilder` is the one
//! cull loop: streaming ingest feeds it from the day-log line loop
//! ([`v6census_core::daylog::read`]) as each line parses, and
//! [`DaySummary::from_entries`] feeds it from an iterator.

use std::collections::BTreeSet;
use v6census_addr::scheme::{self, classify, classify_beneath_6to4};
use v6census_addr::{Addr, AddressScheme, Mac, PrefixLen};
use v6census_core::daylog::Sink;
use v6census_core::temporal::{DailyObservations, Day};
use v6census_synth::{DayLog, World};
use v6census_trie::AddrSet;

/// One day's log, culled into the paper's §4.1 categories.
#[derive(Clone, Debug)]
pub struct DaySummary {
    /// The log-processed date.
    pub day: Day,
    /// Teredo client addresses.
    pub teredo: AddrSet,
    /// ISATAP client addresses.
    pub isatap: AddrSet,
    /// 6to4 client addresses.
    pub sixtofour: AddrSet,
    /// "Other" addresses: native IPv6 end-to-end transport.
    pub other: AddrSet,
    /// EUI-64 addresses among "Other" (the Table 1 "EUI-64 addr (!6to4)"
    /// row).
    pub eui64: AddrSet,
    /// Unique MACs behind the EUI-64 addresses.
    pub eui64_macs: BTreeSet<Mac>,
    /// Total hits for the day.
    pub hits: u64,
}

impl DaySummary {
    /// Classifies and culls one day's aggregated log.
    pub fn from_log(log: &DayLog) -> DaySummary {
        DaySummary::from_entries(log.day, log.entries.iter().map(|e| (e.addr, e.hits)))
    }

    /// Classifies and culls weighted `(address, hits)` entries for one
    /// day: a loop over the one cull, `DaySummaryBuilder`.
    pub fn from_entries(day: Day, entries: impl IntoIterator<Item = (Addr, u64)>) -> DaySummary {
        let mut builder = DaySummaryBuilder::default();
        for (addr, hits) in entries {
            builder.add(addr, hits);
        }
        builder.finish(day)
    }

    /// Merges another summary *for the same day* into this one: category
    /// unions, hit totals summed (saturating at `u64::MAX`).
    ///
    /// # Panics
    /// Panics if the days differ — merging across days is always a bug.
    pub fn merge(&mut self, other: &DaySummary) {
        assert_eq!(
            self.day, other.day,
            "cannot merge summaries of different days"
        );
        self.teredo = self.teredo.union(&other.teredo);
        self.isatap = self.isatap.union(&other.isatap);
        self.sixtofour = self.sixtofour.union(&other.sixtofour);
        self.other = self.other.union(&other.other);
        self.eui64 = self.eui64.union(&other.eui64);
        self.eui64_macs.extend(other.eui64_macs.iter().copied());
        self.hits = self.hits.saturating_add(other.hits);
    }

    /// Total active addresses across all categories (the percentage base
    /// of Table 1).
    pub fn total(&self) -> usize {
        self.teredo.len() + self.isatap.len() + self.sixtofour.len() + self.other.len()
    }

    /// Active /64 prefixes among "Other" addresses.
    pub fn other_64s(&self) -> AddrSet {
        self.other.map_prefix(PrefixLen::lit::<64>())
    }
}

/// One day's [`DaySummary`], built an address at a time: each address
/// is culled at once into a per-category key buffer, and
/// [`DaySummaryBuilder::finish`] sorts and dedups each buffer in place
/// into its [`AddrSet`].
#[derive(Clone, Debug, Default)]
pub(crate) struct DaySummaryBuilder {
    teredo: Vec<u128>,
    isatap: Vec<u128>,
    sixtofour: Vec<u128>,
    other: Vec<u128>,
    eui64: Vec<u128>,
    eui64_macs: Vec<Mac>,
    hits: u64,
}

impl DaySummaryBuilder {
    /// The day's summary.
    pub(crate) fn finish(self, day: Day) -> DaySummary {
        DaySummary {
            day,
            teredo: AddrSet::from_keys(self.teredo),
            isatap: AddrSet::from_keys(self.isatap),
            sixtofour: AddrSet::from_keys(self.sixtofour),
            other: AddrSet::from_keys(self.other),
            eui64: AddrSet::from_keys(self.eui64),
            eui64_macs: self.eui64_macs.into_iter().collect(),
            hits: self.hits,
        }
    }
}

/// [`v6census_core::daylog::read`] culls each good line as it parses.
impl Sink for DaySummaryBuilder {
    /// Most addresses are "Other", so a header's count reserves that
    /// buffer.
    fn reserve(&mut self, n: usize) {
        self.other.reserve(n);
    }

    /// Culls one logged address; its hits join the day's total, which
    /// saturates at `u64::MAX`.
    #[inline]
    fn add(&mut self, addr: Addr, hits: u64) {
        self.hits = self.hits.saturating_add(hits);
        match scheme::cull(addr) {
            Some(AddressScheme::Teredo) => self.teredo.push(addr.0),
            Some(AddressScheme::Isatap) => self.isatap.push(addr.0),
            Some(AddressScheme::SixToFour) => self.sixtofour.push(addr.0),
            Some(AddressScheme::Eui64(mac)) => {
                self.other.push(addr.0);
                self.eui64.push(addr.0);
                self.eui64_macs.push(mac);
            }
            _ => self.other.push(addr.0),
        }
    }
}

/// A multi-day census over a world: per-day culled summaries plus the
/// observation stores that feed the temporal classifier.
///
/// Days are indexed (`Day → summary`) so per-day lookups are O(log d)
/// rather than linear scans, and duplicate-day ingestion is an explicit
/// decision: [`Census::ingest`] merges, [`Census::try_ingest`] rejects.
#[derive(Clone)]
pub struct Census {
    summaries: Vec<DaySummary>,
    /// Day → position in `summaries`.
    index: std::collections::BTreeMap<Day, usize>,
    other_daily: DailyObservations,
    other64_daily: DailyObservations,
}

impl Census {
    /// An empty census, to be fed with [`Census::ingest`].
    pub fn new_empty() -> Census {
        Census {
            summaries: Vec::new(),
            index: std::collections::BTreeMap::new(),
            other_daily: DailyObservations::new(),
            other64_daily: DailyObservations::new(),
        }
    }

    /// Ingests logs for every day in `first..=last` (inclusive).
    pub fn run(world: &World, first: Day, last: Day) -> Census {
        let mut c = Census::new_empty();
        for day in first.range_inclusive(last) {
            c.ingest(&world.day_log(day));
        }
        c
    }

    /// Ingests one pre-generated log (for callers generating days in
    /// parallel). A day already present is **merged** (category unions,
    /// hits summed); use [`Census::try_ingest`] to reject duplicates
    /// instead.
    pub fn ingest(&mut self, log: &DayLog) {
        self.ingest_summary(DaySummary::from_log(log));
    }

    /// Ingests a pre-culled summary, merging into an existing same-day
    /// summary if one exists.
    pub fn ingest_summary(&mut self, s: DaySummary) {
        self.other_daily.record(s.day, s.other.clone());
        self.other64_daily.record(s.day, s.other_64s());
        match self.index.get(&s.day) {
            Some(&i) => self.summaries[i].merge(&s),
            None => {
                self.index.insert(s.day, self.summaries.len());
                self.summaries.push(s);
            }
        }
    }

    /// Ingests a summary only if its day is new; a duplicate day is
    /// rejected with the summary handed back untouched so the caller can
    /// choose to merge it instead (hence the deliberately large `Err`).
    #[allow(clippy::result_large_err)]
    pub fn try_ingest(&mut self, s: DaySummary) -> Result<(), DaySummary> {
        if self.index.contains_key(&s.day) {
            return Err(s);
        }
        self.ingest_summary(s);
        Ok(())
    }

    /// True when `day` has been ingested.
    pub fn has_day(&self, day: Day) -> bool {
        self.index.contains_key(&day)
    }

    /// The ingested days, ascending.
    pub fn days(&self) -> impl DoubleEndedIterator<Item = Day> + '_ {
        self.index.keys().copied()
    }

    /// The per-day summaries, in ingestion order.
    pub fn summaries(&self) -> &[DaySummary] {
        &self.summaries
    }

    /// The summary for one day, if ingested. O(log days) via the index.
    pub fn summary(&self, day: Day) -> Option<&DaySummary> {
        self.index.get(&day).map(|&i| &self.summaries[i])
    }

    /// Daily "Other" address observations (temporal classifier input).
    pub fn other_daily(&self) -> &DailyObservations {
        &self.other_daily
    }

    /// Daily "Other" /64 observations.
    pub fn other64_daily(&self) -> &DailyObservations {
        &self.other64_daily
    }

    /// Union of "Other" addresses over `days`.
    pub fn other_over(&self, days: impl IntoIterator<Item = Day>) -> AddrSet {
        AddrSet::union_all(
            days.into_iter()
                .filter_map(|d| self.other_daily.get(d))
                .collect::<Vec<_>>(),
        )
    }

    /// Union of EUI-64 "Other" addresses over `days`. Each day resolves
    /// through the index — O(k log d), not a scan per day.
    pub fn eui64_over(&self, days: impl IntoIterator<Item = Day>) -> AddrSet {
        AddrSet::union_all(
            days.into_iter()
                .filter_map(|d| self.summary(d).map(|s| &s.eui64))
                .collect::<Vec<_>>(),
        )
    }

    /// The full classification join for one day: every "Other" address
    /// with its content scheme (§3), temporal class (§5.1), and — when a
    /// density class is supplied — its spatial dense-prefix membership
    /// (§5.2.2). This is the record the paper's applications (target
    /// selection, retention policy, reputation) consume.
    pub fn classify_day(
        &self,
        day: Day,
        params: &v6census_core::temporal::StabilityParams,
        dense: Option<v6census_core::spatial::DensityClass>,
    ) -> Vec<v6census_core::ClassifiedAddr> {
        use v6census_core::{ClassifiedAddr, TemporalClass};
        let active = self.other_daily.on(day);
        let stable = self.other_daily.stable_on(day, params);
        let dense_members = dense.map(|c| c.dense_addresses(&active));
        active
            .iter()
            .map(|a| ClassifiedAddr {
                addr: a,
                scheme: classify(a),
                temporal: if stable.contains(a) {
                    TemporalClass::NdStable {
                        n: params.n,
                        back: params.back,
                        fwd: params.fwd,
                    }
                } else {
                    TemporalClass::NotKnownStable
                },
                dense_in: match (&dense_members, dense) {
                    (Some(members), Some(c)) if members.contains(a) => Some((c.n, c.p)),
                    _ => None,
                },
            })
            .collect()
    }

    /// Weekly category rollup: a [`DaySummary`]-shaped union over the
    /// seven days starting at `first` (Table 1b).
    pub fn week_summary(&self, first: Day) -> DaySummary {
        let days: Vec<&DaySummary> = self
            .summaries
            .iter()
            .filter(|s| s.day >= first && s.day <= first + 6)
            .collect();
        let mut eui64_macs = BTreeSet::new();
        for s in &days {
            eui64_macs.extend(s.eui64_macs.iter().copied());
        }
        let union = |f: fn(&DaySummary) -> &AddrSet| {
            AddrSet::union_all(days.iter().map(|s| f(s)).collect::<Vec<_>>())
        };
        DaySummary {
            day: first,
            teredo: union(|s| &s.teredo),
            isatap: union(|s| &s.isatap),
            sixtofour: union(|s| &s.sixtofour),
            other: union(|s| &s.other),
            eui64: union(|s| &s.eui64),
            eui64_macs,
            hits: days.iter().fold(0, |h, s| h.saturating_add(s.hits)),
        }
    }
}

/// Splits EUI-64 addresses of a set by their embedded MAC — used by the
/// §6.1.1 / §6.2.1 EUI-64 analyses.
pub fn group_by_mac(set: &AddrSet) -> std::collections::BTreeMap<Mac, Vec<Addr>> {
    let mut out: std::collections::BTreeMap<Mac, Vec<Addr>> = std::collections::BTreeMap::new();
    for a in set.iter() {
        if let AddressScheme::Eui64(mac) = classify_beneath_6to4(a) {
            out.entry(mac).or_default().push(a);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use v6census_synth::{world::epochs, WorldConfig};

    fn world() -> World {
        World::standard(WorldConfig::tiny(13))
    }

    #[test]
    fn day_summary_partitions_the_log() {
        let w = world();
        let log = w.day_log(epochs::mar2015());
        let s = DaySummary::from_log(&log);
        assert_eq!(s.total(), log.len(), "culling must not lose addresses");
        assert!(s.other.len() > s.sixtofour.len());
        assert!(!s.eui64.is_empty());
        assert!(s.eui64_macs.len() <= s.eui64.len());
        assert!(s.hits > 0);
        // Categories are disjoint.
        assert_eq!(s.other.intersection_len(&s.sixtofour), 0);
        assert_eq!(s.other.intersection_len(&s.teredo), 0);
        assert_eq!(s.sixtofour.intersection_len(&s.isatap), 0);
    }

    #[test]
    fn census_accumulates_days() {
        let w = world();
        let d = epochs::mar2015();
        let c = Census::run(&w, d, d + 2);
        assert_eq!(c.summaries().len(), 3);
        assert!(c.summary(d).is_some());
        assert!(c.summary(d + 3).is_none());
        assert_eq!(c.other_daily().day_count(), 3);
        let union = c.other_over(d.range_inclusive(d + 2));
        assert!(union.len() >= c.summary(d).unwrap().other.len());
    }

    #[test]
    fn week_summary_unions() {
        let w = world();
        let d = epochs::mar2015();
        let c = Census::run(&w, d, d + 6);
        let week = c.week_summary(d);
        let day = c.summary(d).unwrap();
        assert!(week.other.len() > day.other.len());
        assert!(week.eui64_macs.len() >= day.eui64_macs.len());
        // Every daily address is in the weekly union.
        for a in day.other.iter().take(500) {
            assert!(week.other.contains(a));
        }
    }

    #[test]
    fn classify_day_joins_all_dimensions() {
        use v6census_core::spatial::DensityClass;
        use v6census_core::temporal::StabilityParams;
        use v6census_core::TemporalClass;
        let w = world();
        let d = epochs::mar2015();
        let c = Census::run(&w, d - 7, d + 7);
        let params = StabilityParams::three_day();
        let records = c.classify_day(
            d,
            &params,
            Some(DensityClass::at(2, PrefixLen::lit::<112>())),
        );
        assert_eq!(records.len(), c.other_daily().on(d).len());
        let stable_count = records
            .iter()
            .filter(|r| matches!(r.temporal, TemporalClass::NdStable { .. }))
            .count();
        assert_eq!(
            stable_count,
            c.other_daily().stable_on(d, &params).len(),
            "temporal classes must agree with the classifier"
        );
        let dense_count = records.iter().filter(|r| r.dense_in.is_some()).count();
        assert!(
            dense_count > 0,
            "server blocks guarantee some dense members"
        );
        // The record renders with the paper's labels.
        let rendered = records
            .iter()
            .find(|r| r.dense_in.is_some())
            .unwrap()
            .to_string();
        assert!(rendered.contains("2@/112-dense"), "{rendered}");
    }

    #[test]
    fn duplicate_day_merges_or_rejects_explicitly() {
        let w = world();
        let d = epochs::mar2015();
        let log = w.day_log(d);
        let mut c = Census::new_empty();
        c.ingest(&log);
        let once_other = c.summary(d).unwrap().other.len();
        let once_hits = c.summary(d).unwrap().hits;
        // Merging the same log again must not duplicate the summary...
        c.ingest(&log);
        assert_eq!(c.summaries().len(), 1, "merge, not a second entry");
        assert_eq!(c.summary(d).unwrap().other.len(), once_other);
        // ...but hit totals accumulate (two deliveries of the same day).
        assert_eq!(c.summary(d).unwrap().hits, 2 * once_hits);
        // try_ingest rejects instead.
        let rejected = c.try_ingest(DaySummary::from_log(&log));
        assert!(rejected.is_err());
        assert_eq!(rejected.unwrap_err().day, d);
        assert!(c
            .try_ingest(DaySummary::from_log(&w.day_log(d + 1)))
            .is_ok());
        assert!(c.has_day(d + 1));
        assert_eq!(c.days().collect::<Vec<_>>(), vec![d, d + 1]);
    }

    #[test]
    fn day_sets_are_shared_not_copied() {
        let w = world();
        let d = epochs::mar2015();
        let mut c = Census::run(&w, d, d + 2);
        let copy = c.clone();
        for day in d.range_inclusive(d + 2) {
            let summary = c.summary(day).unwrap();
            let other = c.other_daily().get(day).unwrap();
            // One allocation per day's "Other" set: the summary's and
            // the observation store's are the same keys.
            assert!(summary.other.shares_storage(other), "{day}");
            // A census clone copies pointers, not addresses.
            assert!(other.shares_storage(copy.other_daily().get(day).unwrap()));
            assert!(c
                .other64_daily()
                .get(day)
                .unwrap()
                .shares_storage(copy.other64_daily().get(day).unwrap()));
            assert!(summary
                .eui64
                .shares_storage(&copy.summary(day).unwrap().eui64));
        }
        // Merging a duplicate day stores a fresh set for that day only:
        // the snapshot reuse rule reads a changed day off its pointer.
        c.ingest(&w.day_log(d + 1));
        let merged = c.other_daily().get(d + 1).unwrap();
        assert!(!merged.shares_storage(copy.other_daily().get(d + 1).unwrap()));
        assert_eq!(merged, copy.other_daily().get(d + 1).unwrap());
        for day in [d, d + 2] {
            assert!(c
                .other_daily()
                .get(day)
                .unwrap()
                .shares_storage(copy.other_daily().get(day).unwrap()));
        }
    }

    #[test]
    fn from_entries_matches_from_log() {
        let w = world();
        let log = w.day_log(epochs::mar2015());
        let a = DaySummary::from_log(&log);
        let b = DaySummary::from_entries(log.day, log.entries.iter().map(|e| (e.addr, e.hits)));
        assert_eq!(a.other.len(), b.other.len());
        assert_eq!(a.teredo.len(), b.teredo.len());
        assert_eq!(a.eui64_macs, b.eui64_macs);
        assert_eq!(a.hits, b.hits);
    }

    #[test]
    fn cull_agrees_with_classify_on_world_days() {
        let first = epochs::mar2015();
        for seed in [3, 13] {
            let w = World::standard(WorldConfig::tiny(seed));
            for day in [first, first + 1, first + 30] {
                let log = w.day_log(day);
                assert!(!log.is_empty());
                for a in log.addrs() {
                    match scheme::cull(a) {
                        Some(s) => assert_eq!(classify(a), s, "{a}"),
                        None => {
                            let s = classify(a);
                            assert!(!s.is_transition_mechanism() && !s.is_eui64(), "{a}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn indexed_lookup_agrees_with_scan() {
        let w = world();
        let d = epochs::mar2015();
        let c = Census::run(&w, d, d + 4);
        for day in d.range_inclusive(d + 4) {
            let via_index = c.summary(day).unwrap();
            let via_scan = c.summaries().iter().find(|s| s.day == day).unwrap();
            assert_eq!(via_index.day, via_scan.day);
            assert_eq!(via_index.other.len(), via_scan.other.len());
        }
        let eui = c.eui64_over(d.range_inclusive(d + 4));
        let manual = AddrSet::union_all(c.summaries().iter().map(|s| &s.eui64));
        assert_eq!(eui.len(), manual.len());
    }

    #[test]
    fn mac_grouping_is_consistent() {
        let w = world();
        let d = epochs::mar2015();
        let c = Census::run(&w, d, d);
        let s = c.summary(d).unwrap();
        let groups = group_by_mac(&s.eui64);
        let total: usize = groups.values().map(|v| v.len()).sum();
        assert_eq!(total, s.eui64.len());
        assert_eq!(groups.len(), s.eui64_macs.len());
    }
}
