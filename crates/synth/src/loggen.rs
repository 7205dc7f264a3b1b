//! Daily aggregated CDN log generation (§4.1's data source, synthesized).
//!
//! The CDN's aggregated logs contain hit counts per client address per
//! 24-hour period. [`World::day_log`] produces exactly that: every
//! network's archetype emits its subscribers' addresses for the day, the
//! legacy transition-mechanism populations (6to4, Teredo, ISATAP) are
//! added, and the result is aggregated by address.
//!
//! Emission runs on one worker per CPU (`std::thread::scope`). The
//! emitters are the networks followed by the three legacy populations,
//! and that list is the *emission order*. Workers claim emitters one at
//! a time from an atomic counter, so a large network does not leave the
//! other workers idle, and each worker sorts its own shard by address.
//! One k-way merge of the shards then aggregates the day. An address
//! emitted more than once sums its hits and keeps the label of its
//! earliest emission in emission order. Every emission is a pure
//! function of `(seed, entity, day)` and the merge order is total, so
//! the log is the same at any worker count and any interleaving of the
//! claims.

// Durability: day files are written through core::vfs only.
#![deny(clippy::disallowed_methods)]

use crate::archetype::RawObs;
use crate::kinds::TrueKind;
use crate::rng::Entropy;
use crate::world::{epochs, World};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use v6census_addr::Addr;
use v6census_core::daylog;
use v6census_core::temporal::Day;
use v6census_core::vfs::Vfs;

/// One aggregated log line: a client address, its hit count for the day,
/// and (synthetic-only) the ground-truth kind.
#[derive(Clone, Copy, Debug)]
pub struct LogEntry {
    /// The client address.
    pub addr: Addr,
    /// Total successful hits from this address this day.
    pub hits: u64,
    /// Ground truth for the address (not available to classifiers in the
    /// real study; used here for evaluation harnesses).
    pub kind: TrueKind,
}

/// One day of aggregated logs, sorted by address.
#[derive(Clone, Debug)]
pub struct DayLog {
    /// The log-processed date.
    pub day: Day,
    /// Aggregated entries, ascending by address, unique addresses.
    pub entries: Vec<LogEntry>,
}

impl DayLog {
    /// Number of unique active addresses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no addresses were active.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates the addresses.
    pub fn addrs(&self) -> impl Iterator<Item = Addr> + '_ {
        self.entries.iter().map(|e| e.addr)
    }

    /// Serializes the log as a canonical day log ([`daylog::write`]):
    /// header, column line, `addr\thits\tkind` lines, and the
    /// `# end <entries> <hits>` integrity trailer.
    pub fn to_text(&self) -> String {
        daylog::write(
            self.day,
            daylog::KIND_COLUMNS,
            self.entries
                .iter()
                .map(|e| (e.addr, e.hits, Some(e.kind.label()))),
        )
    }
}

/// Synthetic IPv4 "regions" where legacy-transition clients live: 16-bit
/// prefixes of densely used IPv4 space. 6to4 embeds these at bits 16–48
/// (the structure visible in Figure 5d).
const V4_REGIONS: [u16; 24] = [
    0x1803, 0x1844, 0x2e20, 0x3244, 0x3e10, 0x4a38, 0x4e60, 0x5276, 0x56a0, 0x5bc4, 0x5f00, 0x6310,
    0x6d20, 0x44a8, 0x4c40, 0x7b0c, 0x8d54, 0x99c8, 0xa1b0, 0xadd4, 0xb930, 0xbc28, 0xc0a0, 0xd8c4,
];

fn region_v4(ent: &Entropy, salt: &[u8; 4], ids: &[u64]) -> u32 {
    let region = V4_REGIONS[(ent.u64(salt, ids) % V4_REGIONS.len() as u64) as usize];
    let low = (ent.u64(b"v4lo", ids) & 0xffff) as u32;
    ((region as u32) << 16) | low
}

/// Teredo servers observed in the wild are few; eight synthetic ones.
const TEREDO_SERVERS: [u32; 8] = [
    0x4136_e378 >> 4, // keep them arbitrary but fixed
    0x5eb4_c2c1,
    0x41c9_2f11,
    0x5362_a801,
    0x4a30_1a05,
    0x68ec_4409,
    0x4d6a_2b61,
    0x52c1_9e21,
];

/// The emitters after the networks: 6to4, Teredo and ISATAP.
const LEGACY_EMITTERS: usize = 3;

/// One emitted observation, tagged with its emitter's index in
/// emission order (the tag fits in [`RawObs`]'s padding).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Emitted {
    addr: Addr,
    hits: u32,
    kind: TrueKind,
    emitter: u32,
}

/// Merges shards, each sorted by (address, emitter, emission), into
/// one log ascending by address. An address emitted more than once
/// sums its hits and keeps the kind of its earliest emission: the
/// lowest emitter index, and within it the first emitted. (Two mobile
/// devices with the same shared fixed IID landing on the same pool /64
/// — the paper's address-reuse phenomenon — emit one address twice.)
pub(crate) fn merge_shards(shards: &[Vec<Emitted>]) -> Vec<LogEntry> {
    let mut entries: Vec<LogEntry> = Vec::with_capacity(shards.iter().map(Vec::len).sum());
    let mut heads = vec![0usize; shards.len()];
    loop {
        // The shard whose head comes first. Shards are few (one per
        // worker), so their heads are scanned.
        let mut first: Option<(usize, &Emitted)> = None;
        for (k, (shard, &at)) in shards.iter().zip(&heads).enumerate() {
            if let Some(e) = shard.get(at) {
                if first.is_none_or(|(_, f)| (e.addr, e.emitter) < (f.addr, f.emitter)) {
                    first = Some((k, e));
                }
            }
        }
        let Some((k, e)) = first else {
            break;
        };
        heads[k] += 1;
        match entries.last_mut() {
            Some(last) if last.addr == e.addr => last.hits += u64::from(e.hits),
            _ => entries.push(LogEntry {
                addr: e.addr,
                hits: u64::from(e.hits),
                kind: e.kind,
            }),
        }
    }
    entries
}

impl World {
    /// Emits `count` consecutive day logs starting at `first` as files
    /// under `dir` (named `YYYY-MM-DD.log`), each written atomically
    /// *and durably* through the given [`Vfs`] — synth's durability
    /// path, shared by `v6census synth --out` and the crash-test
    /// harness. Returns the written paths in day order.
    pub fn emit_day_logs(
        &self,
        fs: &dyn Vfs,
        dir: &Path,
        first: Day,
        count: u32,
    ) -> io::Result<Vec<PathBuf>> {
        fs.create_dir_all(dir)?;
        let mut written = Vec::new();
        for offset in 0..count {
            let day = first + i32::try_from(offset).unwrap_or(i32::MAX);
            let path = dir.join(crate::faults::day_file_name(day));
            fs.write_atomic(&path, self.day_log(day).to_text().as_bytes())?;
            written.push(path);
        }
        Ok(written)
    }

    /// Generates the aggregated log for one day: all networks plus the
    /// transition-mechanism populations, aggregated by address, on one
    /// worker per CPU (see the module docs).
    pub fn day_log(&self, day: Day) -> DayLog {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
        self.day_log_on(day, workers)
    }

    /// [`World::day_log`] on at most `workers` threads, the calling
    /// thread included. The emitters, in emission order, are the
    /// networks and then the 6to4, Teredo and ISATAP populations. Each
    /// worker claims the next unclaimed emitter until none is left,
    /// tags what it emits with the emitter's index and stable-sorts its
    /// shard by address, so a shard is ordered by (address, emitter,
    /// emission). [`merge_shards`] merges the shards in that order, so
    /// the log does not depend on the number of workers or on how the
    /// claims interleave.
    pub(crate) fn day_log_on(&self, day: Day, workers: usize) -> DayLog {
        let emitters = self.networks().len() + LEGACY_EMITTERS;
        let workers = workers.clamp(1, emitters);
        let next = AtomicUsize::new(0);
        let work = || self.emit_shard(day, &next);
        let shards = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut shards = vec![work()];
            for h in handles {
                match h.join() {
                    Ok(shard) => shards.push(shard),
                    // A panicked emission shard is a bug; degrade to the
                    // shards that completed rather than aborting the run.
                    Err(_) => debug_assert!(false, "emission thread panicked"),
                }
            }
            shards
        });
        DayLog {
            day,
            entries: merge_shards(&shards),
        }
    }

    /// One worker's shard: the output of every emitter it claims from
    /// `next`, tagged with the emitter's index and sorted by address,
    /// stably, so equal addresses stay in emission order.
    fn emit_shard(&self, day: Day, next: &AtomicUsize) -> Vec<Emitted> {
        let ent = self.entropy();
        let networks = self.networks();
        let mut shard = Vec::new();
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if let Some(n) = networks.get(i) {
                n.archetype.emit_day(
                    &ent,
                    n.asn,
                    &n.prefixes,
                    n.max_subscribers,
                    n.activation,
                    day,
                    &mut out,
                );
            } else {
                match i - networks.len() {
                    0 => self.emit_6to4(day, &mut out),
                    1 => self.emit_teredo(day, &mut out),
                    2 => self.emit_isatap(day, &mut out),
                    _ => break,
                }
            }
            let emitter = u32::try_from(i).unwrap_or(u32::MAX);
            shard.extend(out.drain(..).map(|o| Emitted {
                addr: o.addr,
                hits: o.hits,
                kind: o.kind,
                emitter,
            }));
        }
        shard.sort_by_key(|e| e.addr);
        shard
    }

    /// The legacy 6to4 population: IPv4 hosts with 2002:V4::/48 prefixes.
    /// Absolute size stays roughly flat across the study while native
    /// IPv6 grows — reproducing the declining 6to4 *share* of Table 1.
    fn emit_6to4(&self, day: Day, out: &mut Vec<RawObs>) {
        let ent = self.entropy();
        let pop = ((30_000.0 * self.config().scale).round() as u64).max(8);
        for slot in 0..pop {
            if !ent.chance(b"64ac", &[slot, day.0 as u64], 0.42) {
                continue;
            }
            let v4 = region_v4(&ent, b"64v4", &[slot]);
            let net_high = (0x2002u64 << 48) | ((v4 as u64) << 16);
            let iid = if ent.chance(b"64pk", &[slot], 0.7) {
                ent.u64(b"64pr", &[slot, day.0 as u64]) & !(1 << 57)
            } else {
                1 + ent.u64(b"64lo", &[slot]) % 0xfffe
            };
            out.push(RawObs {
                addr: Addr(((net_high as u128) << 64) | iid as u128),
                hits: ent.small_count(b"64ht", &[slot, day.0 as u64], 3.0, 200) as u32,
                kind: TrueKind::SixToFour,
            });
        }
    }

    /// The Teredo population: tiny and fully ephemeral. Daily counts
    /// follow Table 1's anchors (2.0 K / 3.3 K / 20.1 K at full scale).
    fn emit_teredo(&self, day: Day, out: &mut Vec<RawObs>) {
        let ent = self.entropy();
        let target = lerp_epochs(day, 2.0, 3.3, 20.1) * self.config().scale;
        let count = target.round().max(1.0) as u64;
        for i in 0..count {
            let ids = [i, day.0 as u64];
            let server = TEREDO_SERVERS[(ent.u64(b"tdsv", &ids) % 8) as usize];
            let client = region_v4(&ent, b"tdcl", &ids);
            let port = (ent.u64(b"tdpt", &ids) & 0xffff) as u32;
            let flags = 0x8000u32;
            let addr = (0x2001_0000u128 << 96)
                | ((server as u128) << 64)
                | ((flags as u128) << 48)
                | (((port ^ 0xffff) as u128) << 32)
                | ((client ^ 0xffff_ffff) as u128);
            out.push(RawObs {
                addr: Addr(addr),
                hits: 1 + (ent.u64(b"tdht", &ids) % 4) as u32,
                kind: TrueKind::Teredo,
            });
        }
    }

    /// The ISATAP population: a small set of enterprise hosts with stable
    /// embedded-IPv4 IIDs (daily counts ≈ 90–133 at full scale, as in
    /// Table 1).
    fn emit_isatap(&self, day: Day, out: &mut Vec<RawObs>) {
        let ent = self.entropy();
        let pop = (lerp_epochs(day, 180.0, 202.0, 266.0) * self.config().scale)
            .round()
            .max(2.0) as u64;
        // Hosts live in a handful of enterprise /64s inside tail ASNs.
        let networks = self.networks();
        let tail_start = networks
            .iter()
            .position(|n| n.asn >= crate::world::asns::TAIL_FIRST)
            .unwrap_or(0);
        let orgs = (networks.len() - tail_start).clamp(1, 40);
        for host in 0..pop {
            if !ent.chance(b"isac", &[host, day.0 as u64], 0.5) {
                continue;
            }
            let org = &networks[tail_start + (ent.u64(b"isor", &[host]) % orgs as u64) as usize];
            let Some(org_prefix) = org.prefixes.first() else {
                continue;
            };
            let base_high = (org_prefix.addr().0 >> 64) as u64;
            let net_high = base_high | (0xe << 28) | (ent.u64(b"isnt", &[host]) % 4);
            let v4 = region_v4(&ent, b"isv4", &[host]);
            let iid = 0x0000_5efe_0000_0000u64 | v4 as u64;
            out.push(RawObs {
                addr: Addr(((net_high as u128) << 64) | iid as u128),
                hits: ent.small_count(b"isht", &[host, day.0 as u64], 2.0, 50) as u32,
                kind: TrueKind::Isatap,
            });
        }
    }
}

/// Linear interpolation over the three study epochs.
fn lerp_epochs(day: Day, at_mar14: f64, at_sep14: f64, at_mar15: f64) -> f64 {
    let m14 = epochs::mar2014();
    let s14 = epochs::sep2014();
    let m15 = epochs::mar2015();
    if day <= m14 {
        // Gentle pre-study ramp proportional to overall growth.
        return at_mar14 * (crate::world::growth(day) / crate::world::growth(m14));
    }
    if day <= s14 {
        let t = (day - m14) as f64 / (s14 - m14) as f64;
        return at_mar14 + t * (at_sep14 - at_mar14);
    }
    if day <= m15 {
        let t = (day - s14) as f64 / (m15 - s14) as f64;
        return at_sep14 + t * (at_mar15 - at_sep14);
    }
    at_mar15
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;
    use v6census_addr::scheme::{classify, AddressScheme};

    fn world() -> World {
        World::standard(WorldConfig::tiny(5))
    }

    #[test]
    fn day_log_is_sorted_unique_and_deterministic() {
        let w = world();
        let log = w.day_log(epochs::mar2015());
        assert!(!log.is_empty());
        for pair in log.entries.windows(2) {
            assert!(pair[0].addr < pair[1].addr, "not strictly sorted");
        }
        let log2 = w.day_log(epochs::mar2015());
        assert_eq!(log.len(), log2.len());
        for (a, b) in log.entries.iter().zip(&log2.entries) {
            assert_eq!(a.addr, b.addr);
            assert_eq!(a.hits, b.hits);
        }
        // The same log from one worker and from several, kind included.
        let fields = |l: &DayLog| -> Vec<(Addr, u64, TrueKind)> {
            l.entries.iter().map(|e| (e.addr, e.hits, e.kind)).collect()
        };
        for workers in [1, 2, 3, 8] {
            let other = w.day_log_on(epochs::mar2015(), workers);
            assert!(fields(&other) == fields(&log), "{workers} workers");
        }
    }

    fn emitted(addr: u128, hits: u32, kind: TrueKind, emitter: u32) -> Emitted {
        Emitted {
            addr: Addr(addr),
            hits,
            kind,
            emitter,
        }
    }

    #[test]
    fn merge_keeps_the_earliest_emitters_label() {
        // Address 5 is emitted by network 1 (Cpe) in one shard and by
        // network 0 (Dhcp) and the 6to4 emitter in the other; address
        // 9 twice by network 2, Cpe first.
        let shards = vec![
            vec![
                emitted(3, 1, TrueKind::Cpe, 1),
                emitted(5, 2, TrueKind::Cpe, 1),
                emitted(9, 4, TrueKind::Cpe, 2),
                emitted(9, 8, TrueKind::FixedIid, 2),
            ],
            vec![
                emitted(5, 16, TrueKind::Dhcp, 0),
                emitted(5, 32, TrueKind::SixToFour, 7),
                emitted(7, 64, TrueKind::Teredo, 8),
            ],
            vec![],
        ];
        let got: Vec<(u128, u64, TrueKind)> = merge_shards(&shards)
            .iter()
            .map(|e| (e.addr.0, e.hits, e.kind))
            .collect();
        assert_eq!(
            got,
            [
                (3, 1, TrueKind::Cpe),
                (5, 50, TrueKind::Dhcp),
                (7, 64, TrueKind::Teredo),
                (9, 12, TrueKind::Cpe),
            ]
        );
        // Which shard holds which emitter does not matter.
        let swapped = [shards[1].clone(), shards[0].clone()];
        let again: Vec<(u128, u64, TrueKind)> = merge_shards(&swapped)
            .iter()
            .map(|e| (e.addr.0, e.hits, e.kind))
            .collect();
        assert_eq!(again, got);
        assert!(merge_shards(&[]).is_empty());
        // The emitter tag rides in the observation's padding.
        assert_eq!(
            std::mem::size_of::<Emitted>(),
            std::mem::size_of::<RawObs>()
        );
    }

    #[test]
    fn transition_mechanisms_present_with_correct_content() {
        let w = world();
        let log = w.day_log(epochs::mar2015());
        let mut teredo = 0;
        let mut sixtofour = 0;
        let mut isatap = 0;
        for e in &log.entries {
            match e.kind {
                TrueKind::Teredo => {
                    teredo += 1;
                    assert_eq!(classify(e.addr), AddressScheme::Teredo);
                }
                TrueKind::SixToFour => {
                    sixtofour += 1;
                    assert_eq!(classify(e.addr), AddressScheme::SixToFour);
                }
                TrueKind::Isatap => {
                    isatap += 1;
                    assert_eq!(classify(e.addr), AddressScheme::Isatap);
                }
                _ => {}
            }
        }
        assert!(teredo >= 1, "no teredo");
        assert!(sixtofour > 50, "too little 6to4: {sixtofour}");
        assert!(isatap >= 1, "no isatap");
        // 6to4 is a few percent of the total, like Table 1.
        let share = sixtofour as f64 / log.len() as f64;
        assert!(share > 0.01 && share < 0.20, "6to4 share {share:.3}");
    }

    #[test]
    fn weekly_population_exceeds_daily() {
        let w = world();
        let d = epochs::mar2015();
        let daily = w.day_log(d).len();
        let mut week: Vec<Addr> = Vec::new();
        for i in 0..7 {
            week.extend(w.day_log(d + i).addrs());
        }
        week.sort_unstable();
        week.dedup();
        let ratio = week.len() as f64 / daily as f64;
        assert!(
            (2.5..8.0).contains(&ratio),
            "weekly/daily ratio {ratio:.2} (weekly {} daily {daily})",
            week.len()
        );
    }

    #[test]
    fn population_grows_across_epochs() {
        let w = world();
        let d14 = w.day_log(epochs::mar2014()).len() as f64;
        let d15 = w.day_log(epochs::mar2015()).len() as f64;
        let ratio = d15 / d14;
        assert!((1.6..3.0).contains(&ratio), "growth ratio {ratio:.2}");
    }

    #[test]
    fn addresses_resolve_to_asns() {
        let w = world();
        let d = epochs::mar2015();
        let rt = w.routing_table(d);
        let log = w.day_log(d);
        let mut unresolved = 0;
        for e in &log.entries {
            if rt.longest_match(e.addr).is_none() {
                unresolved += 1;
            }
        }
        assert_eq!(unresolved, 0, "{unresolved} of {} unresolved", log.len());
    }

    #[test]
    fn to_text_round_trips_through_the_codec() {
        let w = World::standard(WorldConfig {
            seed: 3,
            scale: 0.002,
        });
        let first = epochs::mar2015();
        for day in first.range_inclusive(first + 6) {
            let log = w.day_log(day);
            let mut read = Vec::new();
            let parsed = daylog::read(log.to_text().as_bytes(), &mut read).unwrap();
            let entries: Vec<(Addr, u64)> = log.entries.iter().map(|e| (e.addr, e.hits)).collect();
            let hits: u64 = entries.iter().map(|&(_, h)| h).sum();
            assert_eq!(read, entries, "{day}");
            assert_eq!(parsed.header, Some((day, log.len())));
            assert_eq!(parsed.trailer, Some((log.len(), hits)));
            assert_eq!(parsed.data_lines, log.len());
            assert!(parsed.bad.is_empty(), "{day}: {:?}", parsed.bad);
        }
    }
}
