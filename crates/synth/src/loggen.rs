//! Daily aggregated CDN log generation (§4.1's data source, synthesized).
//!
//! The CDN's aggregated logs contain hit counts per client address per
//! 24-hour period. [`World::day_log`] produces exactly that: every
//! network's archetype emits its subscribers' addresses for the day, the
//! legacy transition-mechanism populations (6to4, Teredo, ISATAP) are
//! added, and the result is aggregated by address. Day generation is
//! parallelized across networks with `std::thread::scope`; the output
//! is identical to the sequential computation because every emission is a
//! pure function of `(seed, entity, day)`.

use crate::archetype::RawObs;
use crate::kinds::TrueKind;
use crate::rng::Entropy;
use crate::world::{epochs, World};
use std::io;
use std::path::{Path, PathBuf};
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
            Some(daylog::KIND_COLUMNS),
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
    /// transition-mechanism populations, aggregated by address.
    pub fn day_log(&self, day: Day) -> DayLog {
        let ent = self.entropy();
        let networks = self.networks();
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(networks.len().max(1));
        let chunk = networks.len().div_ceil(threads);

        let mut raw: Vec<RawObs> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for part in networks.chunks(chunk) {
                handles.push(scope.spawn(move || {
                    let mut out = Vec::new();
                    for n in part {
                        n.archetype.emit_day(
                            &ent,
                            n.asn,
                            &n.prefixes,
                            n.max_subscribers,
                            n.activation,
                            day,
                            &mut out,
                        );
                    }
                    out
                }));
            }
            let mut all = Vec::new();
            for h in handles {
                match h.join() {
                    Ok(v) => all.extend(v),
                    // A panicked emission shard is a bug; degrade to the
                    // shards that completed rather than aborting the run.
                    Err(_) => debug_assert!(false, "emission thread panicked"),
                }
            }
            all
        });

        self.emit_6to4(day, &mut raw);
        self.emit_teredo(day, &mut raw);
        self.emit_isatap(day, &mut raw);

        // Aggregate by address. Colliding kinds (e.g. two mobile devices
        // with the same shared fixed IID landing on the same pool /64 —
        // the paper's address-reuse phenomenon) keep the first label.
        raw.sort_unstable_by_key(|o| o.addr);
        let mut entries: Vec<LogEntry> = Vec::with_capacity(raw.len());
        for o in raw {
            match entries.last_mut() {
                Some(last) if last.addr == o.addr => last.hits += o.hits as u64,
                _ => entries.push(LogEntry {
                    addr: o.addr,
                    hits: o.hits as u64,
                    kind: o.kind,
                }),
            }
        }
        DayLog { day, entries }
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
