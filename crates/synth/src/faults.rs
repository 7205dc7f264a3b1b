//! Deterministic fault injection over serialized day logs.
//!
//! The robustness of the ingestion pipeline cannot be argued from clean
//! synthetic data; it has to be exercised against the ways real log
//! collection fails: corrupted lines, files cut short by a dying writer,
//! the same day delivered twice, headers that disagree with file names,
//! and days that never arrive. [`FaultInjector`] produces exactly those
//! failures, seeded — every fault site is a pure function of
//! `(seed, day)`, so a failing ingestion test reproduces bit-for-bit.
//!
//! Clean days are written by
//! [`DayLog::to_text`](crate::loggen::DayLog::to_text); the format itself —
//! header, data lines, and the `# end` trailer that lets a reader
//! *prove* truncation — is [`v6census_core::daylog`]'s. The faults that
//! keep a file valid write its header and trailer through that codec;
//! the ones that break the format on purpose edit the text.

use crate::rng::Entropy;
use crate::world::World;
use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use v6census_addr::Addr;
use v6census_core::daylog::{self, Line};
use v6census_core::temporal::Day;

/// One kind of injected failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Garbles `count` data lines (unparseable address or hits column).
    CorruptLines {
        /// How many data lines to damage.
        count: usize,
    },
    /// Cuts the file mid-line at roughly `keep_pct` percent of its data,
    /// dropping the integrity trailer — a writer that died mid-flush.
    Truncate {
        /// Percentage (0–100) of data lines kept before the cut.
        keep_pct: u8,
    },
    /// Delivers the same day twice (a second file with a `.dup` name).
    DuplicateDay,
    /// Rewrites the header date by `offset` days so it disagrees with
    /// the file name — a mislabeled delivery.
    ShiftHeaderDay {
        /// Days added to the header date.
        offset: i32,
    },
    /// The day's file is never written.
    DropDay,
    /// Appends `addrs` synthetic addresses packed into one /64 — a
    /// *valid* but adversarially dense file (header count and integrity
    /// trailer are rewritten to match), built to blow past analysis
    /// memory budgets rather than to fail parsing.
    OversizedPrefixBlob {
        /// How many blob addresses to append.
        addrs: usize,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::CorruptLines { count } => write!(f, "corrupt-lines({count})"),
            Fault::Truncate { keep_pct } => write!(f, "truncate({keep_pct}%)"),
            Fault::DuplicateDay => write!(f, "duplicate-day"),
            Fault::ShiftHeaderDay { offset } => write!(f, "shift-header-day({offset:+})"),
            Fault::DropDay => write!(f, "drop-day"),
            Fault::OversizedPrefixBlob { addrs } => write!(f, "oversized-prefix-blob({addrs})"),
        }
    }
}

/// The faults to inject, by day. Days without an entry are written clean.
#[derive(Clone, Debug, Default)]
pub struct FaultSpec {
    /// `(day, fault)` pairs; multiple faults on one day apply in order.
    pub faults: Vec<(Day, Fault)>,
}

impl FaultSpec {
    /// The faults scheduled for `day`, in declaration order.
    pub fn for_day(&self, day: Day) -> impl Iterator<Item = &Fault> {
        self.faults
            .iter()
            .filter(move |(d, _)| *d == day)
            .map(|(_, f)| f)
    }
}

/// A record of one fault as actually applied.
#[derive(Clone, Debug)]
pub struct AppliedFault {
    /// The day the fault targeted.
    pub day: Day,
    /// The fault.
    pub fault: Fault,
    /// The file the fault landed in (`None` for [`Fault::DropDay`]).
    pub path: Option<PathBuf>,
}

/// The ground-truth manifest of everything [`FaultInjector::write_day_files`]
/// did — what a robustness test asserts the ingest report against.
#[derive(Clone, Debug, Default)]
pub struct FaultManifest {
    /// Every applied fault, in day order.
    pub applied: Vec<AppliedFault>,
}

impl FaultManifest {
    /// The applied faults for one day.
    pub fn for_day(&self, day: Day) -> Vec<&AppliedFault> {
        self.applied.iter().filter(|a| a.day == day).collect()
    }

    /// A human-readable summary, one line per fault.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "write! into a String cannot fail"
    )]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for a in &self.applied {
            let _ = writeln!(out, "{}\t{}", a.day, a.fault);
        }
        out
    }
}

/// Seeded fault injector over serialized day logs.
#[derive(Clone, Copy, Debug)]
pub struct FaultInjector {
    ent: Entropy,
}

/// The file name for a day's log: `YYYY-MM-DD.log`.
pub fn day_file_name(day: Day) -> String {
    format!("{day}.log")
}

impl FaultInjector {
    /// Creates an injector; all fault sites derive from `seed`.
    pub const fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            ent: Entropy::new(seed),
        }
    }

    /// Applies one fault to a serialized day log. Returns `None` for
    /// [`Fault::DropDay`] (the file must not be written) and for
    /// [`Fault::DuplicateDay`] leaves the text unchanged (duplication is
    /// a write-time fault, handled by [`FaultInjector::write_day_files`]).
    pub fn apply(&self, day: Day, text: &str, fault: &Fault) -> Option<String> {
        let id = day.0 as u64;
        let ids = [id];
        match *fault {
            Fault::DropDay => None,
            Fault::DuplicateDay => Some(text.to_string()),
            Fault::CorruptLines { count } => {
                let mut lines: Vec<String> = text.lines().map(String::from).collect();
                let data: Vec<usize> = lines
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| !l.starts_with('#') && !l.is_empty())
                    .map(|(i, _)| i)
                    .collect();
                if data.is_empty() {
                    return Some(text.to_string());
                }
                for k in 0..count {
                    let victim =
                        data[(self.ent.u64(b"flct", &[id, k as u64]) % data.len() as u64) as usize];
                    // Alternate between an unparseable address and an
                    // unparseable hits column, so both error paths fire.
                    lines[victim] = if k % 2 == 0 {
                        format!("zz:not:an:addr:{k}\t7\tcorrupt")
                    } else {
                        let addr = lines[victim].split('\t').next().unwrap_or("::1");
                        format!("{addr}\tbanana\tcorrupt")
                    };
                }
                Some(lines.join("\n") + "\n")
            }
            Fault::Truncate { keep_pct } => {
                let lines: Vec<&str> = text.lines().collect();
                // Header lines stay; keep ~keep_pct% of data lines and
                // cut the last survivor mid-line (no trailing newline,
                // no trailer) — the signature of a killed writer.
                let header: Vec<&str> = lines
                    .iter()
                    .take_while(|l| l.starts_with('#'))
                    .copied()
                    .collect();
                let data: Vec<&str> = lines[header.len()..]
                    .iter()
                    .filter(|l| !l.starts_with('#'))
                    .copied()
                    .collect();
                let keep = (data.len() * keep_pct.min(100) as usize / 100).max(1);
                let mut out = header.join("\n") + "\n";
                for l in &data[..keep.saturating_sub(1)] {
                    out.push_str(l);
                    out.push('\n');
                }
                if let Some(last) = data.get(keep.saturating_sub(1)) {
                    let cut =
                        1 + (self.ent.u64(b"fltr", &ids) % last.len().max(2) as u64 / 2) as usize;
                    out.push_str(&last[..cut.min(last.len())]);
                }
                Some(out)
            }
            Fault::ShiftHeaderDay { offset } => {
                let (head, rest) = text.split_once('\n').unwrap_or((text, ""));
                let mut out = String::with_capacity(text.len());
                match daylog::parse_header(head) {
                    Some((d, n)) => daylog::write_header(&mut out, d + offset, n),
                    None => {
                        out.push_str(head);
                        out.push('\n');
                    }
                }
                out.push_str(rest);
                Some(out)
            }
            Fault::OversizedPrefixBlob { addrs } => {
                // Keep every line but the header and trailer, append the
                // blob, then write a header and trailer that count it, so
                // the file still passes every integrity check — the
                // danger is its size, not its shape.
                let (mut header_day, mut n, mut hits) = (None, addrs, addrs as u64);
                let mut body = String::with_capacity(text.len() + addrs * 24);
                for (i, line) in text.lines().enumerate() {
                    match daylog::parse_line(line) {
                        Line::Blank => continue,
                        Line::Comment(t) => match (i, daylog::parse_header(t)) {
                            (0, Some((d, _))) => {
                                header_day = Some(d);
                                continue;
                            }
                            _ if daylog::parse_trailer(t).is_some() => continue,
                            _ => {}
                        },
                        Line::Entry(_, h) => (n, hits) = (n + 1, hits + h),
                        Line::Bad(_) => n += 1,
                    }
                    body.push_str(line);
                    body.push('\n');
                }
                // The blob lives in one /64; low bits enumerate hosts.
                let seg = self.ent.u64(b"blob", &ids) & 0xffff;
                let base: u128 = (0x2001_0db8u128 << 96) | ((0xb10b_0000u128 | seg as u128) << 64);
                for i in 0..addrs {
                    daylog::write_entry(&mut body, Addr(base | i as u128), 1, Some("blob"));
                }
                let mut out = String::with_capacity(body.len() + 128);
                if let Some(d) = header_day {
                    daylog::write_header(&mut out, d, n);
                }
                out.push_str(&body);
                daylog::write_trailer(&mut out, n, hits);
                Some(out)
            }
        }
    }

    /// Generates and writes day-log files for `first..=last` under `dir`,
    /// applying the faults in `spec`. Returns the manifest of applied
    /// faults. Clean days serialize via
    /// [`DayLog::to_text`](crate::loggen::DayLog::to_text).
    #[expect(
        clippy::disallowed_methods,
        reason = "the drill harness writes damaged day files outside the Vfs on purpose"
    )]
    pub fn write_day_files(
        &self,
        world: &World,
        first: Day,
        last: Day,
        dir: &Path,
        spec: &FaultSpec,
    ) -> io::Result<FaultManifest> {
        std::fs::create_dir_all(dir)?;
        let mut manifest = FaultManifest::default();
        for day in first.range_inclusive(last) {
            let mut text = Some(world.day_log(day).to_text());
            let mut duplicate = false;
            for fault in spec.for_day(day) {
                if *fault == Fault::DuplicateDay {
                    duplicate = true;
                }
                let next = match &text {
                    Some(t) => self.apply(day, t, fault),
                    None => None,
                };
                manifest.applied.push(AppliedFault {
                    day,
                    fault: *fault,
                    path: next.is_some().then(|| dir.join(day_file_name(day))),
                });
                text = next;
            }
            if let Some(t) = text {
                std::fs::write(dir.join(day_file_name(day)), &t)?;
                if duplicate {
                    std::fs::write(dir.join(format!("{day}.dup.log")), &t)?;
                }
            }
        }
        Ok(manifest)
    }
}

// ---------------------------------------------------------------------------
// Analysis-phase faults: tripped inside supervised work units
// ---------------------------------------------------------------------------

/// A fault injected into the *analysis* phase — tripped inside a running
/// work unit of the supervised engine, rather than written into a file.
/// These exercise the supervisor's containment machinery: panic
/// isolation with retry, deadline watchdogs, and cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnalysisFault {
    /// The unit panics on its first `attempts` attempts (attempt numbers
    /// are 0-based), then succeeds — `attempts: 1` exercises
    /// retry-then-recover, a large value exercises retry-then-exclude.
    PanicShard {
        /// How many leading attempts panic.
        attempts: u32,
    },
    /// The unit blocks for `millis` without ever checking cancellation —
    /// a hung shard the deadline watchdog must abandon.
    HangShard {
        /// How long the unit blocks, in milliseconds.
        millis: u64,
    },
    /// The unit sleeps `millis` before doing its (correct) work — slow
    /// but healthy, must *not* be excluded if the deadline allows.
    SlowShard {
        /// Added latency in milliseconds.
        millis: u64,
    },
}

impl fmt::Display for AnalysisFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisFault::PanicShard { attempts } => write!(f, "panic-shard(x{attempts})"),
            AnalysisFault::HangShard { millis } => write!(f, "hang-shard({millis}ms)"),
            AnalysisFault::SlowShard { millis } => write!(f, "slow-shard({millis}ms)"),
        }
    }
}

/// Which analysis units get which [`AnalysisFault`], matched by
/// substring against the unit label (e.g. `"densify/2001:"` or
/// `"ingest/2015-03-17"`). Parsed from the CLI `--inject` flag.
#[derive(Clone, Debug, Default)]
pub struct AnalysisFaultPlan {
    rules: Vec<(String, AnalysisFault)>,
}

impl AnalysisFaultPlan {
    /// An empty plan: no unit is faulted.
    pub fn none() -> AnalysisFaultPlan {
        AnalysisFaultPlan::default()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Schedules `fault` for every unit whose label contains `pattern`.
    pub fn add(&mut self, pattern: impl Into<String>, fault: AnalysisFault) {
        self.rules.push((pattern.into(), fault));
    }

    /// The scheduled rules, in declaration order.
    pub fn rules(&self) -> &[(String, AnalysisFault)] {
        &self.rules
    }

    /// Parses a comma-separated fault spec, the `--inject` grammar:
    ///
    /// * `panic:PATTERN` — panic on the first attempt only;
    /// * `panic:PATTERN:N` — panic on the first `N` attempts;
    /// * `hang:PATTERN:MILLIS` — block without checking cancellation;
    /// * `slow:PATTERN:MILLIS` — sleep, then work normally.
    pub fn parse(spec: &str) -> Result<AnalysisFaultPlan, String> {
        let mut plan = AnalysisFaultPlan::none();
        for item in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let item = item.trim();
            let mut parts = item.splitn(3, ':');
            let kind = parts.next().unwrap_or("");
            let pattern = parts
                .next()
                .filter(|p| !p.is_empty())
                .ok_or_else(|| format!("inject spec {item:?}: missing unit pattern"))?;
            let num = parts.next();
            let parse_num = |what: &str| -> Result<u64, String> {
                num.ok_or_else(|| format!("inject spec {item:?}: missing {what}"))?
                    .parse::<u64>()
                    .map_err(|_| format!("inject spec {item:?}: bad {what}"))
            };
            let fault = match kind {
                "panic" => AnalysisFault::PanicShard {
                    attempts: match num {
                        None => 1,
                        Some(_) => parse_num("attempt count")? as u32,
                    },
                },
                "hang" => AnalysisFault::HangShard {
                    millis: parse_num("milliseconds")?,
                },
                "slow" => AnalysisFault::SlowShard {
                    millis: parse_num("milliseconds")?,
                },
                other => {
                    return Err(format!(
                        "inject spec {item:?}: unknown fault kind {other:?} \
                         (expected panic, hang, or slow)"
                    ))
                }
            };
            plan.add(pattern, fault);
        }
        Ok(plan)
    }

    /// The first scheduled fault whose pattern matches `unit`.
    pub fn fault_for(&self, unit: &str) -> Option<AnalysisFault> {
        self.rules
            .iter()
            .find(|(pat, _)| unit.contains(pat.as_str()))
            .map(|&(_, f)| f)
    }

    /// Executes whatever fault is scheduled for `unit` at `attempt`:
    /// panics, blocks, or sleeps. The supervised engine calls this at the
    /// top of each work unit; with an empty plan it is a no-op.
    #[expect(
        clippy::panic,
        reason = "deliberate fault injection; the supervisor calls trip() inside catch_unwind, so the panic is contained and surfaced as a unit failure"
    )]
    pub fn trip(&self, unit: &str, attempt: u32) {
        match self.fault_for(unit) {
            Some(AnalysisFault::PanicShard { attempts }) if attempt < attempts => {
                panic!("injected panic in unit `{unit}` (attempt {attempt})");
            }
            Some(AnalysisFault::HangShard { millis })
            | Some(AnalysisFault::SlowShard { millis }) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(
        clippy::disallowed_methods,
        clippy::let_underscore_must_use,
        reason = "tests build their fixtures with std::fs and clean up best-effort"
    )]
    use super::*;
    use crate::loggen::DayLog;
    use crate::world::{epochs, WorldConfig};

    fn log() -> DayLog {
        World::standard(WorldConfig {
            seed: 3,
            scale: 0.002,
        })
        .day_log(epochs::mar2015())
    }

    #[test]
    fn serialization_has_header_and_trailer() {
        let l = log();
        let text = l.to_text();
        assert!(text.starts_with(&format!("# synthetic day {}: {}", l.day, l.len())));
        let last = text.lines().last().unwrap();
        let hits: u64 = l.entries.iter().map(|e| e.hits).sum();
        assert_eq!(last, format!("# end {} {hits}", l.len()));
        let data = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(data, l.len());
    }

    #[test]
    fn corrupt_lines_damages_exactly_the_budget() {
        let l = log();
        let inj = FaultInjector::new(9);
        let out = inj
            .apply(l.day, &l.to_text(), &Fault::CorruptLines { count: 5 })
            .unwrap();
        let bad = out
            .lines()
            .filter(|line| !line.starts_with('#'))
            .filter(|line| {
                let mut cols = line.split('\t');
                let addr_bad = cols
                    .next()
                    .map(|a| a.parse::<v6census_addr::Addr>().is_err())
                    .unwrap_or(true);
                let hits_bad = cols
                    .next()
                    .map(|h| h.parse::<u64>().is_err())
                    .unwrap_or(true);
                addr_bad || hits_bad
            })
            .count();
        assert!((1..=5).contains(&bad), "{bad} damaged lines");
        // Determinism: same seed, same damage.
        let again = inj
            .apply(l.day, &l.to_text(), &Fault::CorruptLines { count: 5 })
            .unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn truncate_drops_trailer_and_cuts_midline() {
        let l = log();
        let inj = FaultInjector::new(9);
        let out = inj
            .apply(l.day, &l.to_text(), &Fault::Truncate { keep_pct: 50 })
            .unwrap();
        assert!(!out.contains("# end"), "trailer must be gone");
        assert!(!out.ends_with('\n'), "must cut mid-line");
        let kept = out.lines().filter(|l| !l.starts_with('#')).count();
        assert!(kept < l.len(), "{kept} of {}", l.len());
    }

    #[test]
    fn shift_header_day_rewrites_only_the_header() {
        let l = log();
        let inj = FaultInjector::new(9);
        let out = inj
            .apply(l.day, &l.to_text(), &Fault::ShiftHeaderDay { offset: -1 })
            .unwrap();
        let header = out.lines().next().unwrap();
        assert!(header.contains(&(l.day - 1).to_string()), "{header}");
        assert_eq!(
            out.lines().filter(|l| !l.starts_with('#')).count(),
            l.len(),
            "data must be intact"
        );
    }

    #[test]
    fn oversized_blob_stays_valid_and_packs_one_slash64() {
        let l = log();
        let inj = FaultInjector::new(9);
        let before = l.to_text();
        let out = inj
            .apply(l.day, &before, &Fault::OversizedPrefixBlob { addrs: 500 })
            .unwrap();
        let data: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(data.len(), l.len() + 500);
        // Header count and trailer were rewritten to match.
        let header = out.lines().next().unwrap();
        assert!(
            header.contains(&format!(": {} unique client addrs", data.len())),
            "{header}"
        );
        let trailer = out.lines().last().unwrap();
        let hits_before: u64 = l.entries.iter().map(|e| e.hits).sum();
        assert_eq!(
            trailer,
            &format!("# end {} {}", data.len(), hits_before + 500)
        );
        // All blob addresses parse and share one /64.
        let blob: Vec<v6census_addr::Addr> = data
            .iter()
            .filter(|l| l.ends_with("\tblob"))
            .map(|l| l.split('\t').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(blob.len(), 500);
        let net = blob[0].0 >> 64;
        assert!(blob.iter().all(|a| a.0 >> 64 == net), "blob spans /64s");
        // Deterministic.
        assert_eq!(
            out,
            inj.apply(l.day, &before, &Fault::OversizedPrefixBlob { addrs: 500 })
                .unwrap()
        );
    }

    #[test]
    fn analysis_plan_parses_the_inject_grammar() {
        let plan =
            AnalysisFaultPlan::parse("panic:densify/2001, hang:ingest/2015-03-18:5000,slow:mra:25")
                .unwrap();
        assert_eq!(plan.rules().len(), 3);
        assert_eq!(
            plan.fault_for("densify/2001:db8::/32"),
            Some(AnalysisFault::PanicShard { attempts: 1 })
        );
        assert_eq!(
            plan.fault_for("ingest/2015-03-18"),
            Some(AnalysisFault::HangShard { millis: 5000 })
        );
        assert_eq!(
            plan.fault_for("mra/whole"),
            Some(AnalysisFault::SlowShard { millis: 25 })
        );
        assert_eq!(plan.fault_for("table1/whole"), None);
        assert_eq!(
            AnalysisFaultPlan::parse("panic:x:3")
                .unwrap()
                .fault_for("x"),
            Some(AnalysisFault::PanicShard { attempts: 3 })
        );
        assert!(AnalysisFaultPlan::parse("").unwrap().is_empty());
        assert!(AnalysisFaultPlan::parse("panic:").is_err());
        assert!(AnalysisFaultPlan::parse("hang:x").is_err());
        assert!(AnalysisFaultPlan::parse("slow:x:abc").is_err());
        assert!(AnalysisFaultPlan::parse("explode:x").is_err());
        assert_eq!(
            AnalysisFault::PanicShard { attempts: 2 }.to_string(),
            "panic-shard(x2)"
        );
    }

    #[test]
    fn analysis_plan_trips_panics_and_recovers_on_retry() {
        let plan = AnalysisFaultPlan::parse("panic:shard-7").unwrap();
        let r = std::panic::catch_unwind(|| plan.trip("densify/shard-7", 0));
        assert!(r.is_err(), "attempt 0 must panic");
        // Attempt 1 is past the budget: no panic.
        plan.trip("densify/shard-7", 1);
        // Unmatched units never trip.
        plan.trip("densify/shard-8", 0);
        // Slow faults return (and don't panic).
        AnalysisFaultPlan::parse("slow:x:1").unwrap().trip("x", 0);
    }

    #[test]
    fn write_day_files_honours_the_spec() {
        let dir = std::env::temp_dir().join(format!(
            "v6census-faults-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let w = World::standard(WorldConfig {
            seed: 3,
            scale: 0.002,
        });
        let d0 = epochs::mar2015();
        let spec = FaultSpec {
            faults: vec![
                (d0 + 1, Fault::DropDay),
                (d0 + 2, Fault::DuplicateDay),
                (d0 + 3, Fault::Truncate { keep_pct: 40 }),
            ],
        };
        let manifest = FaultInjector::new(5)
            .write_day_files(&w, d0, d0 + 4, &dir, &spec)
            .unwrap();
        assert_eq!(manifest.applied.len(), 3);
        assert!(dir.join(day_file_name(d0)).exists());
        assert!(!dir.join(day_file_name(d0 + 1)).exists(), "dropped");
        assert!(
            dir.join(format!("{}.dup.log", d0 + 2)).exists(),
            "duplicated"
        );
        assert!(manifest.summary().contains("drop-day"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
