//! The benchmark's yardstick: a fixed, std-only kernel doing the same kind
//! of work as a census day — tab-separated log lines parsed into IPv6
//! addresses and hit counts, the /64s counted in a hash map, the addresses
//! sorted, deduplicated and merged against another day — timed beside the
//! system under test.
//!
//! The two-CPU host the benchmark shares runs at a speed that changes by up
//! to 1.6× for minutes at a time, and the change hits branchy, parse-heavy
//! code far harder than a tight arithmetic loop. No run length averages
//! that out, so each time a workload bounds is reported in yardsticks:
//! the time divided by the yardstick's time measured next to it. The
//! kernel's input is the same for every seed and it calls nothing in the
//! repository, so a change to the program cannot move it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::net::Ipv6Addr;
use std::time::{Duration, Instant};

/// Log lines per kernel run (about 1.6 MB of text, ≈10 ms).
const LINES: usize = 40_000;

/// The fixed input, and the kernel's buffers, kept between runs so that
/// a run allocates nothing: the host's page-fault costs are not what the
/// yardstick reads.
pub struct Yardstick {
    text: String,
    other: Vec<u128>,
    addrs: Vec<u128>,
    per64: HashMap<u64, u64>,
}

/// A deterministic 64-bit stream (SplitMix64), so the input never depends
/// on the workload's seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Yardstick {
    /// Builds the fixed input: addresses in a few hundred /48s, with the
    /// interface identifiers repeated now and then, like a day's log.
    pub fn new() -> Yardstick {
        let mut state = 0x5eed_u64;
        let mut text = String::with_capacity(LINES * 48);
        let mut keys = Vec::with_capacity(LINES);
        for _ in 0..LINES {
            let r = mix(&mut state);
            let net = (0x2001_0db8_u128 << 96) | (u128::from(r % 331) << 80);
            let subnet = u128::from((r >> 16) % 17) << 64;
            let iid = if r.is_multiple_of(5) {
                u128::from((r >> 24) % 1024)
            } else {
                u128::from(mix(&mut state))
            };
            let a = net | subnet | iid;
            keys.push(a);
            let _ = writeln!(text, "{}\t{}\tother", Ipv6Addr::from(a), 1 + (r >> 40) % 9);
        }
        let mut other: Vec<u128> = keys.iter().step_by(2).map(|k| k ^ 1).collect();
        other.sort_unstable();
        other.dedup();
        Yardstick {
            text,
            other,
            addrs: Vec::with_capacity(LINES),
            per64: HashMap::with_capacity(LINES),
        }
    }

    /// One run of the kernel; returns a checksum.
    fn kernel(&mut self) -> u64 {
        let Yardstick {
            text,
            other,
            addrs,
            per64,
        } = self;
        addrs.clear();
        per64.clear();
        let mut hits = 0u64;
        for line in text.lines() {
            let mut cols = line.split('\t');
            let (Some(a), Some(h)) = (cols.next(), cols.next()) else {
                continue;
            };
            let (Ok(a), Ok(h)) = (a.parse::<Ipv6Addr>(), h.parse::<u64>()) else {
                continue;
            };
            let a = u128::from(a);
            addrs.push(a);
            *per64.entry((a >> 64) as u64).or_default() += h;
            hits += h;
        }
        addrs.sort_unstable();
        addrs.dedup();
        let (mut i, mut j, mut common) = (0, 0, 0u64);
        while i < addrs.len() && j < other.len() {
            match addrs[i].cmp(&other[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    common += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        hits ^ common ^ per64.len() as u64 ^ addrs.len() as u64
    }

    /// Runs the kernel `reps` times back to back and returns the mean
    /// time of one run, in ms. The mean, not the median: the host's speed
    /// flips within a fraction of a second, and the time being measured
    /// is a sum over every such flip, so it is compared with the kernel's
    /// average over them.
    pub fn sample(&mut self, reps: usize) -> f64 {
        let t = Instant::now();
        for _ in 0..reps {
            black_box(self.kernel());
        }
        t.elapsed().as_secs_f64() * 1e3 / reps.max(1) as f64
    }

    /// Runs the kernel until another run would end after `stop`; returns
    /// the time taken, in ms, and the number of runs.
    pub fn run_until(&mut self, stop: Instant) -> (f64, usize) {
        let t = Instant::now();
        let mut reps = 0;
        let mut last = Duration::ZERO;
        while Instant::now() + last < stop {
            let r = Instant::now();
            black_box(self.kernel());
            last = r.elapsed();
            reps += 1;
        }
        (t.elapsed().as_secs_f64() * 1e3, reps)
    }
}
