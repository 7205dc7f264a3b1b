//! Heap allocations of the per-address kernels, counted.
//!
//! The §5 classifiers run once per active address per day: ≈318 M
//! "Other" addresses a day in March 2015. One heap allocation per
//! address multiplies into hundreds of millions at that scale, so the
//! property the kernels must keep is that their allocation count does
//! not grow with the number of addresses. This test measures it rather
//! than inferring it: every kernel the pipeline drives per address runs
//! on a real synth day (`WorldConfig::tiny(1)`, 2015-03-17), once on
//! the first quarter of its addresses and once on all of them, under a
//! global allocator that counts. Rendering a day log is measured the
//! same way: the synth files and every checkpoint go through it.
//!
//! Only the measuring thread counts: a thread opts in for the duration
//! of one [`allocations`] call, so the test harness and tests running
//! alongside add nothing. None of the measured kernels hands work to
//! another thread.

#![allow(
    clippy::disallowed_methods,
    reason = "integration tests build their fixtures with std::fs"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

use v6census::addr::scheme;
use v6census::census::{DaySummary, IngestConfig, StreamIngestor};
use v6census::core::daylog;
use v6census::core::temporal::{DailyObservations, Day, GapPolicy, StabilityParams};
use v6census::prelude::*;
use v6census::synth::world::epochs;
use v6census::synth::DayLog;
use v6census::trie::{AddrSet, AggregateCounts, RadixTree};

/// Forwards to [`System`], counting allocation calls (reallocations
/// included) made by a thread while it measures.
struct Counting;

thread_local! {
    /// This thread's count while it measures; `None` when it does not.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note() {
    // `try_with`: a thread that is exiting has no slot left, and is
    // not measuring.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with its arguments
// unchanged; counting touches only a `Cell` in a thread-local slot that
// needs no allocation and no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on
/// this thread. The result is dropped by the caller, uncounted.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT.with(|c| c.replace(None)).unwrap_or(0);
    (out, n)
}

/// How many more allocations a kernel may make on all N addresses than
/// on N/4. A buffer grown by doubling reallocates about twice over a
/// 4× larger input, so a kernel with a handful of growing buffers (and
/// `DaySummary`'s ordered MAC set, which adds a node per dozen new
/// MACs) stays well inside this. One allocation per address adds
/// 3N/4, about 7,900 on this day.
const SLACK: u64 = 64;

fn reference() -> Day {
    epochs::mar2015()
}

/// The inputs every kernel reads at one size: the reference day's
/// first `m` entries, and each neighbouring day clipped to the same
/// address range.
struct Input {
    log: DayLog,
    text: String,
    path: PathBuf,
    entries: Vec<(Addr, u64)>,
    addrs: Vec<Addr>,
    set: AddrSet,
    /// The next day's set, clipped.
    next: AddrSet,
    tree: RadixTree,
    store: DailyObservations,
    /// `store` before the reference day landed: every other day's set
    /// is shared with `store`.
    earlier: DailyObservations,
}

/// The inputs at size `m`; `logs` holds the reference day and its
/// neighbours, and `dir` takes the day-log file.
fn input(logs: &[DayLog], m: usize, dir: &Path) -> Input {
    let day = logs
        .iter()
        .find(|l| l.day == reference())
        .expect("reference day");
    let log = DayLog {
        day: day.day,
        entries: day.entries[..m].to_vec(),
    };
    let bound = log.entries.last().expect("a non-empty day").addr;
    let clipped = |l: &DayLog| AddrSet::from_iter(l.addrs().filter(|&a| a <= bound));
    let text = log.to_text();
    let path = dir.join(format!("{}.first-{m}.log", log.day));
    std::fs::write(&path, &text).expect("day-log file");
    let mut earlier = DailyObservations::new();
    for l in logs.iter().filter(|l| l.day != log.day) {
        earlier.record(l.day, clipped(l));
    }
    let mut store = earlier.clone();
    store.record(log.day, clipped(day));
    let addrs: Vec<Addr> = log.addrs().collect();
    let mut tree = RadixTree::new();
    for &a in &addrs {
        tree.insert_addr(a, 1);
    }
    Input {
        entries: log.entries.iter().map(|e| (e.addr, e.hits)).collect(),
        set: AddrSet::from_iter(addrs.iter().copied()),
        next: store.on(reference() + 1),
        addrs,
        text,
        path,
        tree,
        store,
        earlier,
        log,
    }
}

type Kernel = (&'static str, fn(&Input) -> u64);

/// Every kernel a non-test caller drives once per address, each
/// returning its allocation count on `Input`.
fn kernels() -> Vec<Kernel> {
    vec![
        ("daylog::read", |i| {
            allocations(|| {
                let mut sink: Vec<(Addr, u64)> = Vec::new();
                let parsed = daylog::read(i.text.as_bytes(), &mut sink).expect("reads");
                (parsed, sink)
            })
            .1
        }),
        // Fills about one line long: most lines straddle two fills and
        // take the per-line path, which copies them into its one buffer.
        ("daylog::read (64-byte fills)", |i| {
            allocations(|| {
                let mut sink: Vec<(Addr, u64)> = Vec::new();
                let fills = std::io::BufReader::with_capacity(64, i.text.as_bytes());
                let parsed = daylog::read(fills, &mut sink).expect("reads");
                (parsed, sink)
            })
            .1
        }),
        ("daylog::write", |i| {
            allocations(|| {
                daylog::write(
                    i.log.day,
                    daylog::KIND_COLUMNS,
                    i.log
                        .entries
                        .iter()
                        .map(|e| (e.addr, e.hits, Some(e.kind.label()))),
                )
            })
            .1
        }),
        ("StreamIngestor::parse_file", |i| {
            let ingest = StreamIngestor::new(IngestConfig::default());
            allocations(|| ingest.parse_file(&i.path).expect("parses")).1
        }),
        ("DaySummary::from_entries", |i| {
            allocations(|| DaySummary::from_entries(i.log.day, i.entries.iter().copied())).1
        }),
        ("scheme::cull", |i| {
            allocations(|| i.addrs.iter().filter_map(|&a| scheme::cull(a)).count()).1
        }),
        ("AddrSet::from_iter", |i| {
            allocations(|| AddrSet::from_iter(i.addrs.iter().copied())).1
        }),
        ("RadixTree::insert_addr", |i| {
            allocations(|| {
                let mut t = RadixTree::new();
                for &a in &i.addrs {
                    t.insert_addr(a, 1);
                }
                t
            })
            .1
        }),
        ("RadixTree::densify", |i| {
            allocations(|| i.tree.densify(2, PrefixLen::lit::<112>())).1
        }),
        ("RadixTree::densify_budgeted", |i| {
            let mut t = RadixTree::new();
            for &a in &i.addrs {
                t.insert_addr(a, 1);
            }
            let cap = t.node_count() / 2;
            allocations(|| t.densify_budgeted(2, PrefixLen::lit::<112>(), cap)).1
        }),
        ("RadixTree::aguri_aggregate", |i| {
            allocations(|| i.tree.aguri_aggregate(0.01)).1
        }),
        ("AggregateCounts::of", |i| {
            allocations(|| AggregateCounts::of(&i.set)).1
        }),
        ("MraCurve::of", |i| allocations(|| MraCurve::of(&i.set)).1),
        ("DensityClass::report", |i| {
            allocations(|| DensityClass::at(2, PrefixLen::lit::<112>()).report(&i.set)).1
        }),
        ("DensityClass::dense_addresses", |i| {
            allocations(|| DensityClass::at(2, PrefixLen::lit::<112>()).dense_addresses(&i.set)).1
        }),
        ("AddrSet::map_prefix", |i| {
            allocations(|| i.set.map_prefix(PrefixLen::lit::<64>())).1
        }),
        ("AddrSet::union", |i| allocations(|| i.set.union(&i.next)).1),
        ("AddrSet::intersection", |i| {
            allocations(|| i.set.intersection(&i.next)).1
        }),
        ("AddrSet::intersection_len", |i| {
            allocations(|| i.set.intersection_len(&i.next)).1
        }),
        ("DailyObservations::stable_on", |i| {
            allocations(|| {
                i.store
                    .stable_on(reference(), &StabilityParams::three_day())
            })
            .1
        }),
        ("DailyObservations::landed_gains", |i| {
            allocations(|| {
                let mut gained = 0;
                let params = StabilityParams::three_day();
                i.store
                    .landed_gains(&i.earlier, reference(), &params, |_, keys| {
                        gained += keys.len()
                    });
                gained
            })
            .1
        }),
        ("DailyObservations::stable_on_gapped", |i| {
            allocations(|| {
                i.store.stable_on_gapped(
                    reference(),
                    &StabilityParams::three_day(),
                    GapPolicy::Widen { max_extra: 7 },
                )
            })
            .1
        }),
        ("DailyObservations::stable_over_week", |i| {
            allocations(|| {
                i.store
                    .stable_over_week(reference(), &StabilityParams::three_day())
            })
            .1
        }),
        ("DailyObservations::epoch_stable", |i| {
            let r = reference();
            allocations(|| {
                i.store
                    .epoch_stable(r.range_inclusive(r + 6), (r - 7).range_inclusive(r - 1))
            })
            .1
        }),
        ("DailyObservations::prefix_view", |i| {
            allocations(|| i.store.prefix_view(PrefixLen::lit::<64>())).1
        }),
    ]
}

#[test]
fn per_address_kernels_allocate_independently_of_the_address_count() {
    let world = World::standard(WorldConfig::tiny(1));
    let r = reference();
    let logs: Vec<DayLog> = (r - 7)
        .range_inclusive(r + 7)
        .map(|d| world.day_log(d))
        .collect();
    let dir = std::env::temp_dir().join(format!("v6census-allocs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // `logs[7]` is the reference day.
    let n = logs[7].entries.len();
    assert!(n >= 8_000, "the reference day has only {n} addresses");
    let (quarter, all) = (input(&logs, n / 4, &dir), input(&logs, n, &dir));
    let mut table = format!("{:<40} {:>8} {:>8}\n", "kernel", n / 4, n);
    let mut grown = Vec::new();
    for (name, kernel) in kernels() {
        let (a, b) = (kernel(&quarter), kernel(&all));
        table.push_str(&format!("{name:<40} {a:>8} {b:>8}\n"));
        if b > a + SLACK {
            grown.push(name);
        }
    }
    std::fs::remove_dir_all(&dir).expect("scratch dir removed");
    println!("{table}");
    assert!(
        grown.is_empty(),
        "allocations grow with the address count in {grown:?} (slack {SLACK}):\n{table}"
    );
}
