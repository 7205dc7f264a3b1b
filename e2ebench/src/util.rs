//! Statistics, output digests, the run's scratch directory, spans, and
//! the result line every run ends with.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Median of the samples (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of the samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The publish-lag metrics from every lag of a run, in ms and in
/// yardsticks: the median, and p75, the highest percentile that leaves at
/// least ten of a `serve-live` run's 42 lags beyond it.
pub fn set_lags(m: &mut Metrics, lags_ms: &[f64], lags_ys: &[f64]) {
    m.set("publish_lag_p50_ms", percentile(lags_ms, 0.50), "ms");
    m.set("publish_lag_p75_ms", percentile(lags_ms, 0.75), "ms");
    m.set("publish_lag_max_ms", max(lags_ms), "ms");
    m.set("publish_lag_p50_ys", percentile(lags_ys, 0.50), "ys");
    m.set("publish_lag_p75_ys", percentile(lags_ys, 0.75), "ys");
}

/// Largest of the samples.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::max)
}
/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a over everything a workload renders, so two commits can show
/// byte-identical outputs by comparing one number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` (and a separator, so field boundaries count) in.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(std::iter::once(&0xff)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a string in.
    pub fn add_str(&mut self, s: &str) {
        self.add(s.as_bytes());
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.bench_work/<tag>-<pid>` afresh.
    pub fn new(tag: &str) -> WorkDir {
        let path = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the benchmark's scratch directory");
        WorkDir { path }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create a scratch subdirectory");
        p
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent); // only succeeds when empty
        }
    }
}

/// One timed span, recorded by the benchmark around a call into a layer.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// Spans kept in memory for one traced replay. A layer's self time is its
/// spans' durations minus the parts their child spans cover.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// Starts the trace clock.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let idx = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = Instant::now();
        out
    }

    fn dur_ms(s: &Span) -> f64 {
        s.end.duration_since(s.start).as_secs_f64() * 1e3
    }

    /// Self time of every span named `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let children: f64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(Trace::dur_ms)
                .sum();
            total += Trace::dur_ms(s) - children;
        }
        total
    }

    /// Time since the trace started that no top-level span covers, in ms.
    pub fn residual_ms(&self) -> f64 {
        let wall = self.origin.elapsed().as_secs_f64() * 1e3;
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Trace::dur_ms)
            .sum();
        wall - covered
    }

    /// Milliseconds since the trace started.
    pub fn wall_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }
}

/// Named metrics with units, in report order.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Adds (or replaces) one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.items.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit),
            None => self.items.push((name.to_string(), value, unit)),
        }
    }

    /// Keeps only (and orders by) `names`; a name never set is an error.
    pub fn select(&self, names: &[&str]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for &n in names {
            let (_, v, u) = self
                .items
                .iter()
                .find(|(m, _, _)| m == n)
                .ok_or_else(|| format!("metric {n} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {n} is not a finite number ({v})"));
            }
            out.items.push((n.to_string(), *v, u));
        }
        Ok(out)
    }

    /// Human-readable lines for stderr.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for (n, v, u) in &self.items {
            let _ = writeln!(s, "  {n:<44} {v:>16.6} {u}");
        }
        s
    }

    /// The `"metrics"` JSON object.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .items
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one workload run produced.
pub struct Outcome {
    /// Operations attempted (runs, queries, landings).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Every metric measured, end-to-end and per-layer alike.
    pub metrics: Metrics,
    /// Digest of the rendered outputs.
    pub digest: Digest,
}

impl Outcome {
    /// An empty outcome.
    pub fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Metrics::default(),
            digest: Digest::default(),
        }
    }

    /// Counts one operation; a failed check is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[e2ebench] check failed: {}", what());
        }
    }
}
