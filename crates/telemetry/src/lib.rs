//! # telemetry
//!
//! Zero-dependency engine metrics for the pgrdf stack: atomic
//! [`Counter`]s, [`Gauge`]s, log2-bucketed [`Histogram`]s with
//! p50/p95/p99 estimation, lightweight [`Span`] timers, and a
//! [`MetricsRegistry`] that renders the Prometheus text exposition
//! format.
//!
//! Design constraints (see DESIGN.md §11):
//!
//! - **std-only.** The build environment has no crates.io access.
//! - **Negligible overhead when disabled.** Hot paths gate on a single
//!   relaxed [`enabled`] load *per operation* (not per row) and
//!   accumulate row counts locally, flushing once per scan. Per-query
//!   profiling (`sparql`'s `EXPLAIN ANALYZE`) is independent of this
//!   flag: it is opted into per call and pays its cost only then.
//! - **Lock-free recording.** Counters and histogram buckets are plain
//!   `AtomicU64`s with `Relaxed` ordering; the registry mutex is touched
//!   only at handle registration and render time.
//!
//! ```
//! let reg = telemetry::MetricsRegistry::new();
//! let scans = reg.counter("pgrdf_scans_total", "Index range scans");
//! scans.add(3);
//! let lat = reg.histogram("pgrdf_latency_nanos", "Query latency");
//! lat.record(1_500);
//! let text = reg.render_prometheus();
//! assert!(text.contains("pgrdf_scans_total 3"));
//! ```

#![warn(missing_docs)]

pub mod flight;

pub use flight::{
    flight_recorder, fnv1a64, next_query_id, render_chrome_trace, FlightRecorder, QueryEvent,
    QueryOutcome, SpanRecord, TraceSink, DEFAULT_FLIGHT_CAPACITY,
};

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// --- global enable flag ------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENABLED_INIT: OnceLock<()> = OnceLock::new();

/// Whether global metric collection is on. A single `Relaxed` load —
/// call sites check this once per operation (per scan / per commit /
/// per query), never per row. Defaults to off; the `PGRDF_TELEMETRY`
/// environment variable (`1`, `true`, `on`) turns it on at first use.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED_INIT.get_or_init(|| {
        if let Ok(v) = std::env::var("PGRDF_TELEMETRY") {
            let on = matches!(v.as_str(), "1" | "true" | "on" | "yes");
            ENABLED.store(on, Ordering::Relaxed);
        }
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Turns global metric collection on or off at runtime (overrides the
/// environment default).
pub fn set_enabled(on: bool) {
    ENABLED_INIT.get_or_init(|| ());
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide registry every engine crate records into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

// --- counter -----------------------------------------------------------

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A detached counter (registry-less; useful in tests).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and repeated bench sections).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

// --- gauge -------------------------------------------------------------

/// A signed instantaneous value (e.g. live snapshot pins).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A detached gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

// --- histogram ---------------------------------------------------------

/// Number of log2 buckets: bucket 0 holds the value `0`, bucket `b ≥ 1`
/// holds values whose highest set bit is `b - 1`, i.e. the range
/// `[2^(b-1), 2^b - 1]`. Bucket 63 additionally absorbs everything from
/// `2^62` up (its rendered upper bound is `+Inf`).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket log2 histogram over `u64` observations. Recording is
/// three relaxed atomic adds; percentile estimation interpolates
/// linearly inside the matched power-of-two bucket, so the estimate is
/// exact for single-valued buckets and within a factor of two otherwise
/// — ample for latency distributions.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Bucket index for an observation: 0 for 0, else `64 - leading_zeros`,
/// capped at the last bucket.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive `[lo, hi]` value range covered by bucket `b`.
pub fn bucket_bounds(b: usize) -> (u64, u64) {
    match b {
        0 => (0, 0),
        _ if b == HISTOGRAM_BUCKETS - 1 => (1u64 << (b - 1), u64::MAX),
        _ => (1u64 << (b - 1), (1u64 << b) - 1),
    }
}

impl Histogram {
    /// A detached histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a span timer that records elapsed nanoseconds into this
    /// histogram when dropped.
    pub fn span(&self) -> Span<'_> {
        Span {
            hist: self,
            start: Instant::now(),
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) by nearest rank with
    /// linear interpolation inside the matched bucket: the `r`-th of
    /// `k` observations in bucket `[lo, hi]` is estimated as
    /// `lo + (hi - lo) * r / k`. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for b in 0..HISTOGRAM_BUCKETS {
            let in_bucket = self.buckets[b].load(Ordering::Relaxed);
            if in_bucket == 0 {
                continue;
            }
            if cum + in_bucket >= rank {
                let within = rank - cum; // 1 ..= in_bucket
                let (lo, hi) = bucket_bounds(b);
                let hi = hi.min(lo.saturating_mul(2)); // keep +Inf bucket finite
                                                       // Multiply before dividing (in u128, so it cannot overflow):
                                                       // dividing first floors to `lo` whenever a bucket holds
                                                       // more observations than it is wide.
                let step = u128::from(hi - lo) * u128::from(within) / u128::from(in_bucket);
                return lo + (step as u64).min(hi - lo);
            }
            cum += in_bucket;
        }
        0
    }

    /// p50 convenience.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// p95 convenience.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// p99 convenience.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Per-bucket counts (snapshot).
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed))
    }

    /// Resets all buckets, the sum, and the count.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

/// A drop-guard timer: records elapsed nanoseconds into its histogram
/// when dropped. Obtain via [`Histogram::span`].
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

// --- registry ----------------------------------------------------------

#[derive(Debug, Clone)]
enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug, Clone)]
struct Entry {
    /// Metric family name (without labels).
    family: String,
    /// Optional single `key="value"` label pair.
    label: Option<(String, String)>,
    help: String,
    handle: Handle,
}

/// Escapes a `# HELP` line per the Prometheus exposition format:
/// backslash and newline only.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value per the Prometheus exposition format:
/// backslash, double quote, and newline.
fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

impl Entry {
    fn series(&self) -> String {
        match &self.label {
            None => self.family.clone(),
            Some((k, v)) => format!("{}{{{}=\"{}\"}}", self.family, k, escape_label_value(v)),
        }
    }

    fn bucket_series(&self, le: &str) -> String {
        match &self.label {
            None => format!("{}_bucket{{le=\"{}\"}}", self.family, le),
            Some((k, v)) => format!(
                "{}_bucket{{{}=\"{}\",le=\"{}\"}}",
                self.family,
                k,
                escape_label_value(v),
                le
            ),
        }
    }
}

/// The current value of one metric series in a
/// [`MetricsRegistry::samples`] snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram summary: observation count, sum, and estimated
    /// percentiles.
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// Estimated median.
        p50: u64,
        /// Estimated 95th percentile.
        p95: u64,
        /// Estimated 99th percentile.
        p99: u64,
    },
}

/// One metric series (family + optional label) with its current value.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Metric family name.
    pub name: String,
    /// Optional `(key, value)` label pair.
    pub label: Option<(String, String)>,
    /// Help text.
    pub help: String,
    /// Current value.
    pub value: MetricValue,
}

/// A named collection of metrics with get-or-register semantics and
/// Prometheus text rendering. All engine crates record into
/// [`global()`]; detached registries exist for tests.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn get_or_insert(
        &self,
        family: &str,
        label: Option<(&str, &str)>,
        help: &str,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        let found = entries.iter().find(|e| {
            e.family == family && e.label.as_ref().map(|(k, v)| (k.as_str(), v.as_str())) == label
        });
        if let Some(e) = found {
            return e.handle.clone();
        }
        let handle = make();
        entries.push(Entry {
            family: family.to_string(),
            label: label.map(|(k, v)| (k.to_string(), v.to_string())),
            help: help.to_string(),
            handle: handle.clone(),
        });
        handle
    }

    /// Gets or registers a counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        match self.get_or_insert(name, None, help, || {
            Handle::Counter(Arc::new(Counter::new()))
        }) {
            Handle::Counter(c) => c,
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Gets or registers a counter carrying one label pair (e.g. one
    /// series per composite index).
    pub fn counter_with(&self, name: &str, key: &str, value: &str, help: &str) -> Arc<Counter> {
        match self.get_or_insert(name, Some((key, value)), help, || {
            Handle::Counter(Arc::new(Counter::new()))
        }) {
            Handle::Counter(c) => c,
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Gets or registers a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, None, help, || Handle::Gauge(Arc::new(Gauge::new()))) {
            Handle::Gauge(g) => g,
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Gets or registers a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, None, help, || {
            Handle::Histogram(Arc::new(Histogram::new()))
        }) {
            Handle::Histogram(h) => h,
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Gets or registers a histogram carrying one label pair (e.g. one
    /// series per query family).
    pub fn histogram_with(&self, name: &str, key: &str, value: &str, help: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, Some((key, value)), help, || {
            Handle::Histogram(Arc::new(Histogram::new()))
        }) {
            Handle::Histogram(h) => h,
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Resets every registered metric to zero (bench sections that need
    /// clean deltas).
    pub fn reset(&self) {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        for e in entries.iter() {
            match &e.handle {
                Handle::Counter(c) => c.reset(),
                Handle::Gauge(g) => g.set(0),
                Handle::Histogram(h) => h.reset(),
            }
        }
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// family name then label — the structured twin of
    /// [`MetricsRegistry::render_prometheus`], used to materialize the
    /// `pgrdf:sys/metrics` system graph.
    pub fn samples(&self) -> Vec<MetricSample> {
        let entries = self
            .entries
            .lock()
            .expect("metrics registry poisoned")
            .clone();
        let mut samples: Vec<MetricSample> = entries
            .iter()
            .map(|e| MetricSample {
                name: e.family.clone(),
                label: e.label.clone(),
                help: e.help.clone(),
                value: match &e.handle {
                    Handle::Counter(c) => MetricValue::Counter(c.get()),
                    Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                    Handle::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        p50: h.p50(),
                        p95: h.p95(),
                        p99: h.p99(),
                    },
                },
            })
            .collect();
        samples.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        samples
    }

    /// Renders every registered metric in the Prometheus text exposition
    /// format (`# HELP` / `# TYPE` per family, cumulative `_bucket`
    /// series with `le` bounds plus `_sum`/`_count` for histograms).
    /// Series are sorted by family then label so families stay
    /// contiguous (the format requires one uninterrupted block per
    /// family) and output is stable across registration orders; HELP
    /// text and label values are escaped per the exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut entries = self
            .entries
            .lock()
            .expect("metrics registry poisoned")
            .clone();
        entries.sort_by(|a, b| (&a.family, &a.label).cmp(&(&b.family, &b.label)));
        let mut out = String::new();
        let mut seen_family: Option<String> = None;
        for e in &entries {
            if seen_family.as_deref() != Some(e.family.as_str()) {
                seen_family = Some(e.family.clone());
                let kind = match e.handle {
                    Handle::Counter(_) => "counter",
                    Handle::Gauge(_) => "gauge",
                    Handle::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# HELP {} {}\n", e.family, escape_help(&e.help)));
                out.push_str(&format!("# TYPE {} {}\n", e.family, kind));
            }
            match &e.handle {
                Handle::Counter(c) => {
                    out.push_str(&format!("{} {}\n", e.series(), c.get()));
                }
                Handle::Gauge(g) => {
                    out.push_str(&format!("{} {}\n", e.series(), g.get()));
                }
                Handle::Histogram(h) => {
                    let counts = h.bucket_counts();
                    let mut cum = 0u64;
                    for (b, n) in counts.iter().enumerate() {
                        if *n == 0 {
                            continue;
                        }
                        cum += n;
                        let (_, hi) = bucket_bounds(b);
                        let le = if b == HISTOGRAM_BUCKETS - 1 {
                            "+Inf".to_string()
                        } else {
                            hi.to_string()
                        };
                        out.push_str(&format!("{} {}\n", e.bucket_series(&le), cum));
                    }
                    if counts[HISTOGRAM_BUCKETS - 1] == 0 {
                        out.push_str(&format!("{} {}\n", e.bucket_series("+Inf"), cum));
                    }
                    let (sum_series, count_series) = match &e.label {
                        None => (format!("{}_sum", e.family), format!("{}_count", e.family)),
                        Some((k, v)) => {
                            let v = escape_label_value(v);
                            (
                                format!("{}_sum{{{}=\"{}\"}}", e.family, k, v),
                                format!("{}_count{{{}=\"{}\"}}", e.family, k, v),
                            )
                        }
                    };
                    out.push_str(&format!("{} {}\n", sum_series, h.sum()));
                    out.push_str(&format!("{} {}\n", count_series, h.count()));
                }
            }
        }
        out
    }
}

// --- tests -------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bucket_math_covers_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every value lands inside its bucket's bounds.
        for v in [0u64, 1, 2, 3, 5, 100, 4096, 1 << 40, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
        // Buckets tile the range with no gaps.
        for b in 1..HISTOGRAM_BUCKETS - 1 {
            let (_, hi_prev) = bucket_bounds(b - 1);
            let (lo, _) = bucket_bounds(b);
            assert_eq!(lo, hi_prev + 1, "gap between buckets {} and {}", b - 1, b);
        }
    }

    #[test]
    fn percentiles_interpolate_inside_buckets() {
        let h = Histogram::new();
        // Ten observations, all value 100 → every percentile is inside
        // bucket [64, 127].
        for _ in 0..10 {
            h.record(100);
        }
        let (lo, hi) = bucket_bounds(bucket_of(100));
        assert_eq!((lo, hi), (64, 127));
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            let p = h.percentile(q);
            assert!((lo..=hi).contains(&p), "p{q} = {p} outside bucket");
        }
        // Exact interpolation arithmetic: k observations in [lo, hi],
        // rank r estimates lo + (hi - lo) * r / k.
        let h = Histogram::new();
        h.record(64); // one observation in [64, 127]
        assert_eq!(h.percentile(1.0), 64 + (127 - 64)); // r = k = 1 → hi
        assert_eq!(h.p50(), 127); // single obs: every rank maps to hi
                                  // Two buckets: 1 in [0,0], 99 in [64,127] → p50 lands in the
                                  // second bucket at rank 49 of 99: 64 + 63 * 49 / 99 = 95, not
                                  // the bucket floor.
        let h = Histogram::new();
        h.record(0);
        for _ in 0..99 {
            h.record(100);
        }
        let rank_in_bucket = 50 - 1; // rank 50 overall, 1 consumed by bucket 0
        assert_eq!(h.p50(), 64 + (127 - 64) * rank_in_bucket / 99);
        assert_eq!(h.p50(), 95);
        assert_eq!(h.percentile(0.0), 0); // rank clamps to 1 → bucket 0
    }

    #[test]
    fn percentile_empty_and_sum_count() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.count(), 0);
        h.record(5);
        h.record(15);
        assert_eq!(h.sum(), 20);
        assert_eq!(h.count(), 2);
        assert!((h.mean() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn counters_are_race_free_across_threads() {
        let c = Arc::new(Counter::new());
        let h = Arc::new(Histogram::new());
        let g = Arc::new(Gauge::new());
        const THREADS: usize = 8;
        const PER_THREAD: usize = 10_000;
        thread::scope(|s| {
            for t in 0..THREADS {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                let g = Arc::clone(&g);
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.record((t * PER_THREAD + i) as u64 % 1000);
                        g.add(1);
                        g.add(-1);
                    }
                });
            }
        });
        assert_eq!(c.get(), (THREADS * PER_THREAD) as u64);
        assert_eq!(h.count(), (THREADS * PER_THREAD) as u64);
        assert_eq!(g.get(), 0);
        let total: u64 = h.bucket_counts().iter().sum();
        assert_eq!(total, h.count(), "bucket counts must add up to the total");
    }

    #[test]
    fn registry_get_or_register_returns_same_handle() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", "x");
        let b = reg.counter("x_total", "x");
        a.inc();
        assert_eq!(b.get(), 1);
        let la = reg.counter_with("y_total", "index", "PCSGM", "y");
        let lb = reg.counter_with("y_total", "index", "PSCGM", "y");
        la.add(2);
        lb.add(3);
        let text = reg.render_prometheus();
        assert!(text.contains("y_total{index=\"PCSGM\"} 2"), "{text}");
        assert!(text.contains("y_total{index=\"PSCGM\"} 3"), "{text}");
        // HELP/TYPE emitted once per family.
        assert_eq!(text.matches("# TYPE y_total counter").count(), 1);
    }

    #[test]
    fn prometheus_exposition_parses() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", "counter a").add(7);
        reg.gauge("b_current", "gauge b").set(-2);
        let h = reg.histogram("c_nanos", "histogram c");
        h.record(3);
        h.record(100);
        h.record(100);
        let text = reg.render_prometheus();
        let mut families = 0;
        let mut prev_bucket_cum: Option<u64> = None;
        for line in text.lines() {
            if line.starts_with("# HELP ") {
                continue;
            }
            if line.starts_with("# TYPE ") {
                families += 1;
                continue;
            }
            // Every sample line is `name[{labels}] value`.
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!series.is_empty());
            if !value.contains("Inf") {
                value
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("unparsable value: {line}"));
            }
            if series.contains("_bucket") || series.contains("le=") {
                let cum: u64 = value.parse().unwrap();
                if let Some(prev) = prev_bucket_cum {
                    assert!(cum >= prev, "histogram buckets must be cumulative: {line}");
                }
                prev_bucket_cum = Some(cum);
            }
        }
        assert_eq!(families, 3);
        assert!(text.contains("a_total 7"));
        assert!(text.contains("b_current -2"));
        assert!(text.contains("c_nanos_count 3"));
        assert!(text.contains("c_nanos_sum 203"));
        assert!(text.contains("le=\"+Inf\"") && text.ends_with('\n'));
    }

    #[test]
    fn prometheus_escapes_help_and_label_values() {
        let reg = MetricsRegistry::new();
        reg.counter("esc_total", "line one\nline \\two").inc();
        reg.counter_with("lab_total", "q", "he said \"hi\\bye\"\nend", "labelled")
            .add(4);
        let text = reg.render_prometheus();
        assert!(
            text.contains("# HELP esc_total line one\\nline \\\\two"),
            "HELP must escape newline and backslash: {text}"
        );
        assert!(
            text.contains("lab_total{q=\"he said \\\"hi\\\\bye\\\"\\nend\"} 4"),
            "label values must escape quote, backslash, newline: {text}"
        );
        // Escaped output stays single-line per series.
        for line in text.lines() {
            assert!(!line.is_empty());
        }
        assert_eq!(
            text.lines().count(),
            6,
            "2 families x (HELP+TYPE+series): {text}"
        );
    }

    #[test]
    fn prometheus_families_stay_contiguous_regardless_of_registration_order() {
        let reg = MetricsRegistry::new();
        // Interleave registrations of two labelled families.
        reg.counter_with("a_total", "k", "2", "a").inc();
        reg.counter_with("b_total", "k", "1", "b").inc();
        reg.counter_with("a_total", "k", "1", "a").inc();
        let text = reg.render_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let a_lines: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].contains("a_total"))
            .collect();
        assert_eq!(
            a_lines,
            vec![0, 1, 2, 3],
            "family a must form one block: {text}"
        );
        // Stable ordering: labels sorted within the family.
        let a1 = text.find("a_total{k=\"1\"}").unwrap();
        let a2 = text.find("a_total{k=\"2\"}").unwrap();
        assert!(a1 < a2, "series must be label-sorted: {text}");
        // A second render is byte-identical.
        assert_eq!(text, reg.render_prometheus());
    }

    #[test]
    fn samples_snapshot_matches_handles() {
        let reg = MetricsRegistry::new();
        reg.counter("s_total", "c").add(7);
        reg.gauge("s_current", "g").set(-3);
        let h = reg.histogram("s_nanos", "h");
        h.record(100);
        h.record(200);
        let samples = reg.samples();
        assert_eq!(samples.len(), 3);
        // Sorted by name: s_current, s_nanos, s_total.
        assert_eq!(samples[0].name, "s_current");
        assert_eq!(samples[0].value, MetricValue::Gauge(-3));
        match &samples[1].value {
            MetricValue::Histogram { count, sum, .. } => {
                assert_eq!((*count, *sum), (2, 300));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        assert_eq!(samples[2].value, MetricValue::Counter(7));
    }

    #[test]
    fn span_records_elapsed_nanos() {
        let h = Histogram::new();
        {
            let _s = h.span();
            std::hint::black_box(0);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("r_total", "r");
        let h = reg.histogram("r_nanos", "r");
        c.add(5);
        h.record(9);
        reg.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
    }
}
