//! Metrics registry: counters, gauges, and log-bucketed histograms.
//!
//! The registry is process-global and always on (recording a counter is a
//! relaxed `fetch_add`; no enable gate is needed because callers only
//! record values they already computed). Software timings (the driver's
//! per-batch phase latencies) and simulated hardware counters (the
//! `saga-perf` cache hierarchy's hits/misses) land in the same namespace,
//! so one [`snapshot`] covers both sides of the paper's characterization.
//!
//! Histograms use base-2 log bucketing with 16 sub-buckets per octave
//! (values below 32 are exact), bounding the relative quantile error at
//! 1/16 ≈ 6.3% — the standard HdrHistogram-style trade: O(1) concurrent
//! recording, ~1k fixed buckets, and p50/p90/p99/p999 that are faithful to
//! within one bucket of the exact sorted-sample quantile (property-tested
//! in `tests/seeded_hist.rs`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Sub-bucket resolution: 2^4 = 16 sub-buckets per octave.
const SUB_BITS: usize = 4;
const SUB: usize = 1 << SUB_BITS;
/// Values below `2 * SUB` get one exact bucket each.
const LINEAR_MAX: u64 = (2 * SUB) as u64;
/// Bucket count: 32 exact + 16 per octave for exponents 5..=63.
pub const BUCKETS: usize = 2 * SUB + (63 - SUB_BITS) * SUB;

/// A fixed-size log-bucketed histogram of `u64` samples (typically
/// nanoseconds), safe for concurrent recording.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket index a value lands in.
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    // v >= 32: exponent e = floor(log2 v) >= 5; keep the SUB_BITS bits
    // below the leading one as the sub-bucket.
    let e = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (e - SUB_BITS)) as usize) & (SUB - 1);
    LINEAR_MAX as usize + (e - SUB_BITS - 1) * SUB + sub
}

/// The half-open value range `[lo, hi)` covered by bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < LINEAR_MAX as usize {
        return (index as u64, index as u64 + 1);
    }
    let j = index - LINEAR_MAX as usize;
    let e = SUB_BITS + 1 + j / SUB;
    let sub = (j % SUB) as u64;
    let lo = (SUB as u64 + sub) << (e - SUB_BITS);
    // The topmost bucket's exclusive bound is 2^64; saturate so it also
    // covers u64::MAX itself.
    let hi = lo.saturating_add(1u64 << (e - SUB_BITS));
    (lo, hi)
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
    }

    /// Records a duration in seconds as integer nanoseconds.
    pub fn record_secs(&self, seconds: f64) {
        self.record((seconds.max(0.0) * 1e9) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples (wrapping at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX {
            0
        } else {
            m
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`): the inclusive upper bound of the
    /// bucket holding the sample of rank `ceil(q * count)` — within one
    /// bucket (≤ 6.3% relative error) of the exact sorted-sample quantile.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                // The exact max is tracked separately; clamping keeps
                // q=1.0 (and any quantile landing in the top occupied
                // bucket) from overshooting the largest recorded sample.
                return (bucket_bounds(i).1 - 1).min(self.max()).max(self.min());
            }
        }
        self.max()
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile (the paper's tail-latency metric).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Occupied buckets as `(inclusive_upper_bound, cumulative_count)`
    /// pairs in ascending bound order — the shape Prometheus
    /// `_bucket{le=...}` samples need. Empty buckets are elided (the
    /// cumulative counts already carry them); the final pair's count
    /// equals [`Histogram::count`], rendered as `le="+Inf"` upstream.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                cum += n;
                out.push((bucket_bounds(i).1 - 1, cum));
            }
        }
        out
    }

    /// Condenses the histogram into its summary row.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            mean: self.mean(),
            min: self.min(),
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
            p999: self.p999(),
            max: self.max(),
        }
    }
}

/// The exported quantile row of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Largest sample.
    pub max: u64,
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Hist(Arc<Histogram>),
}

static METRICS: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<String, Metric>> {
    METRICS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The counter registered under `name` (created on first use).
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> Arc<Counter> {
    match registry()
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
    {
        Metric::Counter(c) => Arc::clone(c),
        other => panic!("metric `{name}` already registered as {other:?}"),
    }
}

/// Cap on live series per indexed family. Tenant/shard ids are minted
/// monotonically for the life of a server process, so an unbounded
/// family would grow one series per tenant *ever created* — a classic
/// cardinality leak. At the cap, new members get an unregistered
/// overflow sink (their handle still records, invisibly) and the
/// `metrics.series_dropped` counter is bumped; deleting a tenant must
/// evict its series with [`remove_indexed`] to make room.
pub const MAX_INDEXED_SERIES: usize = 256;

/// Counts the live members of family `name` (entries `name.<digits>`).
/// Caller holds the registry lock.
fn family_len(reg: &BTreeMap<String, Metric>, name: &str) -> usize {
    let prefix = format!("{name}.");
    reg.range(prefix.clone()..)
        .take_while(|(k, _)| k.starts_with(&prefix))
        .filter(|(k, _)| {
            let suffix = &k[prefix.len()..];
            !suffix.is_empty() && suffix.bytes().all(|b| b.is_ascii_digit())
        })
        .count()
}

/// Bumps `metrics.series_dropped` while the registry lock is held (the
/// public [`counter`] helper would deadlock — `std::sync::Mutex` is not
/// reentrant).
fn bump_series_dropped(reg: &mut BTreeMap<String, Metric>) {
    let metric = reg
        .entry("metrics.series_dropped".to_string())
        .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
    if let Metric::Counter(c) = metric {
        c.incr();
    }
}

/// The counter registered under `name.index` (created on first use) —
/// the convention for per-shard / per-worker counter families, e.g.
/// `indexed_counter("bsp.shard_messages", 3)` →
/// `bsp.shard_messages.3`. Keeping the index in the name means a
/// [`snapshot`] lists every member of the family side by side, which is
/// how the BSP engine's per-shard imbalance shows up in reports.
///
/// Families are capped at [`MAX_INDEXED_SERIES`] live members; overflow
/// members record into an unregistered sink and are tallied in
/// `metrics.series_dropped`.
///
/// # Panics
///
/// Panics if the derived name is already registered as a different
/// metric kind.
pub fn indexed_counter(name: &str, index: usize) -> Arc<Counter> {
    let key = format!("{name}.{index}");
    let mut reg = registry();
    if let Some(metric) = reg.get(&key) {
        return match metric {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric `{key}` already registered as {other:?}"),
        };
    }
    if family_len(&reg, name) >= MAX_INDEXED_SERIES {
        bump_series_dropped(&mut reg);
        return Arc::new(Counter::default());
    }
    let c = Arc::new(Counter::default());
    reg.insert(key, Metric::Counter(Arc::clone(&c)));
    c
}

/// The gauge registered under `name` (created on first use).
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> Arc<Gauge> {
    match registry()
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
    {
        Metric::Gauge(g) => Arc::clone(g),
        other => panic!("metric `{name}` already registered as {other:?}"),
    }
}

/// The gauge registered under `name.index` (created on first use) — the
/// gauge twin of [`indexed_counter`], used for per-instance families such
/// as `saga-server`'s per-tenant queue-depth gauges
/// (`server.queue_depth.3`). Keeping the index in the name means a
/// [`snapshot`] lists every member of the family side by side. Capped at
/// [`MAX_INDEXED_SERIES`] live members like [`indexed_counter`].
///
/// # Panics
///
/// Panics if the derived name is already registered as a different
/// metric kind.
pub fn indexed_gauge(name: &str, index: usize) -> Arc<Gauge> {
    let key = format!("{name}.{index}");
    let mut reg = registry();
    if let Some(metric) = reg.get(&key) {
        return match metric {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric `{key}` already registered as {other:?}"),
        };
    }
    if family_len(&reg, name) >= MAX_INDEXED_SERIES {
        bump_series_dropped(&mut reg);
        return Arc::new(Gauge::default());
    }
    let g = Arc::new(Gauge::default());
    reg.insert(key, Metric::Gauge(Arc::clone(&g)));
    g
}

/// Evicts the `name.index` member of an indexed family (all kinds),
/// freeing its cardinality-budget slot. Tenant deletion calls this for
/// each per-tenant series. Returns whether the series existed.
pub fn remove_indexed(name: &str, index: usize) -> bool {
    registry().remove(&format!("{name}.{index}")).is_some()
}

/// The histogram registered under `name` (created on first use).
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: &str) -> Arc<Histogram> {
    match registry()
        .entry(name.to_string())
        .or_insert_with(|| Metric::Hist(Arc::new(Histogram::new())))
    {
        Metric::Hist(h) => Arc::clone(h),
        other => panic!("metric `{name}` already registered as {other:?}"),
    }
}

/// Unregisters every metric (held handles keep recording into orphans).
pub fn reset() {
    registry().clear();
}

/// A point-in-time copy of every registered metric, ordered by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// True when no metric holds any data.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// CSV rendering: `kind,name,count,value,min,p50,p90,p99,p999,max`
    /// (counters/gauges fill `value` only). Names are quoted per RFC
    /// 4180 when they contain `,`, `"`, or line breaks — metric names
    /// are arbitrary strings (derived from user-supplied labels in some
    /// callers), and an unescaped comma would shift every later column.
    /// Metrics CSV is write-only: the soak, the flight dumps and
    /// `GET /metrics?format=csv` write it for people and spreadsheets, and
    /// nothing in the workspace reads it back.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,count,value,min,p50,p90,p99,p999,max\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("counter,{},,{v},,,,,,\n", csv_field(name)));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge,{},,{v},,,,,,\n", csv_field(name)));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram,{},{},{:.1},{},{},{},{},{},{}\n",
                csv_field(name),
                h.count,
                h.mean,
                h.min,
                h.p50,
                h.p90,
                h.p99,
                h.p999,
                h.max
            ));
        }
        out
    }

    /// Aligned plain-text rendering for terminals and `results/` files.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() || !self.gauges.is_empty() {
            out.push_str("counters/gauges:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<40} {v}\n"));
            }
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<40} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (count mean p50 p90 p99 p999 max):\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<40} {} {:.1} {} {} {} {} {}\n",
                    h.count, h.mean, h.p50, h.p90, h.p99, h.p999, h.max
                ));
            }
        }
        out
    }
}

/// Quotes one CSV field per RFC 4180: fields containing a comma, a
/// double quote, or a line break are wrapped in quotes with embedded
/// quotes doubled; everything else passes through verbatim.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Bucket-level view of one live histogram, for exposition formats that
/// need more than the quantile summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramDetail {
    /// Occupied buckets as `(inclusive_upper_bound, cumulative_count)`,
    /// ascending (see [`Histogram::cumulative_buckets`]).
    pub buckets: Vec<(u64, u64)>,
    /// Total samples, taken as the final cumulative bucket count so the
    /// `+Inf` invariant (`bucket[+Inf] == count`) holds by construction
    /// even when sampled concurrently with recorders.
    pub count: u64,
    /// Sum of samples (racy with respect to `count` by at most the
    /// in-flight recordings; Prometheus semantics tolerate this).
    pub sum: u64,
}

/// Snapshots every live histogram with bucket detail, ordered by name.
pub fn histogram_details() -> Vec<(String, HistogramDetail)> {
    let mut out = Vec::new();
    for (name, metric) in registry().iter() {
        if let Metric::Hist(h) = metric {
            let buckets = h.cumulative_buckets();
            let count = buckets.last().map_or(0, |&(_, c)| c);
            out.push((
                name.clone(),
                HistogramDetail {
                    buckets,
                    count,
                    sum: h.sum(),
                },
            ));
        }
    }
    out
}

/// Snapshots every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for (name, metric) in registry().iter() {
        match metric {
            Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
            Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
            Metric::Hist(h) => snap.histograms.push((name.clone(), h.summary())),
        }
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that `reset()` the process-global registry must not
    /// interleave with each other under the parallel test harness.
    static REG_LOCK: Mutex<()> = Mutex::new(());

    fn registry_test() -> std::sync::MutexGuard<'static, ()> {
        let guard = REG_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reset();
        guard
    }

    #[test]
    fn bucket_index_is_monotone_and_bounds_contain() {
        let mut prev = 0usize;
        for v in (0u64..4096).chain([1 << 20, (1 << 20) + 7, u64::MAX / 2, u64::MAX]) {
            let i = bucket_index(v);
            assert!(i >= prev || v < 4096, "index must not decrease");
            if v >= 4096 {
                prev = i;
            }
            let (lo, hi) = bucket_bounds(i);
            assert!(
                (lo..hi).contains(&v) || (hi == u64::MAX && v >= lo),
                "v={v} i={i} lo={lo} hi={hi}"
            );
            assert!(i < BUCKETS);
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0u64..32 {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v + 1));
        }
    }

    #[test]
    fn histogram_quantiles_on_uniform_ramp() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // p50 of 1..=1000 is 500; one bucket at that magnitude spans
        // 1/16th, so accept the containing bucket.
        let p50 = h.p50();
        assert!((469..=532).contains(&p50), "p50={p50}");
        let p99 = h.p99();
        assert!((928..=1055).contains(&p99), "p99={p99}");
        assert_eq!(h.max(), 1000);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn record_secs_converts_to_nanos() {
        let h = Histogram::new();
        h.record_secs(1.5e-6);
        assert_eq!(h.count(), 1);
        let p = h.p50();
        let (lo, hi) = bucket_bounds(bucket_index(1500));
        assert!((lo..hi).contains(&p) || p == hi - 1, "p={p}");
        // Negative durations clamp to zero instead of wrapping.
        h.record_secs(-1.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn indexed_family_cardinality_is_bounded_under_churn() {
        let _guard = registry_test();
        // Churn 10k tenant ids through a gauge family without evicting:
        // the registry must stay at the cap, the rest counted as dropped.
        for id in 0..10_000usize {
            indexed_gauge("test.churn.depth", id).set(id as f64);
        }
        let live = {
            let snap = snapshot();
            snap.gauges
                .iter()
                .filter(|(n, _)| n.starts_with("test.churn.depth."))
                .count()
        };
        assert_eq!(live, MAX_INDEXED_SERIES);
        let dropped = {
            let snap = snapshot();
            snap.counters
                .iter()
                .find(|(n, _)| n == "metrics.series_dropped")
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(dropped, (10_000 - MAX_INDEXED_SERIES) as u64);
        // Overflow handles still work, they just record invisibly.
        indexed_gauge("test.churn.depth", 99_999).set(1.0);

        reset();
        // With delete-time eviction the same churn never overflows.
        for id in 0..10_000usize {
            indexed_counter("test.churn.msgs", id).incr();
            assert!(remove_indexed("test.churn.msgs", id));
        }
        let snap = snapshot();
        assert!(snap
            .counters
            .iter()
            .all(|(n, _)| !n.starts_with("test.churn.msgs.")));
        assert!(!snap
            .counters
            .iter()
            .any(|(n, _)| n == "metrics.series_dropped"));
        assert!(!remove_indexed("test.churn.msgs", 0));
        // Re-registration after eviction starts a fresh series.
        assert_eq!(indexed_counter("test.churn.msgs", 0).get(), 0);
        reset();
    }

    #[test]
    fn csv_quotes_hostile_names() {
        let _guard = registry_test();
        counter("plain.name").add(7);
        counter("comma,in,name").add(1);
        gauge("quote\"in\"name").set(2.5);
        gauge("newline\nin name").set(-0.25);
        histogram("crlf\r\nname").record(100);
        let csv = snapshot().to_csv();
        // Quoting keeps every data row at exactly 10 columns (the old
        // rendering shifted columns on commas).
        assert!(csv.contains("\ncounter,\"comma,in,name\",,1,,,,,,\n"), "{csv}");
        assert!(csv.contains("\ncounter,plain.name,,7,,,,,,\n"), "{csv}");
        assert!(csv.contains("\ngauge,\"quote\"\"in\"\"name\",,2.5,,,,,,\n"), "{csv}");
        assert!(csv.contains("\ngauge,\"newline\nin name\",,-0.25,,,,,,\n"), "{csv}");
        assert!(csv.contains("\nhistogram,\"crlf\r\nname\",1,100.0,"), "{csv}");
        reset();
    }

    #[test]
    fn registry_roundtrip_and_kind_mismatch() {
        let _guard = registry_test();
        counter("test.reg.hits").add(3);
        counter("test.reg.hits").add(2);
        // Indexed counters are plain counters under a `name.index` family.
        indexed_counter("test.idx.shard", 0).add(4);
        indexed_counter("test.idx.shard", 1).add(9);
        indexed_counter("test.idx.shard", 0).incr();
        {
            let snap = snapshot();
            let family: Vec<_> = snap
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with("test.idx.shard"))
                .cloned()
                .collect();
            assert_eq!(
                family,
                vec![
                    ("test.idx.shard.0".to_string(), 5),
                    ("test.idx.shard.1".to_string(), 9),
                ]
            );
        }
        reset();
        counter("test.reg.hits").add(5);
        gauge("test.reg.ratio").set(0.5);
        histogram("test.reg.lat").record(100);
        let snap = snapshot();
        assert_eq!(
            snap.counters,
            vec![("test.reg.hits".to_string(), 5)]
        );
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 1);
        let csv = snap.to_csv();
        assert!(csv.starts_with("kind,name,"));
        assert!(csv.contains("counter,test.reg.hits,,5,"));
        assert!(!snap.render().is_empty());
        let res = std::panic::catch_unwind(|| gauge("test.reg.hits"));
        assert!(res.is_err(), "kind mismatch must panic");
        reset();
        assert!(snapshot().is_empty());
    }
}
