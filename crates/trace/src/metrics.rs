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
    pub fn cumulative_buckets(&self) -> Buckets {
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
            sum: self.sum(),
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
    /// Sum of the samples (wrapping at `u64::MAX`).
    pub sum: u64,
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

/// A series' one optional label, `(key, value)`: `("tenant", "serial")`,
/// `("shard", "3")`. Keys are code constants (never `le` or `raw`, which
/// the exposition renderer adds itself); values may be any string.
pub type Label = Option<(&'static str, String)>;

/// What identifies a series in the registry: its family name (an
/// arbitrary string) and its label. Ordered by family first, so a family's
/// series sit side by side in a [`snapshot`], the unlabelled one first.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Family name, e.g. `server.queue_depth`.
    pub family: String,
    /// The label that tells the family's series apart.
    pub label: Label,
}

/// `family` or `family{key="value"}`, the spelling of the CSV and the
/// plain-text rendering.
impl std::fmt::Display for SeriesKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.label {
            None => f.pad(&self.family),
            Some((k, v)) => f.pad(&format!("{}{{{k}=\"{v}\"}}", self.family)),
        }
    }
}

impl SeriesKey {
    /// The counter registered under this key (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different metric kind.
    pub fn counter(self) -> Arc<Counter> {
        register(self)
    }

    /// The gauge registered under this key (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different metric kind.
    pub fn gauge(self) -> Arc<Gauge> {
        register(self)
    }

    /// The histogram registered under this key (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered as a different metric kind.
    pub fn histogram(self) -> Arc<Histogram> {
        register(self)
    }
}

/// The key of series `key="value"` of `family` — the one labelled entry
/// point: `labelled("server.queue_depth", "tenant", name).gauge()`,
/// `labelled("bsp.shard_messages", "shard", s).counter()`. A [`snapshot`]
/// lists every series of the family side by side, which is how per-tenant
/// attribution and the BSP engine's per-shard imbalance show up.
///
/// Families are capped at [`MAX_LABELLED_SERIES`] labelled series; past
/// the cap a new series gets an unregistered sink (its handle still
/// records, invisibly) and `metrics.series_dropped` counts it.
pub fn labelled(family: &str, key: &'static str, value: impl ToString) -> SeriesKey {
    SeriesKey {
        family: family.to_string(),
        label: Some((key, value.to_string())),
    }
}

static METRICS: Mutex<BTreeMap<SeriesKey, Metric>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<SeriesKey, Metric>> {
    METRICS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Cap on live labelled series per family. Tenant names are user input, so
/// an unbounded family would grow one series per distinct name *ever
/// created* — a classic cardinality leak. Deleting a tenant must evict its
/// series with [`evict_label`] to make room.
pub const MAX_LABELLED_SERIES: usize = 256;

/// A metric kind the registry stores, for the one generic [`register`].
trait Kind: Default {
    fn wrap(this: Arc<Self>) -> Metric;
    fn of(metric: &Metric) -> Option<&Arc<Self>>;
}

/// `impl Kind for $kind`, stored as `Metric::$variant`.
macro_rules! kind {
    ($kind:ty, $variant:ident) => {
        impl Kind for $kind {
            fn wrap(this: Arc<Self>) -> Metric {
                Metric::$variant(this)
            }
            fn of(metric: &Metric) -> Option<&Arc<Self>> {
                match metric {
                    Metric::$variant(m) => Some(m),
                    _ => None,
                }
            }
        }
    };
}
kind!(Counter, Counter);
kind!(Gauge, Gauge);
kind!(Histogram, Hist);

/// The one registration path: the metric under `key`, created on first
/// use, or an overflow sink when `key` is labelled and its family is full.
fn register<T: Kind>(key: SeriesKey) -> Arc<T> {
    get_or_insert(&mut registry(), key)
}

/// [`register`] with the registry lock already held (`std::sync::Mutex`
/// is not reentrant, and the overflow path bumps a counter of its own).
fn get_or_insert<T: Kind>(reg: &mut BTreeMap<SeriesKey, Metric>, key: SeriesKey) -> Arc<T> {
    if let Some(metric) = reg.get(&key) {
        return match T::of(metric) {
            Some(m) => Arc::clone(m),
            None => panic!("metric `{key}` already registered as {metric:?}"),
        };
    }
    if key.label.is_some() {
        let family = SeriesKey { family: key.family.clone(), label: None };
        let live = reg
            .range(family..)
            .take_while(|(k, _)| k.family == key.family)
            .filter(|(k, _)| k.label.is_some())
            .count();
        if live >= MAX_LABELLED_SERIES {
            let dropped = SeriesKey { family: "metrics.series_dropped".to_string(), label: None };
            get_or_insert::<Counter>(reg, dropped).incr();
            return Arc::default();
        }
    }
    let metric = Arc::<T>::default();
    reg.insert(key, T::wrap(Arc::clone(&metric)));
    metric
}

/// The unlabelled counter `name` (created on first use).
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> Arc<Counter> {
    register(SeriesKey { family: name.to_string(), label: None })
}

/// The unlabelled gauge `name` (created on first use).
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> Arc<Gauge> {
    register(SeriesKey { family: name.to_string(), label: None })
}

/// The unlabelled histogram `name` (created on first use).
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: &str) -> Arc<Histogram> {
    register(SeriesKey { family: name.to_string(), label: None })
}

/// Evicts every series labelled `key="value"`, of every family and kind,
/// freeing their cardinality-budget slots; held handles keep recording
/// into orphans. Tenant deletion calls `evict_label("tenant", name)`.
/// Returns how many series went.
pub fn evict_label(key: &str, value: &str) -> usize {
    let mut reg = registry();
    let before = reg.len();
    reg.retain(|k, _| !matches!(&k.label, Some((lk, lv)) if *lk == key && lv == value));
    before - reg.len()
}

/// Unregisters every metric (held handles keep recording into orphans).
pub fn reset() {
    registry().clear();
}

/// A point-in-time copy of every registered metric, ordered by key.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values.
    pub counters: Vec<(SeriesKey, u64)>,
    /// Gauge values.
    pub gauges: Vec<(SeriesKey, f64)>,
    /// Histogram summaries, each with its occupied buckets for exposition
    /// formats that need more than the quantile row.
    pub histograms: Vec<(SeriesKey, HistogramSummary, Buckets)>,
}

/// Occupied histogram buckets as `(inclusive_upper_bound,
/// cumulative_count)` pairs, ascending (see [`Histogram::cumulative_buckets`]).
pub type Buckets = Vec<(u64, u64)>;

impl MetricsSnapshot {
    /// True when no metric holds any data.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// CSV rendering: `kind,name,count,value,min,p50,p90,p99,p999,max`
    /// (counters/gauges fill `value` only), `name` spelled
    /// `family{key="value"}` for a labelled series. Names are quoted per
    /// RFC 4180 when they contain `,`, `"`, or line breaks — family names
    /// and label values are arbitrary strings, and an unescaped comma
    /// would shift every later column.
    /// Metrics CSV is write-only: the soak, the flight dumps and
    /// `GET /metrics?format=csv` write it for people and spreadsheets, and
    /// nothing in the workspace reads it back.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,count,value,min,p50,p90,p99,p999,max\n");
        for (key, v) in &self.counters {
            out.push_str(&format!("counter,{},,{v},,,,,,\n", csv_field(&key.to_string())));
        }
        for (key, v) in &self.gauges {
            out.push_str(&format!("gauge,{},,{v},,,,,,\n", csv_field(&key.to_string())));
        }
        for (key, h, _) in &self.histograms {
            out.push_str(&format!(
                "histogram,{},{},{:.1},{},{},{},{},{},{}\n",
                csv_field(&key.to_string()),
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
            for (key, v) in &self.counters {
                out.push_str(&format!("  {key:<40} {v}\n"));
            }
            for (key, v) in &self.gauges {
                out.push_str(&format!("  {key:<40} {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms (count mean p50 p90 p99 p999 max):\n");
            for (key, h, _) in &self.histograms {
                out.push_str(&format!(
                    "  {key:<40} {} {:.1} {} {} {} {} {}\n",
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

/// Snapshots every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for (key, metric) in registry().iter() {
        match metric {
            Metric::Counter(c) => snap.counters.push((key.clone(), c.get())),
            Metric::Gauge(g) => snap.gauges.push((key.clone(), g.get())),
            Metric::Hist(h) => {
                snap.histograms.push((key.clone(), h.summary(), h.cumulative_buckets()))
            }
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

    /// The live labelled series of `family` in a fresh snapshot.
    fn series_of(family: &str) -> Vec<SeriesKey> {
        let snap = snapshot();
        let counters = snap.counters.into_iter().map(|(k, _)| k);
        let gauges = snap.gauges.into_iter().map(|(k, _)| k);
        counters.chain(gauges).filter(|k| k.family == family).collect()
    }

    fn series_dropped() -> Option<u64> {
        let dropped = SeriesKey { family: "metrics.series_dropped".to_string(), label: None };
        snapshot().counters.into_iter().find(|(k, _)| *k == dropped).map(|(_, v)| v)
    }

    #[test]
    fn labelled_family_cardinality_is_bounded_under_churn() {
        let _guard = registry_test();
        // Churn 10k tenant names through a gauge family without evicting:
        // the registry must stay at the cap, the rest counted as dropped.
        // The family's unlabelled series does not count against the cap.
        gauge("test.churn.depth").set(1.0);
        for id in 0..10_000usize {
            labelled("test.churn.depth", "tenant", id).gauge().set(id as f64);
        }
        assert_eq!(series_of("test.churn.depth").len(), MAX_LABELLED_SERIES + 1);
        assert_eq!(series_dropped(), Some((10_000 - MAX_LABELLED_SERIES) as u64));
        // Overflow handles still work, they just record invisibly.
        labelled("test.churn.depth", "tenant", 99_999).gauge().set(1.0);

        reset();
        // With delete-time eviction the same churn never overflows.
        for id in 0..10_000usize {
            labelled("test.churn.msgs", "tenant", id).counter().incr();
            assert_eq!(evict_label("tenant", &id.to_string()), 1);
        }
        assert!(series_of("test.churn.msgs").is_empty());
        assert_eq!(series_dropped(), None);
        assert_eq!(evict_label("tenant", "0"), 0);
        // Re-registration after eviction starts a fresh series.
        assert_eq!(labelled("test.churn.msgs", "tenant", 0).counter().get(), 0);
        reset();
    }

    #[test]
    fn eviction_drops_one_label_value_from_every_family() {
        let _guard = registry_test();
        labelled("test.ev.depth", "tenant", "a").gauge().set(1.0);
        labelled("test.ev.depth", "tenant", "b").gauge().set(2.0);
        labelled("test.ev.bytes", "tenant", "a").gauge().set(3.0);
        labelled("test.ev.lat", "tenant", "a").histogram().record(7);
        labelled("test.ev.msgs", "shard", "a").counter().incr();
        gauge("test.ev.depth").set(4.0);
        assert_eq!(evict_label("tenant", "a"), 3);
        let snap = snapshot();
        let keys: Vec<String> = snap.gauges.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(keys, ["test.ev.depth", "test.ev.depth{tenant=\"b\"}"]);
        assert!(snap.histograms.is_empty());
        // Another key with the same value is a different label.
        assert_eq!(snap.counters.len(), 1);
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
        // Labelled counters are plain counters keyed by family and label.
        labelled("test.idx.shard", "shard", 0).counter().add(4);
        labelled("test.idx.shard", "shard", 1).counter().add(9);
        labelled("test.idx.shard", "shard", 0).counter().incr();
        {
            let family: Vec<_> = snapshot()
                .counters
                .into_iter()
                .filter(|(k, _)| k.family == "test.idx.shard")
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            assert_eq!(
                family,
                vec![
                    ("test.idx.shard{shard=\"0\"}".to_string(), 5),
                    ("test.idx.shard{shard=\"1\"}".to_string(), 9),
                ]
            );
            let csv = snapshot().to_csv();
            assert!(csv.contains("\ncounter,\"test.idx.shard{shard=\"\"1\"\"}\",,9,"), "{csv}");
            let text = snapshot().render();
            assert!(text.contains("  test.idx.shard{shard=\"1\"}      "), "{text}");
        }
        reset();
        counter("test.reg.hits").add(5);
        gauge("test.reg.ratio").set(0.5);
        histogram("test.reg.lat").record(100);
        histogram("test.reg.lat").record(300);
        let snap = snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].0.to_string(), "test.reg.hits");
        assert_eq!(snap.counters[0].1, 5);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.histograms.len(), 1);
        let (_, summary, buckets) = &snap.histograms[0];
        assert_eq!((summary.count, summary.sum), (2, 400));
        assert_eq!(buckets.last().map(|b| b.1), Some(2));
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
