//! Always-on serving metrics: lock-free log-bucketed histograms,
//! sliding-window rate counters, gauges, and a [`MetricsRegistry`] that
//! snapshots everything into the in-tree [`Json`] layer or Prometheus text
//! exposition format.
//!
//! Unlike the rest of the crate, nothing here is gated on the `probe`
//! feature: the serving plane (`ndirect-serve`) records into these types
//! unconditionally, because an inference server that cannot report its own
//! p99 is not operable. The types are still usable from feature-gated hot
//! paths through the [`probe_hist!`](crate::probe_hist) macro, which
//! const-folds away like the other probe macros when
//! [`ENABLED`](crate::ENABLED) is false.
//!
//! # Histogram bucket scheme
//!
//! [`LogHistogram`] is an HdrHistogram-style log-linear histogram over
//! `u64` values (the serving plane records nanoseconds):
//!
//! * values `0..32` land in 32 exact unit buckets;
//! * every power-of-two octave `[2^k, 2^(k+1))` for `k = 5..=63` is split
//!   into 32 equal sub-buckets.
//!
//! That is `32 + 59·32 = 1920` buckets of `AtomicU64` (15 KiB per
//! histogram). Quantile queries report the **upper bound** of the bucket
//! holding the requested rank, so an estimate never undershoots the true
//! order statistic and overshoots it by at most one sub-bucket width:
//! a relative error of at most `1/32 = 3.125%` (the "~4%" headline bound;
//! exact below value 32). `tests/metrics.rs` pins this bound against a
//! sort oracle over adversarial distributions.
//!
//! # Concurrency
//!
//! All updates are `Relaxed` `fetch_add`s on independent atomics: totals
//! are exact at quiescent points, and mid-flight snapshots are torn-but-
//! memory-safe, same contract as the rest of the probe. Snapshots
//! recompute `count` from the bucket array so rank arithmetic inside one
//! snapshot is always self-consistent.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use ndirect_support::Json;

// ---------------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------------

/// log2 of [`SUBBUCKETS`].
pub const SUB_BITS: usize = 5;
/// Sub-buckets per power-of-two octave (and the linear-region width).
pub const SUBBUCKETS: usize = 1 << SUB_BITS;
/// Total bucket count: the linear region plus the 59 subdivided octaves
/// `k = SUB_BITS..=63`.
pub const NUM_BUCKETS: usize = SUBBUCKETS + (64 - SUB_BITS) * SUBBUCKETS;
/// Worst-case relative quantile error: one sub-bucket width over the
/// octave base, `1/32`. Estimates are upper bounds (never undershoot).
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / SUBBUCKETS as f64;

/// A lock-free log-bucketed histogram of `u64` samples (typically
/// nanoseconds). Mergeable across threads via [`LogHistogram::snapshot`] +
/// [`HistogramSnapshot::merge`]; see the module docs for the bucket scheme
/// and error bound.
pub struct LogHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl LogHistogram {
    /// An empty histogram. `const` so histograms can live in statics.
    pub const fn new() -> LogHistogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const Z: AtomicU64 = AtomicU64::new(0);
        LogHistogram {
            buckets: [Z; NUM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value. Total order: `v <= w` implies
    /// `bucket_index(v) <= bucket_index(w)`, which is what makes
    /// rank-by-bucket-walk agree with rank-by-sort.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value < SUBBUCKETS as u64 {
            value as usize
        } else {
            let msb = 63 - value.leading_zeros() as usize;
            let sub = ((value >> (msb - SUB_BITS)) & (SUBBUCKETS as u64 - 1)) as usize;
            (msb - SUB_BITS) * SUBBUCKETS + sub + SUBBUCKETS
        }
    }

    /// Largest value that maps into bucket `index` (the value quantiles
    /// report). Saturates at `u64::MAX` for the last bucket.
    #[inline]
    pub fn bucket_upper(index: usize) -> u64 {
        if index < SUBBUCKETS {
            index as u64
        } else {
            let oct = (index - SUBBUCKETS) / SUBBUCKETS + SUB_BITS;
            let sub = ((index - SUBBUCKETS) % SUBBUCKETS) as u64;
            let width = 1u64 << (oct - SUB_BITS);
            (1u64 << oct) + sub * width + (width - 1)
        }
    }

    /// Records one sample. Lock-free; safe from any thread.
    // AUDIT: hotpath
    #[inline]
    pub fn record(&self, value: u64) {
        // INDEX: bucket_index() maps every u64 into 0..BUCKETS.
        self.buckets[Self::bucket_index(value)].fetch_add(1, Relaxed); // ORDERING: Relaxed — independent monotonic cells; snapshots tolerate skew
        self.count.fetch_add(1, Relaxed); // ORDERING: Relaxed — independent monotonic cells; snapshots tolerate skew
        self.sum.fetch_add(value, Relaxed); // ORDERING: Relaxed — independent monotonic cells; snapshots tolerate skew
    }

    /// Total samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed) // ORDERING: Relaxed — racy read of a monotonic cell
    }

    /// Sum of all recorded values (wraps past `u64::MAX`; at 1 sample/µs
    /// of nanosecond-scale values that takes centuries).
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed) // ORDERING: Relaxed — racy read of a monotonic cell
    }

    /// Live quantile estimate for `q` in percent (`50.0`, `99.0`, …),
    /// allocation-free (a walk over the atomics). `0` when empty. Under
    /// concurrent recording this is approximate the same way a snapshot
    /// taken mid-flight is; exact at quiescent points.
    pub fn quantile(&self, q: f64) -> u64 {
        let mut total = 0u64;
        for b in &self.buckets {
            total += b.load(Relaxed); // ORDERING: Relaxed — racy read; quantiles are approximate under concurrency
        }
        if total == 0 {
            return 0;
        }
        let rank = rank_for(q, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Relaxed); // ORDERING: Relaxed — racy read; quantiles are approximate under concurrency
            if seen >= rank {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(NUM_BUCKETS - 1)
    }

    /// A self-consistent point-in-time copy of the nonzero buckets
    /// only. `count` is recomputed from the buckets so quantile ranks
    /// inside the snapshot always agree with its own bucket totals.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Relaxed); // ORDERING: Relaxed — racy read; snapshot recomputes count from buckets
            if n != 0 {
                buckets.push((i as u32, n));
                count += n;
            }
        }
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Relaxed), // ORDERING: Relaxed — racy read; snapshot recomputes count from buckets
        }
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Nearest-rank position (1-based) for quantile `q` (percent) over
/// `total` samples.
fn rank_for(q: f64, total: u64) -> u64 {
    let q = q.clamp(0.0, 100.0);
    ((q / 100.0 * total as f64).ceil() as u64).clamp(1, total)
}

/// Immutable copy of a [`LogHistogram`]'s nonzero buckets: `(bucket index, count)`
/// pairs sorted by index, plus total count and value sum. Supports the
/// same quantile queries, plus `merge`/`since` set arithmetic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Nonzero `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(u32, u64)>,
    /// Total samples (sum of bucket counts).
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Quantile estimate for `q` in percent; `0` when empty. Same error
    /// bound as [`LogHistogram::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = rank_for(q, self.count);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return LogHistogram::bucket_upper(i as usize);
            }
        }
        LogHistogram::bucket_upper(NUM_BUCKETS - 1)
    }

    /// Mean of recorded values; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The union of two snapshots (bucket-wise sum). Associative and
    /// commutative, so per-thread histograms fold in any order.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia < ib {
                        buckets.push((ia, na));
                        a.next();
                    } else if ib < ia {
                        buckets.push((ib, nb));
                        b.next();
                    } else {
                        buckets.push((ia, na + nb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    buckets.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    buckets.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
        }
    }

    /// The delta since an earlier snapshot of the same histogram:
    /// bucket-wise saturating subtraction (zeroed buckets are dropped).
    /// `later.since(&earlier).merge(&earlier) == later` whenever `earlier`
    /// really is a prefix of `later` — the PR 4 race-free alternative to
    /// resetting shared state.
    pub fn since(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = Vec::with_capacity(self.buckets.len());
        let mut count = 0u64;
        for &(i, n) in &self.buckets {
            let base = baseline
                .buckets
                .iter()
                .find(|&&(bi, _)| bi == i)
                .map_or(0, |&(_, bn)| bn);
            let d = n.saturating_sub(base);
            if d != 0 {
                buckets.push((i, d));
                count += d;
            }
        }
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.wrapping_sub(baseline.sum),
        }
    }
}

// ---------------------------------------------------------------------------
// Counter / Gauge / RateWindow
// ---------------------------------------------------------------------------

/// A monotonic event counter (like [`crate::Counter`] slots, but
/// dynamically registered and always on).
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    // AUDIT: hotpath
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed); // ORDERING: Relaxed — monotonic counter bump; publishes no other memory
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed) // ORDERING: Relaxed — racy read of a monotonic cell
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A last-write-wins (or high-water, via [`Gauge::set_max`]) level value.
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed); // ORDERING: Relaxed — last-write-wins level; carries no associated data
    }

    /// Raises the level to `v` if it is higher (high-water tracking).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Relaxed); // ORDERING: Relaxed — high-water max; carries no associated data
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed) // ORDERING: Relaxed — racy read of a level value
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// Events each [`RateWindow`] slice spans, in nanoseconds (1 s).
const RATE_SLICE_NS: u64 = 1_000_000_000;

/// A sliding-window event-rate counter: a ring of per-second slices; the
/// reported rate is the event total over the last `slices` seconds
/// divided by the window length. Lock-free and approximate at slice
/// boundaries (a slice being recycled can momentarily miscount a handful
/// of events) — a monitoring signal, not an accounting one; exact totals
/// belong in a [`Counter`].
pub struct RateWindow {
    slots: Box<[RateSlot]>,
}

struct RateSlot {
    /// Slice sequence number + 1 (0 = never used).
    epoch: AtomicU64,
    count: AtomicU64,
}

impl RateWindow {
    /// A window of `slices` one-second slices (clamped to `1..=60`).
    pub fn new(slices: usize) -> RateWindow {
        RateWindow {
            slots: (0..slices.clamp(1, 60))
                .map(|_| RateSlot {
                    epoch: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Records `n` events now (probe-epoch clock).
    #[inline]
    pub fn record(&self, n: u64) {
        self.record_at(crate::now_ns(), n);
    }

    /// Records `n` events at an explicit probe-epoch timestamp (tests).
    // AUDIT: hotpath
    pub fn record_at(&self, now_ns: u64, n: u64) {
        let epoch = now_ns / RATE_SLICE_NS + 1;
        // INDEX: reduced modulo slots.len().
        let slot = &self.slots[(epoch % self.slots.len() as u64) as usize];
        let seen = slot.epoch.load(Relaxed); // ORDERING: Relaxed — epoch tag read; CAS below arbitrates resets
        if seen != epoch {
            // First writer into a recycled slice resets it; a lost race
            // means someone else already did.
            if slot
                .epoch
                .compare_exchange(seen, epoch, Relaxed, Relaxed) // ORDERING: Relaxed — CAS only elects one resetter; counts are advisory
                .is_ok()
            {
                slot.count.store(0, Relaxed); // ORDERING: Relaxed — reset ordered by the epoch CAS win; counts are advisory
            }
        }
        slot.count.fetch_add(n, Relaxed); // ORDERING: Relaxed — advisory rate cell; skew within a slice is acceptable
    }

    /// Events per second over the window, as of now.
    pub fn per_sec(&self) -> f64 {
        self.per_sec_at(crate::now_ns())
    }

    /// Events per second over the window, at an explicit timestamp.
    pub fn per_sec_at(&self, now_ns: u64) -> f64 {
        let epoch = now_ns / RATE_SLICE_NS + 1;
        let window = self.slots.len() as u64;
        let mut total = 0u64;
        for s in self.slots.iter() {
            let e = s.epoch.load(Relaxed); // ORDERING: Relaxed — racy window read; stale slices age out by epoch
            if e != 0 && e + window > epoch && e <= epoch {
                total += s.count.load(Relaxed); // ORDERING: Relaxed — racy window read; stale slices age out by epoch
            }
        }
        total as f64 / window as f64
    }
}

// ---------------------------------------------------------------------------
// Registry and snapshots
// ---------------------------------------------------------------------------

/// What a metric family measures; mirrors the Prometheus `# TYPE` values
/// (a [`RateWindow`] exports as a gauge).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic event count.
    Counter,
    /// Instantaneous level (includes rate windows).
    Gauge,
    /// Log-bucketed value distribution.
    Histogram,
}

impl MetricKind {
    /// Stable lowercase name used in JSON and Prometheus output.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }

    fn from_name(s: &str) -> Option<MetricKind> {
        match s {
            "counter" => Some(MetricKind::Counter),
            "gauge" => Some(MetricKind::Gauge),
            "histogram" => Some(MetricKind::Histogram),
            _ => None,
        }
    }
}

/// Label set attached to one sample: `(key, value)` pairs in registration
/// order. Empty for unlabeled (aggregate) samples.
pub type Labels = Vec<(String, String)>;

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Rate(Arc<RateWindow>),
    Histogram(Arc<LogHistogram>),
}

impl Handle {
    fn kind(&self) -> MetricKind {
        match self {
            Handle::Counter(_) => MetricKind::Counter,
            Handle::Gauge(_) | Handle::Rate(_) => MetricKind::Gauge,
            Handle::Histogram(_) => MetricKind::Histogram,
        }
    }
}

struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    samples: Vec<(Labels, Handle)>,
}

/// A registry of named metric families. Instruments register once at
/// construction (getting back an `Arc` handle they record into with no
/// further registry involvement); [`MetricsRegistry::snapshot`] walks the
/// families into a serializable [`MetricsSnapshot`].
///
/// Registration is idempotent on `(name, labels)`: re-registering an
/// existing sample returns the existing handle (or, on a kind mismatch, a
/// fresh *unregistered* handle, so misuse degrades to a dead metric
/// instead of a panic).
#[derive(Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register<T>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> (Arc<T>, Handle),
        get: impl Fn(&Handle) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let labels: Labels = labels
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        let (arc, handle) = make();
        let mut families = self.families.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(f) = families.iter_mut().find(|f| f.name == name) {
            if f.kind != handle.kind() {
                return arc; // kind mismatch: unregistered handle
            }
            if let Some((_, existing)) = f.samples.iter().find(|(l, _)| *l == labels) {
                return get(existing).unwrap_or(arc);
            }
            f.samples.push((labels, handle));
        } else {
            families.push(Family {
                name: name.to_owned(),
                help: help.to_owned(),
                kind: handle.kind(),
                samples: vec![(labels, handle)],
            });
        }
        arc
    }

    /// Registers (or retrieves) a counter sample.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register(
            name,
            help,
            labels,
            || {
                let c = Arc::new(Counter::new());
                (Arc::clone(&c), Handle::Counter(c))
            },
            |h| match h {
                Handle::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) a gauge sample.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.register(
            name,
            help,
            labels,
            || {
                let g = Arc::new(Gauge::new());
                (Arc::clone(&g), Handle::Gauge(g))
            },
            |h| match h {
                Handle::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) a sliding-window rate sample (exported as
    /// a gauge in events/second over `window_secs`).
    pub fn rate(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        window_secs: usize,
    ) -> Arc<RateWindow> {
        self.register(
            name,
            help,
            labels,
            || {
                let r = Arc::new(RateWindow::new(window_secs));
                (Arc::clone(&r), Handle::Rate(r))
            },
            |h| match h {
                Handle::Rate(r) => Some(Arc::clone(r)),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) a histogram sample.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<LogHistogram> {
        self.register(
            name,
            help,
            labels,
            || {
                let h = Arc::new(LogHistogram::new());
                (Arc::clone(&h), Handle::Histogram(h))
            },
            |h| match h {
                Handle::Histogram(x) => Some(Arc::clone(x)),
                _ => None,
            },
        )
    }

    /// Snapshots every registered sample.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let families = self.families.lock().unwrap_or_else(|p| p.into_inner());
        MetricsSnapshot {
            captured_ns: crate::now_ns(),
            families: families
                .iter()
                .map(|f| FamilySnapshot {
                    name: f.name.clone(),
                    help: f.help.clone(),
                    kind: f.kind,
                    samples: f
                        .samples
                        .iter()
                        .map(|(labels, h)| SampleSnapshot {
                            labels: labels.clone(),
                            value: match h {
                                Handle::Counter(c) => MetricValue::Counter(c.get()),
                                Handle::Gauge(g) => MetricValue::Gauge(g.get() as f64),
                                Handle::Rate(r) => MetricValue::Gauge(r.per_sec()),
                                Handle::Histogram(x) => MetricValue::Histogram(x.snapshot()),
                            },
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// One sample's value in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Level (gauges and rate windows).
    Gauge(f64),
    /// Distribution.
    Histogram(HistogramSnapshot),
}

/// One labeled sample in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleSnapshot {
    /// Label pairs, registration order.
    pub labels: Labels,
    /// The captured value.
    pub value: MetricValue,
}

/// One metric family (shared name/help/kind, N labeled samples).
#[derive(Clone, Debug, PartialEq)]
pub struct FamilySnapshot {
    /// Metric name (`serve_stage_execute_ns`, …).
    pub name: String,
    /// One-line description.
    pub help: String,
    /// Counter / gauge / histogram.
    pub kind: MetricKind,
    /// Samples, registration order.
    pub samples: Vec<SampleSnapshot>,
}

impl FamilySnapshot {
    /// The sample whose labels match `labels` exactly (order-insensitive).
    pub fn sample(&self, labels: &[(&str, &str)]) -> Option<&SampleSnapshot> {
        self.samples.iter().find(|s| {
            s.labels.len() == labels.len()
                && labels
                    .iter()
                    .all(|&(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
    }
}

/// Version stamp in the snapshot JSON.
pub const METRICS_SCHEMA_VERSION: u64 = 1;
/// `kind` stamp in the snapshot JSON.
pub const METRICS_KIND: &str = "ndirect-metrics";

/// A point-in-time capture of a whole [`MetricsRegistry`], serializable
/// as JSON (round-trips through [`MetricsSnapshot::from_json`]) and as
/// Prometheus text exposition format.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Capture time, nanoseconds since the process probe epoch.
    pub captured_ns: u64,
    /// Families, registration order.
    pub families: Vec<FamilySnapshot>,
}

impl MetricsSnapshot {
    /// The family named `name`.
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Counter value for `(name, labels)`, if present.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.family(name)?.sample(labels)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// Gauge value for `(name, labels)`, if present.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.family(name)?.sample(labels)?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// Histogram snapshot for `(name, labels)`, if present.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match &self.family(name)?.sample(labels)?.value {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// The delta against an earlier snapshot: counters and histograms
    /// subtract (saturating), gauges keep this snapshot's level. Families
    /// or samples absent from the baseline pass through unchanged.
    pub fn since(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            captured_ns: self.captured_ns,
            families: self
                .families
                .iter()
                .map(|f| {
                    let base = baseline.family(&f.name);
                    FamilySnapshot {
                        name: f.name.clone(),
                        help: f.help.clone(),
                        kind: f.kind,
                        samples: f
                            .samples
                            .iter()
                            .map(|s| {
                                let labels: Vec<(&str, &str)> = s
                                    .labels
                                    .iter()
                                    .map(|(k, v)| (k.as_str(), v.as_str()))
                                    .collect();
                                let bv = base.and_then(|bf| bf.sample(&labels)).map(|b| &b.value);
                                SampleSnapshot {
                                    labels: s.labels.clone(),
                                    value: match (&s.value, bv) {
                                        (
                                            MetricValue::Counter(v),
                                            Some(MetricValue::Counter(b)),
                                        ) => MetricValue::Counter(v.saturating_sub(*b)),
                                        (
                                            MetricValue::Histogram(v),
                                            Some(MetricValue::Histogram(b)),
                                        ) => MetricValue::Histogram(v.since(b)),
                                        (v, _) => v.clone(),
                                    },
                                }
                            })
                            .collect(),
                    }
                })
                .collect(),
        }
    }

    /// Serializes via the in-tree JSON layer. Schema:
    /// `{kind, schema_version, captured_ns, families: [{name, help, type,
    /// samples: [{labels, value | {count, sum, buckets: [[idx, n], …]}}]}]}`.
    pub fn to_json(&self) -> Json {
        let families = self
            .families
            .iter()
            .map(|f| {
                let samples = f
                    .samples
                    .iter()
                    .map(|s| {
                        let labels = Json::Obj(
                            s.labels
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                                .collect(),
                        );
                        let mut obj = vec![("labels".to_owned(), labels)];
                        match &s.value {
                            MetricValue::Counter(v) => {
                                obj.push(("value".to_owned(), Json::num(*v as f64)));
                            }
                            MetricValue::Gauge(v) => {
                                obj.push(("value".to_owned(), Json::num(*v)));
                            }
                            MetricValue::Histogram(h) => {
                                obj.push(("count".to_owned(), Json::num(h.count as f64)));
                                obj.push(("sum".to_owned(), Json::num(h.sum as f64)));
                                obj.push((
                                    "buckets".to_owned(),
                                    Json::Arr(
                                        h.buckets
                                            .iter()
                                            .map(|&(i, n)| {
                                                Json::Arr(vec![
                                                    Json::num(i as f64),
                                                    Json::num(n as f64),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ));
                            }
                        }
                        Json::Obj(obj)
                    })
                    .collect();
                Json::Obj(vec![
                    ("name".to_owned(), Json::str(f.name.clone())),
                    ("help".to_owned(), Json::str(f.help.clone())),
                    ("type".to_owned(), Json::str(f.kind.name())),
                    ("samples".to_owned(), Json::Arr(samples)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("kind".to_owned(), Json::str(METRICS_KIND)),
            (
                "schema_version".to_owned(),
                Json::usize(METRICS_SCHEMA_VERSION as usize),
            ),
            ("captured_ns".to_owned(), Json::num(self.captured_ns as f64)),
            ("families".to_owned(), Json::Arr(families)),
        ])
    }

    /// Parses a snapshot serialized by [`MetricsSnapshot::to_json`].
    pub fn from_json(json: &Json) -> Result<MetricsSnapshot, String> {
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing `kind`".to_owned())?;
        if kind != METRICS_KIND {
            return Err(format!("not a metrics snapshot (kind = {kind:?})"));
        }
        let version = json
            .get("schema_version")
            .and_then(Json::as_usize)
            .ok_or_else(|| "missing `schema_version`".to_owned())?;
        if version as u64 != METRICS_SCHEMA_VERSION {
            return Err(format!("unsupported schema_version {version}"));
        }
        let captured_ns = json
            .get("captured_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| "missing `captured_ns`".to_owned())? as u64;
        let mut families = Vec::new();
        for f in json
            .get("families")
            .and_then(Json::as_arr)
            .ok_or_else(|| "missing `families`".to_owned())?
        {
            let name = f
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| "family missing `name`".to_owned())?
                .to_owned();
            let help = f
                .get("help")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned();
            let kind = f
                .get("type")
                .and_then(Json::as_str)
                .and_then(MetricKind::from_name)
                .ok_or_else(|| format!("family {name}: bad `type`"))?;
            let mut samples = Vec::new();
            for s in f
                .get("samples")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("family {name}: missing `samples`"))?
            {
                let labels: Labels = s
                    .get("labels")
                    .and_then(Json::as_obj)
                    .map(|pairs| {
                        pairs
                            .iter()
                            .filter_map(|(k, v)| {
                                v.as_str().map(|v| (k.clone(), v.to_owned()))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                let value = match kind {
                    MetricKind::Counter => MetricValue::Counter(
                        s.get("value")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("family {name}: sample missing `value`"))?
                            as u64,
                    ),
                    MetricKind::Gauge => MetricValue::Gauge(
                        s.get("value")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("family {name}: sample missing `value`"))?,
                    ),
                    MetricKind::Histogram => {
                        let count = s
                            .get("count")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("family {name}: missing `count`"))?
                            as u64;
                        let sum = s
                            .get("sum")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| format!("family {name}: missing `sum`"))?
                            as u64;
                        let mut buckets = Vec::new();
                        for b in s
                            .get("buckets")
                            .and_then(Json::as_arr)
                            .ok_or_else(|| format!("family {name}: missing `buckets`"))?
                        {
                            let pair = b
                                .as_arr()
                                .filter(|p| p.len() == 2)
                                .ok_or_else(|| format!("family {name}: bad bucket"))?;
                            let idx = pair[0]
                                .as_f64()
                                .ok_or_else(|| format!("family {name}: bad bucket idx"))?
                                as u32;
                            let n = pair[1]
                                .as_f64()
                                .ok_or_else(|| format!("family {name}: bad bucket count"))?
                                as u64;
                            buckets.push((idx, n));
                        }
                        MetricValue::Histogram(HistogramSnapshot { buckets, count, sum })
                    }
                };
                samples.push(SampleSnapshot { labels, value });
            }
            families.push(FamilySnapshot {
                name,
                help,
                kind,
                samples,
            });
        }
        Ok(MetricsSnapshot {
            captured_ns,
            families,
        })
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (`# HELP`/`# TYPE` headers, cumulative `_bucket{le=…}` series plus
    /// `_sum`/`_count` for histograms). Parses back with
    /// [`parse_prometheus`]; CI asserts the round trip.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for f in &self.families {
            if !f.help.is_empty() {
                let _ = writeln!(out, "# HELP {} {}", f.name, f.help.replace('\n', " "));
            }
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind.name());
            for s in &f.samples {
                match &s.value {
                    MetricValue::Counter(v) => {
                        let _ = writeln!(out, "{}{} {}", f.name, prom_labels(&s.labels, None), v);
                    }
                    MetricValue::Gauge(v) => {
                        let _ = writeln!(out, "{}{} {}", f.name, prom_labels(&s.labels, None), v);
                    }
                    MetricValue::Histogram(h) => {
                        let mut cum = 0u64;
                        for &(i, n) in &h.buckets {
                            cum += n;
                            let le = LogHistogram::bucket_upper(i as usize).to_string();
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                f.name,
                                prom_labels(&s.labels, Some(&le)),
                                cum
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            f.name,
                            prom_labels(&s.labels, Some("+Inf")),
                            h.count
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            f.name,
                            prom_labels(&s.labels, None),
                            h.sum
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            f.name,
                            prom_labels(&s.labels, None),
                            h.count
                        );
                    }
                }
            }
        }
        out
    }
}

fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn prom_labels(labels: &Labels, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// One parsed Prometheus sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Metric name (histogram series keep their `_bucket`/`_sum`/`_count`
    /// suffix).
    pub name: String,
    /// Parsed label pairs (unescaped), line order.
    pub labels: Labels,
    /// Sample value (`+Inf`/`-Inf`/`NaN` accepted).
    pub value: f64,
}

/// Parses Prometheus text exposition format back into its sample lines
/// (comments and blank lines skipped). The inverse of
/// [`MetricsSnapshot::to_prometheus`] for round-trip validation.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {raw:?}", lineno + 1);
        let (name_and_labels, value_str) = match line.find('}') {
            Some(close) => {
                let rest = line[close + 1..].trim();
                (&line[..close + 1], rest)
            }
            None => {
                let sp = line
                    .find(char::is_whitespace)
                    .ok_or_else(|| err("no value"))?;
                (&line[..sp], line[sp..].trim())
            }
        };
        let (name, labels) = match name_and_labels.find('{') {
            Some(open) => {
                if !name_and_labels.ends_with('}') {
                    return Err(err("unterminated label set"));
                }
                let body = &name_and_labels[open + 1..name_and_labels.len() - 1];
                (&name_and_labels[..open], parse_prom_labels(body).map_err(|e| err(&e))?)
            }
            None => (name_and_labels, Vec::new()),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(err("bad metric name"));
        }
        let value = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v.parse::<f64>().map_err(|_| err("bad value"))?,
        };
        samples.push(PromSample {
            name: name.to_owned(),
            labels,
            value,
        });
    }
    Ok(samples)
}

fn parse_prom_labels(body: &str) -> Result<Labels, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(c) if c.is_whitespace() || *c == ',') {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(labels);
        }
        let mut key = String::new();
        while matches!(chars.peek(), Some(c) if *c != '=') {
            key.push(chars.next().unwrap_or('='));
        }
        if chars.next() != Some('=') || chars.next() != Some('"') {
            return Err(format!("label {key:?}: expected ="));
        }
        let mut val = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => val.push('\\'),
                    Some('"') => val.push('"'),
                    Some('n') => val.push('\n'),
                    _ => return Err(format!("label {key:?}: bad escape")),
                },
                Some('"') => break,
                Some(c) => val.push(c),
                None => return Err(format!("label {key:?}: unterminated value")),
            }
        }
        labels.push((key.trim().to_owned(), val));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_upper_bounds_contain() {
        let mut prev = 0usize;
        for v in (0u64..4096).chain([u64::MAX / 2, u64::MAX - 1, u64::MAX]) {
            let i = LogHistogram::bucket_index(v);
            assert!(i >= prev || v < 4096, "monotone");
            if v >= 4096 {
                assert!(i >= LogHistogram::bucket_index(4095));
            }
            prev = prev.max(i);
            assert!(LogHistogram::bucket_upper(i) >= v, "upper({i}) >= {v}");
            assert!(i < NUM_BUCKETS);
            // The upper bound stays within the error bound of the value.
            let upper = LogHistogram::bucket_upper(i);
            assert!(
                (upper - v) as f64 <= MAX_RELATIVE_ERROR * v as f64 + 1e-9 || v < SUBBUCKETS as u64,
                "upper {upper} too far above {v}"
            );
        }
    }

    #[test]
    fn quantiles_are_exact_in_the_linear_region() {
        let h = LogHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(50.0), 15);
        assert_eq!(h.quantile(100.0), 31);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.count(), 32);
        assert_eq!(h.sum(), (0..32).sum::<u64>());
    }

    #[test]
    fn rate_window_reports_recent_rate_only() {
        let w = RateWindow::new(10);
        let s = RATE_SLICE_NS;
        for t in 0..10u64 {
            w.record_at(t * s + s / 2, 5);
        }
        // 50 events over a 10 s window.
        assert!((w.per_sec_at(10 * s - 1) - 5.0).abs() < 1e-9);
        // 20 s later everything has aged out.
        assert_eq!(w.per_sec_at(30 * s), 0.0);
    }

    #[test]
    fn registry_roundtrips_json_and_prometheus() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("demo_total", "demo counter", &[("model", "a")]);
        let g = reg.gauge("demo_depth", "demo gauge", &[]);
        let h = reg.histogram("demo_ns", "demo histogram", &[("model", "a")]);
        c.add(7);
        g.set(42);
        for v in [1u64, 100, 100, 5000] {
            h.record(v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("demo_total", &[("model", "a")]), Some(7));
        assert_eq!(snap.gauge("demo_depth", &[]), Some(42.0));
        let hs = snap.histogram("demo_ns", &[("model", "a")]).expect("hist");
        assert_eq!(hs.count, 4);

        // JSON round trip is lossless.
        let json = snap.to_json();
        let reparsed = Json::parse(&json.pretty()).expect("valid json");
        let back = MetricsSnapshot::from_json(&reparsed).expect("parses");
        assert_eq!(back, snap);

        // Prometheus output parses and agrees on counts.
        let prom = snap.to_prometheus();
        let lines = parse_prometheus(&prom).expect("parses");
        let find = |name: &str, labels: &[(&str, &str)]| {
            lines
                .iter()
                .find(|s| {
                    s.name == name
                        && labels.iter().all(|&(k, v)| {
                            s.labels.iter().any(|(sk, sv)| sk == k && sv == v)
                        })
                        && s.labels.len() == labels.len()
                })
                .map(|s| s.value)
        };
        assert_eq!(find("demo_total", &[("model", "a")]), Some(7.0));
        assert_eq!(find("demo_depth", &[]), Some(42.0));
        assert_eq!(
            find("demo_ns_count", &[("model", "a")]),
            Some(4.0)
        );
        assert_eq!(find("demo_ns_sum", &[("model", "a")]), Some(5201.0));
        assert_eq!(
            find("demo_ns_bucket", &[("model", "a"), ("le", "+Inf")]),
            Some(4.0)
        );

        // Idempotent re-registration returns the same underlying cell.
        let c2 = reg.counter("demo_total", "demo counter", &[("model", "a")]);
        c2.add(1);
        assert_eq!(c.get(), 8);
    }

    #[test]
    fn snapshot_since_subtracts_counters_and_histograms() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x_total", "", &[]);
        let h = reg.histogram("x_ns", "", &[]);
        c.add(3);
        h.record(10);
        let s0 = reg.snapshot();
        c.add(4);
        h.record(10);
        h.record(2000);
        let s1 = reg.snapshot();
        let d = s1.since(&s0);
        assert_eq!(d.counter("x_total", &[]), Some(4));
        let dh = d.histogram("x_ns", &[]).expect("hist");
        assert_eq!(dh.count, 2);
        assert_eq!(dh.sum, 2010);
    }
}
