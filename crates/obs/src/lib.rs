//! Zero-cost observability for the RFID inference stack: a metrics
//! registry, mergeable snapshots, a Prometheus-style text exposition,
//! and a span-style trace ring for slow epochs and slow queries.
//!
//! ## Design constraints
//!
//! The registry instruments the inference hot path, whose contracts
//! are strict: the steady-state object step performs **zero heap
//! allocations** and the emitted event stream is **bit-identical**
//! with or without instrumentation. The registry therefore separates
//! *registration* from *recording*:
//!
//! * [`Registry::counter`] / [`Registry::gauge`] /
//!   [`Registry::histogram`] take a mutex and may allocate — call them
//!   once, at construction time, and keep the returned handle;
//! * the handles ([`Counter`], [`Gauge`], [`Histogram`]) are
//!   `Arc`-shared atomics: [`Counter::add`], [`Gauge::record_max`],
//!   and [`Histogram::record`] are single relaxed atomic RMW ops —
//!   lock-free, allocation-free, and RNG-free (pinned by
//!   `rfid-core/tests/alloc_free.rs` and the golden-trace digests).
//!
//! Histograms use 64 fixed power-of-two buckets (bucket `i` covers
//! `[2^(i-1), 2^i - 1]`, bucket 0 holds zeros), so recording is a
//! `leading_zeros` and one atomic add, and merging two histograms is
//! element-wise addition — associative and commutative, which makes
//! cluster-wide aggregation order-insensitive (pinned by
//! `tests/registry_prop.rs`).
//!
//! ## Process-global surfaces
//!
//! [`global()`] is the process-wide registry every component records
//! into; a server scrapes it live via the `TELEMETRY` verb, and a
//! cluster worker ships one snapshot of it to the router after FINISH
//! (`MSG_METRICS`), where the workers' snapshots are merged into one
//! cluster-wide view. [`trace()`] is the
//! process-wide [`TraceLog`]: a fixed-capacity ring of
//! [`TraceEntry`]s recorded by threshold-gated call sites (slow
//! epochs, slow queries), dumpable via `TELEMETRY TRACE`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Fixed bucket count of every [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The bucket a value lands in: 0 for 0, else `64 - leading_zeros`
/// (clamped), so bucket `i >= 1` covers `[2^(i-1), 2^i - 1]`.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
#[inline]
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A monotonically increasing counter handle (clone = same counter).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (tests, placeholders).
    pub(crate) fn detached() -> Self {
        Self(Arc::new(AtomicU64::new(0)))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Lock-free, allocation-free hot-path increment.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last/max-value gauge handle (clone = same gauge).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not attached to any registry (tests, placeholders).
    pub(crate) fn detached() -> Self {
        Self(Arc::new(AtomicU64::new(0)))
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Ratchets the gauge upward (high-water marks).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log-scale histogram handle (clone = same histogram).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A histogram not attached to any registry (tests, placeholders).
    pub(crate) fn detached() -> Self {
        Self(Arc::new(HistogramCore::new()))
    }

    /// Lock-free, allocation-free hot-path recording: one
    /// `leading_zeros` and three relaxed atomic adds.
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &*self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of every recorded value — for stage timers this is the
    /// exact same `u64` total the legacy stat structs accumulate.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        // load count before the buckets: a racing `record` then at
        // worst shows in a bucket but not in `count`, never the
        // reverse, keeping `count <= sum(buckets)` violations out
        let count = self.0.count.load(Ordering::Relaxed);
        let sum = self.0.sum.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count,
            sum,
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics. Registration (the `counter` /
/// `gauge` / `histogram` getters) takes a mutex and is idempotent:
/// the same name always resolves to the same underlying metric, so
/// components constructed at different times share handles.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or fetches) the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().expect("registry poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::detached()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Registers (or fetches) the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().expect("registry poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::detached()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Registers (or fetches) the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().expect("registry poisoned");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::detached()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock().expect("registry poisoned");
        Snapshot {
            entries: m
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => Value::Counter(c.get()),
                        Metric::Gauge(g) => Value::Gauge(g.get()),
                        Metric::Histogram(h) => Value::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// The process-global registry (every component records here).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The process-global trace ring (slow epochs, slow queries).
pub fn trace() -> &'static TraceLog {
    static TRACE: OnceLock<TraceLog> = OnceLock::new();
    TRACE.get_or_init(TraceLog::new)
}

// ---------------------------------------------------------------------
// snapshots
// ---------------------------------------------------------------------

/// One metric's value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Counter(u64),
    Gauge(u64),
    Histogram(HistogramSnapshot),
}

/// A frozen histogram: per-bucket counts plus total count and sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `HISTOGRAM_BUCKETS` per-bucket counts (not cumulative).
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Element-wise addition — associative and commutative.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The `q`-quantile estimate (`0.0..=1.0`): the inclusive upper
    /// bound of the bucket holding the rank-`ceil(q*count)` value, so
    /// the estimate `e` of a true quantile `v >= 1` satisfies
    /// `v <= e < 2v` (one power-of-two bucket of slack). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time, name-sorted copy of a registry's metrics.
/// Snapshots are plain data: they merge (cluster aggregation), diff
/// (per-run deltas), and render (text exposition) without touching
/// any live registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Sorted by name, names unique.
    entries: Vec<(String, Value)>,
}

impl Snapshot {
    /// Builds a snapshot from raw entries (wire decode); sorts by
    /// name and keeps the first of any duplicated name.
    pub fn from_entries(mut entries: Vec<(String, Value)>) -> Self {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|b, a| a.0 == b.0);
        Self { entries }
    }

    pub fn entries(&self) -> &[(String, Value)] {
        &self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Counter value by name (0 when absent or of another kind).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Value::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value by name (0 when absent or of another kind).
    pub fn gauge(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Value::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram by name (`None` when absent or of another kind).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.get(name) {
            Some(Value::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Merges `other` into `self`, name by name: counters and
    /// histogram buckets add, gauges take the max — every rule
    /// associative and commutative, so a cluster-wide merge gives one
    /// answer regardless of arrival order. Names only in `other` are
    /// inserted; a name registered with different kinds on different
    /// peers keeps `self`'s value.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, theirs) in &other.entries {
            match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                Ok(i) => match (&mut self.entries[i].1, theirs) {
                    (Value::Counter(a), Value::Counter(b)) => *a += b,
                    (Value::Gauge(a), Value::Gauge(b)) => *a = (*a).max(*b),
                    (Value::Histogram(a), Value::Histogram(b)) => a.merge(b),
                    _ => {}
                },
                Err(i) => self.entries.insert(i, (name.clone(), theirs.clone())),
            }
        }
    }

    /// What happened between `baseline` and `self`: counters and
    /// histograms subtract (saturating — a restarted peer reads as
    /// zero progress, never as underflow), gauges keep `self`'s
    /// value. Names absent from `baseline` pass through unchanged.
    pub fn diff(&self, baseline: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .map(|(name, now)| {
                let value = match (now, baseline.get(name)) {
                    (Value::Counter(a), Some(Value::Counter(b))) => {
                        Value::Counter(a.saturating_sub(*b))
                    }
                    (Value::Histogram(a), Some(Value::Histogram(b))) => {
                        let mut h = a.clone();
                        for (x, y) in h.buckets.iter_mut().zip(&b.buckets) {
                            *x = x.saturating_sub(*y);
                        }
                        h.count = h.count.saturating_sub(b.count);
                        h.sum = h.sum.saturating_sub(b.sum);
                        Value::Histogram(h)
                    }
                    (v, _) => v.clone(),
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { entries }
    }

    /// Prometheus-style text exposition: `# TYPE` lines, scalar
    /// samples, and cumulative `_bucket{le="…"}` / `_sum` / `_count`
    /// series for histograms (empty buckets are elided; `+Inf` is
    /// always present).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                Value::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
                }
                Value::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
                }
                Value::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cum = 0u64;
                    for (i, b) in h.buckets.iter().enumerate() {
                        if *b == 0 {
                            continue;
                        }
                        cum += b;
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{le=\"{}\"}} {cum}",
                            bucket_upper_bound(i)
                        );
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                    let _ = writeln!(out, "{name}_sum {}", h.sum);
                    let _ = writeln!(out, "{name}_count {}", h.count);
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// stage tracing
// ---------------------------------------------------------------------

/// One trace-ring entry. Labels are `&'static str` so recording never
/// allocates; `detail` carries up to three label-specific values (for
/// `slow_epoch`: the ingest/infer/emit stage micros).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// What kind of span this is (`"slow_epoch"`, `"slow_query"`).
    pub label: &'static str,
    /// Label-specific detail (the query verb, the pipeline stage).
    pub what: &'static str,
    /// Epoch the span covered (0 when not epoch-scoped).
    pub epoch: u64,
    /// Connection id (0 when not connection-scoped).
    pub conn: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Label-specific breakdown values.
    pub detail: [u64; 3],
}

impl TraceEntry {
    /// An entry with only a label and duration; set the rest by field.
    pub fn new(label: &'static str, dur_us: u64) -> Self {
        Self {
            label,
            what: "",
            epoch: 0,
            conn: 0,
            dur_us,
            detail: [0; 3],
        }
    }

    /// One exposition line (the `TELEMETRY TRACE` format).
    pub fn render(&self) -> String {
        format!(
            "{} what={} epoch={} conn={} dur_us={} detail={}/{}/{}",
            self.label,
            if self.what.is_empty() { "-" } else { self.what },
            self.epoch,
            self.conn,
            self.dur_us,
            self.detail[0],
            self.detail[1],
            self.detail[2],
        )
    }
}

struct TraceRing {
    /// Preallocated to [`TraceLog::CAPACITY`]; once full, `next`
    /// wraps and old entries are overwritten.
    buf: Vec<TraceEntry>,
    next: usize,
}

/// A fixed-capacity ring of [`TraceEntry`]s plus the shared
/// slow-epoch threshold. Recording takes a mutex but never allocates
/// (the ring is preallocated), and call sites are threshold-gated, so
/// the steady-state cost is one relaxed atomic load per epoch.
pub struct TraceLog {
    ring: Mutex<TraceRing>,
    /// Epochs slower than this (µs) are recorded; 0 disables.
    slow_epoch_us: AtomicU64,
    dropped: AtomicU64,
}

impl TraceLog {
    /// Entries retained before the ring overwrites the oldest.
    pub(crate) const CAPACITY: usize = 256;

    pub fn new() -> Self {
        Self {
            ring: Mutex::new(TraceRing {
                buf: Vec::with_capacity(Self::CAPACITY),
                next: 0,
            }),
            slow_epoch_us: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The slow-epoch sampling threshold in µs (0 = disabled).
    #[inline]
    pub fn slow_epoch_us(&self) -> u64 {
        self.slow_epoch_us.load(Ordering::Relaxed)
    }

    /// Sets the slow-epoch sampling threshold (0 disables).
    pub fn set_slow_epoch_us(&self, v: u64) {
        self.slow_epoch_us.store(v, Ordering::Relaxed);
    }

    /// Appends one entry, overwriting the oldest once full.
    pub fn record(&self, entry: TraceEntry) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.buf.len() < Self::CAPACITY {
            ring.buf.push(entry);
        } else {
            let i = ring.next;
            ring.buf[i] = entry;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.next = (ring.next + 1) % Self::CAPACITY;
    }

    /// Entries overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> Vec<TraceEntry> {
        let ring = self.ring.lock().expect("trace ring poisoned");
        if ring.buf.len() < Self::CAPACITY {
            ring.buf.clone()
        } else {
            let mut out = Vec::with_capacity(Self::CAPACITY);
            out.extend_from_slice(&ring.buf[ring.next..]);
            out.extend_from_slice(&ring.buf[..ring.next]);
            out
        }
    }

    /// One line per retained entry, oldest first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.entries() {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }

    /// Empties the ring (tests, post-dump resets).
    pub fn clear(&self) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        ring.buf.clear();
        ring.next = 0;
    }
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // every value lands in the bucket whose bound brackets it
        for v in [0u64, 1, 2, 7, 100, 4096, 1 << 40] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i));
            if i > 0 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn registry_handles_share_state_and_snapshot() {
        let reg = Registry::new();
        let c1 = reg.counter("requests_total");
        let c2 = reg.counter("requests_total");
        c1.add(3);
        c2.inc();
        assert_eq!(c1.get(), 4);
        let g = reg.gauge("queue_depth");
        g.set(7);
        g.record_max(3); // below current: no-op
        assert_eq!(g.get(), 7);
        let h = reg.histogram("latency_us");
        h.record(100);
        h.record(300);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("requests_total"), 4);
        assert_eq!(snap.gauge("queue_depth"), 7);
        let hist = snap.histogram("latency_us").expect("histogram present");
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 400);
        // snapshot entries are name-sorted
        let names: Vec<&str> = snap.entries().iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let a = Registry::new();
        a.counter("n").add(2);
        a.gauge("hw").set(5);
        a.histogram("h").record(10);
        let b = Registry::new();
        b.counter("n").add(3);
        b.gauge("hw").set(4);
        b.histogram("h").record(1000);
        b.counter("only_b").inc();
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("n"), 5);
        assert_eq!(m.gauge("hw"), 5);
        assert_eq!(m.counter("only_b"), 1);
        let h = m.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1010);
    }

    #[test]
    fn diff_isolates_a_run() {
        let reg = Registry::new();
        let c = reg.counter("events");
        let h = reg.histogram("us");
        c.add(10);
        h.record(50);
        let before = reg.snapshot();
        c.add(7);
        h.record(200);
        let delta = reg.snapshot().diff(&before);
        assert_eq!(delta.counter("events"), 7);
        let hd = delta.histogram("us").unwrap();
        assert_eq!(hd.count, 1);
        assert_eq!(hd.sum, 200);
    }

    #[test]
    fn quantiles_return_bucket_upper_bounds() {
        let s = {
            let r = Registry::new();
            let rh = r.histogram("h");
            for v in [1u64, 2, 3, 100] {
                rh.record(v);
            }
            r.snapshot()
        };
        let hs = s.histogram("h").unwrap();
        // rank 1 of 4 -> value 1 -> bucket 1 (bound 1)
        assert_eq!(hs.quantile(0.25), 1);
        // rank 4 of 4 -> value 100 -> bucket 7 (bound 127)
        assert_eq!(hs.quantile(1.0), 127);
        assert_eq!(hs.quantile(0.0), 1, "q=0 clamps to the first rank");
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn exposition_renders_all_three_kinds() {
        let reg = Registry::new();
        reg.counter("a_total").add(2);
        reg.gauge("b_depth").set(9);
        let h = reg.histogram("c_us");
        h.record(0);
        h.record(3);
        let text = reg.snapshot().render();
        assert!(text.contains("# TYPE a_total counter\na_total 2\n"));
        assert!(text.contains("# TYPE b_depth gauge\nb_depth 9\n"));
        assert!(text.contains("# TYPE c_us histogram\n"));
        assert!(text.contains("c_us_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("c_us_bucket{le=\"3\"} 2\n"), "{text}");
        assert!(text.contains("c_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("c_us_sum 3\n"));
        assert!(text.contains("c_us_count 2\n"));
    }

    #[test]
    fn trace_ring_wraps_and_orders_oldest_first() {
        let log = TraceLog::new();
        assert_eq!(log.slow_epoch_us(), 0, "sampling is off by default");
        log.set_slow_epoch_us(500);
        assert_eq!(log.slow_epoch_us(), 500);
        for i in 0..TraceLog::CAPACITY as u64 + 10 {
            let mut e = TraceEntry::new("slow_epoch", i);
            e.epoch = i;
            log.record(e);
        }
        let entries = log.entries();
        assert_eq!(entries.len(), TraceLog::CAPACITY);
        assert_eq!(entries[0].epoch, 10, "the 10 oldest were overwritten");
        assert_eq!(entries.last().unwrap().epoch, TraceLog::CAPACITY as u64 + 9);
        assert_eq!(log.dropped(), 10);
        let text = log.render();
        assert!(text.lines().count() == TraceLog::CAPACITY);
        assert!(text.starts_with("slow_epoch what=- epoch=10"));
        log.clear();
        assert!(log.entries().is_empty());
    }

    #[test]
    fn global_registry_and_trace_are_singletons() {
        let c = global().counter("obs_selftest_total");
        c.inc();
        assert_eq!(global().snapshot().counter("obs_selftest_total"), 1);
        trace().record(TraceEntry::new("selftest", 1));
        assert!(trace().entries().iter().any(|e| e.label == "selftest"));
    }
}
