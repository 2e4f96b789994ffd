//! The global metrics registry: counters, gauges and fixed-bucket
//! histograms.
//!
//! Registration takes a short write lock; recording is lock-free — the
//! `counter!`/`gauge!`/`histogram!` macros cache the registered handle in
//! a per-call-site static, so the steady-state hot path is one atomic
//! load of the enabled flag plus one relaxed atomic RMW. Counter
//! increments are exact under any interleaving ([`Counter::add`] is a
//! `fetch_add`); histogram bucket counts are exact too, while the running
//! `sum` is a CAS loop whose float addition order depends on thread
//! interleaving (documented tolerance: metrics, not math).

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` (exact under concurrency).
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins instantaneous measurement.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raises the gauge to `v` only if `v` exceeds the current value — a
    /// high-watermark update, exact under concurrency (CAS loop). Callers
    /// re-arm a watermark by [`Gauge::set`]ting it back to zero.
    #[inline]
    pub fn set_max(&self, v: f64) {
        atomic_f64_extreme(&self.bits, v, |new, cur| new > cur);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Default histogram bucket upper bounds: a 1–2–5 ladder per decade from
/// `1e-6` to `1e9`, wide enough for losses, gradient norms and
/// microsecond timings alike. Values above the last bound land in an
/// overflow bucket.
pub fn default_buckets() -> Vec<f64> {
    let mut bounds = Vec::with_capacity(48);
    for exp in -6i32..=9 {
        for m in [1.0f64, 2.0, 5.0] {
            bounds.push(m * 10f64.powi(exp));
        }
    }
    bounds
}

/// A fixed-bucket histogram with exact per-bucket counts plus running
/// count/sum/min/max.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per bound, plus a trailing overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bucket bounds must be increasing");
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one observation. A value `v` lands in the first bucket
    /// whose upper bound satisfies `v <= bound` (bounds are inclusive
    /// upper edges), or in the overflow bucket past the last bound.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
        atomic_f64_extreme(&self.min_bits, v, |new, cur| new < cur);
        atomic_f64_extreme(&self.max_bits, v, |new, cur| new > cur);
    }

    /// Freezes the histogram into a snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let mut buckets = Vec::new();
        for (i, slot) in self.buckets.iter().enumerate() {
            let n = slot.load(Ordering::Relaxed);
            if n > 0 {
                // The overflow slot is reported with an infinite edge,
                // rendered as the largest finite f64 so JSON stays valid.
                let le = self.bounds.get(i).copied().unwrap_or(f64::MAX);
                buckets.push((le, n));
            }
        }
        HistogramSnapshot {
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: (count > 0).then(|| f64::from_bits(self.min_bits.load(Ordering::Relaxed))),
            max: (count > 0).then(|| f64::from_bits(self.max_bits.load(Ordering::Relaxed))),
            buckets,
        }
    }
}

fn atomic_f64_add(bits: &AtomicU64, v: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

fn atomic_f64_extreme(bits: &AtomicU64, v: f64, wins: impl Fn(f64, f64) -> bool) {
    let mut cur = bits.load(Ordering::Relaxed);
    while wins(v, f64::from_bits(cur)) {
        match bits.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

/// Aggregated wall-clock time of one span nesting path.
#[derive(Debug, Default)]
pub struct SpanStat {
    /// Number of completed spans at this path.
    pub count: AtomicU64,
    /// Total nanoseconds including children.
    pub total_ns: AtomicU64,
    /// Nanoseconds excluding time attributed to same-thread child spans.
    pub self_ns: AtomicU64,
    /// Heap bytes requested while this span (and not a child) was the
    /// active frame. Zero unless the binary installs
    /// [`crate::alloc::Counting`] and arms tracking.
    pub alloc_bytes: AtomicU64,
    /// Allocation events attributed the same way.
    pub alloc_count: AtomicU64,
}

impl SpanStat {
    /// Records one completed span with its self-attributed allocations.
    pub fn record(&self, total_ns: u64, self_ns: u64, alloc_bytes: u64, alloc_count: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(total_ns, Ordering::Relaxed);
        self.self_ns.fetch_add(self_ns, Ordering::Relaxed);
        if alloc_bytes > 0 {
            self.alloc_bytes.fetch_add(alloc_bytes, Ordering::Relaxed);
        }
        if alloc_count > 0 {
            self.alloc_count.fetch_add(alloc_count, Ordering::Relaxed);
        }
    }
}

/// The process-global metric store.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    spans: RwLock<BTreeMap<String, Arc<SpanStat>>>,
}

fn get_or_insert<T>(
    map: &RwLock<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    if let Some(m) = map.read().unwrap().get(name) {
        return Arc::clone(m);
    }
    let mut w = map.write().unwrap();
    Arc::clone(w.entry(name.to_string()).or_insert_with(|| Arc::new(make())))
}

impl Registry {
    /// The counter registered under `name` (creating it on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name, Counter::default)
    }

    /// The gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name, Gauge::default)
    }

    /// The histogram registered under `name`, with [`default_buckets`].
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name, || Histogram::new(default_buckets()))
    }

    /// The histogram registered under `name`, created with explicit
    /// bucket upper bounds if it does not exist yet (an existing
    /// histogram keeps its original buckets).
    pub fn histogram_with(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name, || Histogram::new(bounds.to_vec()))
    }

    /// The span aggregate registered under a `/`-joined nesting path.
    pub fn span_stat(&self, path: &str) -> Arc<SpanStat> {
        get_or_insert(&self.spans, path, SpanStat::default)
    }

    /// Drops every registered metric. Only meant for tests; handles cached
    /// by macro call sites keep recording into the detached metrics, so
    /// after a reset those call sites no longer appear in snapshots.
    pub fn reset(&self) {
        self.counters.write().unwrap().clear();
        self.gauges.write().unwrap().clear();
        self.histograms.write().unwrap().clear();
        self.spans.write().unwrap().clear();
    }
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// A per-call-site cache of one registered metric handle, used by the
/// recording macros. `with` is a no-op while recording is disabled (or
/// compiled out with the `off` feature).
pub struct Cached<T> {
    #[cfg_attr(feature = "off", allow(dead_code))]
    slot: OnceLock<Arc<T>>,
}

impl<T> Default for Cached<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Cached<T> {
    /// An empty cache (const, so it can live in a macro-expanded static).
    pub const fn new() -> Self {
        Cached { slot: OnceLock::new() }
    }
}

/// Metric kinds registrable through [`Cached`].
pub trait Registered: Sized {
    /// Looks up or creates the metric under `name`.
    fn register(name: &str) -> Arc<Self>;
}

impl Registered for Counter {
    fn register(name: &str) -> Arc<Self> {
        registry().counter(name)
    }
}

impl Registered for Gauge {
    fn register(name: &str) -> Arc<Self> {
        registry().gauge(name)
    }
}

impl Registered for Histogram {
    fn register(name: &str) -> Arc<Self> {
        registry().histogram(name)
    }
}

impl<T: Registered> Cached<T> {
    /// Runs `f` on the cached metric, registering it on first use.
    #[inline]
    pub fn with(&self, name: &str, f: impl FnOnce(&T)) {
        #[cfg(feature = "off")]
        {
            let _ = (name, f);
        }
        #[cfg(not(feature = "off"))]
        f(self.slot.get_or_init(|| T::register(name)));
    }
}

/// One histogram, frozen.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (absent when `count == 0`).
    pub min: Option<f64>,
    /// Largest observation (absent when `count == 0`).
    pub max: Option<f64>,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the bucket containing the target rank.
    ///
    /// The snapshot only keeps non-empty buckets, so a bucket's lower edge
    /// is taken as the previous non-empty bucket's upper bound (or the
    /// recorded minimum for the first), and the overflow bucket's upper
    /// edge as the recorded maximum. With the default 1–2–5 ladder the
    /// estimate is therefore within one bucket span of the true value —
    /// an *estimate*, fit for dashboards and regression gates, not exact
    /// order statistics. Returns `None` for an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.quantile_marked(q).map(|(v, _)| v)
    }

    /// Like [`HistogramSnapshot::quantile`], but also reports whether the
    /// target rank landed in the open-ended overflow bucket (past the
    /// last configured bound). There the histogram has no upper edge —
    /// the estimate interpolates toward the recorded maximum, which under
    /// saturation is itself only a lower bound on the tail — so callers
    /// should present a `true` flag as an open-ended "at least" estimate
    /// (`wb report` renders it with a `>` marker).
    pub fn quantile_marked(&self, q: f64) -> Option<(f64, bool)> {
        if self.count == 0 {
            return None;
        }
        let (min, max) = (self.min?, self.max?);
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        let mut lower = min;
        for &(le, n) in &self.buckets {
            let open_ended = le == f64::MAX;
            let upper = if open_ended { max } else { le.clamp(min, max) };
            if (cum + n) as f64 >= target {
                let frac = if n == 0 { 0.0 } else { (target - cum as f64) / n as f64 };
                return Some(((lower + frac * (upper - lower)).clamp(min, max), open_ended));
            }
            cum += n;
            lower = upper;
        }
        let open_ended = self.buckets.last().is_some_and(|&(le, _)| le == f64::MAX);
        Some((max, open_ended))
    }
}

/// One span path, frozen.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanSnapshot {
    /// Completed spans at this path.
    pub count: u64,
    /// Total nanoseconds including children.
    pub total_ns: u64,
    /// Nanoseconds excluding same-thread children.
    pub self_ns: u64,
    /// Self-attributed heap bytes (`obs.alloc.*`; zero without the
    /// counting allocator).
    pub alloc_bytes: u64,
    /// Self-attributed allocation events.
    pub alloc_count: u64,
}

/// Everything in the registry at one moment, with deterministic ordering.
/// Fields are declared in JSON key order: the derived serialiser writes
/// them in declaration order, and snapshots keep their keys sorted.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span aggregates by `/`-joined nesting path.
    pub spans: BTreeMap<String, SpanSnapshot>,
    /// Milliseconds since the process observability epoch (see
    /// [`crate::window::epoch`]) at the moment the snapshot was taken.
    /// `wb report --diff` divides counter deltas by the uptime delta to
    /// derive rates. Zero in snapshots written before this field existed.
    pub uptime_ms: f64,
}

/// Freezes the global registry.
pub fn snapshot() -> Snapshot {
    let r = registry();
    let mut s = Snapshot {
        uptime_ms: crate::window::epoch().elapsed().as_secs_f64() * 1e3,
        ..Snapshot::default()
    };
    for (name, c) in r.counters.read().unwrap().iter() {
        s.counters.insert(name.clone(), c.get());
    }
    for (name, g) in r.gauges.read().unwrap().iter() {
        s.gauges.insert(name.clone(), g.get());
    }
    for (name, h) in r.histograms.read().unwrap().iter() {
        s.histograms.insert(name.clone(), h.snapshot());
    }
    let (mut alloc_bytes_sum, mut alloc_count_sum) = (0u64, 0u64);
    for (path, st) in r.spans.read().unwrap().iter() {
        let sp = SpanSnapshot {
            count: st.count.load(Ordering::Relaxed),
            total_ns: st.total_ns.load(Ordering::Relaxed),
            self_ns: st.self_ns.load(Ordering::Relaxed),
            alloc_bytes: st.alloc_bytes.load(Ordering::Relaxed),
            alloc_count: st.alloc_count.load(Ordering::Relaxed),
        };
        alloc_bytes_sum += sp.alloc_bytes;
        alloc_count_sum += sp.alloc_count;
        s.spans.insert(path.clone(), sp);
    }
    // Roll the per-span attribution up into process-wide counters so
    // dashboards see span-attributed allocator pressure without summing
    // the table themselves. Absent entirely while attribution is off.
    if alloc_count_sum > 0 {
        s.counters.insert("obs.alloc.bytes".to_string(), alloc_bytes_sum);
        s.counters.insert("obs.alloc.count".to_string(), alloc_count_sum);
    }
    s
}

impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> Value {
        let buckets: Vec<BTreeMap<String, f64>> = self
            .buckets
            .iter()
            .map(|&(le, n)| BTreeMap::from([("count".into(), n as f64), ("le".into(), le)]))
            .collect();
        let mut o = BTreeMap::from([
            ("buckets".to_string(), buckets.to_value()),
            ("count".to_string(), self.count.to_value()),
            ("sum".to_string(), self.sum.to_value()),
        ]);
        if let Some(m) = self.min {
            o.insert("min".to_string(), m.to_value());
        }
        if let Some(m) = self.max {
            o.insert("max".to_string(), m.to_value());
        }
        o.to_value()
    }
}

impl Serialize for SpanSnapshot {
    fn to_value(&self) -> Value {
        let mut o = BTreeMap::from([
            ("count".to_string(), self.count),
            ("self_ns".to_string(), self.self_ns),
            ("total_ns".to_string(), self.total_ns),
        ]);
        // Allocation attribution is opt-in; omit the fields when empty so
        // snapshots stay byte-identical with it off.
        if self.alloc_count > 0 || self.alloc_bytes > 0 {
            o.insert("alloc_bytes".to_string(), self.alloc_bytes);
            o.insert("alloc_count".to_string(), self.alloc_count);
        }
        o.to_value()
    }
}

impl Snapshot {
    /// Serialises the snapshot as deterministic JSON (sorted keys, shortest
    /// round-tripping float representation).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("a snapshot serialises")
    }

    /// Parses a snapshot previously produced by [`Snapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let entries = |key: &str| match v.get(key) {
            Some(Value::Obj(entries)) => entries.as_slice(),
            _ => &[],
        };
        let mut s = Snapshot {
            uptime_ms: v.get("uptime_ms").and_then(Value::as_f64).unwrap_or(0.0),
            ..Snapshot::default()
        };
        for (k, n) in entries("counters") {
            let n = n.as_f64().ok_or_else(|| format!("counter `{k}` is not a number"))?;
            s.counters.insert(k.clone(), n as u64);
        }
        for (k, n) in entries("gauges") {
            let n = n.as_f64().ok_or_else(|| format!("gauge `{k}` is not a number"))?;
            s.gauges.insert(k.clone(), n);
        }
        for (k, h) in entries("histograms") {
            let num = |field: &str| {
                h.get(field)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("histogram `{k}` missing `{field}`"))
            };
            let buckets = h
                .get("buckets")
                .and_then(Value::as_array)
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .map(|b| {
                    let le = b.get("le").and_then(Value::as_f64);
                    let n = b.get("count").and_then(Value::as_f64);
                    match (le, n) {
                        (Some(le), Some(n)) => Ok((le, n as u64)),
                        _ => Err(format!("histogram `{k}` has a malformed bucket")),
                    }
                })
                .collect::<Result<Vec<_>, String>>()?;
            s.histograms.insert(
                k.clone(),
                HistogramSnapshot {
                    count: num("count")? as u64,
                    sum: num("sum")?,
                    min: h.get("min").and_then(Value::as_f64),
                    max: h.get("max").and_then(Value::as_f64),
                    buckets,
                },
            );
        }
        for (k, sp) in entries("spans") {
            let num = |field: &str| {
                sp.get(field)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("span `{k}` missing `{field}`"))
            };
            let opt = |field: &str| sp.get(field).and_then(Value::as_f64).unwrap_or(0.0) as u64;
            s.spans.insert(
                k.clone(),
                SpanSnapshot {
                    count: num("count")? as u64,
                    total_ns: num("total_ns")? as u64,
                    self_ns: num("self_ns")? as u64,
                    alloc_bytes: opt("alloc_bytes"),
                    alloc_count: opt("alloc_count"),
                },
            );
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = registry().counter("test.metrics.counter_counts");
        let before = c.get();
        c.add(3);
        c.add(1);
        assert_eq!(c.get(), before + 4);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let g = registry().gauge("test.metrics.gauge");
        g.set(1.5);
        g.set(-2.0);
        assert_eq!(g.get(), -2.0);
    }

    #[test]
    fn gauge_set_max_is_a_watermark() {
        let g = registry().gauge("test.metrics.gauge_max");
        g.set(0.0);
        g.set_max(5.0);
        g.set_max(3.0);
        assert_eq!(g.get(), 5.0);
        g.set_max(9.0);
        assert_eq!(g.get(), 9.0);
        // Re-arming resets the watermark.
        g.set(0.0);
        g.set_max(1.0);
        assert_eq!(g.get(), 1.0);
    }

    #[test]
    fn concurrent_set_max_keeps_global_peak() {
        use rayon::prelude::*;
        let g = registry().gauge("test.metrics.gauge_max_conc");
        g.set(0.0);
        let items: Vec<u64> = (1..=10_000).collect();
        items.par_iter().for_each(|&i| g.set_max(i as f64));
        assert_eq!(g.get(), 10_000.0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = registry().histogram_with("test.metrics.quantile", &[10.0, 20.0, 50.0]);
        // 10 observations uniformly in (0, 10], 10 in (10, 20].
        for i in 1..=10 {
            h.observe(i as f64);
            h.observe(10.0 + i as f64);
        }
        let s = h.snapshot();
        // Median sits at the edge between the two buckets.
        let p50 = s.quantile(0.5).unwrap();
        assert!((p50 - 10.0).abs() < 1.0, "p50 = {p50}");
        // p25 falls mid-first-bucket, interpolated between min=1 and 10.
        let p25 = s.quantile(0.25).unwrap();
        assert!(p25 > 1.0 && p25 < 10.0, "p25 = {p25}");
        // Extremes clamp to observed min/max.
        assert_eq!(s.quantile(0.0).unwrap(), 1.0);
        assert_eq!(s.quantile(1.0).unwrap(), 20.0);
        // Empty histogram has no quantiles.
        let empty =
            HistogramSnapshot { count: 0, sum: 0.0, min: None, max: None, buckets: vec![] };
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn quantile_overflow_bucket_uses_max() {
        let h = registry().histogram_with("test.metrics.quantile_overflow", &[1.0]);
        h.observe(0.5);
        h.observe(100.0);
        h.observe(200.0);
        let s = h.snapshot();
        let p99 = s.quantile(0.99).unwrap();
        assert!(p99 <= 200.0 && p99 > 100.0, "p99 = {p99}");
    }

    #[test]
    fn quantile_marked_flags_open_ended_estimates() {
        let h = registry().histogram_with("test.metrics.quantile_marked", &[1.0]);
        h.observe(0.5);
        h.observe(100.0);
        h.observe(200.0);
        let s = h.snapshot();
        // p99 lands in the overflow bucket: the estimate is open-ended.
        let (p99, open) = s.quantile_marked(0.99).unwrap();
        assert!(open, "p99 in overflow must be marked open-ended");
        assert!(p99 > 100.0, "p99 = {p99}");
        // A low quantile resolved by the bounded bucket is not marked.
        let (p10, open) = s.quantile_marked(0.1).unwrap();
        assert!(!open, "p10 = {p10} should resolve in a bounded bucket");
        // A histogram whose values never overflow is never marked.
        let h2 = registry().histogram_with("test.metrics.quantile_unmarked", &[10.0, 100.0]);
        h2.observe(5.0);
        h2.observe(50.0);
        let s2 = h2.snapshot();
        assert!(!s2.quantile_marked(0.99).unwrap().1);
    }

    #[test]
    fn snapshot_records_uptime_and_roundtrips_it() {
        let s = snapshot();
        assert!(s.uptime_ms >= 0.0);
        let parsed = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed.uptime_ms, s.uptime_ms);
        // Snapshots written before the field existed parse as zero.
        let old = Snapshot::from_json(r#"{"counters":{},"gauges":{}}"#).unwrap();
        assert_eq!(old.uptime_ms, 0.0);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper_edges() {
        let h = registry().histogram_with("test.metrics.hist_bounds", &[1.0, 10.0, 100.0]);
        // Exactly on an edge lands in that bucket; just above moves on.
        for v in [0.5, 1.0, 1.0001, 10.0, 99.0, 100.0, 1e6] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.buckets, vec![(1.0, 2), (10.0, 2), (100.0, 2), (f64::MAX, 1)]);
        assert_eq!(s.min, Some(0.5));
        assert_eq!(s.max, Some(1e6));
        assert!((s.sum - (0.5 + 1.0 + 1.0001 + 10.0 + 99.0 + 100.0 + 1e6)).abs() < 1e-9);
    }

    #[test]
    fn default_buckets_are_increasing_and_cover_microseconds_to_giga() {
        let b = default_buckets();
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!(b[0] <= 1e-6 && *b.last().unwrap() >= 1e9);
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        use rayon::prelude::*;
        let c = registry().counter("test.metrics.concurrent");
        let before = c.get();
        let items: Vec<u64> = (0..10_000).collect();
        items.par_iter().for_each(|_| c.add(1));
        assert_eq!(c.get(), before + 10_000);
    }

    #[test]
    fn concurrent_histogram_counts_are_exact() {
        use rayon::prelude::*;
        let h = registry().histogram_with("test.metrics.concurrent_hist", &[10.0, 1e9]);
        let items: Vec<u64> = (0..5_000).collect();
        items.par_iter().for_each(|&i| h.observe(if i % 2 == 0 { 1.0 } else { 100.0 }));
        let s = h.snapshot();
        assert_eq!(s.count, 5_000);
        assert_eq!(s.buckets, vec![(10.0, 2_500), (1e9, 2_500)]);
        // Every observation is 1 or 100, so the CAS-summed total is exact
        // regardless of interleaving order (values are binary-exact).
        assert_eq!(s.sum, 2_500.0 * 101.0);
    }

    #[test]
    fn snapshot_json_roundtrips() {
        registry().counter("test.metrics.snap_counter").add(7);
        registry().gauge("test.metrics.snap_gauge").set(0.125);
        registry().histogram_with("test.metrics.snap_hist", &[1.0, 2.0]).observe(1.5);
        registry().span_stat("test.metrics.snap_span").record(1000, 900, 0, 0);
        registry().span_stat("test.metrics.snap_span_alloc").record(500, 400, 2048, 3);
        let s = snapshot();
        let parsed = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
        // Alloc fields round-trip when present and default to zero when
        // the snapshot predates them.
        assert_eq!(parsed.spans["test.metrics.snap_span_alloc"].alloc_bytes, 2048);
        let old =
            Snapshot::from_json(r#"{"spans":{"a":{"count":1,"total_ns":10,"self_ns":9}}}"#)
                .unwrap();
        assert_eq!(old.spans["a"].alloc_bytes, 0);
        assert_eq!(old.spans["a"].alloc_count, 0);
    }

    #[test]
    fn span_alloc_attribution_rolls_up_into_counters() {
        registry().span_stat("test.metrics.alloc_rollup").record(100, 100, 512, 2);
        let s = snapshot();
        assert!(s.counters.get("obs.alloc.bytes").copied().unwrap_or(0) >= 512);
        assert!(s.counters.get("obs.alloc.count").copied().unwrap_or(0) >= 2);
    }
}
