//! Sliding-window ("live") metrics: ring-of-buckets counters and
//! histograms that answer *what is the process doing now*, alongside the
//! cumulative-since-start registry in [`crate::metrics`].
//!
//! A cumulative counter can say a server handled 40 million requests; it
//! cannot say whether the current requests-per-second is 12 or 12,000,
//! and a cumulative latency histogram buries a saturation spike under
//! hours of healthy history. Windowed metrics keep the last
//! [`RING_SLOTS`] one-second slots in a ring: recording lands in the slot
//! for the current second (lazily recycling slots as the clock advances),
//! and a query merges the slots inside the requested window — 10 s for a
//! twitchy live view, 60 s for a steadier one.
//!
//! ## Design
//!
//! Same atomic-ladder design as the cumulative registry: recording is
//! lock-free (relaxed atomics behind the per-call-site
//! [`crate::metrics::Cached`] handle), the `off` feature compiles the
//! macros out entirely. Slot recycling is a tag CAS: the first recorder to
//! touch a slot in a new second claims it and zeroes the contents.
//! Observations racing with that zeroing in the same wall-clock
//! microsecond can be lost; like the cumulative histogram's float-sum
//! ordering, this is a documented tolerance — metrics, not math.
//!
//! ## Using it
//!
//! ```
//! wb_obs::window_counter!("serve.requests");
//! wb_obs::window_histogram!("serve.request.latency_us", 1234.5);
//! let live = wb_obs::window::snapshot();
//! if let Some(c) = live.counters.get("serve.requests") {
//!     let _rps = c.rate_10s;
//! }
//! ```

use crate::metrics::{default_buckets, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// One-second slots kept per windowed metric. 64 slots cover the 60 s
/// window with slack for the ring's wrap-around second.
pub const RING_SLOTS: usize = 64;

/// The two windows every snapshot reports, in seconds.
pub const WINDOWS_SECS: [u64; 2] = [10, 60];

/// A slot tag meaning "never written".
const EMPTY: u64 = u64::MAX;

/// Seconds since the process-wide monotonic epoch (pinned on first use).
///
/// Read from a coarse cache, not the clock: a recording hit must stay
/// within 2× of a plain cumulative counter bump (the `obs_overhead`
/// workload of `wb bench`), and a `clock_gettime` per hit alone would
/// blow that budget. A ticker thread — spawned lazily on the first
/// windowed recording — refreshes the cache every 250 ms, so a recording
/// can land in the slot of the just-elapsed second. That skew is far inside the sub-second
/// loss tolerance slot recycling already documents. If the ticker thread
/// cannot be spawned, every caller falls back to reading the clock.
fn now_sec() -> u64 {
    if COARSE_TICKING.load(Ordering::Relaxed) {
        COARSE_SEC.load(Ordering::Relaxed)
    } else {
        epoch().elapsed().as_secs()
    }
}

static COARSE_SEC: AtomicU64 = AtomicU64::new(0);
static COARSE_TICKING: AtomicBool = AtomicBool::new(false);

/// Starts the coarse-clock ticker (idempotent). Called at metric
/// *registration* — once per call site, via [`crate::metrics::Cached`] —
/// so the recording path itself never pays an init check. Metrics
/// constructed directly (tests) simply stay on the fallback clock.
fn start_coarse_clock() {
    static START: OnceLock<()> = OnceLock::new();
    START.get_or_init(|| {
        COARSE_SEC.store(epoch().elapsed().as_secs(), Ordering::Relaxed);
        let spawned = std::thread::Builder::new()
            .name("wb-obs-window-clock".into())
            .spawn(|| loop {
                std::thread::sleep(std::time::Duration::from_millis(250));
                COARSE_SEC.store(epoch().elapsed().as_secs(), Ordering::Relaxed);
            })
            .is_ok();
        COARSE_TICKING.store(spawned, Ordering::Relaxed);
    });
}

/// The process observability epoch: the monotonic instant window slots
/// and [`crate::metrics::Snapshot::uptime_ms`] are phased against,
/// pinned on first use. Long-running entry points (the CLI, the server)
/// touch it at startup so uptime counts from process start rather than
/// from the first recorded metric.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Claims `slot_tag` for second `sec`; returns `true` when this caller
/// won the claim and must zero the slot before recording.
fn claim(slot_tag: &AtomicU64, sec: u64) -> bool {
    let cur = slot_tag.load(Ordering::Relaxed);
    if cur == sec {
        return false;
    }
    slot_tag.compare_exchange(cur, sec, Ordering::Relaxed, Ordering::Relaxed).is_ok()
}

/// A counter that knows its recent history: one [`AtomicU64`] per
/// one-second slot plus a cumulative total.
#[derive(Debug)]
pub struct WindowCounter {
    tags: Vec<AtomicU64>,
    values: Vec<AtomicU64>,
    /// Counts retired (recycled) slots only; live slots are summed in at
    /// query time. Keeping the hot path to a single `fetch_add` is worth
    /// the 64-slot walk on the (rare) read side.
    total: AtomicU64,
}

impl Default for WindowCounter {
    fn default() -> Self {
        WindowCounter {
            tags: (0..RING_SLOTS).map(|_| AtomicU64::new(EMPTY)).collect(),
            values: (0..RING_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
        }
    }
}

impl WindowCounter {
    /// Adds `n` to the current second's slot. The claim winner folds the
    /// recycled slot's old value into the retired total, so the steady
    /// state is one tag check plus one `fetch_add`.
    #[inline]
    pub fn add(&self, n: u64) {
        let sec = now_sec();
        let idx = (sec % RING_SLOTS as u64) as usize;
        if claim(&self.tags[idx], sec) {
            let retired = self.values[idx].swap(0, Ordering::Relaxed);
            self.total.fetch_add(retired, Ordering::Relaxed);
        }
        self.values[idx].fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of the slots inside the trailing `window_secs` window
    /// (including the current, partial second).
    pub fn sum(&self, window_secs: u64) -> u64 {
        let now = now_sec();
        let lo = now.saturating_sub(window_secs.saturating_sub(1).min(RING_SLOTS as u64 - 1));
        let mut sum = 0;
        for (tag, value) in self.tags.iter().zip(&self.values) {
            let t = tag.load(Ordering::Relaxed);
            if t != EMPTY && t >= lo && t <= now {
                sum += value.load(Ordering::Relaxed);
            }
        }
        sum
    }

    /// Cumulative total since process start (unwindowed): the retired
    /// total plus every live slot. Racing a recycle can transiently shift
    /// a slot's worth of counts — the usual sub-second tolerance.
    pub fn total(&self) -> u64 {
        let mut t = self.total.load(Ordering::Relaxed);
        for (tag, value) in self.tags.iter().zip(&self.values) {
            if tag.load(Ordering::Relaxed) != EMPTY {
                t += value.load(Ordering::Relaxed);
            }
        }
        t
    }
}

/// One second of histogram state: bucket counts, count, sum, min, max.
#[derive(Debug)]
struct HistSlot {
    tag: AtomicU64,
    /// One slot per bound, plus a trailing overflow slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl HistSlot {
    fn new(n_buckets: usize) -> Self {
        HistSlot {
            tag: AtomicU64::new(EMPTY),
            buckets: (0..n_buckets).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    fn zero(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits.store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits.store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram over the trailing ring of one-second slots.
/// Buckets follow the same 1–2–5 ladder as the cumulative
/// [`crate::metrics::Histogram`], so windowed and cumulative quantiles
/// are comparable estimates.
#[derive(Debug)]
pub struct WindowHistogram {
    bounds: Vec<f64>,
    slots: Vec<HistSlot>,
}

impl Default for WindowHistogram {
    fn default() -> Self {
        let bounds = default_buckets();
        let slots = (0..RING_SLOTS).map(|_| HistSlot::new(bounds.len() + 1)).collect();
        WindowHistogram { bounds, slots }
    }
}

impl WindowHistogram {
    /// Records one observation into the current second's slot.
    #[inline]
    pub fn observe(&self, v: f64) {
        let sec = now_sec();
        let slot = &self.slots[(sec % RING_SLOTS as u64) as usize];
        if claim(&slot.tag, sec) {
            slot.zero();
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        slot.buckets[idx].fetch_add(1, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&slot.sum_bits, v);
        atomic_f64_extreme(&slot.min_bits, v, |new, cur| new < cur);
        atomic_f64_extreme(&slot.max_bits, v, |new, cur| new > cur);
    }

    /// Merges the slots inside the trailing `window_secs` window into one
    /// [`HistogramSnapshot`] (same shape as the cumulative registry's, so
    /// quantile estimation is shared).
    pub fn snapshot(&self, window_secs: u64) -> HistogramSnapshot {
        let now = now_sec();
        let lo = now.saturating_sub(window_secs.saturating_sub(1).min(RING_SLOTS as u64 - 1));
        let mut merged = vec![0u64; self.bounds.len() + 1];
        let mut count = 0u64;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for slot in &self.slots {
            let t = slot.tag.load(Ordering::Relaxed);
            if t == EMPTY || t < lo || t > now {
                continue;
            }
            for (m, b) in merged.iter_mut().zip(&slot.buckets) {
                *m += b.load(Ordering::Relaxed);
            }
            count += slot.count.load(Ordering::Relaxed);
            sum += f64::from_bits(slot.sum_bits.load(Ordering::Relaxed));
            min = min.min(f64::from_bits(slot.min_bits.load(Ordering::Relaxed)));
            max = max.max(f64::from_bits(slot.max_bits.load(Ordering::Relaxed)));
        }
        let buckets = merged
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (self.bounds.get(i).copied().unwrap_or(f64::MAX), n))
            .collect();
        HistogramSnapshot {
            count,
            sum,
            min: (count > 0).then_some(min),
            max: (count > 0).then_some(max),
            buckets,
        }
    }
}

// The same CAS float helpers as metrics.rs, local so the windowed path
// never reaches into that module's private internals.
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

/// The process-global windowed-metric store, parallel to
/// [`crate::metrics::Registry`].
#[derive(Default)]
pub struct WindowRegistry {
    counters: RwLock<BTreeMap<String, Arc<WindowCounter>>>,
    histograms: RwLock<BTreeMap<String, Arc<WindowHistogram>>>,
}

fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = map.read().unwrap().get(name) {
        return Arc::clone(m);
    }
    let mut w = map.write().unwrap();
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl WindowRegistry {
    /// The windowed counter registered under `name`.
    pub fn counter(&self, name: &str) -> Arc<WindowCounter> {
        get_or_insert(&self.counters, name)
    }

    /// The windowed histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Arc<WindowHistogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Drops every registered windowed metric (tests only; cached macro
    /// handles keep recording into the detached metrics).
    pub fn reset(&self) {
        self.counters.write().unwrap().clear();
        self.histograms.write().unwrap().clear();
    }
}

/// The global windowed registry.
pub fn registry() -> &'static WindowRegistry {
    static REGISTRY: OnceLock<WindowRegistry> = OnceLock::new();
    REGISTRY.get_or_init(WindowRegistry::default)
}

impl crate::metrics::Registered for WindowCounter {
    fn register(name: &str) -> Arc<Self> {
        start_coarse_clock();
        registry().counter(name)
    }
}

impl crate::metrics::Registered for WindowHistogram {
    fn register(name: &str) -> Arc<Self> {
        start_coarse_clock();
        registry().histogram(name)
    }
}

/// One windowed counter, frozen: totals and per-second rates over the
/// standard windows plus the cumulative total.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowCounterSnapshot {
    /// Events inside the trailing 10 s window.
    pub sum_10s: u64,
    /// Events inside the trailing 60 s window.
    pub sum_60s: u64,
    /// `sum_10s / 10` — the live per-second rate.
    pub rate_10s: f64,
    /// `sum_60s / 60` — the steadier per-second rate.
    pub rate_60s: f64,
    /// Cumulative total since process start.
    pub total: u64,
}

/// One windowed histogram, frozen over both standard windows.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowHistogramSnapshot {
    /// The trailing 10 s window.
    pub w10s: HistogramSnapshot,
    /// The trailing 60 s window.
    pub w60s: HistogramSnapshot,
}

/// Everything in the windowed registry at one moment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowSnapshot {
    /// Windowed counters by name.
    pub counters: BTreeMap<String, WindowCounterSnapshot>,
    /// Windowed histograms by name.
    pub histograms: BTreeMap<String, WindowHistogramSnapshot>,
}

/// Freezes the global windowed registry over the standard 10 s / 60 s
/// windows.
pub fn snapshot() -> WindowSnapshot {
    let r = registry();
    let mut s = WindowSnapshot::default();
    for (name, c) in r.counters.read().unwrap().iter() {
        let (sum_10s, sum_60s) = (c.sum(WINDOWS_SECS[0]), c.sum(WINDOWS_SECS[1]));
        s.counters.insert(
            name.clone(),
            WindowCounterSnapshot {
                sum_10s,
                sum_60s,
                rate_10s: sum_10s as f64 / WINDOWS_SECS[0] as f64,
                rate_60s: sum_60s as f64 / WINDOWS_SECS[1] as f64,
                total: c.total(),
            },
        );
    }
    for (name, h) in r.histograms.read().unwrap().iter() {
        s.histograms.insert(
            name.clone(),
            WindowHistogramSnapshot {
                w10s: h.snapshot(WINDOWS_SECS[0]),
                w60s: h.snapshot(WINDOWS_SECS[1]),
            },
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_counter_counts_and_rates() {
        let c = WindowCounter::default();
        c.add(3);
        c.add(4);
        assert_eq!(c.sum(10), 7);
        assert_eq!(c.sum(60), 7);
        assert_eq!(c.total(), 7);
    }

    #[test]
    fn old_slots_age_out_of_the_window() {
        let c = WindowCounter::default();
        // Fake an old slot: claim a slot as if written RING_SLOTS+5
        // seconds ago relative to "now".
        let now = now_sec();
        let old = now.saturating_sub(61);
        let idx = (old % RING_SLOTS as u64) as usize;
        c.tags[idx].store(old, Ordering::Relaxed);
        c.values[idx].store(100, Ordering::Relaxed);
        c.add(1);
        // The stale slot is outside both windows (when now >= 61), but
        // still in the cumulative total.
        if now >= 61 {
            assert_eq!(c.sum(10), 1);
            assert_eq!(c.sum(60), 1);
        }
        assert_eq!(c.total(), 101);
    }

    #[test]
    fn slot_recycling_zeroes_before_recording() {
        let c = WindowCounter::default();
        let now = now_sec();
        let idx = (now % RING_SLOTS as u64) as usize;
        // Plant a stale tag + value in the slot "now" maps onto, as if the
        // ring wrapped: the first add in the new second must zero it.
        c.tags[idx].store(now.wrapping_sub(RING_SLOTS as u64), Ordering::Relaxed);
        c.values[idx].store(999, Ordering::Relaxed);
        c.add(2);
        // Unless the clock rolled to a new second mid-test (rare, retry
        // tolerant): the slot holds exactly the fresh adds.
        let v = c.values[(now_sec() % RING_SLOTS as u64) as usize].load(Ordering::Relaxed);
        assert!(v <= 2, "stale slot value must be zeroed, got {v}");
    }

    #[test]
    fn window_histogram_merges_slots_into_a_snapshot() {
        let h = WindowHistogram::default();
        for v in [1.0, 2.0, 1000.0] {
            h.observe(v);
        }
        let s = h.snapshot(10);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, Some(1.0));
        assert_eq!(s.max, Some(1000.0));
        assert!((s.sum - 1003.0).abs() < 1e-9);
        assert!(s.quantile(0.5).is_some());
        let total: u64 = s.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn empty_window_histogram_is_empty() {
        let h = WindowHistogram::default();
        let s = h.snapshot(10);
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.99), None);
    }

    #[test]
    fn concurrent_window_counter_is_exact_within_a_second() {
        use rayon::prelude::*;
        let c = WindowCounter::default();
        let items: Vec<u64> = (0..10_000).collect();
        items.par_iter().for_each(|_| c.add(1));
        // All adds land within the test's couple of seconds, so both the
        // 10s window and the cumulative total see every one (slot
        // recycling cannot fire: the ring is 64s deep).
        assert_eq!(c.total(), 10_000);
        assert_eq!(c.sum(10), 10_000);
    }

    #[test]
    fn macros_record_through_the_global_registry() {
        crate::window_counter!("test.window.macro_counter", 5);
        crate::window_histogram!("test.window.macro_hist", 2.5);
        let s = snapshot();
        assert!(s.counters["test.window.macro_counter"].total >= 5);
        assert!(s.histograms["test.window.macro_hist"].w60s.count >= 1);
    }
}
