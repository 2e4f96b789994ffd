//! Event-level timeline tracing with Chrome-trace export.
//!
//! Where [`crate::metrics`] aggregates (how much time did `brief.encode`
//! take *in total*), tracing records *individual events* — every span
//! completion and explicit counter sample, stamped with a timestamp and
//! thread id — so a whole `brief_corpus` fan-out or a train step can be
//! inspected on a timeline in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev).
//!
//! ## Recording
//!
//! Collection is off by default. [`start`] arms it; from then on every
//! span opened through [`crate::span!`] records one *complete* event
//! (`ph: "X"` in Chrome terms: begin timestamp + duration) when its guard
//! drops, and call sites may add counter samples with [`sample`]. Events
//! land in per-thread buffers, so recording never contends across
//! threads: each thread pushes into its own buffer behind a mutex no
//! other thread touches until export. When inactive the cost at a span
//! drop is a single relaxed atomic load.
//!
//! Buffers are bounded rings ([`MAX_EVENTS_PER_THREAD`] events per
//! thread): when full, the oldest events are overwritten and counted, so
//! a runaway workload degrades the timeline instead of memory.
//!
//! ## Export
//!
//! [`export_chrome`] serialises everything recorded so far as a Chrome
//! trace format JSON object (`{"traceEvents": [...]}`); [`write_chrome`]
//! puts it in a file. The `wb` CLI exposes this as the global
//! `--trace-out FILE` option.
//!
//! Like the rest of `wb-obs`, tracing reads the clock and bumps memory —
//! it can never perturb model math, RNG draws or reduction order, so a
//! traced run's output is byte-identical to an untraced one.

use crate::window::epoch;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Ring capacity per thread; the oldest events are overwritten past this.
pub const MAX_EVENTS_PER_THREAD: usize = 1 << 16;

/// What one recorded event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A completed span (Chrome `ph: "X"`): begin + duration.
    Span,
    /// A counter sample (Chrome `ph: "C"`): instantaneous value.
    Counter,
}

/// One timeline event. Names are `&'static str` (span and sample names
/// are string literals at their call sites), so recording never allocates.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// Nanoseconds since the observability epoch ([`epoch`]), the
    /// timebase of snapshot uptimes too.
    ts_ns: u64,
    /// Span duration in nanoseconds (0 for counter samples).
    dur_ns: u64,
    /// Counter value (0.0 for spans).
    value: f64,
    name: &'static str,
    kind: Kind,
}

/// A bounded per-thread event ring.
#[derive(Debug, Default)]
struct Ring {
    events: Vec<Event>,
    /// Overwrite cursor once `events` is full.
    next: usize,
    /// Events lost to overwriting since the last [`start`].
    overwritten: u64,
}

impl Ring {
    fn push(&mut self, e: Event) {
        if self.events.len() < MAX_EVENTS_PER_THREAD {
            self.events.push(e);
        } else {
            self.events[self.next] = e;
            self.next = (self.next + 1) % MAX_EVENTS_PER_THREAD;
            self.overwritten += 1;
        }
    }

    fn clear(&mut self) {
        self.events.clear();
        self.next = 0;
        self.overwritten = 0;
    }
}

/// One thread's buffer. Only the owning thread pushes; export (and the
/// [`start`] reset) lock from outside, so the mutex is uncontended on the
/// hot path.
#[derive(Debug)]
struct ThreadBuf {
    tid: u32,
    ring: Mutex<Ring>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

fn buffers() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static BUFFERS: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    BUFFERS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static TL_BUF: Arc<ThreadBuf> = {
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            ring: Mutex::new(Ring::default()),
        });
        buffers().lock().unwrap().push(Arc::clone(&buf));
        buf
    };
}

/// Whether event collection is armed. Always `false` when compiled with
/// the `off` feature.
#[inline(always)]
pub fn active() -> bool {
    #[cfg(feature = "off")]
    {
        false
    }
    #[cfg(not(feature = "off"))]
    {
        ACTIVE.load(Ordering::Relaxed)
    }
}

/// Arms collection, clearing anything previously recorded. A no-op under
/// the `off` feature.
pub fn start() {
    if cfg!(feature = "off") {
        return;
    }
    for buf in buffers().lock().unwrap().iter() {
        buf.ring.lock().unwrap().clear();
    }
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Disarms collection. Already-recorded events stay available for export.
pub fn stop() {
    ACTIVE.store(false, Ordering::SeqCst);
}

fn push(e: Event) {
    TL_BUF.with(|buf| buf.ring.lock().unwrap().push(e));
}

/// Records a completed span. Called by the [`crate::span`] guard on drop;
/// `start` is the span's entry instant.
#[inline]
pub(crate) fn record_span(name: &'static str, start: Instant, dur_ns: u64) {
    let ts_ns = start.duration_since(epoch()).as_nanos() as u64;
    push(Event { ts_ns, dur_ns, value: 0.0, name, kind: Kind::Span });
}

/// Records a counter sample at the current instant — rendered by Chrome
/// as a stepped value track. Cheap no-op while tracing is inactive, so
/// hot paths may call it unconditionally.
#[inline]
pub fn sample(name: &'static str, value: f64) {
    if !active() {
        return;
    }
    let ts_ns = Instant::now().duration_since(epoch()).as_nanos() as u64;
    push(Event { ts_ns, dur_ns: 0, value, name, kind: Kind::Counter });
}

/// A summary of recorded events, for tests and reporting: per-name span
/// counts, per-name counter-sample counts, thread count, overwritten
/// events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Completed-span events by span name.
    pub span_counts: BTreeMap<String, u64>,
    /// Counter samples by counter name.
    pub counter_counts: BTreeMap<String, u64>,
    /// Threads that recorded at least one event.
    pub threads: usize,
    /// Events lost to ring overwriting.
    pub overwritten: u64,
}

/// Collects `(tid, event)` pairs from every thread buffer, sorted by
/// timestamp then thread id so export is deterministic for a fixed event
/// set.
fn collect() -> (Vec<(u32, Event)>, u64) {
    let mut all = Vec::new();
    let mut overwritten = 0;
    for buf in buffers().lock().unwrap().iter() {
        let ring = buf.ring.lock().unwrap();
        overwritten += ring.overwritten;
        all.extend(ring.events.iter().map(|&e| (buf.tid, e)));
    }
    all.sort_by(|a, b| (a.1.ts_ns, a.0, a.1.name).cmp(&(b.1.ts_ns, b.0, b.1.name)));
    (all, overwritten)
}

/// Summarises everything recorded so far.
pub fn summary() -> TraceSummary {
    let (events, overwritten) = collect();
    let mut s = TraceSummary { overwritten, ..TraceSummary::default() };
    let mut tids = std::collections::BTreeSet::new();
    for (tid, e) in &events {
        tids.insert(*tid);
        let map = match e.kind {
            Kind::Span => &mut s.span_counts,
            Kind::Counter => &mut s.counter_counts,
        };
        *map.entry(e.name.to_string()).or_insert(0) += 1;
    }
    s.threads = tids.len();
    s
}

/// Serialises everything recorded so far as a Chrome trace format JSON
/// object: a `traceEvents` array of complete (`ph: "X"`) and counter
/// (`ph: "C"`) events with `pid`/`tid`/`ts` (microseconds) fields, loadable
/// by `chrome://tracing` and Perfetto.
pub fn export_chrome() -> String {
    let (events, overwritten) = collect();
    let trace_events: Vec<Value> = events
        .iter()
        .map(|&(tid, e)| {
            let mut o = BTreeMap::from([
                ("cat".to_string(), "wb".to_value()),
                ("name".to_string(), e.name.to_value()),
                ("pid".to_string(), Value::Num(1.0)),
                ("tid".to_string(), tid.to_value()),
                ("ts".to_string(), (e.ts_ns as f64 / 1_000.0).to_value()),
            ]);
            match e.kind {
                Kind::Span => {
                    o.insert("ph".to_string(), "X".to_value());
                    o.insert("dur".to_string(), (e.dur_ns as f64 / 1_000.0).to_value());
                }
                Kind::Counter => {
                    o.insert("ph".to_string(), "C".to_value());
                    let args = BTreeMap::from([("value".to_string(), e.value)]);
                    o.insert("args".to_string(), args.to_value());
                }
            }
            Value::Obj(o.into_iter().collect())
        })
        .collect();
    let other = BTreeMap::from([("overwritten_events".to_string(), overwritten)]);
    let root = BTreeMap::from([
        ("displayTimeUnit".to_string(), "ms".to_value()),
        ("otherData".to_string(), other.to_value()),
        ("traceEvents".to_string(), Value::Arr(trace_events)),
    ]);
    serde_json::to_string(&root).expect("a trace serialises")
}

/// Writes [`export_chrome`] output to `path`.
pub fn write_chrome(path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    std::fs::write(path, export_chrome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    // Trace tests share the global ACTIVE flag and buffers with each
    // other (and spans interact with the metrics enabled flag), so they
    // serialise on the same lock the metric tests use.

    #[test]
    fn span_guard_feeds_trace_when_active() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        start();
        {
            let _s = crate::span::enter("test.trace.fed");
            std::thread::sleep(Duration::from_millis(1));
        }
        stop();
        let s = summary();
        assert_eq!(s.span_counts.get("test.trace.fed"), Some(&1));
    }

    #[test]
    fn inactive_trace_records_nothing() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        start();
        stop();
        {
            let _s = crate::span::enter("test.trace.inactive");
        }
        sample("test.trace.inactive_sample", 1.0);
        let s = summary();
        assert!(!s.span_counts.contains_key("test.trace.inactive"));
        assert!(!s.counter_counts.contains_key("test.trace.inactive_sample"));
    }

    #[test]
    fn start_clears_previous_session() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        start();
        sample("test.trace.stale", 1.0);
        stop();
        start();
        stop();
        assert!(!summary().counter_counts.contains_key("test.trace.stale"));
    }

    #[test]
    fn export_is_chrome_trace_shaped() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        start();
        {
            let _s = crate::span::enter("test.trace.export");
            std::thread::sleep(Duration::from_millis(1));
        }
        sample("test.trace.export_counter", 42.0);
        stop();
        let text = export_chrome();
        let v: Value = serde_json::from_str(&text).expect("trace JSON parses");
        let events = v.get("traceEvents").and_then(Value::as_array).expect("traceEvents array");
        let mut saw_span = false;
        let mut saw_counter = false;
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).expect("event missing ph");
            assert!(e.get("ts").and_then(Value::as_f64).is_some(), "event missing ts");
            assert!(e.get("pid").and_then(Value::as_f64).is_some(), "event missing pid");
            assert!(e.get("tid").and_then(Value::as_f64).is_some(), "event missing tid");
            match (ph, e.get("name").and_then(Value::as_str)) {
                ("X", Some("test.trace.export")) => {
                    assert!(e.get("dur").and_then(Value::as_f64).unwrap() > 0.0);
                    saw_span = true;
                }
                ("C", Some("test.trace.export_counter")) => {
                    let args = e.get("args").expect("counter args");
                    assert_eq!(args.get("value").and_then(Value::as_f64), Some(42.0));
                    saw_counter = true;
                }
                _ => {}
            }
        }
        assert!(saw_span, "span event missing from {text}");
        assert!(saw_counter, "counter event missing from {text}");
    }

    #[test]
    fn worker_threads_get_distinct_tids() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        start();
        {
            let _s = crate::span::enter("test.trace.tid_main");
        }
        std::thread::spawn(|| {
            let _s = crate::span::enter("test.trace.tid_worker");
        })
        .join()
        .unwrap();
        stop();
        let (events, _) = collect();
        let main_tid = events
            .iter()
            .find(|(_, e)| e.name == "test.trace.tid_main")
            .map(|(t, _)| *t)
            .expect("main event");
        let worker_tid = events
            .iter()
            .find(|(_, e)| e.name == "test.trace.tid_worker")
            .map(|(t, _)| *t)
            .expect("worker event");
        assert_ne!(main_tid, worker_tid);
    }

    #[test]
    fn concurrent_overflow_accounts_every_overwrite_exactly() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        start();
        const THREADS: u64 = 4;
        const EXTRA: u64 = 100;
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..(MAX_EVENTS_PER_THREAD as u64 + EXTRA) {
                        sample("test.trace.flood", 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        stop();
        // Rings are per-thread, so the drop accounting is exact even under
        // concurrency: each thread overflowed by exactly EXTRA.
        let s = summary();
        assert_eq!(s.overwritten, THREADS * EXTRA);
        assert_eq!(
            s.counter_counts.get("test.trace.flood"),
            Some(&(THREADS * MAX_EVENTS_PER_THREAD as u64)),
            "every surviving event is still in its ring"
        );
        // The flooded export is still one valid JSON document and carries
        // the loss count so a reader knows the timeline is incomplete.
        let text = export_chrome();
        let v: Value = serde_json::from_str(&text).expect("flooded trace still parses");
        assert_eq!(
            v.get("otherData")
                .and_then(|o| o.get("overwritten_events"))
                .and_then(Value::as_f64),
            Some((THREADS * EXTRA) as f64)
        );
    }

    #[test]
    fn ring_overwrites_oldest_past_capacity() {
        let mut ring = Ring::default();
        for i in 0..(MAX_EVENTS_PER_THREAD as u64 + 10) {
            ring.push(Event {
                ts_ns: i,
                dur_ns: 0,
                value: 0.0,
                name: "test.trace.ring",
                kind: Kind::Counter,
            });
        }
        assert_eq!(ring.events.len(), MAX_EVENTS_PER_THREAD);
        assert_eq!(ring.overwritten, 10);
        // The oldest timestamps were overwritten by the newest.
        assert!(ring
            .events
            .iter()
            .all(|e| e.ts_ns >= 10 || e.ts_ns < MAX_EVENTS_PER_THREAD as u64));
        assert!(ring.events.iter().any(|e| e.ts_ns == MAX_EVENTS_PER_THREAD as u64 + 9));
    }
}
