//! RAII wall-clock span timers with per-thread nesting.
//!
//! [`enter`] pushes a frame on a thread-local stack and returns a guard;
//! dropping the guard records the span. Two aggregates are fed:
//!
//! * a duration histogram named after the span's *leaf* name, in
//!   microseconds (so `train.step` spans merge across parents), and
//! * a [`crate::metrics::SpanStat`] keyed by the `/`-joined nesting
//!   *path* (e.g. `train.epoch/train.step`), carrying count, total time
//!   and self time — the flamegraph-style view `wb report` renders.
//!
//! Self time is total minus the time spent in same-thread child spans.
//! Spans opened on a rayon worker start a fresh stack on that thread, so
//! work fanned out by a parent appears as a root path rather than being
//! subtracted from the parent's self time — cross-thread attribution is
//! deliberately out of scope for a counter-cheap instrument.
//!
//! Timing reads the clock and atomics only: a span can never perturb
//! model math, RNG draws or reduction order.

use crate::metrics::registry;
use std::cell::RefCell;
use std::time::Instant;

struct Frame {
    /// `/`-joined nesting path ending in this span's name.
    path: String,
    /// Leaf name, kept so the profiler can rebuild its shadow mirror
    /// from the real stack at any enter/exit.
    name: &'static str,
    /// Nanoseconds accumulated by completed same-thread child spans.
    child_ns: u64,
    /// Thread-cumulative allocation totals at entry (see
    /// [`crate::alloc::thread_totals`]).
    base_alloc: (u64, u64),
    /// Allocation `(bytes, count)` attributed to completed same-thread
    /// child spans.
    child_alloc: (u64, u64),
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// The number of open spans on the current thread. Exposed so tests can
/// assert stack integrity (e.g. after a `catch_unwind`).
pub fn depth() -> usize {
    STACK.try_with(|s| s.borrow().len()).unwrap_or(0)
}

/// An open span; records itself when dropped.
#[must_use = "bind the span guard (`let _span = …`) or it times nothing"]
pub struct SpanGuard {
    /// `None` when recording is compiled out (drop is then free).
    start: Option<Instant>,
    name: &'static str,
}

/// Opens a span. Prefer the [`crate::span!`] macro.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { start: None, name };
    }
    let base_alloc = crate::alloc::thread_totals();
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{}/{name}", parent.path),
            None => name.to_string(),
        };
        stack.push(Frame { path, name, child_ns: 0, base_alloc, child_alloc: (0, 0) });
        // One relaxed load when no capture is armed; while armed, the
        // profiler's shadow mirror is rebuilt from the real stack.
        if crate::profile::armed() {
            crate::profile::sync_stack(stack.iter().map(|f| f.name));
        }
    });
    SpanGuard { start: Some(Instant::now()), name }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let total_ns = start.elapsed().as_nanos() as u64;
        let now_alloc = crate::alloc::thread_totals();
        let frame = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.pop();
            if let Some(f) = &frame {
                let total_alloc = (
                    now_alloc.0.wrapping_sub(f.base_alloc.0),
                    now_alloc.1.wrapping_sub(f.base_alloc.1),
                );
                if let Some(parent) = stack.last_mut() {
                    parent.child_ns += total_ns;
                    parent.child_alloc.0 += total_alloc.0;
                    parent.child_alloc.1 += total_alloc.1;
                }
            }
            if crate::profile::armed() {
                crate::profile::sync_stack(stack.iter().map(|f| f.name));
            }
            frame
        });
        // Guards are dropped in LIFO scope order, so the popped frame is
        // this span's own (enter/drop always pair on one thread).
        let Some(frame) = frame else { return };
        let self_ns = total_ns.saturating_sub(frame.child_ns);
        // Allocation attributed to this span alone: the thread's delta
        // over the span's lifetime minus what completed children claimed.
        let total_bytes = now_alloc.0.wrapping_sub(frame.base_alloc.0);
        let total_allocs = now_alloc.1.wrapping_sub(frame.base_alloc.1);
        let self_bytes = total_bytes.saturating_sub(frame.child_alloc.0);
        let self_allocs = total_allocs.saturating_sub(frame.child_alloc.1);
        registry().span_stat(&frame.path).record(total_ns, self_ns, self_bytes, self_allocs);
        registry().histogram(self.name).observe(total_ns as f64 / 1_000.0);
        // Every aggregated span also lands on the event timeline when
        // trace collection is armed (one relaxed load when it is not).
        if crate::trace::active() {
            crate::trace::record_span(self.name, start, total_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::snapshot;
    use std::time::Duration;

    #[test]
    fn nested_spans_produce_paths_and_self_time() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        {
            let _outer = enter("test.span.outer");
            std::thread::sleep(Duration::from_millis(4));
            {
                let _inner = enter("test.span.inner");
                std::thread::sleep(Duration::from_millis(8));
            }
            {
                let _inner = enter("test.span.inner");
                std::thread::sleep(Duration::from_millis(8));
            }
        }
        let s = snapshot();
        let outer = &s.spans["test.span.outer"];
        let inner = &s.spans["test.span.outer/test.span.inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        // The outer span contains both inner runs…
        assert!(outer.total_ns >= inner.total_ns);
        // …and its self time excludes them: ~4ms of a ~20ms total.
        assert!(outer.self_ns >= Duration::from_millis(3).as_nanos() as u64);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns);
        // Leaf-name histograms merge both inner runs.
        assert!(s.histograms["test.span.inner"].count >= 2);
    }

    #[test]
    fn recursive_same_name_spans_keep_self_total_accounting() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        fn rec(depth: usize) {
            let _s = enter("test.span.rec");
            std::thread::sleep(Duration::from_millis(2));
            if depth > 0 {
                rec(depth - 1);
            }
        }
        rec(2);
        let s = snapshot();
        // Each recursion level is its own path with exactly one span.
        let root = &s.spans["test.span.rec"];
        let mid = &s.spans["test.span.rec/test.span.rec"];
        let leaf = &s.spans["test.span.rec/test.span.rec/test.span.rec"];
        for sp in [root, mid, leaf] {
            assert_eq!(sp.count, 1);
            assert!(sp.self_ns <= sp.total_ns, "self exceeds total: {sp:?}");
        }
        // Totals nest: each level contains its child entirely.
        assert!(root.total_ns >= mid.total_ns);
        assert!(mid.total_ns >= leaf.total_ns);
        // Self time excludes the child: root spent ~2ms of its own time.
        assert!(root.self_ns >= Duration::from_millis(1).as_nanos() as u64);
        assert!(root.self_ns <= root.total_ns - mid.total_ns);
        assert!(mid.self_ns <= mid.total_ns - leaf.total_ns);
        // The leaf-name histogram merges all three recursion levels.
        assert!(s.histograms["test.span.rec"].count >= 3);
    }

    #[test]
    fn nested_same_name_guards_in_one_scope_pair_lifo() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        {
            let _a = enter("test.span.twice");
            let _b = enter("test.span.twice");
            std::thread::sleep(Duration::from_millis(2));
        } // _b drops first (LIFO), then _a: inner pops the inner frame.
        let s = snapshot();
        let outer = &s.spans["test.span.twice"];
        let inner = &s.spans["test.span.twice/test.span.twice"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns.saturating_sub(inner.self_ns));
    }

    #[test]
    fn sibling_threads_do_not_share_stacks() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        let _outer = enter("test.span.main_thread");
        std::thread::spawn(|| {
            let _worker = enter("test.span.worker");
            std::thread::sleep(Duration::from_millis(1));
        })
        .join()
        .unwrap();
        drop(_outer);
        let s = snapshot();
        // The worker's span is a root path, not nested under the main
        // thread's span.
        assert!(s.spans.contains_key("test.span.worker"));
        assert!(!s.spans.keys().any(|k| k.contains("main_thread/test.span.worker")));
    }
}
