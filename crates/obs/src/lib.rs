#![warn(missing_docs)]
//! # wb-obs
//!
//! Dependency-free observability for the Webpage Briefing workspace:
//! structured leveled logging, a global metrics registry and RAII span
//! timers. Every other crate may depend on this one, so it is std-only
//! (hand-rolled like the vendor stand-ins — the build environment has no
//! registry access).
//!
//! ## Logging
//!
//! Leveled (`error!` … `trace!`), scoped by `target` (the emitting module
//! path) and configurable at runtime:
//!
//! ```
//! wb_obs::log::set_level(wb_obs::log::Level::Info);
//! wb_obs::info!("training {} epochs", 12);
//! ```
//!
//! The `WB_LOG` environment variable seeds the configuration, e.g.
//! `WB_LOG=info`, `WB_LOG=warn,wb_tensor=trace` or
//! `WB_LOG=debug,wb_core::trainer=off`. Output goes to stderr by default,
//! or to a file via [`log::set_log_file`].
//!
//! ## Metrics
//!
//! A process-global registry of counters, gauges and fixed-bucket
//! histograms. The macros cache the registry lookup in a per-call-site
//! static, so the steady-state cost of a hit is one atomic load (the
//! enabled flag) plus one relaxed `fetch_add`:
//!
//! ```
//! wb_obs::counter!("tensor.matmul.calls.nn");
//! wb_obs::gauge!("optim.lr", 0.01);
//! wb_obs::histogram!("train.epoch.loss", 0.75);
//! ```
//!
//! [`metrics::snapshot`] freezes everything into a [`metrics::Snapshot`]
//! that serialises to JSON ([`metrics::Snapshot::to_json`]) and parses
//! back ([`metrics::Snapshot::from_json`]); [`report::render`] turns a
//! snapshot into the table `wb report` prints.
//!
//! ## Spans
//!
//! RAII wall-clock timers that nest per thread and aggregate into a
//! flamegraph-style self/total report:
//!
//! ```
//! {
//!     let _epoch = wb_obs::span!("train.epoch");
//!     let _step = wb_obs::span!("train.step");
//!     // work…
//! } // drop order records step inside epoch
//! ```
//!
//! Each span records its total duration into a histogram named after the
//! span (microseconds) and its `(count, total, self)` aggregate under its
//! `/`-joined nesting path, so `wb report` can show where the time
//! actually went.
//!
//! ## Tracing
//!
//! [`trace`] records an event-level timeline on top of the same spans:
//! arm it with [`trace::start`], and every span guard drop adds a
//! timestamped complete event to a per-thread ring buffer (plus optional
//! counter samples via [`trace::sample`]). [`trace::export_chrome`]
//! serialises the timeline in Chrome trace format for
//! `chrome://tracing`/Perfetto; the `wb` CLI exposes it as `--trace-out`.
//!
//! ## Determinism and overhead
//!
//! Instrumentation reads the clock and bumps atomics; it never touches
//! model math, RNG draws or parallel reduction order, so any observable
//! output of the system is byte-identical with observability on or off
//! (asserted by `tests/cli.rs`). Compiling with the `off` feature reduces
//! every record to nothing.

pub mod alloc;
pub mod flame;
pub mod json;
pub mod log;
pub mod metrics;
pub mod procstat;
pub mod profile;
pub mod prometheus;
pub mod report;
pub mod retry;
pub mod span;
pub mod trace;
pub mod window;

/// Whether metric/span recording is compiled in: `false` exactly when
/// built with the `off` feature (logging has its own level control).
#[inline(always)]
pub fn enabled() -> bool {
    !cfg!(feature = "off")
}

/// Increments a named counter (by 1, or by an explicit amount).
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, 1)
    };
    ($name:expr, $n:expr) => {{
        static __SLOT: $crate::metrics::Cached<$crate::metrics::Counter> =
            $crate::metrics::Cached::new();
        __SLOT.with($name, |__m| __m.add($n as u64));
    }};
}

/// Sets a named gauge to a value.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $v:expr) => {{
        static __SLOT: $crate::metrics::Cached<$crate::metrics::Gauge> =
            $crate::metrics::Cached::new();
        __SLOT.with($name, |__m| __m.set($v as f64));
    }};
}

/// Raises a named gauge to a value if it is larger than the current one —
/// a high-watermark gauge (peak memory, deepest queue). Re-arm a
/// watermark by setting the underlying gauge back to zero.
#[macro_export]
macro_rules! gauge_max {
    ($name:expr, $v:expr) => {{
        static __SLOT: $crate::metrics::Cached<$crate::metrics::Gauge> =
            $crate::metrics::Cached::new();
        __SLOT.with($name, |__m| __m.set_max($v as f64));
    }};
}

/// Records an observation into a named fixed-bucket histogram.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $v:expr) => {{
        static __SLOT: $crate::metrics::Cached<$crate::metrics::Histogram> =
            $crate::metrics::Cached::new();
        __SLOT.with($name, |__m| __m.observe($v as f64));
    }};
}

/// Increments a named sliding-window counter (by 1, or by an explicit
/// amount). Windowed metrics answer "what is happening *now*" — see
/// [`window`]; pair with a [`counter!`] when the cumulative total also
/// matters (the window counter keeps its own total too).
#[macro_export]
macro_rules! window_counter {
    ($name:expr) => {
        $crate::window_counter!($name, 1)
    };
    ($name:expr, $n:expr) => {{
        static __SLOT: $crate::metrics::Cached<$crate::window::WindowCounter> =
            $crate::metrics::Cached::new();
        __SLOT.with($name, |__m| __m.add($n as u64));
    }};
}

/// Records an observation into a named sliding-window histogram (10 s and
/// 60 s views; see [`window`]).
#[macro_export]
macro_rules! window_histogram {
    ($name:expr, $v:expr) => {{
        static __SLOT: $crate::metrics::Cached<$crate::window::WindowHistogram> =
            $crate::metrics::Cached::new();
        __SLOT.with($name, |__m| __m.observe($v as f64));
    }};
}

/// Opens an RAII span timer; bind it (`let _span = …`) so it lives to the
/// end of the scope. `let _ = span!(…)` drops immediately and times
/// nothing.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

// Tests that toggle or depend on a global flag (trace collection, the
// profiler, the log level) serialise on this lock so the parallel test
// runner cannot interleave them.
#[cfg(test)]
pub(crate) static TEST_FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
