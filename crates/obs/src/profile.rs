//! Sampling span-stack profiler.
//!
//! The span layer ([`crate::span`]) already maintains a per-thread RAII
//! nesting stack; this module makes that stack *observable from outside
//! the thread* so a dedicated sampler can snapshot every thread at a
//! fixed rate and fold the observations into collapsed-stack form
//! (`root;child;leaf count` — the input format of every flamegraph
//! tool, including [`crate::flame`]).
//!
//! ## How a thread exposes its stack
//!
//! Span names are interned to dense `u32` ids. Each thread that enters
//! a span while a capture is armed registers a fixed-size *shadow
//! stack* — a seqlock-guarded array of atomics mirroring the interned
//! ids of its live span stack. The mirror is rewritten on every span
//! enter/exit (a handful of relaxed stores), and only while armed:
//! disarmed, the span hot path pays exactly one relaxed atomic load.
//! The sampler validates the seqlock around each read and discards torn
//! snapshots; a stale or torn id can at worst name the wrong span —
//! ids are bounds-checked against the intern table, so the read is
//! memory-safe under any interleaving.
//!
//! Because the mirror is only maintained while armed, a span entered
//! *before* the capture started becomes visible at that thread's next
//! span enter or exit (the mirror is rebuilt from the real stack each
//! time). Threads that never touch a span during the capture simply do
//! not appear.
//!
//! ## Modes
//!
//! * [`Mode::Wall`] — every observed thread with a non-empty stack
//!   contributes weight 1 per sampling round: the classic wall-clock
//!   profile (blocked time counts).
//! * [`Mode::Cpu`] — each thread reads its own CPU clock
//!   (`clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, hand-declared like the
//!   syscalls in wb-serve) at every span enter and exit while the
//!   capture is armed, and charges the CPU time since its previous span
//!   event to the stack that was open in between; the sampler folds the
//!   charges each round. Weights are CPU microseconds. CPU burned while
//!   the stack is empty lands in the `(no span)` bucket. A thread's time
//!   before its first span event in the capture, and after its last, is
//!   not seen. Linux-only.
//!
//! One capture may run at a time ([`start`] fails with a busy error
//! otherwise); `GET /pprof` maps that to HTTP 409.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Deepest mirrored nesting; deeper frames fold into a `(truncated)`
/// trailing frame. The real span stack is unaffected.
pub const MAX_FRAMES: usize = 32;

/// Sampling clock source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Weight 1 per thread per round; blocked time counts.
    Wall,
    /// Weight = CPU microseconds spent under each stack.
    Cpu,
}

impl Mode {
    /// Parses `"wall"` / `"cpu"`.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "wall" => Some(Mode::Wall),
            "cpu" => Some(Mode::Cpu),
            _ => None,
        }
    }

    /// The canonical spelling accepted by [`Mode::parse`].
    pub fn as_str(&self) -> &'static str {
        match self {
            Mode::Wall => "wall",
            Mode::Cpu => "cpu",
        }
    }
}

/// Capture configuration.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Sampling rounds per second, clamped to `1..=1000`.
    pub hz: u32,
    /// Clock source.
    pub mode: Mode,
}

impl Default for Options {
    fn default() -> Self {
        Options { hz: 99, mode: Mode::Wall }
    }
}

// ---------------------------------------------------------------------
// Name interning
// ---------------------------------------------------------------------

#[derive(Default)]
struct Interner {
    ids: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static T: OnceLock<RwLock<Interner>> = OnceLock::new();
    T.get_or_init(|| RwLock::new(Interner::default()))
}

fn intern(name: &'static str) -> u32 {
    if let Some(&id) = interner().read().unwrap().ids.get(name) {
        return id;
    }
    let mut w = interner().write().unwrap();
    if let Some(&id) = w.ids.get(name) {
        return id;
    }
    let id = w.names.len() as u32;
    w.names.push(name);
    w.ids.insert(name, id);
    id
}

/// Resolves an interned id; a torn or stale id past the table end reads
/// as `"?"` rather than anything unsafe.
fn resolve(id: u32) -> &'static str {
    interner().read().unwrap().names.get(id as usize).copied().unwrap_or("?")
}

// ---------------------------------------------------------------------
// Shadow stacks
// ---------------------------------------------------------------------

struct ShadowStack {
    /// Seqlock: odd while the owner rewrites the mirror.
    seq: AtomicU64,
    /// True nesting depth (may exceed [`MAX_FRAMES`]).
    depth: AtomicUsize,
    /// Interned ids of the first [`MAX_FRAMES`] frames, root first.
    frames: [AtomicU32; MAX_FRAMES],
    /// Cleared when the owning thread exits; pruned by the sampler.
    alive: AtomicBool,
    /// On-CPU charges, written by the owner and drained by the sampler.
    cpu: Mutex<CpuLedger>,
}

/// One thread's on-CPU accounting for [`Mode::Cpu`].
#[derive(Default)]
struct CpuLedger {
    /// The capture `mark_ns` was taken in; CPU time since a mark from an
    /// earlier capture is not charged.
    capture: u64,
    /// The thread's CPU clock (ns) at its last span enter or exit.
    mark_ns: u64,
    /// CPU ns charged per stack: interned frame ids, root first, ending
    /// in [`TRUNCATED`] when the stack was deeper than [`MAX_FRAMES`].
    charged: HashMap<Vec<u32>, u64>,
}

/// Frame id standing for the `(truncated)` suffix frame.
const TRUNCATED: u32 = u32::MAX;

fn stacks() -> &'static Mutex<Vec<Arc<ShadowStack>>> {
    static S: OnceLock<Mutex<Vec<Arc<ShadowStack>>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(Vec::new()))
}

/// The calling thread's CPU time in nanoseconds.
#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    // Hand-declared like wb-serve's syscalls; `struct timespec` is two
    // 64-bit fields on every 64-bit Linux target.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, exclusively borrowed out-parameter.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    0
}

/// Keeps the registration alive for the thread's lifetime; the `Drop`
/// marks the mirror dead so the sampler can prune it.
struct ShadowHandle(Arc<ShadowStack>);

impl Drop for ShadowHandle {
    fn drop(&mut self) {
        self.0.alive.store(false, Ordering::Relaxed);
    }
}

thread_local! {
    static SHADOW: std::cell::RefCell<Option<ShadowHandle>> = const { std::cell::RefCell::new(None) };
}

fn register_current_thread() -> ShadowHandle {
    let s = Arc::new(ShadowStack {
        seq: AtomicU64::new(0),
        depth: AtomicUsize::new(0),
        frames: std::array::from_fn(|_| AtomicU32::new(0)),
        alive: AtomicBool::new(true),
        cpu: Mutex::new(CpuLedger::default()),
    });
    stacks().lock().unwrap().push(Arc::clone(&s));
    ShadowHandle(s)
}

static ARMED: AtomicBool = AtomicBool::new(false);

/// Id of the armed [`Mode::Cpu`] capture; 0 while none is.
static CPU_CAPTURE: AtomicU64 = AtomicU64::new(0);
/// Source of capture ids.
static CAPTURE_IDS: AtomicU64 = AtomicU64::new(0);

/// Whether a capture is armed. The span hot path checks this (one
/// relaxed load) and skips all mirror maintenance when disarmed.
#[inline(always)]
pub(crate) fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Rebuilds the current thread's shadow mirror from its real span stack
/// (called by the span layer on every enter/exit while armed). In a
/// [`Mode::Cpu`] capture it first charges the CPU time since the previous
/// call to the stack the mirror still shows.
pub(crate) fn sync_stack<I>(names: I)
where
    I: Iterator<Item = &'static str> + ExactSizeIterator,
{
    let _ = SHADOW.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        let handle = slot.get_or_insert_with(register_current_thread);
        let s = &handle.0;
        let capture = CPU_CAPTURE.load(Ordering::Relaxed);
        if capture != 0 {
            charge_cpu(s, capture);
        }
        let depth = names.len();
        s.seq.fetch_add(1, Ordering::Release);
        for (i, name) in names.enumerate().take(MAX_FRAMES) {
            s.frames[i].store(intern(name), Ordering::Relaxed);
        }
        s.depth.store(depth, Ordering::Relaxed);
        s.seq.fetch_add(1, Ordering::Release);
    });
}

/// Charges the calling thread's CPU time since its last mark to the stack
/// its mirror shows (the owner's own writes, so plain loads suffice).
fn charge_cpu(s: &ShadowStack, capture: u64) {
    let now = thread_cpu_ns();
    let mut ledger = s.cpu.lock().unwrap();
    let spent = if ledger.capture == capture { now.saturating_sub(ledger.mark_ns) } else { 0 };
    ledger.capture = capture;
    ledger.mark_ns = now;
    if spent == 0 {
        return;
    }
    let depth = s.depth.load(Ordering::Relaxed);
    let mut key = [0u32; MAX_FRAMES + 1];
    let mut len = depth.min(MAX_FRAMES);
    for (k, f) in key.iter_mut().zip(&s.frames[..len]) {
        *k = f.load(Ordering::Relaxed);
    }
    if depth > MAX_FRAMES {
        key[len] = TRUNCATED;
        len += 1;
    }
    match ledger.charged.get_mut(&key[..len]) {
        Some(ns) => *ns += spent,
        None => {
            ledger.charged.insert(key[..len].to_vec(), spent);
        }
    }
}

/// Seqlock-validated read of one mirror, ending in [`TRUNCATED`] when
/// the stack is deeper than [`MAX_FRAMES`]; `None` after repeated tears.
fn read_stack(s: &ShadowStack) -> Option<Vec<u32>> {
    for _ in 0..4 {
        let s1 = s.seq.load(Ordering::Acquire);
        if s1 & 1 == 1 {
            std::hint::spin_loop();
            continue;
        }
        let depth = s.depth.load(Ordering::Relaxed);
        let shown = depth.min(MAX_FRAMES);
        let mut ids = Vec::with_capacity(shown + 1);
        for f in s.frames.iter().take(shown) {
            ids.push(f.load(Ordering::Relaxed));
        }
        std::sync::atomic::fence(Ordering::Acquire);
        if s.seq.load(Ordering::Relaxed) == s1 {
            if depth > MAX_FRAMES {
                ids.push(TRUNCATED);
            }
            return Some(ids);
        }
    }
    None
}

/// The collapsed-stack path of interned frame ids (root first); an empty
/// stack is `(no span)`.
fn fold_path(ids: &[u32]) -> String {
    if ids.is_empty() {
        return "(no span)".to_string();
    }
    let frames: Vec<String> = ids
        .iter()
        .map(|&id| {
            if id == TRUNCATED {
                "(truncated)".to_string()
            } else {
                sanitize_frame(resolve(id))
            }
        })
        .collect();
    frames.join(";")
}

fn sanitize_frame(name: &str) -> String {
    name.chars().map(|c| if c == ';' || c.is_whitespace() { '_' } else { c }).collect()
}

// ---------------------------------------------------------------------
// Capture
// ---------------------------------------------------------------------

static CAPTURING: AtomicBool = AtomicBool::new(false);

/// A finished capture.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Clock source the capture ran with.
    pub mode: Mode,
    /// Effective sampling rate.
    pub hz: u32,
    /// Wall time the capture was armed for.
    pub duration: Duration,
    /// Sampling rounds performed.
    pub rounds: u64,
    /// Sum of all folded weights.
    pub total_weight: u64,
    /// Collapsed stacks: `root;child;leaf` → weight.
    pub folded: BTreeMap<String, u64>,
}

impl Profile {
    /// Renders the canonical collapsed-stack text: one
    /// `path weight` line per folded stack, sorted by path.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for (path, w) in &self.folded {
            out.push_str(path);
            out.push(' ');
            out.push_str(&w.to_string());
            out.push('\n');
        }
        out
    }
}

/// A running capture; [`Recorder::stop`] disarms and returns the
/// profile.
pub struct Recorder {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<(u64, u64, BTreeMap<String, u64>)>,
    opts: Options,
    started: Instant,
}

impl Recorder {
    /// Stops sampling, disarms the span mirrors and returns the folded
    /// profile.
    pub fn stop(self) -> Profile {
        // Charging ends first, so the sampler's final drain sees it all.
        CPU_CAPTURE.store(0, Ordering::Relaxed);
        self.stop.store(true, Ordering::Release);
        let (rounds, total_weight, folded) = self.handle.join().unwrap_or_default();
        ARMED.store(false, Ordering::Relaxed);
        CAPTURING.store(false, Ordering::Release);
        Profile {
            mode: self.opts.mode,
            hz: self.opts.hz,
            duration: self.started.elapsed(),
            rounds,
            total_weight,
            folded,
        }
    }
}

/// Arms the profiler and starts the sampler thread. Fails when a
/// capture is already running, when observability is compiled out, or
/// when [`Mode::Cpu`] is requested off Linux.
pub fn start(opts: Options) -> Result<Recorder, String> {
    if cfg!(feature = "off") {
        return Err("profiler unavailable: wb-obs compiled with the `off` feature".to_string());
    }
    if opts.mode == Mode::Cpu && !cfg!(target_os = "linux") {
        return Err("on-CPU mode reads Linux thread CPU clocks and requires Linux".to_string());
    }
    if CAPTURING.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_err() {
        return Err("a profile capture is already in progress".to_string());
    }
    let opts = Options { hz: opts.hz.clamp(1, 1000), ..opts };
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    if opts.mode == Mode::Cpu {
        CPU_CAPTURE.store(CAPTURE_IDS.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
    ARMED.store(true, Ordering::Relaxed);
    let handle = std::thread::Builder::new()
        .name("wb-obs-profiler".to_string())
        .spawn(move || sampler_loop(opts, stop_flag))
        .map_err(|e| {
            CPU_CAPTURE.store(0, Ordering::Relaxed);
            ARMED.store(false, Ordering::Relaxed);
            CAPTURING.store(false, Ordering::Release);
            format!("spawning sampler thread: {e}")
        })?;
    Ok(Recorder { stop, handle, opts, started: Instant::now() })
}

fn sampler_loop(opts: Options, stop: Arc<AtomicBool>) -> (u64, u64, BTreeMap<String, u64>) {
    let period = Duration::from_secs_f64(1.0 / opts.hz as f64);
    // Wall: samples per path. Cpu: CPU ns per path until the end.
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut rounds = 0u64;
    while !stop.load(Ordering::Acquire) {
        let tick = Instant::now();
        rounds += 1;
        sample_round(opts.mode, &mut folded);
        let elapsed = tick.elapsed();
        if elapsed < period {
            std::thread::sleep(period - elapsed);
        }
    }
    if opts.mode == Mode::Cpu {
        // Collect what was charged since the last round, then report
        // whole microseconds.
        sample_round(Mode::Cpu, &mut folded);
        folded = folded
            .into_iter()
            .map(|(path, ns)| (path, ns / 1000))
            .filter(|&(_, us)| us > 0)
            .collect();
    }
    let total_weight = folded.values().sum();
    (rounds, total_weight, folded)
}

/// One sampling round: in wall mode, weight 1 for every visible thread's
/// live stack; in CPU mode, every thread's charges since the last round.
fn sample_round(mode: Mode, folded: &mut BTreeMap<String, u64>) {
    // Dead mirrors are pruned here but still read this once: a thread
    // that exited since the last round may have left CPU charges.
    let snapshot: Vec<Arc<ShadowStack>> = {
        let mut g = stacks().lock().unwrap();
        let all = g.clone();
        g.retain(|s| s.alive.load(Ordering::Relaxed));
        all
    };
    for s in &snapshot {
        match mode {
            Mode::Wall => {
                if !s.alive.load(Ordering::Relaxed) {
                    continue;
                }
                // An empty stack is an idle thread: wall profiles show
                // only live spans.
                match read_stack(s) {
                    Some(ids) if !ids.is_empty() => {
                        *folded.entry(fold_path(&ids)).or_insert(0) += 1
                    }
                    _ => {}
                }
            }
            Mode::Cpu => {
                let charged = std::mem::take(&mut s.cpu.lock().unwrap().charged);
                for (ids, ns) in charged {
                    *folded.entry(fold_path(&ids)).or_insert(0) += ns;
                }
            }
        }
    }
}

#[cfg(all(test, not(feature = "off")))]
mod tests {
    use super::*;
    use crate::span;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    // Every test arms the one global profiler, so serialise on the
    // shared flag lock like the other wb-obs flag-touching tests.

    #[test]
    fn interning_is_stable_and_resolve_is_bounds_checked() {
        let a = intern("test.prof.intern.a");
        let b = intern("test.prof.intern.b");
        assert_ne!(a, b);
        assert_eq!(intern("test.prof.intern.a"), a);
        assert_eq!(resolve(a), "test.prof.intern.a");
        assert_eq!(resolve(u32::MAX), "?", "wild ids must resolve safely");
    }

    #[test]
    fn collapsed_paths_sanitise_separators() {
        assert_eq!(sanitize_frame("a b;c\td"), "a_b_c_d");
    }

    #[test]
    fn wall_capture_folds_nested_worker_spans() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        let rec = start(Options::default()).expect("start");
        let worker = std::thread::spawn(|| {
            let _a = span::enter("test.prof.wall_outer");
            let _b = span::enter("test.prof.wall_inner");
            std::thread::sleep(Duration::from_millis(200));
        });
        std::thread::sleep(Duration::from_millis(150));
        worker.join().unwrap();
        let p = rec.stop();
        assert!(p.rounds >= 5, "sampler barely ran: {} rounds", p.rounds);
        let nested = p.folded.get("test.prof.wall_outer;test.prof.wall_inner").copied();
        assert!(nested.unwrap_or(0) >= 1, "missing nested path in {:?}", p.folded);
        // Collapsed text parses back: every line is `path weight`.
        for line in p.to_collapsed().lines() {
            let (path, w) = line.rsplit_once(' ').expect("line shape");
            assert!(!path.is_empty());
            w.parse::<u64>().expect("weight is a number");
        }
    }

    #[test]
    fn only_one_capture_at_a_time() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        let rec = start(Options::default()).expect("first capture");
        let err = match start(Options::default()) {
            Ok(r) => {
                let _ = r.stop();
                panic!("second capture unexpectedly started");
            }
            Err(e) => e,
        };
        assert!(err.contains("already in progress"), "unexpected error: {err}");
        let _ = rec.stop();
        // The slot frees on stop.
        let rec2 = start(Options::default()).expect("slot must free");
        let _ = rec2.stop();
    }

    #[test]
    fn deep_stacks_truncate_without_losing_the_root() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        let rec = start(Options::default()).expect("start");
        std::thread::spawn(|| {
            fn rec_spans(depth: usize) {
                let _s = span::enter("test.prof.deep");
                if depth > 0 {
                    rec_spans(depth - 1);
                } else {
                    std::thread::sleep(Duration::from_millis(150));
                }
            }
            rec_spans(MAX_FRAMES + 8);
        })
        .join()
        .unwrap();
        let p = rec.stop();
        let truncated: u64 =
            p.folded.iter().filter(|(k, _)| k.ends_with("(truncated)")).map(|(_, w)| w).sum();
        assert!(truncated >= 1, "deep stack must fold into (truncated): {:?}", p.folded);
    }

    /// Satellite: a `catch_unwind` inside a nested span must leave the
    /// sampler seeing a consistent stack — the panicked span's frame is
    /// popped by its guard during unwinding, never orphaned.
    fn panic_consistency(threads: usize) {
        let rec = start(Options::default()).expect("start");
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                std::thread::spawn(|| {
                    let _outer = span::enter("test.prof.panic_outer");
                    for _ in 0..3 {
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            let _inner = span::enter("test.prof.panic_inner");
                            panic!("intentional test panic");
                        }));
                        assert!(r.is_err());
                    }
                    // The real stack healed: only the outer frame lives.
                    assert_eq!(span::depth(), 1);
                    // Hold the outer span where the sampler can see it.
                    std::thread::sleep(Duration::from_millis(200));
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let p = rec.stop();
        let outer = p.folded.get("test.prof.panic_outer").copied().unwrap_or(0);
        let orphaned = p.folded.get("test.prof.panic_outer;test.prof.panic_inner").copied();
        assert!(outer >= 3, "outer span undersampled: {:?}", p.folded);
        // The inner span lives only microseconds before panicking; an
        // orphaned frame would instead dominate the 200 ms sleep.
        assert!(
            orphaned.unwrap_or(0) < outer,
            "orphaned inner frame after catch_unwind: {:?}",
            p.folded
        );
    }

    #[test]
    fn catch_unwind_leaves_consistent_stack_single_thread() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        panic_consistency(1);
    }

    #[test]
    fn catch_unwind_leaves_consistent_stack_four_threads() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        panic_consistency(4);
    }

    /// Spins the calling thread for `d` of wall time.
    fn spin(d: Duration) {
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < d {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            std::hint::black_box(x);
        }
    }

    /// Total CPU µs folded under paths containing `frame`.
    fn weight_under(p: &Profile, frame: &str) -> u64 {
        p.folded.iter().filter(|(k, _)| k.contains(frame)).map(|(_, w)| w).sum()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn cpu_capture_charges_a_spinning_span() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        let rec = start(Options { hz: 99, mode: Mode::Cpu }).expect("start");
        std::thread::spawn(|| {
            let _s = span::enter("test.prof.cpu_spin");
            spin(Duration::from_millis(400));
        })
        .join()
        .unwrap();
        let p = rec.stop();
        // 400 ms of wall-clock spin; allow heavy scheduling noise but
        // require a real share of it on the span.
        let spun = weight_under(&p, "test.prof.cpu_spin");
        assert!(spun >= 40_000, "spinning span charged only {spun} µs: {:?}", p.folded);
        assert_eq!(p.total_weight, p.folded.values().sum::<u64>());
    }

    /// A thread that burns CPU inside a span and then blocks before the
    /// next sampling round is charged at its span exit — never left to
    /// whatever stack it happens to be on (none) at the sample instant.
    #[cfg(target_os = "linux")]
    #[test]
    fn cpu_burned_before_blocking_is_charged_to_its_span() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        // One round per second: the only rounds fall at the start and at
        // stop, while the worker holds no span.
        let rec = start(Options { hz: 1, mode: Mode::Cpu }).expect("start");
        std::thread::spawn(|| {
            for _ in 0..3 {
                let _s = span::enter("test.prof.burst");
                spin(Duration::from_millis(50));
            }
            std::thread::sleep(Duration::from_millis(300));
        })
        .join()
        .unwrap();
        let p = rec.stop();
        let burst = weight_under(&p, "test.prof.burst");
        let idle = p.folded.get("(no span)").copied().unwrap_or(0);
        assert!(burst >= 30_000, "burst charged only {burst} µs: {:?}", p.folded);
        assert!(burst > 10 * idle, "CPU leaked to (no span): {:?}", p.folded);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn thread_cpu_clock_advances_with_work() {
        let t0 = thread_cpu_ns();
        spin(Duration::from_millis(20));
        let spent = thread_cpu_ns() - t0;
        assert!(spent > 1_000_000, "20 ms of spin read as {spent} ns of CPU");
    }
}
