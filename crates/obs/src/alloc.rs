//! Span-attributed allocation counting.
//!
//! [`Counting`] wraps the system allocator and, while tracking is armed
//! ([`set_tracking`]), bumps two per-thread counters — bytes requested
//! and allocation events — on every `alloc`/`alloc_zeroed`/`realloc`.
//! The span layer reads those counters at span entry and exit
//! ([`thread_totals`]) and attributes the delta to the active span path,
//! so `wb report` can show `obs.alloc.*` columns per span exactly the
//! way it shows self time.
//!
//! The binary that wants attribution installs the wrapper:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: wb_obs::alloc::Counting = wb_obs::alloc::Counting;
//! ```
//!
//! ## Accounting rules
//!
//! * `alloc`/`alloc_zeroed` count the requested layout size once.
//! * `realloc` counts the *new* size as a fresh allocation event — the
//!   instrument measures allocator pressure, not live heap.
//! * `dealloc` is not counted; frees are attributed to nobody.
//!
//! ## Safety and overhead
//!
//! The hot path is one relaxed atomic load (the tracking flag); when
//! armed it adds two thread-local `Cell` bumps. The cells are
//! const-initialised and `Drop`-free, so touching them inside the
//! allocator can neither allocate nor re-enter; during thread teardown
//! `try_with` degrades to not counting. Compiled with the `off` feature
//! the wrapper forwards verbatim with zero bookkeeping.

use std::alloc::{GlobalAlloc, Layout, System};

#[cfg(not(feature = "off"))]
use std::cell::Cell;
#[cfg(not(feature = "off"))]
use std::sync::atomic::{AtomicBool, Ordering};

#[cfg(not(feature = "off"))]
static TRACKING: AtomicBool = AtomicBool::new(false);

#[cfg(not(feature = "off"))]
thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Arms or disarms allocation counting. Disarmed (the default), the
/// wrapper costs one relaxed atomic load per allocation. No-op under the
/// `off` feature.
pub fn set_tracking(on: bool) {
    #[cfg(feature = "off")]
    {
        let _ = on;
    }
    #[cfg(not(feature = "off"))]
    TRACKING.store(on, Ordering::Relaxed);
}

/// Whether allocation counting is armed. Always `false` under `off`.
#[inline]
pub fn tracking() -> bool {
    #[cfg(feature = "off")]
    {
        false
    }
    #[cfg(not(feature = "off"))]
    {
        TRACKING.load(Ordering::Relaxed)
    }
}

/// The current thread's cumulative `(bytes, allocation count)` since it
/// started. Monotone while tracking is armed; the span layer diffs two
/// readings to attribute the interval. Always `(0, 0)` under `off`.
#[inline]
pub fn thread_totals() -> (u64, u64) {
    #[cfg(feature = "off")]
    {
        (0, 0)
    }
    #[cfg(not(feature = "off"))]
    {
        let b = BYTES.try_with(Cell::get).unwrap_or(0);
        let c = COUNT.try_with(Cell::get).unwrap_or(0);
        (b, c)
    }
}

#[inline]
fn note(size: usize) {
    #[cfg(feature = "off")]
    {
        let _ = size;
    }
    #[cfg(not(feature = "off"))]
    {
        if !TRACKING.load(Ordering::Relaxed) {
            return;
        }
        let _ = BYTES.try_with(|b| b.set(b.get().wrapping_add(size as u64)));
        let _ = COUNT.try_with(|c| c.set(c.get().wrapping_add(1)));
    }
}

/// A counting wrapper around [`System`], suitable for
/// `#[global_allocator]`.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the bookkeeping touches only Drop-free thread-local cells
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size);
        }
        p
    }
}

#[cfg(all(test, not(feature = "off")))]
mod tests {
    use super::*;

    // Both tests flip the process-global `TRACKING` flag: run in parallel,
    // one could count (or stop counting) inside the other's window.
    static TRACKING_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock_tracking() -> std::sync::MutexGuard<'static, ()> {
        TRACKING_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    // The test binary does not install `Counting` as the global
    // allocator (that is the `wb` binary's job), so exercise the
    // GlobalAlloc impl directly.
    #[test]
    fn counts_only_while_tracking() {
        let _serial = lock_tracking();
        let a = Counting;
        let layout = Layout::from_size_align(64, 8).unwrap();
        let (b0, c0) = thread_totals();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            a.dealloc(p, layout);
        }
        assert_eq!(thread_totals(), (b0, c0), "disarmed allocations must not count");

        set_tracking(true);
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            let p = a.realloc(p, layout, 128);
            assert!(!p.is_null());
            a.dealloc(p, Layout::from_size_align(128, 8).unwrap());
        }
        set_tracking(false);
        let (b1, c1) = thread_totals();
        // alloc(64) + realloc-to-128 = 192 bytes over 2 events; frees
        // are not counted.
        assert_eq!(b1 - b0, 192);
        assert_eq!(c1 - c0, 2);
    }

    #[test]
    fn totals_are_per_thread() {
        let _serial = lock_tracking();
        set_tracking(true);
        let a = Counting;
        let layout = Layout::from_size_align(32, 8).unwrap();
        let (b0, _) = thread_totals();
        std::thread::spawn(move || {
            let a = Counting;
            let layout = Layout::from_size_align(1024, 8).unwrap();
            unsafe {
                let p = a.alloc(layout);
                assert!(!p.is_null());
                a.dealloc(p, layout);
            }
            let (b, c) = thread_totals();
            assert!(b >= 1024 && c >= 1);
        })
        .join()
        .unwrap();
        unsafe {
            let p = a.alloc(layout);
            a.dealloc(p, layout);
        }
        set_tracking(false);
        let (b1, _) = thread_totals();
        // The sibling thread's 1024 bytes must not leak into this
        // thread's totals.
        assert_eq!(b1 - b0, 32);
    }
}
