//! Bounded retry with exponential backoff and decorrelated jitter.
//!
//! Checkpoint, metrics and trace file writes and the crawl's page fetch
//! are the call sites: transient I/O failures (an interrupted call, a
//! busy volume, injected faults) should be retried a few times with
//! growing, jittered sleeps rather than either crashing the run or
//! hammering the filesystem in a tight loop. Errors that would fail the
//! same way again — a missing directory, a permission error, a path with
//! no file name, a non-UTF-8 page — return at once (see `is_transient`).
//!
//! The schedule is the decorrelated-jitter variant of exponential
//! backoff: each delay is drawn uniformly from `[base, prev * 3]` and
//! clamped to `cap`, so consecutive retries decorrelate (two processes
//! that failed together do not retry in lockstep) while the expected
//! delay still grows geometrically. The jitter stream is seeded SplitMix64,
//! so a fixed [`BackoffConfig::seed`] reproduces the exact schedule —
//! chaos tests depend on this.
//!
//! Metrics: `obs.retry.attempts` (re-attempts after a failure),
//! `obs.retry.exhausted` (operations that failed every attempt) and the
//! `obs.retry.sleep_ms` histogram of the delays actually slept.

use std::io;
use std::time::Duration;

/// Parameters of one retry schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffConfig {
    /// Smallest delay, and the lower bound of every jittered draw.
    pub base: Duration,
    /// Largest delay; every draw is clamped here. The cap also bounds the
    /// schedule's total: `max_attempts - 1` sleeps of at most `cap` each.
    pub cap: Duration,
    /// Total tries, including the first. `1` means no retries at all.
    pub max_attempts: u32,
    /// Seed of the jitter stream; a fixed seed reproduces the schedule.
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> BackoffConfig {
        BackoffConfig {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            max_attempts: 4,
            seed: 0,
        }
    }
}

/// The delay sequence of one operation's retries. [`Backoff::next_delay`]
/// yields `max_attempts - 1` delays, then `None`.
#[derive(Debug, Clone)]
pub struct Backoff {
    cfg: BackoffConfig,
    prev_ms: f64,
    issued: u32,
    rng: u64,
}

impl Backoff {
    /// Starts a fresh schedule.
    pub fn new(cfg: BackoffConfig) -> Backoff {
        Backoff {
            cfg,
            prev_ms: cfg.base.as_secs_f64() * 1e3,
            issued: 0,
            // Offset the seed so 0 is not the SplitMix64 fixed point.
            rng: cfg.seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// The next delay to sleep before re-attempting, or `None` once the
    /// attempt budget is exhausted.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.issued + 1 >= self.cfg.max_attempts {
            return None;
        }
        self.issued += 1;
        let base_ms = self.cfg.base.as_secs_f64() * 1e3;
        let cap_ms = self.cfg.cap.as_secs_f64() * 1e3;
        // uniform(base, max(base, prev * 3)), clamped to cap.
        let hi = (self.prev_ms * 3.0).max(base_ms);
        let ms = (base_ms + self.unit() * (hi - base_ms)).min(cap_ms);
        self.prev_ms = ms;
        Some(Duration::from_secs_f64(ms / 1e3))
    }

    fn unit(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Whether an I/O error may clear on a retry: `Interrupted`,
/// `WouldBlock`, `TimedOut`, and `Other` — the kind injected chaos faults
/// carry (`wb_chaos`), standing in for any transient failure.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
            | io::ErrorKind::Other
    )
}

/// Runs `op` up to [`BackoffConfig::max_attempts`] times, sleeping the
/// backoff schedule between transient failures (`is_transient`).
/// Returns the first success, the first permanent error, or the last
/// error once the budget is exhausted. Each re-attempt is logged at warn
/// with `what` and the error that caused it.
pub fn retry<T>(
    what: &str,
    cfg: BackoffConfig,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut backoff = Backoff::new(cfg);
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if !is_transient(&e) => return Err(e),
            Err(e) => match backoff.next_delay() {
                Some(delay) => {
                    crate::counter!("obs.retry.attempts");
                    crate::histogram!("obs.retry.sleep_ms", delay.as_secs_f64() * 1e3);
                    crate::warn!(
                        "{what} failed ({e}); retrying in {:.0}ms",
                        delay.as_secs_f64() * 1e3
                    );
                    std::thread::sleep(delay);
                }
                None => {
                    crate::counter!("obs.retry.exhausted");
                    crate::error!("{what} failed after {} attempts: {e}", cfg.max_attempts);
                    return Err(e);
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn cfg() -> BackoffConfig {
        BackoffConfig {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(8),
            max_attempts: 5,
            seed: 7,
        }
    }

    #[test]
    fn yields_max_attempts_minus_one_delays() {
        let mut b = Backoff::new(cfg());
        let delays: Vec<_> = std::iter::from_fn(|| b.next_delay()).collect();
        assert_eq!(delays.len(), 4);
    }

    #[test]
    fn single_attempt_never_sleeps() {
        let mut b = Backoff::new(BackoffConfig { max_attempts: 1, ..cfg() });
        assert_eq!(b.next_delay(), None);
    }

    #[test]
    fn retry_returns_first_success() {
        let calls = AtomicU32::new(0);
        let out = retry("test op", cfg(), || match calls.fetch_add(1, Ordering::SeqCst) {
            0 | 1 => Err(io::Error::other("transient")),
            n => Ok(n),
        });
        assert_eq!(out.unwrap(), 2);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn retry_surfaces_last_error_when_exhausted() {
        let calls = AtomicU32::new(0);
        let out: io::Result<()> = retry("test op", cfg(), || {
            Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("fail #{}", calls.fetch_add(1, Ordering::SeqCst)),
            ))
        });
        assert_eq!(out.unwrap_err().to_string(), "fail #4");
        assert_eq!(calls.load(Ordering::SeqCst), 5, "max_attempts tries total");
    }

    #[test]
    fn permanent_errors_return_without_retrying() {
        for kind in [
            io::ErrorKind::NotFound,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::InvalidInput,
            io::ErrorKind::InvalidData,
        ] {
            let calls = AtomicU32::new(0);
            let out: io::Result<()> = retry("test op", cfg(), || {
                calls.fetch_add(1, Ordering::SeqCst);
                Err(io::Error::from(kind))
            });
            assert_eq!(out.unwrap_err().kind(), kind);
            assert_eq!(calls.load(Ordering::SeqCst), 1, "{kind:?} must not be retried");
        }
    }
}
