//! A circuit breaker in front of the model: repeated model panics trip it
//! open, degrading `/brief` to cache-only + `503 Retry-After` instead of
//! feeding every request into a failing model; after a cooldown a single
//! probe request is let through, and its outcome closes or re-opens the
//! circuit.
//!
//! State machine:
//!
//! ```text
//! Closed --(threshold failures within window)--> Open
//! Open   --(cooldown elapsed, one probe admitted)--> HalfOpen
//! HalfOpen --(probe succeeds)--> Closed
//! HalfOpen --(probe fails)-----> Open (fresh cooldown)
//! ```
//!
//! Failures are recorded per *batch*, one for a batch with any panicked
//! page (the executor runs batches strictly
//! sequentially, so batch granularity keeps the accounting race-free).
//! Metrics: `serve.breaker.state` gauge (0 closed, 1 open, 0.5 half-open),
//! `serve.breaker.opened` / `serve.breaker.reopened` / `serve.breaker.closed`
//! transition counters and `serve.breaker.rejected` for turned-away
//! requests.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Breaker tuning, exposed as `wb serve --breaker-*` flags.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Model failures within `window` that trip the circuit; `0` disables
    /// the breaker entirely (every request admitted, nothing recorded).
    pub threshold: u32,
    /// Sliding window the failures must fall into.
    pub window: Duration,
    /// How long the circuit stays open before admitting a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 5,
            window: Duration::from_secs(30),
            cooldown: Duration::from_secs(5),
        }
    }
}

enum State {
    Closed { failures: Vec<Instant> },
    Open { until: Instant },
    HalfOpen,
}

/// What the breaker says about one incoming model request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Circuit closed: proceed normally.
    Allow,
    /// Circuit half-open: proceed — this request is the probe whose
    /// outcome decides whether the circuit closes.
    Probe,
    /// Circuit open: answer `503` with this `Retry-After` without
    /// touching the model (cache hits are still served upstream).
    Reject {
        /// Whole seconds until a probe will be admitted (at least 1).
        retry_after_secs: u64,
    },
}

/// The breaker itself; shared between request workers (admission) and the
/// batch executor (outcome recording).
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: Mutex<State>,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker { cfg, state: Mutex::new(State::Closed { failures: Vec::new() }) }
    }

    /// The current state for dashboards (`/varz`, `wb top`): `"closed"`,
    /// `"open"` or `"half-open"`. A pure peek — it never transitions the
    /// state machine, so an elapsed cooldown still reads `"open"` until
    /// the next [`CircuitBreaker::admit`] turns it into a probe.
    pub fn state_name(&self) -> &'static str {
        match &*self.state.lock().unwrap() {
            State::Closed { .. } => "closed",
            State::Open { .. } => "open",
            State::HalfOpen => "half-open",
        }
    }

    /// Decides whether a model-path request may proceed right now.
    pub fn admit(&self) -> Admission {
        if self.cfg.threshold == 0 {
            return Admission::Allow;
        }
        let mut state = self.state.lock().unwrap();
        match &*state {
            State::Closed { .. } => Admission::Allow,
            State::Open { until } => {
                let now = Instant::now();
                if now >= *until {
                    *state = State::HalfOpen;
                    wb_obs::gauge!("serve.breaker.state", 0.5);
                    wb_obs::info!("circuit breaker half-open: admitting one probe");
                    Admission::Probe
                } else {
                    wb_obs::counter!("serve.breaker.rejected");
                    let secs = (*until - now).as_secs_f64().ceil().max(1.0) as u64;
                    Admission::Reject { retry_after_secs: secs }
                }
            }
            // One probe is already in flight; everyone else keeps backing
            // off until its outcome is known.
            State::HalfOpen => {
                wb_obs::counter!("serve.breaker.rejected");
                let secs = self.cfg.cooldown.as_secs_f64().ceil().max(1.0) as u64;
                Admission::Reject { retry_after_secs: secs }
            }
        }
    }

    /// Records one successful model batch.
    pub fn record_success(&self) {
        if self.cfg.threshold == 0 {
            return;
        }
        let mut state = self.state.lock().unwrap();
        match &mut *state {
            State::Closed { failures } => failures.clear(),
            State::HalfOpen => {
                *state = State::Closed { failures: Vec::new() };
                wb_obs::counter!("serve.breaker.closed");
                wb_obs::gauge!("serve.breaker.state", 0.0);
                wb_obs::info!("circuit breaker closed: probe succeeded");
            }
            // A success while open can only be a batch that was already
            // running when the circuit tripped; the cooldown stands.
            State::Open { .. } => {}
        }
    }

    /// Records one failed (panicked) model batch.
    pub fn record_failure(&self) {
        if self.cfg.threshold == 0 {
            return;
        }
        let now = Instant::now();
        let mut state = self.state.lock().unwrap();
        match &mut *state {
            State::Closed { failures } => {
                failures.push(now);
                failures.retain(|t| now.duration_since(*t) <= self.cfg.window);
                if failures.len() >= self.cfg.threshold as usize {
                    *state = State::Open { until: now + self.cfg.cooldown };
                    wb_obs::counter!("serve.breaker.opened");
                    wb_obs::gauge!("serve.breaker.state", 1.0);
                    wb_obs::warn!(
                        "circuit breaker opened: {} model failures within {:?}; \
                         cache-only for {:?}",
                        self.cfg.threshold,
                        self.cfg.window,
                        self.cfg.cooldown
                    );
                }
            }
            State::HalfOpen => {
                *state = State::Open { until: now + self.cfg.cooldown };
                wb_obs::counter!("serve.breaker.reopened");
                wb_obs::gauge!("serve.breaker.state", 1.0);
                wb_obs::warn!("circuit breaker re-opened: probe failed");
            }
            State::Open { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threshold: u32, cooldown_ms: u64) -> BreakerConfig {
        BreakerConfig {
            threshold,
            window: Duration::from_secs(10),
            cooldown: Duration::from_millis(cooldown_ms),
        }
    }

    #[test]
    fn stays_closed_below_threshold() {
        let b = CircuitBreaker::new(cfg(3, 50));
        b.record_failure();
        b.record_failure();
        assert_eq!(b.admit(), Admission::Allow);
    }

    #[test]
    fn trips_open_at_threshold_and_rejects() {
        let b = CircuitBreaker::new(cfg(2, 10_000));
        b.record_failure();
        b.record_failure();
        match b.admit() {
            Admission::Reject { retry_after_secs } => assert!(retry_after_secs >= 1),
            other => panic!("expected Reject, got {other:?}"),
        }
    }

    #[test]
    fn success_clears_the_failure_window() {
        let b = CircuitBreaker::new(cfg(2, 50));
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.admit(), Admission::Allow, "success must reset the count");
    }

    #[test]
    fn half_open_probe_success_closes() {
        let b = CircuitBreaker::new(cfg(1, 20));
        b.record_failure();
        assert!(matches!(b.admit(), Admission::Reject { .. }));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(b.admit(), Admission::Probe);
        // While the probe is out, everyone else is still rejected.
        assert!(matches!(b.admit(), Admission::Reject { .. }));
        b.record_success();
        assert_eq!(b.admit(), Admission::Allow);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let b = CircuitBreaker::new(cfg(1, 20));
        b.record_failure();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(b.admit(), Admission::Probe);
        b.record_failure();
        assert!(matches!(b.admit(), Admission::Reject { .. }), "failed probe must re-open");
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(b.admit(), Admission::Probe, "a fresh cooldown admits another probe");
    }

    #[test]
    fn state_name_tracks_transitions() {
        let b = CircuitBreaker::new(cfg(1, 20));
        assert_eq!(b.state_name(), "closed");
        b.record_failure();
        assert_eq!(b.state_name(), "open");
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(b.admit(), Admission::Probe);
        assert_eq!(b.state_name(), "half-open");
        b.record_success();
        assert_eq!(b.state_name(), "closed");
    }

    #[test]
    fn threshold_zero_disables_everything() {
        let b = CircuitBreaker::new(cfg(0, 10));
        for _ in 0..100 {
            b.record_failure();
        }
        assert_eq!(b.admit(), Admission::Allow);
    }
}
