//! Micro-batching: concurrent `/brief` requests queue here and the
//! replica's executors take them one page at a time — the oldest queued
//! job plus every queued duplicate of its page — into
//! [`Briefer::brief_batch`]. Duplicates coalesce into one model run, and
//! distinct pages run side by side on separate executors. Executors are
//! rayon pool workers (see `crate::server`), so a page's own nested
//! parallel calls run inline on its executor instead of spawning threads.

use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wb_core::{BriefError, Briefer};

use crate::breaker::CircuitBreaker;

/// The outcome of briefing one queued page.
#[derive(Debug, Clone)]
pub enum BriefOutcome {
    /// The pretty-printed `Brief` JSON (shared, so a batch of identical
    /// pages serialises once).
    Ok(Arc<String>),
    /// The page itself cannot be briefed (unparseable, no visible text)
    /// → 422 for this request, the batch is unaffected.
    Unbriefable(String),
    /// Briefing this page panicked or the executor is gone → 500.
    Internal(String),
    /// The request's deadline passed while it queued → 504. Issued only
    /// *before* the model runs: once a page enters the batch, its result
    /// is returned even if it arrives late.
    Expired,
}

/// What the executor sends back for one job: the outcome plus the
/// executor-side share of the request's stage breakdown. Batch stages
/// are whole-take durations attributed to every requester of the page —
/// they all waited for the one model run.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The briefing outcome.
    pub outcome: BriefOutcome,
    /// Microseconds this job waited between submission and an executor
    /// taking it.
    pub batch_wait_us: u64,
    /// Microseconds the take spent in the model (including any
    /// configured handler delay, which stands in for model cost). Zero
    /// for jobs that expired before the model ran.
    pub model_us: u64,
    /// Microseconds serialising the page's brief to JSON.
    pub serialize_us: u64,
}

impl Completion {
    fn expired(batch_wait_us: u64) -> Self {
        Completion {
            outcome: BriefOutcome::Expired,
            batch_wait_us,
            model_us: 0,
            serialize_us: 0,
        }
    }
}

/// One queued request: the page and the channel its outcome goes back on.
pub struct Job {
    /// Raw page HTML.
    pub html: String,
    /// Latest moment this request is still worth answering; checked by the
    /// executor before the model runs.
    pub deadline: Instant,
    /// When the worker submitted the job — the start of the `batch_wait`
    /// stage.
    pub submitted: Instant,
    /// Completion channel back to the waiting worker. Send failures are
    /// ignored — the worker may have timed out and gone away.
    pub tx: Sender<Completion>,
}

struct Queue {
    jobs: Vec<Job>,
    closed: bool,
}

/// The shared job queue between request workers and the executors.
pub struct Batcher {
    queue: Mutex<Queue>,
    cv: Condvar,
}

impl Batcher {
    /// Creates an empty, open batcher.
    pub fn new() -> Self {
        Batcher {
            queue: Mutex::new(Queue { jobs: Vec::new(), closed: false }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues a job for an executor to take. Returns `false` (and drops
    /// the job) once the batcher is closed.
    pub fn submit(&self, job: Job) -> bool {
        let mut q = self.queue.lock().unwrap();
        if q.closed {
            return false;
        }
        q.jobs.push(job);
        // One new job needs at most one more executor awake.
        self.cv.notify_one();
        true
    }

    /// Closes the queue: pending jobs still run, new submissions fail and
    /// the executors exit once it is drained.
    pub fn close(&self) {
        self.queue.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// Blocks until jobs are available (or the batcher closes) and takes
    /// the oldest queued job plus every queued job for the same page —
    /// one page per take, so a burst of distinct pages spreads across
    /// idle executors instead of one executor briefing them serially.
    /// `None` means closed-and-drained.
    fn next_batch(&self) -> Option<Vec<Job>> {
        let mut q = self.queue.lock().unwrap();
        loop {
            let mut queued = std::mem::take(&mut q.jobs).into_iter();
            if let Some(oldest) = queued.next() {
                let (same, rest): (Vec<Job>, Vec<Job>) =
                    queued.partition(|j| j.html == oldest.html);
                q.jobs = rest;
                return Some(std::iter::once(oldest).chain(same).collect());
            }
            if q.closed {
                return None;
            }
            q = self.cv.wait(q).unwrap();
        }
    }

    /// Runs `executors` executor loops on this batcher until it is closed
    /// and drained. The loops are the workers of one rayon fan-out, so
    /// every executor thread is a pool worker and a page's nested parallel
    /// calls (`brief_batch`, the attention matmuls) run inline on it
    /// instead of spawning threads. The fan-out is capped at
    /// `rayon::current_num_threads()` workers; with one, the single loop
    /// runs on the calling thread.
    pub fn run_executors(
        &self,
        executors: usize,
        briefer: &Briefer,
        handler_delay: Duration,
        breaker: &CircuitBreaker,
    ) {
        rayon::parallel_for_each((0..executors.max(1)).collect(), |_| {
            self.run_executor(briefer, handler_delay, breaker)
        });
    }

    /// The executor loop: take → brief → respond, until closed. Any
    /// number of executors may run this loop on one batcher at once.
    /// `handler_delay` stalls each take before the model runs — a load-
    /// testing knob (`--handler-delay-ms`) that makes overload behaviour
    /// reproducible; zero in production.
    ///
    /// Every take is one page: the model runs once and every requester
    /// of that page shares the one serialised response. A page whose
    /// briefing panics answers its requests with
    /// [`BriefOutcome::Internal`], records one failure on `breaker` and
    /// never kills the server; any other briefed page records a success.
    /// Jobs whose deadline has already passed are answered
    /// [`BriefOutcome::Expired`] before the model runs and do not occupy
    /// it.
    fn run_executor(
        &self,
        briefer: &Briefer,
        handler_delay: Duration,
        breaker: &CircuitBreaker,
    ) {
        while let Some(jobs) = self.next_batch() {
            let _span = wb_obs::span!("serve.batch");
            wb_obs::histogram!("serve.batch.size", jobs.len());
            // Everything from here to the end of brief_batch is "model"
            // time for this take: the handler-delay stall simulates model
            // cost, and the deadline gate is noise next to it.
            let drained = Instant::now();
            let batch_wait = |job: &Job| {
                u64::try_from(drained.saturating_duration_since(job.submitted).as_micros())
                    .unwrap_or(u64::MAX)
            };
            if !handler_delay.is_zero() {
                std::thread::sleep(handler_delay);
            }
            // Deadline gate: anything already expired gets its 504 now,
            // before the model runs — never after.
            let now = Instant::now();
            let (jobs, expired): (Vec<Job>, Vec<Job>) =
                jobs.into_iter().partition(|j| j.deadline >= now);
            if !expired.is_empty() {
                wb_obs::counter!("serve.deadline.expired", expired.len());
                for job in expired {
                    let wait = batch_wait(&job);
                    let _ = job.tx.send(Completion::expired(wait));
                }
            }
            let Some(first) = jobs.first() else { continue };
            wb_obs::counter!("serve.batch.pages");
            let result = briefer
                .brief_batch(&[first.html.as_str()], |html| {
                    if wb_chaos::fault_point!("serve.worker.pre_model").is_some() {
                        // An injected `error`/`nan` at this point stands in
                        // for any pre-model failure; it must look like a
                        // model panic to the page (and hence to the breaker).
                        panic!("injected fault: serve.worker.pre_model");
                    }
                    briefer.brief_html(html)
                })
                .pop()
                .expect("one result per page");
            let model_us = u64::try_from(drained.elapsed().as_micros()).unwrap_or(u64::MAX);
            if matches!(result, Err(BriefError::Panicked(_))) {
                breaker.record_failure();
                wb_obs::error!("briefing panicked on a page ({} requests)", jobs.len());
                wb_obs::counter!("serve.batch.panics");
            } else {
                breaker.record_success();
            }
            let serialize_t0 = Instant::now();
            let outcome = match result {
                Ok(brief) => match serde_json::to_string_pretty(&brief) {
                    Ok(json) => BriefOutcome::Ok(Arc::new(json)),
                    Err(e) => BriefOutcome::Internal(format!("brief serialisation: {e}")),
                },
                Err(BriefError::Panicked(_)) => {
                    BriefOutcome::Internal("briefing failed internally".to_string())
                }
                Err(e) => BriefOutcome::Unbriefable(e.to_string()),
            };
            let serialize_us =
                u64::try_from(serialize_t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            for job in &jobs {
                let _ = job.tx.send(Completion {
                    outcome: outcome.clone(),
                    batch_wait_us: batch_wait(job),
                    model_us,
                    serialize_us,
                });
            }
        }
    }
}

impl Default for Batcher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use std::sync::mpsc::channel;
    use wb_core::{JointModel, JointVariant, ModelConfig};
    use wb_corpus::{Dataset, DatasetConfig};

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    #[test]
    fn close_rejects_new_jobs_and_wakes_executor() {
        let b = Batcher::new();
        b.close();
        let (tx, _rx) = channel();
        assert!(!b.submit(Job {
            html: "<html/>".into(),
            deadline: far_deadline(),
            submitted: Instant::now(),
            tx
        }));
        assert!(b.next_batch().is_none());
    }

    fn tiny_briefer() -> Briefer {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        Briefer::from_model(
            JointModel::new(JointVariant::JointWb, cfg, 11),
            d.tokenizer.clone(),
        )
    }

    fn page(i: usize) -> String {
        format!("<html><body><p>great velcro books {i} , price : $ {i}.99 .</p></body></html>")
    }

    /// Queues a job for `html` and returns the channel its completion
    /// arrives on.
    fn submit(b: &Batcher, html: &str) -> std::sync::mpsc::Receiver<Completion> {
        let (tx, rx) = channel();
        let job = Job {
            html: html.to_string(),
            deadline: far_deadline(),
            submitted: Instant::now(),
            tx,
        };
        assert!(b.submit(job));
        rx
    }

    #[test]
    fn a_panicking_page_fails_only_its_own_requests() {
        let _chaos = wb_chaos::test_lock();
        let briefer = tiny_briefer();
        let pages: Vec<String> = (0..3).map(page).collect();
        // All three are queued before the executor starts; each take is
        // one page, and the fault fires on the second page briefed.
        let b = Batcher::new();
        let rxs: Vec<_> = pages.iter().map(|html| submit(&b, html)).collect();
        b.close();
        let breaker = CircuitBreaker::new(BreakerConfig { threshold: 1, ..Default::default() });
        wb_chaos::arm_str("serve.worker.pre_model=panic@nth(2)").unwrap();
        b.run_executor(&briefer, Duration::ZERO, &breaker);
        wb_chaos::disarm();
        let mut internal = 0;
        for (page, rx) in pages.iter().zip(rxs) {
            match rx.recv().unwrap().outcome {
                BriefOutcome::Ok(json) => {
                    let expected =
                        serde_json::to_string_pretty(&briefer.brief_html(page).unwrap())
                            .unwrap();
                    assert_eq!(*json, expected);
                }
                BriefOutcome::Internal(_) => internal += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(internal, 1, "only the panicked page fails");
        // Threshold 1: the panicked page's one recorded failure opened
        // the circuit, and the page briefed after it did not close it.
        assert_eq!(breaker.state_name(), "open");
    }

    #[test]
    fn two_executors_brief_distinct_pages_side_by_side() {
        if rayon::current_num_threads() < 2 {
            // A one-thread pool hosts a single executor: nothing to overlap.
            return;
        }
        let briefer = tiny_briefer();
        let breaker = CircuitBreaker::new(BreakerConfig::default());
        let delay = Duration::from_millis(400);
        let b = Batcher::new();
        let (outcomes, elapsed) = std::thread::scope(|scope| {
            scope.spawn(|| b.run_executors(2, &briefer, delay, &breaker));
            let t0 = Instant::now();
            let first = submit(&b, &page(0));
            // The second page arrives while the first is in its stall; a
            // lone executor would take it only after the first finished.
            std::thread::sleep(Duration::from_millis(50));
            let second = submit(&b, &page(1));
            let outcomes = [first, second].map(|rx| rx.recv().map(|done| done.outcome));
            let elapsed = t0.elapsed();
            b.close();
            (outcomes, elapsed)
        });
        for outcome in outcomes {
            assert!(matches!(outcome, Ok(BriefOutcome::Ok(_))), "{outcome:?}");
        }
        assert!(
            elapsed < delay * 3 / 2,
            "two distinct pages took {elapsed:?} with a {delay:?} stall each"
        );
    }

    #[test]
    fn next_batch_takes_one_page_and_its_duplicates() {
        let b = Batcher::new();
        let _rxs: Vec<_> = [0, 1, 0, 2, 0].map(|i| submit(&b, &format!("<p>{i}</p>"))).into();
        let pages = |take: Vec<Job>| take.into_iter().map(|j| j.html).collect::<Vec<_>>();
        assert_eq!(pages(b.next_batch().unwrap()), ["<p>0</p>"; 3]);
        assert_eq!(pages(b.next_batch().unwrap()), ["<p>1</p>"]);
        assert_eq!(pages(b.next_batch().unwrap()), ["<p>2</p>"]);
        b.close();
        assert!(b.next_batch().is_none());
    }
}
