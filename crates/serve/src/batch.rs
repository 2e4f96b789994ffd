//! The replica queue and its executors. The event loop submits each
//! `/brief` miss as a [`Job`]; the replica's executors take them one page
//! at a time — the oldest queued job plus every queued duplicate of its
//! page — brief it with [`Briefer::brief_batch`], serialise it, fill the
//! replica's cache, and push one [`Completion`] per job back to the loop
//! through [`Completions`]. Duplicates coalesce into one model run, and
//! distinct pages run side by side on separate executors. Executors are
//! rayon pool workers, so a page's own nested parallel calls run inline
//! on its executor instead of spawning threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wb_core::{BriefError, Briefer};

use crate::cache::Fingerprint;
use crate::event::{Completions, Done};
use crate::replica::Replica;
use crate::telemetry::micros_since;

/// The outcome of briefing one queued page.
#[derive(Debug, Clone)]
pub(crate) enum BriefOutcome {
    /// The pretty-printed `Brief` JSON (shared, so a batch of identical
    /// pages serialises once).
    Ok(Arc<String>),
    /// The page itself cannot be briefed (unparseable, no visible text)
    /// → 422 for this request, the batch is unaffected.
    Unbriefable(String),
    /// Briefing this page panicked → 500.
    Internal(String),
    /// The request's deadline passed while it queued → 504. Issued only
    /// *before* the model runs: once a page enters the batch, its result
    /// is returned even if it arrives late.
    Expired,
}

/// What an executor sends back for one job: the connection it answers,
/// the outcome, and the executor-side share of the request's stage
/// breakdown. Take-scoped stages are whole-take durations attributed to
/// every requester of the page — they all waited for the one model run.
#[derive(Debug)]
pub(crate) struct Completion {
    /// Connection slot of the job.
    pub conn: usize,
    /// Generation of that slot when the job was submitted.
    pub generation: u64,
    /// The briefing outcome.
    pub outcome: BriefOutcome,
    /// Microseconds between submission and an executor taking the job.
    pub queue_wait_us: u64,
    /// Microseconds the take spent in the model (including any
    /// configured handler delay, which stands in for model cost). Zero
    /// for jobs that expired before the model ran.
    pub model_us: u64,
    /// Microseconds serialising the page's brief to JSON and storing it
    /// in the cache.
    pub serialize_us: u64,
}

/// One queued `/brief` miss.
pub(crate) struct Job {
    /// Raw request body, moved off the connection (decoded as UTF-8 by
    /// the executor, not the event loop).
    pub body: Vec<u8>,
    /// Cache key of `body`, for the cache fill.
    pub key: u64,
    /// Fingerprint of `body`, stored beside the key.
    pub fp: Fingerprint,
    /// Latest moment this request is still worth answering; checked by the
    /// executor before the model runs.
    pub deadline: Instant,
    /// When the loop submitted the job — the start of the `queue_wait`
    /// stage.
    pub submitted: Instant,
    /// Connection slot the completion goes back to.
    pub conn: usize,
    /// Generation of that slot at submission (guards recycled slots).
    pub generation: u64,
}

/// Jobs queued across every batcher in the process: the source of the
/// `serve.queue.depth` gauge.
static QUEUED: AtomicUsize = AtomicUsize::new(0);

struct Queue {
    jobs: Vec<Job>,
    closed: bool,
}

/// One replica's bounded job queue between the event loop and the
/// executors.
pub(crate) struct Batcher {
    queue: Mutex<Queue>,
    cv: Condvar,
    capacity: usize,
}

impl Batcher {
    /// Creates an empty, open batcher holding at most `capacity` (≥ 1)
    /// queued jobs.
    pub fn new(capacity: usize) -> Self {
        Batcher {
            queue: Mutex::new(Queue { jobs: Vec::new(), closed: false }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a job for an executor to take. Returns `false` (and drops
    /// the job) when the queue is full or closed.
    pub fn submit(&self, job: Job) -> bool {
        let mut q = self.queue.lock().unwrap();
        if q.closed || q.jobs.len() >= self.capacity {
            return false;
        }
        q.jobs.push(job);
        let depth = QUEUED.fetch_add(1, Ordering::Relaxed) + 1;
        wb_obs::gauge!("serve.queue.depth", depth as f64);
        wb_obs::gauge_max!("serve.queue.depth.peak", depth as f64);
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
                    queued.partition(|j| j.body == oldest.body);
                q.jobs = rest;
                let take: Vec<Job> = std::iter::once(oldest).chain(same).collect();
                let depth = QUEUED.fetch_sub(take.len(), Ordering::Relaxed) - take.len();
                wb_obs::gauge!("serve.queue.depth", depth as f64);
                return Some(take);
            }
            if q.closed {
                return None;
            }
            q = self.cv.wait(q).unwrap();
        }
    }
}

/// Runs `executors` executor loops on `replica`'s batcher until it is
/// closed and drained. The loops are the workers of one rayon fan-out, so
/// every executor thread is a pool worker and a page's nested parallel
/// calls (`brief_batch`, the attention matmuls) run inline on it instead
/// of spawning threads. The fan-out is capped at
/// `rayon::current_num_threads()` workers; with one, the single loop runs
/// on the calling thread.
pub(crate) fn run_executors(
    replica: &Replica,
    executors: usize,
    briefer: &Briefer,
    handler_delay: Duration,
    completions: &Completions,
) {
    rayon::parallel_for_each((0..executors.max(1)).collect(), |_| {
        run_executor(replica, briefer, handler_delay, completions)
    });
}

/// The executor loop: take → brief → serialise → fill the cache → push
/// completions, until closed. Any number of executors may run this loop
/// on one batcher at once. `handler_delay` stalls each take before the
/// model runs — a load-testing knob (`--handler-delay-ms`) that makes
/// overload behaviour reproducible; zero in production.
///
/// Every take is one page: the model runs once and every requester of
/// that page shares the one serialised response. A page whose briefing
/// panics answers its requests with [`BriefOutcome::Internal`], records
/// one failure on the replica's breaker and never kills the server; any
/// other briefed page records a success. Jobs whose deadline has already
/// passed are answered [`BriefOutcome::Expired`] before the model runs
/// and do not occupy it.
fn run_executor(
    replica: &Replica,
    briefer: &Briefer,
    handler_delay: Duration,
    completions: &Completions,
) {
    while let Some(jobs) = replica.batcher.next_batch() {
        let _span = wb_obs::span!("serve.batch");
        wb_obs::histogram!("serve.batch.size", jobs.len());
        // Everything from here to the end of brief_batch is "model"
        // time for this take: the handler-delay stall simulates model
        // cost, and the deadline gate is noise next to it.
        let drained = Instant::now();
        let queue_wait = |job: &Job| {
            u64::try_from(drained.saturating_duration_since(job.submitted).as_micros())
                .unwrap_or(u64::MAX)
        };
        let reply = |job: &Job, outcome: BriefOutcome, model_us: u64, serialize_us: u64| {
            completions.push(Done::Brief(Completion {
                conn: job.conn,
                generation: job.generation,
                outcome,
                queue_wait_us: queue_wait(job),
                model_us,
                serialize_us,
            }))
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
            for job in &expired {
                reply(job, BriefOutcome::Expired, 0, 0);
            }
        }
        let Some(first) = jobs.first() else { continue };
        wb_obs::counter!("serve.batch.pages");
        let html = String::from_utf8_lossy(&first.body);
        let result = {
            let _page = wb_obs::span!("brief.page");
            briefer
                .brief_batch(&[&*html], |html| {
                    if wb_chaos::fault_point!("serve.worker.pre_model").is_some() {
                        // An injected `error`/`nan` at this point stands in
                        // for any pre-model failure; it must look like a
                        // model panic to the page (and hence to the breaker).
                        panic!("injected fault: serve.worker.pre_model");
                    }
                    briefer.prepare_html(html)
                })
                .pop()
                .expect("one result per page")
        };
        let model_us = micros_since(drained);
        if matches!(result, Err(BriefError::Panicked(_))) {
            replica.breaker.record_failure();
            wb_obs::error!("briefing panicked on a page ({} requests)", jobs.len());
            wb_obs::counter!("serve.batch.panics");
        } else {
            replica.breaker.record_success();
        }
        let serialize_t0 = Instant::now();
        let outcome = match result {
            Ok(brief) => match serde_json::to_string_pretty(&brief) {
                Ok(json) => {
                    let json = Arc::new(json);
                    replica.cache.lock().unwrap().insert(
                        first.key,
                        first.fp,
                        Arc::clone(&json),
                    );
                    BriefOutcome::Ok(json)
                }
                Err(e) => BriefOutcome::Internal(format!("brief serialisation: {e}")),
            },
            Err(BriefError::Panicked(_)) => {
                BriefOutcome::Internal("briefing failed internally".to_string())
            }
            Err(e) => BriefOutcome::Unbriefable(e.to_string()),
        };
        let serialize_us = micros_since(serialize_t0);
        for job in &jobs {
            reply(job, outcome.clone(), model_us, serialize_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use crate::cache::fnv1a;
    use crate::replica::ReplicaSet;
    use std::collections::HashMap;
    use wb_core::{JointModel, JointVariant, ModelConfig};
    use wb_corpus::{Dataset, DatasetConfig};

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    fn job(html: &str, conn: usize) -> Job {
        let body = html.as_bytes().to_vec();
        Job {
            key: fnv1a(&body),
            fp: Fingerprint::of(&body),
            body,
            deadline: far_deadline(),
            submitted: Instant::now(),
            conn,
            generation: 1,
        }
    }

    #[test]
    fn close_rejects_new_jobs_and_wakes_executor() {
        let b = Batcher::new(4);
        b.close();
        assert!(!b.submit(job("<html/>", 0)));
        assert!(b.next_batch().is_none());
    }

    #[test]
    fn a_full_queue_rejects_new_jobs() {
        let b = Batcher::new(1);
        assert!(b.submit(job("<p>0</p>", 0)));
        assert!(!b.submit(job("<p>1</p>", 1)));
        assert_eq!(b.next_batch().map(|take| take.len()), Some(1));
        assert!(b.submit(job("<p>1</p>", 1)), "a take frees its slot");
        assert_eq!(b.next_batch().map(|take| take.len()), Some(1));
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

    /// Waits up to 30 s for `n` completions and returns them keyed by
    /// connection slot.
    fn collect(completions: &Completions, n: usize) -> HashMap<usize, Completion> {
        let t0 = Instant::now();
        let mut got = HashMap::new();
        while got.len() < n {
            for done in completions.drain() {
                if let Done::Brief(c) = done {
                    got.insert(c.conn, c);
                }
            }
            assert!(t0.elapsed() < Duration::from_secs(30), "{} of {n} completions", got.len());
            std::thread::sleep(Duration::from_millis(1));
        }
        got
    }

    #[test]
    fn a_panicking_page_fails_only_its_own_requests() {
        let _chaos = wb_chaos::test_lock();
        let briefer = tiny_briefer();
        let pages: Vec<String> = (0..3).map(page).collect();
        // All three are queued before the executor starts; each take is
        // one page, and the fault fires on the second page briefed.
        let set =
            ReplicaSet::new(1, 0, 8, BreakerConfig { threshold: 1, ..Default::default() });
        let replica = &set.all()[0];
        for (conn, html) in pages.iter().enumerate() {
            assert!(replica.batcher.submit(job(html, conn)));
        }
        replica.batcher.close();
        let completions = Completions::new().unwrap();
        wb_chaos::arm_str("serve.worker.pre_model=panic@nth(2)").unwrap();
        run_executor(replica, &briefer, Duration::ZERO, &completions);
        wb_chaos::disarm();
        let mut done = collect(&completions, pages.len());
        let mut internal = 0;
        for (conn, page) in pages.iter().enumerate() {
            match done.remove(&conn).unwrap().outcome {
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
        assert_eq!(replica.breaker.state_name(), "open");
    }

    #[test]
    fn two_executors_brief_distinct_pages_side_by_side() {
        if rayon::current_num_threads() < 2 {
            // A one-thread pool hosts a single executor: nothing to overlap.
            return;
        }
        let briefer = tiny_briefer();
        let set = ReplicaSet::new(1, 0, 8, BreakerConfig::default());
        let replica = &set.all()[0];
        let completions = Completions::new().unwrap();
        let delay = Duration::from_millis(400);
        let (outcomes, elapsed) = std::thread::scope(|scope| {
            scope.spawn(|| run_executors(replica, 2, &briefer, delay, &completions));
            let t0 = Instant::now();
            assert!(replica.batcher.submit(job(&page(0), 0)));
            // The second page arrives while the first is in its stall; a
            // lone executor would take it only after the first finished.
            std::thread::sleep(Duration::from_millis(50));
            assert!(replica.batcher.submit(job(&page(1), 1)));
            let mut done = collect(&completions, 2);
            let outcomes = [0, 1].map(|conn| done.remove(&conn).map(|c| c.outcome));
            let elapsed = t0.elapsed();
            replica.batcher.close();
            (outcomes, elapsed)
        });
        for outcome in outcomes {
            assert!(matches!(outcome, Some(BriefOutcome::Ok(_))), "{outcome:?}");
        }
        assert!(
            elapsed < delay * 3 / 2,
            "two distinct pages took {elapsed:?} with a {delay:?} stall each"
        );
    }

    #[test]
    fn next_batch_takes_one_page_and_its_duplicates() {
        let b = Batcher::new(8);
        for (conn, i) in [0, 1, 0, 2, 0].into_iter().enumerate() {
            assert!(b.submit(job(&format!("<p>{i}</p>"), conn)));
        }
        let pages = |take: Vec<Job>| {
            take.into_iter().map(|j| String::from_utf8(j.body).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(pages(b.next_batch().unwrap()), ["<p>0</p>"; 3]);
        assert_eq!(pages(b.next_batch().unwrap()), ["<p>1</p>"]);
        assert_eq!(pages(b.next_batch().unwrap()), ["<p>2</p>"]);
        b.close();
        assert!(b.next_batch().is_none());
    }
}
