//! Micro-batching: concurrent `/brief` requests queue here and a single
//! executor drains the whole queue into [`Briefer::brief_batch`], so
//! simultaneous requests share one rayon fan-out instead of contending for
//! the pool one page at a time. While a batch runs, newly arriving
//! requests accumulate and form the next batch.

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
/// are whole-batch durations attributed to every member — the batch runs
/// as one unit, so each request really did wait for the whole model run.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The briefing outcome.
    pub outcome: BriefOutcome,
    /// Microseconds this job waited between submission and its batch
    /// being drained by the executor.
    pub batch_wait_us: u64,
    /// Microseconds the batch spent in the model (including any
    /// configured handler delay, which stands in for model cost). Zero
    /// for jobs that expired before the model ran.
    pub model_us: u64,
    /// Microseconds serialising the batch's briefs to JSON.
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

/// The shared job queue between request workers and the batch executor.
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

    /// Enqueues a job for the next batch. Returns `false` (and drops the
    /// job) once the batcher is closed.
    pub fn submit(&self, job: Job) -> bool {
        let mut q = self.queue.lock().unwrap();
        if q.closed {
            return false;
        }
        q.jobs.push(job);
        self.cv.notify_all();
        true
    }

    /// Closes the queue: pending jobs still run, new submissions fail and
    /// the executor exits once drained.
    pub fn close(&self) {
        self.queue.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    /// Blocks until jobs are available (or the batcher closes) and takes
    /// the entire pending queue. `None` means closed-and-drained.
    fn next_batch(&self) -> Option<Vec<Job>> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if !q.jobs.is_empty() {
                return Some(std::mem::take(&mut q.jobs));
            }
            if q.closed {
                return None;
            }
            q = self.cv.wait(q).unwrap();
        }
    }

    /// The batch-executor loop: drain → brief → respond, until closed.
    /// `handler_delay` stalls each batch before the model runs — a load-
    /// testing knob (`--handler-delay-ms`) that makes overload behaviour
    /// reproducible; zero in production.
    ///
    /// Identical pages within a batch are coalesced: the model runs once
    /// per distinct page and every requester shares the one serialised
    /// response. A page whose briefing panics answers only its own
    /// requests with [`BriefOutcome::Internal`] and never kills the
    /// server; a batch with any panicked page records one failure on
    /// `breaker`, any other batch a success. Jobs whose deadline has
    /// already passed are answered [`BriefOutcome::Expired`] before the
    /// model runs and do not occupy it.
    pub fn run_executor(
        &self,
        briefer: &Briefer,
        handler_delay: Duration,
        breaker: &CircuitBreaker,
    ) {
        while let Some(jobs) = self.next_batch() {
            let _span = wb_obs::span!("serve.batch");
            wb_obs::histogram!("serve.batch.size", jobs.len());
            // Everything from here to the end of brief_batch is "model"
            // time for this batch: the handler-delay stall simulates model
            // cost, and the deadline gate/coalescing are noise next to it.
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
            if jobs.is_empty() {
                continue;
            }
            // Coalesce duplicate pages (first-occurrence order keeps the
            // batch deterministic regardless of arrival interleaving).
            let mut uniq: Vec<&str> = Vec::new();
            let mut index_of: Vec<usize> = Vec::with_capacity(jobs.len());
            for job in &jobs {
                match uniq.iter().position(|u| *u == job.html) {
                    Some(i) => index_of.push(i),
                    None => {
                        uniq.push(&job.html);
                        index_of.push(uniq.len() - 1);
                    }
                }
            }
            wb_obs::counter!("serve.batch.pages", uniq.len());
            let results = briefer.brief_batch(&uniq, |html| {
                if wb_chaos::fault_point!("serve.worker.pre_model").is_some() {
                    // An injected `error`/`nan` at this point stands in for
                    // any pre-model failure; it must look like a model
                    // panic to the page (and hence to the breaker).
                    panic!("injected fault: serve.worker.pre_model");
                }
                briefer.brief_html(html)
            });
            let model_us = u64::try_from(drained.elapsed().as_micros()).unwrap_or(u64::MAX);
            let serialize_t0 = Instant::now();
            let mut panics = 0usize;
            let outcomes: Vec<BriefOutcome> = results
                .into_iter()
                .map(|r| match r {
                    Ok(brief) => match serde_json::to_string_pretty(&brief) {
                        Ok(json) => BriefOutcome::Ok(Arc::new(json)),
                        Err(e) => BriefOutcome::Internal(format!("brief serialisation: {e}")),
                    },
                    Err(BriefError::Panicked(_)) => {
                        panics += 1;
                        BriefOutcome::Internal("briefing failed internally".to_string())
                    }
                    Err(e) => BriefOutcome::Unbriefable(e.to_string()),
                })
                .collect();
            if panics > 0 {
                breaker.record_failure();
                wb_obs::error!("briefing panicked on {panics} of {} pages", uniq.len());
                wb_obs::counter!("serve.batch.panics", panics);
            } else {
                breaker.record_success();
            }
            let serialize_us =
                u64::try_from(serialize_t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            for (job, &uniq_idx) in jobs.iter().zip(&index_of) {
                let _ = job.tx.send(Completion {
                    outcome: outcomes[uniq_idx].clone(),
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

    #[test]
    fn a_panicking_page_fails_only_its_own_requests() {
        let _chaos = wb_chaos::test_lock();
        let d = Dataset::generate(&DatasetConfig::tiny());
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let briefer = Briefer::from_model(
            JointModel::new(JointVariant::JointWb, cfg, 11),
            d.tokenizer.clone(),
        );
        let pages: Vec<String> = (0..3)
            .map(|i| format!("<html><body><p>great velcro books {i} , price : $ {i}.99 .</p></body></html>"))
            .collect();
        // All three are queued before the executor drains, so they form
        // one batch; the fault fires on the second page briefed.
        let b = Batcher::new();
        let rxs: Vec<_> = pages
            .iter()
            .map(|html| {
                let (tx, rx) = channel();
                let job = Job {
                    html: html.clone(),
                    deadline: far_deadline(),
                    submitted: Instant::now(),
                    tx,
                };
                assert!(b.submit(job));
                rx
            })
            .collect();
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
        // Threshold 1: the batch's one recorded failure opened the circuit.
        assert_eq!(breaker.state_name(), "open");
    }

    #[test]
    fn next_batch_takes_everything_pending() {
        let b = Batcher::new();
        for i in 0..5 {
            let (tx, _rx) = channel();
            assert!(b.submit(Job {
                html: format!("<p>{i}</p>"),
                deadline: far_deadline(),
                submitted: Instant::now(),
                tx
            }));
        }
        let batch = b.next_batch().unwrap();
        assert_eq!(batch.len(), 5);
        b.close();
        assert!(b.next_batch().is_none());
    }
}
