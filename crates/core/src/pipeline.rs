//! The `wb crawl-brief` streaming pipeline: crawl + parse + chunk → brief
//! → JSONL sink, as three stages joined by *bounded* queues.
//!
//! The crawler and briefer stages split [`Briefer::brief_html`] in two:
//! the crawler calls [`Briefer::prepare`] on the page it has just parsed
//! and the briefer stage hands a batch of chunked pages to
//! [`Briefer::brief_batch`]. So a page's brief, and the dead-letter reason
//! of a page that cannot brief, are the same as `wb brief` and `wb serve`
//! give for it.
//!
//! Design invariants:
//!
//! * **Bounded memory.** Every inter-stage queue is a
//!   `std::sync::mpsc::sync_channel` with a fixed capacity, so a slow
//!   briefer back-pressures the pull-based crawl frontier. Peak memory is
//!   governed by `queue_depth × page size`, not by site size; the
//!   `pipeline.inflight.bytes_peak` and `pipeline.queue.*.depth_peak`
//!   gauges prove it at run time.
//! * **Fault isolation.** Each page is parsed, chunked and briefed under
//!   `catch_unwind` (briefing through [`Briefer::brief_batch`]): a
//!   malformed or panicking page is quarantined to the dead-letter file
//!   and the run continues. Transient I/O failures retry with
//!   decorrelated-jitter backoff; the `--error-budget` threshold aborts
//!   the run cleanly when too large a fraction of pages dies.
//! * **Crash safety.** Every page outcome is appended to a journal (with
//!   the cumulative output offsets *after* the entry), and the crawl
//!   frontier is snapshotted atomically every `snapshot_every` pages. A
//!   killed run resumes from the snapshot, replays the journalled tail
//!   without re-briefing it, truncates any un-journalled bytes, and
//!   produces byte-identical output to an uninterrupted run.
//! * **Determinism.** All stages are single-threaded FIFO (briefing fans
//!   every chunk of a batch's pages over rayon in one fan-out but re-emits
//!   the pages in order), so page sequence numbers, journal entries and
//!   output bytes are a pure function of the site and the model.
//!
//! Chaos sites: `pipeline.fetch`, `pipeline.parse`, `pipeline.chunk`,
//! `pipeline.brief`, `pipeline.sink.write`, `pipeline.journal.write`,
//! `pipeline.snapshot.write`.

use crate::briefer::{panic_text, Brief, BriefError, Briefer};
use std::collections::{HashSet, VecDeque};
use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use wb_corpus::{url_to_path, Example};
use wb_html::{classify_page, link_urls, parse_document, PageKind};
use wb_obs::metrics::{Gauge, Registered};

/// Minimum sequenced outcomes before the error budget is enforced, so one
/// early hostile page cannot abort a run that would have been fine.
const MIN_BUDGET_SAMPLE: usize = 8;

/// Configuration for [`crawl_brief`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Directory holding the site (`index.html` is the root; `/page/3`
    /// maps to `page/3.html`).
    pub site_dir: PathBuf,
    /// Briefs output (JSONL, one `{seq, url, brief}` object per line).
    pub out_path: PathBuf,
    /// Dead-letter output (JSONL, one `{seq, url, reason}` per line).
    pub dead_letter_path: PathBuf,
    /// Append-only completion journal.
    pub journal_path: PathBuf,
    /// Atomic crawl-state snapshot.
    pub snapshot_path: PathBuf,
    /// Snapshot every this many sequenced pages (`0` disables snapshots;
    /// resume then replays the whole journal from a fresh crawl).
    pub snapshot_every: usize,
    /// Capacity of each inter-stage queue.
    pub queue_depth: usize,
    /// Pages briefed together: their chunks share one rayon fan-out.
    pub batch: usize,
    /// Stop after this many sequenced (briefed + quarantined) pages.
    pub max_pages: usize,
    /// Hard limit on visited pages.
    pub max_visited: usize,
    /// Abort when more than this percentage of sequenced pages is
    /// quarantined (checked once at least [`MIN_BUDGET_SAMPLE`] pages are
    /// sequenced; `100` disables the budget).
    pub error_budget: f64,
    /// Continue a previous run from its journal + snapshot instead of
    /// starting over.
    pub resume: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            site_dir: PathBuf::new(),
            out_path: PathBuf::from("briefs.jsonl"),
            dead_letter_path: PathBuf::from("briefs.dead.jsonl"),
            journal_path: PathBuf::from("briefs.journal"),
            snapshot_path: PathBuf::from("briefs.snapshot"),
            snapshot_every: 8,
            queue_depth: 4,
            batch: 4,
            max_pages: 2000,
            max_visited: 100_000,
            error_budget: 100.0,
            resume: false,
        }
    }
}

/// What a finished (or cleanly aborted) run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Pages briefed into the output file (including replayed ones).
    pub briefed: usize,
    /// Pages quarantined to the dead-letter file (including replayed).
    pub quarantined: usize,
    /// Journalled pages replayed without re-briefing during a resume.
    pub replayed: usize,
    /// Pages visited by the crawler (cumulative across resumes).
    pub visited: usize,
    /// Pages skipped as index pages.
    pub skipped_index: usize,
    /// Pages skipped as media pages.
    pub skipped_media: usize,
    /// Frontier links whose file does not exist.
    pub broken_links: usize,
}

/// Why a pipeline run failed.
#[derive(Debug)]
pub enum PipelineError {
    /// An I/O failure that survived retries.
    Io(io::Error),
    /// The quarantine rate exceeded the error budget.
    BudgetExceeded {
        /// Quarantined pages at the time of the abort.
        failed: usize,
        /// Sequenced pages at the time of the abort.
        total: usize,
        /// The configured budget (percent).
        budget: f64,
    },
    /// During a resume, a replayed page did not match the journal — the
    /// site changed underneath the run.
    SiteChanged {
        /// Sequence number of the mismatch.
        seq: usize,
        /// URL the journal recorded.
        journal_url: String,
        /// URL the crawl produced this time.
        crawl_url: String,
    },
    /// The journal or snapshot is unusable.
    Corrupt(String),
    /// A stage died without delivering its final state.
    Stage(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Io(e) => write!(f, "pipeline I/O error: {e}"),
            PipelineError::BudgetExceeded { failed, total, budget } => write!(
                f,
                "error budget exceeded: {failed}/{total} pages quarantined (> {budget}%)"
            ),
            PipelineError::SiteChanged { seq, journal_url, crawl_url } => write!(
                f,
                "site changed since the journalled run: page {seq} was {journal_url}, \
                 now {crawl_url}; delete the journal to start over"
            ),
            PipelineError::Corrupt(m) => write!(f, "{m}"),
            PipelineError::Stage(m) => write!(f, "pipeline stage failed: {m}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<io::Error> for PipelineError {
    fn from(e: io::Error) -> Self {
        PipelineError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Crash-safety records
// ---------------------------------------------------------------------------

/// The crawler's complete resumable state, snapshotted atomically.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct CrawlState {
    /// The next sequence number to be assigned.
    next_seq: usize,
    /// Remaining frontier, in order.
    queue: Vec<String>,
    /// Every URL ever enqueued (sorted for determinism).
    seen: Vec<String>,
    visited: usize,
    skipped_index: usize,
    skipped_media: usize,
    broken_links: usize,
}

impl CrawlState {
    fn fresh() -> CrawlState {
        CrawlState {
            next_seq: 0,
            queue: vec!["/".to_string()],
            seen: vec!["/".to_string()],
            visited: 0,
            skipped_index: 0,
            skipped_media: 0,
            broken_links: 0,
        }
    }
}

/// One journal line: a page outcome plus the cumulative output offsets
/// *after* its bytes were written — the truncation points for resume.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct JournalEntry {
    seq: usize,
    url: String,
    outcome: String,
    out: u64,
    dead: u64,
}

#[derive(serde::Serialize)]
struct OutRecord {
    seq: usize,
    url: String,
    brief: Brief,
}

#[derive(serde::Serialize)]
struct DeadRecord {
    seq: usize,
    url: String,
    reason: String,
}

// ---------------------------------------------------------------------------
// Inter-stage messages
// ---------------------------------------------------------------------------

enum PageMsg {
    Page { seq: usize, url: String, chunks: Vec<Example>, bytes: usize },
    Dead { seq: usize, url: String, reason: String },
    Replayed { seq: usize, url: String },
    State(CrawlState),
    Done(CrawlState),
}

enum BriefMsg {
    Brief { seq: usize, url: String, brief: Brief, bytes: usize },
    Dead { seq: usize, url: String, reason: String },
    Replayed { seq: usize, url: String },
    State(CrawlState),
    Done(CrawlState),
}

// ---------------------------------------------------------------------------
// Gauged bounded queues
// ---------------------------------------------------------------------------

/// A `sync_channel` sender whose depth is mirrored into
/// `pipeline.queue.<name>.depth` (+ `.depth_peak` high-watermark).
struct GaugedTx<T> {
    tx: SyncSender<T>,
    depth: Arc<AtomicI64>,
    cur: Arc<Gauge>,
    peak: Arc<Gauge>,
}

struct GaugedRx<T> {
    rx: Receiver<T>,
    depth: Arc<AtomicI64>,
    cur: Arc<Gauge>,
}

fn gauged_channel<T>(name: &str, cap: usize) -> (GaugedTx<T>, GaugedRx<T>) {
    let (tx, rx) = std::sync::mpsc::sync_channel(cap.max(1));
    let depth = Arc::new(AtomicI64::new(0));
    let cur = Gauge::register(&format!("pipeline.queue.{name}.depth"));
    let peak = Gauge::register(&format!("pipeline.queue.{name}.depth_peak"));
    (
        GaugedTx { tx, depth: Arc::clone(&depth), cur: Arc::clone(&cur), peak },
        GaugedRx { rx, depth, cur },
    )
}

impl<T> GaugedTx<T> {
    /// Blocks while the queue is full (the backpressure edge). `Err` means
    /// the downstream stage is gone — the caller should wind down.
    fn send(&self, t: T) -> Result<(), ()> {
        self.tx.send(t).map_err(|_| ())?;
        let d = self.depth.fetch_add(1, Ordering::SeqCst) + 1;
        self.cur.set(d as f64);
        self.peak.set_max(d as f64);
        Ok(())
    }
}

impl<T> GaugedRx<T> {
    fn recv(&self) -> Option<T> {
        let t = self.rx.recv().ok()?;
        let d = self.depth.fetch_sub(1, Ordering::SeqCst) - 1;
        self.cur.set(d as f64);
        Some(t)
    }
}

/// Total page bytes currently travelling between stages; mirrored into
/// `pipeline.inflight.bytes` (+ `.bytes_peak`). With bounded queues this
/// stays flat however large the site grows.
#[derive(Clone)]
struct Inflight {
    bytes: Arc<AtomicI64>,
    cur: Arc<Gauge>,
    peak: Arc<Gauge>,
}

impl Inflight {
    fn new() -> Inflight {
        Inflight {
            bytes: Arc::new(AtomicI64::new(0)),
            cur: Gauge::register("pipeline.inflight.bytes"),
            peak: Gauge::register("pipeline.inflight.bytes_peak"),
        }
    }

    fn add(&self, n: usize) {
        let b = self.bytes.fetch_add(n as i64, Ordering::SeqCst) + n as i64;
        self.cur.set(b as f64);
        self.peak.set_max(b as f64);
    }

    fn sub(&self, n: usize) {
        let b = self.bytes.fetch_sub(n as i64, Ordering::SeqCst) - n as i64;
        self.cur.set(b as f64);
    }
}

// ---------------------------------------------------------------------------
// Stage 1: crawler
// ---------------------------------------------------------------------------

/// Pull-based URL-frontier BFS over the on-disk site. Parses each page and
/// [`Briefer::prepare`]s each content-rich one, emits one message per
/// sequenced page and winds down when the sink hangs up.
fn run_crawler(
    briefer: &Briefer,
    cfg: &PipelineConfig,
    mut st: CrawlState,
    journal_len: usize,
    inflight: &Inflight,
    tx: GaugedTx<PageMsg>,
) {
    let mut queue: VecDeque<String> = st.queue.drain(..).collect();
    let mut seen: HashSet<String> = st.seen.iter().cloned().collect();
    let snapshot_due = |st: &CrawlState| {
        cfg.snapshot_every > 0
            && st.next_seq > 0
            && st.next_seq.is_multiple_of(cfg.snapshot_every)
    };
    let pack = |st: &mut CrawlState, queue: &VecDeque<String>, seen: &HashSet<String>| {
        st.queue = queue.iter().cloned().collect();
        let mut s: Vec<String> = seen.iter().cloned().collect();
        s.sort_unstable();
        st.seen = s;
    };

    while st.next_seq < cfg.max_pages && st.visited < cfg.max_visited {
        let Some(url) = queue.pop_front() else { break };
        st.visited += 1;
        wb_obs::counter!("pipeline.crawl.visited");
        let path = cfg.site_dir.join(url_to_path(&url));
        if !path.is_file() {
            st.broken_links += 1;
            wb_obs::counter!("pipeline.crawl.broken_links");
            continue;
        }
        let fetched = {
            let _s = wb_obs::span!("pipeline.fetch");
            wb_obs::retry::retry("page fetch", wb_obs::retry::BackoffConfig::default(), || {
                if let Some(f) = wb_chaos::fault_point!("pipeline.fetch") {
                    return Err(f.io_error("pipeline.fetch"));
                }
                std::fs::read_to_string(&path)
            })
        };
        // Each sequenced outcome flows through `emit`, which chunks a parsed
        // page; a replayed sequence number short-circuits to a lightweight
        // marker message, unchunked.
        let emit = |st: &mut CrawlState,
                    queue: &VecDeque<String>,
                    seen: &HashSet<String>,
                    url: String,
                    page: Result<(wb_html::Node, usize), String>|
         -> Result<(), ()> {
            let seq = st.next_seq;
            st.next_seq += 1;
            let msg = if seq < journal_len {
                PageMsg::Replayed { seq, url }
            } else {
                match page.and_then(|(dom, bytes)| Ok((chunk(briefer, &dom)?, bytes))) {
                    Ok((chunks, bytes)) => {
                        inflight.add(bytes);
                        PageMsg::Page { seq, url, chunks, bytes }
                    }
                    Err(reason) => PageMsg::Dead { seq, url, reason },
                }
            };
            tx.send(msg)?;
            if snapshot_due(st) {
                pack(st, queue, seen);
                tx.send(PageMsg::State(st.clone()))?;
            }
            Ok(())
        };
        let html = match fetched {
            Ok(h) => h,
            Err(e) => {
                let r = emit(&mut st, &queue, &seen, url, Err(format!("fetch failed: {e}")));
                if r.is_err() {
                    return;
                }
                continue;
            }
        };
        wb_obs::histogram!("pipeline.page.bytes", html.len());
        let parsed = catch_unwind(AssertUnwindSafe(|| {
            if let Some(f) = wb_chaos::fault_point!("pipeline.parse") {
                return Err(f.io_error("pipeline.parse").to_string());
            }
            parse_document(&html).map_err(|e| BriefError::Parse(e).to_string())
        }));
        let dom = match parsed {
            Ok(Ok(dom)) => dom,
            Ok(Err(reason)) => {
                if emit(&mut st, &queue, &seen, url, Err(reason)).is_err() {
                    return;
                }
                continue;
            }
            Err(p) => {
                let reason = format!("panic while parsing: {}", panic_text(p.as_ref()));
                if emit(&mut st, &queue, &seen, url, Err(reason)).is_err() {
                    return;
                }
                continue;
            }
        };
        // Frontier first: even index/media pages contribute links.
        for href in link_urls(&dom) {
            if href.contains("..") {
                continue;
            }
            if seen.insert(href.clone()) {
                queue.push_back(href);
            }
        }
        match classify_page(&dom) {
            PageKind::Index => {
                st.skipped_index += 1;
                wb_obs::counter!("pipeline.crawl.skipped_index");
            }
            PageKind::Media => {
                st.skipped_media += 1;
                wb_obs::counter!("pipeline.crawl.skipped_media");
            }
            PageKind::ContentRich => {
                let bytes = html.len();
                if emit(&mut st, &queue, &seen, url, Ok((dom, bytes))).is_err() {
                    return;
                }
            }
        }
    }
    pack(&mut st, &queue, &seen);
    let _ = tx.send(PageMsg::Done(st));
}

/// [`Briefer::prepare`] for one page, under `catch_unwind`.
fn chunk(briefer: &Briefer, dom: &wb_html::Node) -> Result<Vec<Example>, String> {
    let _s = wb_obs::span!("pipeline.chunk");
    catch_unwind(AssertUnwindSafe(|| {
        if let Some(f) = wb_chaos::fault_point!("pipeline.chunk") {
            return Err(f.io_error("pipeline.chunk").to_string());
        }
        briefer.prepare(dom).map_err(|e| e.to_string())
    }))
    .unwrap_or_else(|p| Err(format!("panic while chunking: {}", panic_text(p.as_ref()))))
}

// ---------------------------------------------------------------------------
// Stage 2: briefer
// ---------------------------------------------------------------------------

/// Batches consecutive chunked pages, briefs each batch with
/// [`Briefer::brief_batch`] — one fan-out over all the batch's chunks,
/// with the `pipeline.brief` fault point passed once per page in sequence
/// order; a panicking page is quarantined alone — and re-emits strictly in
/// sequence order. Any non-batch message flushes the pending batch first
/// so FIFO order is preserved end to end.
fn run_briefer(
    briefer: &Briefer,
    batch_size: usize,
    inflight: &Inflight,
    rx: GaugedRx<PageMsg>,
    tx: GaugedTx<BriefMsg>,
) {
    let batch_size = batch_size.max(1);
    let mut batch: Vec<(usize, String, Vec<Example>, usize)> = Vec::new();
    let flush = |batch: &mut Vec<(usize, String, Vec<Example>, usize)>| -> Result<(), ()> {
        if batch.is_empty() {
            return Ok(());
        }
        let _s = wb_obs::span!("pipeline.brief.batch");
        let results = briefer.brief_batch(batch, |(_, _, chunks, _)| {
            if wb_chaos::fault_point!("pipeline.brief").is_some() {
                panic!("injected fault at pipeline.brief");
            }
            Ok(chunks)
        });
        for ((seq, url, _, bytes), r) in batch.drain(..).zip(results) {
            let msg = match r {
                Ok(brief) => BriefMsg::Brief { seq, url, brief, bytes },
                Err(e) => {
                    inflight.sub(bytes);
                    BriefMsg::Dead { seq, url, reason: e.to_string() }
                }
            };
            tx.send(msg)?;
        }
        Ok(())
    };
    while let Some(msg) = rx.recv() {
        let forward = match msg {
            PageMsg::Page { seq, url, chunks, bytes } => {
                batch.push((seq, url, chunks, bytes));
                if batch.len() >= batch_size && flush(&mut batch).is_err() {
                    return;
                }
                continue;
            }
            PageMsg::Dead { seq, url, reason } => BriefMsg::Dead { seq, url, reason },
            PageMsg::Replayed { seq, url } => BriefMsg::Replayed { seq, url },
            PageMsg::State(s) => BriefMsg::State(s),
            PageMsg::Done(s) => BriefMsg::Done(s),
        };
        if flush(&mut batch).is_err() || tx.send(forward).is_err() {
            return;
        }
    }
    let _ = flush(&mut batch);
}

// ---------------------------------------------------------------------------
// Stage 3: sink (journal, snapshots, error budget)
// ---------------------------------------------------------------------------

fn fault_gate(point: &'static str) -> io::Result<()> {
    let fired = match point {
        "pipeline.sink.write" => wb_chaos::fault_point!("pipeline.sink.write"),
        "pipeline.journal.write" => wb_chaos::fault_point!("pipeline.journal.write"),
        "pipeline.snapshot.write" => wb_chaos::fault_point!("pipeline.snapshot.write"),
        _ => None,
    };
    match fired {
        Some(f) => Err(f.io_error(point)),
        None => Ok(()),
    }
}

/// Passes the named chaos gate with jittered retries: injected transient
/// errors exhaust into a hard failure, injected delays/panics act directly.
fn gated(point: &'static str) -> io::Result<()> {
    wb_obs::retry::retry(point, wb_obs::retry::BackoffConfig::default(), || fault_gate(point))
}

fn write_snapshot(path: &Path, st: &CrawlState) -> io::Result<()> {
    let json = serde_json::to_string(st).map_err(io::Error::other)?;
    wb_obs::retry::retry("pipeline snapshot", wb_obs::retry::BackoffConfig::default(), || {
        fault_gate("pipeline.snapshot.write")?;
        let mut tmp_name = path.file_name().map(|n| n.to_os_string()).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "snapshot path has no file name")
        })?;
        tmp_name.push(format!(".{}.tmp", std::process::id()));
        let tmp = path.with_file_name(tmp_name);
        std::fs::write(&tmp, &json)?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    })?;
    wb_obs::counter!("pipeline.snapshot.saves");
    Ok(())
}

struct Sink<'a> {
    cfg: &'a PipelineConfig,
    out: io::BufWriter<std::fs::File>,
    dead: io::BufWriter<std::fs::File>,
    journal: io::BufWriter<std::fs::File>,
    out_off: u64,
    dead_off: u64,
    entries: Vec<JournalEntry>,
    briefed: usize,
    quarantined: usize,
    replayed: usize,
}

impl Sink<'_> {
    /// Appends the journal line for a just-written outcome. The payload
    /// write happens first and the journal line second, so a crash between
    /// the two leaves un-journalled bytes that resume truncates away.
    fn journal_append(&mut self, seq: usize, url: &str, outcome: &str) -> io::Result<()> {
        let entry = JournalEntry {
            seq,
            url: url.to_string(),
            outcome: outcome.to_string(),
            out: self.out_off,
            dead: self.dead_off,
        };
        let line = serde_json::to_string(&entry).map_err(io::Error::other)?;
        gated("pipeline.journal.write")?;
        self.journal.write_all(line.as_bytes())?;
        self.journal.write_all(b"\n")?;
        self.journal.flush()?;
        wb_obs::counter!("pipeline.journal.entries");
        Ok(())
    }

    fn budget_check(&self) -> Result<(), PipelineError> {
        let total = self.briefed + self.quarantined;
        if self.cfg.error_budget < 100.0 && total >= MIN_BUDGET_SAMPLE {
            let pct = self.quarantined as f64 * 100.0 / total as f64;
            if pct > self.cfg.error_budget {
                return Err(PipelineError::BudgetExceeded {
                    failed: self.quarantined,
                    total,
                    budget: self.cfg.error_budget,
                });
            }
        }
        Ok(())
    }

    fn run(
        &mut self,
        rx: GaugedRx<BriefMsg>,
        inflight: &Inflight,
    ) -> Result<CrawlState, PipelineError> {
        let mut final_state: Option<CrawlState> = None;
        while let Some(msg) = rx.recv() {
            match msg {
                BriefMsg::Brief { seq, url, brief, bytes } => {
                    let _s = wb_obs::span!("pipeline.sink.write");
                    let rec = OutRecord { seq, url, brief };
                    let line = serde_json::to_string(&rec).map_err(io::Error::other)?;
                    gated("pipeline.sink.write")?;
                    self.out.write_all(line.as_bytes())?;
                    self.out.write_all(b"\n")?;
                    self.out.flush()?;
                    self.out_off += line.len() as u64 + 1;
                    self.journal_append(seq, &rec.url, "ok")?;
                    self.briefed += 1;
                    wb_obs::counter!("pipeline.pages.briefed");
                    inflight.sub(bytes);
                    self.budget_check()?;
                }
                BriefMsg::Dead { seq, url, reason } => {
                    let rec = DeadRecord { seq, url, reason };
                    let line = serde_json::to_string(&rec).map_err(io::Error::other)?;
                    gated("pipeline.sink.write")?;
                    self.dead.write_all(line.as_bytes())?;
                    self.dead.write_all(b"\n")?;
                    self.dead.flush()?;
                    self.dead_off += line.len() as u64 + 1;
                    self.journal_append(seq, &rec.url, "dead")?;
                    self.quarantined += 1;
                    wb_obs::counter!("pipeline.pages.quarantined");
                    wb_obs::warn!("quarantined page {seq} ({}): {}", rec.url, rec.reason);
                    self.budget_check()?;
                }
                BriefMsg::Replayed { seq, url } => {
                    let entry = self.entries.get(seq).ok_or_else(|| {
                        PipelineError::Corrupt(format!(
                            "replayed page {seq} has no journal entry"
                        ))
                    })?;
                    if entry.url != url {
                        return Err(PipelineError::SiteChanged {
                            seq,
                            journal_url: entry.url.clone(),
                            crawl_url: url,
                        });
                    }
                    if entry.outcome == "ok" {
                        self.briefed += 1;
                    } else {
                        self.quarantined += 1;
                    }
                    self.replayed += 1;
                    wb_obs::counter!("pipeline.pages.replayed");
                    self.budget_check()?;
                }
                BriefMsg::State(st) => {
                    if self.cfg.snapshot_every > 0 {
                        write_snapshot(&self.cfg.snapshot_path, &st)?;
                    }
                }
                BriefMsg::Done(st) => final_state = Some(st),
            }
        }
        let st = final_state.ok_or_else(|| {
            PipelineError::Stage("crawler ended without delivering final state".to_string())
        })?;
        if self.cfg.snapshot_every > 0 {
            write_snapshot(&self.cfg.snapshot_path, &st)?;
        }
        Ok(st)
    }
}

// ---------------------------------------------------------------------------
// Boot: journal recovery and file truncation
// ---------------------------------------------------------------------------

/// Reads the journal, keeping the longest valid prefix: entries must parse
/// and be numbered consecutively from 0. Returns the entries plus the byte
/// length of the valid prefix (a torn trailing line is dropped).
fn load_journal(path: &Path) -> Result<(Vec<JournalEntry>, u64), PipelineError> {
    if !path.exists() {
        return Ok((Vec::new(), 0));
    }
    let bytes = std::fs::read(path)?;
    let mut entries = Vec::new();
    let mut valid: u64 = 0;
    let mut start = 0usize;
    while let Some(nl) = bytes[start..].iter().position(|&b| b == b'\n') {
        let line = &bytes[start..start + nl];
        let Ok(text) = std::str::from_utf8(line) else { break };
        let Ok(entry) = serde_json::from_str::<JournalEntry>(text) else { break };
        if entry.seq != entries.len() {
            break;
        }
        entries.push(entry);
        start += nl + 1;
        valid = start as u64;
    }
    Ok((entries, valid))
}

fn truncate_to(path: &Path, len: u64) -> io::Result<()> {
    // Not `truncate(true)`: the point is `set_len` to the journalled
    // offset, keeping the valid prefix.
    let f = std::fs::OpenOptions::new().create(true).truncate(false).write(true).open(path)?;
    f.set_len(len)
}

/// Runs the full crawl-to-brief pipeline over an on-disk site.
///
/// Returns the run's [`PipelineReport`], or a [`PipelineError`] when the
/// error budget trips, the site changed under a resume, or I/O fails past
/// the retry budget. On any clean error the journal and snapshot are
/// consistent, so `resume` can continue the run afterwards.
pub fn crawl_brief(
    briefer: &Briefer,
    cfg: &PipelineConfig,
) -> Result<PipelineReport, PipelineError> {
    let _span = wb_obs::span!("pipeline.run");

    // --- Boot: recover or reset the on-disk state. ---
    let (entries, journal_valid) =
        if cfg.resume { load_journal(&cfg.journal_path)? } else { (Vec::new(), 0) };
    let state = if cfg.resume {
        truncate_to(&cfg.journal_path, journal_valid)?;
        let (out_off, dead_off) = entries.last().map(|e| (e.out, e.dead)).unwrap_or((0, 0));
        truncate_to(&cfg.out_path, out_off)?;
        truncate_to(&cfg.dead_letter_path, dead_off)?;
        if cfg.snapshot_path.exists() {
            let text = std::fs::read_to_string(&cfg.snapshot_path)?;
            let st: CrawlState = serde_json::from_str(&text).map_err(|e| {
                PipelineError::Corrupt(format!(
                    "snapshot {} is corrupt ({e}); delete it to resume from the journal alone",
                    cfg.snapshot_path.display()
                ))
            })?;
            if st.next_seq > entries.len() {
                return Err(PipelineError::Corrupt(format!(
                    "snapshot is ahead of the journal ({} > {} entries); \
                     delete both to start over",
                    st.next_seq,
                    entries.len()
                )));
            }
            st
        } else {
            CrawlState::fresh()
        }
    } else {
        truncate_to(&cfg.out_path, 0)?;
        truncate_to(&cfg.dead_letter_path, 0)?;
        truncate_to(&cfg.journal_path, 0)?;
        let _ = std::fs::remove_file(&cfg.snapshot_path);
        CrawlState::fresh()
    };
    let resume_seq = state.next_seq;
    let journal_len = entries.len();
    wb_obs::info!(
        "crawl-brief starting at seq {resume_seq} ({journal_len} journalled pages, \
         replaying {})",
        journal_len - resume_seq
    );

    let append = |path: &Path| {
        std::fs::OpenOptions::new().create(true).append(true).open(path).map(io::BufWriter::new)
    };
    let (out_off, dead_off) = entries.last().map(|e| (e.out, e.dead)).unwrap_or((0, 0));
    let mut sink = Sink {
        cfg,
        out: append(&cfg.out_path)?,
        dead: append(&cfg.dead_letter_path)?,
        journal: append(&cfg.journal_path)?,
        out_off,
        dead_off,
        briefed: entries[..resume_seq].iter().filter(|e| e.outcome == "ok").count(),
        quarantined: entries[..resume_seq].iter().filter(|e| e.outcome != "ok").count(),
        replayed: 0,
        entries,
    };

    // --- The staged pipeline. ---
    let inflight = Inflight::new();
    let (page_tx, page_rx) = gauged_channel::<PageMsg>("page", cfg.queue_depth);
    let (brief_tx, brief_rx) = gauged_channel::<BriefMsg>("brief", cfg.queue_depth);

    let (report, crawl) = std::thread::scope(|s| {
        let infl = &inflight;
        s.spawn(move || run_crawler(briefer, cfg, state, journal_len, infl, page_tx));
        s.spawn(move || run_briefer(briefer, cfg.batch, infl, page_rx, brief_tx));
        let crawl = sink.run(brief_rx, infl);
        ((sink.briefed, sink.quarantined, sink.replayed), crawl)
    });
    let st = crawl?;
    let (briefed, quarantined, replayed) = report;
    Ok(PipelineReport {
        briefed,
        quarantined,
        replayed,
        visited: st.visited,
        skipped_index: st.skipped_index,
        skipped_media: st.skipped_media,
        broken_links: st.broken_links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::briefer::tests::long_page;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;
    use wb_corpus::{
        export_site, generate_site, Dataset, DatasetConfig, PageConfig, SiteScenario,
        SiteSpecConfig, Taxonomy,
    };

    fn test_briefer() -> Briefer {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let cfg = crate::ModelConfig::scaled(d.tokenizer.vocab().len());
        Briefer::from_model(
            crate::JointModel::new(crate::JointVariant::JointWb, cfg, 11),
            d.tokenizer.clone(),
        )
    }

    fn site_in(dir: &Path, scenario: SiteScenario, pages: usize, seed: u64) {
        site_of(dir, SiteSpecConfig { pages, scenario, ..Default::default() }, seed);
    }

    fn site_of(dir: &Path, cfg: SiteSpecConfig, seed: u64) {
        let tax = Taxonomy::build(0, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let site = generate_site(&tax.topics()[1], cfg, &mut rng);
        export_site(dir, &site).unwrap();
    }

    /// The pages, by sequence number, that `run_briefer` batched together
    /// in a run that quarantined nothing at the brief stage: consecutive
    /// pages that reached it, at most `cfg.batch` at a time, a batch cut
    /// short by each dead letter and each crawl snapshot.
    fn batches(
        cfg: &PipelineConfig,
        briefed: &HashSet<usize>,
        sequenced: usize,
    ) -> Vec<Vec<usize>> {
        let mut batches = vec![Vec::new()];
        for seq in 0..sequenced {
            let cut = !briefed.contains(&seq);
            if !cut {
                batches.last_mut().unwrap().push(seq);
            }
            let full = batches.last().unwrap().len() == cfg.batch;
            let snapshot = cfg.snapshot_every > 0 && (seq + 1) % cfg.snapshot_every == 0;
            if cut || full || snapshot {
                batches.push(Vec::new());
            }
        }
        batches.retain(|b| !b.is_empty());
        batches
    }

    fn cfg_in(dir: &Path) -> PipelineConfig {
        PipelineConfig {
            site_dir: dir.join("site"),
            out_path: dir.join("briefs.jsonl"),
            dead_letter_path: dir.join("briefs.dead.jsonl"),
            journal_path: dir.join("briefs.journal"),
            snapshot_path: dir.join("briefs.snapshot"),
            snapshot_every: 3,
            queue_depth: 2,
            batch: 2,
            ..Default::default()
        }
    }

    /// One `briefs.jsonl` line.
    #[derive(Debug, serde::Deserialize)]
    #[allow(dead_code)]
    struct OutLine {
        seq: usize,
        url: String,
        brief: Brief,
    }

    /// One dead-letter line.
    #[derive(Debug, serde::Deserialize)]
    #[allow(dead_code)]
    struct DeadLine {
        seq: usize,
        url: String,
        reason: String,
    }

    fn jsonl<T: serde::Deserialize>(path: &Path) -> Vec<T> {
        let text = std::fs::read_to_string(path).unwrap();
        text.lines().map(|l| serde_json::from_str(l).expect("valid JSONL")).collect()
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn clean_site_briefs_every_content_page() {
        let _chaos = wb_chaos::test_lock();
        let dir = fresh_dir("wb_pipeline_clean");
        site_in(&dir.join("site"), SiteScenario::Clean, 7, 1);
        let briefer = test_briefer();
        let cfg = cfg_in(&dir);
        let report = crawl_brief(&briefer, &cfg).unwrap();
        assert_eq!(report.briefed, 7);
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.skipped_index, 1);
        let out = std::fs::read_to_string(&cfg.out_path).unwrap();
        assert_eq!(out.lines().count(), 7);
        // Output is ordered by sequence number and carries the URL.
        for (i, line) in out.lines().enumerate() {
            assert!(line.contains(&format!("\"seq\":{i}")), "{line}");
            assert!(line.contains("\"brief\""), "{line}");
        }
        let journal = std::fs::read_to_string(&cfg.journal_path).unwrap();
        assert_eq!(journal.lines().count(), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The structure-driven filter on a hand-built site: the index and
    /// media pages are visited and skipped, the content cycle (each page
    /// also linking back to the root) is briefed once per page, and a
    /// `..` link to a content-rich page outside the site is never followed.
    #[test]
    fn crawl_skips_index_and_media_visits_a_cycle_once_and_stays_in_the_site() {
        let _chaos = wb_chaos::test_lock();
        let dir = fresh_dir("wb_pipeline_structure");
        let site = dir.join("site");
        std::fs::create_dir_all(site.join("page")).unwrap();
        let content = |i: usize, links: &str| {
            let paras: String = (0..8)
                .map(|p| format!("<p>page {i} paragraph {p} with plenty of running words</p>"))
                .collect();
            format!("<body>{paras}{links}</body>")
        };
        let padding: String =
            (0..12).map(|i| format!("<a href=\"#pad{i}\">menu</a>")).collect();
        let index = format!(
            "<body><a href=\"/page/0\">p</a><a href=\"/media\">m</a>\
             <a href=\"/../outside\">o</a>{padding}</body>"
        );
        std::fs::write(site.join("index.html"), index).unwrap();
        std::fs::write(
            site.join("media.html"),
            format!("<body>{}</body>", "<video></video>".repeat(10)),
        )
        .unwrap();
        for i in 0..3 {
            let links =
                format!("<a href=\"/page/{}\">next</a><a href=\"/\">home</a>", (i + 1) % 3);
            std::fs::write(site.join(format!("page/{i}.html")), content(i, &links)).unwrap();
        }
        std::fs::write(dir.join("outside.html"), content(9, "")).unwrap();

        let briefer = test_briefer();
        let cfg = cfg_in(&dir);
        let report = crawl_brief(&briefer, &cfg).unwrap();
        assert_eq!(
            (report.briefed, report.quarantined, report.skipped_index, report.skipped_media),
            (3, 0, 1, 1)
        );
        assert_eq!((report.visited, report.broken_links), (5, 0));
        let urls: Vec<String> =
            jsonl::<OutLine>(&cfg.out_path).into_iter().map(|l| l.url).collect();
        assert_eq!(urls, ["/page/0", "/page/1", "/page/2"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_run_resumes_to_byte_identical_output() {
        let _chaos = wb_chaos::test_lock();
        let dir = fresh_dir("wb_pipeline_resume");
        site_in(&dir.join("site"), SiteScenario::Clean, 9, 2);
        let briefer = test_briefer();

        // Reference: one uninterrupted run.
        let mut full = cfg_in(&dir);
        full.out_path = dir.join("full.jsonl");
        full.dead_letter_path = dir.join("full.dead.jsonl");
        full.journal_path = dir.join("full.journal");
        full.snapshot_path = dir.join("full.snapshot");
        crawl_brief(&briefer, &full).unwrap();
        let reference = std::fs::read(&full.out_path).unwrap();

        // Interrupted: stop after 4 sequenced pages. Deleting the snapshot
        // simulates a crash before any snapshot landed — resume must then
        // rebuild the crawl from scratch, replaying the journalled tail
        // without re-briefing it.
        let mut cfg = cfg_in(&dir);
        cfg.max_pages = 4;
        let first = crawl_brief(&briefer, &cfg).unwrap();
        assert_eq!(first.briefed, 4);
        std::fs::remove_file(&cfg.snapshot_path).unwrap();
        cfg.max_pages = 2000;
        cfg.resume = true;
        let second = crawl_brief(&briefer, &cfg).unwrap();
        assert_eq!(second.replayed, 4, "the whole journal tail is replayed");
        assert_eq!(second.briefed, 9);
        let resumed = std::fs::read(&cfg.out_path).unwrap();
        assert_eq!(resumed, reference, "resumed output must be byte-identical");

        // Resuming a complete run (snapshot intact this time) is a no-op
        // continuation from the final snapshot: nothing replayed, nothing
        // changed.
        let third = crawl_brief(&briefer, &cfg).unwrap();
        assert_eq!(third.briefed, 9);
        assert_eq!(third.replayed, 0);
        assert_eq!(std::fs::read(&cfg.out_path).unwrap(), reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_output_tail_is_repaired_on_resume() {
        let _chaos = wb_chaos::test_lock();
        let dir = fresh_dir("wb_pipeline_torn");
        site_in(&dir.join("site"), SiteScenario::Clean, 6, 3);
        let briefer = test_briefer();
        let mut cfg = cfg_in(&dir);
        cfg.max_pages = 3;
        crawl_brief(&briefer, &cfg).unwrap();
        // Simulate a crash after a partial payload write with no journal
        // line: garbage appended to both output and journal.
        let mut out = std::fs::OpenOptions::new().append(true).open(&cfg.out_path).unwrap();
        out.write_all(b"{\"seq\":3,\"url\":\"/page/3\",\"bri").unwrap();
        let mut j = std::fs::OpenOptions::new().append(true).open(&cfg.journal_path).unwrap();
        j.write_all(b"{\"seq\":3,\"url\":\"/pa").unwrap();
        drop((out, j));
        cfg.max_pages = 2000;
        cfg.resume = true;
        let report = crawl_brief(&briefer, &cfg).unwrap();
        assert_eq!(report.briefed, 6);
        // Every output line is valid JSON again (the torn tail is gone).
        assert_eq!(jsonl::<OutLine>(&cfg.out_path).len(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_pages_are_quarantined_not_fatal() {
        let _chaos = wb_chaos::test_lock();
        let dir = fresh_dir("wb_pipeline_hostile");
        site_in(&dir.join("site"), SiteScenario::Malformed, 12, 4);
        let briefer = test_briefer();
        let cfg = cfg_in(&dir);
        let report = crawl_brief(&briefer, &cfg).unwrap();
        assert!(report.quarantined >= 1, "{report:?}");
        assert!(report.briefed >= 4, "{report:?}");
        assert!(report.broken_links >= 1, "the /missing link is counted, {report:?}");
        let dead = std::fs::read_to_string(&cfg.dead_letter_path).unwrap();
        assert_eq!(dead.lines().count(), report.quarantined);
        for line in dead.lines() {
            assert!(line.contains("\"reason\""), "{line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crawl_briefs_and_dead_letters_match_brief_html() {
        let _chaos = wb_chaos::test_lock();
        let briefer = test_briefer();
        for (name, scenario, long) in [
            ("malformed", SiteScenario::Malformed, false),
            ("mixed", SiteScenario::Mixed, false),
            ("mixed_long", SiteScenario::Mixed, true),
        ] {
            let dir = fresh_dir(&format!("wb_pipeline_cross_{name}"));
            let page = if long { long_page() } else { PageConfig::default() };
            site_of(&dir.join("site"), SiteSpecConfig { pages: 24, scenario, page }, 11);
            let cfg = cfg_in(&dir);
            crawl_brief(&briefer, &cfg).unwrap();
            let direct = |url: &str| {
                let html =
                    std::fs::read_to_string(cfg.site_dir.join(url_to_path(url))).unwrap();
                briefer.brief_html(&html)
            };
            let briefs: Vec<OutLine> = jsonl(&cfg.out_path);
            assert!(!briefs.is_empty(), "{name}: nothing briefed");
            for line in &briefs {
                assert_eq!(line.brief, direct(&line.url).unwrap(), "{name}: {}", line.url);
            }
            let dead: Vec<DeadLine> = jsonl(&cfg.dead_letter_path);
            assert!(
                dead.iter().any(|l| l.reason.starts_with("failed to parse page:")),
                "{name}: the nesting bomb must be quarantined, got {dead:?}"
            );
            for line in &dead {
                let err = direct(&line.url).unwrap_err().to_string();
                assert_eq!(line.reason, err, "{name}: {}", line.url);
            }
            if long {
                // The chunk fan-out spans pages: some batch holds several
                // pages of several chunks each.
                let chunks: HashMap<usize, usize> = briefs
                    .iter()
                    .map(|l| {
                        let html =
                            std::fs::read_to_string(cfg.site_dir.join(url_to_path(&l.url)));
                        (l.seq, briefer.prepare_html(&html.unwrap()).unwrap().len())
                    })
                    .collect();
                let briefed = chunks.keys().copied().collect();
                let batches = batches(&cfg, &briefed, briefs.len() + dead.len());
                assert!(
                    batches
                        .iter()
                        .any(|b| b.len() >= 2 && b.iter().all(|seq| chunks[seq] >= 2)),
                    "{name}: no batch of multi-chunk pages in {batches:?} ({chunks:?})"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_panicking_brief_quarantines_only_that_page() {
        let _chaos = wb_chaos::test_lock();
        let briefer = test_briefer();
        let ref_dir = fresh_dir("wb_pipeline_brief_panic_ref");
        site_in(&ref_dir.join("site"), SiteScenario::Clean, 7, 6);
        let reference = cfg_in(&ref_dir);
        crawl_brief(&briefer, &reference).unwrap();
        let dir = fresh_dir("wb_pipeline_brief_panic");
        site_in(&dir.join("site"), SiteScenario::Clean, 7, 6);
        let cfg = cfg_in(&dir);
        wb_chaos::arm_str("pipeline.brief=panic@nth(3)").unwrap();
        let run = crawl_brief(&briefer, &cfg);
        wb_chaos::disarm();
        run.unwrap();
        let dead: Vec<DeadLine> = jsonl(&cfg.dead_letter_path);
        assert_eq!(dead.len(), 1, "{dead:?}");
        assert!(dead[0].reason.starts_with("panic while briefing:"), "{dead:?}");
        let expected: HashMap<String, Brief> = jsonl::<OutLine>(&reference.out_path)
            .into_iter()
            .map(|l| (l.url, l.brief))
            .collect();
        let briefs: Vec<OutLine> = jsonl(&cfg.out_path);
        assert_eq!(briefs.len() + 1, expected.len());
        for line in &briefs {
            assert_eq!(line.brief, expected[&line.url], "{}", line.url);
        }
        let _ = std::fs::remove_dir_all(&ref_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fault at `pipeline.chunk` quarantines the page it fires on, with
    /// the panic or the injected error as its reason, and every other page
    /// briefs as in an unfaulted run.
    #[test]
    fn a_chunk_fault_quarantines_only_that_page() {
        let _chaos = wb_chaos::test_lock();
        let briefer = test_briefer();
        let run = |name: &str, faults: Option<&str>| {
            let dir = fresh_dir(name);
            site_in(&dir.join("site"), SiteScenario::Clean, 7, 8);
            let cfg = cfg_in(&dir);
            if let Some(spec) = faults {
                wb_chaos::arm_str(spec).unwrap();
            }
            let report = crawl_brief(&briefer, &cfg);
            wb_chaos::disarm();
            report.unwrap();
            let out =
                (jsonl::<OutLine>(&cfg.out_path), jsonl::<DeadLine>(&cfg.dead_letter_path));
            let _ = std::fs::remove_dir_all(&dir);
            out
        };
        let (reference, none) = run("wb_pipeline_chunk_fault_ref", None);
        assert!(none.is_empty(), "{none:?}");
        assert_eq!(reference.len(), 7);
        for action in ["panic", "error"] {
            let spec = format!("pipeline.chunk={action}@nth(2)");
            let (briefs, dead) = run(&format!("wb_pipeline_chunk_fault_{action}"), Some(&spec));
            assert_eq!(dead.len(), 1, "{spec}: {dead:?}");
            assert_eq!((dead[0].seq, &dead[0].url), (reference[1].seq, &reference[1].url));
            let reason = &dead[0].reason;
            if action == "panic" {
                assert!(reason.starts_with("panic while chunking:"), "{spec}: {reason}");
            } else {
                assert_eq!(reason, "injected fault at pipeline.chunk", "{spec}");
            }
            let expected: Vec<_> = reference.iter().filter(|l| l.seq != dead[0].seq).collect();
            assert_eq!(briefs.len(), expected.len(), "{spec}");
            for (got, want) in briefs.iter().zip(expected) {
                assert_eq!((got.seq, &got.url, &got.brief), (want.seq, &want.url, &want.brief));
            }
        }
    }

    /// A page that panics inside a batch of multi-chunk pages, whose
    /// chunks share one fan-out, is quarantined alone: the fault fires on
    /// the second page to reach the briefer, and every other page briefs
    /// as in an unfaulted run.
    #[test]
    fn a_panicking_page_in_a_chunk_fan_out_quarantines_only_that_page() {
        let _chaos = wb_chaos::test_lock();
        let briefer = test_briefer();
        let run = |name: &str, faults: Option<&str>| {
            let dir = fresh_dir(name);
            let site =
                SiteSpecConfig { pages: 6, scenario: SiteScenario::Clean, page: long_page() };
            site_of(&dir.join("site"), site, 7);
            let mut cfg = cfg_in(&dir);
            cfg.batch = 4;
            cfg.snapshot_every = 0;
            if let Some(spec) = faults {
                wb_chaos::arm_str(spec).unwrap();
            }
            let report = crawl_brief(&briefer, &cfg);
            wb_chaos::disarm();
            report.unwrap();
            let chunks: Vec<usize> = (0..6)
                .map(|i| {
                    let html = std::fs::read_to_string(dir.join(format!("site/page/{i}.html")));
                    briefer.prepare_html(&html.unwrap()).unwrap().len()
                })
                .collect();
            let out =
                (jsonl::<OutLine>(&cfg.out_path), jsonl::<DeadLine>(&cfg.dead_letter_path));
            let _ = std::fs::remove_dir_all(&dir);
            (out, chunks)
        };
        let ((reference, none), chunks) = run("wb_pipeline_fanout_panic_ref", None);
        assert!(none.is_empty(), "{none:?}");
        assert_eq!(reference.len(), 6);
        assert!(chunks.iter().all(|&n| n >= 2), "every page is multi-chunk: {chunks:?}");
        let ((briefs, dead), _) =
            run("wb_pipeline_fanout_panic", Some("pipeline.brief=panic@nth(2)"));
        assert_eq!(dead.len(), 1, "{dead:?}");
        assert_eq!((dead[0].seq, &dead[0].url), (reference[1].seq, &reference[1].url));
        assert!(dead[0].reason.starts_with("panic while briefing:"), "{dead:?}");
        let expected: Vec<_> = reference.iter().filter(|l| l.seq != dead[0].seq).collect();
        assert_eq!(briefs.len(), expected.len());
        for (got, want) in briefs.iter().zip(expected) {
            assert_eq!((got.seq, &got.url, &got.brief), (want.seq, &want.url, &want.brief));
        }
    }

    #[test]
    fn error_budget_aborts_cleanly_and_remains_resumable() {
        let _chaos = wb_chaos::test_lock();
        let dir = fresh_dir("wb_pipeline_budget");
        // A poison farm: index + many unparseable pages.
        let site = dir.join("site");
        std::fs::create_dir_all(site.join("page")).unwrap();
        let mut index = String::from("<body><ul>");
        for i in 0..12 {
            index.push_str(&format!("<li><a href=\"/page/{i}\">x</a></li>"));
        }
        index.push_str("</ul></body>");
        std::fs::write(site.join("index.html"), index).unwrap();
        for i in 0..12 {
            std::fs::write(site.join(format!("page/{i}.html")), wb_corpus::poison_page())
                .unwrap();
        }
        let briefer = test_briefer();
        let mut cfg = cfg_in(&dir);
        cfg.error_budget = 50.0;
        match crawl_brief(&briefer, &cfg) {
            Err(PipelineError::BudgetExceeded { failed, total, .. }) => {
                assert!(failed * 100 > total * 50, "{failed}/{total}");
                assert!(total >= MIN_BUDGET_SAMPLE);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // The abort left a consistent journal: a resume with a looser
        // budget finishes the run.
        cfg.error_budget = 100.0;
        cfg.resume = true;
        let report = crawl_brief(&briefer, &cfg).unwrap();
        assert_eq!(report.quarantined, 12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn site_change_under_resume_is_detected() {
        let _chaos = wb_chaos::test_lock();
        let dir = fresh_dir("wb_pipeline_sitechange");
        site_in(&dir.join("site"), SiteScenario::Clean, 6, 5);
        let briefer = test_briefer();
        let mut cfg = cfg_in(&dir);
        cfg.max_pages = 3;
        cfg.snapshot_every = 0; // resume must replay from scratch
        crawl_brief(&briefer, &cfg).unwrap();
        // Swap the site for a different one.
        let _ = std::fs::remove_dir_all(dir.join("site"));
        let site = dir.join("site");
        std::fs::create_dir_all(site.join("other")).unwrap();
        std::fs::write(site.join("index.html"), "<body><a href=\"/other/a\">a</a></body>")
            .unwrap();
        let paras: String =
            (0..9).map(|i| format!("<p>replacement paragraph {i} words here</p>")).collect();
        std::fs::write(site.join("other/a.html"), format!("<body>{paras}</body>")).unwrap();
        cfg.resume = true;
        match crawl_brief(&briefer, &cfg) {
            Err(PipelineError::SiteChanged { .. }) => {}
            other => panic!("expected SiteChanged, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_site_reports_nothing() {
        let _chaos = wb_chaos::test_lock();
        let dir = fresh_dir("wb_pipeline_empty");
        std::fs::create_dir_all(dir.join("site")).unwrap();
        let briefer = test_briefer();
        let report = crawl_brief(&briefer, &cfg_in(&dir)).unwrap();
        assert_eq!(report.briefed, 0);
        assert_eq!(report.broken_links, 1, "the root URL itself is missing");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
