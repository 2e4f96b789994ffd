//! The four workloads: their set-up, their measured phase, and the checks
//! of everything the program returned.
//!
//! Every run pins the same environment: `RAYON_NUM_THREADS=2` for the
//! program and the in-process reference, `wb serve --workers 2
//! --replicas 1`, and load from this one process with at most two
//! threads and two connections (the reference machine has two cores).

use crate::client::{self, Load, LoopResult, Response, Schedule};
use crate::host;
use crate::inputs;
use crate::metrics::Values;
use crate::oracle::{self, Digest};
use crate::procs::{self, Server};
use crate::stats;
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use wb_core::{Brief, Briefer};
use wb_corpus::SiteSpec;

/// A workload: one set of inputs and one way of driving the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `wb brief --json` over batches of fresh short pages, plus one-page
    /// invocations: the batch path, where beam decoding is the per-page
    /// fixed cost and there is no serving or pipeline layer.
    BriefCli,
    /// A fresh `wb serve`, every page distinct (all cache misses): an open
    /// loop at a fixed rate, then a closed loop for throughput.
    ServeMiss,
    /// A fresh `wb serve` warmed with a set of pages, then a closed loop
    /// over only those pages: every request is a cache hit, so the event
    /// loop, HTTP parsing and the cache carry all the work.
    ServeHot,
    /// `wb crawl-brief` over mixed-hostility sites of long pages: the
    /// site-scale path, with fetch, journal and sink I/O and quarantine.
    CrawlSite,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::BriefCli, Workload::ServeMiss, Workload::ServeHot, Workload::CrawlSite];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BriefCli => "brief_cli",
            Workload::ServeMiss => "serve_miss",
            Workload::ServeHot => "serve_hot",
            Workload::CrawlSite => "crawl_site",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// `wb train` arguments of the benchmark's model: the 16-topic corpus of
/// `wb train`'s defaults, trained for 6 epochs — enough for full
/// three-word topics, cheap enough to train three times per run.
const TRAIN_ARGS: [&str; 6] = ["--epochs", "6", "--subjects", "2", "--pages", "8"];
/// Distinct short pages available to a run (more than the server's
/// 1,024-entry cache and more than any run sends).
const SHORT_POOL: usize = 2000;
/// Pages per `wb brief` batch invocation.
const CLI_BATCH: usize = 100;
/// One-page invocations after each batch (the latency samples).
const CLI_SINGLES: usize = 4;
/// The open-loop rate of serve_miss: about half the miss throughput of
/// the reference machine, so latency reflects service, not a backlog.
const MISS_RATE: f64 = 50.0;
/// Share of serve_miss's time spent in the open loop; the closed loop,
/// whose throughput varies more, runs for the rest.
const MISS_OPEN_SHARE: f64 = 0.4;
/// Pages warmed into the cache for serve_hot.
const HOT_PAGES: usize = 256;
/// Client connections (and threads).
const CONNS: usize = 2;
/// Sites available to crawl_site (one per topic), and child pages per site.
const SITES: usize = 16;
const SITE_PAGES: usize = 32;
/// One-page sites available to crawl_site (its latency samples), and how
/// many are crawled after each full site.
const ONE_PAGE_SITES: usize = 48;
const CRAWL_SINGLES: usize = 4;
/// Latency samples every workload collects at least (a median with ten
/// samples beyond it).
const MIN_LATENCY_SAMPLES: usize = 20;
/// Outputs compared byte for byte against the in-process reference in
/// every run: the first pages of the pool (and the first one-page sites),
/// which every run returns, so the set and its digest depend only on the
/// seed.
const VERIFY_PAGES: usize = 128;
const VERIFY_ONE_PAGE_SITES: usize = 4;
/// Pages of the traced pass: short pages, or candidate crawl pages (of
/// which the multi-chunk ones are reported).
const TRACE_SHORT: usize = 300;
const TRACE_CRAWL: usize = 150;

/// Serve-path layer metrics (zero on workloads that do not serve).
pub const SERVE_LAYERS: [&str; 12] = [
    "serve.queue_wait_fraction",
    "serve.parse_fraction",
    "serve.cache_fraction",
    "serve.batch_wait_fraction",
    "serve.model_fraction",
    "serve.serialize_fraction",
    "serve.unattributed_fraction",
    "serve.cache_hit_fraction",
    "serve.conn_reuse_fraction",
    "serve.batch_size_mean",
    "serve.queue_depth_peak",
    "loadgen.late_fraction",
];

/// Crawl-pipeline layer metrics (zero on workloads that do not crawl).
pub const PIPELINE_LAYERS: [&str; 8] = [
    "pipeline.fetch_fraction",
    "pipeline.chunk_fraction",
    "pipeline.brief_fraction",
    "pipeline.sink_fraction",
    "pipeline.queue_depth_peak",
    "pipeline.inflight_bytes_peak",
    "pipeline.briefed_per_crawl",
    "pipeline.quarantined_per_crawl",
];

/// What every run shares.
pub struct Ctx {
    /// The `wb` binary.
    pub wb: PathBuf,
    /// This run's scratch directory inside the checkout.
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the children's stderr goes.
    pub stderr: File,
}

enum Inputs {
    Short {
        pages: Vec<String>,
        files: Vec<PathBuf>,
    },
    Sites {
        sites: Vec<SiteSpec>,
        dirs: Vec<PathBuf>,
        singles: Vec<SiteSpec>,
        single_dirs: Vec<PathBuf>,
    },
}

/// A finished set-up: the trained model, the exported inputs and, for the
/// serving workloads, a running server.
pub struct Prepared {
    model: PathBuf,
    inputs: Inputs,
    server: Option<Server>,
}

impl Prepared {
    /// Stops what the set-up started (before the next repetition).
    pub fn release(self) -> Result<(), String> {
        self.server.map_or(Ok(()), |s| s.stop().map(|_| ()))
    }
}

/// One set-up: train the model, generate and export the inputs, start
/// the server. Everything here is timed as `setup_s`.
pub fn setup(ctx: &Ctx, w: Workload) -> Result<Prepared, String> {
    let model = ctx.dir.join("model.json");
    let mut train = Command::new(&ctx.wb);
    train.arg("train").arg("--out").arg(&model).args(TRAIN_ARGS);
    train.args(["--seed", &inputs::MODEL_SEED.to_string()]);
    procs::run(train, &ctx.stderr)?;
    let io = |e: std::io::Error| format!("exporting inputs: {e}");
    let inputs = match w {
        Workload::BriefCli | Workload::ServeMiss | Workload::ServeHot => {
            let pages = inputs::short_pages(ctx.seed, SHORT_POOL);
            let files = if w == Workload::BriefCli {
                inputs::export_pages(&ctx.dir.join("pages"), &pages).map_err(io)?
            } else {
                Vec::new()
            };
            Inputs::Short { pages, files }
        }
        Workload::CrawlSite => {
            let sites = inputs::sites(ctx.seed, SITES, SITE_PAGES);
            let singles = inputs::one_page_sites(ctx.seed, ONE_PAGE_SITES);
            let dirs = inputs::export_sites(&ctx.dir.join("sites"), &sites).map_err(io)?;
            let single_dirs =
                inputs::export_sites(&ctx.dir.join("one-page-sites"), &singles).map_err(io)?;
            Inputs::Sites { sites, dirs, singles, single_dirs }
        }
    };
    let server = match w {
        Workload::ServeMiss | Workload::ServeHot => {
            Some(Server::start(&ctx.wb, &model, &ctx.stderr)?)
        }
        _ => None,
    };
    Ok(Prepared { model, inputs, server })
}

/// Failures, counted, with the first few described.
#[derive(Default)]
pub struct Failures {
    pub count: usize,
    pub first: Vec<String>,
}

impl Failures {
    fn add(&mut self, what: String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(what);
        }
    }

    fn absorb(&mut self, result: &LoopResult) {
        self.count += result.tally.failed;
        for e in &result.errors {
            if self.first.len() < 8 {
                self.first.push(e.clone());
            }
        }
    }
}

/// What a workload's measured phase produced, already checked.
pub struct Outcome {
    pub pages_per_s: f64,
    /// Per-page latency samples, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Share of the timed units (runs or windows) no host steal touched;
    /// the metrics above come from those units (see [`crate::host`]).
    pub clean_share: f64,
    pub rss_mb: f64,
    /// Operations whose output was checked, and those that failed.
    pub attempted: usize,
    pub failures: Failures,
    /// Digest of the reference-checked outputs.
    pub digest: String,
    /// Serve and pipeline layer metrics (trace runs only).
    pub layers: Values,
    /// The in-process briefer the checks used (the traced pass reuses it).
    pub briefer: Briefer,
    /// The traced pass's pages, the workload's brief of each when it
    /// produced one, and the fewest chunks a reported page has.
    pub trace_pages: Vec<String>,
    pub observed: Vec<Option<Brief>>,
    pub min_chunks: usize,
}

/// Runs the measured phase for `seconds`, then checks the outputs.
pub fn measure(ctx: &Ctx, w: Workload, prep: Prepared) -> Result<Outcome, String> {
    let Prepared { model, inputs, server } = prep;
    match (w, inputs, server) {
        (Workload::BriefCli, Inputs::Short { pages, files }, None) => {
            brief_cli(ctx, &model, pages, &files)
        }
        (Workload::ServeMiss, Inputs::Short { pages, .. }, Some(server)) => {
            serve_miss(ctx, &model, pages, server)
        }
        (Workload::ServeHot, Inputs::Short { pages, .. }, Some(server)) => {
            serve_hot(ctx, &model, pages, server)
        }
        (Workload::CrawlSite, Inputs::Sites { sites, dirs, singles, single_dirs }, None) => {
            crawl_site(ctx, &model, &sites, &dirs, &singles, &single_dirs)
        }
        _ => unreachable!("set-up prepares exactly what its workload measures"),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Throughput and latency of the process-per-run workloads, from the runs
/// no host steal touched.
struct Timed {
    pages_per_s: f64,
    latency_ms: Vec<f64>,
    clean_share: f64,
}

impl Timed {
    /// `batches` are `((pages, seconds), clean)` of the throughput runs,
    /// `singles` `(milliseconds, clean)` of the one-page runs.
    fn keep_clean(batches: Vec<((usize, f64), bool)>, singles: Vec<(f64, bool)>) -> Timed {
        let units = (batches.len() + singles.len()) as f64;
        let clean = batches.iter().filter(|(_, c)| *c).count()
            + singles.iter().filter(|(_, c)| *c).count();
        let (batches, _) = host::keep_clean(batches);
        let (latency_ms, _) = host::keep_clean(singles);
        let pages: usize = batches.iter().map(|(p, _)| p).sum();
        let secs: f64 = batches.iter().map(|(_, s)| s).sum();
        Timed {
            pages_per_s: pages as f64 / secs,
            latency_ms,
            clean_share: stats::ratio(clean as f64, units),
        }
    }
}

fn brief_cmd(ctx: &Ctx, model: &Path, files: &[&PathBuf]) -> Command {
    let mut cmd = Command::new(&ctx.wb);
    cmd.arg("brief").arg("--model").arg(model).arg("--json").args(files);
    cmd
}

/// Compares the outputs of the first [`VERIFY_PAGES`] pages of the pool
/// byte for byte with the reference and digests them. Every short-page
/// workload returns these pages, so their digests agree for one seed.
fn verify_bodies(
    briefer: &Briefer,
    pages: &[String],
    bodies: &[Option<Vec<u8>>],
    fails: &mut Failures,
) -> String {
    let sample: Vec<usize> =
        (0..bodies.len()).filter(|&i| bodies[i].is_some()).take(VERIFY_PAGES).collect();
    let htmls: Vec<String> = sample.iter().map(|&i| pages[i].clone()).collect();
    let mut digest = Digest::new();
    for (&i, want) in sample.iter().zip(oracle::reference(briefer, &htmls)) {
        let got = bodies[i].as_deref().unwrap_or_default();
        digest.add(got);
        match want {
            Ok(b) if oracle::pretty(&b).as_bytes() == got => {}
            Ok(_) => fails.add(format!("page {i}: output differs from the in-process brief")),
            Err(e) => fails.add(format!("page {i}: the in-process reference failed: {e}")),
        }
    }
    digest.hex()
}

/// Parses every stored body as a brief; the briefs feed the traced pass.
fn parse_bodies(bodies: &[Option<Vec<u8>>], fails: &mut Failures) -> Vec<Option<Brief>> {
    bodies
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let b = b.as_ref()?;
            oracle::parse_brief(&String::from_utf8_lossy(b))
                .map_err(|e| fails.add(format!("page {i}: {e}")))
                .ok()
        })
        .collect()
}

fn short_trace_pages(
    pages: &[String],
    observed: Vec<Option<Brief>>,
) -> (Vec<String>, Vec<Option<Brief>>) {
    let n = TRACE_SHORT.min(pages.len());
    (pages[..n].to_vec(), observed.into_iter().take(n).collect())
}

fn brief_cli(
    ctx: &Ctx,
    model: &Path,
    pages: Vec<String>,
    files: &[PathBuf],
) -> Result<Outcome, String> {
    let n = pages.len();
    let index: HashMap<String, usize> =
        files.iter().enumerate().map(|(i, f)| (f.display().to_string(), i)).collect();
    let mut bodies: Vec<Option<Vec<u8>>> = vec![None; n];
    let mut fails = Failures::default();
    let (mut batches, mut rss, mut singles) = (Vec::new(), Vec::new(), Vec::new());
    let mut collect = |stdout: &[u8], sent: &[usize], fails: &mut Failures| {
        let printed: HashMap<usize, String> =
            oracle::parse_cli(&String::from_utf8_lossy(stdout))
                .into_iter()
                .filter_map(|(file, body)| index.get(&file).map(|&i| (i, body)))
                .collect();
        for &i in sent {
            match printed.get(&i) {
                Some(body) => bodies[i] = Some(body.clone().into_bytes()),
                None => fails.add(format!("page {i}: missing from wb brief output")),
            }
        }
    };
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut next_batch = 0;
    while Instant::now() < deadline || singles.len() < MIN_LATENCY_SAMPLES {
        let batch: Vec<usize> = (next_batch..next_batch + CLI_BATCH).map(|i| i % n).collect();
        next_batch += CLI_BATCH;
        let run = procs::run(
            brief_cmd(ctx, model, &batch.iter().map(|&i| &files[i]).collect::<Vec<_>>()),
            &ctx.stderr,
        )?;
        batches.push(((batch.len(), run.wall.as_secs_f64()), run.clean));
        rss.push(run.rss_mb);
        collect(&run.stdout, &batch, &mut fails);
        for _ in 0..CLI_SINGLES {
            // One-page invocations walk the pool from its end, away from
            // the batches' pages.
            let i = n - 1 - singles.len() % n;
            let run = procs::run(brief_cmd(ctx, model, &[&files[i]]), &ctx.stderr)?;
            singles.push((ms(run.wall), run.clean));
            collect(&run.stdout, &[i], &mut fails);
        }
    }
    let attempted = next_batch + singles.len();
    let timed = Timed::keep_clean(batches, singles);
    let briefer = oracle::load_briefer(model)?;
    let digest = verify_bodies(&briefer, &pages, &bodies, &mut fails);
    let observed = parse_bodies(&bodies, &mut fails);
    let (trace_pages, observed) = short_trace_pages(&pages, observed);
    Ok(Outcome {
        pages_per_s: timed.pages_per_s,
        latency_ms: timed.latency_ms,
        clean_share: timed.clean_share,
        rss_mb: stats::median(&rss).expect("at least one batch ran"),
        attempted,
        failures: fails,
        digest,
        layers: Vec::new(),
        briefer,
        trace_pages,
        observed,
        min_chunks: 1,
    })
}

/// Stores each 200 response's body by page after checking its cache
/// disposition.
fn store_bodies<'a>(
    bodies: &'a Mutex<Vec<Option<Vec<u8>>>>,
    want_cache: &'static str,
) -> impl Fn(usize, &Response) -> Result<(), String> + Sync + 'a {
    move |page, resp| {
        let cache = resp.header("x-cache");
        if cache != Some(want_cache) {
            return Err(format!("X-Cache {cache:?}, expected {want_cache}"));
        }
        bodies.lock().expect("no check panics while holding the lock")[page] =
            Some(resp.body.clone());
        Ok(())
    }
}

fn serve_miss(
    ctx: &Ctx,
    model: &Path,
    pages: Vec<String>,
    server: Server,
) -> Result<Outcome, String> {
    let n = pages.len();
    let bodies = Mutex::new(vec![None; n]);
    let check = store_bodies(&bodies, "miss");
    let start = Instant::now();
    let open_count = ((MISS_RATE * ctx.seconds * MISS_OPEN_SHARE) as usize)
        .clamp(MIN_LATENCY_SAMPLES, n / 2);
    let open = client::open_loop(
        &Load {
            addr: server.addr,
            conns: CONNS,
            pages: &pages,
            page_of: &|seq| Some(seq),
            check: &check,
        },
        Schedule::new(Instant::now(), MISS_RATE),
        open_count,
    );
    // Every page is sent once, so every request misses the cache.
    let closed = client::closed_loop(
        &Load {
            addr: server.addr,
            conns: CONNS,
            pages: &pages,
            page_of: &|seq| (open_count + seq < n).then_some(open_count + seq),
            check: &check,
        },
        start + Duration::from_secs_f64(ctx.seconds),
    );
    let snapshot = ctx.trace.then(|| server.metrics()).transpose()?;
    let rss_mb = server.stop()?;

    let mut fails = Failures::default();
    fails.absorb(&open);
    fails.absorb(&closed);
    drop(check);
    let bodies = bodies.into_inner().expect("load threads finished");
    let briefer = oracle::load_briefer(model)?;
    let digest = verify_bodies(&briefer, &pages, &bodies, &mut fails);
    let observed = parse_bodies(&bodies, &mut fails);
    let layers = if ctx.trace {
        serve_layers(&[&open, &closed], open.tally.late_fraction(), snapshot.as_ref())
    } else {
        Vec::new()
    };
    let (trace_pages, observed) = short_trace_pages(&pages, observed);
    let (open_w, closed_w) = (open.steady(), closed.steady());
    let windows = (open_w.windows + closed_w.windows) as f64;
    Ok(Outcome {
        pages_per_s: closed_w.rate,
        attempted: open.tally.requests() + closed.tally.requests(),
        clean_share: stats::ratio(
            open_w.clean_share * open_w.windows as f64
                + closed_w.clean_share * closed_w.windows as f64,
            windows,
        ),
        latency_ms: open_w.latency_ms,
        rss_mb,
        failures: fails,
        digest,
        layers,
        briefer,
        trace_pages,
        observed,
        min_chunks: 1,
    })
}

fn serve_hot(
    ctx: &Ctx,
    model: &Path,
    pages: Vec<String>,
    server: Server,
) -> Result<Outcome, String> {
    let hot = HOT_PAGES.min(pages.len());
    let warm_bodies = Mutex::new(vec![None; hot]);
    let store = store_bodies(&warm_bodies, "miss");
    let warm = client::closed_loop(
        &Load {
            addr: server.addr,
            conns: CONNS,
            pages: &pages,
            page_of: &|seq| (seq < hot).then_some(seq),
            check: &store,
        },
        Instant::now() + Duration::from_secs(120),
    );
    drop(store);
    let warm_bodies = warm_bodies.into_inner().expect("load threads finished");
    let same_as_warm = |page: usize, resp: &Response| {
        if resp.header("x-cache") != Some("hit") {
            return Err(format!("X-Cache {:?}, expected hit", resp.header("x-cache")));
        }
        if warm_bodies[page].as_deref() != Some(resp.body.as_slice()) {
            return Err("the cached body differs from the page's first response".to_string());
        }
        Ok(())
    };
    let run = client::closed_loop(
        &Load {
            addr: server.addr,
            conns: CONNS,
            pages: &pages,
            page_of: &|seq| Some(seq % hot),
            check: &same_as_warm,
        },
        Instant::now() + Duration::from_secs_f64(ctx.seconds),
    );
    let snapshot = ctx.trace.then(|| server.metrics()).transpose()?;
    let rss_mb = server.stop()?;

    let mut fails = Failures::default();
    fails.absorb(&warm);
    fails.absorb(&run);
    let briefer = oracle::load_briefer(model)?;
    let digest = verify_bodies(&briefer, &pages, &warm_bodies, &mut fails);
    let observed = parse_bodies(&warm_bodies, &mut fails);
    let layers =
        if ctx.trace { serve_layers(&[&run], 0.0, snapshot.as_ref()) } else { Vec::new() };
    let (trace_pages, observed) = short_trace_pages(&pages, observed);
    let steady = run.steady();
    Ok(Outcome {
        pages_per_s: steady.rate,
        attempted: warm.tally.requests() + run.tally.requests(),
        latency_ms: steady.latency_ms,
        clean_share: steady.clean_share,
        rss_mb,
        failures: fails,
        digest,
        layers,
        briefer,
        trace_pages,
        observed,
        min_chunks: 1,
    })
}

/// Serve-path layers from every response's `Server-Timing` and `X-Cache`
/// plus the server's own metrics: each stage's share of the client-side
/// service time, hit and connection-reuse shares, batching and queueing.
fn serve_layers(
    loops: &[&LoopResult],
    late_fraction: f64,
    snapshot: Option<&wb_obs::metrics::Snapshot>,
) -> Values {
    let service: f64 = loops.iter().map(|l| l.tally.service_ms).sum();
    let mut stage = [0.0; 6];
    for l in loops {
        for (s, v) in stage.iter_mut().zip(l.tally.stages_ms) {
            *s += v;
        }
    }
    let n = loops.iter().map(|l| l.tally.requests()).sum::<usize>() as f64;
    let hits = loops.iter().map(|l| l.tally.hits).sum::<usize>() as f64;
    let connections: usize = loops.iter().map(|l| l.connections).sum();
    let batch_mean =
        snapshot.and_then(|s| s.histograms.get("serve.batch.size")).map_or(0.0, |h| h.mean());
    let queue_peak =
        snapshot.and_then(|s| s.gauges.get("serve.queue.depth.peak")).copied().unwrap_or(0.0);
    let mut out: Values = SERVE_LAYERS[..6]
        .iter()
        .zip(stage)
        .map(|(name, total)| (*name, stats::ratio(total, service)))
        .collect();
    out.extend([
        (
            "serve.unattributed_fraction",
            stats::ratio(service - stage.iter().sum::<f64>(), service),
        ),
        ("serve.cache_hit_fraction", stats::ratio(hits, n)),
        ("serve.conn_reuse_fraction", stats::ratio(n - connections as f64, n)),
        ("serve.batch_size_mean", batch_mean),
        ("serve.queue_depth_peak", queue_peak),
        ("loadgen.late_fraction", late_fraction),
    ]);
    out
}

/// One `wb crawl-brief` run's outputs.
struct Crawl {
    out: PathBuf,
    briefs: Vec<(String, Brief)>,
    dead: Vec<String>,
}

fn crawl_once(
    ctx: &Ctx,
    model: &Path,
    site: &Path,
    out: PathBuf,
    fails: &mut Failures,
) -> Result<(Crawl, procs::Run), String> {
    let mut cmd = Command::new(&ctx.wb);
    cmd.arg("crawl-brief")
        .arg("--site")
        .arg(site)
        .arg("--model")
        .arg(model)
        .arg("--out")
        .arg(&out);
    if ctx.trace {
        cmd.arg("--metrics-out").arg(out.with_extension("metrics.json"));
    }
    let run = procs::run(cmd, &ctx.stderr)?;
    let read =
        |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let mut briefs = Vec::new();
    for line in read(&out)?.lines() {
        match oracle::parse_crawl_line(line) {
            Ok(b) => briefs.push(b),
            Err(e) => fails.add(format!("{}: {e}", out.display())),
        }
    }
    let mut dead = Vec::new();
    for line in read(&out.with_extension("dead.jsonl"))?.lines() {
        match oracle::parse_dead_line(line) {
            Ok(u) => dead.push(u),
            Err(e) => fails.add(format!("{}: {e}", out.display())),
        }
    }
    Ok((Crawl { out, briefs, dead }, run))
}

/// Every page that is not hostile must be briefed; only hostile pages may
/// be quarantined; no page may appear twice or come from outside the site.
fn check_coverage(site: &SiteSpec, crawl: &Crawl, fails: &mut Failures) {
    let hostile: HashSet<&str> = site.hostile.iter().map(String::as_str).collect();
    let children: HashSet<&str> = site.files[1..].iter().map(|f| f.url.as_str()).collect();
    let briefed: HashSet<&str> = crawl.briefs.iter().map(|(u, _)| u.as_str()).collect();
    let mut seen = HashSet::new();
    for url in crawl.briefs.iter().map(|(u, _)| u).chain(&crawl.dead) {
        if !children.contains(url.as_str()) || !seen.insert(url.as_str()) {
            fails.add(format!("{}: unexpected or repeated page {url}", crawl.out.display()));
        }
    }
    for url in &crawl.dead {
        if !hostile.contains(url.as_str()) {
            fails.add(format!("{}: quarantined a clean page {url}", crawl.out.display()));
        }
    }
    for url in children.difference(&hostile) {
        if !briefed.contains(url) {
            fails.add(format!("{}: clean page {url} was not briefed", crawl.out.display()));
        }
    }
}

/// Compares crawl briefs with the in-process briefs of the same pages.
fn verify_crawl(
    briefer: &Briefer,
    site: &SiteSpec,
    crawl: &Crawl,
    digest: &mut Digest,
    fails: &mut Failures,
) {
    let html: HashMap<&str, &str> =
        site.files.iter().map(|f| (f.url.as_str(), f.html.as_str())).collect();
    // Pages from outside the site were already counted by the coverage check.
    let known: Vec<&(String, Brief)> =
        crawl.briefs.iter().filter(|(u, _)| html.contains_key(u.as_str())).collect();
    let htmls: Vec<String> = known.iter().map(|(u, _)| html[u.as_str()].to_string()).collect();
    for ((url, got), want) in known.into_iter().zip(oracle::reference(briefer, &htmls)) {
        match want {
            Ok(b) if &b == got => {}
            _ => fails.add(format!(
                "{}: brief of {url} differs from the in-process brief",
                crawl.out.display()
            )),
        }
    }
    match std::fs::read(&crawl.out) {
        Ok(bytes) => digest.add(&bytes),
        Err(e) => fails.add(format!("{}: {e}", crawl.out.display())),
    }
}

fn crawl_site(
    ctx: &Ctx,
    model: &Path,
    sites: &[SiteSpec],
    dirs: &[PathBuf],
    singles: &[SiteSpec],
    single_dirs: &[PathBuf],
) -> Result<Outcome, String> {
    let out_dir = ctx.dir.join("crawl");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut fails = Failures::default();
    let (mut site_runs, mut rss, mut singles_timed) = (Vec::new(), Vec::new(), Vec::new());
    let mut crawls: Vec<(usize, Crawl)> = Vec::new();
    let mut one_page: Vec<(usize, Crawl)> = Vec::new();
    let mut attempted = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < deadline || singles_timed.len() < MIN_LATENCY_SAMPLES {
        let k = crawls.len();
        let site = k % sites.len();
        let (crawl, run) = crawl_once(
            ctx,
            model,
            &dirs[site],
            out_dir.join(format!("site-{k}.jsonl")),
            &mut fails,
        )?;
        let sequenced = crawl.briefs.len() + crawl.dead.len();
        attempted += sequenced;
        site_runs.push(((sequenced, run.wall.as_secs_f64()), run.clean));
        rss.push(run.rss_mb);
        check_coverage(&sites[site], &crawl, &mut fails);
        crawls.push((site, crawl));
        for _ in 0..CRAWL_SINGLES {
            let j = one_page.len();
            let s = j % singles.len();
            let (crawl, run) = crawl_once(
                ctx,
                model,
                &single_dirs[s],
                out_dir.join(format!("one-page-{j}.jsonl")),
                &mut fails,
            )?;
            singles_timed.push((ms(run.wall), run.clean));
            attempted += 1;
            check_coverage(&singles[s], &crawl, &mut fails);
            one_page.push((s, crawl));
        }
    }

    let briefer = oracle::load_briefer(model)?;
    let mut digest = Digest::new();
    let (first_site, first) = &crawls[0];
    verify_crawl(&briefer, &sites[*first_site], first, &mut digest, &mut fails);
    for (s, crawl) in one_page.iter().take(VERIFY_ONE_PAGE_SITES) {
        verify_crawl(&briefer, &singles[*s], crawl, &mut digest, &mut fails);
    }

    // Traced-pass candidates: the clean pages of the crawled sites, each
    // with the brief the crawl produced for it.
    let mut trace_pages = Vec::new();
    let mut observed = Vec::new();
    let mut traced_sites = HashSet::new();
    for (s, crawl) in &crawls {
        if !traced_sites.insert(*s) {
            continue;
        }
        let got: HashMap<&str, &Brief> =
            crawl.briefs.iter().map(|(u, b)| (u.as_str(), b)).collect();
        for f in sites[*s].files[1..].iter().filter(|f| !sites[*s].hostile.contains(&f.url)) {
            trace_pages.push(f.html.clone());
            observed.push(got.get(f.url.as_str()).map(|b| (*b).clone()));
        }
    }
    trace_pages.truncate(TRACE_CRAWL);
    observed.truncate(TRACE_CRAWL);

    let layers = if ctx.trace { pipeline_layers(&crawls)? } else { Vec::new() };
    let timed = Timed::keep_clean(site_runs, singles_timed);
    Ok(Outcome {
        pages_per_s: timed.pages_per_s,
        latency_ms: timed.latency_ms,
        clean_share: timed.clean_share,
        rss_mb: stats::median(&rss).expect("at least one crawl ran"),
        attempted,
        failures: fails,
        digest: digest.hex(),
        layers,
        briefer,
        trace_pages,
        observed,
        min_chunks: 2,
    })
}

/// Pipeline layers from the full-site crawls' `--metrics-out` snapshots:
/// each stage's busy time as a share of the run's wall time (stages run
/// concurrently, so shares can sum past 1), queue and memory peaks, and
/// outcomes per crawl.
fn pipeline_layers(crawls: &[(usize, Crawl)]) -> Result<Values, String> {
    let mut busy = [0.0; 4];
    let mut run_us = 0.0;
    let (mut queue_peak, mut inflight_peak, mut briefed, mut quarantined) =
        (0.0f64, 0.0f64, 0.0, 0.0);
    for (_, crawl) in crawls {
        let path = crawl.out.with_extension("metrics.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let snap = wb_obs::metrics::Snapshot::from_json(&text)?;
        let sum = |name: &str| snap.histograms.get(name).map_or(0.0, |h| h.sum);
        let gauge = |name: &str| snap.gauges.get(name).copied().unwrap_or(0.0);
        let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
        for (b, span) in busy.iter_mut().zip([
            "pipeline.fetch",
            "pipeline.chunk",
            "pipeline.brief.batch",
            "pipeline.sink.write",
        ]) {
            *b += sum(span);
        }
        run_us += sum("pipeline.run");
        for q in ["page", "chunk", "brief"] {
            queue_peak = queue_peak.max(gauge(&format!("pipeline.queue.{q}.depth_peak")));
        }
        inflight_peak = inflight_peak.max(gauge("pipeline.inflight.bytes_peak"));
        briefed += count("pipeline.pages.briefed");
        quarantined += count("pipeline.pages.quarantined");
    }
    let n = crawls.len() as f64;
    let mut out: Values = PIPELINE_LAYERS[..4]
        .iter()
        .zip(busy)
        .map(|(name, b)| (*name, stats::ratio(b, run_us)))
        .collect();
    out.extend([
        ("pipeline.queue_depth_peak", queue_peak),
        ("pipeline.inflight_bytes_peak", inflight_peak),
        ("pipeline.briefed_per_crawl", briefed / n),
        ("pipeline.quarantined_per_crawl", quarantined / n),
    ]);
    Ok(out)
}
