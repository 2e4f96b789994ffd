//! The briefing server: a poll-based event loop (`event`) parses every
//! request, answers cache hits and control routes inline, and submits
//! each `/brief` miss straight to its replica's bounded queue
//! (`replica`); the replica's executors (`batch`) brief the page, fill
//! that replica's LRU cache and hand the result back to the loop, which
//! writes the response. Replicas are consistent-hashed by page content,
//! each with its own queue, executors, cache and circuit breaker.
//!
//! Load-shedding contract: an accepted connection is always answered —
//! queued-and-served, or `503 + Retry-After` when the replica queue is
//! full — and no request can hang: socket reads, socket writes and the
//! wait for an executor are all bounded by the request timeout. A model
//! panic fails the affected requests with 500, trips only that replica's
//! breaker, and the server keeps serving.
//!
//! Connections are HTTP/1.1 keep-alive by default (bounded by
//! `max_requests_per_conn` and `idle_timeout_ms`); framing errors always
//! close. Concurrency is bounded by `max_conns`, not by thread count —
//! idle keep-alive connections cost a slab slot, not a thread.

use crate::batch;
use crate::breaker::BreakerConfig;
use crate::event::{self, Completions, Done};
use crate::http;
use crate::replica::ReplicaSet;
use crate::telemetry;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use wb_core::Briefer;

/// Server tuning knobs, exposed one-to-one as `wb serve` flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, `HOST:PORT` (port 0 picks a free port — used by tests).
    pub addr: String,
    /// Executors per replica, capped by the rayon pool's thread count.
    pub workers: usize,
    /// Jobs each replica's queue holds waiting for an executor; a miss
    /// arriving at a full queue is shed with 503.
    pub queue_capacity: usize,
    /// LRU response-cache entries *per replica*; 0 disables caching.
    pub cache_capacity: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Bound on socket reads/writes and on waiting for an executor to
    /// brief a page.
    pub request_timeout_ms: u64,
    /// Artificial per-batch stall before the model runs — a load-testing
    /// knob that makes overload reproducible; 0 (the default) in
    /// production.
    pub handler_delay_ms: u64,
    /// Model failures (panicked batches) within the breaker window that
    /// trip a replica's circuit breaker; 0 disables the breakers.
    pub breaker_threshold: u32,
    /// Sliding failure window of the circuit breakers.
    pub breaker_window_ms: u64,
    /// How long a tripped breaker serves cache-only before probing.
    pub breaker_cooldown_ms: u64,
    /// Emit a structured JSON access-log line for 1 in N `/brief`
    /// requests; 0 (the default) disables sampling. Slow requests log
    /// unconditionally regardless of this setting.
    pub access_log_sample: u64,
    /// `/brief` requests slower than this always log their full stage
    /// breakdown at WARN; 0 disables slow-request logging.
    pub slow_request_ms: u64,
    /// Model replicas: independent serving lanes (queue + executors +
    /// cache + breaker each) over the shared model weights.
    pub replicas: usize,
    /// Requests served on one connection before the server closes it
    /// (bounds how long one client can monopolize a slot); 0 = unlimited.
    pub max_requests_per_conn: u64,
    /// Idle keep-alive connections are closed after this long; 0 = never.
    pub idle_timeout_ms: u64,
    /// Most concurrent connections the event loop will hold open; beyond
    /// this, accepts wait in the listen backlog.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let breaker = BreakerConfig::default();
        ServeConfig {
            addr: "127.0.0.1:8660".to_string(),
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8),
            queue_capacity: 256,
            cache_capacity: 1024,
            max_body_bytes: 2 * 1024 * 1024,
            request_timeout_ms: 30_000,
            handler_delay_ms: 0,
            breaker_threshold: breaker.threshold,
            breaker_window_ms: breaker.window.as_millis() as u64,
            breaker_cooldown_ms: breaker.cooldown.as_millis() as u64,
            access_log_sample: 0,
            slow_request_ms: 1000,
            replicas: 1,
            max_requests_per_conn: 10_000,
            idle_timeout_ms: 30_000,
            max_conns: 4096,
        }
    }
}

pub(crate) struct Shared {
    pub(crate) briefer: Briefer,
    pub(crate) cfg: ServeConfig,
    pub(crate) replicas: ReplicaSet,
    /// Executor threads across all replicas.
    pub(crate) executors: usize,
    pub(crate) completions: Completions,
    pub(crate) stopping: AtomicBool,
    pub(crate) shutdown_tx: Mutex<mpsc::Sender<()>>,
}

/// The running server. Dropping the handle shuts the server down
/// gracefully (finish queued and in-flight requests, then stop).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    io: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
    shutdown_rx: Receiver<()>,
}

/// Starts the briefing server; returns once the listener is bound and the
/// event loop and executors are running.
pub fn start(briefer: Briefer, cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    // The event loop drives everything off poll readiness.
    listener.set_nonblocking(true)?;
    let replica_count = cfg.replicas.max(1);
    // Each executor holds one page in the model; the rayon pool bounds
    // how many can run at once.
    let executors_per_replica = rayon::current_num_threads().min(cfg.workers.max(1));
    let (shutdown_tx, shutdown_rx) = mpsc::channel();
    let replicas = ReplicaSet::new(
        replica_count,
        cfg.cache_capacity,
        cfg.queue_capacity,
        BreakerConfig {
            threshold: cfg.breaker_threshold,
            window: Duration::from_millis(cfg.breaker_window_ms),
            cooldown: Duration::from_millis(cfg.breaker_cooldown_ms),
        },
    );
    let shared = Arc::new(Shared {
        replicas,
        executors: executors_per_replica * replica_count,
        completions: Completions::new()?,
        stopping: AtomicBool::new(false),
        shutdown_tx: Mutex::new(shutdown_tx),
        briefer,
        cfg,
    });
    // Pin the observability epoch so `/varz` and snapshot uptimes count
    // from server start even if no metric was recorded earlier.
    let _ = wb_obs::window::epoch();
    // Keep the `proc.*` runtime gauges (RSS, threads, open fds) fresh
    // for `/varz`, `wb top` and Prometheus scrapes.
    wb_obs::procstat::spawn_sampler(Duration::from_secs(1));
    wb_obs::info!(
        "wb serve listening on {addr} ({} executors, {replica_count} replicas, \
         queue {} per replica, cache {})",
        shared.executors,
        shared.cfg.queue_capacity.max(1),
        shared.cfg.cache_capacity
    );
    wb_obs::gauge!("serve.executors", shared.executors as f64);

    let io = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("wb-serve-io".to_string())
            .spawn(move || event::run(shared, listener))?
    };
    let mut executors = Vec::with_capacity(replica_count);
    for r in 0..replica_count {
        let shared = Arc::clone(&shared);
        executors.push(std::thread::Builder::new().name(format!("wb-serve-batch-{r}")).spawn(
            move || {
                batch::run_executors(
                    &shared.replicas.all()[r],
                    executors_per_replica,
                    &shared.briefer,
                    Duration::from_millis(shared.cfg.handler_delay_ms),
                    &shared.completions,
                );
            },
        )?);
    }
    Ok(ServerHandle { addr, shared, io: Some(io), executors, shutdown_rx })
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a client posts `/shutdown`.
    pub fn wait_for_shutdown_request(&self) {
        let _ = self.shutdown_rx.recv();
    }

    /// Waits up to `timeout` for a `/shutdown` request; `true` once one
    /// has arrived. Lets `wb serve` interleave the wait with polling the
    /// process signal flag (SIGINT/SIGTERM).
    pub fn poll_shutdown_request(&self, timeout: Duration) -> bool {
        self.shutdown_rx.recv_timeout(timeout).is_ok()
    }

    /// Gracefully stops the server: stop accepting, serve everything
    /// already accepted, drain the replica queues, join every thread.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    fn do_shutdown(&mut self) {
        if self.io.is_none() {
            return;
        }
        wb_obs::info!("wb serve shutting down (draining in-flight requests)");
        // The event loop sees `stopping` (the wake pipe interrupts its
        // poll), closes idle connections, finishes in-flight ones under
        // their deadlines, and exits.
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.completions.wake();
        if let Some(io) = self.io.take() {
            let _ = io.join();
        }
        // The loop is gone, so no further job can arrive: close the
        // queues and let the executors drain what is still queued.
        self.shared.replicas.close_all();
        for e in self.executors.drain(..) {
            let _ = e.join();
        }
        wb_obs::info!("wb serve stopped");
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.do_shutdown();
    }
}

/// A handler's response before the event loop renders it: the loop
/// attaches the request id, `Server-Timing` and keep-alive framing.
pub(crate) struct Reply {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: Vec<u8>,
    pub(crate) extra: Vec<(&'static str, String)>,
    /// Cache disposition for the access log (`hit` / `miss` / `-`).
    pub(crate) cache_state: &'static str,
    /// Close the connection after this response (load-shedding answers).
    pub(crate) close: bool,
}

impl Reply {
    pub(crate) fn json(status: u16, body: Vec<u8>, cache_state: &'static str) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            body,
            extra: Vec::new(),
            cache_state,
            close: false,
        }
    }

    /// A JSON error body (`{"error": detail}`).
    pub(crate) fn error(status: u16, detail: &str, cache_state: &'static str) -> Reply {
        Reply::json(status, http::error_body(detail), cache_state)
    }

    fn typed(status: u16, content_type: &'static str, body: Vec<u8>) -> Reply {
        Reply { content_type, ..Reply::json(status, body, "-") }
    }

    pub(crate) fn header(mut self, name: &'static str, value: impl Into<String>) -> Reply {
        self.extra.push((name, value.into()));
        self
    }

    /// Marks the response as the connection's last.
    pub(crate) fn closing(mut self) -> Reply {
        self.close = true;
        self
    }
}

/// Handles every non-`/brief` route (the control plane) on the event
/// loop. These requests are recorded under `serve.control.latency_us`,
/// never under the serving-path histogram. `None` means an accepted
/// `/pprof` capture, whose thread pushes the response to `conn` later.
pub(crate) fn handle_control(
    shared: &Arc<Shared>,
    req: &http::Request,
    conn: usize,
    generation: u64,
) -> Option<Reply> {
    Some(match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Reply::json(200, b"{\"status\":\"ok\"}".to_vec(), "-"),
        ("GET", "/metrics") => match req.query_param("format") {
            None | Some("json") => {
                Reply::json(200, wb_obs::metrics::snapshot().to_json().into_bytes(), "-")
            }
            Some("prometheus") => {
                // Cumulative families, then the windowed live view plus
                // the derived gauges `/varz` computes, so both endpoints
                // agree on "what is happening now".
                let mut body = wb_obs::prometheus::render(&wb_obs::metrics::snapshot());
                let ws = wb_obs::window::snapshot();
                body.push_str(&wb_obs::prometheus::render_window(&ws));
                body.push_str(&prometheus_window_derived(&ws));
                Reply::typed(200, wb_obs::prometheus::CONTENT_TYPE, body.into_bytes())
            }
            Some(other) => Reply::error(
                400,
                &format!("unknown metrics format `{other}` (expected `json` or `prometheus`)"),
                "-",
            ),
        },
        ("GET", "/varz") => Reply::json(200, varz_body(shared).into_bytes(), "-"),
        ("GET", "/pprof") => return handle_pprof(shared, req, conn, generation),
        ("POST", "/shutdown") => {
            let _ = shared.shutdown_tx.lock().unwrap().send(());
            Reply::json(200, b"{\"status\":\"shutting down\"}".to_vec(), "-")
        }
        (_, "/brief") | (_, "/shutdown") => {
            Reply::error(405, "method not allowed", "-").header("Allow", "POST")
        }
        (_, "/healthz") | (_, "/metrics") | (_, "/varz") | (_, "/pprof") => {
            Reply::error(405, "method not allowed", "-").header("Allow", "GET")
        }
        (_, path) => Reply::error(404, &format!("no route for {path}"), "-"),
    })
}

/// Serves `GET /pprof?seconds=N&hz=N&mode=wall|cpu&format=collapsed|svg`.
/// Bad parameters get 400 and a second concurrent capture 409 with a
/// Retry-After hint, both at once on the loop. An accepted capture starts
/// here and gets a short-lived thread of its own, which waits out the
/// capture, stops it, renders the folded result (or a flamegraph) and
/// pushes the response back to the loop.
fn handle_pprof(
    shared: &Arc<Shared>,
    req: &http::Request,
    conn: usize,
    generation: u64,
) -> Option<Reply> {
    let bad = |msg: String| Some(Reply::error(400, &msg, "-"));
    let seconds = match req.query_param("seconds").unwrap_or("2").parse::<f64>() {
        Ok(s) if s > 0.0 && s <= 60.0 => s,
        _ => return bad("seconds must be a number in (0, 60]".to_string()),
    };
    let hz = match req.query_param("hz").unwrap_or("99").parse::<u32>() {
        Ok(h) if (1..=1000).contains(&h) => h,
        _ => return bad("hz must be an integer in 1..=1000".to_string()),
    };
    let mode = req.query_param("mode").unwrap_or("wall");
    let Some(mode) = wb_obs::profile::Mode::parse(mode) else {
        return bad(format!("unknown mode `{mode}` (expected `wall` or `cpu`)"));
    };
    let svg = match req.query_param("format").unwrap_or("collapsed") {
        "collapsed" => false,
        "svg" => true,
        other => {
            return bad(format!("unknown format `{other}` (expected `collapsed` or `svg`)"))
        }
    };
    let recorder = match wb_obs::profile::start(wb_obs::profile::Options { hz, mode }) {
        Ok(recorder) => recorder,
        // The single-capture guard is the only runtime failure mode.
        Err(e) => {
            return Some(
                Reply::error(409, &e, "-")
                    .header("Retry-After", format!("{}", seconds.ceil() as u64)),
            )
        }
    };
    // The recorder travels over a channel so that a failed spawn leaves
    // it here to be stopped, instead of holding the capture guard forever.
    let (tx, rx) = mpsc::channel::<wb_obs::profile::Recorder>();
    let thread_shared = Arc::clone(shared);
    let spawned =
        std::thread::Builder::new().name("wb-serve-pprof".to_string()).spawn(move || {
            let Ok(recorder) = rx.recv() else { return };
            std::thread::sleep(Duration::from_secs_f64(seconds));
            let reply = render_profile(recorder.stop(), svg);
            thread_shared.completions.push(Done::Pprof { conn, generation, reply });
        });
    match spawned {
        Ok(_) => {
            let _ = tx.send(recorder);
            None
        }
        Err(e) => {
            recorder.stop();
            Some(Reply::error(500, &format!("cannot start the capture thread: {e}"), "-"))
        }
    }
}

/// Renders a finished capture as collapsed stacks or a flamegraph SVG.
fn render_profile(profile: wb_obs::profile::Profile, svg: bool) -> Reply {
    let collapsed = profile.to_collapsed();
    if !svg {
        return Reply::typed(200, "text/plain; charset=utf-8", collapsed.into_bytes());
    }
    let unit = match profile.mode {
        wb_obs::profile::Mode::Wall => "samples",
        wb_obs::profile::Mode::Cpu => "CPU µs",
    };
    let title = format!(
        "wb serve {} profile — {:.1}s at {} hz, {} {unit}",
        profile.mode.as_str(),
        profile.duration.as_secs_f64(),
        profile.hz,
        profile.total_weight
    );
    match wb_obs::flame::render_svg(&collapsed, &title) {
        Ok(svg) => Reply::typed(200, wb_obs::flame::CONTENT_TYPE, svg.into_bytes()),
        Err(e) => Reply::error(500, &format!("flamegraph: {e}"), "-"),
    }
}

/// The derived live gauges `/varz` computes (rps and error rate per
/// window), rendered for the Prometheus exposition so both endpoints
/// tell one story.
fn prometheus_window_derived(ws: &wb_obs::window::WindowSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let sum = |name: &str, secs: u64| {
        ws.counters
            .get(name)
            .map(|c| if secs == 10 { c.sum_10s } else { c.sum_60s })
            .unwrap_or(0)
    };
    out.push_str("# HELP wb_window_rps Live requests per second over the trailing window.\n");
    out.push_str("# TYPE wb_window_rps gauge\n");
    for secs in [10u64, 60] {
        let _ = writeln!(
            out,
            "wb_window_rps{{window=\"{secs}s\"}} {}",
            sum("serve.requests", secs) as f64 / secs as f64
        );
    }
    out.push_str("# HELP wb_window_error_rate Errors per request over the trailing window.\n");
    out.push_str("# TYPE wb_window_error_rate gauge\n");
    for secs in [10u64, 60] {
        let (req, err) = (sum("serve.requests", secs), sum("serve.errors", secs));
        let rate = if req > 0 { err as f64 / req as f64 } else { 0.0 };
        let _ = writeln!(out, "wb_window_error_rate{{window=\"{secs}s\"}} {rate}");
    }
    out
}

/// Builds the `/varz` body: the windowed live view (10 s and 60 s) plus
/// instantaneous server state — what `wb top` polls.
fn varz_body(shared: &Shared) -> String {
    use serde::{Serialize, Value};
    use std::collections::BTreeMap;
    let ws = wb_obs::window::snapshot();
    let ratio = |n: u64, d: u64| if d > 0 { n as f64 / d as f64 } else { 0.0 };
    let window_view = |secs: u64| -> Value {
        let csum = |name: &str| {
            ws.counters
                .get(name)
                .map(|c| if secs == 10 { c.sum_10s } else { c.sum_60s })
                .unwrap_or(0)
        };
        let hist_view = |name: &str| -> Value {
            let mut o = BTreeMap::new();
            if let Some(h) = ws.histograms.get(name) {
                let hs = if secs == 10 { &h.w10s } else { &h.w60s };
                o.insert("count".to_string(), hs.count as f64);
                o.insert("mean".to_string(), hs.mean());
                for (key, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                    if let Some(v) = hs.quantile(q) {
                        o.insert(key.to_string(), v);
                    }
                }
            }
            o.to_value()
        };
        let requests = csum("serve.requests");
        let errors = csum("serve.errors");
        let (hits, misses) = (csum("serve.cache.hit"), csum("serve.cache.miss"));
        let cache = BTreeMap::from([
            ("hits".to_string(), hits as f64),
            ("misses".to_string(), misses as f64),
            ("hit_ratio".to_string(), ratio(hits, hits + misses)),
        ]);
        let stages: BTreeMap<String, Value> = telemetry::STAGES
            .iter()
            .map(|stage| (stage.to_string(), hist_view(&format!("serve.stage.{stage}_us"))))
            .collect();
        BTreeMap::from([
            ("requests".to_string(), requests.to_value()),
            ("rps".to_string(), (requests as f64 / secs as f64).to_value()),
            ("errors".to_string(), errors.to_value()),
            ("error_rate".to_string(), ratio(errors, requests).to_value()),
            ("cache".to_string(), cache.to_value()),
            ("latency_us".to_string(), hist_view("serve.request.latency_us")),
            ("stages_us".to_string(), stages.to_value()),
        ])
        .to_value()
    };
    let windows = BTreeMap::from([
        ("10s".to_string(), window_view(10)),
        ("60s".to_string(), window_view(60)),
    ]);
    let g = |name: &str| wb_obs::metrics::registry().gauge(name).get();
    let c = |name: &str| wb_obs::metrics::registry().counter(name).get() as f64;
    let queue = BTreeMap::from([
        ("depth".to_string(), g("serve.queue.depth")),
        ("peak".to_string(), g("serve.queue.depth.peak")),
    ]);
    let cache = BTreeMap::from([
        ("size".to_string(), shared.replicas.cache_len() as f64),
        ("capacity".to_string(), (shared.cfg.cache_capacity * shared.replicas.len()) as f64),
    ]);
    let conns = BTreeMap::from([
        ("active".to_string(), g("serve.conn.active")),
        ("accepted".to_string(), c("serve.conn.accepted")),
        ("reused".to_string(), c("serve.conn.reused")),
        ("idle_closed".to_string(), c("serve.conn.idle_closed")),
        ("framing_errors".to_string(), c("serve.conn.framing_errors")),
    ]);
    // Runtime stats from the background procstat sampler; read through
    // the gauges (not /proc directly) so /varz never blocks on procfs
    // and `wb top` sees exactly what Prometheus scrapes. Empty object
    // where procfs is unavailable.
    let mut proc = BTreeMap::new();
    if g("proc.threads") > 0.0 {
        proc.insert("rss_bytes".to_string(), g("proc.rss_bytes"));
        proc.insert("threads".to_string(), g("proc.threads"));
        proc.insert("open_fds".to_string(), g("proc.open_fds"));
    }
    let uptime_ms = wb_obs::window::epoch().elapsed().as_secs_f64() * 1e3;
    let root = BTreeMap::from([
        ("uptime_ms".to_string(), uptime_ms.to_value()),
        ("windows".to_string(), windows.to_value()),
        ("queue".to_string(), queue.to_value()),
        ("cache".to_string(), cache.to_value()),
        ("conns".to_string(), conns.to_value()),
        ("proc".to_string(), proc.to_value()),
        ("breaker".to_string(), shared.replicas.breaker_summary().to_string().to_value()),
        ("replicas".to_string(), shared.replicas.len().to_value()),
        ("executors".to_string(), shared.executors.to_value()),
    ]);
    serde_json::to_string(&root).expect("a /varz body serialises")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use wb_core::{JointModel, JointVariant, ModelConfig};
    use wb_corpus::{Dataset, DatasetConfig};

    // Every test that starts a server holds `wb_chaos::test_lock()`: the
    // batch tests arm a fault point the executor passes through, and the
    // pass counters are process-wide.
    fn tiny_briefer() -> Briefer {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        Briefer::from_model(
            JointModel::new(JointVariant::JointWb, cfg, 11),
            d.tokenizer.clone(),
        )
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 16,
            max_body_bytes: 64 * 1024,
            request_timeout_ms: 10_000,
            handler_delay_ms: 0,
            ..ServeConfig::default()
        }
    }

    /// Reads `n` `Content-Length`-framed responses off one connection —
    /// required now that connections keep alive (EOF never comes after a
    /// response) and responses to pipelined requests arrive back-to-back
    /// (one socket read can deliver parts of several responses).
    fn read_responses(s: &mut TcpStream, n: usize) -> Vec<String> {
        let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
        let mut buf: Vec<u8> = Vec::new();
        let mut tmp = [0u8; 4096];
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let head_end = loop {
                if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    break p + 4;
                }
                match s.read(&mut tmp) {
                    Ok(0) => panic!(
                        "connection closed before response head: {:?}",
                        String::from_utf8_lossy(&buf)
                    ),
                    Ok(read) => buf.extend_from_slice(&tmp[..read]),
                    Err(e) => panic!("no response from server: {e}"),
                }
            };
            let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
            let content_length: usize = head
                .lines()
                .find_map(|l| {
                    let (k, v) = l.split_once(':')?;
                    if k.eq_ignore_ascii_case("content-length") {
                        v.trim().parse().ok()
                    } else {
                        None
                    }
                })
                .expect("Content-Length header in response");
            while buf.len() < head_end + content_length {
                match s.read(&mut tmp) {
                    Ok(0) => panic!("connection closed mid-body"),
                    Ok(read) => buf.extend_from_slice(&tmp[..read]),
                    Err(e) => panic!("read failed mid-body: {e}"),
                }
            }
            out.push(String::from_utf8_lossy(&buf[..head_end + content_length]).to_string());
            buf.drain(..head_end + content_length);
        }
        out
    }

    fn read_response(s: &mut TcpStream) -> String {
        read_responses(s, 1).pop().unwrap()
    }

    /// Sends one raw HTTP request on a fresh connection and returns the
    /// whole response text (status line, headers, body). Write errors are
    /// tolerated (the server may respond-and-close before consuming a
    /// rejected request); the response read is what matters.
    fn roundtrip_full(addr: SocketAddr, raw: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.write_all(raw);
        let _ = s.flush();
        read_response(&mut s)
    }

    /// Like `roundtrip_full` but parsed into (status, body).
    fn roundtrip(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
        let text = roundtrip_full(addr, raw);
        let status: u16 =
            text.split_ascii_whitespace().nth(1).expect("status code").parse().unwrap();
        let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body)
    }

    fn post_brief(addr: SocketAddr, html: &str) -> (u16, String) {
        let raw = format!(
            "POST /brief HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{html}",
            html.len()
        );
        roundtrip(addr, raw.as_bytes())
    }

    const PAGE: &str = "<html><body><section><p>great velcro books , price : $ 9.99 .\
                        </p></section></body></html>";

    #[test]
    fn routes_brief_healthz_metrics_and_errors() {
        let _chaos = wb_chaos::test_lock();
        let briefer = tiny_briefer();
        let expected =
            serde_json::to_string_pretty(&briefer.brief_html(PAGE).unwrap()).unwrap();
        let h = start(briefer, test_config()).unwrap();
        let addr = h.addr();

        let (status, body) = post_brief(addr, PAGE);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, expected, "served brief must equal the library brief byte-for-byte");
        // Second request: cached, still byte-identical.
        let (status, body2) = post_brief(addr, PAGE);
        assert_eq!(status, 200);
        assert_eq!(body2, expected);

        let (status, body) = roundtrip(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));

        let (status, body) = roundtrip(addr, b"GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"counters\""), "metrics body not a snapshot: {body}");

        let (status, _) = roundtrip(addr, b"GET /nope HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);
        let (status, _) = roundtrip(addr, b"GET /brief HTTP/1.1\r\n\r\n");
        assert_eq!(status, 405);
        let (status, _) = post_brief(addr, "");
        assert_eq!(status, 400);
        // A page with no visible text is unbriefable, not a server error.
        let (status, body) = post_brief(addr, "<html><head><title>x</title></head></html>");
        assert_eq!(status, 422, "{body}");
        assert!(body.contains("error"), "{body}");

        h.shutdown();
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err(),
            "listener must be closed after shutdown"
        );
    }

    #[test]
    fn keep_alive_reuses_one_connection_for_many_requests() {
        let _chaos = wb_chaos::test_lock();
        let h = start(tiny_briefer(), test_config()).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        let raw = format!(
            "POST /brief HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{PAGE}",
            PAGE.len()
        );
        let mut bodies = Vec::new();
        for i in 0..3 {
            s.write_all(raw.as_bytes()).unwrap();
            let text = read_response(&mut s);
            assert!(text.starts_with("HTTP/1.1 200"), "request {i}:\n{text}");
            assert!(
                text.contains("Connection: keep-alive\r\n"),
                "request {i} must keep the connection:\n{text}"
            );
            bodies.push(text.split_once("\r\n\r\n").unwrap().1.to_string());
        }
        assert!(bodies.windows(2).all(|w| w[0] == w[1]), "reused-connection briefs must agree");
        // `Connection: close` is honored and ends the connection.
        s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let text = read_response(&mut s);
        assert!(text.contains("Connection: close\r\n"), "{text}");
        let mut tail = Vec::new();
        s.read_to_end(&mut tail).expect("clean EOF after Connection: close");
        assert!(tail.is_empty(), "no bytes may follow the final response");
        h.shutdown();
    }

    #[test]
    fn pipelined_requests_are_all_answered_in_order() {
        let _chaos = wb_chaos::test_lock();
        let h = start(tiny_briefer(), test_config()).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        // Two briefs and a health check written back-to-back before any
        // response is read.
        let mut raw = Vec::new();
        for _ in 0..2 {
            raw.extend_from_slice(
                format!(
                    "POST /brief HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{PAGE}",
                    PAGE.len()
                )
                .as_bytes(),
            );
        }
        raw.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        s.write_all(&raw).unwrap();
        let responses = read_responses(&mut s, 3);
        let (first, second, third) = (&responses[0], &responses[1], &responses[2]);
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");
        assert!(second.starts_with("HTTP/1.1 200"), "{second}");
        assert!(third.contains("{\"status\":\"ok\"}"), "{third}");
        h.shutdown();
    }

    #[test]
    fn brief_responses_carry_request_id_and_server_timing() {
        let _chaos = wb_chaos::test_lock();
        let h = start(tiny_briefer(), test_config()).unwrap();
        let addr = h.addr();
        let raw = format!(
            "POST /brief HTTP/1.1\r\nHost: t\r\nX-Request-Id: test-rid-7\r\n\
             Content-Length: {}\r\n\r\n{PAGE}",
            PAGE.len()
        );
        let text = roundtrip_full(addr, raw.as_bytes());
        assert!(
            text.contains("X-Request-Id: test-rid-7\r\n"),
            "inbound id not echoed:\n{text}"
        );
        assert!(text.contains("Server-Timing: "), "missing Server-Timing:\n{text}");
        assert!(text.contains("model;dur="), "miss must attribute model time:\n{text}");
        // A cache hit has no model stage but still reports cache time.
        let raw = format!(
            "POST /brief HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{PAGE}",
            PAGE.len()
        );
        let text = roundtrip_full(addr, raw.as_bytes());
        assert!(text.contains("X-Cache: hit\r\n"), "{text}");
        assert!(!text.contains("model;dur="), "cache hit must not claim model time:\n{text}");
        assert!(text.contains("X-Request-Id: wb-"), "hit must mint an id:\n{text}");
        // Control-plane responses echo ids too.
        let text = roundtrip_full(addr, b"GET /healthz HTTP/1.1\r\nX-Request-Id: cp-1\r\n\r\n");
        assert!(text.contains("X-Request-Id: cp-1\r\n"), "{text}");
        h.shutdown();
    }

    #[test]
    fn varz_and_prometheus_routes_serve_live_views() {
        let _chaos = wb_chaos::test_lock();
        let h = start(tiny_briefer(), test_config()).unwrap();
        let addr = h.addr();
        let (status, _) = post_brief(addr, PAGE);
        assert_eq!(status, 200);
        let text = roundtrip_full(addr, b"GET /varz HTTP/1.1\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        let body = text.split_once("\r\n\r\n").unwrap().1;
        let v: serde_json::Value = serde_json::from_str(body).expect("valid varz JSON");
        assert_eq!(v.get("breaker").and_then(|b| b.as_str()), Some("closed"));
        let w10 = v.get("windows").and_then(|w| w.get("10s")).expect("10s window");
        assert!(
            w10.get("requests").and_then(|r| r.as_f64()).unwrap_or(0.0) >= 1.0,
            "the brief above must show up in the live window: {body}"
        );
        assert!(w10.get("stages_us").is_some());
        // Connection accounting rides along for `wb top`.
        let conns = v.get("conns").expect("conns section");
        assert!(
            conns.get("accepted").and_then(|a| a.as_f64()).unwrap_or(0.0) >= 1.0,
            "accepted connections must be counted: {conns:?}"
        );
        assert_eq!(v.get("replicas").and_then(|r| r.as_f64()), Some(1.0));
        // The proc.* runtime stats section rides along on /varz.
        let proc = v.get("proc").expect("proc section");
        #[cfg(target_os = "linux")]
        assert!(
            proc.get("threads").and_then(|t| t.as_f64()).unwrap_or(0.0) >= 1.0,
            "procstat sampler must populate threads: {proc:?}"
        );
        // Prometheus exposition next to the JSON snapshot.
        let text = roundtrip_full(addr, b"GET /metrics?format=prometheus HTTP/1.1\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"), "{text}");
        assert!(text.contains("# TYPE wb_serve_requests counter"), "{text}");
        assert!(text.contains("wb_serve_request_latency_us_bucket{le=\"+Inf\"}"), "{text}");
        // The windowed live view rides along so Prometheus and /varz
        // agree: generic wb_window_* families plus the derived gauges.
        assert!(text.contains("# TYPE wb_window_rps gauge"), "{text}");
        assert!(text.contains("wb_window_rps{window=\"10s\"}"), "{text}");
        assert!(text.contains("wb_window_error_rate{window=\"60s\"}"), "{text}");
        assert!(text.contains("wb_window_serve_requests_sum{window=\"10s\"}"), "{text}");
        // And the procstat sampler's runtime gauges are scrapable too.
        #[cfg(target_os = "linux")]
        assert!(text.contains("wb_proc_threads"), "{text}");
        // The JSON view is unchanged, and unknown formats are a 400.
        let (status, body) = roundtrip(addr, b"GET /metrics?format=json HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"counters\""), "{body}");
        let (status, body) = roundtrip(addr, b"GET /metrics?format=xml HTTP/1.1\r\n\r\n");
        assert_eq!(status, 400, "{body}");
        let (status, _) = roundtrip(addr, b"POST /varz HTTP/1.1\r\n\r\n");
        assert_eq!(status, 405);
        h.shutdown();
    }

    // The profiler's single-capture guard is process-global, so the
    // pprof tests must not overlap in the parallel test runner.
    static PPROF_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn pprof_route_streams_collapsed_and_svg_captures() {
        let _chaos = wb_chaos::test_lock();
        let _serial = PPROF_LOCK.lock().unwrap();
        let h = start(tiny_briefer(), test_config()).unwrap();
        let addr = h.addr();
        // Background load so the capture has spans to see.
        let stop = Arc::new(AtomicBool::new(false));
        let load = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    let page = format!(
                        "<html><body><section><p>load page {i} with words .</p></section>\
                         </body></html>"
                    );
                    let _ = post_brief(addr, &page);
                }
            })
        };
        let (status, body) =
            roundtrip(addr, b"GET /pprof?seconds=1&format=collapsed HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200, "{body}");
        // Every line of the body is canonical collapsed-stack form.
        wb_obs::flame::parse_collapsed(&body).expect("collapsed output parses");
        assert!(
            body.lines().any(|l| l.contains("serve.")),
            "capture under load must see server spans:\n{body}"
        );
        let text = roundtrip_full(addr, b"GET /pprof?seconds=1&format=svg HTTP/1.1\r\n\r\n");
        stop.store(true, Ordering::Relaxed);
        load.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(text.contains("Content-Type: image/svg+xml\r\n"), "{text}");
        let svg = text.split_once("\r\n\r\n").unwrap().1;
        assert!(svg.starts_with("<?xml"), "{svg}");
        assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
        h.shutdown();
    }

    #[test]
    fn pprof_rejects_bad_params_and_concurrent_captures() {
        let _chaos = wb_chaos::test_lock();
        let _serial = PPROF_LOCK.lock().unwrap();
        let h = start(tiny_briefer(), test_config()).unwrap();
        let addr = h.addr();
        for bad in [
            "GET /pprof?seconds=0 HTTP/1.1\r\n\r\n".as_bytes(),
            b"GET /pprof?seconds=61 HTTP/1.1\r\n\r\n",
            b"GET /pprof?hz=0 HTTP/1.1\r\n\r\n",
            b"GET /pprof?mode=flux HTTP/1.1\r\n\r\n",
            b"GET /pprof?format=pdf HTTP/1.1\r\n\r\n",
        ] {
            let (status, body) = roundtrip(addr, bad);
            assert_eq!(status, 400, "{body}");
        }
        let (status, _) = roundtrip(addr, b"POST /pprof HTTP/1.1\r\n\r\n");
        assert_eq!(status, 405);
        // A second capture while one runs is refused with Retry-After.
        let first = std::thread::spawn(move || {
            roundtrip(addr, b"GET /pprof?seconds=1 HTTP/1.1\r\n\r\n")
        });
        std::thread::sleep(Duration::from_millis(300));
        let text = roundtrip_full(addr, b"GET /pprof?seconds=1 HTTP/1.1\r\n\r\n");
        assert!(text.starts_with("HTTP/1.1 409"), "{text}");
        assert!(text.contains("Retry-After:"), "{text}");
        let (status, _) = first.join().unwrap();
        assert_eq!(status, 200);
        h.shutdown();
    }

    #[test]
    fn control_plane_does_not_pollute_request_latency() {
        let _chaos = wb_chaos::test_lock();
        // A fresh registry view is impossible (global), so measure deltas.
        let count_of = |name: &str| {
            wb_obs::metrics::snapshot().histograms.get(name).map(|h| h.count).unwrap_or(0)
        };
        let h = start(tiny_briefer(), test_config()).unwrap();
        let addr = h.addr();
        let before_req = count_of("serve.request.latency_us");
        let before_ctl = count_of("serve.control.latency_us");
        for _ in 0..3 {
            let (status, _) = roundtrip(addr, b"GET /healthz HTTP/1.1\r\n\r\n");
            assert_eq!(status, 200);
        }
        let (status, _) = roundtrip(addr, b"GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert_eq!(
            count_of("serve.request.latency_us"),
            before_req,
            "control-plane requests must not feed the serving histogram"
        );
        assert!(count_of("serve.control.latency_us") >= before_ctl + 4);
        let (status, _) = post_brief(addr, PAGE);
        assert_eq!(status, 200);
        assert!(count_of("serve.request.latency_us") > before_req);
        h.shutdown();
    }

    #[test]
    fn oversized_body_is_413() {
        let _chaos = wb_chaos::test_lock();
        let mut cfg = test_config();
        cfg.max_body_bytes = 128;
        let h = start(tiny_briefer(), cfg).unwrap();
        let big = "x".repeat(4096);
        let (status, body) = post_brief(h.addr(), &big);
        assert_eq!(status, 413, "{body}");
        h.shutdown();
    }

    #[test]
    fn overload_sheds_with_503_and_never_hangs() {
        let _chaos = wb_chaos::test_lock();
        let mut cfg = test_config();
        cfg.workers = 1;
        cfg.queue_capacity = 1;
        cfg.cache_capacity = 0; // no inline hits: every request needs the model
        cfg.handler_delay_ms = 400; // every batch stalls; the queue backs up
        cfg.request_timeout_ms = 5_000;
        let h = start(tiny_briefer(), cfg).unwrap();
        let addr = h.addr();
        let threads: Vec<_> =
            (0..8).map(|_| std::thread::spawn(move || post_brief(addr, PAGE))).collect();
        let results: Vec<(u16, String)> =
            threads.into_iter().map(|t| t.join().expect("request thread")).collect();
        let ok = results.iter().filter(|(s, _)| *s == 200).count();
        let shed = results.iter().filter(|(s, _)| *s == 503).count();
        assert_eq!(ok + shed, 8, "every request must be answered: {results:?}");
        assert!(ok >= 1, "at least the first request must be served");
        assert!(shed >= 1, "with 1 worker + queue of 1, overflow must shed: {results:?}");
        h.shutdown();
    }

    #[test]
    fn concurrent_connections_exceed_worker_count_without_shedding() {
        let _chaos = wb_chaos::test_lock();
        let mut cfg = test_config();
        cfg.workers = 2;
        cfg.queue_capacity = 64;
        let h = start(tiny_briefer(), cfg).unwrap();
        let addr = h.addr();
        // Warm the cache so requests answer inline and quickly.
        let (status, _) = post_brief(addr, PAGE);
        assert_eq!(status, 200);
        // 24 simultaneous connections against 2 workers: the event loop
        // holds them all; nobody is shed.
        let threads: Vec<_> =
            (0..24).map(|_| std::thread::spawn(move || post_brief(addr, PAGE))).collect();
        let results: Vec<(u16, String)> =
            threads.into_iter().map(|t| t.join().expect("request thread")).collect();
        assert!(
            results.iter().all(|(s, _)| *s == 200),
            "no shedding below max_conns: {results:?}"
        );
        h.shutdown();
    }

    #[test]
    fn shutdown_endpoint_signals_the_run_loop() {
        let _chaos = wb_chaos::test_lock();
        let h = start(tiny_briefer(), test_config()).unwrap();
        let addr = h.addr();
        let poster =
            std::thread::spawn(move || roundtrip(addr, b"POST /shutdown HTTP/1.1\r\n\r\n"));
        h.wait_for_shutdown_request();
        let (status, body) = poster.join().unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("shutting down"), "{body}");
        h.shutdown();
    }

    #[test]
    fn poll_shutdown_request_times_out_then_fires() {
        let _chaos = wb_chaos::test_lock();
        let h = start(tiny_briefer(), test_config()).unwrap();
        let addr = h.addr();
        assert!(!h.poll_shutdown_request(Duration::from_millis(20)));
        let poster =
            std::thread::spawn(move || roundtrip(addr, b"POST /shutdown HTTP/1.1\r\n\r\n"));
        assert!(h.poll_shutdown_request(Duration::from_secs(10)));
        let (status, _) = poster.join().unwrap();
        assert_eq!(status, 200);
        h.shutdown();
    }

    #[test]
    fn expired_deadline_is_504_before_the_model_runs() {
        let _chaos = wb_chaos::test_lock();
        let mut cfg = test_config();
        cfg.cache_capacity = 0; // force the model path
        cfg.handler_delay_ms = 300; // the batch stalls past the deadline
        let h = start(tiny_briefer(), cfg).unwrap();
        let addr = h.addr();
        let raw = format!(
            "POST /brief HTTP/1.1\r\nHost: t\r\nX-Deadline-Ms: 50\r\n\
             Content-Length: {}\r\n\r\n{PAGE}",
            PAGE.len()
        );
        let (status, body) = roundtrip(addr, raw.as_bytes());
        assert_eq!(status, 504, "{body}");
        assert!(body.contains("deadline"), "{body}");
        // A generous deadline on the same page still gets briefed.
        let (status, _) = post_brief(addr, PAGE);
        assert_eq!(status, 200);
        // And a malformed deadline is a client error, not a hang.
        let raw = format!(
            "POST /brief HTTP/1.1\r\nHost: t\r\nX-Deadline-Ms: soon\r\n\
             Content-Length: {}\r\n\r\n{PAGE}",
            PAGE.len()
        );
        let (status, body) = roundtrip(addr, raw.as_bytes());
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("X-Deadline-Ms"), "{body}");
        h.shutdown();
    }

    #[test]
    fn malformed_deadline_is_400_even_for_a_cached_page() {
        let _chaos = wb_chaos::test_lock();
        let h = start(tiny_briefer(), test_config()).unwrap();
        let addr = h.addr();
        let (status, _) = post_brief(addr, PAGE);
        assert_eq!(status, 200);
        let raw = format!(
            "POST /brief HTTP/1.1\r\nHost: t\r\nX-Deadline-Ms: soon\r\n\
             Content-Length: {}\r\n\r\n{PAGE}",
            PAGE.len()
        );
        let (status, body) = roundtrip(addr, raw.as_bytes());
        assert_eq!(status, 400, "the header is validated before the cache: {body}");
        assert!(body.contains("X-Deadline-Ms"), "{body}");
        h.shutdown();
    }

    #[test]
    fn requests_shard_across_replicas_with_per_replica_caches() {
        let _chaos = wb_chaos::test_lock();
        let mut cfg = test_config();
        cfg.replicas = 3;
        let h = start(tiny_briefer(), cfg).unwrap();
        let addr = h.addr();
        // Distinct pages spread over the ring; each brief lands in exactly
        // one replica's cache.
        for i in 0..6 {
            let page = format!(
                "<html><body><section><p>sharded page {i} with words . price : $ 1.{i}{i} .\
                 </p></section></body></html>"
            );
            let (status, body) = post_brief(addr, &page);
            assert!(status == 200 || status == 422, "page {i}: {status} {body}");
        }
        let total_cached = h.shared.replicas.cache_len();
        assert!(total_cached >= 1, "briefs must be cached somewhere");
        let populated = h
            .shared
            .replicas
            .all()
            .iter()
            .filter(|r| !r.cache.lock().unwrap().is_empty())
            .count();
        assert!(
            populated >= 2,
            "6 distinct pages should populate at least 2 of 3 replica caches \
             (got {populated}; ring badly skewed?)"
        );
        // Repeats of a cached page are hits, wherever it was routed.
        let page = "<html><body><section><p>sharded page 0 with words . price : $ 1.00 .\
                    </p></section></body></html>";
        let (s1, b1) = post_brief(addr, page);
        let (s2, b2) = post_brief(addr, page);
        assert_eq!((s1, s2), (200, 200));
        assert_eq!(b1, b2, "replica routing must be stable for a given page");
        h.shutdown();
    }
}
