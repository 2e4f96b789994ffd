//! The readiness event loop: one thread multiplexing every connection
//! with `poll(2)` ([`crate::sys`]), so concurrent connections are bounded
//! by fd limits instead of thread count.
//!
//! Connection lifecycle is a per-connection state machine over a
//! persistent read buffer:
//!
//! ```text
//!           ┌────────────── keep-alive ───────────────┐
//!           ▼                                         │
//! accept → Reading ──miss──► Processing ──done──► Writing ──close──► (drain) → closed
//!           │                (executor)               ▲
//!           └──── cache hit / control route ──────────┘
//! ```
//!
//! - **Reading**: poll for `POLLIN`, append to the connection buffer,
//!   drive [`RequestParser`] incrementally. Bytes beyond one request stay
//!   in the buffer — pipelined requests are served, not discarded.
//! - **Processing**: the request's page is in its replica's queue (or a
//!   `/pprof` capture is running); the connection is *not* polled
//!   (nothing to do until the completion arrives; polling it would
//!   busy-spin on `POLLHUP` from half-closed clients). One that outlives
//!   the request timeout is answered `503` and closed.
//! - **Writing**: poll for `POLLOUT` until the rendered response is fully
//!   flushed, then either return to Reading (keep-alive) or close.
//! - **Draining**: error responses linger briefly reading-and-discarding
//!   so the close is a clean FIN instead of an RST that could destroy the
//!   client's copy of the error (see [`DRAIN_WINDOW`] for the rationale).
//!
//! A `POST /brief` is handled here end to end except for the model: one
//! cache probe (a hit is answered at once: one read, one hash, one
//! lookup, one write), breaker admission, then the body moves into a
//! job on the routed replica's queue. Control routes run inline. Every
//! response and its telemetry is rendered in [`EventLoop::respond`].
//!
//! Executors (and `/pprof` capture threads) hand their results back via
//! a mutex'd vector plus a self-pipe ([`sys::WakePipe`]) that kicks the
//! loop out of `poll`. A generation counter on every connection slot
//! guards against a completion landing on a recycled slot.

use crate::batch::{BriefOutcome, Completion, Job};
use crate::breaker::Admission;
use crate::cache::{fnv1a, Fingerprint};
use crate::http::{self, HttpError, Parsed, RequestParser};
use crate::server::{self, Reply, Shared};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use crate::telemetry::{self, StageTimings};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Off-loop work finished for a `Processing` connection.
pub(crate) enum Done {
    /// An executor briefed (or expired) the connection's page.
    Brief(Completion),
    /// A `/pprof` capture thread rendered its response.
    Pprof { conn: usize, generation: u64, reply: Reply },
}

/// Executor → event-loop completion channel: a locked vector (completions
/// are tiny and rare relative to poll iterations) plus a self-pipe that
/// interrupts `poll`.
pub(crate) struct Completions {
    done: Mutex<Vec<Done>>,
    wake: sys::WakePipe,
}

impl Completions {
    pub fn new() -> io::Result<Completions> {
        Ok(Completions { done: Mutex::new(Vec::new()), wake: sys::WakePipe::new()? })
    }

    /// Queues a completion and kicks the loop out of `poll`.
    pub fn push(&self, done: Done) {
        self.done.lock().unwrap().push(done);
        self.wake.wake();
    }

    /// Wakes the loop without a completion (shutdown notification).
    pub fn wake(&self) {
        self.wake.wake();
    }

    /// The pipe fd the loop polls for wakeups.
    fn wake_fd(&self) -> i32 {
        self.wake.read_fd()
    }

    /// Empties the wake pipe so the next wakeup is a fresh edge.
    fn drain_wake(&self) {
        self.wake.drain();
    }

    /// Takes every queued completion.
    pub fn drain(&self) -> Vec<Done> {
        std::mem::take(&mut *self.done.lock().unwrap())
    }
}

/// A parsed request the loop has not answered yet: what rendering its
/// response needs.
struct InFlight {
    id: String,
    /// Client and server both allow keeping the connection open.
    keep_alive: bool,
    /// First byte of the request (end-to-end latency t0).
    started: Instant,
    timings: StageTimings,
    /// `POST /brief`: feeds the serving histograms and `Server-Timing`.
    data_plane: bool,
    /// While `Processing` a brief: when the request timeout answers 503.
    deadline: Option<Instant>,
}

enum ConnState {
    Reading,
    Processing,
    Writing,
    Draining,
}

struct Conn {
    stream: TcpStream,
    generation: u64,
    state: ConnState,
    /// Unconsumed request bytes (survives across requests — pipelining).
    buf: Vec<u8>,
    parser: RequestParser,
    /// The request handed off while `Processing`.
    inflight: Option<InFlight>,
    write_buf: Vec<u8>,
    written: usize,
    keep_alive_after_write: bool,
    drain_after_write: bool,
    record_write: bool,
    write_started: Instant,
    write_deadline: Instant,
    /// Requests parsed off this connection so far.
    requests_served: u64,
    /// First byte of the in-progress request (None while idle).
    request_started: Option<Instant>,
    /// Total-read deadline for the in-progress request (slow-loris bound).
    read_deadline: Option<Instant>,
    idle_since: Instant,
    drain_deadline: Instant,
    drained: usize,
}

enum Tag {
    Wake,
    Listener,
    Conn(usize),
}

enum Flush {
    Complete,
    Pending,
    Closed,
}

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_t: &T) -> i32 {
    -1
}

/// How long an error-close lingers draining the client's unread bytes.
///
/// Early-reject paths (413, 400, the 503 shed) answer without consuming
/// the request. Closing a socket with unread data makes the kernel send
/// RST, which can destroy the client's copy of the response before it is
/// read. A bounded drain turns the close into a clean FIN for any
/// well-behaved client while still capping the time and bytes
/// ([`DRAIN_LIMIT`]) a hostile one can make us spend.
const DRAIN_WINDOW: Duration = Duration::from_millis(250);
/// Most bytes an error-close will discard before giving up on a clean FIN.
const DRAIN_LIMIT: usize = 64 * 1024;

pub(crate) struct EventLoop {
    shared: Arc<Shared>,
    listener: TcpListener,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    active: usize,
    scratch: Vec<u8>,
    timeout: Duration,
    idle_timeout: Option<Duration>,
    max_requests: u64,
    max_conns: usize,
    /// Data-plane responses so far, for `--access-log-sample`.
    access_log_seq: u64,
}

/// Runs the event loop until shutdown completes (`stopping` set and every
/// connection retired). Owns the listener; dropping it on return is what
/// closes the port.
pub(crate) fn run(shared: Arc<Shared>, listener: TcpListener) {
    let timeout = Duration::from_millis(shared.cfg.request_timeout_ms.max(1));
    let idle_timeout = match shared.cfg.idle_timeout_ms {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    EventLoop {
        max_requests: shared.cfg.max_requests_per_conn,
        max_conns: shared.cfg.max_conns.max(1),
        shared,
        listener,
        conns: Vec::new(),
        free: Vec::new(),
        next_generation: 0,
        active: 0,
        scratch: vec![0u8; 16 * 1024],
        timeout,
        idle_timeout,
        access_log_seq: 0,
    }
    .run_loop();
}

impl EventLoop {
    fn run_loop(&mut self) {
        let _span = wb_obs::span!("serve.io");
        let mut fds: Vec<PollFd> = Vec::new();
        let mut tags: Vec<Tag> = Vec::new();
        loop {
            let stopping = self.shared.stopping.load(Ordering::SeqCst);
            if stopping {
                self.close_idle();
                if self.active == 0 {
                    break;
                }
            }
            fds.clear();
            tags.clear();
            fds.push(PollFd::new(self.shared.completions.wake_fd(), POLLIN));
            tags.push(Tag::Wake);
            if !stopping && self.active < self.max_conns {
                fds.push(PollFd::new(raw_fd(&self.listener), POLLIN));
                tags.push(Tag::Listener);
            }
            for (i, slot) in self.conns.iter().enumerate() {
                let Some(c) = slot else { continue };
                let events = match c.state {
                    ConnState::Reading | ConnState::Draining => POLLIN,
                    ConnState::Writing => POLLOUT,
                    // Not polled: nothing to do until the completion
                    // arrives via the wake pipe.
                    ConnState::Processing => continue,
                };
                fds.push(PollFd::new(raw_fd(&c.stream), events));
                tags.push(Tag::Conn(i));
            }
            let timeout_ms = self.poll_timeout_ms();
            if let Err(e) = sys::poll_fds(&mut fds, timeout_ms) {
                wb_obs::warn!("poll failed: {e}");
                std::thread::sleep(Duration::from_millis(5));
            }
            for k in 0..fds.len() {
                if fds[k].revents == 0 {
                    continue;
                }
                match tags[k] {
                    Tag::Wake => self.shared.completions.drain_wake(),
                    Tag::Listener => self.accept_ready(),
                    Tag::Conn(i) => self.conn_ready(i),
                }
            }
            for done in self.shared.completions.drain() {
                self.apply(done);
            }
            self.sweep(Instant::now());
        }
    }

    /// Next poll timeout: the nearest connection deadline, capped at 1 s
    /// (shutdown interrupts via the wake pipe, so a long sleep is safe).
    fn poll_timeout_ms(&self) -> i32 {
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        let mut consider = |d: Instant| match next {
            Some(n) if n <= d => {}
            _ => next = Some(d),
        };
        for c in self.conns.iter().flatten() {
            match c.state {
                ConnState::Reading => {
                    if let Some(d) = c.read_deadline {
                        consider(d);
                    } else if let Some(idle) = self.idle_timeout {
                        consider(c.idle_since + idle);
                    }
                }
                ConnState::Writing => consider(c.write_deadline),
                ConnState::Draining => consider(c.drain_deadline),
                ConnState::Processing => {
                    if let Some(d) = c.inflight.as_ref().and_then(|r| r.deadline) {
                        consider(d);
                    }
                }
            }
        }
        match next {
            None => 1000,
            Some(d) => {
                let ms = d.saturating_duration_since(now).as_millis().min(1000) as i32;
                // Round up so a deadline 0.5ms out doesn't spin at 0.
                ms.max(1)
            }
        }
    }

    fn accept_ready(&mut self) {
        while self.active < self.max_conns {
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    wb_obs::warn!("accept failed: {e}");
                    return;
                }
            };
            let _ = stream.set_nonblocking(true);
            let _ = stream.set_nodelay(true);
            wb_obs::counter!("serve.conn.accepted");
            self.insert(stream);
            wb_obs::gauge!("serve.conn.active", self.active as f64);
            wb_obs::gauge_max!("serve.conn.active.peak", self.active as f64);
        }
    }

    fn insert(&mut self, stream: TcpStream) -> usize {
        self.next_generation += 1;
        let now = Instant::now();
        let conn = Conn {
            stream,
            generation: self.next_generation,
            state: ConnState::Reading,
            buf: Vec::new(),
            parser: RequestParser::new(),
            inflight: None,
            write_buf: Vec::new(),
            written: 0,
            keep_alive_after_write: false,
            drain_after_write: false,
            record_write: false,
            write_started: now,
            write_deadline: now,
            requests_served: 0,
            request_started: None,
            read_deadline: None,
            idle_since: now,
            drain_deadline: now,
            drained: 0,
        };
        self.active += 1;
        match self.free.pop() {
            Some(i) => {
                self.conns[i] = Some(conn);
                i
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        }
    }

    fn close(&mut self, i: usize) {
        if self.conns[i].take().is_some() {
            self.active -= 1;
            self.free.push(i);
            wb_obs::counter!("serve.conn.closed");
            wb_obs::gauge!("serve.conn.active", self.active as f64);
        }
    }

    /// At shutdown: connections with nothing in flight close immediately;
    /// mid-request and mid-response connections finish under their
    /// existing deadlines.
    fn close_idle(&mut self) {
        for i in 0..self.conns.len() {
            let idle = matches!(
                &self.conns[i],
                Some(c) if matches!(c.state, ConnState::Reading) && c.buf.is_empty()
                    && !c.parser.started()
            );
            if idle {
                self.close(i);
            }
        }
    }

    fn conn_ready(&mut self, i: usize) {
        let Some(c) = self.conns[i].as_ref() else { return };
        match c.state {
            ConnState::Reading => self.conn_readable(i),
            ConnState::Writing => self.conn_writable(i),
            ConnState::Draining => self.conn_draining(i),
            ConnState::Processing => {}
        }
    }

    fn conn_readable(&mut self, i: usize) {
        let mut eof = false;
        loop {
            let Some(c) = self.conns[i].as_mut() else { return };
            match c.stream.read(&mut self.scratch) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    if c.request_started.is_none() {
                        let now = Instant::now();
                        c.request_started = Some(now);
                        c.read_deadline = Some(now + self.timeout);
                    }
                    c.buf.extend_from_slice(&self.scratch[..n]);
                    // A short read means the socket buffer is drained;
                    // level-triggered poll re-reports anything new.
                    if n < self.scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(i);
                    return;
                }
            }
        }
        self.advance(i);
        if eof {
            self.peer_eof(i);
        }
    }

    /// Parses as many complete requests out of the buffer as the state
    /// machine allows (one in flight at a time; a request answered inline
    /// completes synchronously, so the loop continues into the next
    /// pipelined request).
    fn advance(&mut self, i: usize) {
        loop {
            let Some(c) = self.conns[i].as_mut() else { return };
            if !matches!(c.state, ConnState::Reading) || c.buf.is_empty() {
                return;
            }
            match c.parser.step(&c.buf, self.shared.cfg.max_body_bytes) {
                Ok(Parsed::NeedMore) => {
                    if c.request_started.is_none() {
                        let now = Instant::now();
                        c.request_started = Some(now);
                        c.read_deadline = Some(now + self.timeout);
                    }
                    return;
                }
                Ok(Parsed::Request { req, consumed }) => {
                    c.buf.drain(..consumed);
                    let started = c.request_started.take().unwrap_or_else(Instant::now);
                    c.read_deadline = None;
                    self.dispatch(i, req, started);
                }
                Err(e) => {
                    self.framing_error(i, e);
                    return;
                }
            }
        }
    }

    fn peer_eof(&mut self, i: usize) {
        let Some(c) = self.conns[i].as_ref() else { return };
        match c.state {
            ConnState::Reading => {
                if c.buf.is_empty() && !c.parser.started() {
                    // Clean close between requests (or a port probe).
                    self.close(i);
                } else {
                    self.framing_error(
                        i,
                        HttpError::Malformed("connection closed mid-request".to_string()),
                    );
                }
            }
            ConnState::Draining => self.close(i),
            // Processing/Writing: the response is still owed; a fully
            // closed peer surfaces as a write error when we flush.
            ConnState::Processing | ConnState::Writing => {}
        }
    }

    /// Handles one parsed request: answers it inline, or hands it off and
    /// parks the connection in `Processing` until the completion arrives.
    fn dispatch(&mut self, i: usize, req: http::Request, started: Instant) {
        let _span = wb_obs::span!("serve.request");
        wb_obs::counter!("serve.requests");
        let parse_us = telemetry::micros_since(started);
        let (generation, served) = {
            let c = self.conns[i].as_mut().expect("dispatch on live conn");
            c.requests_served += 1;
            (c.generation, c.requests_served)
        };
        let at_cap = self.max_requests > 0 && served >= self.max_requests;
        if at_cap {
            wb_obs::counter!("serve.conn.max_requests_closed");
        }
        let mut r = InFlight {
            id: telemetry::request_id(req.header("x-request-id")),
            keep_alive: !at_cap && req.wants_keep_alive(),
            started,
            timings: StageTimings { parse_us, ..StageTimings::default() },
            data_plane: req.method == "POST" && req.path == "/brief",
            deadline: None,
        };
        let reply = if r.data_plane {
            self.brief(i, generation, req, &mut r)
        } else {
            server::handle_control(&self.shared, &req, i, generation)
        };
        match reply {
            Some(reply) => self.respond(i, r, reply),
            None => {
                let c = self.conns[i].as_mut().expect("dispatch on live conn");
                c.inflight = Some(r);
                c.state = ConnState::Processing;
            }
        }
    }

    /// `POST /brief`: validate, probe the routed replica's cache once,
    /// check its breaker, and submit the page to its queue. `None` means
    /// submitted; the executor's completion answers it.
    fn brief(
        &self,
        i: usize,
        generation: u64,
        req: http::Request,
        r: &mut InFlight,
    ) -> Option<Reply> {
        let timeout_ms = self.shared.cfg.request_timeout_ms;
        if req.body.is_empty() {
            return Some(Reply::error(400, "POST /brief expects an HTML body", "-"));
        }
        // Per-request deadline: `X-Deadline-Ms` can only tighten the
        // server's request timeout, never extend it. Checked before the
        // cache, so a bad value is a 400 whether or not the page is cached.
        let deadline_ms = match req.header("x-deadline-ms") {
            None => timeout_ms,
            Some(v) => match v.parse::<u64>() {
                Ok(ms) if ms > 0 => ms.min(timeout_ms),
                _ => {
                    let detail = format!(
                        "bad X-Deadline-Ms `{v}` (expected a positive number of milliseconds)"
                    );
                    return Some(Reply::error(400, &detail, "-"));
                }
            },
        };
        let body = req.body;
        let cache_t0 = Instant::now();
        // The fingerprint guards against FNV-1a collisions: a colliding
        // page is a miss instead of being served another page's brief.
        let (key, fp) = (fnv1a(&body), Fingerprint::of(&body));
        let replica = self.shared.replicas.route(key);
        replica.count_request();
        // Cache first: cached pages keep being served even while a circuit
        // breaker has the model path disabled.
        if self.shared.cfg.cache_capacity > 0 {
            let hit = replica.cache.lock().unwrap().get(key, fp).cloned();
            r.timings.cache_us = telemetry::micros_since(cache_t0);
            if let Some(json) = hit {
                wb_obs::counter!("serve.cache.hit");
                wb_obs::window_counter!("serve.cache.hit");
                return Some(
                    Reply::json(200, json.as_bytes().to_vec(), "hit").header("X-Cache", "hit"),
                );
            }
            wb_obs::counter!("serve.cache.miss");
            wb_obs::window_counter!("serve.cache.miss");
        }
        if let Admission::Reject { retry_after_secs } = replica.breaker.admit() {
            let detail = "briefing disabled after repeated model failures; \
                          cached pages are still served";
            return Some(
                Reply::error(503, detail, "miss")
                    .header("Retry-After", retry_after_secs.to_string()),
            );
        }
        let now = Instant::now();
        let job = Job {
            body,
            key,
            fp,
            deadline: now + Duration::from_millis(deadline_ms.max(1)),
            submitted: now,
            conn: i,
            generation,
        };
        if !replica.batcher.submit(job) {
            wb_obs::counter!("serve.rejected.queue_full");
            return Some(
                Reply::error(503, "server overloaded; retry shortly", "miss")
                    .header("Retry-After", "1")
                    .closing(),
            );
        }
        r.deadline = Some(now + self.timeout);
        None
    }

    /// Renders a response with its request id (plus `Server-Timing` on
    /// the data plane), records its telemetry, and starts writing it —
    /// the one place every parsed request is answered.
    fn respond(&mut self, i: usize, r: InFlight, reply: Reply) {
        let keep_alive =
            r.keep_alive && !reply.close && !self.shared.stopping.load(Ordering::Relaxed);
        let server_timing = r.timings.server_timing();
        let mut headers: Vec<(&str, &str)> = vec![("X-Request-Id", r.id.as_str())];
        if r.data_plane {
            headers.push(("Server-Timing", server_timing.as_str()));
        }
        for (name, value) in &reply.extra {
            headers.push((name, value.as_str()));
        }
        let bytes =
            render_counted(reply.status, reply.content_type, &reply.body, &headers, keep_alive);
        // Total latency excludes the write stage, which lands in its own
        // stage histogram at flush time.
        let total_us = telemetry::micros_since(r.started);
        if r.data_plane {
            // Only model-serving requests feed the request-latency
            // histogram and the windowed live metrics; control-plane
            // chatter (health probes, metric scrapes) has its own
            // histogram so it cannot skew serving percentiles.
            self.finish_data_plane(&r, reply.status, total_us, reply.cache_state);
        } else {
            wb_obs::histogram!("serve.control.latency_us", total_us);
        }
        self.queue_response(i, bytes, keep_alive, r.data_plane, reply.close);
    }

    /// Data-plane completion telemetry: latency histograms, live windows,
    /// stage recording and the (sampled or slow) access log.
    fn finish_data_plane(
        &mut self,
        r: &InFlight,
        status: u16,
        total_us: u64,
        cache_state: &str,
    ) {
        wb_obs::histogram!("serve.request.latency_us", total_us);
        wb_obs::window_histogram!("serve.request.latency_us", total_us as f64);
        wb_obs::window_counter!("serve.requests");
        if status >= 500 {
            wb_obs::window_counter!("serve.errors");
        }
        r.timings.record();
        let cfg = &self.shared.cfg;
        let slow =
            cfg.slow_request_ms > 0 && total_us >= cfg.slow_request_ms.saturating_mul(1000);
        let sampled = cfg.access_log_sample > 0
            && self.access_log_seq.is_multiple_of(cfg.access_log_sample);
        self.access_log_seq += 1;
        if slow || sampled {
            let line = telemetry::access_log_line(
                &r.id,
                "POST",
                "/brief",
                status,
                total_us,
                cache_state,
                &r.timings,
            );
            if slow {
                wb_obs::warn!("slow request: {line}");
            } else {
                wb_obs::info!("access: {line}");
            }
        }
    }

    /// Answers a framing error: counted, logged, always closed (never
    /// resynchronize after a framing error — that is how request
    /// smuggling works), with a bounded drain for a clean FIN.
    fn framing_error(&mut self, i: usize, err: HttpError) {
        let Some(c) = self.conns[i].as_mut() else { return };
        let started = c.request_started.take().unwrap_or_else(Instant::now);
        c.read_deadline = None;
        wb_obs::counter!("serve.requests");
        wb_obs::counter!("serve.conn.framing_errors");
        let status = err.status();
        match status {
            408 => wb_obs::counter!("serve.rejected.timeout"),
            413 => wb_obs::counter!("serve.rejected.too_large"),
            _ => {}
        }
        // The request never parsed, so no inbound id exists; mint one
        // anyway so even rejections are correlatable.
        let id = telemetry::next_request_id();
        let bytes = render_counted(
            status,
            "application/json",
            &http::error_body(&err.detail()),
            &[("X-Request-Id", &id)],
            false,
        );
        let total_us = telemetry::micros_since(started);
        wb_obs::histogram!("serve.request.latency_us", total_us);
        wb_obs::window_histogram!("serve.request.latency_us", total_us as f64);
        wb_obs::window_counter!("serve.requests");
        self.queue_response(i, bytes, false, false, true);
    }

    /// Installs a rendered response and flushes as much as the socket
    /// accepts right now; the rest waits on `POLLOUT`.
    fn queue_response(
        &mut self,
        i: usize,
        bytes: Vec<u8>,
        keep_alive: bool,
        record_write: bool,
        drain_after: bool,
    ) {
        let now = Instant::now();
        {
            let Some(c) = self.conns[i].as_mut() else { return };
            c.write_buf = bytes;
            c.written = 0;
            c.state = ConnState::Writing;
            c.keep_alive_after_write = keep_alive;
            c.drain_after_write = drain_after;
            c.record_write = record_write;
            c.write_started = now;
            c.write_deadline = now + self.timeout;
        }
        if matches!(self.flush(i), Flush::Complete) {
            self.finish_response(i);
        }
    }

    fn flush(&mut self, i: usize) -> Flush {
        loop {
            let Some(c) = self.conns[i].as_mut() else { return Flush::Closed };
            match c.stream.write(&c.write_buf[c.written..]) {
                Ok(0) => {
                    wb_obs::counter!("serve.responses.write_failed");
                    self.close(i);
                    return Flush::Closed;
                }
                Ok(n) => {
                    c.written += n;
                    if c.written >= c.write_buf.len() {
                        return Flush::Complete;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flush::Pending,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    wb_obs::counter!("serve.responses.write_failed");
                    wb_obs::debug!("response write failed: {e}");
                    self.close(i);
                    return Flush::Closed;
                }
            }
        }
    }

    /// Bookkeeping after a fully flushed response: record the write
    /// stage, then keep-alive back to Reading, drain-then-close, or close.
    /// Does NOT parse pipelined bytes — callers do, keeping the
    /// advance/flush recursion flat.
    fn finish_response(&mut self, i: usize) {
        let now = Instant::now();
        let Some(c) = self.conns[i].as_mut() else { return };
        if c.record_write {
            let write_us = telemetry::micros_since(c.write_started);
            wb_obs::histogram!("serve.stage.write_us", write_us);
            wb_obs::window_histogram!("serve.stage.write_us", write_us as f64);
        }
        if c.requests_served > 1 {
            wb_obs::counter!("serve.conn.reused");
        }
        c.write_buf = Vec::new();
        c.written = 0;
        if c.keep_alive_after_write {
            c.state = ConnState::Reading;
            c.idle_since = now;
            if c.buf.is_empty() {
                c.request_started = None;
                c.read_deadline = None;
            } else {
                // The next pipelined request is already buffered; its
                // clock starts now.
                c.request_started = Some(now);
                c.read_deadline = Some(now + self.timeout);
            }
        } else if c.drain_after_write {
            c.state = ConnState::Draining;
            c.drain_deadline = now + DRAIN_WINDOW;
            c.drained = 0;
            c.buf.clear();
            c.parser.reset();
        } else {
            self.close(i);
        }
    }

    /// After a response is queued: if it flushed at once and the
    /// connection is back to Reading with pipelined bytes, parse them.
    fn continue_pipeline(&mut self, i: usize) {
        let reading_with_input = matches!(
            &self.conns[i],
            Some(c) if matches!(c.state, ConnState::Reading) && !c.buf.is_empty()
        );
        if reading_with_input {
            self.advance(i);
        }
    }

    fn conn_writable(&mut self, i: usize) {
        if matches!(self.flush(i), Flush::Complete) {
            self.finish_response(i);
            self.continue_pipeline(i);
        }
    }

    fn conn_draining(&mut self, i: usize) {
        loop {
            let Some(c) = self.conns[i].as_mut() else { return };
            match c.stream.read(&mut self.scratch) {
                Ok(0) => {
                    self.close(i);
                    return;
                }
                Ok(n) => {
                    c.drained += n;
                    if c.drained > DRAIN_LIMIT {
                        self.close(i);
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(i);
                    return;
                }
            }
        }
    }

    /// Takes the in-flight request of `conn` if it is still the one the
    /// completion was issued for — the slot may have been closed (request
    /// timeout, dead peer) and recycled since.
    fn take_inflight(&mut self, conn: usize, generation: u64) -> Option<InFlight> {
        match self.conns.get_mut(conn).and_then(|s| s.as_mut()) {
            Some(c)
                if c.generation == generation && matches!(c.state, ConnState::Processing) =>
            {
                c.inflight.take()
            }
            _ => None,
        }
    }

    fn apply(&mut self, done: Done) {
        let (conn, r, reply) = match done {
            Done::Brief(c) => {
                let Some(mut r) = self.take_inflight(c.conn, c.generation) else { return };
                r.timings.queue_wait_us = c.queue_wait_us;
                r.timings.model_us = c.model_us;
                r.timings.serialize_us = c.serialize_us;
                (c.conn, r, self.brief_reply(c.outcome))
            }
            Done::Pprof { conn, generation, reply } => {
                let Some(r) = self.take_inflight(conn, generation) else { return };
                (conn, r, reply)
            }
        };
        self.respond(conn, r, reply);
        self.continue_pipeline(conn);
    }

    /// The response for an executor's outcome.
    fn brief_reply(&self, outcome: BriefOutcome) -> Reply {
        match outcome {
            BriefOutcome::Ok(json) => {
                if self.shared.cfg.cache_capacity > 0 {
                    wb_obs::gauge!("serve.cache.size", self.shared.replicas.cache_len() as f64);
                }
                Reply::json(200, json.as_bytes().to_vec(), "miss").header("X-Cache", "miss")
            }
            BriefOutcome::Unbriefable(detail) => {
                wb_obs::counter!("serve.unbriefable");
                Reply::error(422, &detail, "miss")
            }
            BriefOutcome::Internal(detail) => Reply::error(500, &detail, "miss"),
            BriefOutcome::Expired => {
                Reply::error(504, "request deadline expired before briefing started", "miss")
            }
        }
    }

    /// Enforces every time bound: total-read deadlines (408), idle
    /// keep-alive timeouts (silent close), briefs past the request
    /// timeout (503, then close), stalled writes and expired drains.
    fn sweep(&mut self, now: Instant) {
        enum Due {
            ReadTimeout,
            IdleClose,
            BriefTimeout,
            WriteStall,
            DrainDone,
        }
        for i in 0..self.conns.len() {
            let due = match &self.conns[i] {
                None => None,
                Some(c) => match c.state {
                    ConnState::Reading => match c.read_deadline {
                        Some(d) if now >= d => Some(Due::ReadTimeout),
                        Some(_) => None,
                        None => match self.idle_timeout {
                            Some(idle) if now.duration_since(c.idle_since) >= idle => {
                                Some(Due::IdleClose)
                            }
                            _ => None,
                        },
                    },
                    ConnState::Processing => match c.inflight.as_ref().and_then(|r| r.deadline)
                    {
                        Some(d) if now >= d => Some(Due::BriefTimeout),
                        _ => None,
                    },
                    ConnState::Writing if now >= c.write_deadline => Some(Due::WriteStall),
                    ConnState::Draining if now >= c.drain_deadline => Some(Due::DrainDone),
                    _ => None,
                },
            };
            match due {
                Some(Due::ReadTimeout) => self.framing_error(i, HttpError::Timeout),
                Some(Due::IdleClose) => {
                    wb_obs::counter!("serve.conn.idle_closed");
                    self.close(i);
                }
                Some(Due::BriefTimeout) => {
                    wb_obs::counter!("serve.rejected.timeout");
                    let c = self.conns[i].as_mut().expect("live conn");
                    let r = c.inflight.take().expect("processing conn has a request");
                    // Closing retires this generation: the late completion
                    // finds no live slot to land on.
                    let reply = Reply::error(
                        503,
                        "briefing did not finish within the request timeout",
                        "miss",
                    )
                    .header("Retry-After", "1")
                    .closing();
                    self.respond(i, r, reply);
                }
                Some(Due::WriteStall) => {
                    wb_obs::counter!("serve.responses.write_failed");
                    self.close(i);
                }
                Some(Due::DrainDone) => self.close(i),
                None => {}
            }
        }
    }
}

fn bump_status(status: u16) {
    match status / 100 {
        2 => wb_obs::counter!("serve.responses.2xx"),
        4 => wb_obs::counter!("serve.responses.4xx"),
        5 => wb_obs::counter!("serve.responses.5xx"),
        _ => {}
    }
}

/// Renders a complete response and records its status-class counter —
/// the single choke point for every response the server produces.
fn render_counted(
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
) -> Vec<u8> {
    bump_status(status);
    http::render_response(status, content_type, body, extra_headers, keep_alive)
}
