//! The readiness event loop: one thread multiplexing every connection
//! with `poll(2)` ([`crate::sys`]), so concurrent connections are bounded
//! by fd limits instead of worker-thread count.
//!
//! Connection lifecycle is a per-connection state machine over a
//! persistent read buffer:
//!
//! ```text
//!           ┌────────────── keep-alive ───────────────┐
//!           ▼                                         │
//! accept → Reading ──parsed──► Processing ──done──► Writing ──close──► (drain) → closed
//!           │                     (worker)             ▲
//!           └──── inline cache hit ────────────────────┘
//! ```
//!
//! - **Reading**: poll for `POLLIN`, append to the connection buffer,
//!   drive [`RequestParser`] incrementally. Bytes beyond one request stay
//!   in the buffer — pipelined requests are served, not discarded.
//! - **Processing**: the parsed request is in the bounded work queue; the
//!   connection is *not* polled (nothing to do until the worker finishes;
//!   polling it would busy-spin on `POLLHUP` from half-closed clients).
//! - **Writing**: poll for `POLLOUT` until the rendered response is fully
//!   flushed, then either return to Reading (keep-alive) or close.
//! - **Draining**: error responses linger briefly reading-and-discarding
//!   so the close is a clean FIN instead of an RST that could destroy the
//!   client's copy of the error (see [`DRAIN_WINDOW`] for the rationale).
//!
//! Cache hits are answered inline on this thread (`try_lock` only — under
//! contention the request falls through to a worker): a hot-cache request
//! costs one read, one hash, one lookup and one write, no cross-thread
//! handoff. That is what lets keep-alive serving run at connection speed.
//!
//! Completions return from workers via a mutex'd vector plus a self-pipe
//! ([`sys::WakePipe`]) that kicks the loop out of `poll`. A generation
//! counter on every connection slot guards against a completion landing
//! on a recycled slot.

use crate::cache::{fnv1a, Fingerprint};
use crate::http::{self, HttpError, Parsed, RequestParser};
use crate::server::{self, Shared};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use crate::telemetry::{self, StageTimings};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One parsed request handed to the worker pool.
pub(crate) struct WorkItem {
    /// Slot index of the connection that sent it.
    pub conn: usize,
    /// Generation of that slot when dispatched (guards recycled slots).
    pub generation: u64,
    /// The parsed request.
    pub req: http::Request,
    /// When the item entered the work queue (`queue_wait` stage t0).
    pub queued: Instant,
    /// When the request's first byte arrived (end-to-end latency t0).
    pub started: Instant,
    /// Microseconds from first byte to fully parsed.
    pub parse_us: u64,
    /// Whether the server side permits keep-alive for this response (the
    /// client's own `Connection:` preference is applied by the worker).
    pub allow_keep_alive: bool,
    /// Page hash + fingerprint, precomputed by the loop for `/brief`.
    pub key_fp: Option<(u64, Fingerprint)>,
    /// The loop already probed the replica cache and missed, so the
    /// worker should count the miss without probing again.
    pub cache_probed: bool,
}

/// A worker's finished response, to be flushed by the event loop.
pub(crate) struct Done {
    /// Slot index the response belongs to.
    pub conn: usize,
    /// Generation the request was dispatched under.
    pub generation: u64,
    /// The fully rendered response bytes.
    pub bytes: Vec<u8>,
    /// Keep the connection open after flushing.
    pub keep_alive: bool,
    /// Record the flush duration as the `write` stage (data plane only).
    pub record_write: bool,
}

/// Worker → event-loop completion channel: a locked vector (completions
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

    fn drain(&self) -> Vec<Done> {
        std::mem::take(&mut *self.done.lock().unwrap())
    }
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
    work_tx: SyncSender<WorkItem>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_generation: u64,
    active: usize,
    scratch: Vec<u8>,
    timeout: Duration,
    idle_timeout: Option<Duration>,
    max_requests: u64,
    max_conns: usize,
}

/// Runs the event loop until shutdown completes (`stopping` set and every
/// connection retired). Owns the listener; dropping it on return is what
/// closes the port.
pub(crate) fn run(shared: Arc<Shared>, listener: TcpListener, work_tx: SyncSender<WorkItem>) {
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
        work_tx,
        conns: Vec::new(),
        free: Vec::new(),
        next_generation: 0,
        active: 0,
        scratch: vec![0u8; 16 * 1024],
        timeout,
        idle_timeout,
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
                    // Not polled: nothing to do until the worker's
                    // completion arrives via the wake pipe.
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
                ConnState::Processing => {}
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
    /// machine allows (one in flight at a time; an inline cache hit
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

    fn dispatch(&mut self, i: usize, req: http::Request, started: Instant) {
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
        let allow_keep_alive = !at_cap && !self.shared.stopping.load(Ordering::Relaxed);

        // Inline fast path: answer hot-cache briefs on this thread, no
        // worker handoff. try_lock only — contention falls through.
        let shared = Arc::clone(&self.shared);
        let mut key_fp = None;
        let mut cache_probed = false;
        if req.method == "POST" && req.path == "/brief" && !req.body.is_empty() {
            let cache_t0 = Instant::now();
            let key = fnv1a(&req.body);
            let fp = Fingerprint::of(&req.body);
            key_fp = Some((key, fp));
            let replica = shared.replicas.route(key);
            replica.count_request();
            if shared.cfg.cache_capacity > 0 {
                if let Ok(mut cache) = replica.cache.try_lock() {
                    let hit = cache.get(key, fp).cloned();
                    drop(cache);
                    match hit {
                        Some(json) => {
                            let cache_us = telemetry::micros_since(cache_t0);
                            self.reply_cache_hit(
                                i,
                                &req,
                                started,
                                parse_us,
                                cache_us,
                                allow_keep_alive,
                                &json,
                            );
                            return;
                        }
                        None => cache_probed = true,
                    }
                }
            }
        }

        let item = WorkItem {
            conn: i,
            generation,
            req,
            queued: Instant::now(),
            started,
            parse_us,
            allow_keep_alive,
            key_fp,
            cache_probed,
        };
        // Count the item in before handing it off: once try_send returns
        // a worker may already be decrementing, so increment-after would
        // race the counter below zero.
        let depth = self.shared.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        match self.work_tx.try_send(item) {
            Ok(()) => {
                wb_obs::gauge!("serve.queue.depth", depth as f64);
                wb_obs::gauge_max!("serve.queue.depth.peak", depth as f64);
                self.conns[i].as_mut().expect("dispatch on live conn").state =
                    ConnState::Processing;
            }
            Err(TrySendError::Full(_)) => {
                self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                wb_obs::counter!("serve.rejected.queue_full");
                let bytes = server::render_counted(
                    503,
                    "application/json",
                    &http::error_body("server overloaded; retry shortly"),
                    &[("Retry-After", "1")],
                    false,
                );
                self.queue_response(i, bytes, false, false, true);
            }
            Err(TrySendError::Disconnected(_)) => {
                self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
                self.close(i);
            }
        }
    }

    /// Serves a cache hit entirely on the event-loop thread, with full
    /// telemetry parity with the worker path (id, Server-Timing, metrics,
    /// access log).
    #[allow(clippy::too_many_arguments)]
    fn reply_cache_hit(
        &mut self,
        i: usize,
        req: &http::Request,
        started: Instant,
        parse_us: u64,
        cache_us: u64,
        allow_keep_alive: bool,
        json: &Arc<String>,
    ) {
        // Span parity with the worker path: inline hits must appear in
        // traces as serve.request too, or hit-heavy load looks idle.
        let _span = wb_obs::span!("serve.request");
        wb_obs::counter!("serve.cache.hit");
        wb_obs::window_counter!("serve.cache.hit");
        let id = telemetry::request_id(req.header("x-request-id"));
        let t = StageTimings { parse_us, cache_us, ..StageTimings::default() };
        let st = t.server_timing();
        let keep_alive = allow_keep_alive && req.wants_keep_alive();
        let bytes = server::render_counted(
            200,
            "application/json",
            json.as_bytes(),
            &[("X-Request-Id", &id), ("Server-Timing", &st), ("X-Cache", "hit")],
            keep_alive,
        );
        let total_us = telemetry::micros_since(started);
        server::finish_data_plane(
            &self.shared,
            &id,
            &req.method,
            &req.path,
            200,
            total_us,
            "hit",
            &t,
        );
        self.queue_response(i, bytes, keep_alive, true, false);
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
        let bytes = server::render_counted(
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

    fn conn_writable(&mut self, i: usize) {
        if matches!(self.flush(i), Flush::Complete) {
            self.finish_response(i);
            let reading_with_input = matches!(
                &self.conns[i],
                Some(c) if matches!(c.state, ConnState::Reading) && !c.buf.is_empty()
            );
            if reading_with_input {
                self.advance(i);
            }
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

    fn apply(&mut self, done: Done) {
        let live = matches!(
            self.conns.get(done.conn).and_then(|s| s.as_ref()),
            Some(c) if c.generation == done.generation
                && matches!(c.state, ConnState::Processing)
        );
        if !live {
            return; // connection died or slot was recycled mid-flight
        }
        self.queue_response(done.conn, done.bytes, done.keep_alive, done.record_write, false);
        let reading_with_input = matches!(
            &self.conns[done.conn],
            Some(c) if matches!(c.state, ConnState::Reading) && !c.buf.is_empty()
        );
        if reading_with_input {
            self.advance(done.conn);
        }
    }

    /// Enforces every time bound: total-read deadlines (408), idle
    /// keep-alive timeouts (silent close), stalled writes and expired
    /// drains.
    fn sweep(&mut self, now: Instant) {
        enum Due {
            ReadTimeout,
            IdleClose,
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
