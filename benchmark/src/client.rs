//! The benchmark's own HTTP/1.1 load client for `wb serve`.
//!
//! It is deliberately not `wb loadgen`: that tool sends one-sentence
//! synthetic pages and is program code a performance change could edit,
//! while the benchmark must send the workload's generated pages and stay
//! fixed across the changes it judges.
//!
//! One process, at most two threads, one keep-alive connection each. Two
//! load loops share one worker loop:
//!
//! * **open loop** — request `i` is due at `start + i / rate` whether or
//!   not earlier requests finished; latency counts from the due time, so a
//!   stall also charges the requests queued behind it (no coordinated
//!   omission), and the lateness of each send is recorded to show whether
//!   the generator itself kept up;
//! * **closed loop** — each connection sends its next request as soon as
//!   the previous response arrives, until a deadline.
//!
//! Every response is parsed strictly (status line, `Content-Length`
//! framing) and its `Server-Timing` and `X-Cache` headers are kept.
//!
//! Responses are counted in [`WINDOW`]-long windows, and the calling
//! thread (which sends nothing) samples host CPU steal at every window
//! boundary, so rates and latencies can be read from the windows no steal
//! touched (see [`crate::host`]).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The `Server-Timing` stages `wb serve` reports, in pipeline order
/// (`write` is never in the header: it is sent during the write).
const STAGES: [&str; 6] = ["queue_wait", "parse", "cache", "batch_wait", "model", "serialize"];

/// A parsed response head.
#[derive(Debug, Clone, PartialEq)]
struct Head {
    /// Status code.
    status: u16,
    /// Header fields in order, names as sent.
    headers: Vec<(String, String)>,
    /// Body length from `Content-Length`.
    content_length: usize,
    /// Whether the server closes the connection after this response.
    close: bool,
}

/// One complete response.
#[derive(Debug, Clone)]
pub struct Response {
    /// The head.
    head: Head,
    /// Exactly `Content-Length` body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// Status code.
    pub fn status(&self) -> u16 {
        self.head.status
    }

    /// First value of a header, matched case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.head.headers, name)
    }
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
}

/// Offset just past the blank line ending a response head, if buffered.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Parses a response head (everything before the blank line). Rejects
/// what a correct server never sends: a bad status line, a header line
/// without a colon, and a missing, non-numeric or conflicting
/// `Content-Length` (the server frames every response with one).
fn parse_head(head: &str) -> Result<Head, String> {
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let mut parts = status_line.splitn(3, ' ');
    if !matches!(parts.next(), Some("HTTP/1.1" | "HTTP/1.0")) {
        return Err(format!("bad status line {status_line:?}"));
    }
    let status = parts
        .next()
        .filter(|s| s.len() == 3 && s.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status code in {status_line:?}"))?;
    let mut headers = Vec::new();
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("header line without colon {line:?}"))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    let mut content_length: Option<usize> = None;
    for (name, value) in &headers {
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
            return Err(format!("bad Content-Length {value:?}"));
        }
        let n: usize = value.parse().map_err(|_| format!("bad Content-Length {value:?}"))?;
        if content_length.is_some_and(|m| m != n) {
            return Err("conflicting Content-Length headers".to_string());
        }
        content_length = Some(n);
    }
    let content_length = content_length.ok_or("response without Content-Length")?;
    let close = header(&headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
    Ok(Head { status, headers, content_length, close })
}

/// Parses a `Server-Timing` value (`stage;dur=<ms>, ...`) into per-stage
/// milliseconds in [`STAGES`] order. Stages the server omitted (it skips
/// zero ones) stay 0; names outside [`STAGES`] (`total`) are ignored.
fn server_timing(value: &str) -> Result<[f64; 6], String> {
    let mut out = [0.0; 6];
    for entry in value.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let (name, dur) = entry
            .split_once(";dur=")
            .ok_or_else(|| format!("Server-Timing entry without dur: {entry:?}"))?;
        let ms: f64 =
            dur.parse().map_err(|_| format!("Server-Timing dur is not a number: {entry:?}"))?;
        if let Some(i) = STAGES.iter().position(|s| *s == name) {
            out[i] = ms;
        }
    }
    Ok(out)
}

/// One keep-alive connection that reconnects after the server closes it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened so far (1 + reconnects).
    pub opened: usize,
}

impl Conn {
    /// Opens a connection to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let mut c = Conn { addr, stream: None, buf: Vec::new(), opened: 0 };
        c.open()?;
        Ok(c)
    }

    fn open(&mut self) -> io::Result<()> {
        let s = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        self.stream = Some(s);
        self.buf.clear();
        self.opened += 1;
        Ok(())
    }

    /// Sends one request and reads its response. After an error or a
    /// `Connection: close` response the next call reconnects.
    pub fn send(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
        let r = self.exchange(method, path, body);
        if !matches!(&r, Ok(resp) if !resp.head.close) {
            self.stream = None;
        }
        r
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
        if self.stream.is_none() {
            self.open().map_err(|e| format!("connect: {e}"))?;
        }
        let Conn { stream, buf, .. } = self;
        let stream = stream.as_mut().expect("connected above");
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: wb-benchmark\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        stream.write_all(&req).map_err(|e| format!("send: {e}"))?;
        let end = loop {
            if let Some(end) = head_end(buf) {
                break end;
            }
            fill(stream, buf)?;
        };
        let head = std::str::from_utf8(&buf[..end - 4])
            .map_err(|_| "response head is not UTF-8".to_string())
            .and_then(parse_head)?;
        let total = end + head.content_length;
        while buf.len() < total {
            fill(stream, buf)?;
        }
        let body = buf[end..total].to_vec();
        buf.drain(..total);
        Ok(Response { head, body })
    }
}

fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<(), String> {
    let mut chunk = [0u8; 16 * 1024];
    match stream.read(&mut chunk) {
        Ok(0) => Err("connection closed mid-response".to_string()),
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(())
        }
        Err(e) => Err(format!("receive: {e}")),
    }
}

/// An open-loop arrival schedule: request `i` is due `i / rate` seconds
/// after the start.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    rate: f64,
}

impl Schedule {
    /// A schedule of `rate` requests per second starting at `start`.
    pub fn new(start: Instant, rate: f64) -> Schedule {
        assert!(rate > 0.0, "an open loop needs a positive rate");
        Schedule { start, rate }
    }

    /// When request `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate)
    }
}

/// How late a send left against its due time (zero when on time).
fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// Sends later than this count as late: well above the sleep overshoot
/// of an idle generator, well below a request's service time.
const LATE_THRESHOLD: Duration = Duration::from_millis(1);

/// Width of the windows responses are counted in.
const WINDOW: Duration = Duration::from_millis(250);

/// Running totals of a load loop, kept per thread and merged: hot-cache
/// runs answer a million requests, so no per-request record is stored
/// beyond its latency and window.
#[derive(Debug, Default)]
pub struct Tally {
    /// Per request: from the due time (open loop) or the send (closed
    /// loop) to the complete response, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Per request: the window its response arrived in.
    window: Vec<u32>,
    /// Responses per window.
    done_per_window: Vec<u32>,
    /// Requests that were not a 200 accepted by the workload's check.
    pub failed: usize,
    /// `X-Cache: hit` responses.
    pub hits: usize,
    /// Sends that left more than [`LATE_THRESHOLD`] after their due time.
    pub late: usize,
    /// Σ send-to-response time, in milliseconds.
    pub service_ms: f64,
    /// Σ `Server-Timing` stages in [`STAGES`] order, in milliseconds.
    pub stages_ms: [f64; 6],
}

impl Tally {
    /// Requests counted.
    pub fn requests(&self) -> usize {
        self.latency_ms.len()
    }

    /// Counts one request of a run that started at `start`. `due` is its
    /// scheduled time in an open loop.
    #[allow(clippy::too_many_arguments)]
    fn add(
        &mut self,
        start: Instant,
        due: Option<Instant>,
        sent: Instant,
        done: Instant,
        ok: bool,
        hit: bool,
        stages: [f64; 6],
    ) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let window = ((done - start).as_nanos() / WINDOW.as_nanos()) as usize;
        if self.done_per_window.len() <= window {
            self.done_per_window.resize(window + 1, 0);
        }
        self.done_per_window[window] += 1;
        self.window.push(window as u32);
        self.latency_ms.push(ms(done - due.unwrap_or(sent)));
        self.service_ms += ms(done - sent);
        if due.is_some_and(|d| lateness(d, sent) > LATE_THRESHOLD) {
            self.late += 1;
        }
        self.failed += usize::from(!ok);
        self.hits += usize::from(hit);
        for (t, s) in self.stages_ms.iter_mut().zip(stages) {
            *t += s;
        }
    }

    fn merge(&mut self, other: Tally) {
        self.latency_ms.extend(other.latency_ms);
        self.window.extend(other.window);
        if self.done_per_window.len() < other.done_per_window.len() {
            self.done_per_window.resize(other.done_per_window.len(), 0);
        }
        for (t, n) in self.done_per_window.iter_mut().zip(other.done_per_window) {
            *t += n;
        }
        self.failed += other.failed;
        self.hits += other.hits;
        self.late += other.late;
        self.service_ms += other.service_ms;
        for (t, s) in self.stages_ms.iter_mut().zip(other.stages_ms) {
            *t += s;
        }
    }

    /// Share of sends that left late; 0 for no sends.
    pub fn late_fraction(&self) -> f64 {
        crate::stats::ratio(self.late as f64, self.requests() as f64)
    }
}

/// Everything one load loop produced.
pub struct LoopResult {
    /// The requests' totals.
    pub tally: Tally,
    /// From the start to the last response.
    pub elapsed: Duration,
    /// Connections opened (requests minus this are keep-alive reuses).
    pub connections: usize,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Cumulative host steal (ms) sampled at each window boundary.
    stolen_at: Vec<f64>,
}

/// What a load loop measured outside stolen time.
pub struct Steady {
    /// Completed requests per second.
    pub rate: f64,
    /// Latencies of the requests, in milliseconds.
    pub latency_ms: Vec<f64>,
    /// Complete windows in the run, and the share no steal touched.
    pub windows: usize,
    pub clean_share: f64,
}

impl LoopResult {
    /// Rate and latencies over the complete windows that no steal touched
    /// (all complete windows when too few are clean; every request when
    /// the run is shorter than one window).
    pub fn steady(&self) -> Steady {
        let window_ms = WINDOW.as_secs_f64() * 1e3;
        let complete = ((self.elapsed.as_nanos() / WINDOW.as_nanos()) as usize)
            .min(self.stolen_at.len().saturating_sub(1));
        let windows: Vec<(usize, bool)> = (0..complete)
            .map(|k| {
                (k, crate::host::clean(window_ms, self.stolen_at[k + 1] - self.stolen_at[k]))
            })
            .collect();
        let (kept, clean_share) = crate::host::keep_clean(windows);
        if kept.is_empty() {
            let rate =
                crate::stats::ratio(self.tally.requests() as f64, self.elapsed.as_secs_f64());
            let latency_ms = self.tally.latency_ms.clone();
            return Steady { rate, latency_ms, windows: complete, clean_share };
        }
        let mut keep = vec![false; complete];
        for &k in &kept {
            keep[k] = true;
        }
        let done: u32 = kept.iter().map(|&k| self.tally.done_per_window[k]).sum();
        let latency_ms = self
            .tally
            .latency_ms
            .iter()
            .zip(&self.tally.window)
            .filter(|(_, &w)| keep.get(w as usize).copied().unwrap_or(false))
            .map(|(l, _)| *l)
            .collect();
        let rate = f64::from(done) / (kept.len() as f64 * WINDOW.as_secs_f64());
        Steady { rate, latency_ms, windows: complete, clean_share }
    }
}

/// What to send: `page_of(seq)` names the page for the `seq`-th request
/// (`None` ends the run) and `pages[page]` is its body; `check` vets each
/// 200 response (e.g. compares or stores its body).
pub struct Load<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Connections, one thread each.
    pub conns: usize,
    /// Request bodies by page index.
    pub pages: &'a [String],
    /// Page of the `seq`-th request, or `None` to stop.
    pub page_of: &'a (dyn Fn(usize) -> Option<usize> + Sync),
    /// Workload-specific acceptance of a 200 response.
    pub check: &'a (dyn Fn(usize, &Response) -> Result<(), String> + Sync),
}

/// Sends `count` requests on `schedule` (open loop).
pub fn open_loop(load: &Load<'_>, schedule: Schedule, count: usize) -> LoopResult {
    drive(load, Some(schedule), None, count)
}

/// Sends requests back to back on every connection until `deadline`
/// (closed loop).
pub fn closed_loop(load: &Load<'_>, deadline: Instant) -> LoopResult {
    drive(load, None, Some(deadline), usize::MAX)
}

fn drive(
    load: &Load<'_>,
    schedule: Option<Schedule>,
    deadline: Option<Instant>,
    count: usize,
) -> LoopResult {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let worker = || {
        let mut conn = Conn { addr: load.addr, stream: None, buf: Vec::new(), opened: 0 };
        let mut tally = Tally::default();
        let mut errors = Vec::new();
        let mut last = start;
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let seq = next.fetch_add(1, Ordering::Relaxed);
            let Some(page) = (seq < count).then(|| (load.page_of)(seq)).flatten() else {
                break;
            };
            let due = schedule.map(|s| s.due(seq));
            if let Some(due) = due {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            let sent = Instant::now();
            let result = conn.send("POST", "/brief", load.pages[page].as_bytes());
            let done = Instant::now();
            last = done;
            let (mut hit, mut stages) = (false, [0.0; 6]);
            let verdict = result.and_then(|resp| {
                hit = resp.header("x-cache") == Some("hit");
                if let Some(st) = resp.header("server-timing") {
                    stages = server_timing(st)?;
                }
                if resp.status() != 200 {
                    return Err(format!(
                        "status {}: {}",
                        resp.status(),
                        String::from_utf8_lossy(&resp.body)
                    ));
                }
                (load.check)(page, &resp)
            });
            if let Err(e) = &verdict {
                if errors.len() < 5 {
                    errors.push(format!("page {page}: {e}"));
                }
            }
            tally.add(start, due, sent, done, verdict.is_ok(), hit, stages);
        }
        (tally, conn.opened, errors, last)
    };
    let mut stolen_at = vec![crate::host::stolen_ms()];
    let parts: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..load.conns).map(|_| s.spawn(worker)).collect();
        while !handles.iter().all(|h| h.is_finished()) {
            let boundary = start + WINDOW * stolen_at.len() as u32;
            if let Some(wait) = boundary.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            stolen_at.push(crate::host::stolen_ms());
        }
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut result = LoopResult {
        tally: Tally::default(),
        elapsed: Duration::ZERO,
        connections: 0,
        errors: Vec::new(),
        stolen_at,
    };
    let mut last = start;
    for (tally, opened, errors, l) in parts {
        result.tally.merge(tally);
        result.connections += opened;
        result.errors.extend(errors);
        last = last.max(l);
    }
    result.elapsed = last - start;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_server_response_head() {
        let h = parse_head(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\
             X-Cache: hit\r\nServer-Timing: parse;dur=0.010, cache;dur=0.003",
        )
        .unwrap();
        assert_eq!(h.status, 200);
        assert_eq!(h.content_length, 12);
        assert!(!h.close);
        assert_eq!(
            header(&h.headers, "x-cache"),
            Some("hit"),
            "names match case-insensitively"
        );
        let closing = parse_head(
            "HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nContent-Length: 0",
        )
        .unwrap();
        assert_eq!(closing.status, 503);
        assert!(closing.close);
    }

    #[test]
    fn rejects_malformed_heads() {
        for bad in [
            "HTTP/2 200 OK\r\nContent-Length: 1",
            "HTTP/1.1 20 OK\r\nContent-Length: 1",
            "HTTP/1.1 200 OK\r\nno colon here\r\nContent-Length: 1",
            "HTTP/1.1 200 OK\r\nContent-Length: +5",
            "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6",
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain",
        ] {
            assert!(parse_head(bad).is_err(), "accepted {bad:?}");
        }
        // Agreeing duplicates are fine.
        assert!(parse_head("HTTP/1.1 200 OK\r\nContent-Length: 5\r\ncontent-length: 5").is_ok());
    }

    #[test]
    fn finds_the_end_of_the_head() {
        assert_eq!(head_end(b"HTTP/1.1 200 OK\r\n\r\nbody"), Some(19));
        assert_eq!(head_end(b"HTTP/1.1 200 OK\r\n"), None);
    }

    #[test]
    fn parses_server_timing_into_stage_order() {
        let st =
            server_timing("queue_wait;dur=0.050, parse;dur=0.120, model;dur=150.000").unwrap();
        assert_eq!(st, [0.05, 0.12, 0.0, 0.0, 150.0, 0.0]);
        assert_eq!(server_timing("total;dur=0").unwrap(), [0.0; 6]);
        assert!(server_timing("model;dur=abc").is_err());
        assert!(server_timing("model").is_err());
    }

    #[test]
    fn open_loop_schedule_and_lateness() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 50.0);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(50) - t0, Duration::from_secs(1));
        assert_eq!(s.due(5) - t0, Duration::from_millis(100));
        // On time or early is zero lateness; late is the difference.
        assert_eq!(lateness(s.due(5), t0), Duration::ZERO);
        assert_eq!(lateness(t0, t0 + Duration::from_millis(3)), Duration::from_millis(3));
        let mut tally = Tally::default();
        for late_us in [0, 200, 1500, 30_000] {
            let sent = t0 + Duration::from_micros(late_us);
            tally.add(
                t0,
                Some(t0),
                sent,
                sent + Duration::from_millis(4),
                true,
                false,
                [0.0; 6],
            );
        }
        assert_eq!(tally.late_fraction(), 0.5, "two of four sends left over 1 ms late");
        // Latency counts from the due time, service time from the send.
        assert_eq!(tally.latency_ms[3], 34.0);
        assert_eq!(tally.service_ms, 16.0);
        // A closed loop has no due times, so nothing is ever late.
        let mut closed = Tally::default();
        closed.add(t0, None, t0, t0 + Duration::from_millis(2), true, true, [0.0; 6]);
        assert_eq!((closed.late_fraction(), closed.latency_ms[0], closed.hits), (0.0, 2.0, 1));
        assert_eq!(Tally::default().late_fraction(), 0.0);
    }

    #[test]
    fn keep_alive_exchange_against_a_scripted_server() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut buf = [0u8; 4096];
            // Two requests on one connection; the replies are written in
            // pieces and the second closes the connection.
            for reply in [
                &b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Cache: miss\r\n\r\nhello"[..],
                &b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok"[..],
            ] {
                let n = s.read(&mut buf).unwrap();
                seen.push(String::from_utf8_lossy(&buf[..n]).into_owned());
                let (a, b) = reply.split_at(10);
                s.write_all(a).unwrap();
                s.flush().unwrap();
                std::thread::sleep(Duration::from_millis(5));
                s.write_all(b).unwrap();
            }
            seen
        });
        let mut c = Conn::connect(addr).unwrap();
        let r = c.send("POST", "/brief", b"<p>x</p>").unwrap();
        assert_eq!((r.status(), r.body.as_slice()), (200, &b"hello"[..]));
        assert_eq!(r.header("X-Cache"), Some("miss"));
        let r = c.send("POST", "/brief", b"<p>y</p>").unwrap();
        assert_eq!(r.body, b"ok");
        assert_eq!(c.opened, 1, "both requests reused one connection");
        let seen = server.join().unwrap();
        assert!(seen[0].starts_with("POST /brief HTTP/1.1\r\n"));
        assert!(seen[0].contains("Content-Length: 8\r\n"));
        assert!(seen[0].ends_with("\r\n\r\n<p>x</p>"));
    }
}
