//! `wb loadgen` — an HTTP load generator for the briefing server.
//!
//! Drives `POST /brief` against a running `wb serve` with a pool of
//! client connections and reports throughput, latency percentiles and
//! SLO attainment, in two arrival models:
//!
//! * **Closed loop** (the default): each of `concurrency` connections
//!   issues its next request as soon as the previous response lands —
//!   measures the server's capacity at a fixed multiprogramming level.
//! * **Open loop** (`rate > 0`): requests are *scheduled* at a fixed
//!   arrival rate and latency is measured from the scheduled arrival,
//!   not from when the client got around to sending — so a stalled
//!   server inflates the percentiles instead of silently throttling the
//!   generator (the coordinated-omission trap).
//!
//! Connections are HTTP/1.1 keep-alive unless `keep_alive` is off, in
//! which case every request pays connect + close — the comparison
//! `wb loadgen --compare` runs both and reports the speedup, which is
//! the headline number for the event-loop + keep-alive serving path.
//!
//! Results convert to a [`crate::perf::BenchReport`] (`BENCH_serve.json`)
//! so `wb bench --baseline` machinery can diff serving runs: request and
//! error *counts* are hard metrics (a framing error or a dropped request
//! is a bug, not noise), times are soft.

use crate::perf::{env_fingerprint, BenchReport, Metric, WorkloadResult, SCHEMA};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One load run's shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address (`HOST:PORT`).
    pub addr: String,
    /// Total measured requests.
    pub requests: u64,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// Reuse connections (HTTP/1.1 keep-alive) vs. connect-per-request.
    pub keep_alive: bool,
    /// Open-loop arrival rate in requests/second; 0 = closed loop.
    pub rate: f64,
    /// Distinct synthetic pages cycled through (past the warmup, repeats
    /// are server-cache hits).
    pub pages: usize,
    /// Latency SLO for the attainment metric, in milliseconds.
    pub slo_ms: f64,
    /// Per-request socket timeout.
    pub timeout: Duration,
    /// Un-measured cache-warming pass over the page set before the run.
    pub warmup: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:8660".to_string(),
            requests: 1000,
            concurrency: 8,
            keep_alive: true,
            rate: 0.0,
            pages: 8,
            slo_ms: 50.0,
            timeout: Duration::from_secs(10),
            warmup: true,
        }
    }
}

/// Aggregated outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadSummary {
    /// `keepalive` or `close`.
    pub mode: &'static str,
    /// Requests attempted.
    pub requests: u64,
    /// 2xx responses.
    pub ok: u64,
    /// 4xx responses.
    pub client_errors: u64,
    /// 5xx responses.
    pub server_errors: u64,
    /// Connect/read/write failures (no usable response).
    pub transport_errors: u64,
    /// Responses the client could not frame (bad head, missing
    /// Content-Length) — always a server bug.
    pub framing_errors: u64,
    /// TCP connections opened.
    pub conns_opened: u64,
    /// Requests served on an already-used connection.
    pub reused: u64,
    /// Responses marked `X-Cache: hit`.
    pub cache_hits: u64,
    /// Wall-clock of the measured run.
    pub elapsed: Duration,
    /// Per-request latency in µs, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// The SLO the attainment below is measured against.
    pub slo_ms: f64,
}

impl LoadSummary {
    /// Requests per second over the run.
    pub fn rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.requests as f64 / secs
        } else {
            0.0
        }
    }

    /// Latency quantile in µs (nearest-rank on the sorted vector).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        let rank = ((q * self.latencies_us.len() as f64).ceil() as usize)
            .clamp(1, self.latencies_us.len());
        self.latencies_us[rank - 1] as f64
    }

    /// Fraction of requests at or under the SLO.
    pub fn slo_attainment(&self) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        let limit = (self.slo_ms * 1000.0) as u64;
        let within = self.latencies_us.iter().filter(|&&us| us <= limit).count();
        within as f64 / self.latencies_us.len() as f64
    }

    /// Human-readable one-block summary.
    pub fn render(&self) -> String {
        format!(
            "mode {:<10} {} requests in {:.2}s = {:.0} rps\n\
             \x20 responses     2xx {}  4xx {}  5xx {}  transport {}  framing {}\n\
             \x20 connections   opened {}  reused {} ({:.1}% of requests)  cache hits {}\n\
             \x20 latency (us)  p50 {:.0}  p90 {:.0}  p99 {:.0}\n\
             \x20 SLO {:.0}ms     {:.2}% attained\n",
            self.mode,
            self.requests,
            self.elapsed.as_secs_f64(),
            self.rps(),
            self.ok,
            self.client_errors,
            self.server_errors,
            self.transport_errors,
            self.framing_errors,
            self.conns_opened,
            self.reused,
            100.0 * self.reused as f64 / (self.requests.max(1)) as f64,
            self.cache_hits,
            self.quantile_us(0.50),
            self.quantile_us(0.90),
            self.quantile_us(0.99),
            self.slo_ms,
            100.0 * self.slo_attainment(),
        )
    }
}

/// A parsed response, as much of it as the generator cares about.
struct Response {
    status: u16,
    cache_hit: bool,
    server_closes: bool,
}

/// What went wrong with one request.
enum RequestError {
    /// Socket-level failure (connect, write, read, timeout).
    Transport,
    /// The response could not be framed — a server protocol bug.
    Framing,
}

/// One client connection with a carry buffer, so back-to-back responses
/// that share a socket read are framed correctly.
struct ClientConn {
    stream: TcpStream,
    buf: Vec<u8>,
    served: u64,
}

impl ClientConn {
    fn connect(addr: &SocketAddr, timeout: Duration) -> Result<ClientConn, RequestError> {
        let stream =
            TcpStream::connect_timeout(addr, timeout).map_err(|_| RequestError::Transport)?;
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));
        let _ = stream.set_nodelay(true);
        Ok(ClientConn { stream, buf: Vec::new(), served: 0 })
    }

    /// Sends one `POST /brief` and reads its `Content-Length`-framed
    /// response off the connection.
    fn request(&mut self, body: &[u8], close: bool) -> Result<Response, RequestError> {
        let conn_header = if close { "Connection: close\r\n" } else { "" };
        let head = format!(
            "POST /brief HTTP/1.1\r\nHost: loadgen\r\n{conn_header}Content-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes()).map_err(|_| RequestError::Transport)?;
        self.stream.write_all(body).map_err(|_| RequestError::Transport)?;
        let response = self.read_response()?;
        self.served += 1;
        Ok(response)
    }

    fn read_response(&mut self) -> Result<Response, RequestError> {
        let mut tmp = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            if self.buf.len() > 64 * 1024 {
                return Err(RequestError::Framing); // headers never end
            }
            match self.stream.read(&mut tmp) {
                Ok(0) => return Err(RequestError::Transport),
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(_) => return Err(RequestError::Transport),
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let mut lines = head.lines();
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_ascii_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or(RequestError::Framing)?;
        let mut content_length: Option<usize> = None;
        let mut cache_hit = false;
        let mut server_closes = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok();
            } else if name.eq_ignore_ascii_case("x-cache") {
                cache_hit = value == "hit";
            } else if name.eq_ignore_ascii_case("connection") {
                server_closes = value.eq_ignore_ascii_case("close");
            }
        }
        let content_length = content_length.ok_or(RequestError::Framing)?;
        while self.buf.len() < head_end + content_length {
            match self.stream.read(&mut tmp) {
                Ok(0) => return Err(RequestError::Transport),
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(_) => return Err(RequestError::Transport),
            }
        }
        self.buf.drain(..head_end + content_length);
        Ok(Response { status, cache_hit, server_closes })
    }
}

/// The deterministic page set the generator cycles through: briefable
/// synthetic product pages, distinct per index so each is its own cache
/// key.
pub fn synthetic_pages(n: usize) -> Vec<Vec<u8>> {
    (0..n.max(1))
        .map(|i| {
            format!(
                "<html><body><section><p>great velcro books {i} , \
                 price : $ {}.{:02} . fast shipping to friendly people .\
                 </p></section></body></html>",
                9 + i,
                (i * 7) % 100
            )
            .into_bytes()
        })
        .collect()
}

/// Per-thread tallies, merged after the join.
#[derive(Default)]
struct ThreadTally {
    ok: u64,
    client_errors: u64,
    server_errors: u64,
    transport_errors: u64,
    framing_errors: u64,
    conns_opened: u64,
    reused: u64,
    cache_hits: u64,
    latencies_us: Vec<u64>,
}

/// Runs one load pass against a live server and aggregates the outcome.
pub fn run(cfg: &LoadConfig) -> Result<LoadSummary, String> {
    let addr: SocketAddr = cfg
        .addr
        .parse()
        .map_err(|_| format!("invalid address `{}` (expected HOST:PORT)", cfg.addr))?;
    let pages = Arc::new(synthetic_pages(cfg.pages));
    if cfg.warmup {
        // One pass over the page set on a single connection, so the
        // measured run hits a warm cache in every mode.
        let mut conn = ClientConn::connect(&addr, cfg.timeout)
            .map_err(|_| format!("cannot connect to {}", cfg.addr))?;
        for page in pages.iter() {
            if conn.request(page, false).map(|r| r.server_closes).unwrap_or(true) {
                conn = ClientConn::connect(&addr, cfg.timeout)
                    .map_err(|_| format!("lost connection to {} during warmup", cfg.addr))?;
            }
        }
    }

    let concurrency = cfg.concurrency.max(1);
    let tickets = Arc::new(AtomicU64::new(0));
    let total = cfg.requests;
    let start = Instant::now();
    let mut handles = Vec::with_capacity(concurrency);
    for _ in 0..concurrency {
        let tickets = Arc::clone(&tickets);
        let pages = Arc::clone(&pages);
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            let mut tally = ThreadTally::default();
            let mut conn: Option<ClientConn> = None;
            loop {
                let i = tickets.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                // Open loop: request i is *scheduled* at start + i/rate;
                // latency counts from there even if we fell behind.
                let scheduled = if cfg.rate > 0.0 {
                    let at = start + Duration::from_secs_f64(i as f64 / cfg.rate);
                    if let Some(wait) = at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    Some(at)
                } else {
                    None
                };
                let t0 = scheduled.unwrap_or_else(Instant::now);
                let mut c = match conn.take() {
                    Some(c) => c,
                    None => match ClientConn::connect(&addr, cfg.timeout) {
                        Ok(c) => {
                            tally.conns_opened += 1;
                            c
                        }
                        Err(_) => {
                            tally.transport_errors += 1;
                            continue;
                        }
                    },
                };
                if c.served > 0 {
                    tally.reused += 1;
                }
                let body = &pages[(i as usize) % pages.len()];
                match c.request(body, !cfg.keep_alive) {
                    Ok(r) => {
                        tally.latencies_us.push(t0.elapsed().as_micros() as u64);
                        match r.status / 100 {
                            2 => tally.ok += 1,
                            4 => tally.client_errors += 1,
                            _ => tally.server_errors += 1,
                        }
                        if r.cache_hit {
                            tally.cache_hits += 1;
                        }
                        if cfg.keep_alive && !r.server_closes {
                            conn = Some(c);
                        }
                    }
                    Err(RequestError::Transport) => tally.transport_errors += 1,
                    Err(RequestError::Framing) => tally.framing_errors += 1,
                }
            }
            tally
        }));
    }
    let mut merged = ThreadTally::default();
    for h in handles {
        let t = h.join().map_err(|_| "load thread panicked".to_string())?;
        merged.ok += t.ok;
        merged.client_errors += t.client_errors;
        merged.server_errors += t.server_errors;
        merged.transport_errors += t.transport_errors;
        merged.framing_errors += t.framing_errors;
        merged.conns_opened += t.conns_opened;
        merged.reused += t.reused;
        merged.cache_hits += t.cache_hits;
        merged.latencies_us.extend(t.latencies_us);
    }
    let elapsed = start.elapsed();
    merged.latencies_us.sort_unstable();
    Ok(LoadSummary {
        mode: if cfg.keep_alive { "keepalive" } else { "close" },
        requests: total,
        ok: merged.ok,
        client_errors: merged.client_errors,
        server_errors: merged.server_errors,
        transport_errors: merged.transport_errors,
        framing_errors: merged.framing_errors,
        conns_opened: merged.conns_opened,
        reused: merged.reused,
        cache_hits: merged.cache_hits,
        elapsed,
        latencies_us: merged.latencies_us,
        slo_ms: cfg.slo_ms,
    })
}

/// Converts load summaries into a `wb bench`-compatible report, one
/// workload per summary (`serve_keepalive`, `serve_close`, …). When both
/// keep-alive and close modes are present, a `serve_compare` workload
/// carries the keep-alive speedup.
pub fn to_bench_report(label: &str, summaries: &[LoadSummary]) -> BenchReport {
    let mut workloads = BTreeMap::new();
    for s in summaries {
        let mut m = BTreeMap::new();
        let hard = |v: f64, unit: &str| Metric { value: v, unit: unit.to_string(), hard: true };
        let soft =
            |v: f64, unit: &str| Metric { value: v, unit: unit.to_string(), hard: false };
        // Counts are hard: a dropped request, an unframeable response or a
        // transport error is a correctness bug, not scheduler noise.
        m.insert("work_units".into(), hard(s.requests as f64, "requests"));
        m.insert("framing_errors".into(), hard(s.framing_errors as f64, "errors"));
        m.insert("transport_errors".into(), hard(s.transport_errors as f64, "errors"));
        m.insert(
            "answered".into(),
            hard((s.ok + s.client_errors + s.server_errors) as f64, "responses"),
        );
        m.insert("throughput".into(), soft(s.rps(), "requests/s"));
        m.insert("latency_p50_us".into(), soft(s.quantile_us(0.50), "us"));
        m.insert("latency_p90_us".into(), soft(s.quantile_us(0.90), "us"));
        m.insert("latency_p99_us".into(), soft(s.quantile_us(0.99), "us"));
        m.insert("slo_attainment".into(), soft(s.slo_attainment(), "fraction"));
        m.insert(
            "reuse_fraction".into(),
            soft(s.reused as f64 / s.requests.max(1) as f64, "fraction"),
        );
        m.insert(
            "cache_hit_fraction".into(),
            soft(s.cache_hits as f64 / s.requests.max(1) as f64, "fraction"),
        );
        m.insert("conns_opened".into(), soft(s.conns_opened as f64, "conns"));
        workloads
            .insert(format!("serve_{}", s.mode), WorkloadResult { repeats: 1, metrics: m });
    }
    let keepalive = summaries.iter().find(|s| s.mode == "keepalive");
    let close = summaries.iter().find(|s| s.mode == "close");
    if let (Some(ka), Some(cl)) = (keepalive, close) {
        let mut m = BTreeMap::new();
        let speedup = if cl.rps() > 0.0 { ka.rps() / cl.rps() } else { 0.0 };
        m.insert(
            "keepalive_speedup".into(),
            Metric { value: speedup, unit: "x".to_string(), hard: false },
        );
        workloads.insert("serve_compare".into(), WorkloadResult { repeats: 1, metrics: m });
    }
    BenchReport {
        schema: SCHEMA.to_string(),
        label: label.to_string(),
        tier: "loadgen".to_string(),
        env: env_fingerprint(),
        workloads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn synthetic_pages_are_distinct_and_deterministic() {
        let a = synthetic_pages(8);
        let b = synthetic_pages(8);
        assert_eq!(a, b);
        for (i, p) in a.iter().enumerate() {
            for q in &a[i + 1..] {
                assert_ne!(p, q, "pages must be distinct cache keys");
            }
        }
        assert_eq!(synthetic_pages(0).len(), 1, "zero pages clamps to one");
    }

    #[test]
    fn summary_math_percentiles_rps_and_slo() {
        let s = LoadSummary {
            mode: "keepalive",
            requests: 4,
            ok: 4,
            client_errors: 0,
            server_errors: 0,
            transport_errors: 0,
            framing_errors: 0,
            conns_opened: 1,
            reused: 3,
            cache_hits: 2,
            elapsed: Duration::from_secs(2),
            latencies_us: vec![100, 200, 300, 400_000],
            slo_ms: 1.0,
        };
        assert_eq!(s.rps(), 2.0);
        assert_eq!(s.quantile_us(0.50), 200.0);
        assert_eq!(s.quantile_us(0.99), 400_000.0);
        assert_eq!(s.slo_attainment(), 0.75, "3 of 4 under 1ms");
        let text = s.render();
        assert!(text.contains("p99 400000"), "{text}");
        assert!(text.contains("75.00% attained"), "{text}");
    }

    #[test]
    fn bench_report_roundtrips_and_carries_speedup() {
        let ka = LoadSummary {
            mode: "keepalive",
            requests: 100,
            ok: 100,
            client_errors: 0,
            server_errors: 0,
            transport_errors: 0,
            framing_errors: 0,
            conns_opened: 4,
            reused: 96,
            cache_hits: 90,
            elapsed: Duration::from_secs(1),
            latencies_us: (1..=100).collect(),
            slo_ms: 50.0,
        };
        let mut cl = ka.clone();
        cl.mode = "close";
        cl.elapsed = Duration::from_secs(4);
        cl.reused = 0;
        cl.conns_opened = 100;
        let report = to_bench_report("serve", &[ka, cl]);
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        let cmp = crate::perf::compare(&report, &parsed);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        let speedup = report.workloads["serve_compare"].metrics["keepalive_speedup"].value;
        assert!((speedup - 4.0).abs() < 1e-9, "100rps vs 25rps = 4x, got {speedup}");
        assert!(report.workloads["serve_keepalive"].metrics["framing_errors"].hard);
        assert!(!report.workloads["serve_keepalive"].metrics["throughput"].hard);
    }

    #[test]
    fn transport_errors_are_counted_not_fatal() {
        // A listener that accepts and immediately closes: every request is
        // a transport error, none crash the generator.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicU64::new(0));
        let server = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                listener.set_nonblocking(true).unwrap();
                while stop.load(Ordering::Relaxed) == 0 {
                    match listener.accept() {
                        Ok((s, _)) => drop(s),
                        Err(_) => std::thread::sleep(Duration::from_millis(2)),
                    }
                }
            })
        };
        let cfg = LoadConfig {
            addr: addr.to_string(),
            requests: 6,
            concurrency: 2,
            warmup: false,
            timeout: Duration::from_millis(500),
            ..LoadConfig::default()
        };
        let summary = run(&cfg).unwrap();
        stop.store(1, Ordering::Relaxed);
        server.join().unwrap();
        assert_eq!(summary.requests, 6);
        assert_eq!(summary.transport_errors, 6, "{summary:?}");
        assert_eq!(summary.ok, 0);
    }
}
