//! End-to-end tests of `wb serve`: each test spawns the real binary on an
//! ephemeral port and speaks HTTP/1.1 to it over raw sockets, so every
//! process has its own metrics registry and the assertions on `serve.*` /
//! `brief.*` counters are exact.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::Duration;

fn wb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wb"))
}

const PAGE: &str = "<html><body><section><p>great velcro books , price : $ 9.99 .\
                    </p></section></body></html>";

/// Trains one tiny checkpoint, shared by every test in this binary.
fn model_path() -> &'static PathBuf {
    static MODEL: OnceLock<PathBuf> = OnceLock::new();
    MODEL.get_or_init(|| {
        let path = std::env::temp_dir().join("wb_serve_test_model.json");
        let _ = std::fs::remove_file(&path);
        let out = wb()
            .args([
                "train",
                "--out",
                path.to_str().unwrap(),
                "--epochs",
                "1",
                "--subjects",
                "1",
                "--pages",
                "2",
            ])
            .output()
            .expect("run wb train");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        path
    })
}

/// A running `wb serve` child; killed on drop so failed tests don't leak
/// listeners.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    // Keeps the stdout pipe open: dropping it would make the server's own
    // progress prints die with a broken pipe.
    _stdout: BufReader<std::process::ChildStdout>,
    // Present only for servers spawned with captured stderr (access-log
    // assertions); read after shutdown, when the pipe has hit EOF.
    stderr: Option<std::process::ChildStderr>,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `wb serve` on port 0 and reads the bound address off its stdout.
fn spawn_server(extra_args: &[&str]) -> ServerProc {
    spawn_server_env(extra_args, &[])
}

/// Like [`spawn_server`] with extra environment variables (used to arm
/// `WB_FAULTS` in the child only, keeping each chaos scenario
/// process-isolated and its fault pass-counters exact).
fn spawn_server_env(extra_args: &[&str], envs: &[(&str, &str)]) -> ServerProc {
    spawn_server_full(extra_args, envs, false)
}

/// Like [`spawn_server`] but with stderr captured, for tests that assert
/// on access-log lines. The pipe buffer holds the lines until the test
/// reads them after shutdown — fine for the handful a test produces.
fn spawn_server_capturing_stderr(extra_args: &[&str]) -> ServerProc {
    spawn_server_full(extra_args, &[], true)
}

fn spawn_server_full(
    extra_args: &[&str],
    envs: &[(&str, &str)],
    capture_stderr: bool,
) -> ServerProc {
    let mut cmd = wb();
    cmd.args(["serve", "--model", model_path().to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(if capture_stderr { Stdio::piped() } else { Stdio::null() });
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn wb serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let stderr = child.stderr.take();
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    reader.read_line(&mut first).expect("read banner");
    let addr: SocketAddr = first
        .rsplit_once("http://")
        .map(|(_, a)| a.trim().parse().expect("bound address"))
        .unwrap_or_else(|| panic!("unexpected banner: {first}"));
    ServerProc { child, addr, _stdout: reader, stderr }
}

/// One raw HTTP exchange; returns (status, headers, body). Reads the
/// response by its `Content-Length` frame rather than to EOF — the server
/// keeps connections alive, so EOF only comes after the idle timeout.
fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    exchange_on(&mut s, raw)
}

/// Like [`exchange`] on an already open connection, which stays open.
fn exchange_on(s: &mut TcpStream, raw: &[u8]) -> (u16, String, String) {
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let _ = s.write_all(raw);
    let _ = s.flush();
    let mut bytes = Vec::new();
    let mut buf = [0u8; 8192];
    let head_end = loop {
        if let Some(p) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        match s.read(&mut buf) {
            Ok(0) => {
                panic!("closed before response head: {:?}", String::from_utf8_lossy(&bytes))
            }
            Ok(n) => bytes.extend_from_slice(&buf[..n]),
            Err(e) => panic!("no response: {e}"),
        }
    };
    let head = String::from_utf8_lossy(&bytes[..head_end - 4]).into_owned();
    let content_length: usize = head
        .lines()
        .find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.eq_ignore_ascii_case("content-length").then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    while bytes.len() < head_end + content_length {
        match s.read(&mut buf) {
            Ok(0) => panic!("closed mid-body"),
            Ok(n) => bytes.extend_from_slice(&buf[..n]),
            Err(e) => panic!("read failed mid-body: {e}"),
        }
    }
    let body =
        String::from_utf8_lossy(&bytes[head_end..head_end + content_length]).into_owned();
    let status = head
        .split_ascii_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("no status line in {head:?}"))
        .parse()
        .expect("numeric status");
    (status, head, body)
}

fn post_brief(addr: SocketAddr, html: &str) -> (u16, String, String) {
    let raw = format!(
        "POST /brief HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{html}",
        html.len()
    );
    exchange(addr, raw.as_bytes())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    exchange(addr, format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
}

/// Posts /shutdown and waits for a clean exit.
fn shutdown(mut server: ServerProc) {
    let (status, _, _) = exchange(server.addr, b"POST /shutdown HTTP/1.1\r\n\r\n");
    assert_eq!(status, 200);
    let exit = server.child.wait().expect("server exit");
    assert!(exit.success(), "server exited with {exit:?}");
}

/// Reads a counter out of a metrics snapshot JSON value.
fn counter(v: &serde_json::Value, name: &str) -> f64 {
    v.get("counters").and_then(|c| c.get(name)).and_then(|x| x.as_f64()).unwrap_or(0.0)
}

/// Extracts one header's value from a raw response head.
fn header_value(head: &str, name: &str) -> String {
    head.lines()
        .find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.eq_ignore_ascii_case(name).then(|| v.trim().to_string())
        })
        .unwrap_or_else(|| panic!("missing header {name} in:\n{head}"))
}

/// The `dur` of one stage in a `Server-Timing` value, in milliseconds.
fn timing_ms(server_timing: &str, stage: &str) -> Option<f64> {
    server_timing.split(',').map(str::trim).find_map(|part| {
        let (name, dur) = part.split_once(";dur=")?;
        (name == stage).then(|| dur.parse().expect("numeric dur"))
    })
}

/// Walks a JSON path of object keys and returns the number at the end.
fn num_at(v: &serde_json::Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| panic!("missing {key} on the way to {path:?}"));
    }
    cur.as_f64().unwrap_or_else(|| panic!("{path:?} is not a number"))
}

#[test]
fn brief_is_byte_identical_to_cli_and_cache_skips_the_model() {
    let metrics_out = std::env::temp_dir().join("wb_serve_test_metrics.json");
    let trace_out = std::env::temp_dir().join("wb_serve_test_trace.json");
    let _ = std::fs::remove_file(&metrics_out);
    let _ = std::fs::remove_file(&trace_out);
    let server = spawn_server(&[
        "--metrics-out",
        metrics_out.to_str().unwrap(),
        "--trace-out",
        trace_out.to_str().unwrap(),
    ]);
    let addr = server.addr;

    let (status, _, health) = get(addr, "/healthz");
    assert_eq!((status, health.as_str()), (200, "{\"status\":\"ok\"}"));

    // The served brief must match `wb brief --json` byte-for-byte.
    let cli_json = cli_brief_json(PAGE, "wb_serve_test_page.html");
    let cli_json = cli_json.as_str();

    let (status, headers, body) = post_brief(addr, PAGE);
    assert_eq!(status, 200, "{body}");
    assert!(headers.contains("X-Cache: miss"), "{headers}");
    assert_eq!(body, cli_json, "server and CLI briefs must be byte-identical");

    // Same page again: served from cache, byte-identical, no model re-run.
    let (status, headers, body2) = post_brief(addr, PAGE);
    assert_eq!(status, 200);
    assert!(headers.contains("X-Cache: hit"), "{headers}");
    assert_eq!(body2, cli_json);

    let (status, _, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&metrics).expect("metrics JSON");
    assert_eq!(counter(&v, "brief.pages"), 1.0, "cache hit must not re-run the model");
    assert_eq!(counter(&v, "serve.cache.hit"), 1.0);
    assert_eq!(counter(&v, "serve.cache.miss"), 1.0);
    assert!(counter(&v, "serve.requests") >= 3.0);

    // Graceful shutdown flushes both observability outputs.
    shutdown(server);
    let flushed = std::fs::read_to_string(&metrics_out).expect("metrics flushed");
    for key in ["serve.requests", "serve.cache.hit", "serve.request.latency_us", "brief.pages"]
    {
        assert!(flushed.contains(&format!("\"{key}\"")), "flushed snapshot missing {key}");
    }
    let trace = std::fs::read_to_string(&trace_out).expect("trace flushed");
    assert!(trace.contains("\"traceEvents\""), "not a Chrome trace");
    assert!(trace.contains("serve.request"), "serve spans missing from trace");

    let _ = std::fs::remove_file(&metrics_out);
    let _ = std::fs::remove_file(&trace_out);

    // Concurrent distinct misses run side by side on separate executors
    // and still answer exactly what the CLI prints, at one pool thread
    // and at four. Every executor is a pool worker, so no matmul fans out.
    let pages: Vec<String> = (0..6).map(long_page).collect();
    let expected: Vec<String> = pages
        .iter()
        .enumerate()
        .map(|(i, page)| cli_brief_json(page, &format!("wb_serve_test_page_{i}.html")))
        .collect();
    for threads in [1usize, 4] {
        let server = spawn_server_env(
            &["--workers", "4", "--cache-capacity", "0"],
            &[("RAYON_NUM_THREADS", &threads.to_string())],
        );
        let addr = server.addr;
        let clients: Vec<_> = pages
            .iter()
            .cloned()
            .map(|page| std::thread::spawn(move || post_brief(addr, &page)))
            .collect();
        for (client, cli_json) in clients.into_iter().zip(&expected) {
            let (status, _, body) = client.join().expect("client thread");
            assert_eq!(status, 200, "{body}");
            assert_eq!(
                &body, cli_json,
                "served brief differs from the CLI at {threads} threads"
            );
        }
        let (_, _, metrics) = get(addr, "/metrics");
        let v: serde_json::Value = serde_json::from_str(&metrics).expect("metrics JSON");
        assert_eq!(num_at(&v, &["gauges", "serve.executors"]), threads as f64);
        assert_eq!(counter(&v, "tensor.matmul.dispatch.parallel"), 0.0);
        shutdown(server);
    }
}

/// `wb brief --json` of one page, written to `file_name` in the temp
/// directory: the bytes `/brief` must return for it.
fn cli_brief_json(page: &str, file_name: &str) -> String {
    let page_file = std::env::temp_dir().join(file_name);
    std::fs::write(&page_file, page).unwrap();
    let out = wb()
        .args([
            "brief",
            "--model",
            model_path().to_str().unwrap(),
            "--json",
            page_file.to_str().unwrap(),
        ])
        .output()
        .expect("run wb brief");
    let _ = std::fs::remove_file(&page_file);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout.split_once("===\n").map(|(_, rest)| rest).unwrap_or(&stdout).trim().to_string()
}

/// A page long enough that its attention matmuls cross the parallel
/// threshold, distinct per `i`.
fn long_page(i: usize) -> String {
    let mut body = String::from("<html><body><section>");
    for k in 0..12 {
        body.push_str(&format!(
            "<p>great velcro books {i} {k} , price : $ 9.99 . \
             sturdy fastener straps hold the cover shut .</p>"
        ));
    }
    body + "</section></body></html>"
}

/// 64 concurrent in-flight requests, every one accepted and answered with
/// the same bytes — first with the cache disabled (every request exercises
/// the batcher), then with it enabled.
#[test]
fn sustains_64_concurrent_requests_with_identical_briefs() {
    let pages: Vec<String> = (0..4)
        .map(|i| {
            format!(
                "<html><body><section><p>great velcro books {i} , price : $ {i}.99 .\
                 </p></section></body></html>"
            )
        })
        .collect();
    let mut reference: Vec<Option<String>> = vec![None; pages.len()];
    for cache_capacity in ["0", "64"] {
        let server = spawn_server(&[
            "--workers",
            "4",
            "--queue-capacity",
            "128",
            "--cache-capacity",
            cache_capacity,
        ]);
        let addr = server.addr;
        let threads: Vec<_> = (0..64)
            .map(|i| {
                let page = pages[i % pages.len()].clone();
                std::thread::spawn(move || (i % 4, post_brief(addr, &page)))
            })
            .collect();
        for t in threads {
            let (page_idx, (status, _, body)) = t.join().expect("request thread");
            assert_eq!(status, 200, "dropped or failed request: {body}");
            match &reference[page_idx] {
                None => reference[page_idx] = Some(body),
                Some(expected) => assert_eq!(
                    &body, expected,
                    "briefs must be byte-identical across concurrency and cache settings"
                ),
            }
        }
        let (status, _, metrics) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let v: serde_json::Value = serde_json::from_str(&metrics).expect("metrics JSON");
        assert_eq!(counter(&v, "serve.rejected.queue_full"), 0.0, "no request may be shed");
        // The snapshot is taken before its own /metrics response is counted.
        assert_eq!(counter(&v, "serve.responses.2xx"), 64.0);
        if cache_capacity == "64" {
            // Every /brief either hit or missed the cache — none bypassed it.
            let touched = counter(&v, "serve.cache.hit") + counter(&v, "serve.cache.miss");
            assert_eq!(touched, 64.0);
        }
        shutdown(server);
    }
}

#[test]
fn overload_sheds_503_with_retry_after_and_recovers() {
    let server = spawn_server(&[
        "--workers",
        "1",
        "--queue-capacity",
        "1",
        "--handler-delay-ms",
        "400",
        "--request-timeout-ms",
        "15000",
    ]);
    let addr = server.addr;
    let threads: Vec<_> =
        (0..8).map(|_| std::thread::spawn(move || post_brief(addr, PAGE))).collect();
    let results: Vec<(u16, String, String)> =
        threads.into_iter().map(|t| t.join().expect("request thread")).collect();
    let ok = results.iter().filter(|(s, _, _)| *s == 200).count();
    let shed: Vec<_> = results.iter().filter(|(s, _, _)| *s == 503).collect();
    assert_eq!(ok + shed.len(), 8, "every request must get an answer: {results:?}");
    assert!(ok >= 1, "some requests must be served");
    assert!(!shed.is_empty(), "1 worker + queue of 1 must shed under an 8-deep burst");
    for (_, headers, _) in &shed {
        assert!(headers.contains("Retry-After: 1"), "{headers}");
    }
    // Shedding is load protection, not a crash: the server still serves.
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    shutdown(server);
}

#[test]
fn rejects_bad_requests_without_dying() {
    let server = spawn_server(&["--max-body-bytes", "512", "--request-timeout-ms", "1000"]);
    let addr = server.addr;

    // Oversized body → 413 from the Content-Length header alone.
    let big = "x".repeat(8192);
    let (status, _, body) = post_brief(addr, &big);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("512"), "{body}");

    // Garbage request line → 400.
    let (status, _, _) = exchange(addr, b"NONSENSE\r\n\r\n");
    assert_eq!(status, 400);

    // Wrong method → 405 with Allow.
    let (status, headers, _) = get(addr, "/brief");
    assert_eq!(status, 405);
    assert!(headers.contains("Allow: POST"), "{headers}");

    // Unknown route → 404.
    let (status, _, _) = get(addr, "/nope");
    assert_eq!(status, 404);

    // Unparseable page → 422, not 500.
    let (status, _, body) = post_brief(addr, "<html><head><title>x</title></head></html>");
    assert_eq!(status, 422, "{body}");

    // A stalled client is timed out with 408 rather than holding a worker.
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.write_all(b"POST /brief HTTP/1.1\r\nContent-").unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut text = String::new();
    let mut buf = [0u8; 1024];
    loop {
        match slow.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => text.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(_) if !text.is_empty() => break,
            Err(e) => panic!("stalled client got no response: {e}"),
        }
    }
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");

    // After all that abuse, a normal request still works.
    let (status, _, _) = post_brief(addr, PAGE);
    assert_eq!(status, 200);
    shutdown(server);
}

/// The full circuit-breaker arc, driven by one deterministically injected
/// model panic: trip → cache-only degradation with 503 + Retry-After →
/// cooldown → successful probe → closed again, with the whole sequence
/// visible in `serve.breaker.*` metrics.
#[test]
fn breaker_trips_degrades_to_cache_only_and_recovers() {
    let page_b = "<html><body><section><p>other fuzzy jackets , price : $ 5.25 .\
                  </p></section></body></html>";
    // Model batches run: PAGE (pass 1, fine), page_b (pass 2, injected
    // panic), page_b probe (pass 3, fine). Cache hits never reach the
    // fault point, so the pass numbering is exact.
    let server = spawn_server_env(
        &["--breaker-threshold", "1", "--breaker-cooldown-ms", "1500"],
        &[("WB_FAULTS", "serve.worker.pre_model=panic@nth(2)")],
    );
    let addr = server.addr;

    // Prime the cache while the model is healthy.
    let (status, _, _) = post_brief(addr, PAGE);
    assert_eq!(status, 200);

    // The injected panic fails this request and trips the breaker.
    let (status, _, body) = post_brief(addr, page_b);
    assert_eq!(status, 500, "{body}");

    // Degraded mode: cached pages still served…
    let (status, headers, _) = post_brief(addr, PAGE);
    assert_eq!(status, 200);
    assert!(headers.contains("X-Cache: hit"), "{headers}");
    // …while model-path requests are turned away with Retry-After.
    let (status, headers, body) = post_brief(addr, page_b);
    assert_eq!(status, 503, "{body}");
    assert!(headers.contains("Retry-After:"), "{headers}");
    assert!(body.contains("cached pages are still served"), "{body}");

    // After the cooldown a probe is admitted; the fault does not fire
    // again, so the probe succeeds and the circuit closes.
    std::thread::sleep(Duration::from_millis(1700));
    let (status, _, body) = post_brief(addr, page_b);
    assert_eq!(status, 200, "probe request must be served: {body}");
    let (status, _, _) = post_brief(addr, page_b);
    assert_eq!(status, 200, "the circuit must be closed again");

    let (status, _, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&metrics).expect("metrics JSON");
    assert_eq!(counter(&v, "serve.breaker.opened"), 1.0, "{metrics}");
    assert_eq!(counter(&v, "serve.breaker.closed"), 1.0, "{metrics}");
    assert!(counter(&v, "serve.breaker.rejected") >= 1.0, "{metrics}");
    assert_eq!(counter(&v, "serve.batch.panics"), 1.0, "{metrics}");
    assert_eq!(counter(&v, "chaos.fired"), 1.0, "{metrics}");
    shutdown(server);
}

/// SIGTERM gets the same graceful treatment as POST /shutdown: drain,
/// flush the observability outputs, exit 0.
#[test]
#[cfg(unix)]
fn sigterm_drains_and_flushes_like_post_shutdown() {
    let metrics_out = std::env::temp_dir().join("wb_serve_test_sigterm_metrics.json");
    let _ = std::fs::remove_file(&metrics_out);
    let mut server = spawn_server(&["--metrics-out", metrics_out.to_str().unwrap()]);
    let (status, _, _) = post_brief(server.addr, PAGE);
    assert_eq!(status, 200);

    let kill = Command::new("kill")
        .args(["-TERM", &server.child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success());
    let exit = server.child.wait().expect("server exit");
    assert!(exit.success(), "SIGTERM must be a graceful exit, got {exit:?}");
    let mut rest = String::new();
    server._stdout.read_to_string(&mut rest).expect("read server stdout");
    assert!(rest.contains("shutdown signal received"), "{rest}");

    let flushed = std::fs::read_to_string(&metrics_out).expect("metrics flushed on SIGTERM");
    assert!(flushed.contains("\"serve.requests\""), "{flushed}");
    let _ = std::fs::remove_file(&metrics_out);
}

/// A brief that outlives `--request-timeout-ms` is answered 503 with
/// Retry-After and its connection closed. The executor's late result then
/// has no request to answer: a fresh connection, which may reuse the
/// closed one's slot, gets only its own responses.
#[test]
fn request_timeout_is_503_and_the_late_brief_lands_nowhere() {
    let server = spawn_server(&[
        "--request-timeout-ms",
        "200",
        "--handler-delay-ms",
        "600",
        "--cache-capacity",
        "0",
    ]);
    let addr = server.addr;
    let (status, headers, body) = post_brief(addr, PAGE);
    assert_eq!(status, 503, "{body}");
    assert!(headers.contains("Retry-After: 1"), "{headers}");
    assert!(headers.contains("Connection: close"), "{headers}");
    assert!(body.contains("did not finish within the request timeout"), "{body}");

    let healthz = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    let mut fresh = TcpStream::connect(addr).expect("connect");
    let (status, _, body) = exchange_on(&mut fresh, healthz);
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));
    // Wait until the executor has answered the timed-out job (its
    // deadline, the request timeout, passed during the stall), then ask
    // again on the same connection: the answer is still its own.
    let metrics = || -> serde_json::Value {
        serde_json::from_str(&get(addr, "/metrics").2).expect("metrics JSON")
    };
    let t0 = std::time::Instant::now();
    while counter(&metrics(), "serve.deadline.expired") < 1.0 {
        assert!(t0.elapsed() < Duration::from_secs(10), "the executor never took the job");
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(50));
    let (status, _, body) = exchange_on(&mut fresh, healthz);
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));

    let v = metrics();
    assert_eq!(counter(&v, "serve.rejected.timeout"), 1.0);
    assert_eq!(counter(&v, "serve.responses.5xx"), 1.0);
    shutdown(server);
}

/// A slow-loris client trickling bytes forever is cut off with 408 once
/// the total header-read deadline passes — each byte arrives fast enough
/// that a per-read timeout alone would never fire.
#[test]
fn slow_loris_is_408_within_the_request_timeout() {
    let server = spawn_server(&["--request-timeout-ms", "500"]);
    let stream = TcpStream::connect(server.addr).unwrap();
    let dripper = {
        let mut writer = stream.try_clone().unwrap();
        std::thread::spawn(move || {
            for b in b"GET /healthz HTTP/1.1\r\nX-Slowly: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa" {
                if writer.write_all(&[*b]).is_err() {
                    break; // server gave up on us, as it should
                }
                std::thread::sleep(Duration::from_millis(40));
            }
        })
    };
    let start = std::time::Instant::now();
    let mut reader = stream;
    reader.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut text = String::new();
    let mut buf = [0u8; 1024];
    loop {
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => text.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(_) if !text.is_empty() => break,
            Err(e) => panic!("slow-loris client got no response: {e}"),
        }
    }
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "408 must arrive near the 500ms deadline, took {:?}",
        start.elapsed()
    );
    dripper.join().unwrap();
    // The server is unharmed and still serving.
    let (status, _, _) = get(server.addr, "/healthz");
    assert_eq!(status, 200);
    shutdown(server);
}

/// The acceptance test for request-scoped telemetry: with a known model
/// stall (`--handler-delay-ms`), the Server-Timing header, the access
/// log and the windowed `/varz` view must all attribute that latency to
/// the *model* stage — not to queue wait, parse or write.
#[test]
fn stage_timings_attribute_handler_delay_to_the_model() {
    let delay_ms = 150.0;
    let mut server = spawn_server_capturing_stderr(&[
        "--handler-delay-ms",
        "150",
        "--cache-capacity",
        "0", // every request exercises the full model path
        "--access-log-sample",
        "1",
        "--slow-request-ms",
        "50", // well under the handler delay: every brief logs as slow
        "--log-level",
        "warn",
    ]);
    let addr = server.addr;

    let raw = format!(
        "POST /brief HTTP/1.1\r\nHost: t\r\nX-Request-Id: stage-test-1\r\n\
         Content-Length: {}\r\n\r\n{PAGE}",
        PAGE.len()
    );
    let (status, headers, body) = exchange(addr, raw.as_bytes());
    assert_eq!(status, 200, "{body}");
    assert_eq!(header_value(&headers, "X-Request-Id"), "stage-test-1");
    let st = header_value(&headers, "Server-Timing");
    let model_ms = timing_ms(&st, "model")
        .unwrap_or_else(|| panic!("no model stage in Server-Timing: {st}"));
    assert!(model_ms >= delay_ms, "model stage must absorb the handler delay: {st}");
    for stage in ["queue_wait", "parse", "cache", "serialize"] {
        if let Some(ms) = timing_ms(&st, stage) {
            assert!(ms < delay_ms, "{stage} must not absorb the handler delay: {st}");
        }
    }

    // The windowed live view reflects the same attribution: both the
    // end-to-end p99 and the model-stage p99 sit at or above the delay
    // (quantiles are bucket upper bounds, so >= holds exactly).
    let (status, _, varz) = get(addr, "/varz");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&varz).expect("varz JSON");
    let delay_us = delay_ms * 1e3;
    assert!(
        num_at(&v, &["windows", "10s", "latency_us", "p99"]) >= delay_us,
        "windowed p99 must reflect the delay: {varz}"
    );
    assert!(
        num_at(&v, &["windows", "10s", "stages_us", "model", "p99"]) >= delay_us,
        "windowed model-stage p99 must reflect the delay: {varz}"
    );
    assert!(
        num_at(&v, &["windows", "10s", "stages_us", "queue_wait", "p99"]) < delay_us,
        "queue_wait must stay small: {varz}"
    );

    // `wb top --once` renders one frame off that same /varz document.
    let out =
        wb().args(["top", &addr.to_string(), "--once"]).output().expect("run wb top --once");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let frame = String::from_utf8_lossy(&out.stdout);
    for needle in ["wb top", "breaker closed", "model", "queue depth"] {
        assert!(frame.contains(needle), "missing `{needle}` in frame:\n{frame}");
    }

    // The slow-request log line (always emitted above --slow-request-ms)
    // carries the request id and the model_us attribution.
    let mut stderr = server.stderr.take().expect("captured stderr");
    shutdown(server);
    let mut log = String::new();
    stderr.read_to_string(&mut log).expect("read server stderr");
    let slow_line = log
        .lines()
        .find(|l| l.contains("slow request:") && l.contains("stage-test-1"))
        .unwrap_or_else(|| panic!("no slow-request line for stage-test-1 in:\n{log}"));
    let json_start = slow_line.find('{').expect("JSON object in slow-request line");
    let v: serde_json::Value =
        serde_json::from_str(&slow_line[json_start..]).expect("slow-request line is JSON");
    assert_eq!(v.get("id").and_then(|x| x.as_str()), Some("stage-test-1"));
    assert_eq!(v.get("cache").and_then(|x| x.as_str()), Some("miss"));
    assert!(
        num_at(&v, &["stages", "model_us"]) >= delay_us,
        "access log must attribute the delay to the model: {slow_line}"
    );
    assert!(num_at(&v, &["total_us"]) >= delay_us);
}

/// 64 concurrent connections against a traced server: the exported
/// Chrome trace must remain one valid JSON document with accurate drop
/// accounting — at this volume nothing overflows the per-thread rings,
/// so `overwritten_events` must be exactly zero and every request's span
/// must be present.
#[test]
fn trace_export_stays_valid_under_concurrent_load() {
    let trace_out = std::env::temp_dir().join("wb_serve_test_hammer_trace.json");
    let _ = std::fs::remove_file(&trace_out);
    let server = spawn_server(&[
        "--trace-out",
        trace_out.to_str().unwrap(),
        "--workers",
        "4",
        "--queue-capacity",
        "256",
    ]);
    let addr = server.addr;
    let threads: Vec<_> = (0..64)
        .map(|i| {
            std::thread::spawn(move || {
                let page = format!(
                    "<html><body><section><p>great velcro books {} , price : $ 1.99 .\
                     </p></section></body></html>",
                    i % 4
                );
                (0..4).map(|_| post_brief(addr, &page).0).collect::<Vec<u16>>()
            })
        })
        .collect();
    let mut served = 0u64;
    for t in threads {
        for status in t.join().expect("request thread") {
            assert_eq!(status, 200, "hammer request failed");
            served += 1;
        }
    }
    assert_eq!(served, 256);
    shutdown(server);

    let text = std::fs::read_to_string(&trace_out).expect("trace flushed");
    let v: serde_json::Value =
        serde_json::from_str(&text).expect("hammered trace is still valid JSON");
    let events = v.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
    let request_spans = events
        .iter()
        .filter(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("serve.request")
                && e.get("ph").and_then(|p| p.as_str()) == Some("X")
        })
        .count();
    assert!(
        request_spans >= 256,
        "every request's span must be in the trace, got {request_spans}"
    );
    assert_eq!(
        num_at(&v, &["otherData", "overwritten_events"]),
        0.0,
        "at 256 requests nothing may be reported dropped"
    );
    let _ = std::fs::remove_file(&trace_out);
}

/// `wb report --diff` on two flushed snapshots of the same server prints
/// deltas and per-second rates for what happened in between.
#[test]
fn report_diff_shows_deltas_between_snapshots() {
    let dir = std::env::temp_dir();
    let (a_path, b_path) =
        (dir.join("wb_serve_test_diff_a.json"), dir.join("wb_serve_test_diff_b.json"));
    for (path, extra_requests) in [(&a_path, 0), (&b_path, 3)] {
        let _ = std::fs::remove_file(path);
        let server = spawn_server(&["--metrics-out", path.to_str().unwrap()]);
        let (status, _, _) = post_brief(server.addr, PAGE);
        assert_eq!(status, 200);
        for _ in 0..extra_requests {
            let (status, _, _) = post_brief(server.addr, PAGE);
            assert_eq!(status, 200);
        }
        shutdown(server);
    }
    let out = wb()
        .args(["report", "--diff", a_path.to_str().unwrap(), b_path.to_str().unwrap()])
        .output()
        .expect("run wb report --diff");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    // Separate processes, so the diff is simply B minus A: one baseline
    // request vs four.
    assert!(text.contains("serve.requests"), "{text}");
    assert!(text.contains("+3"), "3 extra requests must show as a +3 delta:\n{text}");
    let _ = std::fs::remove_file(&a_path);
    let _ = std::fs::remove_file(&b_path);
}

/// `wb loadgen --compare` against a real server: every request answered,
/// zero framing errors, connections actually reused in keep-alive mode,
/// and the `--out` report carries both modes plus the speedup — the CI
/// smoke contract.
#[test]
fn loadgen_end_to_end_compares_modes_and_writes_report() {
    let report_path = std::env::temp_dir().join("wb_serve_test_loadgen_report.json");
    let _ = std::fs::remove_file(&report_path);
    // Exercise the new serving knobs at the same time: two replicas, a
    // per-connection request budget well above the run, bounded conns.
    let server = spawn_server(&[
        "--replicas",
        "2",
        "--max-conns",
        "64",
        "--max-requests-per-conn",
        "10000",
        "--idle-timeout-ms",
        "30000",
    ]);
    let out = wb()
        .args([
            "loadgen",
            &server.addr.to_string(),
            "--requests",
            "60",
            "--concurrency",
            "4",
            "--pages",
            "4",
            "--compare",
            "--out",
            report_path.to_str().unwrap(),
        ])
        .output()
        .expect("run wb loadgen");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("keep-alive speedup:"), "{text}");

    let report: serde_json::Value = serde_json::from_str(
        &std::fs::read_to_string(&report_path).expect("loadgen report written"),
    )
    .expect("report is JSON");
    let metric = |workload: &str, name: &str| -> f64 {
        report
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("metrics"))
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("missing {workload}/{name} in {report:?}"))
    };
    for workload in ["serve_keepalive", "serve_close"] {
        assert_eq!(metric(workload, "framing_errors"), 0.0, "{workload}");
        assert_eq!(metric(workload, "transport_errors"), 0.0, "{workload}");
        assert_eq!(metric(workload, "answered"), 60.0, "{workload}");
    }
    // Keep-alive mode must actually reuse connections; close mode cannot.
    assert!(metric("serve_keepalive", "reuse_fraction") > 0.5);
    assert_eq!(metric("serve_close", "reuse_fraction"), 0.0);
    assert!(metric("serve_compare", "keepalive_speedup") > 0.0);

    // The server saw the reuse too: its own counters distinguish accepted
    // connections from requests served on an already-open one.
    let (status, _, metrics) = get(server.addr, "/metrics");
    assert_eq!(status, 200);
    let v: serde_json::Value = serde_json::from_str(&metrics).expect("metrics JSON");
    assert!(counter(&v, "serve.conn.reused") > 0.0, "{metrics}");
    assert_eq!(counter(&v, "serve.conn.framing_errors"), 0.0, "{metrics}");
    shutdown(server);
    let _ = std::fs::remove_file(&report_path);
}

/// A keep-alive run is measurably faster than connect-per-request at the
/// same concurrency: the acceptance bar for the event-loop serving path.
/// (The committed BENCH_serve.json records the same comparison at larger
/// scale; this guards the direction, not the magnitude.) Each mode sends
/// 10,000 cache hits, a few hundred milliseconds of load on a 2-vCPU
/// host, so a scheduling hiccup cannot decide the comparison the way it
/// could over a few milliseconds.
#[test]
fn loadgen_keepalive_beats_connection_close() {
    let server = spawn_server(&[]);
    let out = wb()
        .args([
            "loadgen",
            &server.addr.to_string(),
            "--requests",
            "10000",
            "--concurrency",
            "4",
            "--pages",
            "2",
            "--compare",
        ])
        .output()
        .expect("run wb loadgen");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let speedup: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("keep-alive speedup: "))
        .and_then(|rest| rest.split('x').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no speedup line in:\n{text}"));
    assert!(
        speedup > 1.0,
        "keep-alive must beat connect-per-request at equal concurrency, got {speedup}x:\n{text}"
    );
    shutdown(server);
}
