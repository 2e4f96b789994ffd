//! End-to-end test of the sampling profiler: `wb profile` captures a live
//! `wb serve` under concurrent load, the on-CPU collapsed stacks attribute
//! the majority of samples to the model stage (`serve.batch` plus the
//! `brief.*` pipeline spans), and `wb flame` renders a wall-clock capture
//! of the same workload into a well-formed flamegraph SVG.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn wb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wb"))
}

/// Trains one tiny checkpoint shared by the tests in this binary (its own
/// file so parallel test binaries never race on the same path).
fn model_path() -> &'static PathBuf {
    static MODEL: OnceLock<PathBuf> = OnceLock::new();
    MODEL.get_or_init(|| {
        let path = std::env::temp_dir().join("wb_profile_test_model.json");
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
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(extra_args: &[&str]) -> ServerProc {
    let mut child = wb()
        .args(["serve", "--model", model_path().to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn wb serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    reader.read_line(&mut first).expect("read banner");
    let addr: SocketAddr = first
        .rsplit_once("http://")
        .map(|(_, a)| a.trim().parse().expect("bound address"))
        .unwrap_or_else(|| panic!("unexpected banner: {first}"));
    ServerProc { child, addr, _stdout: reader }
}

/// Posts one page and drains the response; load generation tolerates
/// shed (503) and timed-out requests — only the traffic matters here.
fn post_page(addr: SocketAddr, html: &str) {
    let Ok(mut s) = TcpStream::connect(addr) else { return };
    let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
    // `Connection: close` makes the keep-alive server end the response
    // with EOF, so the read_to_end below returns promptly.
    let raw = format!(
        "POST /brief HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{html}",
        html.len()
    );
    let _ = s.write_all(raw.as_bytes());
    let mut sink = Vec::new();
    let _ = s.read_to_end(&mut sink);
}

/// A mid-size page distinct per (thread, iteration), so neither the
/// response cache nor in-batch coalescing can absorb the load.
fn distinct_page(thread: usize, iter: usize) -> String {
    let mut body = String::from("<html><body><section>");
    for k in 0..12 {
        body.push_str(&format!(
            "<p>great velcro books {thread} {iter} {k} , price : $ 9.99 . \
             sturdy fastener straps hold the cover shut .</p>"
        ));
    }
    body.push_str("</section></body></html>");
    body
}

#[test]
fn profile_attributes_model_time_and_flame_renders_it() {
    // The event loop starts each capture and a short-lived thread of its
    // own waits it out, so the loop keeps serving briefs meanwhile.
    let server =
        spawn_server(&["--workers", "2", "--handler-delay-ms", "50", "--cache-capacity", "0"]);
    let stop = Arc::new(AtomicBool::new(false));
    let loaders: Vec<_> = (0..4)
        .map(|t| {
            let stop = Arc::clone(&stop);
            let addr = server.addr;
            std::thread::spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    post_page(addr, &distinct_page(t, i));
                    i += 1;
                }
            })
        })
        .collect();
    // Let the queue and batch executor reach a steady state first.
    std::thread::sleep(Duration::from_millis(300));

    let wall_path = std::env::temp_dir().join("wb_profile_test_wall.collapsed");
    let cpu_path = std::env::temp_dir().join("wb_profile_test_cpu.collapsed");
    let svg_path = std::env::temp_dir().join("wb_profile_test.svg");
    for p in [&wall_path, &cpu_path, &svg_path] {
        let _ = std::fs::remove_file(p);
    }
    // Wall-clock capture: every live thread is sampled each tick, so the
    // event loop, inside `serve.io` for the whole capture, must be visible.
    let wall_out = wb()
        .args([
            "profile",
            &server.addr.to_string(),
            "--seconds",
            "2",
            "--out",
            wall_path.to_str().unwrap(),
        ])
        .output()
        .expect("run wb profile (wall)");
    // On-CPU capture: the handler-delay stall and the idle event loop burn
    // no CPU, so compute time lands squarely on the model stage. (In wall
    // mode the event loop, always inside `serve.io`, ties 1:1 against the
    // batch executor for the whole batch, which makes a majority
    // assertion a coin flip; on-CPU charges go to the span that burned
    // them.)
    let cpu_out = wb()
        .args([
            "profile",
            &server.addr.to_string(),
            "--seconds",
            "2",
            "--mode",
            "cpu",
            "--out",
            cpu_path.to_str().unwrap(),
        ])
        .output()
        .expect("run wb profile (cpu)");
    stop.store(true, Ordering::Relaxed);
    for h in loaders {
        h.join().expect("load thread");
    }
    for (label, out) in [("wall", &wall_out), ("cpu", &cpu_out)] {
        assert!(
            out.status.success(),
            "wb profile ({label}) failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // The model stage — the batch executor's `serve.batch` span plus the
    // `brief.*` pipeline spans — must hold the majority of on-CPU time
    // (weights are CPU microseconds).
    let cpu_collapsed = std::fs::read_to_string(&cpu_path).expect("cpu collapsed output");
    let mut total = 0u64;
    let mut model = 0u64;
    for line in cpu_collapsed.lines().filter(|l| !l.trim().is_empty()) {
        let (stack, weight) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("malformed line: {line:?}"));
        let weight: u64 = weight.parse().unwrap_or_else(|_| panic!("bad weight in {line:?}"));
        total += weight;
        if stack.contains("serve.batch") || stack.contains("brief.") {
            model += weight;
        }
    }
    // At least 200 ms of CPU in the capture (20 of the kernel's 10 ms ticks).
    assert!(total >= 200_000, "cpu capture too sparse ({total} µs):\n{cpu_collapsed}");
    assert!(
        model * 2 > total,
        "model/brief spans hold only {model} of {total} cpu µs:\n{cpu_collapsed}"
    );

    // The wall capture sees the event loop inside `serve.io` (the capture
    // thread opens no span, so it never shows).
    let wall_collapsed = std::fs::read_to_string(&wall_path).expect("wall collapsed output");
    assert!(wall_collapsed.contains("serve.io"), "event-loop span missing:\n{wall_collapsed}");
    assert!(wall_collapsed.contains("serve.batch"), "executor span missing:\n{wall_collapsed}");

    // The wall capture renders into a standalone, well-formed SVG.
    let out = wb()
        .args([
            "flame",
            wall_path.to_str().unwrap(),
            "--out",
            svg_path.to_str().unwrap(),
            "--title",
            "profile acceptance",
        ])
        .output()
        .expect("run wb flame");
    assert!(out.status.success(), "wb flame failed: {}", String::from_utf8_lossy(&out.stderr));
    let svg = std::fs::read_to_string(&svg_path).expect("svg output");
    assert!(svg.starts_with("<?xml"), "missing XML header:\n{}", &svg[..svg.len().min(200)]);
    assert!(svg.trim_end().ends_with("</svg>"), "unterminated SVG");
    let opens = svg.matches("<g>").count();
    let closes = svg.matches("</g>").count();
    let rects = svg.matches("<rect").count();
    assert_eq!(opens, closes, "unbalanced <g> groups");
    // One rect per frame group plus the full-canvas background.
    assert_eq!(opens + 1, rects, "each group carries exactly one rect");
    assert!(opens >= 2, "flamegraph has no frames");
    assert!(svg.contains("profile acceptance"), "title missing");
    assert!(svg.contains("serve.batch") || svg.contains("brief."), "model frames missing");
}

#[test]
fn profile_cli_rejects_bad_arguments() {
    for (args, needle) in [
        (vec!["profile"], "exactly one server address"),
        (vec!["profile", "127.0.0.1:1", "--seconds", "0"], "--seconds"),
        (vec!["profile", "127.0.0.1:1", "--seconds", "61"], "--seconds"),
        (vec!["profile", "127.0.0.1:1", "--hz", "0"], "--hz"),
        (vec!["profile", "127.0.0.1:1", "--mode", "fast"], "--mode"),
        (vec!["profile", "127.0.0.1:1", "--format", "png"], "--format"),
        (vec!["flame"], "exactly one collapsed-stack file"),
    ] {
        let out = wb().args(&args).output().expect("run wb");
        assert!(!out.status.success(), "{args:?} unexpectedly succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?} stderr missing {needle:?}:\n{stderr}");
    }
}

#[test]
fn flame_renders_a_handwritten_collapsed_file() {
    let dir = std::env::temp_dir();
    let input = dir.join("wb_profile_test_hand.collapsed");
    std::fs::write(&input, "serve.request 10\nserve.request;serve.batch 30\nbrief.page 5\n")
        .expect("write collapsed");
    // Default output path swaps the .collapsed suffix for .svg.
    let default_svg = dir.join("wb_profile_test_hand.svg");
    let _ = std::fs::remove_file(&default_svg);
    let out = wb().args(["flame", input.to_str().unwrap()]).output().expect("run wb flame");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let svg = std::fs::read_to_string(&default_svg).expect("default svg path");
    assert!(svg.contains("serve.batch"), "frame labels missing");
    assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
}
