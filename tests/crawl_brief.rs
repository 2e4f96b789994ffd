//! End-to-end tests of `wb crawl-brief`: each scenario runs the real
//! binary on a real on-disk site (from `wb generate --site`), so crashes
//! are real process deaths, resume reads real files, and the bounded-
//! memory assertions read the gauges each process actually recorded.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn wb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wb"))
}

/// Trains one tiny checkpoint, shared by every test in this binary.
fn model_path() -> &'static PathBuf {
    static MODEL: OnceLock<PathBuf> = OnceLock::new();
    MODEL.get_or_init(|| {
        let path = std::env::temp_dir().join("wb_crawl_brief_test_model.json");
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

/// A fresh scratch directory under the system temp dir.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Exports a site with `wb generate --site` and returns its directory.
fn generate_site(dir: &Path, scenario: &str, pages: usize, seed: u64) -> PathBuf {
    let site = dir.join("site");
    let out = wb()
        .args([
            "generate",
            "--site",
            site.to_str().unwrap(),
            "--scenario",
            scenario,
            "--site-pages",
            &pages.to_string(),
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .expect("run wb generate --site");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    site
}

/// Builds the `wb crawl-brief` argument vector for one run.
fn crawl_args(site: &Path, out: &Path, extra: &[&str]) -> Vec<String> {
    let mut args: Vec<String> = [
        "crawl-brief",
        "--site",
        site.to_str().unwrap(),
        "--model",
        model_path().to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

fn read_lines(path: &Path) -> Vec<String> {
    match std::fs::read_to_string(path) {
        Ok(text) => text.lines().map(str::to_string).collect(),
        Err(_) => Vec::new(),
    }
}

#[test]
fn killed_run_resumes_to_byte_identical_output() {
    let dir = fresh_dir("wb_cb_kill_resume");
    let site = generate_site(&dir, "clean", 16, 21);

    // Reference: one uninterrupted run.
    let ref_out = dir.join("ref.jsonl");
    let out = wb().args(crawl_args(&site, &ref_out, &[])).output().expect("reference run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let reference = std::fs::read(&ref_out).expect("reference briefs");
    assert!(!reference.is_empty(), "reference run must brief pages");

    // Same run, but an injected panic at the sink's write fault point
    // kills the process after a handful of pages are durable.
    let killed_out = dir.join("killed.jsonl");
    let out = wb()
        .args(crawl_args(&site, &killed_out, &[]))
        .env("WB_FAULTS", "pipeline.sink.write=panic@nth(5)")
        .output()
        .expect("killed run");
    assert!(!out.status.success(), "the injected panic must kill the run");
    let partial = std::fs::read(&killed_out).unwrap_or_default();
    assert!(
        partial.len() < reference.len(),
        "the killed run must die with partial output ({} vs {} bytes)",
        partial.len(),
        reference.len()
    );

    // --resume replays the journalled prefix and continues: the final
    // output must equal the uninterrupted run byte for byte.
    let out =
        wb().args(crawl_args(&site, &killed_out, &["--resume"])).output().expect("resumed run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.contains("replayed from the journal"),
        "resume must report replays: {stdout}"
    );
    let resumed = std::fs::read(&killed_out).expect("resumed briefs");
    assert_eq!(resumed, reference, "resumed output must be byte-identical");

    // Resuming the already-complete run is a no-op on the output.
    let out = wb()
        .args(crawl_args(&site, &killed_out, &["--resume"]))
        .output()
        .expect("second resume");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let again = std::fs::read(&killed_out).expect("briefs after no-op resume");
    assert_eq!(again, reference, "a complete run must resume to itself");
}

#[test]
fn hostile_pages_are_quarantined_and_the_run_exits_zero() {
    let dir = fresh_dir("wb_cb_quarantine");
    let site = generate_site(&dir, "malformed", 24, 11);

    let out_path = dir.join("briefs.jsonl");
    let out = wb().args(crawl_args(&site, &out_path, &[])).output().expect("run crawl-brief");
    // Hostile pages are quarantined, not fatal: the run still exits 0.
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let dead = read_lines(&dir.join("briefs.dead.jsonl"));
    let briefed = read_lines(&out_path);
    assert!(!dead.is_empty(), "a malformed site must quarantine at least one page");
    assert!(briefed.len() >= dead.len(), "most pages still brief");
    for line in &dead {
        assert!(line.contains("\"reason\""), "dead-letter lines carry a reason: {line}");
    }
    // Every sequenced page landed in exactly one of the two files.
    let journal = read_lines(&dir.join("briefs.journal"));
    assert_eq!(journal.len(), briefed.len() + dead.len());
}

#[test]
fn error_budget_aborts_nonzero_and_stays_resumable() {
    let dir = fresh_dir("wb_cb_budget");
    let site = generate_site(&dir, "malformed", 24, 11);

    // A 1% budget cannot absorb the malformed pages: clean abort, exit 1.
    let out_path = dir.join("briefs.jsonl");
    let out = wb()
        .args(crawl_args(&site, &out_path, &["--error-budget", "1"]))
        .output()
        .expect("budget run");
    assert_eq!(out.status.code(), Some(1), "budget abort is a diagnosed failure (exit 1)");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("error budget exceeded"), "stderr: {stderr}");
    assert!(stderr.contains("--resume"), "the abort must say the run is resumable");

    // Resuming with the budget lifted finishes the site.
    let out =
        wb().args(crawl_args(&site, &out_path, &["--resume"])).output().expect("resumed run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let briefed = read_lines(&out_path);
    let dead = read_lines(&dir.join("briefs.dead.jsonl"));
    assert!(!briefed.is_empty() && !dead.is_empty());
}

/// Runs crawl-brief over a clean site of `pages` pages and returns the
/// metrics snapshot the process wrote on exit.
fn run_and_snapshot(name: &str, pages: usize) -> wb_obs::metrics::Snapshot {
    let dir = fresh_dir(name);
    let site = generate_site(&dir, "clean", pages, 9);
    let metrics = dir.join("metrics.json");
    let out = wb()
        .args(crawl_args(
            &site,
            &dir.join("briefs.jsonl"),
            &["--queue", "4", "--metrics-out", metrics.to_str().unwrap()],
        ))
        .output()
        .expect("run crawl-brief");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&metrics).expect("metrics snapshot");
    wb_obs::metrics::Snapshot::from_json(&text).expect("parse metrics snapshot")
}

#[test]
fn memory_stays_bounded_as_the_site_grows_tenfold() {
    let small = run_and_snapshot("wb_cb_mem_small", 12);
    let large = run_and_snapshot("wb_cb_mem_large", 120);

    let gauge = |s: &wb_obs::metrics::Snapshot, name: &str| -> f64 {
        *s.gauges.get(name).unwrap_or_else(|| panic!("missing gauge {name}"))
    };
    // The site really grew ~10x…
    let small_pages = small.counters.get("pipeline.pages.briefed").copied().unwrap_or(0);
    let large_pages = large.counters.get("pipeline.pages.briefed").copied().unwrap_or(0);
    assert!(
        large_pages >= small_pages * 8,
        "site must grow ~10x: {small_pages} -> {large_pages} pages"
    );

    // …but the queues never exceed their configured bound, at either
    // scale: backpressure reaches the frontier instead of buffering.
    // (The peak counts the item a blocked sender is holding, so the
    // bound is capacity + 1.)
    for q in ["page", "brief"] {
        let name = format!("pipeline.queue.{q}.depth_peak");
        assert!(gauge(&small, &name) <= 5.0, "{name} exceeded the bound (small)");
        assert!(gauge(&large, &name) <= 5.0, "{name} exceeded the bound (large)");
    }

    // Peak in-flight bytes are a property of queue depth and page size,
    // not site size: 10x the pages must cost well under 2x the peak.
    let small_peak = gauge(&small, "pipeline.inflight.bytes_peak");
    let large_peak = gauge(&large, "pipeline.inflight.bytes_peak");
    assert!(small_peak > 0.0 && large_peak > 0.0, "peaks must be recorded");
    assert!(
        large_peak <= small_peak * 2.0,
        "in-flight bytes must stay flat as the site grows: \
         {small_peak} -> {large_peak}"
    );
}
