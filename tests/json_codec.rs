//! Byte contract of the JSON the observability surfaces write: metric
//! snapshots, access-log lines, `wb bench` reports and HTTP error bodies
//! are pinned for fixed inputs, and every committed `BENCH_*.json`
//! re-renders unchanged after a parse.
//!
//! On a mismatch the actual output is written next to the test binary's
//! scratch directory (the path is in the panic message); if the change is
//! meant to alter the bytes, review that file and copy it over the golden
//! under `tests/json/`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use wb_bench::perf::{BenchReport, Metric, WorkloadResult, SCHEMA};
use wb_obs::metrics::{HistogramSnapshot, Snapshot, SpanSnapshot};
use wb_serve::telemetry::{access_log_line, StageTimings};

/// Compares `actual` with the golden file `name` under `tests/json/`.
fn assert_golden(name: &str, actual: &str) {
    let golden: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "json", name].iter().collect();
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected == actual {
        return;
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&out, actual).expect("write actual output");
    let first_diff = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    panic!(
        "{} differs from the golden at line {}; actual output written to {}",
        golden.display(),
        first_diff + 1,
        out.display()
    );
}

fn map<V>(entries: impl IntoIterator<Item = (&'static str, V)>) -> BTreeMap<String, V> {
    entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// One snapshot per line: (1) every section, with keys that need escapes
/// and spans with and without allocation fields; (2) number forms: a
/// gauge, a bucket bound and an observation below 1e-4, a negative zero
/// and a counter of 1e16; (3) a
/// histogram whose overflow bucket (`le` = `f64::MAX`) is non-empty.
#[test]
fn snapshot_json_matches_the_golden() {
    let typical = Snapshot {
        uptime_ms: 1234.5,
        counters: map([("brief.pages", 128), ("key \"quoted\"\\\n\u{1}", 7)]),
        gauges: map([("optim.lr", 0.01), ("serve.queue.depth.peak", 3.0)]),
        histograms: map([
            (
                "train.epoch.loss",
                HistogramSnapshot {
                    count: 3,
                    sum: 2.25,
                    min: Some(0.5),
                    max: Some(1.0),
                    buckets: vec![(0.5, 1), (1.0, 2)],
                },
            ),
            (
                "unobserved",
                HistogramSnapshot { count: 0, sum: 0.0, min: None, max: None, buckets: vec![] },
            ),
        ]),
        spans: map([
            (
                "brief.page",
                SpanSnapshot { count: 2, total_ns: 5000, self_ns: 1000, ..Default::default() },
            ),
            (
                "brief.page/brief.infer",
                SpanSnapshot {
                    count: 2,
                    total_ns: 4000,
                    self_ns: 4000,
                    alloc_bytes: 2048,
                    alloc_count: 3,
                },
            ),
        ]),
    };
    let number_forms = Snapshot {
        uptime_ms: 0.000044,
        counters: map([("huge", 10_000_000_000_000_000)]),
        gauges: map([("negative_zero", -0.0), ("tiny", 0.000044)]),
        histograms: map([(
            "optim.grad_norm",
            HistogramSnapshot {
                count: 2,
                sum: 0.00105,
                min: Some(0.00005),
                max: Some(0.001),
                buckets: vec![(0.00005, 1), (0.001, 1)],
            },
        )]),
        ..Snapshot::default()
    };
    let overflow = Snapshot {
        histograms: map([(
            "serve.batch.size",
            HistogramSnapshot {
                count: 3,
                sum: 250.0,
                min: Some(10.0),
                max: Some(200.0),
                buckets: vec![(10.0, 1), (f64::MAX, 2)],
            },
        )]),
        ..Snapshot::default()
    };
    let out: String = [typical, number_forms, overflow]
        .iter()
        .map(|s| {
            let json = s.to_json();
            assert_eq!(&Snapshot::from_json(&json).unwrap(), s, "{json}");
            json + "\n"
        })
        .collect();
    assert_golden("snapshot.txt", &out);
}

/// Snapshots written before the codec change spell small and large
/// numbers out in full; they must still read back to the same values.
#[test]
fn snapshot_reads_spelled_out_numbers() {
    let text = r#"{"uptime_ms":0.000044,"counters":{"huge":10000000000000000},"gauges":{"tiny":0.000044,"negative_zero":-0}}"#;
    let s = Snapshot::from_json(text).unwrap();
    assert_eq!(s.uptime_ms, 4.4e-5);
    assert_eq!(s.counters["huge"], 10_000_000_000_000_000);
    assert_eq!(s.gauges["tiny"], 4.4e-5);
    assert_eq!(s.gauges["negative_zero"], 0.0);
}

#[test]
fn access_log_lines_match_the_golden() {
    let miss = StageTimings {
        queue_wait_us: 50,
        parse_us: 120,
        model_us: 1500,
        serialize_us: 30,
        write_us: 7,
        ..StageTimings::default()
    };
    let lines = [
        access_log_line("wb-1a2b-3", "POST", "/brief", 200, 2500, "miss", &miss),
        access_log_line(
            "client-7",
            "GET",
            "/brief?q=\"x\"\\",
            404,
            12,
            "none",
            &Default::default(),
        ),
    ];
    assert_golden("access_log.txt", &(lines.join("\n") + "\n"));
}

#[test]
fn bench_report_matches_the_golden() {
    let metric = |value: f64, unit: &str, hard: bool| Metric { value, unit: unit.into(), hard };
    let report = BenchReport {
        schema: SCHEMA.to_string(),
        label: "golden \"label\"".into(),
        tier: "quick".into(),
        env: map([("arch", "x86_64".to_string()), ("threads", "2".to_string())]),
        workloads: map([
            (
                "matmul_nn",
                WorkloadResult {
                    repeats: 8,
                    metrics: map([
                        ("flops", metric(849346560.0, "FLOP", true)),
                        ("latency_mean_us", metric(2772.77775, "us", false)),
                        ("overhead_fraction", metric(0.000125, "fraction", false)),
                    ]),
                },
            ),
            ("empty", WorkloadResult { repeats: 1, metrics: BTreeMap::new() }),
        ]),
    };
    let json = report.to_json();
    assert_eq!(BenchReport::from_json(&json).unwrap(), report);
    assert_golden("bench_report.txt", &(json + "\n"));
}

#[test]
fn committed_bench_reports_rerender_byte_identically() {
    let mut seen = 0;
    for entry in std::fs::read_dir(env!("CARGO_MANIFEST_DIR")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let report = BenchReport::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.to_json() == text, "{name} does not re-render byte-identically");
        seen += 1;
    }
    assert!(seen >= 3, "expected the committed BENCH_*.json reports, found {seen}");
}

#[test]
fn error_bodies_match_the_golden() {
    let out: String = ["", "a \"quoted\"\npath\\x", "tab\tcr\rctrl\u{1}\u{1f}", "é中😀 / ok"]
        .iter()
        .map(|detail| String::from_utf8(wb_serve::http::error_body(detail)).unwrap() + "\n")
        .collect();
    assert_golden("error_body.txt", &out);
}
