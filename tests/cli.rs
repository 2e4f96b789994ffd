//! End-to-end tests of the `wb` command line: generate → train → brief.

use std::process::Command;

fn wb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wb"))
}

#[test]
fn generate_exports_labelled_pages() {
    let dir = std::env::temp_dir().join("wb_cli_gen_test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = wb()
        .args(["generate", "--out", dir.to_str().unwrap(), "--subjects", "1", "--pages", "2"])
        .output()
        .expect("run wb generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let html_files = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref().unwrap().path().extension().map(|x| x == "html").unwrap_or(false)
        })
        .count();
    assert_eq!(html_files, 16); // 8 topics × 2 pages
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn train_then_brief_roundtrip() {
    let model = std::env::temp_dir().join("wb_cli_model.json");
    let page = std::env::temp_dir().join("wb_cli_page.html");
    let _ = std::fs::remove_file(&model);

    // Minimal training run: 1 subject/family, 3 pages, 2 epochs — we only
    // verify the pipeline plumbing here, not model quality.
    let out = wb()
        .args([
            "train",
            "--out",
            model.to_str().unwrap(),
            "--epochs",
            "2",
            "--subjects",
            "1",
            "--pages",
            "3",
        ])
        .output()
        .expect("run wb train");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(model.exists());

    std::fs::write(
        &page,
        "<html><body><section><p>great velcro books , price : $ 9.99 .</p></section></body></html>",
    )
    .unwrap();
    let out = wb()
        .args(["brief", "--model", model.to_str().unwrap(), page.to_str().unwrap()])
        .output()
        .expect("run wb brief");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Topic:"), "brief output missing topic: {stdout}");

    // JSON mode produces valid JSON with the Brief fields.
    let out = wb()
        .args(["brief", "--model", model.to_str().unwrap(), "--json", page.to_str().unwrap()])
        .output()
        .expect("run wb brief --json");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_part = stdout.split_once("===\n").map(|(_, rest)| rest).unwrap_or(&stdout);
    let v: serde_json::Value = serde_json::from_str(json_part.trim()).expect("valid JSON");
    assert!(v.get("topic").is_some());
    assert!(v.get("attributes").is_some());

    let _ = std::fs::remove_file(model);
    let _ = std::fs::remove_file(page);
}

#[test]
fn train_metrics_roundtrip_through_report() {
    let model = std::env::temp_dir().join("wb_cli_metrics_model.json");
    let metrics = std::env::temp_dir().join("wb_cli_metrics.json");
    let _ = std::fs::remove_file(&model);
    let _ = std::fs::remove_file(&metrics);

    let out = wb()
        .args([
            "train",
            "--out",
            model.to_str().unwrap(),
            "--epochs",
            "1",
            "--subjects",
            "1",
            "--pages",
            "2",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run wb train --metrics-out");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // The snapshot carries the headline training metrics…
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    for key in ["train.epoch.loss", "optim.grad_norm", "tensor.scratch.hit", "train.step"] {
        assert!(text.contains(&format!("\"{key}\"")), "snapshot missing {key}: {text}");
    }

    // …and `wb report` renders them back as a table.
    let out = wb().args(["report", metrics.to_str().unwrap()]).output().expect("run wb report");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for section in ["== counters ==", "== histograms ==", "== spans =="] {
        assert!(stdout.contains(section), "report missing {section}: {stdout}");
    }
    assert!(stdout.contains("train.epoch.loss"), "{stdout}");
    assert!(stdout.contains("tensor.scratch.hit"), "{stdout}");

    let _ = std::fs::remove_file(model);
    let _ = std::fs::remove_file(metrics);
}

#[test]
fn brief_json_is_byte_identical_with_observability_on() {
    let model = std::env::temp_dir().join("wb_cli_obs_model.json");
    let page = std::env::temp_dir().join("wb_cli_obs_page.html");
    let metrics = std::env::temp_dir().join("wb_cli_obs_metrics.json");
    let trace = std::env::temp_dir().join("wb_cli_obs_trace.json");
    let _ = std::fs::remove_file(&model);
    let _ = std::fs::remove_file(&trace);

    let out = wb()
        .args([
            "train",
            "--out",
            model.to_str().unwrap(),
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
    std::fs::write(
        &page,
        "<html><body><section><p>great velcro books , price : $ 9.99 .</p></section></body></html>",
    )
    .unwrap();

    let quiet = wb()
        .args(["brief", "--model", model.to_str().unwrap(), "--json", page.to_str().unwrap()])
        .output()
        .expect("run wb brief (quiet)");
    assert!(quiet.status.success(), "{}", String::from_utf8_lossy(&quiet.stderr));

    // Maximum observability: trace logging, a metrics snapshot AND event
    // tracing. Logs go to stderr, metrics and the trace to their own
    // files, so stdout — the actual deliverable — must not change by a
    // single byte.
    let traced = wb()
        .args([
            "brief",
            "--model",
            model.to_str().unwrap(),
            "--json",
            "--log-level",
            "trace",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
            page.to_str().unwrap(),
        ])
        .output()
        .expect("run wb brief (traced)");
    assert!(traced.status.success(), "{}", String::from_utf8_lossy(&traced.stderr));
    assert_eq!(quiet.stdout, traced.stdout, "observability perturbed brief output");
    assert!(metrics.exists());

    // The trace file is Chrome-trace shaped: a traceEvents array of
    // complete ("X") events carrying pid/tid/ts, parseable by the
    // vendored serde_json just like by chrome://tracing.
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let v: serde_json::Value = serde_json::from_str(&text).expect("trace is valid JSON");
    let events = v.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
    assert!(!events.is_empty(), "trace recorded no events");
    let spans: Vec<_> =
        events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
    assert!(!spans.is_empty(), "no complete (ph=X) span events");
    for e in &spans {
        for key in ["pid", "tid", "ts", "dur"] {
            assert!(e.get(key).and_then(|x| x.as_f64()).is_some(), "{key} missing: {e:?}");
        }
        assert!(e.get("name").and_then(|n| n.as_str()).is_some(), "{e:?}");
    }
    assert!(
        spans.iter().any(|e| e.get("name").and_then(|n| n.as_str()) == Some("brief.page")),
        "briefing spans missing from trace"
    );

    let _ = std::fs::remove_file(model);
    let _ = std::fs::remove_file(page);
    let _ = std::fs::remove_file(metrics);
    let _ = std::fs::remove_file(trace);
}

/// Span name → event count of every complete ("X") event in a trace file.
fn span_counts(path: &std::path::Path) -> std::collections::BTreeMap<String, usize> {
    let text = std::fs::read_to_string(path).expect("trace file written");
    let v: serde_json::Value = serde_json::from_str(&text).expect("trace is valid JSON");
    let mut counts = std::collections::BTreeMap::new();
    for e in v.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array") {
        if e.get("ph").and_then(|p| p.as_str()) == Some("X") {
            let name = e.get("name").and_then(|n| n.as_str()).unwrap().to_string();
            *counts.entry(name).or_insert(0) += 1;
        }
    }
    counts
}

#[test]
fn trace_export_is_thread_count_invariant() {
    let model = std::env::temp_dir().join("wb_cli_trc_model.json");
    let _ = std::fs::remove_file(&model);
    let out = wb()
        .args([
            "train",
            "--out",
            model.to_str().unwrap(),
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

    let mut pages = Vec::new();
    for i in 0..3 {
        let page = std::env::temp_dir().join(format!("wb_cli_trc_page{i}.html"));
        std::fs::write(
            &page,
            format!(
                "<html><body><section><p>great velcro books {i} , price : $ {i}.99 .\
                 </p></section></body></html>"
            ),
        )
        .unwrap();
        pages.push(page);
    }

    // The same briefing run on 1 vs 4 rayon threads must do the same
    // *work*: identical stdout, identical span-name set and identical
    // per-name event counts — only the thread attribution may differ.
    let mut outputs = Vec::new();
    for (threads, tag) in [("1", "t1"), ("4", "t4")] {
        let trace = std::env::temp_dir().join(format!("wb_cli_trc_{tag}.json"));
        let _ = std::fs::remove_file(&trace);
        let mut cmd = wb();
        cmd.env("RAYON_NUM_THREADS", threads).args([
            "brief",
            "--model",
            model.to_str().unwrap(),
            "--json",
            "--trace-out",
            trace.to_str().unwrap(),
        ]);
        for p in &pages {
            cmd.arg(p);
        }
        let out = cmd.output().expect("run wb brief --trace-out");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        outputs.push((out.stdout, span_counts(&trace)));
        let _ = std::fs::remove_file(&trace);
    }
    let (stdout1, counts1) = &outputs[0];
    let (stdout4, counts4) = &outputs[1];
    assert_eq!(stdout1, stdout4, "thread count changed briefing output");
    assert_eq!(counts1, counts4, "thread count changed the recorded span events");
    assert!(counts1.contains_key("brief.page"), "{counts1:?}");

    let _ = std::fs::remove_file(model);
    for p in pages {
        let _ = std::fs::remove_file(p);
    }
}

/// Every chunk of a page runs exactly one encoder pass, shared by the
/// topic, tag and section heads.
#[test]
fn brief_runs_one_encoder_pass_per_chunk() {
    let model = std::env::temp_dir().join("wb_cli_enc_model.json");
    let page = std::env::temp_dir().join("wb_cli_enc_page.html");
    let metrics = std::env::temp_dir().join("wb_cli_enc_metrics.json");
    let _ = std::fs::remove_file(&model);
    let _ = std::fs::remove_file(&metrics);
    let out = wb()
        .args([
            "train",
            "--out",
            model.to_str().unwrap(),
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
    // ~80 sentences of ~10 tokens: several 192-token sub-documents.
    let body: String = (0..80)
        .map(|i| format!("<p>great velcro books {i} , price : $ {i}.99 .</p>"))
        .collect();
    std::fs::write(&page, format!("<html><body><section>{body}</section></body></html>"))
        .unwrap();

    let out = wb()
        .args([
            "brief",
            "--model",
            model.to_str().unwrap(),
            "--json",
            "--metrics-out",
            metrics.to_str().unwrap(),
            page.to_str().unwrap(),
        ])
        .output()
        .expect("run wb brief --metrics-out");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let v: serde_json::Value = serde_json::from_str(&text).expect("metrics are valid JSON");
    let chunks = v
        .get("counters")
        .and_then(|c| c.get("brief.chunks"))
        .and_then(|n| n.as_f64())
        .expect("brief.chunks counter");
    assert!(chunks >= 2.0, "the page must split into several chunks, got {chunks}");
    let Some(serde_json::Value::Obj(spans)) = v.get("spans") else {
        panic!("no spans object: {text}");
    };
    let count = |leaf: &str| -> f64 {
        spans
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
            .filter_map(|(_, s)| s.get("count").and_then(|n| n.as_f64()))
            .sum()
    };
    assert_eq!(count("brief.encode"), chunks, "one encoder pass per chunk: {text}");
    assert_eq!(count("brief.infer"), chunks, "{text}");
    assert_eq!(count("brief.generate"), 1.0, "the topic is decoded from the first chunk only");

    let _ = std::fs::remove_file(model);
    let _ = std::fs::remove_file(page);
    let _ = std::fs::remove_file(metrics);
}

/// The layer spans account for a page's time: the container spans
/// (`brief.page`, `brief.infer`, `brief.encode`, `brief.extract`) keep at
/// most 5% of `brief.page` as their own self time, so every layer a page
/// spends time in has a span of its own.
#[test]
fn layer_spans_cover_the_page_time() {
    let dir = std::env::temp_dir().join("wb_cli_layer_spans");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("corpus");
    let model = dir.join("model.json");
    let metrics = dir.join("metrics.json");
    let out = wb()
        .args(["train", "--out", model.to_str().unwrap(), "--epochs", "1"])
        .args(["--subjects", "1", "--pages", "2"])
        .output()
        .expect("run wb train");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = wb()
        .args([
            "generate",
            "--out",
            corpus.to_str().unwrap(),
            "--subjects",
            "2",
            "--pages",
            "8",
        ])
        .output()
        .expect("run wb generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut pages: Vec<_> = std::fs::read_dir(&corpus)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "html"))
        .collect();
    pages.sort();
    let out = wb()
        .args(["brief", "--model", model.to_str().unwrap(), "--json"])
        .args(["--metrics-out", metrics.to_str().unwrap()])
        .args(&pages)
        .output()
        .expect("run wb brief --metrics-out");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let v: serde_json::Value = serde_json::from_str(&text).expect("metrics are valid JSON");
    let Some(serde_json::Value::Obj(spans)) = v.get("spans") else {
        panic!("no spans object: {text}");
    };
    let sum = |leaves: &[&str], field: &str| -> f64 {
        spans
            .iter()
            .filter(|(path, _)| leaves.contains(&path.rsplit('/').next().unwrap()))
            .filter_map(|(_, s)| s.get(field).and_then(|n| n.as_f64()))
            .sum()
    };
    let page_ns = sum(&["brief.page"], "total_ns");
    let containers = ["brief.page", "brief.infer", "brief.encode", "brief.extract"];
    let container_self_ns = sum(&containers, "self_ns");
    assert!(page_ns > 0.0, "no brief.page time: {text}");
    assert!(
        container_self_ns <= 0.05 * page_ns,
        "container spans keep {:.1}% of brief.page as self time: {text}",
        100.0 * container_self_ns / page_ns
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_quick_writes_report_and_gates_regressions() {
    let report = std::env::temp_dir().join("wb_cli_bench.json");
    let tampered = std::env::temp_dir().join("wb_cli_bench_bad.json");
    let _ = std::fs::remove_file(&report);

    let out = wb()
        .args(["bench", "--quick", "--label", "clitest", "--out", report.to_str().unwrap()])
        .output()
        .expect("run wb bench --quick");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("bench `clitest`"), "{stdout}");

    // The report carries every workload with throughput, percentiles and
    // the deterministic counters.
    let text = std::fs::read_to_string(&report).expect("bench report written");
    let v: serde_json::Value = serde_json::from_str(&text).expect("report is valid JSON");
    assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("wb-bench-v1"));
    assert_eq!(v.get("tier").and_then(|s| s.as_str()), Some("quick"));
    let workloads = v.get("workloads").expect("workloads object");
    let metric = |workload: &str, key: &str, field: &str| -> serde_json::Value {
        workloads
            .get(workload)
            .and_then(|w| w.get("metrics"))
            .and_then(|m| m.get(key))
            .and_then(|m| m.get(field))
            .unwrap_or_else(|| panic!("{workload}/{key}/{field} missing from report"))
            .clone()
    };
    for name in [
        "matmul_nn",
        "matmul_nt",
        "matmul_tn",
        "matmul_tt",
        "attention_fused",
        "wordpiece",
        "brief_corpus",
        "train_step",
        "obs_overhead",
    ] {
        let keys: &[&str] = if name == "obs_overhead" {
            &[
                "counter_ns",
                "window_counter_ns",
                "span_ns",
                "fault_point_unarmed_ns",
                "profiler_overhead_pct",
                "alloc_track_overhead_pct",
            ]
        } else {
            &["throughput", "latency_p50_us", "latency_p99_us", "work_units"]
        };
        for key in keys {
            assert!(metric(name, key, "value").as_f64().is_some(), "{name}/{key} not numeric");
        }
    }
    // The instrumentation-cost bars are timings: they only ever warn.
    assert_eq!(metric("obs_overhead", "span_ns", "hard").as_bool(), Some(false));
    let flops = metric("matmul_nn", "flops", "value").as_f64().unwrap();
    assert!(flops > 0.0);
    assert!(metric("train_step", "tape_peak_bytes", "value").as_f64().unwrap() > 0.0);
    assert_eq!(metric("train_step", "params_bytes", "hard").as_bool(), Some(true));

    // Writes a copy of the report with one metric's value replaced.
    let tamper = |workload: &str, key: &str, value: f64| {
        let w = text.find(&format!("\"{workload}\":")).expect("workload in report");
        let m = w + text[w..].find(&format!("\"{key}\":")).expect("metric in workload");
        let v = m + text[m..].find("\"value\":").expect("metric value") + "\"value\":".len();
        let end = v + text[v..].find('}').expect("metric object closes");
        std::fs::write(&tampered, format!("{}{value}{}", &text[..v], &text[end..])).unwrap();
    };
    let gate = |candidate: &std::path::Path| {
        wb().args([
            "bench",
            "--baseline",
            report.to_str().unwrap(),
            candidate.to_str().unwrap(),
        ])
        .output()
        .expect("run wb bench compare")
    };

    // Comparing a report against itself passes…
    let ok = gate(&report);
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));

    // …while any change to a hard metric — doubled FLOPs, or a work count
    // one unit off — trips the regression gate with exit code 1 (not the
    // usage-error code 2).
    let work_units = metric("matmul_nn", "work_units", "value").as_f64().unwrap();
    for (key, value) in [("flops", flops * 2.0), ("work_units", work_units + 1.0)] {
        tamper("matmul_nn", key, value);
        let bad = gate(&tampered);
        assert_eq!(bad.status.code(), Some(1), "{}", String::from_utf8_lossy(&bad.stderr));
        let stdout = String::from_utf8_lossy(&bad.stdout);
        assert!(stdout.contains(&format!("FAIL: matmul_nn/{key}")), "{stdout}");
    }

    // A soft metric that drifts far (doubled throughput) only warns.
    let throughput = metric("brief_corpus", "throughput", "value").as_f64().unwrap();
    tamper("brief_corpus", "throughput", throughput * 2.0);
    let drift = gate(&tampered);
    assert!(drift.status.success(), "{}", String::from_utf8_lossy(&drift.stderr));
    let stdout = String::from_utf8_lossy(&drift.stdout);
    assert!(stdout.contains("warn: brief_corpus/throughput"), "{stdout}");
    assert!(stdout.contains(" 0 failures"), "{stdout}");

    let _ = std::fs::remove_file(report);
    let _ = std::fs::remove_file(tampered);
}

#[test]
fn unknown_flag_suggests_near_miss() {
    let out = wb().args(["train", "--epoch", "5"]).output().expect("run wb train --epoch");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown option --epoch"), "{stderr}");
    assert!(stderr.contains("did you mean --epochs?"), "{stderr}");
}

#[test]
fn flag_equals_form_is_accepted() {
    let out = wb()
        .args(["stats", "--subjects=1", "--pages=2"])
        .output()
        .expect("run wb stats with = flags");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pages:"), "{stdout}");
}

#[test]
fn brief_exits_nonzero_when_all_pages_fail() {
    let model = std::env::temp_dir().join("wb_cli_fail_model.json");
    let empty = std::env::temp_dir().join("wb_cli_fail_empty.html");
    let good = std::env::temp_dir().join("wb_cli_fail_good.html");
    let _ = std::fs::remove_file(&model);
    let out = wb()
        .args([
            "train",
            "--out",
            model.to_str().unwrap(),
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

    // A page with no visible text cannot be briefed; when *every* page
    // fails, the exit code must be non-zero so pipelines notice.
    std::fs::write(&empty, "<html><head><title>x</title></head></html>").unwrap();
    let out = wb()
        .args(["brief", "--model", model.to_str().unwrap(), empty.to_str().unwrap()])
        .output()
        .expect("run wb brief on unbriefable page");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no page briefed successfully"), "{stderr}");

    // One success among failures keeps exit 0 (partial output is output).
    std::fs::write(
        &good,
        "<html><body><section><p>great velcro books , price : $ 9.99 .</p></section></body></html>",
    )
    .unwrap();
    let out = wb()
        .args([
            "brief",
            "--model",
            model.to_str().unwrap(),
            empty.to_str().unwrap(),
            good.to_str().unwrap(),
        ])
        .output()
        .expect("run wb brief mixed");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let _ = std::fs::remove_file(model);
    let _ = std::fs::remove_file(empty);
    let _ = std::fs::remove_file(good);
}

#[test]
fn stats_prints_corpus_summary() {
    let out =
        wb().args(["stats", "--subjects", "1", "--pages", "2"]).output().expect("run wb stats");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pages:"));
    assert!(stdout.contains("vocabulary:"));
}
