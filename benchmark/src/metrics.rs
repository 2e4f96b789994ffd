//! The metric dictionary and the result line.
//!
//! Every metric the benchmark can print is declared here, once, with its
//! unit; `BENCHMARK.json` declares the same names with a direction (and,
//! end to end, a regression bound), and a test keeps the two in step. The
//! result line refuses a metric set that differs from the declaration.

/// Measured `(name, value)` pairs.
pub type Values = Vec<(&'static str, f64)>;

/// `(name, unit)` of every end-to-end metric: printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("pages_per_s", "pages/s"), ("latency_p10_ms", "ms")];

/// `(name, unit)` of every per-layer metric: printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("html.parse_us", "us"),
    ("html.visible_text_us", "us"),
    ("text.split_us", "us"),
    ("text.wordpiece_us", "us"),
    ("joint.generate_us", "us"),
    ("joint.tags_us", "us"),
    ("joint.sections_us", "us"),
    ("briefer.page_us", "us"),
    ("briefer.unattributed_fraction", "fraction"),
    ("obs.trace_overhead_fraction", "fraction"),
    ("text.chunks_per_page", "count"),
    ("text.tokens_per_page", "count"),
    ("text.truncated_tokens", "count"),
    ("text.unk_fraction", "fraction"),
    ("joint.encoder_passes_per_chunk", "count"),
    ("tensor.flops_per_page", "flop"),
    ("tensor.matmul_calls_per_page", "count"),
    ("tensor.tape_peak_bytes", "bytes"),
    ("core.checkpoint_load_ms", "ms"),
    ("e2e.latency_p50_ms", "ms"),
    ("e2e.latency_tail_ms", "ms"),
    ("e2e.latency_tail_pct", "pct"),
    ("e2e.latency_samples", "count"),
    ("e2e.rss_peak_mb", "MB"),
    ("e2e.clean_fraction", "fraction"),
    ("host.steal_fraction", "fraction"),
    ("serve.queue_wait_fraction", "fraction"),
    ("serve.parse_fraction", "fraction"),
    ("serve.cache_fraction", "fraction"),
    ("serve.batch_wait_fraction", "fraction"),
    ("serve.model_fraction", "fraction"),
    ("serve.serialize_fraction", "fraction"),
    ("serve.unattributed_fraction", "fraction"),
    ("serve.cache_hit_fraction", "fraction"),
    ("serve.conn_reuse_fraction", "fraction"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_depth_peak", "count"),
    ("loadgen.late_fraction", "fraction"),
    ("pipeline.fetch_fraction", "fraction"),
    ("pipeline.chunk_fraction", "fraction"),
    ("pipeline.brief_fraction", "fraction"),
    ("pipeline.sink_fraction", "fraction"),
    ("pipeline.queue_depth_peak", "count"),
    ("pipeline.inflight_bytes_peak", "bytes"),
    ("pipeline.briefed_per_crawl", "count"),
    ("pipeline.quarantined_per_crawl", "count"),
];

/// Renders the result line: `{"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}` with the metrics in declared
/// order. Panics if `values` names a metric set other than `declared`.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    declared: &[(&str, &str)],
    values: &[(&str, f64)],
) -> String {
    use serde_json::Value;
    let mut names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
    let mut want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    want.sort_unstable();
    assert_eq!(names, want, "emitted metrics must be exactly the declared ones");
    let metrics = declared
        .iter()
        .map(|(name, unit)| {
            let v = values.iter().find(|(n, _)| n == name).expect("checked above").1;
            assert!(v.is_finite(), "metric {name} is not a number: {v}");
            let entry = Value::Obj(vec![
                ("value".into(), Value::Num(v)),
                ("unit".into(), Value::Str((*unit).into())),
            ]);
            ((*name).to_string(), entry)
        })
        .collect();
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(attempted as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value serialises")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn declared(section: &str) -> Vec<Value> {
        let v: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        v.get(section).and_then(Value::as_array).expect("section is a list").clone()
    }

    fn check(section: &str, code: &[(&str, &str)], bounded: bool) {
        let entries = declared(section);
        let names: Vec<&str> =
            entries.iter().map(|e| e.get("name").and_then(Value::as_str).unwrap()).collect();
        let code_names: Vec<&str> = code.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, code_names, "{section}: declared and emitted metrics differ");
        for (e, (name, unit)) in entries.iter().zip(code) {
            assert_eq!(e.get("unit").and_then(Value::as_str), Some(*unit), "{name}: unit");
            let better = e.get("better").and_then(Value::as_str);
            assert!(matches!(better, Some("higher" | "lower")), "{name}: direction");
            let bound = e.get("bound").and_then(Value::as_f64);
            if bounded {
                assert!(bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{name}: bound");
            } else {
                assert!(bound.is_none(), "{name}: per-layer metrics carry no bound");
            }
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        check("end_to_end", END_TO_END, true);
        check("per_layer", PER_LAYER, false);
        let setup = &declared("end_to_end")[0];
        let bound = |e: &Value| e.get("bound").and_then(Value::as_f64).unwrap();
        assert!(
            declared("end_to_end").iter().all(|e| bound(e) <= bound(setup)),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn benchmark_json_declares_the_workloads() {
        let names: Vec<String> = declared("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        let code: Vec<&str> =
            crate::workloads::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, code);
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(
            true,
            10,
            0,
            END_TO_END,
            &[("setup_s", 1.25), ("pages_per_s", 120.0), ("latency_p10_ms", 9.75)],
        );
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(10.0));
        let m = v.get("metrics").unwrap();
        assert_eq!(m.get("setup_s").unwrap().get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(
            m.get("latency_p10_ms").unwrap().get("value").and_then(Value::as_f64),
            Some(9.75)
        );
    }

    #[test]
    #[should_panic(expected = "exactly the declared")]
    fn result_line_refuses_an_undeclared_metric() {
        result_line(true, 1, 0, END_TO_END, &[("setup_s", 1.0), ("made_up", 2.0)]);
    }
}
