//! Request-scoped telemetry: request ids, per-stage timing attribution
//! and structured access logging.
//!
//! A coarse end-to-end latency histogram cannot say *where* a slow p99
//! came from — the replica queue, the model, or a slow client socket.
//! Every request therefore carries a [`StageTimings`] through the
//! pipeline:
//!
//! ```text
//! accept ──parse──► cache ──► queue_wait ──► model ──► serialize ──► write
//! ```
//!
//! and at completion the breakdown is (1) recorded into the
//! `serve.stage.*_us` histogram family (cumulative and windowed), (2)
//! echoed to the client as a `Server-Timing` response header, and (3)
//! emitted as a structured JSON access-log line — sampled in normal
//! operation, always for slow requests.
//!
//! Request ids: an inbound `X-Request-Id` header is honoured (after
//! sanitising) so ids correlate across services; otherwise the server
//! mints `wb-<boot>-<seq>`. The id is echoed on every response.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Stage names, in the order the `Server-Timing` header lists them — the
/// single source of truth for the `serve.stage.*_us` metric family, the
/// header, the access-log `stages` object, `/varz` and `wb top`.
pub const STAGES: [&str; 6] = ["queue_wait", "parse", "cache", "model", "serialize", "write"];

/// Per-request wall-clock attribution, in microseconds per stage. A
/// stage the request never entered (e.g. `model` on a cache hit) stays
/// zero and is omitted from metrics and headers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Submitted job waiting in its replica's queue for an executor to
    /// take it.
    pub queue_wait_us: u64,
    /// Reading and parsing the HTTP request off the socket.
    pub parse_us: u64,
    /// Hashing the body and probing the response cache.
    pub cache_us: u64,
    /// The model briefing this request's page (includes any configured
    /// `--handler-delay-ms` stall, which simulates model cost).
    pub model_us: u64,
    /// Serialising the page's brief to response JSON and storing it in
    /// the cache.
    pub serialize_us: u64,
    /// Writing the response to the client socket.
    pub write_us: u64,
}

impl StageTimings {
    fn stages(&self) -> [(&'static str, u64); 6] {
        [
            (STAGES[0], self.queue_wait_us),
            (STAGES[1], self.parse_us),
            (STAGES[2], self.cache_us),
            (STAGES[3], self.model_us),
            (STAGES[4], self.serialize_us),
            (STAGES[5], self.write_us),
        ]
    }

    /// Renders the breakdown as a `Server-Timing` header value
    /// (`stage;dur=<milliseconds>`, [`STAGES`] order, zero stages and the
    /// not-yet-known `write` stage omitted — the header is sent *in* the
    /// write).
    pub fn server_timing(&self) -> String {
        let mut out = String::new();
        for (name, us) in self.stages() {
            if us == 0 || name == "write" {
                continue;
            }
            if !out.is_empty() {
                out.push_str(", ");
            }
            out.push_str(name);
            out.push_str(&format!(";dur={:.3}", us as f64 / 1e3));
        }
        if out.is_empty() {
            out.push_str("total;dur=0");
        }
        out
    }

    /// Records every stage the request entered into the
    /// `serve.stage.<name>_us` histograms, cumulative and windowed.
    pub fn record(&self) {
        macro_rules! stage {
            ($field:ident, $cum:literal) => {
                if self.$field > 0 {
                    wb_obs::histogram!($cum, self.$field);
                    wb_obs::window_histogram!($cum, self.$field);
                }
            };
        }
        stage!(queue_wait_us, "serve.stage.queue_wait_us");
        stage!(parse_us, "serve.stage.parse_us");
        stage!(cache_us, "serve.stage.cache_us");
        stage!(model_us, "serve.stage.model_us");
        stage!(serialize_us, "serve.stage.serialize_us");
        stage!(write_us, "serve.stage.write_us");
    }
}

/// Microseconds elapsed since `t0`, saturating into a `u64`.
pub fn micros_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Mints a process-unique request id, `wb-<boot>-<seq>`: a per-boot hex
/// stamp (wall clock at first use) so ids from successive server runs
/// don't collide in shared logs, plus a monotone sequence number.
pub fn next_request_id() -> String {
    static BOOT: OnceLock<u64> = OnceLock::new();
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let boot = *BOOT.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0)
    });
    format!("wb-{:x}-{:x}", boot & 0xffff_ffff, SEQ.fetch_add(1, Ordering::Relaxed))
}

/// The request id for a parsed request: an inbound `X-Request-Id` if it
/// is printable ASCII of sane length (so it cannot corrupt headers or
/// log lines), else a freshly minted id.
pub fn request_id(inbound: Option<&str>) -> String {
    match inbound {
        Some(id)
            if !id.is_empty()
                && id.len() <= 128
                && id.bytes().all(|b| b.is_ascii_graphic()) =>
        {
            id.to_string()
        }
        _ => next_request_id(),
    }
}

/// Builds one structured access-log line: a single JSON object with the
/// request id, route, status, total latency, cache disposition and the
/// per-stage breakdown. Keys sort deterministically, so log pipelines can
/// diff lines textually.
pub fn access_log_line(
    id: &str,
    method: &str,
    path: &str,
    status: u16,
    total_us: u64,
    cache: &str,
    timings: &StageTimings,
) -> String {
    // Stages the request never entered are omitted.
    let stages: BTreeMap<String, u64> = timings
        .stages()
        .iter()
        .filter(|&&(_, us)| us > 0)
        .map(|&(name, us)| (format!("{name}_us"), us))
        .collect();
    let line = BTreeMap::from([
        ("cache".to_string(), cache.to_value()),
        ("id".to_string(), id.to_value()),
        ("method".to_string(), method.to_value()),
        ("path".to_string(), path.to_value()),
        ("stages".to_string(), stages.to_value()),
        ("status".to_string(), status.to_value()),
        ("total_us".to_string(), total_us.to_value()),
    ]);
    serde_json::to_string(&line).expect("an access-log line serialises")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_timing_lists_nonzero_stages_in_pipeline_order() {
        let t = StageTimings {
            queue_wait_us: 50,
            parse_us: 120,
            model_us: 150_000,
            write_us: 999, // never in the header: the header is sent in the write
            ..StageTimings::default()
        };
        let h = t.server_timing();
        assert_eq!(h, "queue_wait;dur=0.050, parse;dur=0.120, model;dur=150.000");
    }

    #[test]
    fn server_timing_of_nothing_is_total_zero() {
        assert_eq!(StageTimings::default().server_timing(), "total;dur=0");
    }

    #[test]
    fn minted_ids_are_unique_and_printable() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
        assert!(a.starts_with("wb-"));
        assert!(a.bytes().all(|c| c.is_ascii_graphic()));
    }

    #[test]
    fn inbound_ids_are_honoured_or_replaced() {
        assert_eq!(request_id(Some("trace-abc-123")), "trace-abc-123");
        // Control characters, emptiness or absurd length mint a fresh id.
        assert!(request_id(Some("bad\nid")).starts_with("wb-"));
        assert!(request_id(Some("")).starts_with("wb-"));
        assert!(request_id(Some(&"x".repeat(300))).starts_with("wb-"));
        assert!(request_id(None).starts_with("wb-"));
    }

    #[test]
    fn access_log_line_is_valid_json_with_stage_breakdown() {
        let t = StageTimings { parse_us: 10, model_us: 2000, ..StageTimings::default() };
        let line = access_log_line("wb-1-2", "POST", "/brief", 200, 2500, "miss", &t);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.get("id").and_then(|x| x.as_str()), Some("wb-1-2"));
        assert_eq!(v.get("status").and_then(|x| x.as_f64()), Some(200.0));
        assert_eq!(v.get("cache").and_then(|x| x.as_str()), Some("miss"));
        let stages = v.get("stages").expect("stages object");
        assert_eq!(stages.get("model_us").and_then(|x| x.as_f64()), Some(2000.0));
        assert!(stages.get("queue_wait_us").is_none(), "zero stages omitted");
    }

    #[test]
    fn record_feeds_the_stage_histogram_family() {
        let t = StageTimings { model_us: 123, ..StageTimings::default() };
        t.record();
        let s = wb_obs::metrics::snapshot();
        assert!(s.histograms.contains_key("serve.stage.model_us"));
        let w = wb_obs::window::snapshot();
        assert!(w.histograms.contains_key("serve.stage.model_us"));
    }
}
