//! The traced in-process pass behind the model-stack per-layer metrics.
//!
//! Nothing inside the program is instrumented for it: the pass calls the
//! libraries' public functions in the order `Briefer::brief_chunks` uses
//! them and records a span around each call — parse, visible text,
//! sentence split, WordPiece chunking, then topic generation on the first
//! chunk and tag and section prediction on every chunk. Spans (name,
//! start, end, parent, page) stay in memory and are written out at the
//! end. Work counts come from the program's own metrics registry (encoder
//! passes, matmul FLOPs and calls, autograd tape peak), read before and
//! after the model calls.
//!
//! Each page is also briefed once untraced with `Briefer::brief_html`:
//! that wall time is the base the layer times are compared against, and
//! that brief is cross-checked against the workload's own output.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wb_core::{encode_chunked, Brief, Briefer};
use wb_html::{parse_document, visible_text};
use wb_obs::metrics::{registry, Counter};
use wb_text::split_sentences;

/// The timed layers, in call order; span names of the trace file.
pub const LAYERS: [&str; 7] = [
    "html.parse",
    "html.visible_text",
    "text.split",
    "text.wordpiece",
    "joint.generate",
    "joint.tags",
    "joint.sections",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub page: usize,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &'static str, page: usize, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span { name, page, start_us, end_us: start_us, parent });
        self.spans.len() - 1
    }

    fn close(&mut self, i: usize) {
        self.spans[i].end_us = self.now_us();
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        page: usize,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let i = self.open(name, page, Some(parent));
        let out = black_box(f());
        self.close(i);
        out
    }
}

/// Totals of the pass, from which the per-layer metrics are derived.
#[derive(Debug, Default)]
pub struct Totals {
    pub pages: usize,
    pub chunks: usize,
    /// Self time per entry of [`LAYERS`], in microseconds.
    pub layer_us: [f64; 7],
    /// Σ traced page spans and Σ untraced `brief_html` walls.
    pub traced_us: f64,
    pub untraced_us: f64,
    pub tokens: usize,
    pub truncated_tokens: usize,
    pub unk_tokens: usize,
    pub encoder_passes: u64,
    pub flops: u64,
    pub matmul_calls: u64,
    pub tape_peak_bytes: f64,
}

/// The pass's outcome.
pub struct Pass {
    pub totals: Totals,
    pub spans: Vec<Span>,
    /// Pages whose untraced brief differed from the workload's output.
    pub mismatches: Vec<String>,
    /// Pages that had a workload output to compare against.
    pub compared: usize,
}

/// Traces `pages` (observed[i] is the workload's brief of page i, when it
/// produced one). Pages whose chunk count is below `min_chunks` are still
/// cross-checked but left out of the totals, so a long-page pass reports
/// long pages only.
pub fn run(
    briefer: &Briefer,
    pages: &[&str],
    observed: &[Option<Brief>],
    min_chunks: usize,
) -> Pass {
    let reg = registry();
    let encodes = reg.histogram("brief.encode");
    let flops = reg.counter("tensor.matmul.flops");
    let calls: Vec<Arc<Counter>> = ["nn", "tn", "nt", "tt"]
        .iter()
        .map(|v| reg.counter(&format!("tensor.matmul.calls.{v}")))
        .collect();
    let work =
        || (encodes.snapshot().count, flops.get(), calls.iter().map(|c| c.get()).sum::<u64>());
    let tape = reg.gauge("tensor.graph.tape_bytes.peak");
    // Warm caches and the scratch pool before anything is timed.
    for html in pages.iter().take(5) {
        let _ = black_box(briefer.brief_html(html));
    }
    tape.set(0.0);

    let model = briefer.model();
    let tok = briefer.tokenizer();
    let mut tracer = Tracer { origin: Instant::now(), spans: Vec::new() };
    let mut t = Totals::default();
    let mut mismatches = Vec::new();
    let mut compared = 0;
    for (p, html) in pages.iter().enumerate() {
        // Alternate which run goes first so neither always finds the
        // page warm in cache.
        let untraced_first = p % 2 == 0;
        let mut untraced = || {
            let t0 = Instant::now();
            let brief = black_box(briefer.brief_html(html));
            (brief, t0.elapsed().as_secs_f64() * 1e6)
        };
        let first = untraced_first.then(&mut untraced);

        let spans_before = tracer.spans.len();
        let page = tracer.open("briefer.page", p, None);
        let dom = tracer.time("html.parse", p, page, || parse_document(html));
        let mut chunks = Vec::new();
        let mut work_delta = (0, 0, 0);
        if let Ok(dom) = dom {
            let text = tracer.time("html.visible_text", p, page, || visible_text(&dom));
            let sentences = tracer.time("text.split", p, page, || split_sentences(&text));
            chunks = tracer.time("text.wordpiece", p, page, || {
                encode_chunked(&sentences, tok, briefer.chunk_config())
            });
            let before = work();
            if let Some(head) = chunks.first() {
                tracer.time("joint.generate", p, page, || model.generate(head));
                for ex in &chunks {
                    tracer.time("joint.tags", p, page, || model.predict_tags(ex));
                    tracer.time("joint.sections", p, page, || model.predict_sections(ex));
                }
            }
            let after = work();
            work_delta = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
            let full: usize = sentences.iter().map(|s| 1 + tok.encode(s).len()).sum();
            let kept: usize = chunks.iter().map(|c| c.tokens.len()).sum();
            if chunks.len() >= min_chunks.max(1) {
                t.tokens += kept;
                t.truncated_tokens += full.saturating_sub(kept);
                t.unk_tokens +=
                    chunks.iter().flat_map(|c| &c.tokens).filter(|&&id| tok.is_unk(id)).count();
            }
        }
        tracer.close(page);

        let (brief, untraced_us) = match first {
            Some(r) => r,
            None => untraced(),
        };
        if let Some(Some(seen)) = observed.get(p) {
            compared += 1;
            match &brief {
                Ok(b) if b == seen => {}
                Ok(_) => mismatches.push(format!("page {p}: in-process brief differs")),
                Err(e) => mismatches.push(format!("page {p}: in-process briefing failed: {e}")),
            }
        }
        if chunks.len() < min_chunks.max(1) {
            // Not a page of the shape this pass reports on; drop its spans.
            tracer.spans.truncate(spans_before);
            continue;
        }
        let page_span = &tracer.spans[page];
        t.traced_us += page_span.end_us - page_span.start_us;
        for s in &tracer.spans[page + 1..] {
            let layer =
                LAYERS.iter().position(|l| *l == s.name).expect("only layer spans nest");
            t.layer_us[layer] += s.end_us - s.start_us;
        }
        t.untraced_us += untraced_us;
        t.pages += 1;
        t.chunks += chunks.len();
        t.encoder_passes += work_delta.0;
        t.flops += work_delta.1;
        t.matmul_calls += work_delta.2;
    }
    t.tape_peak_bytes = tape.get();
    Pass { totals: t, spans: tracer.spans, mismatches, compared }
}

/// The spans as JSON, for the trace file.
pub fn spans_json(spans: &[Span]) -> serde_json::Value {
    use serde_json::Value;
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("page".into(), Value::Num(s.page as f64)),
                    ("start_us".into(), Value::Num(s.start_us)),
                    ("end_us".into(), Value::Num(s.end_us)),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                ])
            })
            .collect(),
    )
}
