//! `wb bench` — the performance-trajectory harness.
//!
//! Runs a fixed set of workloads (matmul variants, WordPiece tokenization,
//! corpus briefing, one-epoch training, instrumentation overhead) with
//! warmup and repeats, and writes a `BENCH_<label>.json` report per run:
//! throughput, latency percentiles (derived from the `wb-obs` histograms
//! via [`HistogramSnapshot::quantile`]), deterministic work counters
//! (FLOPs, matmul calls, dispatch decisions) and peak-memory watermarks,
//! plus an environment fingerprint. Reports from different commits are diffed with
//! [`compare`] to track the performance trajectory of the codebase.
//!
//! ## Hard vs soft metrics
//!
//! Every metric is tagged `hard` or soft. *Hard* metrics are deterministic
//! functions of the workload shape — FLOP counts, matmul call counts,
//! dispatch decisions, tape/parameter byte peaks, work-unit counts. They
//! are identical across machines and (for any multicore pool) across
//! thread counts, so [`compare`] **fails** when one differs from the
//! baseline at all: the code now does different work. *Soft* metrics are
//! time-based (throughput, latency percentiles) or scheduler-dependent
//! (scratch-pool peaks); drift there beyond 25% only **warns**, because CI
//! machines are noisy neighbours. The one caveat: dispatch counts assume a
//! rayon pool with >1 thread — comparing a `RAYON_NUM_THREADS=1` run
//! against a multicore baseline legitimately hard-fails.
//!
//! Reports are JSON written and read by the vendored `serde_json`: the
//! report types derive the codec with their fields declared in key order,
//! so files keep sorted keys, render deterministically and parse back
//! exactly.

use crate::Scale;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;
use wb_core::{Briefer, ModelConfig, TrainConfig};
use wb_corpus::{generate_page, Dataset, DatasetConfig, PageConfig};
use wb_obs::metrics::{registry, snapshot, HistogramSnapshot, Snapshot};
use wb_tensor::{Graph, Params, Tensor};

/// Schema tag written into every report (bump on breaking changes).
pub const SCHEMA: &str = "wb-bench-v1";

/// High-watermark gauges re-armed (reset to zero) before each workload so
/// peaks are attributed per workload rather than per process.
const PEAK_GAUGES: &[&str] = &[
    "tensor.scratch.bytes_pooled.peak",
    "tensor.graph.tape_bytes.peak",
    "tensor.graph.nodes.peak",
    "tensor.params.bytes.peak",
];

/// Benchmark size tier: the `WB_SCALE` scales plus a sub-`tiny` CI tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Seconds-scale tier for CI smoke regression checks (`--quick`).
    Quick,
    /// `WB_SCALE=tiny`.
    Tiny,
    /// `WB_SCALE=small` (the default).
    Small,
    /// `WB_SCALE=full`.
    Full,
}

impl Tier {
    /// Resolves the tier: `--quick` wins, otherwise `WB_SCALE` decides.
    pub fn resolve(quick: bool) -> Tier {
        if quick {
            return Tier::Quick;
        }
        match Scale::from_env() {
            Scale::Tiny => Tier::Tiny,
            Scale::Small => Tier::Small,
            Scale::Full => Tier::Full,
        }
    }

    /// Display / report name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Quick => "quick",
            Tier::Tiny => "tiny",
            Tier::Small => "small",
            Tier::Full => "full",
        }
    }

    fn spec(self) -> TierSpec {
        match self {
            Tier::Quick => TierSpec {
                matmul_dim: 96,
                // Enough repeats that a ~1 ms matmul product yields a stable
                // throughput on a busy single-core CI runner; still < 200 ms
                // per matmul workload.
                matmul_reps: 40,
                tok_reps: 8,
                brief_reps: 2,
                train_reps: 2,
                warmup: 1,
                subjects: 1,
                pages_per_topic: 3,
                setup_epochs: 2,
                brief_pages: 6,
            },
            Tier::Tiny => TierSpec {
                matmul_dim: 64,
                matmul_reps: 8,
                tok_reps: 10,
                brief_reps: 3,
                train_reps: 3,
                warmup: 2,
                subjects: 2,
                pages_per_topic: 4,
                setup_epochs: 3,
                brief_pages: 8,
            },
            Tier::Small => TierSpec {
                matmul_dim: 128,
                matmul_reps: 12,
                tok_reps: 15,
                brief_reps: 4,
                train_reps: 4,
                warmup: 2,
                subjects: 2,
                pages_per_topic: 6,
                setup_epochs: 6,
                brief_pages: 12,
            },
            Tier::Full => TierSpec {
                matmul_dim: 256,
                matmul_reps: 20,
                tok_reps: 25,
                brief_reps: 6,
                train_reps: 6,
                warmup: 3,
                subjects: 3,
                pages_per_topic: 8,
                setup_epochs: 10,
                brief_pages: 16,
            },
        }
    }
}

/// Workload sizes for one tier.
struct TierSpec {
    matmul_dim: usize,
    matmul_reps: usize,
    tok_reps: usize,
    brief_reps: usize,
    train_reps: usize,
    warmup: usize,
    subjects: usize,
    pages_per_topic: usize,
    setup_epochs: usize,
    brief_pages: usize,
}

/// One measured quantity of a workload. The report types declare their
/// fields in JSON key order: the derived codec writes them in declaration
/// order, and reports keep their keys sorted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Deterministic metric: [`compare`] fails (rather than warns) when it
    /// differs from the baseline.
    pub hard: bool,
    /// Unit label (`MFLOP/s`, `us`, `bytes`, …) for rendering.
    pub unit: String,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    fn new(value: f64, unit: &str, hard: bool) -> Metric {
        Metric { value, unit: unit.to_string(), hard }
    }
}

/// All metrics of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Timed repeats (after warmup).
    pub repeats: usize,
}

/// A full benchmark report (`BENCH_<label>.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Environment fingerprint (thread count, OS, arch, build profile…).
    pub env: BTreeMap<String, String>,
    /// Run label (`baseline`, `ci`, a commit hash, …).
    pub label: String,
    /// Format tag ([`SCHEMA`]).
    pub schema: String,
    /// Size tier the run used.
    pub tier: String,
    /// Workload results by name.
    pub workloads: BTreeMap<String, WorkloadResult>,
}

/// The outcome of diffing two reports.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Hard metrics that differ from the baseline or are missing: exit
    /// non-zero.
    pub failures: Vec<String>,
    /// Soft-metric drifts beyond 25%: report only.
    pub warnings: Vec<String>,
    /// Number of metrics that matched (hard) or stayed within bound (soft).
    pub within: usize,
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

/// Raw observations of one workload run.
struct Measured {
    repeats: usize,
    units: u64,
    secs: f64,
    before: Snapshot,
    after: Snapshot,
    latency: HistogramSnapshot,
}

impl Measured {
    fn counter_delta(&self, name: &str) -> u64 {
        let b = self.before.counters.get(name).copied().unwrap_or(0);
        let a = self.after.counters.get(name).copied().unwrap_or(0);
        a.saturating_sub(b)
    }

    fn gauge(&self, name: &str) -> f64 {
        self.after.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// The metrics every workload shares: work units, throughput and the
    /// latency distribution of one repeat.
    fn base_metrics(&self, unit: &str) -> BTreeMap<String, Metric> {
        let mut m = BTreeMap::new();
        m.insert("work_units".into(), Metric::new(self.units as f64, unit, true));
        let throughput = if self.secs > 0.0 { self.units as f64 / self.secs } else { 0.0 };
        m.insert("throughput".into(), Metric::new(throughput, &format!("{unit}/s"), false));
        m.insert("latency_mean_us".into(), Metric::new(self.latency.mean(), "us", false));
        for (key, q) in
            [("latency_p50_us", 0.50), ("latency_p90_us", 0.90), ("latency_p99_us", 0.99)]
        {
            if let Some(v) = self.latency.quantile(q) {
                m.insert(key.into(), Metric::new(v, "us", false));
            }
        }
        m
    }

    /// Deterministic tensor-work counters (all hard).
    fn add_tensor_metrics(&self, m: &mut BTreeMap<String, Metric>) {
        let calls: u64 = ["nn", "nt", "tn", "tt"]
            .iter()
            .map(|v| self.counter_delta(&format!("tensor.matmul.calls.{v}")))
            .sum();
        m.insert(
            "flops".into(),
            Metric::new(self.counter_delta("tensor.matmul.flops") as f64, "FLOP", true),
        );
        m.insert("matmul_calls".into(), Metric::new(calls as f64, "calls", true));
        m.insert(
            "dispatch_parallel".into(),
            Metric::new(
                self.counter_delta("tensor.matmul.dispatch.parallel") as f64,
                "calls",
                true,
            ),
        );
        m.insert(
            "dispatch_serial".into(),
            Metric::new(
                self.counter_delta("tensor.matmul.dispatch.serial") as f64,
                "calls",
                true,
            ),
        );
        // Packed-kernel counters. Pack calls/bytes and executed MACs are
        // shape-deterministic (hard); tile counts depend on how rayon chunks
        // rows across threads, so they only warn (soft).
        m.insert(
            "pack_calls".into(),
            Metric::new(self.counter_delta("tensor.matmul.pack.calls") as f64, "calls", true),
        );
        m.insert(
            "pack_bytes".into(),
            Metric::new(self.counter_delta("tensor.matmul.pack.bytes") as f64, "bytes", true),
        );
        m.insert(
            "kernel_macs".into(),
            Metric::new(self.counter_delta("tensor.matmul.kernel.macs") as f64, "MAC", true),
        );
        m.insert(
            "kernel_tiles".into(),
            Metric::new(
                self.counter_delta("tensor.matmul.kernel.tiles") as f64,
                "tiles",
                false,
            ),
        );
        m.insert(
            "kernel_direct".into(),
            Metric::new(
                self.counter_delta("tensor.matmul.kernel.direct") as f64,
                "calls",
                true,
            ),
        );
    }

    /// Peak-memory watermarks accumulated during the workload. Tape and
    /// parameter peaks are shape-deterministic (hard); the scratch-pool
    /// peak depends on thread scheduling (soft).
    fn add_memory_metrics(&self, m: &mut BTreeMap<String, Metric>) {
        m.insert(
            "tape_peak_bytes".into(),
            Metric::new(self.gauge("tensor.graph.tape_bytes.peak"), "bytes", true),
        );
        m.insert(
            "scratch_peak_bytes".into(),
            Metric::new(self.gauge("tensor.scratch.bytes_pooled.peak"), "bytes", false),
        );
    }
}

/// Runs `work` `warmup + repeats` times; the timed repeats land in the
/// `bench.<name>.us` histogram (visible to `--metrics-out`) and the
/// counter/gauge deltas around them are captured. `work` returns the
/// number of work units it performed.
fn measure(
    name: &str,
    warmup: usize,
    repeats: usize,
    mut work: impl FnMut() -> u64,
) -> Measured {
    for _ in 0..warmup {
        work();
    }
    // Re-arm the high-watermark gauges so peaks are per-workload. A plain
    // `set(0)` (never `Registry::reset`) keeps every cached macro handle
    // attached to the live gauge.
    for g in PEAK_GAUGES {
        registry().gauge(g).set(0.0);
    }
    let hist_name = format!("bench.{name}.us");
    let hist = registry().histogram(&hist_name);
    let before = snapshot();
    let mut units = 0u64;
    let t0 = Instant::now();
    for _ in 0..repeats {
        let r0 = Instant::now();
        units += work();
        hist.observe(r0.elapsed().as_secs_f64() * 1e6);
    }
    let secs = t0.elapsed().as_secs_f64();
    let after = snapshot();
    let latency = hist.snapshot();
    Measured { repeats, units, secs, before, after, latency }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Deterministic non-random tensor fill (benchmarks must not consume RNG).
fn fill_tensor(rows: usize, cols: usize, salt: usize) -> Tensor {
    let data: Vec<f32> =
        (0..rows * cols).map(|i| (((i + salt) % 17) as f32 - 8.0) * 0.125).collect();
    Tensor::from_vec(&[rows, cols], data)
}

/// One matmul variant at `dim × dim`: 4 products per repeat, throughput in
/// MFLOP (1e6 fused multiply-adds × 2).
fn bench_matmul(spec: &TierSpec, trans_a: bool, trans_b: bool, name: &str) -> WorkloadResult {
    let d = spec.matmul_dim;
    let a = fill_tensor(d, d, 1);
    let b = fill_tensor(d, d, 5);
    let mflop_per_rep = (4 * 2 * d * d * d) as u64 / 1_000_000;
    let measured = measure(name, spec.warmup, spec.matmul_reps, || {
        let mut sink = 0.0f32;
        for _ in 0..4 {
            sink += a.matmul(&b, trans_a, trans_b).data()[0];
        }
        std::hint::black_box(sink);
        mflop_per_rep.max(1)
    });
    let mut metrics = measured.base_metrics("MFLOP");
    measured.add_tensor_metrics(&mut metrics);
    WorkloadResult { repeats: measured.repeats, metrics }
}

/// Long-sequence fused attention, forward and backward: the nt/tt-heavy
/// shape (`softmax((Q Kᵀ)/√d) V` on a sequence twice the matmul dim) that
/// the packed kernels exist for. Work units are the two forward products'
/// MFLOPs; the backward's extra matmuls ride along in the time and in the
/// hard counters.
fn bench_attention(spec: &TierSpec) -> WorkloadResult {
    let seq = spec.matmul_dim * 2;
    let dim = (spec.matmul_dim / 2).max(8);
    let q = fill_tensor(seq, dim, 3);
    let k = fill_tensor(seq, dim, 9);
    let v = fill_tensor(seq, dim, 13);
    let scale = 1.0 / (dim as f32).sqrt();
    let mflop_per_rep = (2 * 2 * seq * seq * dim) as u64 / 1_000_000;
    let params = Params::new();
    let measured = measure("attention_fused", spec.warmup, spec.matmul_reps, || {
        let mut g = Graph::new(&params, false, 0);
        let qv = g.input(q.clone());
        let kv = g.input(k.clone());
        let vv = g.input(v.clone());
        let att = g.softmax_matmul_nt(qv, kv, scale, 1.0);
        let ctx = g.matmul(att, vv);
        let loss = g.sum_all(ctx);
        std::hint::black_box(g.backward(loss));
        mflop_per_rep.max(1)
    });
    let mut metrics = measured.base_metrics("MFLOP");
    measured.add_tensor_metrics(&mut metrics);
    measured.add_memory_metrics(&mut metrics);
    WorkloadResult { repeats: measured.repeats, metrics }
}

/// WordPiece tokenization over the corpus page texts; throughput in tokens.
fn bench_wordpiece(spec: &TierSpec, dataset: &Dataset, texts: &[String]) -> WorkloadResult {
    let measured = measure("wordpiece", spec.warmup, spec.tok_reps, || {
        let mut tokens = 0u64;
        for t in texts {
            tokens += dataset.tokenizer.encode(t).len() as u64;
        }
        tokens
    });
    let mut metrics = measured.base_metrics("tokens");
    metrics.insert("texts".into(), Metric::new(texts.len() as f64, "texts", true));
    WorkloadResult { repeats: measured.repeats, metrics }
}

/// End-to-end briefing of rendered HTML pages with a trained model.
fn bench_brief(spec: &TierSpec, briefer: &Briefer, htmls: &[String]) -> WorkloadResult {
    let measured = measure("brief_corpus", spec.warmup, spec.brief_reps, || {
        briefer.brief_corpus(htmls).iter().filter(|r| r.is_ok()).count() as u64
    });
    let mut metrics = measured.base_metrics("pages");
    measured.add_tensor_metrics(&mut metrics);
    measured.add_memory_metrics(&mut metrics);
    WorkloadResult { repeats: measured.repeats, metrics }
}

/// One training epoch (forward + backward + Adam) per repeat over a fixed
/// example slice. The model is built once and keeps evolving — the *work
/// shape* (and therefore every hard metric) is identical each repeat.
fn bench_train(spec: &TierSpec, dataset: &Dataset) -> WorkloadResult {
    let model_cfg = ModelConfig::scaled(dataset.tokenizer.vocab().len());
    let mut model = wb_core::JointModel::new(wb_core::JointVariant::JointWb, model_cfg, 11);
    let n = dataset.examples.len().min(8);
    let indices: Vec<usize> = (0..n).collect();
    let mut cfg = TrainConfig::scaled(1);
    cfg.batch_size = n.max(1);
    cfg.warmup = 1;
    let measured = measure("train_step", spec.warmup, spec.train_reps, || {
        wb_core::train(&mut model, &dataset.examples, &indices, cfg);
        n as u64
    });
    let mut metrics = measured.base_metrics("examples");
    measured.add_tensor_metrics(&mut metrics);
    measured.add_memory_metrics(&mut metrics);
    metrics.insert(
        "params_bytes".into(),
        Metric::new(measured.gauge("tensor.params.bytes"), "bytes", true),
    );
    WorkloadResult { repeats: measured.repeats, metrics }
}

/// Hits per macro in the per-hit cost cases of [`bench_obs_overhead`].
const OBS_HITS: u32 = 100_000;

/// Mean wall time of one call of `hit`, in nanoseconds.
fn per_hit_ns(mut hit: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..OBS_HITS {
        hit();
    }
    t0.elapsed().as_nanos() as f64 / f64::from(OBS_HITS)
}

/// The instrumentation cost bars: the per-hit cost of `counter!`,
/// `window_counter!`, `span!` and an unarmed `fault_point!`, and the
/// `brief_corpus` time with the profiler armed at 99 Hz and with
/// allocation tracking on, each against the plain run. The three brief
/// variants alternate within every repeat and each keeps its fastest
/// repeat, so machine drift hits all of them alike. Every metric is soft.
/// Runs last: it leaves the profiler disarmed and allocation tracking as
/// it found it.
fn bench_obs_overhead(spec: &TierSpec, briefer: &Briefer, htmls: &[String]) -> WorkloadResult {
    let mut metrics = BTreeMap::new();
    let mut soft = |key: &str, value: f64, unit: &str| {
        metrics.insert(key.to_string(), Metric::new(value, unit, false));
    };
    soft("counter_ns", per_hit_ns(|| wb_obs::counter!("bench.obs.counter")), "ns");
    soft(
        "window_counter_ns",
        per_hit_ns(|| wb_obs::window_counter!("bench.obs.window_counter")),
        "ns",
    );
    soft("span_ns", per_hit_ns(|| drop(wb_obs::span!("bench.obs.span"))), "ns");
    soft(
        "fault_point_unarmed_ns",
        per_hit_ns(|| {
            std::hint::black_box(wb_chaos::fault_point!("bench.chaos.unarmed"));
        }),
        "ns",
    );

    let brief_us = || {
        let t0 = Instant::now();
        std::hint::black_box(briefer.brief_corpus(htmls));
        t0.elapsed().as_secs_f64() * 1e6
    };
    let tracking = wb_obs::alloc::tracking();
    let (mut plain, mut profiled, mut tracked) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..spec.brief_reps {
        wb_obs::alloc::set_tracking(false);
        plain = plain.min(brief_us());
        let options = wb_obs::profile::Options { hz: 99, mode: wb_obs::profile::Mode::Wall };
        if let Ok(recorder) = wb_obs::profile::start(options) {
            profiled = profiled.min(brief_us());
            recorder.stop();
        }
        wb_obs::alloc::set_tracking(true);
        tracked = tracked.min(brief_us());
    }
    wb_obs::alloc::set_tracking(tracking);
    let overhead_pct = |us: f64| 100.0 * (us - plain) / plain;
    soft("brief_us", plain, "us");
    // Absent when the profiler cannot arm (compiled out, or a capture is
    // already running); the gate then only warns about the missing metric.
    if profiled < f64::MAX {
        soft("brief_profiler_99hz_us", profiled, "us");
        soft("profiler_overhead_pct", overhead_pct(profiled), "%");
    }
    soft("brief_alloc_track_us", tracked, "us");
    soft("alloc_track_overhead_pct", overhead_pct(tracked), "%");
    WorkloadResult { repeats: spec.brief_reps, metrics }
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

fn bench_dataset_config(spec: &TierSpec) -> DatasetConfig {
    let mut cfg = DatasetConfig::tiny();
    cfg.subjects_per_family = spec.subjects;
    cfg.pages_per_topic = spec.pages_per_topic;
    cfg.seed = 7;
    cfg
}

/// Runs every workload at `tier` and assembles the report. Progress goes
/// to stderr; nothing here reads RNG outside the seeded corpus/model setup.
pub fn run(tier: Tier, label: &str) -> BenchReport {
    let spec = tier.spec();
    let mut workloads = BTreeMap::new();

    eprintln!("[bench] tier {}: matmul {1}×{1}", tier.name(), spec.matmul_dim);
    for (ta, tb, name) in [
        (false, false, "matmul_nn"),
        (false, true, "matmul_nt"),
        (true, false, "matmul_tn"),
        (true, true, "matmul_tt"),
    ] {
        workloads.insert(name.to_string(), bench_matmul(&spec, ta, tb, name));
    }

    eprintln!(
        "[bench] attention_fused: seq {} × dim {}",
        spec.matmul_dim * 2,
        (spec.matmul_dim / 2).max(8)
    );
    workloads.insert("attention_fused".into(), bench_attention(&spec));

    eprintln!(
        "[bench] corpus: {} subjects × {} pages/topic",
        spec.subjects, spec.pages_per_topic
    );
    let dataset = Dataset::generate(&bench_dataset_config(&spec));
    // Surface texts for the tokenizer workload: raw sentences, no specials.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(31);
    let topics = dataset.taxonomy.topics();
    let mut texts = Vec::new();
    let mut htmls = Vec::new();
    for i in 0..spec.brief_pages {
        let topic = &topics[i % topics.len()];
        let page = generate_page(topic, PageConfig::default(), &mut rng);
        texts.push(page.sentences.iter().map(|s| s.text()).collect::<Vec<_>>().join(" "));
        htmls.push(page.dom.to_html());
    }

    eprintln!("[bench] wordpiece over {} texts", texts.len());
    workloads.insert("wordpiece".into(), bench_wordpiece(&spec, &dataset, &texts));

    eprintln!("[bench] training a briefer ({} epochs) for brief_corpus", spec.setup_epochs);
    let mut tc = TrainConfig::scaled(spec.setup_epochs);
    tc.lr = 0.02;
    let model_cfg = ModelConfig::scaled(dataset.tokenizer.vocab().len());
    let briefer = Briefer::train_with(&dataset, model_cfg, tc, 7);
    eprintln!("[bench] brief_corpus over {} pages", htmls.len());
    workloads.insert("brief_corpus".into(), bench_brief(&spec, &briefer, &htmls));

    eprintln!("[bench] train_step");
    workloads.insert("train_step".into(), bench_train(&spec, &dataset));

    eprintln!("[bench] obs_overhead");
    workloads.insert("obs_overhead".into(), bench_obs_overhead(&spec, &briefer, &htmls));

    BenchReport {
        schema: SCHEMA.to_string(),
        label: label.to_string(),
        tier: tier.name().to_string(),
        env: env_fingerprint(),
        workloads,
    }
}

/// The environment fingerprint stored in every report: enough to explain
/// "why did the soft metrics move" when comparing files across machines.
pub fn env_fingerprint() -> BTreeMap<String, String> {
    let mut env = BTreeMap::new();
    env.insert("os".into(), std::env::consts::OS.to_string());
    env.insert("arch".into(), std::env::consts::ARCH.to_string());
    env.insert("threads".into(), rayon::current_num_threads().to_string());
    env.insert(
        "profile".into(),
        if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
    );
    env.insert("version".into(), env!("CARGO_PKG_VERSION").to_string());
    if let Ok(scale) = std::env::var("WB_SCALE") {
        env.insert("wb_scale".into(), scale);
    }
    env
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

impl BenchReport {
    /// Renders the report as deterministic JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("a bench report serialises")
    }

    /// Parses a report written by [`BenchReport::to_json`].
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let report: BenchReport = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if report.schema != SCHEMA {
            return Err(format!(
                "unsupported bench schema `{}` (expected {SCHEMA})",
                report.schema
            ));
        }
        Ok(report)
    }

    /// Writes the report to `path`.
    pub fn save(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("cannot write {path}: {e}"))
    }

    /// Loads a report from `path`.
    pub fn load(path: &str) -> Result<BenchReport, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::from_json(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// A human-readable summary table of the report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "bench `{}` (tier {}, {} threads, {} build)\n",
            self.label,
            self.tier,
            self.env.get("threads").map(String::as_str).unwrap_or("?"),
            self.env.get("profile").map(String::as_str).unwrap_or("?"),
        ));
        for (name, w) in &self.workloads {
            out.push_str(&format!("  {name} (×{}):\n", w.repeats));
            for (k, m) in &w.metrics {
                let tag = if m.hard { "hard" } else { "soft" };
                out.push_str(&format!("    {k:<20} {:>16.3} {:<8} [{tag}]\n", m.value, m.unit));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Baseline comparison
// ---------------------------------------------------------------------------

/// Soft-metric drift, in percent, above which [`compare`] warns: the 25%
/// end-to-end bound of the repository's benchmark.
const SOFT_WARN_PCT: f64 = 25.0;

/// Symmetric relative drift of `current` vs `base`, in percent.
fn drift_pct(base: f64, current: f64) -> f64 {
    if base == 0.0 && current == 0.0 {
        return 0.0;
    }
    100.0 * (current - base).abs() / base.abs().max(1e-12)
}

/// Diffs `current` against `baseline` metric by metric. A hard metric that
/// differs at all (or is missing) is a failure; a soft metric drifting more
/// than 25% is a warning. Extra workloads/metrics in `current` are ignored
/// — a new commit may legitimately add instrumentation.
pub fn compare(baseline: &BenchReport, current: &BenchReport) -> Comparison {
    let mut cmp = Comparison::default();
    // Dispatch counts are invariant across pools with >1 thread but flip
    // at the 1↔N boundary, so flag fingerprint disagreement up front —
    // it explains any dispatch failures below.
    let (bt, ct) = (baseline.env.get("threads"), current.env.get("threads"));
    if bt != ct {
        cmp.warnings.push(format!(
            "env/threads: baseline ran with {} threads, current with {} — \
             dispatch counts are only comparable between multi-threaded pools",
            bt.map(String::as_str).unwrap_or("?"),
            ct.map(String::as_str).unwrap_or("?")
        ));
    }
    for (name, base_wl) in &baseline.workloads {
        let Some(cur_wl) = current.workloads.get(name) else {
            cmp.failures.push(format!("workload `{name}` missing from current run"));
            continue;
        };
        for (key, base_m) in &base_wl.metrics {
            let Some(cur_m) = cur_wl.metrics.get(key) else {
                let msg = format!("{name}/{key}: metric missing from current run");
                if base_m.hard {
                    cmp.failures.push(msg);
                } else {
                    cmp.warnings.push(msg);
                }
                continue;
            };
            let pct = drift_pct(base_m.value, cur_m.value);
            if base_m.hard && cur_m.value != base_m.value {
                cmp.failures.push(format!(
                    "{name}/{key}: {} -> {} {} (hard metrics must match exactly)",
                    base_m.value, cur_m.value, cur_m.unit
                ));
            } else if !base_m.hard && pct > SOFT_WARN_PCT {
                cmp.warnings.push(format!(
                    "{name}/{key}: {:.3} -> {:.3} {} ({pct:.1}% drift > {SOFT_WARN_PCT}%)",
                    base_m.value, cur_m.value, cur_m.unit
                ));
            } else {
                cmp.within += 1;
            }
        }
    }
    cmp
}

// ---------------------------------------------------------------------------
// CLI driver (`wb bench`; `wb loadgen` shares the baseline gate)
// ---------------------------------------------------------------------------

/// Options of one `wb bench` invocation.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Use the quick (CI) tier regardless of `WB_SCALE`.
    pub quick: bool,
    /// Report label (also the default output filename suffix).
    pub label: String,
    /// Output path for the report (`None` → `BENCH_<label>.json`).
    pub out: Option<String>,
    /// Baseline report to diff against, if any.
    pub baseline: Option<String>,
    /// Compare an *existing* report file instead of running workloads.
    pub compare_only: Option<String>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            quick: false,
            label: "local".into(),
            out: None,
            baseline: None,
            compare_only: None,
        }
    }
}

/// Runs the bench CLI: measures (or loads) a report, optionally diffs it
/// against a baseline. Returns the process exit code — `1` when a hard
/// metric regressed (the caller exits directly, bypassing usage errors).
pub fn run_cli(opts: &CliOptions) -> Result<i32, String> {
    let report = match &opts.compare_only {
        Some(path) => BenchReport::load(path)?,
        None => {
            let report = run(Tier::resolve(opts.quick), &opts.label);
            let out = opts.out.clone().unwrap_or_else(|| format!("BENCH_{}.json", opts.label));
            report.save(&out)?;
            println!("wrote {out}");
            report
        }
    };
    print!("{}", report.render());
    match &opts.baseline {
        Some(path) => gate(&report, path),
        None => Ok(0),
    }
}

/// Diffs `report` against the baseline report at `baseline_path`, prints
/// every warning and failure plus a summary line, and returns the exit
/// code: `1` when a hard metric differs, else `0`.
pub fn gate(report: &BenchReport, baseline_path: &str) -> Result<i32, String> {
    let baseline = BenchReport::load(baseline_path)?;
    let cmp = compare(&baseline, report);
    for w in &cmp.warnings {
        println!("warn: {w}");
    }
    for f in &cmp.failures {
        println!("FAIL: {f}");
    }
    println!(
        "baseline {}: {} match, {} warnings, {} failures",
        baseline.label,
        cmp.within,
        cmp.warnings.len(),
        cmp.failures.len()
    );
    Ok(if cmp.failures.is_empty() { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_report(flops: f64, throughput: f64) -> BenchReport {
        let mut metrics = BTreeMap::new();
        metrics.insert("flops".into(), Metric::new(flops, "FLOP", true));
        metrics.insert("throughput".into(), Metric::new(throughput, "MFLOP/s", false));
        let mut workloads = BTreeMap::new();
        workloads.insert("matmul_nn".into(), WorkloadResult { repeats: 3, metrics });
        BenchReport {
            schema: SCHEMA.to_string(),
            label: "test".into(),
            tier: "quick".into(),
            env: env_fingerprint(),
            workloads,
        }
    }

    #[test]
    fn tiers_scale_monotonically() {
        let dims: Vec<usize> = [Tier::Tiny, Tier::Quick, Tier::Small, Tier::Full]
            .iter()
            .map(|t| t.spec().matmul_dim)
            .collect();
        assert!(dims.windows(2).all(|w| w[0] < w[1]), "{dims:?}");
        assert_eq!(Tier::resolve(true), Tier::Quick);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = toy_report(1234.0, 56.78);
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // Deterministic rendering: render(parse(render(x))) == render(x).
        assert_eq!(parsed.to_json(), r.to_json());
    }

    #[test]
    fn from_json_rejects_wrong_schema() {
        let text = toy_report(1.0, 1.0).to_json().replace(SCHEMA, "wb-bench-v999");
        let err = BenchReport::from_json(&text).unwrap_err();
        assert!(err.contains("unsupported bench schema"), "{err}");
    }

    #[test]
    fn compare_splits_hard_failures_from_soft_warnings() {
        let base = toy_report(1000.0, 100.0);
        // Identical runs: everything matches.
        let same = compare(&base, &base.clone());
        assert!(same.failures.is_empty() && same.warnings.is_empty());
        assert_eq!(same.within, 2);
        // Hard drift fails; soft drift only warns.
        let drifted = compare(&base, &toy_report(1200.0, 50.0));
        assert_eq!(drifted.failures.len(), 1, "{:?}", drifted.failures);
        assert!(drifted.failures[0].contains("matmul_nn/flops"));
        assert_eq!(drifted.warnings.len(), 1, "{:?}", drifted.warnings);
        assert!(drifted.warnings[0].contains("throughput"));
        // A hard metric one unit off fails; soft drift inside 25% passes.
        let off_by_one = compare(&base, &toy_report(1001.0, 120.0));
        assert_eq!(off_by_one.failures.len(), 1, "{:?}", off_by_one.failures);
        assert!(off_by_one.warnings.is_empty(), "{:?}", off_by_one.warnings);
        // A missing workload is always a failure.
        let empty = BenchReport { workloads: BTreeMap::new(), ..base.clone() };
        assert_eq!(compare(&base, &empty).failures.len(), 1);
    }

    #[test]
    fn drift_is_symmetric_and_zero_safe() {
        assert_eq!(drift_pct(0.0, 0.0), 0.0);
        assert!((drift_pct(100.0, 110.0) - 10.0).abs() < 1e-9);
        assert!((drift_pct(100.0, 90.0) - 10.0).abs() < 1e-9);
        // Appearing from zero is an unbounded drift.
        assert!(drift_pct(0.0, 1.0) > 1e6);
    }

    #[test]
    fn measure_captures_counters_latency_and_work() {
        let a = fill_tensor(16, 16, 0);
        let b = fill_tensor(16, 16, 3);
        let m = measure("test.perf.unit", 1, 3, || {
            std::hint::black_box(a.matmul(&b, false, false).data()[0]);
            7
        });
        assert_eq!(m.repeats, 3);
        assert_eq!(m.units, 21);
        // Three timed repeats × one matmul, at least (other tests share
        // the global registry, so deltas are lower bounds).
        assert!(m.counter_delta("tensor.matmul.flops") >= 3 * 2 * 16 * 16 * 16);
        let metrics = m.base_metrics("widgets");
        assert_eq!(metrics["work_units"].value, 21.0);
        assert!(metrics["work_units"].hard);
        assert!(metrics["throughput"].value > 0.0);
        assert!(!metrics["throughput"].hard);
        assert!(metrics.contains_key("latency_p50_us"));
        assert!(metrics.contains_key("latency_p99_us"));
    }
}
