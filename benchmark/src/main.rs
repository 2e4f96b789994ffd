//! `wb-benchmark`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! wb-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run sets up (trains the model, generates the inputs from `--seed`,
//! starts the server) three times and reports the median set-up time,
//! measures one workload for `--seconds` by driving the real `wb` binary
//! found next to this executable, and checks every output against the
//! in-process reference. With `--trace 0` the last stdout line carries
//! the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics, from a separate traced in-process pass plus the program's own
//! stage reports. A summary for people goes to stderr. The exit code is
//! nonzero when any check fails or the run cannot complete.
//!
//! See README.md beside this crate for the workloads and the metrics.

mod client;
mod host;
mod inputs;
mod metrics;
mod oracle;
mod procs;
mod stats;
mod trace;
mod workloads;

use std::fs::File;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Ctx, Outcome, Workload};

const USAGE: &str = "usage: wb-benchmark --workload brief_cli|serve_miss|serve_hot|crawl_site \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Where runs keep their scratch files and traces, under the working
/// directory (the checkout root).
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (7, 10.0, false);
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} expects a value"));
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
                }
                "--seed" => seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace expects 0 or 1, got {v}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args { workload, seed, seconds, trace })
    }
}

/// This run's scratch directory; removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((line, correct)) => {
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(String, bool), String> {
    // The program under test and the in-process reference both use a
    // two-thread pool: thread count changes throughput, never outputs.
    std::env::set_var("RAYON_NUM_THREADS", "2");
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let wb = exe.with_file_name("wb");
    if !wb.is_file() {
        return Err(format!(
            "{} not found: build the wb binary next to this one",
            wb.display()
        ));
    }
    let dir = WorkDir(PathBuf::from(WORK_ROOT).join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    )));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    let log = dir.0.join("wb.stderr");
    let stderr = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
    let ctx = Ctx {
        wb,
        dir: dir.0.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        stderr,
    };
    let result = measure(&ctx, args);
    if result.is_err() {
        // Show what the program said before the run gave up.
        let said = std::fs::read_to_string(&log).unwrap_or_default();
        let tail: Vec<&str> = said.lines().rev().take(20).collect();
        for line in tail.into_iter().rev() {
            eprintln!("wb: {line}");
        }
    }
    result
}

fn measure(ctx: &Ctx, args: &Args) -> Result<(String, bool), String> {
    let w = args.workload;
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..workloads::SETUP_REPEATS {
        if let Some(p) = prepared.take() {
            workloads::Prepared::release(p)?;
        }
        let t0 = Instant::now();
        prepared = Some(workloads::setup(ctx, w)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (t0, stolen) = (Instant::now(), host::stolen_ms());
    let out = workloads::measure(ctx, w, prepared.expect("set-up ran"))?;
    let steal =
        host::steal_fraction(t0.elapsed().as_secs_f64() * 1e3, host::stolen_ms() - stolen);
    let mut latency = out.latency_ms.clone();
    stats::sort(&mut latency);

    eprintln!("workload {} · seed {} · {} s measured", w.name(), args.seed, args.seconds);
    eprintln!("  set-up runs (s): {setup_s:.3?}");
    eprintln!(
        "  output digest {} · attempted {} · failed {}",
        out.digest, out.attempted, out.failures.count
    );
    eprintln!(
        "  host steal {:.2}% of CPU time · {:.0}% of timed units clean",
        steal * 100.0,
        out.clean_share * 100.0
    );
    for f in &out.failures.first {
        eprintln!("  FAILED: {f}");
    }

    let (values, attempted, failed) = if ctx.trace {
        let (values, compared, mismatches) = layer_values(ctx, w, &out, &latency, steal)?;
        (values, out.attempted + compared, out.failures.count + mismatches)
    } else {
        let values = vec![
            ("setup_s", stats::median(&setup_s).expect("set-up ran")),
            ("pages_per_s", out.pages_per_s),
            ("latency_p10_ms", stats::nearest_rank(&latency, 0.1).expect("latency sampled")),
        ];
        (values, out.attempted, out.failures.count)
    };
    let declared = if ctx.trace { metrics::PER_LAYER } else { metrics::END_TO_END };
    for (name, unit) in declared {
        let v = values.iter().find(|(n, _)| n == name).map_or(f64::NAN, |(_, v)| *v);
        eprintln!("  {name:<34} {v:>14.4} {unit}");
    }
    let correct = failed == 0;
    Ok((metrics::result_line(correct, attempted, failed, declared, &values), correct))
}

/// The per-layer metrics: the traced pass over the workload's pages, the
/// latency tail, and the workload's serve or pipeline layers. Returns the
/// values, the pages cross-checked and the mismatches found.
fn layer_values(
    ctx: &Ctx,
    w: Workload,
    out: &Outcome,
    latency: &[f64],
    steal: f64,
) -> Result<(metrics::Values, usize, usize), String> {
    let model = ctx.dir.join("model.json");
    let mut loads = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        std::hint::black_box(oracle::load_briefer(&model)?);
        loads.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let pages: Vec<&str> = out.trace_pages.iter().map(String::as_str).collect();
    let pass = trace::run(&out.briefer, &pages, &out.observed, out.min_chunks);
    for m in pass.mismatches.iter().take(8) {
        eprintln!("  FAILED: {m}");
    }
    let t = &pass.totals;
    if t.pages == 0 {
        return Err("the traced pass found no page of the reported shape".to_string());
    }
    let file = PathBuf::from(WORK_ROOT).join(format!("{}.trace.json", w.name()));
    let doc = serde_json::Value::Obj(vec![
        ("workload".into(), serde_json::Value::Str(w.name().into())),
        ("seed".into(), serde_json::Value::Num(ctx.seed as f64)),
        ("spans".into(), trace::spans_json(&pass.spans)),
    ]);
    std::fs::write(&file, serde_json::to_string(&doc).expect("a value serialises"))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    eprintln!("  trace: {} spans in {}", pass.spans.len(), file.display());

    let pages = t.pages as f64;
    let chunks = t.chunks as f64;
    let layer_sum: f64 = t.layer_us.iter().sum();
    let per_page = [0, 1, 2, 3, 4].map(|i| t.layer_us[i] / pages);
    let tail_q = stats::tail_quantile(latency.len()).unwrap_or(0.5);
    let mut values = vec![
        ("html.parse_us", per_page[0]),
        ("html.visible_text_us", per_page[1]),
        ("text.split_us", per_page[2]),
        ("text.wordpiece_us", per_page[3]),
        ("joint.generate_us", per_page[4]),
        ("joint.tags_us", t.layer_us[5] / chunks),
        ("joint.sections_us", t.layer_us[6] / chunks),
        ("briefer.page_us", t.untraced_us / pages),
        (
            "briefer.unattributed_fraction",
            stats::ratio(t.untraced_us - layer_sum, t.untraced_us),
        ),
        (
            "obs.trace_overhead_fraction",
            stats::ratio(t.traced_us - t.untraced_us, t.untraced_us),
        ),
        ("text.chunks_per_page", chunks / pages),
        ("text.tokens_per_page", t.tokens as f64 / pages),
        ("text.truncated_tokens", t.truncated_tokens as f64 / pages),
        ("text.unk_fraction", stats::ratio(t.unk_tokens as f64, t.tokens as f64)),
        ("joint.encoder_passes_per_chunk", t.encoder_passes as f64 / chunks),
        ("tensor.flops_per_page", t.flops as f64 / pages),
        ("tensor.matmul_calls_per_page", t.matmul_calls as f64 / pages),
        ("tensor.tape_peak_bytes", t.tape_peak_bytes),
        ("core.checkpoint_load_ms", stats::median(&loads).expect("five loads")),
        ("e2e.latency_p50_ms", stats::nearest_rank(latency, 0.5).expect("latency sampled")),
        ("e2e.latency_tail_ms", stats::nearest_rank(latency, tail_q).expect("latency sampled")),
        ("e2e.latency_tail_pct", tail_q * 100.0),
        ("e2e.latency_samples", latency.len() as f64),
        ("e2e.rss_peak_mb", out.rss_mb),
        ("e2e.clean_fraction", out.clean_share),
        ("host.steal_fraction", steal),
    ];
    let path_layers = workloads::SERVE_LAYERS.iter().chain(&workloads::PIPELINE_LAYERS);
    for name in path_layers {
        let v = out.layers.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
        values.push((name, v));
    }
    Ok((values, pass.compared, pass.mismatches.len()))
}
