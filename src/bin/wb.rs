//! `wb` — the Webpage Briefing command line.
//!
//! ```text
//! wb generate --out ./corpus --subjects 2 --pages 6     # export a corpus
//! wb train --out model.json --epochs 12                 # train a briefer
//! wb brief --model model.json page.html                 # brief webpages
//! wb stats                                              # corpus statistics
//! wb report metrics.json                                # render a snapshot
//! wb report --diff before.json after.json               # metric deltas
//! wb top 127.0.0.1:8080                                 # live server view
//! ```
//!
//! Argument parsing is hand-rolled (no external CLI crate): every
//! subcommand takes `--flag value` options plus positional file paths.
//! Unknown flags are rejected at parse time with a did-you-mean
//! suggestion, so a typo such as `--epoch 5` can never silently swallow
//! its value. All subcommands accept the observability globals
//! `--log-level LEVEL`, `--metrics-out FILE` and `--trace-out FILE`
//! (see docs/OBSERVABILITY.md).

use rand::rngs::StdRng;
use rand::SeedableRng;
use webpage_briefing::core::{
    crawl_brief, Briefer, Checkpoint, CheckpointPolicy, ModelConfig, PipelineConfig,
    PipelineError, TrainConfig, TrainState,
};
use webpage_briefing::corpus::{
    export_pages, export_site, generate_page, generate_site, Dataset, DatasetConfig,
    PageConfig, SiteScenario, SiteSpecConfig, Taxonomy,
};
use webpage_briefing::text::{coverage, FrequencyTable};

/// Every allocation in the binary flows through the counting wrapper so
/// span-level allocation attribution (`--alloc-track on`, the
/// `obs.alloc.*` columns in `wb report`) can see it. With tracking off —
/// the default — the wrapper adds one relaxed atomic load per allocation,
/// and under the `off` feature it forwards straight to the system
/// allocator.
#[global_allocator]
static ALLOC: wb_obs::alloc::Counting = wb_obs::alloc::Counting;

const USAGE: &str = "\
wb — Automatic Webpage Briefing (ICDE 2021): hierarchical webpage summaries

USAGE:
    wb generate [--out DIR] [--subjects N] [--pages N] [--seed N]
                [--site DIR [--scenario NAME] [--site-pages N]]
    wb train    [--out FILE] [--epochs N] [--subjects N] [--pages N] [--seed N]
                [--state FILE] [--checkpoint-every N] [--resume]
    wb brief    [--model FILE] [--json] FILES...
    wb crawl-brief --site DIR [--model FILE] [--out FILE]
                [--dead-letter FILE] [--journal FILE] [--snapshot FILE]
                [--snapshot-every N] [--queue N] [--batch N]
                [--max-pages N] [--max-visited N] [--error-budget PCT]
                [--resume]
    wb serve    [--model FILE] [--addr HOST:PORT] [--workers N]
                [--replicas N] [--queue-capacity N] [--cache-capacity N]
                [--max-body-bytes N] [--request-timeout-ms N]
                [--max-conns N] [--max-requests-per-conn N]
                [--idle-timeout-ms N] [--breaker-threshold N]
                [--breaker-window-ms N] [--breaker-cooldown-ms N]
                [--access-log-sample N] [--slow-request-ms N]
    wb loadgen  ADDR [--requests N] [--concurrency N] [--rate R]
                [--pages N] [--slo-ms N] [--close] [--compare]
                [--no-warmup] [--label NAME] [--out FILE]
                [--baseline FILE]
    wb top      ADDR [--interval-ms N] [--once]
    wb profile  ADDR [--seconds N] [--hz N] [--mode wall|cpu]
                [--format collapsed|svg] [--out FILE]
    wb flame    IN.collapsed [--out FILE] [--title NAME]
    wb stats    [--subjects N] [--pages N]
    wb report   FILE
    wb report   --diff BEFORE.json AFTER.json
    wb bench    [--quick] [--label NAME] [--out FILE]
                [--baseline FILE] [REPORT.json]

SUBCOMMANDS:
    generate    Generate a synthetic labelled corpus and export HTML + JSON.
                With --site DIR it instead exports a crawlable on-disk
                website for `wb crawl-brief`; --scenario picks the
                hostility mix (clean, malformed, boilerplate, near-dup,
                mixed) and --site-pages its size
    train       Train a Joint-WB briefer and save a checkpoint; with
                --state it checkpoints training itself, and --resume
                continues a killed run byte-identically (docs/ROBUSTNESS.md)
    brief       Brief one or more HTML files with a trained checkpoint
    crawl-brief Crawl an on-disk website and stream briefs to a JSONL
                file through a staged, bounded-queue pipeline: pages
                that fail to parse, chunk or brief are quarantined to a
                dead-letter file instead of killing the run; an
                append-only journal plus periodic snapshots make a
                killed run `--resume` to byte-identical output; and
                --error-budget PCT aborts cleanly when too many pages
                quarantine (docs/ROBUSTNESS.md)
    serve       Serve briefs over HTTP: POST /brief (HTML in, JSON out),
                GET /healthz, GET /metrics (JSON or ?format=prometheus),
                GET /varz (windowed live view), POST /shutdown for a
                graceful stop that flushes --metrics-out/--trace-out;
                SIGINT and SIGTERM drain the same way. Repeated model
                failures trip a circuit breaker into cache-only serving
                (--breaker-*). --access-log-sample N logs every Nth
                request as structured JSON; requests slower than
                --slow-request-ms always log their stage breakdown.
                Connections are served by a poll(2) event loop with
                HTTP/1.1 keep-alive and pipelining (--max-conns,
                --max-requests-per-conn, --idle-timeout-ms); briefing
                shards over --replicas lanes, each with its own cache,
                queue, executors and breaker, consistent-hashed by page
                content. The event loop answers cache hits and control
                routes itself and submits each miss to its lane's queue:
                --workers N runs min(N, rayon threads) executors per
                lane, and --queue-capacity N bounds each lane's queue
                (a miss arriving at a full queue gets 503 + Retry-After)
    loadgen     Drive POST /brief load at a running server: closed loop
                (--concurrency connections back-to-back) or open loop
                (--rate req/s, latency from scheduled arrival), report
                throughput, p50/p90/p99 and --slo-ms attainment.
                --close disables keep-alive; --compare runs both modes
                and reports the keep-alive speedup. --out writes a
                wb-bench-v1 report (BENCH_serve.json) that
                --baseline gates like `wb bench`
    top         Poll a running server's /varz and render a live terminal
                dashboard: RPS, windowed percentiles, stage breakdown,
                queue depth, cache hit ratio and breaker state.
                --interval-ms sets the refresh (default 1000); --once
                prints a single frame and exits (scripts, CI smoke)
    profile     Capture a sampling profile from a running server's /pprof
                endpoint (wall-clock or on-CPU) and print or save it as
                collapsed stacks or a flamegraph SVG
    flame       Render a collapsed-stack file (from `wb profile` or
                /pprof?format=collapsed) into a standalone flamegraph SVG
    stats       Print statistics of a synthetic corpus
    report      Pretty-print a metrics snapshot written by --metrics-out;
                with --diff, print deltas and per-second rates between
                two snapshots of the same process
    bench       Run the perf-trajectory workloads, write BENCH_<label>.json
                and (with --baseline) fail when a hard metric differs

Options take either `--flag value` or `--flag=value`.

GLOBAL OPTIONS (accepted by every subcommand):
    --log-level LEVEL    Stderr log verbosity: off, error, warn, info,
                         debug or trace; also takes a WB_LOG-style filter
                         spec such as `warn,wb_tensor=trace`
    --metrics-out FILE   Write a JSON metrics snapshot on exit
    --trace-out FILE     Record span/counter events and write a Chrome
                         trace (chrome://tracing, Perfetto) on exit
    --faults SPEC        Arm deterministic fault injection, e.g.
                         `train.step=panic@nth(6);core.checkpoint.write=
                         error@prob(0.2,42)`; also read from WB_FAULTS
                         (see docs/ROBUSTNESS.md)
    --alloc-track MODE   `on` attributes allocation bytes/counts to the
                         enclosing span (the obs.alloc.* columns in
                         `wb report`); default `off`
";

/// Observability options shared by every subcommand.
const GLOBAL_OPTS: &[&str] =
    &["log-level", "metrics-out", "trace-out", "faults", "alloc-track"];

/// Minimal `--flag value` / `--switch` / positional parser.
///
/// Flags are validated while parsing: an unrecognised `--name` is an
/// error immediately (with a near-miss suggestion when one of the known
/// flags is close), rather than being treated as an option that consumes
/// the next token. The observability globals in [`GLOBAL_OPTS`] are
/// accepted everywhere in addition to `option_names`.
#[derive(Debug)]
struct Args {
    options: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Splits raw arguments; `option_names` lists `--flag value` options
    /// and `switch_names` lists valueless flags.
    fn parse(
        raw: &[String],
        option_names: &[&str],
        switch_names: &[&str],
    ) -> Result<Args, String> {
        let mut args =
            Args { options: Vec::new(), switches: Vec::new(), positional: Vec::new() };
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(body) = a.strip_prefix("--") {
                // Both `--flag value` and `--flag=value` are accepted; the
                // flag name is validated either way.
                let (name, inline) = match body.split_once('=') {
                    Some((n, v)) => (n, Some(v)),
                    None => (body, None),
                };
                if switch_names.contains(&name) {
                    if inline.is_some() {
                        return Err(format!("switch --{name} takes no value"));
                    }
                    args.switches.push(name.to_string());
                } else if option_names.contains(&name) || GLOBAL_OPTS.contains(&name) {
                    let value = match inline {
                        Some(v) => v.to_string(),
                        None => raw
                            .get(i + 1)
                            .ok_or_else(|| format!("option --{name} expects a value"))?
                            .clone(),
                    };
                    args.options.push((name.to_string(), value));
                    if inline.is_none() {
                        i += 1;
                    }
                } else {
                    let known: Vec<&str> = option_names
                        .iter()
                        .chain(switch_names)
                        .chain(GLOBAL_OPTS)
                        .copied()
                        .collect();
                    let mut msg = format!("unknown option --{name}");
                    if let Some(best) = nearest_flag(name, &known) {
                        msg.push_str(&format!(" (did you mean --{best}?)"));
                    }
                    return Err(msg);
                }
            } else {
                args.positional.push(a.clone());
            }
            i += 1;
        }
        Ok(args)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.options.iter().rev().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    fn get_str(&self, name: &str, default: &str) -> String {
        self.get(name).unwrap_or(default).to_string()
    }

    fn get_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| format!("option --{name} has invalid value `{v}`"))
            }
        }
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// The known flag closest to `typo`, if any is close enough to suggest.
///
/// "Close enough" is an edit distance of at most 2, or at most a third
/// of the typo's length for long names — tight enough that suggestions
/// stay plausible (`--epoch` → `--epochs`) without matching noise.
fn nearest_flag<'a>(typo: &str, known: &[&'a str]) -> Option<&'a str> {
    known
        .iter()
        .map(|k| (edit_distance(typo, k), *k))
        .min()
        .filter(|&(d, _)| d <= 2.max(typo.len() / 3))
        .map(|(_, k)| k)
}

/// Levenshtein edit distance over bytes (flag names are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Exit-time observability outputs requested by the global flags.
struct Globals {
    metrics_out: Option<String>,
    trace_out: Option<String>,
}

/// Applies `--log-level`, arms trace collection when `--trace-out` was
/// given, and returns the output paths to flush on exit.
fn apply_globals(args: &Args) -> Result<Globals, String> {
    if let Some(spec) = args.get("log-level") {
        if let Some(level) = wb_obs::log::Level::parse(spec) {
            wb_obs::log::set_level(level);
        } else if spec.contains('=') || spec.contains(',') {
            wb_obs::log::set_filter(spec);
        } else {
            return Err(format!(
                "option --log-level has invalid value `{spec}` \
                 (expected off, error, warn, info, debug or trace)"
            ));
        }
    }
    if let Some(spec) = args.get("faults") {
        wb_chaos::arm_str(spec).map_err(|e| format!("option --faults: {e}"))?;
    } else {
        wb_chaos::arm_from_env().map_err(|e| format!("WB_FAULTS: {e}"))?;
    }
    match args.get("alloc-track") {
        None | Some("off") => {}
        Some("on") => wb_obs::alloc::set_tracking(true),
        Some(v) => {
            return Err(format!(
                "option --alloc-track has invalid value `{v}` (expected on or off)"
            ))
        }
    }
    let globals = Globals {
        metrics_out: args.get("metrics-out").map(str::to_string),
        trace_out: args.get("trace-out").map(str::to_string),
    };
    if globals.trace_out.is_some() {
        wb_obs::trace::start();
    }
    Ok(globals)
}

/// Writes the metrics snapshot and/or Chrome trace when requested.
///
/// Both writes get bounded retry with backoff: losing a whole run's
/// telemetry to one transient filesystem error is the wrong trade.
fn write_outputs(globals: &Globals) -> Result<(), String> {
    if let Some(path) = &globals.metrics_out {
        wb_obs::retry::retry(
            "metrics snapshot write",
            wb_obs::retry::BackoffConfig::default(),
            || {
                if let Some(f) = wb_chaos::fault_point!("cli.metrics.write") {
                    return Err(f.io_error("cli.metrics.write"));
                }
                // Snapshot inside the attempt so the written file includes
                // any retries this very write needed.
                std::fs::write(path, wb_obs::metrics::snapshot().to_json())
            },
        )
        .map_err(|e| format!("cannot write {path}: {e}"))?;
        wb_obs::info!("wrote metrics snapshot to {path}");
    }
    if let Some(path) = &globals.trace_out {
        wb_obs::retry::retry("trace write", wb_obs::retry::BackoffConfig::default(), || {
            if let Some(f) = wb_chaos::fault_point!("cli.trace.write") {
                return Err(f.io_error("cli.trace.write"));
            }
            wb_obs::trace::write_chrome(path)
        })
        .map_err(|e| format!("cannot write {path}: {e}"))?;
        wb_obs::info!("wrote Chrome trace to {path} (open in chrome://tracing or Perfetto)");
    }
    Ok(())
}

fn main() {
    // Pin the observability epoch before any work, so snapshot uptimes
    // and trace timestamps count from process start.
    let _ = wb_obs::window::epoch();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") || raw.is_empty() {
        print!("{USAGE}");
        if raw.is_empty() {
            std::process::exit(2);
        }
        return;
    }
    let result = match raw[0].as_str() {
        "generate" => cmd_generate(&raw[1..]),
        "train" => cmd_train(&raw[1..]),
        "brief" => cmd_brief(&raw[1..]),
        "crawl-brief" => cmd_crawl_brief(&raw[1..]),
        "serve" => cmd_serve(&raw[1..]),
        "loadgen" => cmd_loadgen(&raw[1..]),
        "top" => cmd_top(&raw[1..]),
        "profile" => cmd_profile(&raw[1..]),
        "flame" => cmd_flame(&raw[1..]),
        "stats" => cmd_stats(&raw[1..]),
        "report" => cmd_report(&raw[1..]),
        "bench" => cmd_bench(&raw[1..]),
        other => Err(format!("unknown subcommand `{other}`")),
    };
    if let Err(e) = result {
        eprintln!("error: {e}\n\n{USAGE}");
        std::process::exit(2);
    }
}

fn dataset_config(subjects: usize, pages: usize, seed: u64) -> DatasetConfig {
    let mut cfg = DatasetConfig::tiny();
    cfg.subjects_per_family = subjects;
    cfg.pages_per_topic = pages;
    cfg.seed = seed;
    cfg
}

fn cmd_generate(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["out", "subjects", "pages", "seed", "site", "scenario", "site-pages"],
        &[],
    )?;
    let globals = apply_globals(&args)?;
    let out = args.get_str("out", "./wb-corpus");
    let subjects: usize = args.get_num("subjects", 2)?;
    let pages: usize = args.get_num("pages", 6)?;
    let seed: u64 = args.get_num("seed", 7)?;

    // `--site DIR` switches from corpus export to website export: a
    // crawlable on-disk site for `wb crawl-brief`, optionally hostile.
    if let Some(site_dir) = args.get("site") {
        let scenario_name = args.get_str("scenario", "clean");
        let scenario = SiteScenario::parse(&scenario_name).ok_or_else(|| {
            format!(
                "option --scenario has invalid value `{scenario_name}` (expected one of {})",
                SiteScenario::NAMES.join(", ")
            )
        })?;
        let mut cfg = SiteSpecConfig::default();
        cfg.pages = args.get_num("site-pages", cfg.pages)?;
        cfg.scenario = scenario;
        let taxonomy = Taxonomy::build(seed, subjects.max(1));
        let topic = taxonomy
            .topics()
            .first()
            .ok_or_else(|| "taxonomy produced no topics".to_string())?;
        let mut rng = StdRng::seed_from_u64(seed);
        let site = generate_site(topic, cfg, &mut rng);
        let files = export_site(site_dir, &site).map_err(|e| format!("export site: {e}"))?;
        println!(
            "Wrote {files} pages ({} hostile) of a {scenario_name} site to {site_dir}",
            site.hostile.len()
        );
        return write_outputs(&globals);
    }

    let taxonomy = Taxonomy::build(seed, subjects);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records = Vec::new();
    for topic in taxonomy.topics() {
        for _ in 0..pages {
            records.push((
                generate_page(topic, PageConfig::default(), &mut rng),
                topic.phrase.clone(),
            ));
        }
    }
    export_pages(&out, &records).map_err(|e| format!("export corpus: {e}"))?;
    println!("Wrote {} labelled pages over {} topics to {out}", records.len(), taxonomy.len());
    write_outputs(&globals)
}

fn cmd_train(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &["out", "epochs", "subjects", "pages", "seed", "state", "checkpoint-every"],
        &["resume"],
    )?;
    let globals = apply_globals(&args)?;
    let out = args.get_str("out", "./wb-model.json");
    let epochs: usize = args.get_num("epochs", 15)?;
    let subjects: usize = args.get_num("subjects", 2)?;
    let pages: usize = args.get_num("pages", 8)?;
    let seed: u64 = args.get_num("seed", 7)?;
    let state = args.get("state").map(str::to_string);
    let every: usize = args.get_num("checkpoint-every", 0)?;
    let resume = args.has("resume");
    if resume && state.is_none() {
        return Err(
            "--resume needs --state FILE (where the run left its training state)".to_string()
        );
    }

    println!("Generating corpus ({} topics × {pages} pages)…", subjects * 8);
    let dataset = Dataset::generate(&dataset_config(subjects, pages, seed));
    println!("Training Joint-WB for {epochs} epochs…");
    let mut tc = TrainConfig::scaled(epochs);
    tc.lr = 0.01;
    tc.decay = 0.98;
    let model_cfg = ModelConfig::scaled(dataset.tokenizer.vocab().len());
    let briefer = match &state {
        None => Briefer::train_with(&dataset, model_cfg, tc, seed),
        Some(state_path) => {
            // Crash-safe path: checkpoint training state as we go and, on
            // --resume, continue exactly where the previous run stopped.
            let policy =
                CheckpointPolicy { state_path: state_path.into(), every_batches: every };
            let resume_state = if resume {
                let s =
                    TrainState::load(state_path).map_err(|e| format!("cannot resume: {e}"))?;
                println!(
                    "Resuming from {state_path} (epoch {}, batch {})…",
                    s.epoch, s.batches_done
                );
                Some(s)
            } else {
                None
            };
            let (briefer, _stats) = Briefer::train_resumable_with(
                &dataset,
                model_cfg,
                tc,
                seed,
                Some(&policy),
                resume_state,
            )
            .map_err(|e| format!("training failed: {e}"))?;
            briefer
        }
    };
    briefer
        .checkpoint(&dataset.tokenizer)
        .save(&out)
        .map_err(|e| format!("save checkpoint: {e}"))?;
    println!("Saved checkpoint to {out}");
    write_outputs(&globals)
}

/// Loads the briefer saved at `model`. A missing or malformed file and
/// parameters that do not fit the checkpoint's own architecture are all
/// `cannot load checkpoint` errors (exit 2).
fn load_briefer(model: &str) -> Result<Briefer, String> {
    let cannot = |e: &dyn std::fmt::Display| format!("cannot load checkpoint {model}: {e}");
    let ckpt = Checkpoint::load(model).map_err(|e| cannot(&e))?;
    Briefer::from_checkpoint(&ckpt).map_err(|e| cannot(&e))
}

fn cmd_brief(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["model"], &["json"])?;
    let globals = apply_globals(&args)?;
    let model = args.get_str("model", "./wb-model.json");
    let json = args.has("json");
    let files = &args.positional;
    if files.is_empty() {
        return Err("brief expects at least one HTML file".to_string());
    }

    let briefer = load_briefer(&model)?;
    let htmls: Vec<String> = files
        .iter()
        .map(|file| {
            std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    // Pages fan out over the rayon pool; output order matches input order.
    let mut briefed = 0usize;
    let mut failed = 0usize;
    for (file, result) in files.iter().zip(briefer.brief_corpus(&htmls)) {
        match result {
            Ok(b) => {
                briefed += 1;
                println!("=== {file} ===");
                if json {
                    println!("{}", serde_json::to_string_pretty(&b).expect("brief serialises"));
                } else {
                    print!("{}", b.render());
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("=== {file} ===\ncould not brief: {e}");
            }
        }
    }
    write_outputs(&globals)?;
    if briefed == 0 {
        // Every page failed: that is a diagnosed runtime failure, not a
        // usage error — exit 1 (like a bench regression), after the
        // observability outputs have been flushed.
        eprintln!("error: no page briefed successfully ({failed} failed)");
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_crawl_brief(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &[
            "site",
            "model",
            "out",
            "dead-letter",
            "journal",
            "snapshot",
            "snapshot-every",
            "queue",
            "batch",
            "max-pages",
            "max-visited",
            "error-budget",
        ],
        &["resume"],
    )?;
    let globals = apply_globals(&args)?;
    if let Some(extra) = args.positional.first() {
        return Err(format!("crawl-brief takes no positional arguments (got `{extra}`)"));
    }
    let site = args.get("site").ok_or_else(|| {
        "crawl-brief needs --site DIR (an on-disk website, e.g. from \
         `wb generate --site`)"
            .to_string()
    })?;
    let model = args.get_str("model", "./wb-model.json");
    let out = args.get_str("out", "./briefs.jsonl");
    // The journal, snapshot and dead-letter files default to sidecars of
    // --out so one flag names the whole resumable run.
    let stem = out.strip_suffix(".jsonl").unwrap_or(&out);
    let defaults = PipelineConfig::default();
    let cfg = PipelineConfig {
        site_dir: site.into(),
        out_path: out.clone().into(),
        dead_letter_path: args.get_str("dead-letter", &format!("{stem}.dead.jsonl")).into(),
        journal_path: args.get_str("journal", &format!("{stem}.journal")).into(),
        snapshot_path: args.get_str("snapshot", &format!("{stem}.snapshot")).into(),
        snapshot_every: args.get_num("snapshot-every", defaults.snapshot_every)?,
        queue_depth: args.get_num("queue", defaults.queue_depth)?,
        batch: args.get_num("batch", defaults.batch)?,
        max_pages: args.get_num("max-pages", defaults.max_pages)?,
        max_visited: args.get_num("max-visited", defaults.max_visited)?,
        error_budget: args.get_num("error-budget", defaults.error_budget)?,
        resume: args.has("resume"),
    };

    let briefer = load_briefer(&model)?;
    match crawl_brief(&briefer, &cfg) {
        Ok(report) => {
            println!(
                "Briefed {} pages to {out} ({} replayed from the journal)",
                report.briefed, report.replayed
            );
            println!(
                "  visited {} · quarantined {} · skipped {} index / {} media · \
                 {} broken links",
                report.visited,
                report.quarantined,
                report.skipped_index,
                report.skipped_media,
                report.broken_links
            );
            write_outputs(&globals)
        }
        Err(e) => {
            // A diagnosed runtime failure (budget blown, site changed
            // under a resume, ...) is exit 1 — distinct from usage errors
            // (exit 2) — and still flushes the observability outputs:
            // the metrics of an aborted run are exactly the interesting
            // ones. The run stays resumable either way.
            write_outputs(&globals)?;
            eprintln!("error: {e}");
            if matches!(e, PipelineError::BudgetExceeded { .. }) {
                eprintln!(
                    "the run is resumable: rerun with --resume (and a higher --error-budget)"
                );
            }
            std::process::exit(1);
        }
    }
}

fn cmd_serve(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &[
            "model",
            "addr",
            "workers",
            "queue-capacity",
            "cache-capacity",
            "max-body-bytes",
            "request-timeout-ms",
            "breaker-threshold",
            "breaker-window-ms",
            "breaker-cooldown-ms",
            "access-log-sample",
            "slow-request-ms",
            "replicas",
            "max-conns",
            "max-requests-per-conn",
            "idle-timeout-ms",
            // Load-testing knob: stalls each briefing batch so overload
            // behaviour (503 shedding) is reproducible. Deliberately not
            // in the USAGE synopsis.
            "handler-delay-ms",
        ],
        &[],
    )?;
    let globals = apply_globals(&args)?;
    if let Some(extra) = args.positional.first() {
        return Err(format!("serve takes no positional arguments (got `{extra}`)"));
    }
    let model = args.get_str("model", "./wb-model.json");
    let defaults = wb_serve::ServeConfig::default();
    let cfg = wb_serve::ServeConfig {
        addr: args.get_str("addr", &defaults.addr),
        workers: args.get_num("workers", defaults.workers)?,
        queue_capacity: args.get_num("queue-capacity", defaults.queue_capacity)?,
        cache_capacity: args.get_num("cache-capacity", defaults.cache_capacity)?,
        max_body_bytes: args.get_num("max-body-bytes", defaults.max_body_bytes)?,
        request_timeout_ms: args.get_num("request-timeout-ms", defaults.request_timeout_ms)?,
        handler_delay_ms: args.get_num("handler-delay-ms", 0)?,
        breaker_threshold: args.get_num("breaker-threshold", defaults.breaker_threshold)?,
        breaker_window_ms: args.get_num("breaker-window-ms", defaults.breaker_window_ms)?,
        breaker_cooldown_ms: args
            .get_num("breaker-cooldown-ms", defaults.breaker_cooldown_ms)?,
        access_log_sample: args.get_num("access-log-sample", defaults.access_log_sample)?,
        slow_request_ms: args.get_num("slow-request-ms", defaults.slow_request_ms)?,
        replicas: args.get_num("replicas", defaults.replicas)?,
        max_conns: args.get_num("max-conns", defaults.max_conns)?,
        max_requests_per_conn: args
            .get_num("max-requests-per-conn", defaults.max_requests_per_conn)?,
        idle_timeout_ms: args.get_num("idle-timeout-ms", defaults.idle_timeout_ms)?,
    };

    let briefer = load_briefer(&model)?;
    // SIGINT/SIGTERM get the same graceful drain + flush as /shutdown;
    // install the handler before the listener so an early signal is not
    // lost.
    wb_serve::install_handler();
    let handle =
        wb_serve::start(briefer, cfg).map_err(|e| format!("cannot start server: {e}"))?;
    println!("wb serve listening on http://{}", handle.addr());
    println!("POST /brief · GET /healthz · GET /metrics · GET /varz · POST /shutdown");
    // Run until a client posts /shutdown or a signal arrives, then drain
    // in-flight requests and flush the observability outputs.
    loop {
        if handle.poll_shutdown_request(std::time::Duration::from_millis(100)) {
            break;
        }
        if wb_serve::shutdown_signalled() {
            println!("shutdown signal received; draining");
            break;
        }
    }
    handle.shutdown();
    write_outputs(&globals)
}

fn cmd_stats(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["subjects", "pages"], &[])?;
    let globals = apply_globals(&args)?;
    let subjects: usize = args.get_num("subjects", 2)?;
    let pages: usize = args.get_num("pages", 6)?;

    let dataset = Dataset::generate(&dataset_config(subjects, pages, 7));
    let (mean, std) = dataset.length_stats();
    println!("pages:           {}", dataset.examples.len());
    println!("topics:          {}", dataset.taxonomy.len());
    println!("avg length:      {mean:.1} tokens (std {std:.1})");
    println!("vocabulary:      {}", dataset.tokenizer.vocab().len());

    let mut freq = FrequencyTable::new();
    let n_specials = webpage_briefing::text::SPECIALS.len() as u32;
    let texts: Vec<String> = dataset
        .examples
        .iter()
        .take(200)
        .map(|e| {
            // Reconstruct the surface text without special tokens.
            let ids: Vec<u32> = e.tokens.iter().copied().filter(|&t| t >= n_specials).collect();
            dataset.tokenizer.decode_ids(&ids).join(" ")
        })
        .collect();
    for t in &texts {
        freq.add_text(t);
    }
    let cov = coverage(&dataset.tokenizer, texts.iter().map(String::as_str));
    println!("word types:      {}", freq.types());
    println!("head-100 mass:   {:.1}%", freq.head_coverage(100) * 100.0);
    println!("tokenizer UNK:   {:.2}%", cov.unk_rate() * 100.0);
    println!("whole words:     {:.1}%", cov.whole_word_rate() * 100.0);
    println!("fertility:       {:.2} pieces/word", cov.fertility());
    write_outputs(&globals)
}

fn cmd_report(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[], &["diff"])?;
    apply_globals(&args)?;
    let load = |file: &str| -> Result<wb_obs::metrics::Snapshot, String> {
        let text =
            std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        wb_obs::metrics::Snapshot::from_json(&text)
            .map_err(|e| format!("{file} is not a metrics snapshot: {e}"))
    };
    if args.has("diff") {
        let (a, b) = match args.positional.as_slice() {
            [a, b] => (a, b),
            _ => {
                return Err(
                    "report --diff expects exactly two metrics JSON files (before, after)"
                        .to_string(),
                )
            }
        };
        print!("{}", wb_obs::report::render_diff(&load(a)?, &load(b)?));
        return Ok(());
    }
    let file = match args.positional.as_slice() {
        [f] => f,
        [] => return Err("report expects a metrics JSON file".to_string()),
        _ => {
            return Err(
                "report expects exactly one metrics JSON file (or --diff with two)".to_string()
            )
        }
    };
    print!("{}", wb_obs::report::render(&load(file)?));
    Ok(())
}

/// One HTTP/1.1 GET against `addr` over a fresh connection, returning the
/// response body. Sends `Connection: close` so the keep-alive server ends
/// the response with EOF and the read-to-EOF below terminates promptly.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    http_get_timeout(addr, path, std::time::Duration::from_secs(5))
}

/// [`http_get`] with an explicit timeout — `wb profile` holds the
/// connection open for the whole capture, so its read deadline must scale
/// with `--seconds` rather than the interactive 5 s default.
fn http_get_timeout(
    addr: &str,
    path: &str,
    timeout: std::time::Duration,
) -> Result<String, String> {
    use std::io::{Read, Write};
    let sock_addr: std::net::SocketAddr =
        addr.parse().map_err(|_| format!("invalid address `{addr}` (expected HOST:PORT)"))?;
    let mut stream = std::net::TcpStream::connect_timeout(&sock_addr, timeout)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("cannot send request to {addr}: {e}"))?;
    let mut text = String::new();
    let mut buf = [0u8; 8192];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => text.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(_) if !text.is_empty() => break,
            Err(e) => return Err(format!("no response from {addr}: {e}")),
        }
    }
    let (head, body) =
        text.split_once("\r\n\r\n").ok_or_else(|| format!("malformed response from {addr}"))?;
    let status = head.split_whitespace().nth(1).unwrap_or("");
    if status != "200" {
        // Surface the server's own diagnosis (e.g. a 409 "capture already
        // in progress") instead of just the status code.
        let detail = body.lines().next().unwrap_or("").trim();
        let detail = if detail.is_empty() { String::new() } else { format!(": {detail}") };
        return Err(format!("{addr}{path} answered {status}{detail}"));
    }
    Ok(body.to_string())
}

/// The live terminal dashboard: polls `/varz` and renders one frame per
/// interval. Plain ANSI (clear + home) — no terminal library.
fn cmd_top(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["interval-ms"], &["once"])?;
    apply_globals(&args)?;
    let addr = match args.positional.as_slice() {
        [a] => a.clone(),
        _ => return Err("top expects exactly one server address (HOST:PORT)".to_string()),
    };
    let interval_ms: u64 = args.get_num("interval-ms", 1000)?;
    let once = args.has("once");
    loop {
        let body = http_get(&addr, "/varz")?;
        let v: serde_json::Value =
            serde_json::from_str(&body).map_err(|e| format!("{addr}/varz is not JSON: {e}"))?;
        let frame = render_top_frame(&addr, &v);
        if once {
            print!("{frame}");
            return Ok(());
        }
        // Clear screen + cursor home, then the frame — a flicker-free
        // enough redraw without terminal capabilities.
        print!("\x1b[2J\x1b[H{frame}");
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(100)));
    }
}

/// Renders one `wb top` frame from a `/varz` document.
fn render_top_frame(addr: &str, v: &serde_json::Value) -> String {
    let num = |path: &[&str]| -> f64 {
        let mut cur = v;
        for key in path {
            match cur.get(key) {
                Some(next) => cur = next,
                None => return 0.0,
            }
        }
        cur.as_f64().unwrap_or(0.0)
    };
    let opt_num = |path: &[&str]| -> Option<f64> {
        let mut cur = v;
        for key in path {
            cur = cur.get(key)?;
        }
        cur.as_f64()
    };
    let fmt_us = |us: Option<f64>| match us {
        Some(us) if us >= 1e6 => format!("{:>8.2}s", us / 1e6),
        Some(us) if us >= 1e3 => format!("{:>7.1}ms", us / 1e3),
        Some(us) => format!("{:>7.0}us", us),
        None => format!("{:>9}", "-"),
    };
    let uptime_s = num(&["uptime_ms"]) / 1e3;
    let breaker = v.get("breaker").and_then(|b| b.as_str()).unwrap_or("?");
    let mut out = String::new();
    out.push_str(&format!(
        "wb top — {addr} · uptime {uptime_s:.0}s · executors {:.0} · breaker {breaker}\n\n",
        num(&["executors"])
    ));
    out.push_str(&format!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "window", "rps", "err%", "hit%", "p50", "p90", "p99"
    ));
    for w in ["10s", "60s"] {
        out.push_str(&format!(
            "{:<10} {:>9.1} {:>8.1}% {:>8.1}% {} {} {}\n",
            w,
            num(&["windows", w, "rps"]),
            num(&["windows", w, "error_rate"]) * 100.0,
            num(&["windows", w, "cache", "hit_ratio"]) * 100.0,
            fmt_us(opt_num(&["windows", w, "latency_us", "p50"])),
            fmt_us(opt_num(&["windows", w, "latency_us", "p90"])),
            fmt_us(opt_num(&["windows", w, "latency_us", "p99"])),
        ));
    }
    out.push_str(&format!(
        "\n{:<22} {:>9} {:>9} {:>9}\n",
        "stages (10s)", "count", "mean", "p99"
    ));
    for stage in wb_serve::telemetry::STAGES {
        let base = ["windows", "10s", "stages_us", stage];
        let count = num(&[&base[..], &["count"]].concat());
        out.push_str(&format!(
            "  {:<20} {:>9.0} {} {}\n",
            stage,
            count,
            fmt_us((count > 0.0).then(|| num(&[&base[..], &["mean"]].concat()))),
            fmt_us(opt_num(&[&base[..], &["p99"]].concat())),
        ));
    }
    out.push_str(&format!(
        "\nqueue depth {:.0} (peak {:.0}) · cache {:.0}/{:.0} · requests(60s) {:.0} · errors(60s) {:.0}\n",
        num(&["queue", "depth"]),
        num(&["queue", "peak"]),
        num(&["cache", "size"]),
        num(&["cache", "capacity"]),
        num(&["windows", "60s", "requests"]),
        num(&["windows", "60s", "errors"]),
    ));
    // The process gauges come from /proc/self and are absent off-Linux;
    // only render the line when the sampler has populated them.
    if num(&["proc", "threads"]) > 0.0 {
        out.push_str(&format!(
            "rss {:.1}MiB · threads {:.0} · open fds {:.0}\n",
            num(&["proc", "rss_bytes"]) / (1024.0 * 1024.0),
            num(&["proc", "threads"]),
            num(&["proc", "open_fds"]),
        ));
    }
    out
}

/// `wb profile` — capture a sampling profile from a live server over its
/// `/pprof` endpoint and print it (or write it with `--out`).
fn cmd_profile(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["seconds", "hz", "mode", "format", "out"], &[])?;
    let globals = apply_globals(&args)?;
    let addr = match args.positional.as_slice() {
        [a] => a.clone(),
        _ => return Err("profile expects exactly one server address (HOST:PORT)".to_string()),
    };
    let seconds: f64 = args.get_num("seconds", 2.0)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("option --seconds must be greater than 0 and at most 60".to_string());
    }
    let hz: u32 = args.get_num("hz", 99)?;
    if !(1..=1000).contains(&hz) {
        return Err("option --hz must be between 1 and 1000".to_string());
    }
    let mode = args.get_str("mode", "wall");
    if wb_obs::profile::Mode::parse(&mode).is_none() {
        return Err(format!("option --mode has invalid value `{mode}` (expected wall or cpu)"));
    }
    let format = args.get_str("format", "collapsed");
    if format != "collapsed" && format != "svg" {
        return Err(format!(
            "option --format has invalid value `{format}` (expected collapsed or svg)"
        ));
    }
    let path = format!("/pprof?seconds={seconds}&hz={hz}&mode={mode}&format={format}");
    // The server holds the response until the capture finishes; allow the
    // whole capture plus a generous margin before timing out the read.
    let timeout =
        std::time::Duration::from_secs_f64(seconds) + std::time::Duration::from_secs(10);
    eprintln!("profiling {addr} for {seconds}s at {hz} Hz ({mode} mode)…");
    let body = http_get_timeout(&addr, &path, timeout)?;
    match args.get("out") {
        Some(out) => {
            std::fs::write(out, &body).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("Wrote {format} profile to {out}");
        }
        None => print!("{body}"),
    }
    write_outputs(&globals)
}

/// `wb flame` — render a collapsed-stack capture into a flamegraph SVG.
fn cmd_flame(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["out", "title"], &[])?;
    let globals = apply_globals(&args)?;
    let input = match args.positional.as_slice() {
        [f] => f.clone(),
        _ => {
            return Err("flame expects exactly one collapsed-stack file (from `wb profile`)"
                .to_string())
        }
    };
    let text =
        std::fs::read_to_string(&input).map_err(|e| format!("cannot read {input}: {e}"))?;
    let title = args.get_str("title", &input);
    let svg = wb_obs::flame::render_svg(&text, &title).map_err(|e| format!("{input}: {e}"))?;
    let default_out = format!("{}.svg", input.trim_end_matches(".collapsed"));
    let out = args.get_str("out", &default_out);
    std::fs::write(&out, &svg).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("Wrote flamegraph to {out}");
    write_outputs(&globals)
}

fn cmd_bench(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &["out", "label", "baseline"], &["quick"])?;
    let globals = apply_globals(&args)?;
    let opts = wb_bench::perf::CliOptions {
        quick: args.has("quick"),
        label: args.get_str("label", "local"),
        out: args.get("out").map(str::to_string),
        baseline: args.get("baseline").map(str::to_string),
        compare_only: match args.positional.as_slice() {
            [] => None,
            [f] => Some(f.clone()),
            _ => return Err("bench takes at most one REPORT.json to compare".to_string()),
        },
    };
    let code = wb_bench::perf::run_cli(&opts)?;
    write_outputs(&globals)?;
    if code != 0 {
        // A regression is a clean, diagnosed outcome: exit 1 directly
        // rather than routing through the usage-error path (exit 2).
        std::process::exit(code);
    }
    Ok(())
}

/// Drives load at a running `wb serve` and reports throughput, latency
/// percentiles and SLO attainment; with `--out` the run becomes a
/// `wb-bench-v1` report that `--baseline` gates like `wb bench`.
fn cmd_loadgen(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(
        raw,
        &[
            "requests",
            "concurrency",
            "rate",
            "pages",
            "slo-ms",
            "timeout-ms",
            "label",
            "out",
            "baseline",
        ],
        &["close", "compare", "no-warmup"],
    )?;
    let globals = apply_globals(&args)?;
    let addr = match args.positional.as_slice() {
        [a] => a.clone(),
        _ => return Err("loadgen expects exactly one server address (HOST:PORT)".to_string()),
    };
    let base = wb_bench::loadgen::LoadConfig {
        addr,
        requests: args.get_num("requests", 1000u64)?,
        concurrency: args.get_num("concurrency", 8usize)?,
        keep_alive: !args.has("close"),
        rate: args.get_num("rate", 0.0f64)?,
        pages: args.get_num("pages", 8usize)?,
        slo_ms: args.get_num("slo-ms", 50.0f64)?,
        timeout: std::time::Duration::from_millis(args.get_num("timeout-ms", 10_000u64)?),
        warmup: !args.has("no-warmup"),
    };
    let modes: &[bool] = if args.has("compare") {
        &[true, false] // keep-alive first, then connect-per-request
    } else if args.has("close") {
        &[false]
    } else {
        &[true]
    };
    let mut summaries = Vec::new();
    for &keep_alive in modes {
        let cfg = wb_bench::loadgen::LoadConfig { keep_alive, ..base.clone() };
        let summary = wb_bench::loadgen::run(&cfg)?;
        print!("{}", summary.render());
        summaries.push(summary);
    }
    if let [ka, cl] = summaries.as_slice() {
        if cl.rps() > 0.0 {
            println!(
                "keep-alive speedup: {:.2}x over connect-per-request",
                ka.rps() / cl.rps()
            );
        }
    }
    let report =
        wb_bench::loadgen::to_bench_report(&args.get_str("label", "serve"), &summaries);
    if let Some(out) = args.get("out") {
        report.save(out)?;
        println!("wrote {out}");
    }
    let code = match args.get("baseline") {
        Some(path) => wb_bench::perf::gate(&report, path)?,
        None => 0,
    };
    write_outputs(&globals)?;
    if code != 0 {
        // A regression is a clean, diagnosed outcome: exit 1 directly
        // rather than routing through the usage-error path (exit 2).
        std::process::exit(code);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("epoch", "epochs"), 1);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("same", "same"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }

    #[test]
    fn nearest_flag_suggests_plausible_typos_only() {
        let known = &["epochs", "subjects", "out"];
        assert_eq!(nearest_flag("epoch", known), Some("epochs"));
        assert_eq!(nearest_flag("subject", known), Some("subjects"));
        assert_eq!(nearest_flag("zzzzzzzz", known), None);
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn unknown_flag_is_rejected_at_parse_time() {
        let err = Args::parse(&s(&["--epoch", "5"]), &["epochs"], &[]).unwrap_err();
        assert!(err.contains("unknown option --epoch"), "{err}");
        assert!(err.contains("did you mean --epochs?"), "{err}");
        // A trailing typo must not degrade into an `expects a value` error.
        let err = Args::parse(&s(&["--epoch"]), &["epochs"], &[]).unwrap_err();
        assert!(err.contains("unknown option --epoch"), "{err}");
    }

    #[test]
    fn equals_form_parses_options() {
        let args =
            Args::parse(&s(&["--out=x.json", "--epochs=5", "p.html"]), &["out", "epochs"], &[])
                .unwrap();
        assert_eq!(args.get("out"), Some("x.json"));
        assert_eq!(args.get("epochs"), Some("5"));
        assert_eq!(args.positional, vec!["p.html".to_string()]);
        // The value may itself contain `=` (split on the first one only).
        let args = Args::parse(&s(&["--log-level=warn,wb_tensor=trace"]), &[], &[]).unwrap();
        assert_eq!(args.get("log-level"), Some("warn,wb_tensor=trace"));
        // An empty value is allowed syntactically (validated downstream).
        let args = Args::parse(&s(&["--out="]), &["out"], &[]).unwrap();
        assert_eq!(args.get("out"), Some(""));
    }

    #[test]
    fn equals_form_validates_names() {
        // Unknown flags are still caught in the `=` form, with suggestions.
        let err = Args::parse(&s(&["--epoch=5"]), &["epochs"], &[]).unwrap_err();
        assert!(err.contains("unknown option --epoch"), "{err}");
        assert!(err.contains("did you mean --epochs?"), "{err}");
        // Switches take no value in either spelling.
        let err = Args::parse(&s(&["--json=yes"]), &[], &["json"]).unwrap_err();
        assert!(err.contains("switch --json takes no value"), "{err}");
    }

    #[test]
    fn globals_are_accepted_by_any_parse() {
        let args =
            Args::parse(&s(&["--log-level", "warn", "--metrics-out", "m.json"]), &[], &[])
                .unwrap();
        assert_eq!(args.get("log-level"), Some("warn"));
        assert_eq!(args.get("metrics-out"), Some("m.json"));
    }
}
