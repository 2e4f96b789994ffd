//! Crawl a synthetic website with the structure-driven crawler (the
//! dataset-construction pipeline of §IV-A1: skip index/media pages, keep
//! content-rich pages) and brief every collected page — the same
//! `crawl_brief` run that `wb crawl-brief` makes.
//!
//! Run with: `cargo run --release --example crawl_and_brief`

use rand::rngs::StdRng;
use rand::SeedableRng;
use webpage_briefing::core::{crawl_brief, PipelineConfig};
use webpage_briefing::corpus::{export_site, generate_site, SiteScenario, SiteSpecConfig};
use webpage_briefing::prelude::*;

fn main() {
    let dataset = Dataset::generate(&DatasetConfig::tiny());

    // Export a website to disk: an index root linking into five
    // content-rich pages of one topic, which chain onwards to each other.
    let topic = dataset.taxonomy.topics()[0].clone();
    let mut rng = StdRng::seed_from_u64(99);
    let spec = SiteSpecConfig { pages: 5, scenario: SiteScenario::Clean, ..Default::default() };
    let dir = std::env::temp_dir().join("wb_crawl_and_brief");
    let _ = std::fs::remove_dir_all(&dir);
    export_site(dir.join("site"), &generate_site(&topic, spec, &mut rng)).expect("export site");

    println!("Training a briefer…");
    let mut cfg = TrainConfig::scaled(40);
    cfg.lr = 0.01;
    cfg.decay = 0.98;
    let briefer = Briefer::train(&dataset, cfg, 7);

    let pipeline = PipelineConfig {
        site_dir: dir.join("site"),
        out_path: dir.join("briefs.jsonl"),
        dead_letter_path: dir.join("briefs.dead.jsonl"),
        journal_path: dir.join("briefs.journal"),
        snapshot_path: dir.join("briefs.snapshot"),
        ..Default::default()
    };
    let report = crawl_brief(&briefer, &pipeline).expect("crawl-brief run");
    println!(
        "Crawled {} pages: {} briefed, {} index skipped, {} media skipped, {} quarantined",
        report.visited,
        report.briefed,
        report.skipped_index,
        report.skipped_media,
        report.quarantined
    );
    assert_eq!(report.briefed, 5);

    let out = std::fs::read_to_string(&pipeline.out_path).expect("read briefs");
    for line in out.lines().take(2) {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSONL");
        let url = v.get("url").and_then(|u| u.as_str()).expect("url");
        let brief = serde_json::to_string(v.get("brief").expect("brief")).unwrap();
        let brief: Brief = serde_json::from_str(&brief).expect("brief");
        println!("\n--- {url} ---");
        print!("{}", brief.render());
    }
    println!("\nAll briefs: {}", pipeline.out_path.display());
    println!("Ground truth topic for this site: {}", topic.phrase_text());
}
