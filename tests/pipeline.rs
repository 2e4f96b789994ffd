//! End-to-end pipeline integration tests: synthetic website → crawler →
//! rendering → normalisation → tokenisation → model → hierarchical brief.

use webpage_briefing::core::{crawl_brief, PipelineConfig};
use webpage_briefing::corpus::{
    export_site, generate_page, generate_site, PageConfig, SiteScenario, SiteSpecConfig,
};
use webpage_briefing::html::{classify_page, PageKind};
use webpage_briefing::prelude::*;

fn tiny_dataset() -> Dataset {
    Dataset::generate(&DatasetConfig::tiny())
}

#[test]
fn generated_pages_survive_the_full_html_pipeline() {
    use rand::SeedableRng;
    let d = tiny_dataset();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for topic in d.taxonomy.topics().iter().take(4) {
        let page = generate_page(topic, PageConfig::default(), &mut rng);
        // The DOM serialises and re-parses losslessly.
        let html = page.dom.to_html();
        let reparsed = parse_document(&html).expect("roundtrip parse");
        assert_eq!(visible_text(&reparsed), visible_text(&page.dom));
        // And classifies as content-rich (the crawler keeps it).
        assert_eq!(classify_page(&page.dom), PageKind::ContentRich);
    }
}

#[test]
fn crawler_feeds_briefer_compatible_pages() {
    use rand::SeedableRng;
    let d = tiny_dataset();
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let topic = &d.taxonomy.topics()[1];
    let spec = SiteSpecConfig { pages: 4, scenario: SiteScenario::Clean, ..Default::default() };
    let dir = std::env::temp_dir().join("wb_pipeline_crawler_feeds_briefer");
    let _ = std::fs::remove_dir_all(&dir);
    export_site(dir.join("site"), &generate_site(topic, spec, &mut rng)).unwrap();

    // An untrained model must still produce structurally valid briefs for
    // every crawled page.
    let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
    let briefer = Briefer::from_model(
        JointModel::new(JointVariant::JointWb, cfg, 0),
        d.tokenizer.clone(),
    );
    let pipeline = PipelineConfig {
        site_dir: dir.join("site"),
        out_path: dir.join("briefs.jsonl"),
        dead_letter_path: dir.join("briefs.dead.jsonl"),
        journal_path: dir.join("briefs.journal"),
        snapshot_path: dir.join("briefs.snapshot"),
        ..Default::default()
    };
    let report = crawl_brief(&briefer, &pipeline).expect("crawl-brief run");
    assert_eq!((report.briefed, report.skipped_index, report.quarantined), (4, 1, 0));
    let out = std::fs::read_to_string(&pipeline.out_path).unwrap();
    assert_eq!(out.lines().count(), 4);
    for line in out.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSONL");
        let topic = v.get("brief").and_then(|b| b.get("topic")).and_then(|t| t.as_str());
        let topic = topic.expect("every line carries a brief topic");
        assert!(topic.split(' ').count() <= cfg.max_topic_len, "{topic:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trained_briefer_recovers_topic_and_attributes() {
    let d = tiny_dataset();
    let mut tc = TrainConfig::scaled(18);
    tc.lr = 0.01;
    tc.decay = 0.98;
    let briefer = Briefer::train(&d, tc, 7);
    let split = d.split(1);

    let mut topic_hits = 0;
    let mut attr_hits = 0;
    let n = split.test.len().min(12);
    for &i in split.test.iter().take(n) {
        let ex = &d.examples[i];
        let brief = briefer.brief_example(ex);
        let gold_phrase = d.taxonomy.topic(ex.topic).phrase_text();
        // Relaxed: at least one gold topic word generated.
        if gold_phrase.split(' ').any(|w| brief.topic.contains(w)) {
            topic_hits += 1;
        }
        // At least one extracted attribute value matches a gold mention.
        let gold_values: Vec<String> = ex
            .attr_spans
            .iter()
            .map(|&(_, s, e)| d.tokenizer.decode_ids(&ex.tokens[s..e]).join(" "))
            .collect();
        if brief.attributes.iter().any(|a| gold_values.contains(&a.value)) {
            attr_hits += 1;
        }
    }
    assert!(topic_hits * 2 >= n, "topic recall too low: {topic_hits}/{n}");
    assert!(attr_hits * 2 >= n, "attribute recall too low: {attr_hits}/{n}");
}

#[test]
fn brief_render_matches_figure_one_shape() {
    let d = tiny_dataset();
    let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
    let briefer = Briefer::from_model(
        JointModel::new(JointVariant::JointWb, cfg, 3),
        d.tokenizer.clone(),
    );
    let ex = &d.examples[0];
    let brief = briefer.brief_example(ex);
    let rendered = brief.render();
    // Hierarchical: topic line first, category and attributes indented
    // below (the paper's Fig. 1 structure).
    assert!(rendered.starts_with("Topic: "));
    for line in rendered.lines().skip(1) {
        assert!(
            line.starts_with("  - ") || line.starts_with("  Category: "),
            "lower levels are nested: {line:?}"
        );
    }
    assert!(brief.depth() >= 1 && brief.depth() <= 3);
}
