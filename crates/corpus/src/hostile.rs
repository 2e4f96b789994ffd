//! Hostile-corpus generation: websites exported to disk as raw `.html`
//! files, seeded with the malformations a real crawl delivers — truncated
//! transfers, unclosed/interleaved tags, oversized attributes, nesting
//! bombs, byte garbage, boilerplate-stuffed pages and near-duplicate farms.
//! The `wb crawl-brief` pipeline must survive all of it: hostile pages are
//! quarantined or degraded per-page, never allowed to kill the run.
//!
//! [`generate_site`] + [`export_site`] build the only sites the crawler
//! walks. Pages here are *strings*, not DOM nodes — malformed HTML cannot
//! exist as a parsed `Node` by construction, so the hostile site lives at
//! the byte level, exactly as on disk.

use crate::page::{generate_page, PageConfig};
use crate::taxonomy::{TopicSpec, BOILERPLATE};
use rand::rngs::StdRng;
use rand::Rng;
use std::io;
use std::path::{Path, PathBuf};

/// Which hostility mix a generated site carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteScenario {
    /// Well-formed content pages only.
    Clean,
    /// Every third page is malformed (truncation, tag soup, nesting bombs,
    /// oversized attributes, byte garbage, invisible-only pages).
    Malformed,
    /// Every third page is boilerplate-stuffed chaff that still classifies
    /// as content-rich.
    Boilerplate,
    /// One base page plus a farm of near-duplicates of it.
    NearDup,
    /// Cycles through clean / malformed / boilerplate / near-dup pages.
    Mixed,
}

impl SiteScenario {
    /// Parses a CLI scenario name.
    pub fn parse(s: &str) -> Option<SiteScenario> {
        match s {
            "clean" => Some(SiteScenario::Clean),
            "malformed" => Some(SiteScenario::Malformed),
            "boilerplate" => Some(SiteScenario::Boilerplate),
            "near-dup" => Some(SiteScenario::NearDup),
            "mixed" => Some(SiteScenario::Mixed),
            _ => None,
        }
    }

    /// All scenario names accepted by [`SiteScenario::parse`].
    pub const NAMES: &'static [&'static str] =
        &["clean", "malformed", "boilerplate", "near-dup", "mixed"];
}

/// One file of an on-disk website.
#[derive(Debug, Clone)]
pub struct SiteFile {
    /// Site-relative URL (`/`, `/page/3`, …).
    pub url: String,
    /// Raw file contents — possibly malformed on purpose.
    pub html: String,
}

/// A generated on-disk website: the root index plus child pages.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// All files, index first.
    pub files: Vec<SiteFile>,
    /// URLs of the pages generated hostile (malformed variants).
    pub hostile: Vec<String>,
}

/// Maps a site-relative URL to its on-disk file path: `/` → `index.html`,
/// `/page/3` → `page/3.html`.
pub fn url_to_path(url: &str) -> PathBuf {
    let rest = url.trim_start_matches('/');
    if rest.is_empty() {
        PathBuf::from("index.html")
    } else {
        PathBuf::from(format!("{rest}.html"))
    }
}

/// Inserts crawl-graph links as a hidden `<nav>` just inside the closing
/// `</body>`: invisible to [`wb_html::visible_text`] (so briefs are
/// unaffected) but visible to the URL frontier via `<a href>`.
pub fn with_hidden_nav(html: &str, links: &[String]) -> String {
    if links.is_empty() {
        return html.to_string();
    }
    let anchors: String = links.iter().map(|u| format!("<a href=\"{u}\"></a>")).collect();
    let nav = format!("<nav hidden>{anchors}</nav>");
    match html.rfind("</body>") {
        Some(pos) => format!("{}{}{}", &html[..pos], nav, &html[pos..]),
        None => format!("{html}{nav}"),
    }
}

/// A page guaranteed to fail parsing with a clean `TooDeep` error — the
/// nesting bomb that used to overflow the parser stack. Deterministic, so
/// tests can drop one into a site and assert exactly it gets quarantined.
pub fn poison_page() -> String {
    "<div>".repeat(wb_html::MAX_DEPTH + 8)
}

/// A page that parses but renders no visible text (everything hidden):
/// the briefer must reject it as empty, not crash or emit a junk brief.
pub fn invisible_page() -> String {
    "<body><div hidden><p>nothing you can see</p></div>\
     <p style=\"display:none\">still nothing</p></body>"
        .to_string()
}

/// One malformed page; `variant` cycles round-robin so every site with
/// enough hostile slots is guaranteed to contain each malformation kind.
pub fn malformed_page(variant: usize, topic: &TopicSpec, rng: &mut StdRng) -> String {
    match variant % 6 {
        // Truncated transfer: a valid page cut off inside a tag.
        0 => {
            let full = generate_page(topic, PageConfig::default(), rng).dom.to_html();
            let cut = full.len() / 2;
            let mut end = cut;
            while end > 0 && !full.is_char_boundary(end) {
                end -= 1;
            }
            format!("{}<a href=\"/trunc", &full[..end])
        }
        // Unclosed and interleaved tags: lenient recovery territory.
        1 => "<body><div><p>opening text<b>bold run<div>deeper\
              </p><span>stray close</div><i>never closed</body>"
            .to_string(),
        // Oversized attribute value (64 KiB of padding).
        2 => {
            let pad = "x".repeat(64 * 1024);
            format!("<body><p data-pad=\"{pad}\">padded paragraph text here</p></body>")
        }
        // Nesting bomb beyond MAX_DEPTH.
        3 => poison_page(),
        // Byte garbage.
        4 => {
            let bytes: Vec<u8> = (0..256).map(|_| rng.gen_range(0..=255u8)).collect();
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Parses fine, but nothing is visible.
        _ => invisible_page(),
    }
}

/// A boilerplate-stuffed page: classifies content-rich (lots of words, few
/// links) but carries almost no informative content — adversarial chaff
/// for the summariser.
pub fn boilerplate_page(rng: &mut StdRng) -> String {
    let mut body = String::from("<body><nav>");
    for w in BOILERPLATE.iter().take(8) {
        body.push_str(&format!("<a href=\"#{w}\">{w}</a> "));
    }
    body.push_str("</nav>");
    let n_paras = rng.gen_range(8..14);
    for _ in 0..n_paras {
        let words: Vec<&str> = (0..rng.gen_range(9..16))
            .map(|_| BOILERPLATE[rng.gen_range(0..BOILERPLATE.len())])
            .collect();
        body.push_str(&format!("<p>{}</p>", words.join(" ")));
    }
    body.push_str("<footer>copyright terms privacy contact</footer></body>");
    body
}

/// Generation parameters for [`generate_site`].
#[derive(Debug, Clone, Copy)]
pub struct SiteSpecConfig {
    /// Number of child pages (the index is extra).
    pub pages: usize,
    /// Hostility mix.
    pub scenario: SiteScenario,
    /// Page shape for the clean content pages.
    pub page: PageConfig,
}

impl Default for SiteSpecConfig {
    fn default() -> Self {
        SiteSpecConfig { pages: 12, scenario: SiteScenario::Clean, page: PageConfig::default() }
    }
}

/// Generates an on-disk website: an index page linking into the first few
/// child pages, each child chaining onwards through hidden-nav links so
/// the crawl frontier grows incrementally instead of all at once.
pub fn generate_site(topic: &TopicSpec, cfg: SiteSpecConfig, rng: &mut StdRng) -> SiteSpec {
    let n = cfg.pages;
    let url = |i: usize| format!("/page/{i}");

    // The index: visible links to the first few pages, plus fragment
    // padding so it classifies as an index page (≥10 anchors, few words).
    let fanout = n.min(4);
    let mut index = String::from("<body><h1>site index</h1><ul>");
    for i in 0..fanout {
        index.push_str(&format!("<li><a href=\"{}\">item {i}</a></li>", url(i)));
    }
    for i in 0..24 {
        index.push_str(&format!("<li><a href=\"#pad{i}\">menu</a></li>"));
    }
    if cfg.scenario != SiteScenario::Clean {
        // A dangling link the crawler must count and skip, not die on.
        index.push_str("<li><a href=\"/missing\">gone</a></li>");
    }
    index.push_str("</ul></body>");

    let mut files = vec![SiteFile { url: "/".to_string(), html: index }];
    let mut hostile = Vec::new();
    let mut hostile_counter = 0;
    let mut near_dup_base: Option<String> = None;

    for i in 0..n {
        // Chain links: page i points at the next two pages, keeping every
        // page reachable while the frontier stays shallow.
        let links: Vec<String> = (i + 1..n.min(i + 3)).map(url).collect();
        let clean = |rng: &mut StdRng| generate_page(topic, cfg.page, rng).dom.to_html();
        let kind = match cfg.scenario {
            SiteScenario::Clean => 0,
            SiteScenario::Malformed => usize::from(i % 3 == 2),
            SiteScenario::Boilerplate => {
                if i % 3 == 2 {
                    2
                } else {
                    0
                }
            }
            SiteScenario::NearDup => {
                if i == 0 {
                    0
                } else {
                    3
                }
            }
            SiteScenario::Mixed => i % 4,
        };
        let html = match kind {
            1 => {
                hostile.push(url(i));
                let v = hostile_counter;
                hostile_counter += 1;
                malformed_page(v, topic, rng)
            }
            2 => boilerplate_page(rng),
            3 => {
                let base = near_dup_base.get_or_insert_with(|| clean(rng)).clone();
                match base.rfind("</body>") {
                    Some(pos) => {
                        format!("{}<p>variant note {i}</p>{}", &base[..pos], &base[pos..])
                    }
                    None => format!("{base}<p>variant note {i}</p>"),
                }
            }
            _ => {
                let html = clean(rng);
                if cfg.scenario == SiteScenario::NearDup {
                    near_dup_base = Some(html.clone());
                }
                html
            }
        };
        files.push(SiteFile { url: url(i), html: with_hidden_nav(&html, &links) });
    }
    SiteSpec { files, hostile }
}

/// Writes a site to `dir` using the [`url_to_path`] layout. Returns the
/// number of files written.
pub fn export_site(dir: impl AsRef<Path>, site: &SiteSpec) -> io::Result<usize> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    for f in &site.files {
        let path = dir.join(url_to_path(&f.url));
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, &f.html)?;
    }
    Ok(site.files.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::Taxonomy;
    use rand::SeedableRng;
    use std::collections::{HashSet, VecDeque};
    use wb_html::{classify_page, link_urls, parse_document, visible_text, PageKind};

    fn build(scenario: SiteScenario, pages: usize, seed: u64) -> SiteSpec {
        let tax = Taxonomy::build(0, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SiteSpecConfig { pages, scenario, ..Default::default() };
        generate_site(&tax.topics()[3], cfg, &mut rng)
    }

    #[test]
    fn scenario_names_roundtrip() {
        for name in SiteScenario::NAMES {
            assert!(SiteScenario::parse(name).is_some(), "{name}");
        }
        assert_eq!(SiteScenario::parse("near-dup"), Some(SiteScenario::NearDup));
        assert_eq!(SiteScenario::parse("bogus"), None);
    }

    #[test]
    fn url_mapping_is_stable() {
        assert_eq!(url_to_path("/"), PathBuf::from("index.html"));
        assert_eq!(url_to_path("/page/3"), PathBuf::from("page/3.html"));
    }

    #[test]
    fn clean_site_parses_and_is_fully_reachable() {
        let site = build(SiteScenario::Clean, 9, 1);
        assert!(site.hostile.is_empty());
        // Every file parses; the index classifies as an index page.
        let index = parse_document(&site.files[0].html).unwrap();
        assert_eq!(classify_page(&index), PageKind::Index);
        for f in &site.files[1..] {
            let dom = parse_document(&f.html).unwrap();
            assert_eq!(classify_page(&dom), PageKind::ContentRich, "{}", f.url);
        }
        // BFS over hrefs reaches every page.
        let by_url: std::collections::HashMap<&str, &SiteFile> =
            site.files.iter().map(|f| (f.url.as_str(), f)).collect();
        let mut seen: HashSet<String> = HashSet::new();
        let mut queue = VecDeque::from(["/".to_string()]);
        seen.insert("/".to_string());
        while let Some(u) = queue.pop_front() {
            let dom = parse_document(&by_url[u.as_str()].html).unwrap();
            for next in link_urls(&dom) {
                if by_url.contains_key(next.as_str()) && seen.insert(next.clone()) {
                    queue.push_back(next);
                }
            }
        }
        assert_eq!(seen.len(), site.files.len(), "all pages reachable from the index");
    }

    #[test]
    fn hidden_nav_does_not_change_visible_text() {
        let tax = Taxonomy::build(0, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let html =
            generate_page(&tax.topics()[0], PageConfig::default(), &mut rng).dom.to_html();
        let linked = with_hidden_nav(&html, &["/page/1".into(), "/page/2".into()]);
        let plain = visible_text(&parse_document(&html).unwrap());
        let navved = visible_text(&parse_document(&linked).unwrap());
        assert_eq!(plain, navved);
        assert_eq!(link_urls(&parse_document(&linked).unwrap()).len(), 2);
    }

    #[test]
    fn malformed_site_contains_unparseable_pages() {
        let site = build(SiteScenario::Malformed, 24, 3);
        assert!(!site.hostile.is_empty());
        let failures = site.files.iter().filter(|f| parse_document(&f.html).is_err()).count();
        assert!(failures >= 1, "round-robin variants must include hard parse failures");
        // Hostile URLs are a subset of the site's files.
        let urls: HashSet<&str> = site.files.iter().map(|f| f.url.as_str()).collect();
        assert!(site.hostile.iter().all(|u| urls.contains(u.as_str())));
    }

    #[test]
    fn poison_page_fails_with_too_deep() {
        match parse_document(&poison_page()) {
            Err(wb_html::ParseError::TooDeep(_)) => {}
            other => panic!("expected TooDeep, got {other:?}"),
        }
    }

    #[test]
    fn invisible_page_parses_but_renders_nothing() {
        let dom = parse_document(&invisible_page()).unwrap();
        assert!(visible_text(&dom).trim().is_empty());
    }

    #[test]
    fn near_dup_farm_shares_the_base_text() {
        let site = build(SiteScenario::NearDup, 6, 4);
        let base = visible_text(&parse_document(&site.files[1].html).unwrap());
        for f in &site.files[2..] {
            let text = visible_text(&parse_document(&f.html).unwrap());
            assert!(
                text.starts_with(&base),
                "near-duplicate {} must extend the base page",
                f.url
            );
        }
    }

    #[test]
    fn boilerplate_page_is_content_rich_chaff() {
        let mut rng = StdRng::seed_from_u64(5);
        let dom = parse_document(&boilerplate_page(&mut rng)).unwrap();
        assert_eq!(classify_page(&dom), PageKind::ContentRich);
        let text = visible_text(&dom).to_lowercase();
        assert!(text.contains("privacy") || text.contains("copyright"));
    }

    #[test]
    fn export_writes_the_layout() {
        let dir = std::env::temp_dir().join("wb_hostile_export_test");
        let _ = std::fs::remove_dir_all(&dir);
        let site = build(SiteScenario::Mixed, 8, 6);
        let n = export_site(&dir, &site).unwrap();
        assert_eq!(n, site.files.len());
        assert!(dir.join("index.html").is_file());
        assert!(dir.join("page/0.html").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
