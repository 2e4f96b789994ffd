//! Workload inputs, generated from the run's `--seed` with the corpus
//! crate's own generators: the same seed always yields byte-identical
//! pages and sites. Pages are drawn from the taxonomy the benchmark's
//! model is trained on, so the model sees in-distribution vocabulary.
//!
//! Topics are dealt round-robin — page `i` (or site `i`) is about topic
//! `i mod 16` — and the seed varies only the pages' content. Every run
//! then briefs the same topic mix, which keeps a per-topic cost (how long
//! a topic phrase the beam decodes) out of the run-to-run spread.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::path::{Path, PathBuf};
use wb_corpus::{
    export_site, generate_page, generate_site, PageConfig, SiteScenario, SiteSpec,
    SiteSpecConfig, Taxonomy,
};

/// Seed of the model's training corpus (`wb train --seed`): fixed, so a
/// run's `--seed` varies the inputs and never the model.
pub const MODEL_SEED: u64 = 7;
/// Subjects per family of the model's training corpus (`wb train --subjects`).
pub const SUBJECTS: usize = 2;

/// Independent generator streams per input kind, so adding a workload's
/// inputs never shifts another's.
const SITE_STREAM: u64 = 0x5173_5eed;
const ONE_PAGE_STREAM: u64 = 0x0e1e_5eed;

fn taxonomy() -> Taxonomy {
    Taxonomy::build(MODEL_SEED, SUBJECTS)
}

/// `n` pages of the default shape (~1 KB of visible text, one chunk).
pub fn short_pages(seed: u64, n: usize) -> Vec<String> {
    let tax = taxonomy();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let topic = &tax.topics()[i % tax.len()];
            generate_page(topic, PageConfig::default(), &mut rng).dom.to_html()
        })
        .collect()
}

/// The long page shape of the crawled sites: several chunks per page,
/// where per-chunk extraction dominates the page's cost.
pub fn long_page() -> PageConfig {
    PageConfig {
        informative_sections: 8,
        noise_sections: 6,
        filler_sentences: 6,
        ..PageConfig::default()
    }
}

/// `count` mixed-hostility sites of `pages` long pages each: a quarter
/// clean, a quarter malformed, a quarter boilerplate and a quarter
/// near-duplicates. Each site is about one topic.
pub fn sites(seed: u64, count: usize, pages: usize) -> Vec<SiteSpec> {
    site_batch(seed ^ SITE_STREAM, count, pages, SiteScenario::Mixed)
}

/// `count` clean sites holding a single long page each.
pub fn one_page_sites(seed: u64, count: usize) -> Vec<SiteSpec> {
    site_batch(seed ^ ONE_PAGE_STREAM, count, 1, SiteScenario::Clean)
}

fn site_batch(seed: u64, count: usize, pages: usize, scenario: SiteScenario) -> Vec<SiteSpec> {
    let tax = taxonomy();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|k| {
            let topic = &tax.topics()[k % tax.len()];
            let cfg = SiteSpecConfig { pages, scenario, page: long_page() };
            generate_site(topic, cfg, &mut rng)
        })
        .collect()
}

/// Writes pages as `<dir>/<i>.html` and returns their paths.
pub fn export_pages(dir: &Path, pages: &[String]) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    pages
        .iter()
        .enumerate()
        .map(|(i, html)| {
            let path = dir.join(format!("{i}.html"));
            std::fs::write(&path, html)?;
            Ok(path)
        })
        .collect()
}

/// Writes each site to `<dir>/<k>/` and returns the site directories.
pub fn export_sites(dir: &Path, sites: &[SiteSpec]) -> io::Result<Vec<PathBuf>> {
    sites
        .iter()
        .enumerate()
        .map(|(k, site)| {
            let d = dir.join(k.to_string());
            export_site(&d, site)?;
            Ok(d)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site_bytes(sites: &[SiteSpec]) -> Vec<(String, String)> {
        sites
            .iter()
            .flat_map(|s| s.files.iter().map(|f| (f.url.clone(), f.html.clone())))
            .collect()
    }

    #[test]
    fn a_seed_fixes_the_pages_byte_for_byte() {
        assert_eq!(short_pages(7, 40), short_pages(7, 40));
        assert_ne!(short_pages(7, 40), short_pages(8, 40));
        // A longer run extends the same sequence.
        assert_eq!(short_pages(7, 60)[..40], short_pages(7, 40)[..]);
    }

    #[test]
    fn a_seed_fixes_the_sites_byte_for_byte() {
        let a = sites(7, 2, 12);
        assert_eq!(site_bytes(&a), site_bytes(&sites(7, 2, 12)));
        assert_eq!(a[0].hostile, sites(7, 2, 12)[0].hostile);
        assert_ne!(site_bytes(&a), site_bytes(&sites(11, 2, 12)));
        assert_eq!(site_bytes(&one_page_sites(3, 4)), site_bytes(&one_page_sites(3, 4)));
        assert_ne!(site_bytes(&one_page_sites(3, 4)), site_bytes(&one_page_sites(4, 4)));
    }

    #[test]
    fn sites_carry_the_mixed_hostility_and_long_pages() {
        let site = &sites(7, 1, 16)[0];
        assert_eq!(site.files.len(), 17, "index plus 16 pages");
        assert_eq!(site.hostile.len(), 4, "a quarter of the pages are malformed");
        let one = &one_page_sites(7, 1)[0];
        assert_eq!(one.files.len(), 2);
        assert!(one.hostile.is_empty());
        let short_len = short_pages(7, 1)[0].len();
        assert!(one.files[1].html.len() > 2 * short_len, "crawled pages are the long shape");
    }
}
