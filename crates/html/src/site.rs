//! The URL frontier of `wb crawl-brief`'s structure-driven crawler
//! (`run_crawler` in `wb-core`'s pipeline): the site-relative links it
//! follows out of each parsed page, whatever kind of page that is.

use crate::dom::{Node, Tag};

/// Collects a document's site-relative link targets (`<a href="/...">`) in
/// document order — the URL frontier the crawler follows. External
/// (`http://…`), fragment and empty hrefs are skipped; duplicates are kept
/// (the crawler's seen-set deduplicates).
pub fn link_urls(root: &Node) -> Vec<String> {
    let mut out = Vec::new();
    collect_links(root, &mut out);
    out
}

fn collect_links(node: &Node, out: &mut Vec<String>) {
    if let Node::Element { tag, children, .. } = node {
        if *tag == Tag::A {
            if let Some(href) = node.attr("href") {
                if href.starts_with('/') {
                    out.push(href.to_string());
                }
            }
        }
        for c in children {
            collect_links(c, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_document;

    #[test]
    fn link_urls_keeps_site_relative_hrefs_in_document_order() {
        let dom = parse_document(
            "<body><a href=\"/b\">b</a><div><a href=\"http://x/\">x</a>\
             <a href=\"/a\">a</a></div><a>bare</a><a href=\"#frag\">f</a></body>",
        )
        .unwrap();
        assert_eq!(link_urls(&dom), vec!["/b".to_string(), "/a".to_string()]);
    }
}
