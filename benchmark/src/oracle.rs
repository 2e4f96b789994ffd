//! The cross-path correctness oracle.
//!
//! The reference for a page is what the library's [`Briefer::brief_html`]
//! returns in this process for the same checkpoint, rendered the way the
//! CLI renders it (`serde_json::to_string_pretty`). Every path is held to
//! that reference: `wb brief --json` and `wb serve` bodies byte for byte,
//! `wb crawl-brief` JSONL briefs as equal `Brief` values (the JSONL is
//! compact JSON). So the paths also agree with each other.

use std::path::Path;
use wb_core::{Brief, Briefer, Checkpoint};

/// Loads the checkpoint the way every `wb` subcommand does.
pub fn load_briefer(model: &Path) -> Result<Briefer, String> {
    let ckpt = Checkpoint::load(model)
        .map_err(|e| format!("cannot load checkpoint {}: {e}", model.display()))?;
    Briefer::from_checkpoint(&ckpt).map_err(|e| format!("checkpoint holds no briefer: {e}"))
}

/// A brief as `wb brief --json` and `wb serve` print it.
pub fn pretty(brief: &Brief) -> String {
    serde_json::to_string_pretty(brief).expect("a brief serialises")
}

/// Reference briefs of `htmls`, in order (pages fan out over the pool
/// exactly as the CLI's do).
pub fn reference(briefer: &Briefer, htmls: &[String]) -> Vec<Result<Brief, String>> {
    briefer.brief_corpus(htmls).into_iter().map(|r| r.map_err(|e| e.to_string())).collect()
}

/// Splits `wb brief --json` stdout into `(file, body)` pairs: each page
/// is a `=== FILE ===` line followed by its pretty JSON.
pub fn parse_cli(stdout: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in stdout.lines() {
        if let Some(file) = line.strip_prefix("=== ").and_then(|l| l.strip_suffix(" ===")) {
            out.push((file.to_string(), String::new()));
        } else if let Some((_, body)) = out.last_mut() {
            if !body.is_empty() {
                body.push('\n');
            }
            body.push_str(line);
        }
    }
    out
}

/// Parses a brief body (pretty or compact JSON).
pub fn parse_brief(json: &str) -> Result<Brief, String> {
    serde_json::from_str(json).map_err(|e| format!("not a brief: {e}"))
}

/// One `wb crawl-brief` output line: `{"seq", "url", "brief"}`.
pub fn parse_crawl_line(line: &str) -> Result<(String, Brief), String> {
    let v: serde_json::Value =
        serde_json::from_str(line).map_err(|e| format!("bad JSONL line: {e}"))?;
    let url = v.get("url").and_then(|u| u.as_str()).ok_or("JSONL line without url")?;
    let brief = v.get("brief").ok_or("JSONL line without brief")?;
    let brief =
        serde_json::from_str(&serde_json::to_string(brief).expect("a value serialises"))
            .map_err(|e| format!("bad brief in JSONL: {e}"))?;
    Ok((url.to_string(), brief))
}

/// The URL of one dead-letter line: `{"seq", "url", "reason"}`.
pub fn parse_dead_line(line: &str) -> Result<String, String> {
    let v: serde_json::Value =
        serde_json::from_str(line).map_err(|e| format!("bad dead-letter line: {e}"))?;
    v.get("url")
        .and_then(|u| u.as_str())
        .map(str::to_string)
        .ok_or("dead line without url".into())
}

/// FNV-1a over a run's checked outputs, in a fixed order: two runs of
/// the same code and seed print the same digest.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in one output, length-prefixed so boundaries count.
    pub fn add(&mut self, bytes: &[u8]) {
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_cli_output_per_file() {
        let out = "=== a.html ===\n{\n  \"topic\": \"x\"\n}\n=== b.html ===\n{}\n";
        let pages = parse_cli(out);
        assert_eq!(pages.len(), 2);
        assert_eq!(pages[0], ("a.html".to_string(), "{\n  \"topic\": \"x\"\n}".to_string()));
        assert_eq!(pages[1], ("b.html".to_string(), "{}".to_string()));
    }

    #[test]
    fn crawl_lines_and_pretty_bodies_describe_the_same_brief() {
        let brief = Brief {
            topic: "goods shopping".into(),
            category: Some("fiction".into()),
            attributes: vec![wb_core::BriefAttribute {
                name: "price".into(),
                value: "<digit>".into(),
            }],
            informative_sentences: vec![2, 5],
        };
        let line = format!(
            "{{\"seq\":3,\"url\":\"/page/3\",\"brief\":{}}}",
            serde_json::to_string(&brief).unwrap()
        );
        assert_eq!(parse_crawl_line(&line).unwrap(), ("/page/3".to_string(), brief.clone()));
        assert_eq!(parse_brief(&pretty(&brief)).unwrap(), brief);
        assert_eq!(
            parse_dead_line("{\"seq\":1,\"url\":\"/page/1\",\"reason\":\"x\"}").unwrap(),
            "/page/1"
        );
    }

    #[test]
    fn digest_depends_on_content_and_boundaries() {
        let d = |parts: &[&[u8]]| {
            let mut d = Digest::new();
            parts.iter().for_each(|p| d.add(p));
            d.hex()
        };
        assert_eq!(d(&[b"ab", b"c"]), d(&[b"ab", b"c"]));
        assert_ne!(d(&[b"ab", b"c"]), d(&[b"a", b"bc"]));
        assert_ne!(d(&[b"ab"]), d(&[b"ac"]));
    }
}
