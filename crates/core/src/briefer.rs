//! The user-facing Webpage Briefing API: feed HTML in, get the hierarchical
//! brief out — the broad topic at the top, key attributes below it
//! (Fig. 1 of the paper).

use crate::joint::{JointModel, JointVariant};
use crate::{ModelConfig, TrainConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use wb_corpus::{AttrKind, Dataset, Example, TopicId};
use wb_eval::bio_to_spans;
use wb_html::parse_document;
use wb_text::{split_sentences, ChunkConfig, WordPiece, CLS};

/// One extracted key attribute.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BriefAttribute {
    /// Predicted attribute name (the paper's future-work extension: we
    /// infer it from the cue phrase preceding the span; `"attribute"` when
    /// no cue matches).
    pub name: String,
    /// The extracted value text.
    pub value: String,
}

/// A hierarchical webpage brief, following the paper's Fig. 1: the broad
/// topic at the top, then the high-level key attribute (a more precise
/// category of the page), then the detailed key attributes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Brief {
    /// Level 1: the generated broad topic of the webpage.
    pub topic: String,
    /// Level 2: the high-level key attribute — the page's precise category,
    /// when one of the extracted attributes was introduced by a category
    /// cue.
    pub category: Option<String>,
    /// Level 3: the remaining detailed key attributes, in document order.
    pub attributes: Vec<BriefAttribute>,
    /// Sentence indices the model considers informative (when the model has
    /// a section predictor).
    pub informative_sentences: Vec<usize>,
}

impl Brief {
    /// Renders the brief as the hierarchy shown in the paper's Fig. 1.
    pub fn render(&self) -> String {
        let mut out = format!("Topic: {}\n", self.topic);
        if let Some(cat) = &self.category {
            out.push_str(&format!("  Category: {cat}\n"));
        }
        for a in &self.attributes {
            out.push_str(&format!("  - {}: {}\n", a.name, a.value));
        }
        out
    }

    /// Number of hierarchy levels present (1–3).
    pub fn depth(&self) -> usize {
        1 + usize::from(self.category.is_some()) + usize::from(!self.attributes.is_empty())
    }
}

/// Why a page did not brief. The `Display` text is the one error text
/// every path reports: `wb brief`, `wb serve` and the `wb crawl-brief`
/// dead-letter file.
#[derive(Debug)]
pub enum BriefError {
    /// The HTML could not be parsed.
    Parse(wb_html::ParseError),
    /// The page has no visible text to brief.
    EmptyPage,
    /// Briefing the page panicked; caught by [`Briefer::brief_batch`].
    Panicked(String),
}

impl std::fmt::Display for BriefError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BriefError::Parse(e) => write!(f, "failed to parse page: {e}"),
            BriefError::EmptyPage => write!(f, "page has no visible text"),
            BriefError::Panicked(m) => write!(f, "panic while briefing: {m}"),
        }
    }
}

impl std::error::Error for BriefError {}

/// Splits raw sentences into 512-token-style sub-document [`Example`]s, the
/// preprocessing of §IV-A3: a `[CLS]` token starts every sentence,
/// sub-documents hold whole sentences where possible, a sentence longer
/// than `cfg.sub_len` is cut at the sub-document boundary, and the page is
/// truncated at `cfg.doc_len` real tokens overall. Unlike the paper, no
/// `[PAD]` is appended: each sub-document is encoded on its own, so
/// padding would only shift the LSTM states.
///
/// A page that fits inside one sub-document yields a single [`Example`]
/// holding the whole page, so a short page briefs as one unchunked pass.
pub fn encode_chunked(sentences: &[String], wp: &WordPiece, cfg: ChunkConfig) -> Vec<Example> {
    assert!(
        cfg.sub_len >= 2 && cfg.doc_len.is_multiple_of(cfg.sub_len),
        "sub_len must be >= 2 and divide doc_len"
    );
    let mut chunks: Vec<Example> = Vec::new();
    let mut tokens: Vec<u32> = Vec::new();
    let mut cls_positions: Vec<usize> = Vec::new();
    let mut sentence_of: Vec<usize> = Vec::new();
    let mut total = 0usize;
    let close = |tokens: &mut Vec<u32>,
                 cls_positions: &mut Vec<usize>,
                 sentence_of: &mut Vec<usize>,
                 chunks: &mut Vec<Example>| {
        if tokens.is_empty() {
            return;
        }
        let n = tokens.len();
        let m = cls_positions.len();
        chunks.push(Example {
            topic: TopicId(0),
            tokens: std::mem::take(tokens),
            cls_positions: std::mem::take(cls_positions),
            sentence_of: std::mem::take(sentence_of),
            bio: vec![0; n],
            informative: vec![false; m],
            topic_target: vec![wb_text::EOS],
            attr_spans: Vec::new(),
        });
    };
    for sent in sentences {
        // Never start a sentence whose [CLS] would be the document's final
        // token slot.
        if total + 1 >= cfg.doc_len {
            break;
        }
        let ids = wp.encode(sent);
        // Whole sentences go into one sub-document when they fit; close the
        // current chunk when this sentence would straddle its boundary.
        if !tokens.is_empty() && tokens.len() + 1 + ids.len() > cfg.sub_len {
            close(&mut tokens, &mut cls_positions, &mut sentence_of, &mut chunks);
        }
        // Sentence indices are chunk-local (0-based per Example) so each
        // sub-document is a self-consistent model input; callers that need
        // document-global sentence numbers offset by the preceding chunks'
        // sentence counts.
        let s_idx = cls_positions.len();
        let room = (cfg.sub_len - tokens.len()).min(cfg.doc_len - total);
        cls_positions.push(tokens.len());
        tokens.push(CLS);
        sentence_of.push(s_idx);
        total += 1;
        for &id in ids.iter().take(room - 1) {
            tokens.push(id);
            sentence_of.push(s_idx);
            total += 1;
        }
    }
    close(&mut tokens, &mut cls_positions, &mut sentence_of, &mut chunks);
    chunks
}

/// A trained briefing pipeline: tokenizer + Joint-WB model.
pub struct Briefer {
    model: JointModel,
    tokenizer: WordPiece,
    chunk: ChunkConfig,
}

impl Briefer {
    /// Trains a Joint-WB model on a dataset's training split.
    pub fn train(dataset: &Dataset, train_cfg: TrainConfig, seed: u64) -> Briefer {
        let model_cfg = ModelConfig::scaled(dataset.tokenizer.vocab().len());
        Self::train_with(dataset, model_cfg, train_cfg, seed)
    }

    /// Trains with an explicit model configuration.
    pub fn train_with(
        dataset: &Dataset,
        model_cfg: ModelConfig,
        train_cfg: TrainConfig,
        seed: u64,
    ) -> Briefer {
        let mut model = JointModel::new(JointVariant::JointWb, model_cfg, seed);
        let split = dataset.split(train_cfg.seed);
        crate::trainer::train(&mut model, &dataset.examples, &split.train, train_cfg);
        Self::from_model(model, dataset.tokenizer.clone())
    }

    /// [`Briefer::train_with`], crash-safe: snapshots a
    /// [`crate::TrainState`] per `policy` and can continue a killed run
    /// from `resume` — the finished model is byte-identical to an
    /// uninterrupted run (see [`crate::train_resumable`]).
    pub fn train_resumable_with(
        dataset: &Dataset,
        model_cfg: ModelConfig,
        train_cfg: TrainConfig,
        seed: u64,
        policy: Option<&crate::CheckpointPolicy>,
        resume: Option<crate::TrainState>,
    ) -> Result<(Briefer, crate::TrainStats), crate::TrainError> {
        let mut model = JointModel::new(JointVariant::JointWb, model_cfg, seed);
        let split = dataset.split(train_cfg.seed);
        let stats = crate::trainer::train_resumable(
            &mut model,
            &dataset.examples,
            &split.train,
            train_cfg,
            policy,
            resume,
        )?;
        Ok((Self::from_model(model, dataset.tokenizer.clone()), stats))
    }

    /// Wraps an already-trained joint model. Inference chunking defaults to
    /// the training-time shape — `max_len`-token sub-documents, four per
    /// document (the paper's 512 × 4) — so served pages match the training
    /// distribution.
    pub fn from_model(model: JointModel, tokenizer: WordPiece) -> Briefer {
        let max_len = model.config().max_len;
        let chunk = ChunkConfig { doc_len: 4 * max_len, sub_len: max_len };
        Briefer { model, tokenizer, chunk }
    }

    /// Overrides the inference-time chunking shape.
    pub fn with_chunk_config(mut self, chunk: ChunkConfig) -> Briefer {
        assert!(
            chunk.sub_len >= 2 && chunk.doc_len.is_multiple_of(chunk.sub_len),
            "sub_len must be >= 2 and divide doc_len"
        );
        self.chunk = chunk;
        self
    }

    /// The inference-time chunking shape.
    pub fn chunk_config(&self) -> ChunkConfig {
        self.chunk
    }

    /// The underlying model.
    pub fn model(&self) -> &JointModel {
        &self.model
    }

    /// The tokenizer the model was trained with (the benchmark's traced
    /// pass re-encodes pages with it).
    pub fn tokenizer(&self) -> &WordPiece {
        &self.tokenizer
    }

    /// Briefs a raw HTML page: parse → [`Briefer::prepare`] → one
    /// [`Briefer::brief_batch`] over its sub-documents.
    ///
    /// Each stage of the pipeline runs under a `wb-obs` span, so
    /// `wb report` can show where page latency goes:
    ///
    /// ```text
    /// brief.page
    /// ├── brief.parse
    /// ├── brief.normalize
    /// ├── brief.wordpiece
    /// └── brief.infer            one per chunk; self time = chunk assembly
    ///     ├── brief.encode       the one shared encoder pass
    ///     │   ├── brief.embed    embedder + sentence representations
    ///     │   ├── brief.lstm_e   token Bi-LSTM E
    ///     │   ├── brief.lstm_g   sentence Bi-LSTM G
    ///     │   └── brief.sections section predictor, C_E^b / C_G^b
    ///     ├── brief.generate     beam-searched topic (first chunk only)
    ///     ├── brief.extract
    ///     │   ├── brief.greedy   greedy topic states
    ///     │   └── brief.tag_head extractor features + tag head
    ///     └── brief.free         dropping the chunk's tape
    /// ```
    ///
    /// A multi-chunk page briefed off the pool fans its chunks out, so its
    /// `brief.infer` spans open on pool threads as root paths and
    /// `brief.page`'s self time includes the wait for them. Spans time;
    /// they never alter the brief.
    pub fn brief_html(&self, html: &str) -> Result<Brief, BriefError> {
        let _page = wb_obs::span!("brief.page");
        self.brief_batch(&[html], |html| self.prepare_html(html)).pop().expect("one page in")
    }

    /// Parses a raw HTML page and [`Briefer::prepare`]s it.
    pub fn prepare_html(&self, html: &str) -> Result<Vec<Example>, BriefError> {
        let dom = {
            let _s = wb_obs::span!("brief.parse");
            parse_document(html).map_err(BriefError::Parse)?
        };
        self.prepare(&dom)
    }

    /// Turns a parsed page into its model inputs, the one way every path
    /// does it (§IV-A3): visible text → sentences → WordPiece with one
    /// `[CLS]` per sentence → sub-documents ([`encode_chunked`]). A page
    /// without visible text is [`BriefError::EmptyPage`].
    pub fn prepare(&self, dom: &wb_html::Node) -> Result<Vec<Example>, BriefError> {
        let sentences = {
            let _s = wb_obs::span!("brief.normalize");
            split_sentences(&wb_html::visible_text(dom))
        };
        if sentences.is_empty() {
            wb_obs::debug!("page rejected: no visible text");
            return Err(BriefError::EmptyPage);
        }
        let chunks = {
            let _s = wb_obs::span!("brief.wordpiece");
            encode_chunked(&sentences, &self.tokenizer, self.chunk)
        };
        wb_obs::counter!("brief.pages");
        wb_obs::counter!("brief.chunks", chunks.len());
        Ok(chunks)
    }

    /// Briefs many HTML pages; each entry is what [`Briefer::brief_html`]
    /// returns for that page. The pages fan out over the rayon pool, so
    /// each page's own chunk fan-out runs inline on its worker.
    pub fn brief_corpus(&self, htmls: &[String]) -> Vec<Result<Brief, BriefError>> {
        use rayon::prelude::*;
        let start = std::time::Instant::now();
        let out: Vec<_> = htmls.par_iter().map(|html| self.brief_html(html)).collect();
        let secs = start.elapsed().as_secs_f64();
        if secs > 0.0 {
            wb_obs::gauge!("brief.pages_per_sec", htmls.len() as f64 / secs);
        }
        wb_obs::info!("briefed {} pages in {secs:.3}s", htmls.len());
        out
    }

    /// Briefs a batch of pages, one result per item in input order — the
    /// one briefing fan-out that `wb brief`, `wb serve` and
    /// `wb crawl-brief` share.
    ///
    /// `chunks_of` turns each item into the page's sub-documents in
    /// document order (the output of [`encode_chunked`]). It runs once per
    /// item, in item order, on the calling thread, so a per-page fault
    /// point in it fires in a fixed order. Then every chunk of every page
    /// is one task of a single fan-out over the rayon pool: each chunk's
    /// inference is an independent graph, so a batch of long pages keeps
    /// every thread busy. A call made from a pool worker runs inline.
    ///
    /// Each page is then assembled in document order: the broad topic is
    /// generated from the first sub-document — the page head, where the
    /// paper's corpus carries the topical signal — while extraction runs
    /// over every sub-document and the attributes are unioned in document
    /// order; chunk-local sentence flags are shifted to document-global
    /// sentence numbers. For a single chunk this is exactly the unchunked
    /// pipeline.
    ///
    /// Briefing is a pure function of (model, page), so neither the thread
    /// count nor the order in which chunks finish can change any output,
    /// only the wall-clock time; set `RAYON_NUM_THREADS=1` to force
    /// sequential execution. `chunks_of` and every chunk run under their
    /// own `catch_unwind`: a panic fails only its page, as
    /// [`BriefError::Panicked`] with the message of the first panic in
    /// document order.
    pub fn brief_batch<'a, T, C: AsRef<[Example]>>(
        &self,
        items: &'a [T],
        chunks_of: impl Fn(&'a T) -> Result<C, BriefError>,
    ) -> Vec<Result<Brief, BriefError>> {
        use rayon::prelude::*;
        let pages: Vec<Result<C, BriefError>> =
            items.iter().map(|item| guarded(|| chunks_of(item))).collect();
        let tasks: Vec<(usize, &Example)> = pages
            .iter()
            .flatten()
            .flat_map(|chunks| chunks.as_ref().iter().enumerate())
            .collect();
        let mut done = tasks
            .par_iter()
            .map(|&(i, ex)| guarded(|| Ok(self.brief_chunk(ex, i == 0))))
            .collect::<Vec<_>>()
            .into_iter();
        pages
            .into_iter()
            .map(|page| {
                let n = page?.as_ref().len();
                // Take all of the page's chunks before looking for a failed
                // one, so the next page starts at its own first chunk.
                let chunks: Vec<_> = done.by_ref().take(n).collect();
                Ok(assemble(chunks.into_iter().collect::<Result<_, _>>()?))
            })
            .collect()
    }

    /// Briefs one page given its sub-documents in document order: a
    /// [`Briefer::brief_batch`] of one page.
    pub fn brief_chunks(&self, chunks: &[Example]) -> Result<Brief, BriefError> {
        self.brief_batch(&[chunks], |&chunks| Ok(chunks)).pop().expect("one page in")
    }

    /// Briefs an already-encoded example (a single sub-document).
    ///
    /// # Panics
    /// If inference panics.
    pub fn brief_example(&self, ex: &Example) -> Brief {
        self.brief_chunks(std::slice::from_ref(ex)).unwrap_or_else(|e| panic!("{e}"))
    }

    /// One chunk's share of its page's brief: the inference pass, then the
    /// BIO spans decoded into named attributes.
    fn brief_chunk(&self, ex: &Example, first: bool) -> ChunkBrief {
        let _s = wb_obs::span!("brief.infer");
        let out = self.model.infer(ex, first);
        let attributes = bio_to_spans(&out.tags)
            .into_iter()
            .map(|(s, e)| BriefAttribute {
                name: infer_attribute_name(&self.tokenizer, ex, s),
                value: self.tokenizer.decode_ids(&ex.tokens[s..e]).join(" "),
            })
            .collect();
        ChunkBrief {
            topic: out.topic.map(|ids| self.tokenizer.decode_ids(&ids).join(" ")),
            attributes,
            sections: out.sections,
            sentences: ex.num_sentences(),
        }
    }
}

/// What one chunk contributes to its page's brief.
struct ChunkBrief {
    /// The generated topic (first chunk only).
    topic: Option<String>,
    /// Extracted attributes in chunk order, category cues included.
    attributes: Vec<BriefAttribute>,
    /// Chunk-local informative-sentence flags.
    sections: Option<Vec<bool>>,
    /// Sentences in the chunk.
    sentences: usize,
}

/// Joins a page's chunk briefs, given in document order, into its brief.
fn assemble(chunks: Vec<ChunkBrief>) -> Brief {
    let mut brief = Brief {
        topic: String::new(),
        category: None,
        attributes: Vec::new(),
        informative_sentences: Vec::new(),
    };
    let mut sentence_base = 0usize;
    for chunk in chunks {
        if let Some(topic) = chunk.topic {
            brief.topic = topic;
        }
        for attr in chunk.attributes {
            // The category attribute is promoted to its own hierarchy
            // level (the paper's "high-level key attribute"); the first
            // one in document order wins.
            if attr.name == "category" && brief.category.is_none() {
                brief.category = Some(attr.value);
            } else {
                brief.attributes.push(attr);
            }
        }
        // Sentence flags are chunk-local; shift them to document-global
        // sentence numbers.
        if let Some(flags) = chunk.sections {
            brief.informative_sentences.extend(
                flags.iter().enumerate().filter(|&(_, &f)| f).map(|(i, _)| sentence_base + i),
            );
        }
        sentence_base += chunk.sentences;
    }
    brief
}

/// Runs `f`, turning a panic into [`BriefError::Panicked`].
fn guarded<R>(f: impl FnOnce() -> Result<R, BriefError>) -> Result<R, BriefError> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(BriefError::Panicked(panic_text(p.as_ref()))))
}

/// The message of a caught panic payload.
pub(crate) fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Infers an attribute name from the cue words preceding a span — the
/// paper's future-work extension ("we plan to predict attribute names for
/// key attributes").
fn infer_attribute_name(wp: &WordPiece, ex: &Example, span_start: usize) -> String {
    let window_start = span_start.saturating_sub(4);
    let before: Vec<String> = wp.decode_ids(&ex.tokens[window_start..span_start]);
    let before_text = before.join(" ");
    // All cue phrases from the taxonomy, matched by suffix.
    for kind in ALL_KINDS {
        let cue = kind.cue();
        if before_text.ends_with(cue) || before_text.ends_with(cue.trim_end_matches(" $")) {
            return kind.name().to_string();
        }
    }
    "attribute".to_string()
}

const ALL_KINDS: [AttrKind; 22] = [
    AttrKind::Category,
    AttrKind::ItemName,
    AttrKind::Maker,
    AttrKind::Price,
    AttrKind::Headline,
    AttrKind::Author,
    AttrKind::Date,
    AttrKind::JobTitle,
    AttrKind::Company,
    AttrKind::Salary,
    AttrKind::CourseName,
    AttrKind::Instructor,
    AttrKind::Fee,
    AttrKind::Destination,
    AttrKind::Hotel,
    AttrKind::Condition,
    AttrKind::Specialist,
    AttrKind::Clinic,
    AttrKind::PropertyName,
    AttrKind::Agent,
    AttrKind::EventName,
    AttrKind::Venue,
];

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wb_corpus::{generate_site, DatasetConfig, PageConfig, SiteScenario, SiteSpecConfig};

    /// The long crawl page of the benchmark's sites: 8 informative, 6
    /// noise and 6 filler sections, four chunks at the scaled shape.
    pub(crate) fn long_page() -> PageConfig {
        PageConfig {
            informative_sections: 8,
            noise_sections: 6,
            filler_sentences: 6,
            ..PageConfig::default()
        }
    }

    /// The first window of `stream` starting at or after `from` whose
    /// detokenized text is `value`, as [`WordPiece::decode_ids`] joins it.
    fn window_at(stream: &[String], from: usize, value: &str) -> Option<usize> {
        (from..stream.len()).find(|&i| {
            let mut text = String::new();
            for (k, piece) in stream[i..].iter().enumerate() {
                match piece.strip_prefix("##") {
                    Some(rest) if k > 0 => text.push_str(rest),
                    _ if k > 0 => {
                        text.push(' ');
                        text.push_str(piece);
                    }
                    _ => text.push_str(piece),
                }
                if text == value {
                    return true;
                }
                if !value.starts_with(&text) {
                    return false;
                }
            }
            false
        })
    }

    /// Assembly properties that hold for any weights — here an untrained
    /// model's, whose tags and flags are arbitrary — over every hostility
    /// scenario built from long pages, briefed as one batch so that chunks
    /// of different pages finish in any order:
    ///
    /// * every informative-sentence index is below the page's sentence
    ///   count, and the indices strictly increase;
    /// * the attributes, in order, are successive runs of the page's
    ///   normalized visible text as the model reads it (its WordPiece
    ///   tokens, a `[CLS]` before each sentence), and so is the category;
    /// * each page's brief equals [`Briefer::brief_html`] of that page.
    #[test]
    fn assembled_briefs_stay_inside_their_page() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let briefer = Briefer::from_model(
            JointModel::new(JointVariant::JointWb, cfg, 11),
            d.tokenizer.clone(),
        );
        let tax = wb_corpus::Taxonomy::build(0, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let pages: Vec<String> = [
            SiteScenario::Clean,
            SiteScenario::Malformed,
            SiteScenario::Boilerplate,
            SiteScenario::NearDup,
            SiteScenario::Mixed,
        ]
        .into_iter()
        .flat_map(|scenario| {
            let site = SiteSpecConfig { pages: 6, scenario, page: long_page() };
            generate_site(&tax.topics()[1], site, &mut rng).files.into_iter().map(|f| f.html)
        })
        .collect();
        let vocab = d.tokenizer.vocab();
        let (mut multi_chunk, mut attributes) = (0, 0);
        let batch = briefer.brief_batch(&pages, |html| briefer.prepare_html(html));
        for (html, brief) in pages.iter().zip(batch) {
            let direct = briefer.brief_html(html);
            let brief = match (brief, direct) {
                (Ok(brief), Ok(direct)) => {
                    assert_eq!(brief, direct);
                    brief
                }
                (Err(e), Err(direct)) => {
                    assert_eq!(e.to_string(), direct.to_string());
                    continue;
                }
                (got, direct) => panic!("batch gave {got:?}, brief_html {direct:?}"),
            };
            let dom = parse_document(html).unwrap();
            multi_chunk += usize::from(briefer.prepare(&dom).unwrap().len() > 1);
            let sentences = split_sentences(&wb_html::visible_text(&dom));
            let flags = &brief.informative_sentences;
            assert!(flags.windows(2).all(|w| w[0] < w[1]), "{flags:?}");
            assert!(
                flags.iter().all(|&i| i < sentences.len()),
                "{flags:?} of {}",
                sentences.len()
            );
            let stream: Vec<String> = sentences
                .iter()
                .flat_map(|s| {
                    vocab.decode(&[CLS]).into_iter().chain(vocab.decode(&d.tokenizer.encode(s)))
                })
                .collect();
            let mut from = 0;
            for a in &brief.attributes {
                let at = window_at(&stream, from, &a.value);
                from = 1 + at
                    .unwrap_or_else(|| panic!("{:?} is not a later run of the page", a.value));
                attributes += 1;
            }
            if let Some(category) = &brief.category {
                assert!(window_at(&stream, 0, category).is_some(), "category {category:?}");
            }
        }
        assert!(multi_chunk >= 10, "only {multi_chunk} multi-chunk pages");
        assert!(attributes > 0, "no attributes to check");
    }

    /// A chunk whose inference panics fails its own page alone, with the
    /// error its page gets when briefed by itself; the pages after it in
    /// the batch still get their own chunks.
    #[test]
    fn a_panicking_chunk_fails_only_its_page() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let briefer = Briefer::from_model(
            JointModel::new(JointVariant::JointWb, cfg, 3),
            d.tokenizer.clone(),
        );
        let tax = wb_corpus::Taxonomy::build(0, 2);
        let mut rng = StdRng::seed_from_u64(9);
        let mut pages: Vec<Vec<Example>> = (0..3)
            .map(|i| {
                let html = wb_corpus::generate_page(&tax.topics()[i], long_page(), &mut rng);
                briefer.prepare_html(&html.dom.to_html()).unwrap()
            })
            .collect();
        assert!(pages.iter().all(|p| p.len() >= 2), "long pages are multi-chunk");
        // An id past the vocabulary makes the embedding lookup panic.
        pages[1][1].tokens[1] = u32::MAX;
        let batch = briefer.brief_batch(&pages, Ok);
        let alone: Vec<_> = pages.iter().map(|p| briefer.brief_chunks(p)).collect();
        assert!(matches!(batch[1], Err(BriefError::Panicked(_))), "{:?}", batch[1]);
        assert_eq!(
            batch[1].as_ref().unwrap_err().to_string(),
            alone[1].as_ref().unwrap_err().to_string()
        );
        for i in [0, 2] {
            assert_eq!(batch[i].as_ref().unwrap(), alone[i].as_ref().unwrap());
        }
    }

    #[test]
    fn brief_renders_hierarchy() {
        let b = Brief {
            topic: "fiction goods shopping".into(),
            category: Some("fiction".into()),
            attributes: vec![
                BriefAttribute { name: "price".into(), value: "<digit>".into() },
                BriefAttribute { name: "maker".into(), value: "emma smith".into() },
            ],
            informative_sentences: vec![2, 3],
        };
        let r = b.render();
        assert!(r.starts_with("Topic: fiction goods shopping"));
        assert!(r.contains("  Category: fiction"));
        assert!(r.contains("- price: <digit>"));
        assert_eq!(b.depth(), 3);
    }

    #[test]
    fn untrained_briefer_still_produces_well_formed_output() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let model = JointModel::new(JointVariant::JointWb, cfg, 0);
        let briefer = Briefer::from_model(model, d.tokenizer.clone());
        let html = "<html><body><section><p>Great velcro books, price : $ 40.13 today.</p>\
                    </section></body></html>";
        let brief = briefer.brief_html(html).expect("briefing should succeed");
        assert!(brief.topic.split(' ').count() <= cfg.max_topic_len);
    }

    #[test]
    fn empty_page_is_an_error() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let model = JointModel::new(JointVariant::JointWb, cfg, 0);
        let briefer = Briefer::from_model(model, d.tokenizer.clone());
        assert!(matches!(
            briefer.brief_html("<html><head><title>x</title></head></html>"),
            Err(BriefError::EmptyPage)
        ));
    }

    #[test]
    fn short_pages_chunked_equals_unchunked() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let model = JointModel::new(JointVariant::JointWb, cfg, 3);
        let briefer = Briefer::from_model(model, d.tokenizer.clone());
        let html = "<html><body><section><p>Great velcro books, price : $ 40.13 today.</p>\
                    <p>A second sentence about fiction goods.</p></section></body></html>";
        // The page fits inside one sub-document, so the chunked pipeline
        // must reduce to one unchunked pass over that sub-document.
        let sentences = split_sentences(&wb_html::visible_text(&parse_document(html).unwrap()));
        let chunks = encode_chunked(&sentences, &d.tokenizer, briefer.chunk_config());
        assert_eq!(chunks.len(), 1, "short page must be a single chunk");
        assert_eq!(briefer.brief_html(html).unwrap(), briefer.brief_example(&chunks[0]));
    }

    #[test]
    fn encode_chunked_splits_on_sentence_boundaries() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let sentences: Vec<String> =
            (0..8).map(|i| format!("great velcro books number {i} today .")).collect();
        let whole = ChunkConfig { doc_len: 1 << 16, sub_len: 1 << 16 };
        let mut unchunked = encode_chunked(&sentences, &d.tokenizer, whole);
        assert_eq!(unchunked.len(), 1, "one chunk holds the whole page");
        let one = unchunked.remove(0);
        let per_sent = one.tokens.len() / 8;
        // Pick a sub_len that holds two-ish sentences.
        let sub = (2 * per_sent + 2).max(4);
        let cfg = ChunkConfig { doc_len: sub * 8, sub_len: sub };
        let chunks = encode_chunked(&sentences, &d.tokenizer, cfg);
        assert!(chunks.len() > 1, "long page must chunk");
        for ex in &chunks {
            assert!(ex.tokens.len() <= sub);
            assert_eq!(ex.tokens[0], CLS);
            assert_eq!(ex.tokens.len(), ex.sentence_of.len());
            assert_eq!(ex.tokens.len(), ex.bio.len());
            assert_eq!(ex.cls_positions.len(), ex.informative.len());
            // Chunk-local sentence numbering starts at 0.
            assert_eq!(ex.sentence_of[0], 0);
        }
        // No sentence was split across a chunk boundary (each fits), so the
        // concatenation reproduces the unchunked token stream.
        let rejoined: Vec<u32> = chunks.iter().flat_map(|e| e.tokens.clone()).collect();
        assert_eq!(rejoined, one.tokens);
        let total_sentences: usize = chunks.iter().map(|e| e.num_sentences()).sum();
        assert_eq!(total_sentences, 8);
    }

    #[test]
    fn encode_chunked_caps_adversarially_long_pages() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let sentences: Vec<String> =
            (0..500).map(|_| "great velcro books today .".to_string()).collect();
        let cfg = ChunkConfig { doc_len: 64, sub_len: 16 };
        let chunks = encode_chunked(&sentences, &d.tokenizer, cfg);
        let total: usize = chunks.iter().map(|e| e.tokens.len()).sum();
        assert!(total <= 64, "doc budget exceeded: {total}");
        assert!(chunks.iter().all(|e| e.tokens.len() <= 16), "sub-document budget exceeded");
        // A single overlong sentence is cut at the sub-document boundary.
        let monster = vec!["great velcro books today . ".repeat(50)];
        let chunks = encode_chunked(&monster, &d.tokenizer, cfg);
        assert_eq!(chunks[0].tokens.len(), 16);
        assert_eq!(chunks[0].num_sentences(), 1);
    }

    #[test]
    fn chunked_brief_unions_attributes_in_document_order() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let model = JointModel::new(JointVariant::JointWb, cfg, 3);
        let briefer = Briefer::from_model(model, d.tokenizer.clone())
            .with_chunk_config(ChunkConfig { doc_len: 128, sub_len: 32 });
        // An adversarially long page still briefs (bounded work) and the
        // brief is well-formed.
        let body: String = (0..200)
            .map(|i| format!("<p>great velcro books {i} , price : $ {i}.99 .</p>"))
            .collect();
        let html = format!("<html><body><section>{body}</section></body></html>");
        let brief = briefer.brief_html(&html).unwrap();
        assert!(brief.topic.split(' ').count() <= cfg.max_topic_len);
        // Informative sentence ids are document-global and strictly
        // increasing across chunks.
        assert!(brief.informative_sentences.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn attribute_name_inference_matches_cues() {
        let d = Dataset::generate(&DatasetConfig::tiny());
        let sentences = ["special , price : $ 42 today .".to_string()];
        let ex =
            encode_chunked(&sentences, &d.tokenizer, ChunkConfig { doc_len: 64, sub_len: 64 })
                .remove(0);
        // Find the <digit> token (the 42).
        let digit_id = d.tokenizer.vocab().id("<digit>").unwrap();
        let pos = ex.tokens.iter().position(|&t| t == digit_id).unwrap();
        assert_eq!(infer_attribute_name(&d.tokenizer, &ex, pos), "price");
    }
}
