#![warn(missing_docs)]
//! # wb-corpus
//!
//! The synthetic dataset substrate replacing the paper's 655K crawled
//! webpages (see DESIGN.md §2 for the substitution argument). Provides:
//!
//! * [`Taxonomy`] — 160 topics over eight domain families with three-token
//!   topic phrases and per-topic vocabularies,
//! * [`generate_page`] — labelled webpages (DOM + per-sentence
//!   informative labels + exact attribute offsets),
//! * [`Dataset`] — tokenised [`Example`]s with 80/10/10 splits and the
//!   seen/unseen topic protocol,
//! * [`concat_pages`] — the §IV-D content-sensitivity synthesizer.
//!
//! ```
//! use wb_corpus::{Dataset, DatasetConfig};
//!
//! let d = Dataset::generate(&DatasetConfig::tiny());
//! assert_eq!(d.taxonomy.len(), 16);
//! let split = d.split(1);
//! assert_eq!(
//!     split.train.len() + split.dev.len() + split.test.len(),
//!     d.examples.len()
//! );
//! // Every example carries the paper's 4 attribute spans.
//! assert!(d.examples.iter().all(|e| e.attr_spans.len() == 4));
//! ```

mod dataset;
mod export;
mod hostile;
mod page;
mod taxonomy;

pub use dataset::{
    concat_pages, encode_page, Dataset, DatasetConfig, Example, Split, NUM_TAGS, TAG_B, TAG_I,
    TAG_O,
};
pub use export::{export_pages, import_pages, PageLabels};
pub use hostile::{
    boilerplate_page, export_site, generate_site, invisible_page, malformed_page, poison_page,
    url_to_path, with_hidden_nav, SiteFile, SiteScenario, SiteSpec, SiteSpecConfig,
};
pub use page::{generate_page, AttributeMention, PageConfig, PageRecord, SentenceRecord};
pub use taxonomy::{
    AttrKind, Family, Source, Taxonomy, TopicId, TopicSpec, BOILERPLATE, FAMILIES, FIRST_NAMES,
    LAST_NAMES,
};
