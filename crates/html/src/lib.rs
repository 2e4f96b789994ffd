#![warn(missing_docs)]
//! # wb-html
//!
//! The webpage substrate: a DOM model, a lenient HTML parser, visible-text
//! extraction (our stand-in for the paper's Selenium rendering step), page
//! classification, and the link frontier that `wb crawl-brief`'s
//! structure-driven crawler follows.
//!
//! ```
//! use wb_html::{parse_document, visible_text};
//!
//! let dom = parse_document("<body><h1>Books</h1><p>Deep Learning, $40</p></body>").unwrap();
//! assert_eq!(visible_text(&dom), "Books\nDeep Learning, $40");
//! ```

mod dom;
mod parse;
mod render;
mod site;

pub use dom::{unescape, Node, Tag};
pub use parse::{parse_document, ParseError, MAX_DEPTH};
pub use render::{classify_page, visible_blocks, visible_text, PageKind, VisibleBlock};
pub use site::link_urls;
