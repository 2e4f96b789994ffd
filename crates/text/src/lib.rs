#![warn(missing_docs)]
//! # wb-text
//!
//! Text preprocessing for Webpage Briefing, following §IV-A3 of the paper:
//!
//! 1. [`normalize`] lowercases, replaces digit runs with `<digit>`, and keeps
//!    newlines and punctuation as standalone tokens.
//! 2. [`split_sentences`] segments visible text into sentences.
//! 3. [`WordPiece`] is a trainable WordPiece-style subword tokenizer
//!    (greedy longest-match with `##` continuations).
//! 4. [`ChunkConfig`] is the sub-document shape: a `[CLS]` token per
//!    sentence (BERTSUM-style), whole sentences packed into fixed-size
//!    sub-documents, and a token budget for the whole document.
//!
//! ```
//! use wb_text::{split_sentences, WordPiece, WordPieceConfig};
//!
//! let wp = WordPiece::train(
//!     ["deep learning books on sale. free shipping today."].into_iter(),
//!     WordPieceConfig::default(),
//! );
//! let sentences = split_sentences("Deep learning books. Free shipping.");
//! assert_eq!(sentences.len(), 2);
//! assert!(!wp.encode(&sentences[0]).is_empty());
//! ```

mod chunk;
mod normalize;
mod stats;
mod vocab;
mod wordpiece;

pub use chunk::ChunkConfig;
pub use normalize::{normalize, split_sentences, DIGIT_TOKEN, NEWLINE_TOKEN};
pub use stats::{coverage, Coverage, FrequencyTable};
pub use vocab::{Vocab, BOS, CLS, EOS, PAD, SEP, SPECIALS, UNK};
pub use wordpiece::{WordPiece, WordPieceConfig};
