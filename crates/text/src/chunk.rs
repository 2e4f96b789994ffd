//! The sub-document shape of §IV-A3: a `[CLS]` token starts every sentence
//! (BERTSUM-style) and the document is split into fixed-size sub-documents
//! to respect the encoder's input limit (the paper pads to 2,048 tokens and
//! splits into four 512-token sub-documents). `wb_core::encode_chunked`
//! applies it.

/// Chunking configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkConfig {
    /// Token budget of the whole document.
    pub doc_len: usize,
    /// Sub-document length; must divide `doc_len`.
    pub sub_len: usize,
}
