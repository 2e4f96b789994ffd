//! A WordPiece-style subword tokenizer.
//!
//! The paper tokenises with BERT's WordPiece. We reimplement the same
//! interface: a vocabulary is *trained* from a corpus (frequent whole words
//! plus subword pieces, continuation pieces prefixed `##`), and encoding uses
//! greedy longest-match-first within each pre-token, falling back to `[UNK]`
//! when a word cannot be covered.

use crate::normalize::normalize;
use crate::vocab::{Vocab, UNK};
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration for [`WordPiece::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WordPieceConfig {
    /// Keep at most this many whole words (by frequency).
    pub max_words: usize,
    /// Keep at most this many subword pieces (by frequency).
    pub max_pieces: usize,
    /// Minimum corpus frequency for a whole word to enter the vocabulary.
    pub min_word_freq: usize,
    /// Maximum subword piece length in characters.
    pub max_piece_len: usize,
}

impl Default for WordPieceConfig {
    fn default() -> Self {
        WordPieceConfig {
            max_words: 8000,
            max_pieces: 2000,
            min_word_freq: 2,
            max_piece_len: 6,
        }
    }
}

/// A trained WordPiece tokenizer. Clones share one vocabulary.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct WordPiece {
    vocab: Arc<Vocab>,
    max_word_chars: usize,
}

impl WordPiece {
    /// Trains a vocabulary over an iterator of raw texts.
    pub fn train<'a>(texts: impl Iterator<Item = &'a str>, cfg: WordPieceConfig) -> Self {
        let mut word_freq: HashMap<String, usize> = HashMap::new();
        for text in texts {
            for tok in normalize(text) {
                *word_freq.entry(tok).or_insert(0) += 1;
            }
        }

        let mut vocab = Vocab::new();
        // Normalisation markers are always representable.
        vocab.add(crate::normalize::DIGIT_TOKEN);
        vocab.add(crate::normalize::NEWLINE_TOKEN);

        // 1. Frequent whole words.
        let mut words: Vec<(&String, &usize)> =
            word_freq.iter().filter(|(_, &f)| f >= cfg.min_word_freq).collect();
        words.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        for (w, _) in words.iter().take(cfg.max_words) {
            vocab.add(w);
        }

        // 2. Single characters (initial and continuation) so every word is
        //    coverable without [UNK] unless it contains unseen characters.
        let mut char_freq: HashMap<char, usize> = HashMap::new();
        for (w, f) in &word_freq {
            for c in w.chars() {
                *char_freq.entry(c).or_insert(0) += f;
            }
        }
        // Sorted so id assignment is reproducible run-to-run: HashMap
        // iteration order would otherwise leak into every checkpoint.
        let mut chars: Vec<char> = char_freq.keys().copied().collect();
        chars.sort_unstable();
        for c in chars {
            vocab.add(&c.to_string());
            vocab.add(&format!("##{c}"));
        }

        // 3. Frequent multi-character pieces harvested from word prefixes and
        //    suffixes (a cheap stand-in for BPE merges).
        let mut piece_freq: HashMap<String, usize> = HashMap::new();
        for (w, f) in &word_freq {
            let chars: Vec<char> = w.chars().collect();
            if chars.len() < 3 {
                continue;
            }
            for len in 2..=cfg.max_piece_len.min(chars.len() - 1) {
                let prefix: String = chars[..len].iter().collect();
                let suffix: String = chars[chars.len() - len..].iter().collect();
                *piece_freq.entry(prefix).or_insert(0) += f;
                *piece_freq.entry(format!("##{suffix}")).or_insert(0) += f;
            }
        }
        let mut pieces: Vec<(&String, &usize)> = piece_freq.iter().collect();
        pieces.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        for (p, _) in pieces.iter().take(cfg.max_pieces) {
            vocab.add(p);
        }

        WordPiece::from_vocab(vocab)
    }

    /// A tokenizer over a fixed, externally-built vocabulary (for tests).
    pub fn from_vocab(vocab: Vocab) -> Self {
        WordPiece { vocab: Arc::new(vocab), max_word_chars: 64 }
    }

    /// The underlying vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Tokenises raw text into WordPiece strings. The normalisation markers
    /// `<digit>` / `<nl>` are atomic: text that already contains them (e.g.
    /// pre-normalised corpus words) keeps them as single tokens.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        use crate::normalize::{DIGIT_TOKEN, NEWLINE_TOKEN};
        if text == DIGIT_TOKEN || text == NEWLINE_TOKEN {
            return vec![text.to_string()];
        }
        let mut out = Vec::new();
        for word in normalize(text) {
            self.tokenize_word(&word, &mut out);
        }
        out
    }

    /// Encodes raw text to token ids.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        self.tokenize(text).iter().map(|t| self.vocab.id_or_unk(t)).collect()
    }

    /// Greedy longest-match-first WordPiece tokenisation of a single word.
    fn tokenize_word(&self, word: &str, out: &mut Vec<String>) {
        if self.vocab.id(word).is_some() {
            out.push(word.to_string());
            return;
        }
        let chars: Vec<char> = word.chars().collect();
        if chars.len() > self.max_word_chars {
            out.push("[UNK]".to_string());
            return;
        }
        let mut pieces = Vec::new();
        let mut start = 0;
        while start < chars.len() {
            let mut end = chars.len();
            let mut found = None;
            while end > start {
                let sub: String = chars[start..end].iter().collect();
                let candidate = if start == 0 { sub } else { format!("##{sub}") };
                if self.vocab.id(&candidate).is_some() {
                    found = Some(candidate);
                    break;
                }
                end -= 1;
            }
            match found {
                Some(p) => {
                    pieces.push(p);
                    start = end;
                }
                None => {
                    out.push("[UNK]".to_string());
                    return;
                }
            }
        }
        out.extend(pieces);
    }

    /// Reassembles WordPiece tokens into words (inverse of tokenisation up
    /// to `[UNK]`).
    pub fn detokenize(tokens: &[String]) -> Vec<String> {
        let mut words: Vec<String> = Vec::new();
        for t in tokens {
            if let Some(cont) = t.strip_prefix("##") {
                if let Some(last) = words.last_mut() {
                    last.push_str(cont);
                    continue;
                }
            }
            words.push(t.clone());
        }
        words
    }

    /// Encodes and maps ids back to strings — convenience for decoders.
    pub fn decode_ids(&self, ids: &[u32]) -> Vec<String> {
        Self::detokenize(&self.vocab.decode(ids))
    }

    /// True when `id` is the unknown token.
    pub fn is_unk(&self, id: u32) -> bool {
        id == UNK
    }

    /// Serialises the tokenizer to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("tokenizer serialises")
    }

    /// Restores a tokenizer from [`WordPiece::to_json`] output.
    pub fn from_json(json: &str) -> Result<WordPiece, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained() -> WordPiece {
        let corpus = [
            "the quick brown fox jumps over the lazy dog",
            "the quick brown book is a good book",
            "booking bookshop bookstore books",
            "deep learning with tensorflow and python",
        ];
        WordPiece::train(
            corpus.iter().copied(),
            WordPieceConfig {
                max_words: 100,
                max_pieces: 200,
                min_word_freq: 1,
                max_piece_len: 6,
            },
        )
    }

    #[test]
    fn whole_words_stay_whole() {
        let wp = trained();
        assert_eq!(wp.tokenize("the quick fox"), vec!["the", "quick", "fox"]);
    }

    #[test]
    fn unseen_word_splits_into_pieces() {
        let wp = trained();
        let toks = wp.tokenize("bookish");
        assert!(toks.len() >= 2, "expected subword split, got {toks:?}");
        assert!(toks[0] == "book" || toks[0].starts_with('b'));
        assert!(toks[1..].iter().all(|t| t.starts_with("##")));
    }

    #[test]
    fn detokenize_inverts_tokenize() {
        let wp = trained();
        let toks = wp.tokenize("bookish dogs");
        let words = WordPiece::detokenize(&toks);
        assert_eq!(words, vec!["bookish", "dogs"]);
    }

    #[test]
    fn unknown_characters_become_unk() {
        let wp = trained();
        let toks = wp.tokenize("日本語");
        assert_eq!(toks, vec!["[UNK]"]);
    }

    #[test]
    fn encode_roundtrip_known() {
        let wp = trained();
        let ids = wp.encode("the book");
        assert!(ids.iter().all(|&id| id != UNK));
        assert_eq!(wp.decode_ids(&ids), vec!["the", "book"]);
    }

    #[test]
    fn digits_tokenize_to_digit_token() {
        let wp = trained();
        let toks = wp.tokenize("costs 42 dollars");
        assert!(toks.contains(&"<digit>".to_string()), "{toks:?}");
    }

    #[test]
    fn empty_text() {
        let wp = trained();
        assert!(wp.tokenize("").is_empty());
    }

    #[test]
    fn json_roundtrip_preserves_tokenisation() {
        let wp = trained();
        let restored = WordPiece::from_json(&wp.to_json()).unwrap();
        for text in ["the quick fox", "bookish dogs", "costs 42 dollars"] {
            assert_eq!(wp.encode(text), restored.encode(text));
        }
    }

    #[test]
    fn training_twice_yields_byte_identical_vocabularies() {
        // Two freshly-trained tokenizers must serialise identically; id
        // assignment may not depend on hash-map iteration order.
        assert_eq!(trained().to_json(), trained().to_json());
    }

    #[test]
    fn marker_tokens_are_atomic() {
        let wp = trained();
        assert_eq!(wp.tokenize("<digit>"), vec!["<digit>"]);
        assert_eq!(wp.tokenize("<nl>"), vec!["<nl>"]);
        // And they map to real vocabulary ids, not [UNK].
        assert_ne!(wp.encode("<digit>")[0], crate::vocab::UNK);
    }
}
