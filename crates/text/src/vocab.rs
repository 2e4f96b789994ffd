//! Token vocabulary with the special tokens used throughout the pipeline.

use std::collections::HashMap;

/// Id of the padding token.
pub const PAD: u32 = 0;
/// Id of the unknown token.
pub const UNK: u32 = 1;
/// Id of the sentence-start classification token (BERTSUM-style).
pub const CLS: u32 = 2;
/// Id of the separator token.
pub const SEP: u32 = 3;
/// Id of the begin-of-sequence token used by decoders.
pub const BOS: u32 = 4;
/// Id of the end-of-sequence token used by decoders.
pub const EOS: u32 = 5;

/// String forms of the special tokens in id order.
pub const SPECIALS: [&str; 6] = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[BOS]", "[EOS]"];

/// A bidirectional token ↔ id map. Ids `0..6` are always the special tokens.
///
/// Serialized as its token list alone (`{"id_to_token":[…]}`); the map is
/// rebuilt on load. A list that does not start with [`SPECIALS`] or holds
/// a token twice does not load. Files written when the map was stored too
/// still load, provided their `token_to_id` is exactly the rebuilt map.
#[derive(Debug, Clone)]
pub struct Vocab {
    token_to_id: HashMap<String, u32>,
    id_to_token: Vec<String>,
}

impl serde::Serialize for Vocab {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![("id_to_token".into(), self.id_to_token.to_value())])
    }
}

impl serde::Deserialize for Vocab {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let vocab = Vocab::from_tokens(Vec::from_value(v.field("id_to_token")?)?)
            .map_err(serde::DeError::msg)?;
        if let Some(saved) = v.get("token_to_id") {
            if HashMap::<String, u32>::from_value(saved)? != vocab.token_to_id {
                return Err(serde::DeError::msg(
                    "vocabulary: token_to_id disagrees with id_to_token",
                ));
            }
        }
        Ok(vocab)
    }
}

impl Default for Vocab {
    fn default() -> Self {
        Self::new()
    }
}

impl Vocab {
    /// A vocabulary containing only the special tokens.
    pub fn new() -> Self {
        let mut v = Vocab { token_to_id: HashMap::new(), id_to_token: Vec::new() };
        for s in SPECIALS {
            v.add(s);
        }
        v
    }

    /// The vocabulary whose token of id `i` is `id_to_token[i]`.
    fn from_tokens(id_to_token: Vec<String>) -> Result<Vocab, String> {
        if id_to_token.get(..SPECIALS.len()).is_none_or(|head| head != SPECIALS) {
            return Err(format!("vocabulary must start with the special tokens {SPECIALS:?}"));
        }
        let mut token_to_id = HashMap::with_capacity(id_to_token.len());
        for (id, token) in id_to_token.iter().enumerate() {
            if token_to_id.insert(token.clone(), id as u32).is_some() {
                return Err(format!("vocabulary holds {token:?} twice"));
            }
        }
        Ok(Vocab { token_to_id, id_to_token })
    }

    /// Adds a token if absent and returns its id.
    pub fn add(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.token_to_id.get(token) {
            return id;
        }
        let id = self.id_to_token.len() as u32;
        self.id_to_token.push(token.to_string());
        self.token_to_id.insert(token.to_string(), id);
        id
    }

    /// Looks up a token's id.
    pub fn id(&self, token: &str) -> Option<u32> {
        self.token_to_id.get(token).copied()
    }

    /// Looks up a token's id, falling back to `[UNK]`.
    pub fn id_or_unk(&self, token: &str) -> u32 {
        self.id(token).unwrap_or(UNK)
    }

    /// The token string for an id.
    pub fn token(&self, id: u32) -> &str {
        &self.id_to_token[id as usize]
    }

    /// Number of tokens including specials.
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// Always false: specials are present from construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Decodes ids to strings, skipping `[PAD]`.
    pub fn decode(&self, ids: &[u32]) -> Vec<String> {
        ids.iter().filter(|&&id| id != PAD).map(|&id| self.token(id).to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specials_have_fixed_ids() {
        let v = Vocab::new();
        assert_eq!(v.id("[PAD]"), Some(PAD));
        assert_eq!(v.id("[UNK]"), Some(UNK));
        assert_eq!(v.id("[CLS]"), Some(CLS));
        assert_eq!(v.id("[SEP]"), Some(SEP));
        assert_eq!(v.id("[BOS]"), Some(BOS));
        assert_eq!(v.id("[EOS]"), Some(EOS));
        assert_eq!(v.len(), 6);
    }

    #[test]
    fn add_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.add("book");
        let b = v.add("book");
        assert_eq!(a, b);
        assert_eq!(v.len(), 7);
    }

    #[test]
    fn unknown_falls_back() {
        let v = Vocab::new();
        assert_eq!(v.id_or_unk("nope"), UNK);
    }

    #[test]
    fn serializes_the_token_list_once_and_rebuilds_the_map() {
        let mut v = Vocab::new();
        v.add("book");
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(
            json,
            r#"{"id_to_token":["[PAD]","[UNK]","[CLS]","[SEP]","[BOS]","[EOS]","book"]}"#
        );
        let back: Vocab = serde_json::from_str(&json).unwrap();
        assert_eq!((back.id("book"), back.len(), back.token(6)), (Some(6), 7, "book"));
    }

    #[test]
    fn a_saved_map_must_match_the_list() {
        let list = r#""id_to_token":["[PAD]","[UNK]","[CLS]","[SEP]","[BOS]","[EOS]","book"]"#;
        let map = |entries: &str| format!(r#"{{"token_to_id":{{{entries}}},{list}}}"#);
        let specials = r#""[PAD]":0,"[UNK]":1,"[CLS]":2,"[SEP]":3,"[BOS]":4,"[EOS]":5"#;
        let old = map(&format!(r#"{specials},"book":6"#));
        let back: Vocab = serde_json::from_str(&old).unwrap();
        assert_eq!(back.id("book"), Some(6));
        for bad in [
            map(&format!(r#"{specials},"book":99999"#)),
            map(&format!(r#"{specials},"pen":6"#)),
            map(specials),
            map(&format!(r#"{specials},"book":6,"pen":7"#)),
        ] {
            let err = serde_json::from_str::<Vocab>(&bad).expect_err(&bad).to_string();
            assert!(err.contains("disagrees"), "{err}");
        }
    }

    #[test]
    fn a_list_without_specials_or_with_a_duplicate_does_not_load() {
        for (list, why) in [
            (r#"[]"#, "special tokens"),
            (r#"["[PAD]","[UNK]","[CLS]","[SEP]","[BOS]"]"#, "special tokens"),
            (r#"["[UNK]","[PAD]","[CLS]","[SEP]","[BOS]","[EOS]"]"#, "special tokens"),
            (r#"["[PAD]","[UNK]","[CLS]","[SEP]","[BOS]","[EOS]","a","a"]"#, "\"a\" twice"),
            (r#"["[PAD]","[UNK]","[CLS]","[SEP]","[BOS]","[EOS]","[PAD]"]"#, "twice"),
        ] {
            let json = format!(r#"{{"id_to_token":{list}}}"#);
            let err = serde_json::from_str::<Vocab>(&json).expect_err(&json).to_string();
            assert!(err.contains(why), "{json}: {err}");
        }
    }

    #[test]
    fn decode_skips_pad() {
        let mut v = Vocab::new();
        let b = v.add("book");
        assert_eq!(v.decode(&[PAD, b, PAD]), vec!["book"]);
    }
}
