//! Single-task key attribute extractors (§IV-A6 i): an embedder feeding a
//! Bi-LSTM token tagger, with the optional `+prior section` / `+prior topic`
//! inputs added via the ATAE-style concatenation of [28].

use crate::config::ModelConfig;
use crate::trainer::TrainableModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wb_corpus::{Example, NUM_TAGS};
use wb_nn::{BertConfig, BiLstm, Dense, Embedder, EmbedderKind};
use wb_tensor::{Graph, Params, Tensor, Var};

/// Which prior-knowledge inputs the extractor receives (ground truth given
/// as input, following the `+prior section` / `+prior topic` baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtractorPriors {
    /// Concatenate the gold informative-section flag to every token.
    pub section: bool,
    /// Concatenate the gold topic-phrase embedding to every token.
    pub topic: bool,
}

/// A single-task extractor: `embedder → Bi-LSTM → dense → BIO logits`.
pub struct Extractor {
    params: Params,
    embedder: Embedder,
    bilstm: BiLstm,
    head: Dense,
    /// Embeds topic-phrase tokens for the `+prior topic` input.
    topic_emb: Option<wb_nn::Embedding>,
    priors: ExtractorPriors,
    cfg: ModelConfig,
}

impl Extractor {
    /// Builds an extractor with the given embedding method and priors.
    pub fn new(
        kind: EmbedderKind,
        priors: ExtractorPriors,
        cfg: ModelConfig,
        seed: u64,
    ) -> Self {
        Self::build(kind, priors, cfg, Params::new(), &mut StdRng::seed_from_u64(seed))
    }

    /// Builds the model into `params`: a fresh store initialises it from
    /// `rng`, a restoring one takes the saved tensors ([`Params::restoring`]).
    pub(crate) fn build(
        kind: EmbedderKind,
        priors: ExtractorPriors,
        cfg: ModelConfig,
        mut params: Params,
        rng: &mut StdRng,
    ) -> Self {
        let bert_cfg = BertConfig {
            vocab: cfg.vocab,
            dim: cfg.dim,
            layers: cfg.bert_layers,
            max_len: cfg.max_len,
            dropout: cfg.dropout * 0.5,
        };
        let embedder = Embedder::new(&mut params, rng, "emb", kind, bert_cfg);
        let mut in_dim = cfg.dim;
        if priors.section {
            in_dim += 1;
        }
        let topic_emb = priors.topic.then(|| {
            in_dim += cfg.dim;
            wb_nn::Embedding::new(&mut params, rng, "topic_emb", cfg.vocab, cfg.dim)
        });
        let bilstm = BiLstm::new(&mut params, rng, "bilstm", in_dim, cfg.hidden);
        let head = Dense::new(&mut params, rng, "head", 2 * cfg.hidden, NUM_TAGS);
        Extractor { params, embedder, bilstm, head, topic_emb, priors, cfg }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Hidden token representations `H^e = BiLSTM(embed(tokens))` of shape
    /// `[T, 2·hidden]` — the quantity distillation matches attention over.
    pub fn hidden(&self, g: &mut Graph, ex: &Example) -> Var {
        let mut x = self.embedder.forward(g, &ex.tokens, &ex.sentence_of);
        let mut parts = vec![x];
        if self.priors.section {
            let flags: Vec<f32> = ex
                .sentence_of
                .iter()
                .map(|&s| if s != usize::MAX && ex.informative[s] { 1.0 } else { 0.0 })
                .collect();
            let col = g.input(Tensor::from_vec(&[ex.tokens.len(), 1], flags));
            parts.push(col);
        }
        if let Some(te) = &self.topic_emb {
            // Gold topic phrase, averaged, broadcast to every token.
            let phrase = &ex.topic_target[..ex.topic_target.len().saturating_sub(1)];
            let fallback = [wb_text::UNK];
            let phrase: &[u32] = if phrase.is_empty() { &fallback } else { phrase };
            let emb = te.forward(g, phrase);
            let mean = g.mean_rows(emb);
            let rep = g.gather_rows(mean, &vec![0; ex.tokens.len()]);
            parts.push(rep);
        }
        if parts.len() > 1 {
            x = g.concat_cols(&parts);
        }
        let x = g.dropout(x, self.cfg.dropout);
        self.bilstm.forward(g, x)
    }

    /// BIO logits `[T, 3]`.
    pub fn logits(&self, g: &mut Graph, ex: &Example) -> Var {
        let h = self.hidden(g, ex);
        let h = g.dropout(h, self.cfg.dropout);
        self.head.forward(g, h)
    }

    /// Predicted BIO tags for an example (inference mode).
    pub fn predict(&self, ex: &Example) -> Vec<u8> {
        let mut g = Graph::new(&self.params, false, 0);
        let logits = self.logits(&mut g, ex);
        g.value(logits).argmax_rows().iter().map(|&t| t as u8).collect()
    }

    /// Applies the BIO head on externally computed hidden states (used by
    /// distillation students that share the body).
    pub fn head_on(&self, g: &mut Graph, hidden: Var) -> Var {
        self.head.forward(g, hidden)
    }
}

impl TrainableModel for Extractor {
    fn params(&self) -> &Params {
        &self.params
    }

    fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    fn loss(&self, g: &mut Graph, _idx: usize, ex: &Example) -> Var {
        let logits = self.logits(g, ex);
        let targets: Vec<usize> = ex.bio.iter().map(|&b| b as usize).collect();
        g.cross_entropy_rows(logits, &targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::trainer::train;
    use wb_corpus::{Dataset, DatasetConfig};
    use wb_eval::{bio_to_spans, ExtractionScores};

    fn tiny_dataset() -> Dataset {
        Dataset::generate(&DatasetConfig::tiny())
    }

    #[test]
    fn logits_shape_matches_tokens() {
        let d = tiny_dataset();
        let ex = &d.examples[0];
        let e = Extractor::new(
            EmbedderKind::Static,
            ExtractorPriors::default(),
            ModelConfig::scaled(d.tokenizer.vocab().len()),
            0,
        );
        let mut g = Graph::new(e.params(), false, 0);
        let l = e.logits(&mut g, ex);
        assert_eq!(g.value(l).shape(), &[ex.tokens.len(), NUM_TAGS]);
    }

    #[test]
    fn priors_change_input_width_but_still_run() {
        let d = tiny_dataset();
        let ex = &d.examples[0];
        for priors in [
            ExtractorPriors { section: true, topic: false },
            ExtractorPriors { section: false, topic: true },
            ExtractorPriors { section: true, topic: true },
        ] {
            let e = Extractor::new(
                EmbedderKind::Static,
                priors,
                ModelConfig::scaled(d.tokenizer.vocab().len()),
                0,
            );
            let tags = e.predict(ex);
            assert_eq!(tags.len(), ex.tokens.len());
        }
    }

    /// A static-embedding extractor must learn the cue-pattern task to a
    /// reasonable F1 on held-out pages of the same topics.
    #[test]
    fn extractor_learns_attribute_cues() {
        // Training passes the `train.step` fault point.
        let _chaos = wb_chaos::test_lock();
        let d = tiny_dataset();
        let split = d.split(3);
        let mut e = Extractor::new(
            EmbedderKind::Static,
            ExtractorPriors::default(),
            ModelConfig::scaled(d.tokenizer.vocab().len()),
            1,
        );
        let mut cfg = TrainConfig::scaled(14);
        cfg.batch_size = 8;
        cfg.lr = 0.03;
        let stats = train(&mut e, &d.examples, &split.train, cfg);
        assert!(
            stats.final_loss() < stats.epoch_losses[0] * 0.6,
            "loss barely moved: {:?}",
            stats.epoch_losses
        );
        let mut scores = ExtractionScores::default();
        for &i in &split.test {
            let ex = &d.examples[i];
            let pred = bio_to_spans(&e.predict(ex));
            let gold: Vec<(usize, usize)> =
                ex.attr_spans.iter().map(|&(_, s, t)| (s, t)).collect();
            scores.update(&pred, &gold);
        }
        assert!(scores.f1() > 55.0, "F1 too low: {:.1}", scores.f1());
    }
}
