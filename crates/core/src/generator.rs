//! Single-task topic generators (§IV-A6 i): an embedder producing sentence
//! representations (the `[CLS]` rows), a Bi-LSTM sentence encoder and an
//! attention LSTM decoder — the `*→[Bi-LSTM, LSTM]` baselines, with the
//! optional `+prior section` input.

use crate::config::ModelConfig;
use crate::trainer::TrainableModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wb_corpus::Example;
use wb_nn::{BertConfig, BiLstm, Decoder, Embedder, EmbedderKind};
use wb_tensor::{Graph, Params, Tensor, Var};

/// A single-task topic generator.
pub struct Generator {
    params: Params,
    embedder: Embedder,
    sent_bilstm: BiLstm,
    decoder: Decoder,
    prior_section: bool,
    cfg: ModelConfig,
}

impl Generator {
    /// Builds a generator with the given embedding method; `prior_section`
    /// concatenates the gold informative flag to each sentence.
    pub fn new(kind: EmbedderKind, prior_section: bool, cfg: ModelConfig, seed: u64) -> Self {
        Self::build(kind, prior_section, cfg, Params::new(), &mut StdRng::seed_from_u64(seed))
    }

    /// Builds the model into `params`: a fresh store initialises it from
    /// `rng`, a restoring one takes the saved tensors ([`Params::restoring`]).
    pub(crate) fn build(
        kind: EmbedderKind,
        prior_section: bool,
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
        let in_dim = cfg.dim + usize::from(prior_section);
        let sent_bilstm = BiLstm::new(&mut params, rng, "sent", in_dim, cfg.hidden);
        let decoder = Decoder::new(
            &mut params,
            rng,
            "dec",
            cfg.vocab,
            cfg.dim,
            2 * cfg.hidden,
            cfg.dec_hidden,
        );
        Generator { params, embedder, sent_bilstm, decoder, prior_section, cfg }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Hidden sentence representations `H^g` of shape `[m, 2·hidden]` — the
    /// decoder memory, and the quantity identification distillation matches
    /// attention over for the generation task.
    pub fn memory(&self, g: &mut Graph, ex: &Example) -> Var {
        let tok = self.embedder.forward(g, &ex.tokens, &ex.sentence_of);
        let mut sents = sentence_reps(g, &self.embedder, tok, ex);
        if self.prior_section {
            let flags: Vec<f32> =
                ex.informative.iter().map(|&i| if i { 1.0 } else { 0.0 }).collect();
            let col = g.input(Tensor::from_vec(&[ex.informative.len(), 1], flags));
            sents = g.concat_cols(&[sents, col]);
        }
        let sents = g.dropout(sents, self.cfg.dropout);
        self.sent_bilstm.forward(g, sents)
    }

    /// Teacher-forced decoder logits `[n, vocab]` over `ex.topic_target`.
    pub fn decoded_logits(&self, g: &mut Graph, ex: &Example) -> Var {
        let memory = self.memory(g, ex);
        self.decoder.teacher_forced(g, &ex.topic_target, memory)
    }

    /// Generates a topic phrase with beam search (token ids, no `[EOS]`).
    pub fn generate(&self, ex: &Example) -> Vec<u32> {
        let mut g = Graph::new(&self.params, false, 0);
        let memory = self.memory(&mut g, ex);
        self.decoder.beam_search(&mut g, memory, self.cfg.beam, self.cfg.max_topic_len)
    }

    /// The decoder (shared with distillation students and Joint-WB).
    pub fn decoder(&self) -> &Decoder {
        &self.decoder
    }
}

/// Sentence representations from token representations: contextual
/// embedders use the `[CLS]` rows (BERTSUM-style); a static embedder's
/// `[CLS]` rows are all identical, so it mean-pools each sentence's tokens
/// instead.
pub(crate) fn sentence_reps(g: &mut Graph, embedder: &Embedder, tok: Var, ex: &Example) -> Var {
    match embedder {
        Embedder::Contextual(_) => g.gather_rows(tok, &ex.cls_positions),
        Embedder::Static(_) => {
            let m = ex.cls_positions.len();
            let mut rows = Vec::with_capacity(m);
            for s in 0..m {
                let start = ex.cls_positions[s];
                let end = ex.cls_positions.get(s + 1).copied().unwrap_or(ex.tokens.len());
                let slice = g.slice_rows(tok, start, end);
                rows.push(g.mean_rows(slice));
            }
            g.concat_rows(&rows)
        }
    }
}

impl TrainableModel for Generator {
    fn params(&self) -> &Params {
        &self.params
    }

    fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    fn loss(&self, g: &mut Graph, _idx: usize, ex: &Example) -> Var {
        let logits = self.decoded_logits(g, ex);
        let targets: Vec<usize> = ex.topic_target.iter().map(|&t| t as usize).collect();
        g.cross_entropy_rows(logits, &targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::trainer::train;
    use wb_corpus::{Dataset, DatasetConfig};
    use wb_eval::GenerationScores;

    fn tiny_dataset() -> Dataset {
        Dataset::generate(&DatasetConfig::tiny())
    }

    #[test]
    fn decoded_logits_shape() {
        let d = tiny_dataset();
        let ex = &d.examples[0];
        let m = Generator::new(
            EmbedderKind::Static,
            false,
            ModelConfig::scaled(d.tokenizer.vocab().len()),
            0,
        );
        let mut g = Graph::new(m.params(), false, 0);
        let l = m.decoded_logits(&mut g, ex);
        assert_eq!(g.value(l).shape(), &[ex.topic_target.len(), d.tokenizer.vocab().len()]);
    }

    #[test]
    fn generation_respects_max_len() {
        let d = tiny_dataset();
        let m = Generator::new(
            EmbedderKind::Static,
            false,
            ModelConfig::scaled(d.tokenizer.vocab().len()),
            0,
        );
        let out = m.generate(&d.examples[0]);
        assert!(out.len() <= m.config().max_topic_len);
    }

    /// The generator must learn to emit topic phrases for seen topics.
    #[test]
    fn generator_learns_seen_topics() {
        // Training passes the `train.step` fault point.
        let _chaos = wb_chaos::test_lock();
        let d = tiny_dataset();
        let split = d.split(3);
        let mut m = Generator::new(
            EmbedderKind::Static,
            false,
            ModelConfig::scaled(d.tokenizer.vocab().len()),
            1,
        );
        let mut cfg = TrainConfig::scaled(30);
        cfg.lr = 0.08;
        cfg.decay = 0.97;
        train(&mut m, &d.examples, &split.train, cfg);
        let mut scores = GenerationScores::default();
        for &i in &split.test {
            let ex = &d.examples[i];
            let out = m.generate(ex);
            let gold = &ex.topic_target[..ex.topic_target.len() - 1];
            scores.update(&out, gold);
        }
        eprintln!("generator seen-topic scores: EM {:.1} RM {:.1}", scores.em(), scores.rm());
        assert!(scores.rm() > 85.0, "RM too low: {:.1}", scores.rm());
        assert!(scores.em() > 50.0, "EM too low: {:.1}", scores.em());
    }
}
