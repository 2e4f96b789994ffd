//! Multi-level Webpage Briefing — the paper's stated future work (§III-C:
//! "To extend the Joint-WB model to more than two levels of hierarchy, we
//! can use multiple extractors E to tackle key attributes at different
//! levels, combine the signals from different levels, and share the
//! combined signals with the generator G"; §V: "we aim to extend the
//! proposed models and experimental study to more levels of hierarchy").
//!
//! [`MultiLevelWb`] implements that sketch for the corpus' natural
//! three-level hierarchy: topic (generated) → high-level key attribute (the
//! category) → detailed key attributes (the rest). Two extractor heads with
//! their own topic-aware gates share one encoder; their integrated signals
//! are *combined* before being shared with the generator.

use crate::config::ModelConfig;
use crate::generator::sentence_reps;
use crate::pretrain::bert_config;
use crate::trainer::TrainableModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wb_corpus::{AttrKind, Example, NUM_TAGS, TAG_B, TAG_I, TAG_O};
use wb_nn::{BiLstm, Decoder, Dense, Embedder, EmbedderKind};
use wb_tensor::{Graph, Initializer, ParamId, Params, Tensor, Var};

/// Which hierarchy level an attribute kind belongs to.
pub fn attr_level(kind: AttrKind) -> usize {
    if kind == AttrKind::Category {
        0 // high level
    } else {
        1 // detail level
    }
}

/// Splits an example's BIO supervision into per-level tag sequences:
/// level 0 tags only the category span, level 1 tags the other attributes.
pub fn split_bio_levels(ex: &Example) -> [Vec<u8>; 2] {
    let mut out = [vec![TAG_O; ex.tokens.len()], vec![TAG_O; ex.tokens.len()]];
    for &(kind, s, e) in &ex.attr_spans {
        let level = attr_level(kind);
        out[level][s] = TAG_B;
        for t in out[level].iter_mut().take(e).skip(s + 1) {
            *t = TAG_I;
        }
    }
    out
}

/// One extractor level: a topic-gated head over the shared token encoder.
struct Level {
    w_ae: ParamId,
    head: Dense,
}

/// Joint-WB extended to two extraction levels plus the topic generator.
pub struct MultiLevelWb {
    params: Params,
    embedder: Embedder,
    e_bilstm: BiLstm,
    g_bilstm: BiLstm,
    decoder: Decoder,
    levels: Vec<Level>,
    /// Topic integration (`Q^b`).
    w_q: Dense,
    /// Combines the per-level integrated signals for the generator.
    w_comb: Dense,
    w_eg: Dense,
    w_ag: ParamId,
    cfg: ModelConfig,
}

/// Outputs of a multi-level forward pass.
pub struct MultiLevelForward {
    /// BIO logits per level (`[T, 3]` each).
    pub level_logits: Vec<Var>,
    /// Generation logits `[n, vocab]`.
    pub g_logits: Var,
}

impl MultiLevelWb {
    /// Builds the model (two levels).
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let embedder = Embedder::new(
            &mut params,
            &mut rng,
            "emb",
            EmbedderKind::BertSum,
            bert_config(&cfg),
        );
        let h2 = 2 * cfg.hidden;
        let e_bilstm = BiLstm::new(&mut params, &mut rng, "e.bilstm", cfg.dim, cfg.hidden);
        let g_bilstm = BiLstm::new(&mut params, &mut rng, "g.bilstm", cfg.dim, cfg.hidden);
        let decoder =
            Decoder::new(&mut params, &mut rng, "dec", cfg.vocab, cfg.dim, h2, cfg.dec_hidden);
        let w_q = Dense::new(
            &mut params,
            &mut rng,
            "w_q",
            cfg.max_topic_len * cfg.dec_hidden,
            cfg.dim,
        );
        let levels = (0..2)
            .map(|l| Level {
                w_ae: params.add_init(
                    &format!("level{l}.w_ae"),
                    &[h2, cfg.dim],
                    Initializer::XavierUniform,
                    &mut rng,
                ),
                head: Dense::new(
                    &mut params,
                    &mut rng,
                    &format!("level{l}.head"),
                    2 * h2,
                    NUM_TAGS,
                ),
            })
            .collect();
        // Combined signal: mean of each level's gated representation (h2
        // each) concatenated → dim.
        let w_comb = Dense::new(&mut params, &mut rng, "w_comb", 2 * h2, cfg.dim);
        let w_eg = Dense::new(&mut params, &mut rng, "w_eg", cfg.dim, h2);
        let w_ag = params.add_init("w_ag", &[h2, 1], Initializer::XavierUniform, &mut rng);
        MultiLevelWb {
            params,
            embedder,
            e_bilstm,
            g_bilstm,
            decoder,
            levels,
            w_q,
            w_comb,
            w_eg,
            w_ag,
            cfg,
        }
    }

    /// Number of extraction levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    fn topic_integration(&self, g: &mut Graph, q: Var) -> Var {
        let n = g.value(q).rows();
        let k = self.cfg.max_topic_len;
        let h = self.cfg.dec_hidden;
        let mut cols = Vec::with_capacity(k);
        for i in 0..k {
            if i < n {
                cols.push(g.slice_rows(q, i, i + 1));
            } else {
                cols.push(g.input(Tensor::zeros(&[1, h])));
            }
        }
        let flat = g.concat_cols(&cols);
        self.w_q.forward_tanh(g, flat)
    }

    /// The full forward pass (teacher-forced with `targets` for training;
    /// greedy first pass at inference happens in the predict helpers).
    pub fn forward(&self, g: &mut Graph, ex: &Example, targets: &[u32]) -> MultiLevelForward {
        let shared = self.embedder.forward(g, &ex.tokens, &ex.sentence_of);
        let sents = sentence_reps(g, &self.embedder, shared, ex);
        let tok_d = g.dropout(shared, self.cfg.dropout);
        let c_e = self.e_bilstm.forward(g, tok_d);
        let sents_d = g.dropout(sents, self.cfg.dropout);
        let c_g = self.g_bilstm.forward(g, sents_d);

        let (_, q) = self.decoder.teacher_forced_with_states(g, targets, c_g);
        let q_b = self.topic_integration(g, q);

        // Per-level topic-gated extraction.
        let mut level_logits = Vec::with_capacity(self.levels.len());
        let mut gated_means = Vec::with_capacity(self.levels.len());
        for level in &self.levels {
            let w_ae = g.param(level.w_ae);
            let hw = g.matmul(c_e, w_ae);
            let scores = g.matmul_nt(hw, q_b);
            let alpha = g.sigmoid(scores);
            let gated = g.mul_col_broadcast(c_e, alpha);
            let feats = g.concat_cols(&[c_e, gated]);
            let feats = g.dropout(feats, self.cfg.dropout);
            level_logits.push(level.head.forward(g, feats));
            gated_means.push(g.mean_rows(gated));
        }

        // Combine the per-level signals and share them with the generator.
        let combined = g.concat_cols(&gated_means);
        let e_b = self.w_comb.forward_tanh(g, combined);
        let e_proj = self.w_eg.forward_tanh(g, e_b);
        let mixed = g.mul_row_broadcast(c_g, e_proj);
        let w_ag = g.param(self.w_ag);
        let scores = g.matmul(mixed, w_ag);
        let alpha_g = g.sigmoid(scores);
        let gated_g = g.mul_col_broadcast(c_g, alpha_g);
        let mem2 = g.add(c_g, gated_g);
        let g_logits = self.decoder.teacher_forced(g, targets, mem2);

        MultiLevelForward { level_logits, g_logits }
    }

    /// Predicted BIO tags per level (greedy first decode at inference).
    pub fn predict_levels(&self, ex: &Example) -> Vec<Vec<u8>> {
        let mut g = Graph::new(&self.params, false, 0);
        let shared = self.embedder.forward(&mut g, &ex.tokens, &ex.sentence_of);
        let sents = sentence_reps(&mut g, &self.embedder, shared, ex);
        let c_e = self.e_bilstm.forward(&mut g, shared);
        let c_g = self.g_bilstm.forward(&mut g, sents);
        let (_, q) = self.decoder.greedy_with_states(&mut g, c_g, self.cfg.max_topic_len);
        let q_b = self.topic_integration(&mut g, q);
        self.levels
            .iter()
            .map(|level| {
                let w_ae = g.param(level.w_ae);
                let hw = g.matmul(c_e, w_ae);
                let scores = g.matmul_nt(hw, q_b);
                let alpha = g.sigmoid(scores);
                let gated = g.mul_col_broadcast(c_e, alpha);
                let feats = g.concat_cols(&[c_e, gated]);
                let logits = level.head.forward(&mut g, feats);
                g.value(logits).argmax_rows().iter().map(|&t| t as u8).collect()
            })
            .collect()
    }

    /// Generates the topic phrase (beam search over the combined-signal
    /// memory built from a greedy first pass).
    pub fn generate(&self, ex: &Example) -> Vec<u32> {
        let mut g = Graph::new(&self.params, false, 0);
        let shared = self.embedder.forward(&mut g, &ex.tokens, &ex.sentence_of);
        let sents = sentence_reps(&mut g, &self.embedder, shared, ex);
        let c_e = self.e_bilstm.forward(&mut g, shared);
        let c_g = self.g_bilstm.forward(&mut g, sents);
        let (_, q) = self.decoder.greedy_with_states(&mut g, c_g, self.cfg.max_topic_len);
        let q_b = self.topic_integration(&mut g, q);
        let mut gated_means = Vec::with_capacity(self.levels.len());
        for level in &self.levels {
            let w_ae = g.param(level.w_ae);
            let hw = g.matmul(c_e, w_ae);
            let scores = g.matmul_nt(hw, q_b);
            let alpha = g.sigmoid(scores);
            let gated = g.mul_col_broadcast(c_e, alpha);
            gated_means.push(g.mean_rows(gated));
        }
        let combined = g.concat_cols(&gated_means);
        let e_b = self.w_comb.forward_tanh(&mut g, combined);
        let e_proj = self.w_eg.forward_tanh(&mut g, e_b);
        let mixed = g.mul_row_broadcast(c_g, e_proj);
        let w_ag = g.param(self.w_ag);
        let scores = g.matmul(mixed, w_ag);
        let alpha_g = g.sigmoid(scores);
        let gated_g = g.mul_col_broadcast(c_g, alpha_g);
        let mem2 = g.add(c_g, gated_g);
        self.decoder.beam_search(&mut g, mem2, self.cfg.beam, self.cfg.max_topic_len)
    }
}

impl TrainableModel for MultiLevelWb {
    fn params(&self) -> &Params {
        &self.params
    }

    fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    fn loss(&self, g: &mut Graph, _idx: usize, ex: &Example) -> Var {
        let fwd = self.forward(g, ex, &ex.topic_target);
        let levels = split_bio_levels(ex);
        let topic: Vec<usize> = ex.topic_target.iter().map(|&t| t as usize).collect();
        let mut total = g.cross_entropy_rows(fwd.g_logits, &topic);
        for (logits, tags) in fwd.level_logits.iter().zip(&levels) {
            let targets: Vec<usize> = tags.iter().map(|&b| b as usize).collect();
            let l = g.cross_entropy_rows(*logits, &targets);
            total = g.add(total, l);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wb_corpus::{Dataset, DatasetConfig};

    fn tiny() -> Dataset {
        Dataset::generate(&DatasetConfig::tiny())
    }

    #[test]
    fn bio_levels_partition_the_spans() {
        let d = tiny();
        let ex = &d.examples[0];
        let [high, detail] = split_bio_levels(ex);
        // Exactly one high-level span (the category).
        assert_eq!(high.iter().filter(|&&t| t == TAG_B).count(), 1);
        assert_eq!(detail.iter().filter(|&&t| t == TAG_B).count(), 3);
        // Together they reconstruct the original supervision.
        for i in 0..ex.bio.len() {
            let merged = if high[i] != TAG_O { high[i] } else { detail[i] };
            assert_eq!(merged, ex.bio[i], "position {i}");
        }
    }

    #[test]
    fn forward_shapes() {
        let d = tiny();
        let ex = &d.examples[0];
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let m = MultiLevelWb::new(cfg, 0);
        let mut g = Graph::new(m.params(), false, 0);
        let fwd = m.forward(&mut g, ex, &ex.topic_target);
        assert_eq!(fwd.level_logits.len(), 2);
        for l in &fwd.level_logits {
            assert_eq!(g.value(*l).shape(), &[ex.tokens.len(), NUM_TAGS]);
        }
        assert_eq!(g.value(fwd.g_logits).rows(), ex.topic_target.len());
    }

    #[test]
    fn inference_apis() {
        let d = tiny();
        let ex = &d.examples[1];
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let m = MultiLevelWb::new(cfg, 3);
        let levels = m.predict_levels(ex);
        assert_eq!(levels.len(), 2);
        assert!(levels.iter().all(|l| l.len() == ex.tokens.len()));
        assert!(m.generate(ex).len() <= cfg.max_topic_len);
    }

    #[test]
    fn trains_without_panicking_and_loss_decreases() {
        // Training passes the `train.step` fault point.
        let _chaos = wb_chaos::test_lock();
        let d = tiny();
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let mut m = MultiLevelWb::new(cfg, 1);
        let mut tc = crate::config::TrainConfig::scaled(3);
        tc.lr = 0.01;
        tc.batch_size = 4;
        let idx: Vec<usize> = (0..12).collect();
        let stats = crate::trainer::train(&mut m, &d.examples, &idx, tc);
        assert!(stats.final_loss().is_finite());
        assert!(stats.final_loss() < stats.epoch_losses[0]);
    }
}
