//! Dual Distillation (§III-A): identification distillation `L_ID`
//! (eqs. 1–5) matches teacher and student attention over the `r` seen-topic
//! phrase representations; understanding distillation `L_UD` (eqs. 6–9)
//! matches temperature-softened output distributions.
//!
//! Total loss (eq. 10 plus the standard hard-label term of [17], which is
//! required for the student to learn topics the teacher never saw):
//! `L = CE + α·L_ID + γ²·L_UD`.
//!
//! The teacher is frozen: its hidden representations and softened outputs
//! are cached once per training example, so distillation steps never re-run
//! the teacher.

use crate::config::DistillConfig;
use crate::extractor::Extractor;
use crate::generator::Generator;
use crate::trainer::TrainableModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wb_corpus::Example;
use wb_tensor::{Graph, Initializer, ParamId, Params, Tensor, Var};

/// Which of the two WB sub-tasks a distillation run targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Key attribute extraction (token BIO tagging).
    Extraction,
    /// Topic generation (sequence decoding).
    Generation,
}

/// Which distillation losses are active — the `ID only` / `UD only`
/// ablations of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistillParts {
    /// Identification distillation enabled.
    pub id: bool,
    /// Understanding distillation enabled.
    pub ud: bool,
}

impl DistillParts {
    /// Full Dual-Distill.
    pub fn dual() -> Self {
        DistillParts { id: true, ud: true }
    }

    /// `ID only` ablation.
    pub fn id_only() -> Self {
        DistillParts { id: true, ud: false }
    }

    /// `UD only` ablation.
    pub fn ud_only() -> Self {
        DistillParts { id: false, ud: true }
    }
}

/// A teacher's view of one task: hidden representations for `L_ID` and
/// logits for `L_UD`, plus phrase embedding for building the topic bank.
pub trait DistillTeacher: Sync {
    /// `(H_T, logits_T)` for an example, computed without gradients.
    fn teach(&self, ex: &Example) -> (Tensor, Tensor);
    /// Embeds a topic phrase (token ids, no `[EOS]`) to a `[1, d]` vector
    /// using the teacher's learned representations.
    fn embed_phrase(&self, tokens: &[u32]) -> Tensor;
}

/// A student model distillable by [`DualDistill`].
pub trait DistillStudent: TrainableModel {
    /// `(H_S, logits_S)` built on the training graph (gold teacher forcing
    /// for generation).
    fn student_outputs(&self, g: &mut Graph, ex: &Example) -> (Var, Var);
    /// Hidden width of `H_S`.
    fn hidden_dim(&self) -> usize;
    /// The sub-task.
    fn task(&self) -> TaskKind;
}

impl DistillTeacher for Extractor {
    fn teach(&self, ex: &Example) -> (Tensor, Tensor) {
        let mut g = Graph::new(self.params(), false, 0);
        let h = self.hidden(&mut g, ex);
        let logits = self.head_on(&mut g, h);
        (g.value(h).clone(), g.value(logits).clone())
    }

    fn embed_phrase(&self, tokens: &[u32]) -> Tensor {
        let mut g = Graph::new(self.params(), false, 0);
        let h = self.hidden(&mut g, &phrase_example(tokens));
        let m = g.mean_rows(h);
        g.value(m).clone()
    }
}

impl DistillStudent for Extractor {
    fn student_outputs(&self, g: &mut Graph, ex: &Example) -> (Var, Var) {
        let h = self.hidden(g, ex);
        let hd = g.dropout(h, self.config().dropout);
        let logits = self.head_on(g, hd);
        (h, logits)
    }

    fn hidden_dim(&self) -> usize {
        2 * self.config().hidden
    }

    fn task(&self) -> TaskKind {
        TaskKind::Extraction
    }
}

impl DistillTeacher for Generator {
    fn teach(&self, ex: &Example) -> (Tensor, Tensor) {
        let mut g = Graph::new(self.params(), false, 0);
        let mem = self.memory(&mut g, ex);
        let logits = self.decoder().teacher_forced(&mut g, &ex.topic_target, mem);
        (g.value(mem).clone(), g.value(logits).clone())
    }

    fn embed_phrase(&self, tokens: &[u32]) -> Tensor {
        let mut g = Graph::new(self.params(), false, 0);
        let mem = self.memory(&mut g, &phrase_example(tokens));
        let m = g.mean_rows(mem);
        g.value(m).clone()
    }
}

impl DistillStudent for Generator {
    fn student_outputs(&self, g: &mut Graph, ex: &Example) -> (Var, Var) {
        let mem = self.memory(g, ex);
        let logits = self.decoder().teacher_forced(g, &ex.topic_target, mem);
        (mem, logits)
    }

    fn hidden_dim(&self) -> usize {
        2 * self.config().hidden
    }

    fn task(&self) -> TaskKind {
        TaskKind::Generation
    }
}

/// Wraps a topic phrase as a one-sentence [`Example`] so models can embed
/// it with their usual pipeline.
pub(crate) fn phrase_example(tokens: &[u32]) -> Example {
    let mut toks = vec![wb_text::CLS];
    toks.extend_from_slice(tokens);
    let n = toks.len();
    Example {
        topic: wb_corpus::TopicId(0),
        tokens: toks,
        cls_positions: vec![0],
        sentence_of: vec![0; n],
        bio: vec![0; n],
        informative: vec![true],
        topic_target: vec![wb_text::EOS],
        attr_spans: Vec::new(),
    }
}

/// The frozen teacher's cached signals for the training set.
#[derive(Clone)]
pub struct TeacherCache {
    /// `H_T` per training example.
    pub hidden: Vec<Tensor>,
    /// Temperature-softened output distributions `P_T` per example.
    pub soft: Vec<Tensor>,
}

impl TeacherCache {
    /// Runs the teacher over the training examples once.
    pub fn build<T: DistillTeacher + ?Sized>(
        teacher: &T,
        examples: &[Example],
        indices: &[usize],
        gamma: f32,
    ) -> Self {
        use rayon::prelude::*;
        let out: Vec<(Tensor, Tensor)> = indices
            .par_iter()
            .map(|&i| {
                let (h, logits) = teacher.teach(&examples[i]);
                (h, logits.softmax_rows(gamma))
            })
            .collect();
        let (hidden, soft) = out.into_iter().unzip();
        TeacherCache { hidden, soft }
    }
}

/// The topic phrase matrix `R` (eqs. 4–5): one row per seen topic, built
/// from the teacher's representations of each phrase.
#[derive(Clone)]
pub struct PhraseBank {
    /// Raw phrase representations `[r, d]` (constant).
    pub raw: Tensor,
}

impl PhraseBank {
    /// Embeds every phrase with the teacher.
    pub fn build<T: DistillTeacher + ?Sized>(teacher: &T, phrases: &[Vec<u32>]) -> Self {
        assert!(!phrases.is_empty(), "phrase bank needs at least one seen topic");
        let rows: Vec<Tensor> = phrases.iter().map(|p| teacher.embed_phrase(p)).collect();
        let refs: Vec<&Tensor> = rows.iter().collect();
        PhraseBank { raw: Tensor::concat_rows(&refs) }
    }

    /// Number of seen topics `r`.
    pub fn len(&self) -> usize {
        self.raw.rows()
    }

    /// True when the bank is empty (never after `build`).
    pub fn is_empty(&self) -> bool {
        self.raw.rows() == 0
    }
}

/// Mean-per-row L1 distance between two graph variables
/// (`|a − b|` via `relu(d) + relu(−d)`).
pub(crate) fn l1_between(g: &mut Graph, a: Var, b: Var) -> Var {
    let rows = g.value(a).rows() as f32;
    let d = g.sub(a, b);
    let pos = g.relu(d);
    let neg_d = g.scale(d, -1.0);
    let neg = g.relu(neg_d);
    let abs = g.add(pos, neg);
    let total = g.sum_all(abs);
    g.scale(total, 1.0 / rows)
}

/// A Dual-Distill training wrapper: the student plus the distillation
/// parameters (`W_R`, `W_AT`, `W_AS`) and the frozen teacher's caches.
pub struct DualDistill<S: DistillStudent> {
    student: S,
    cache: TeacherCache,
    bank: PhraseBank,
    w_r: ParamId,
    w_at: ParamId,
    w_as: ParamId,
    teacher_hidden_dim: usize,
    cfg: DistillConfig,
    parts: DistillParts,
    /// Topics the teacher was trained on. Understanding distillation is
    /// applied only to examples of these topics — on unseen-topic pages the
    /// teacher's confident outputs are wrong and would fight the hard
    /// labels. Identification distillation stays global: matching attention
    /// *towards the seen-topic representations* is exactly the auxiliary
    /// similarity signal the paper wants on unknown domains (§III-A). An
    /// empty set means "apply everywhere".
    seen_topics: std::collections::HashSet<wb_corpus::TopicId>,
}

impl<S: DistillStudent> DualDistill<S> {
    /// Builds the wrapper, registering the distillation parameters in the
    /// student's store.
    pub fn new(
        mut student: S,
        cache: TeacherCache,
        bank: PhraseBank,
        cfg: DistillConfig,
        parts: DistillParts,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let d_bank = bank.raw.cols();
        let d_r = d_bank.min(32);
        let teacher_hidden_dim = cache.hidden.first().map(|h| h.cols()).unwrap_or(d_bank);
        let student_hidden = student.hidden_dim();
        let params = student.params_mut();
        let w_r = params.add_init(
            "distill.w_r",
            &[d_bank, d_r],
            Initializer::XavierUniform,
            &mut rng,
        );
        let w_at = params.add_init(
            "distill.w_at",
            &[teacher_hidden_dim, d_r],
            Initializer::XavierUniform,
            &mut rng,
        );
        let w_as = params.add_init(
            "distill.w_as",
            &[student_hidden, d_r],
            Initializer::XavierUniform,
            &mut rng,
        );
        DualDistill {
            student,
            cache,
            bank,
            w_r,
            w_at,
            w_as,
            teacher_hidden_dim,
            cfg,
            parts,
            seen_topics: std::collections::HashSet::new(),
        }
    }

    /// Restricts understanding distillation to examples of these topics
    /// (the topics the teacher was pre-trained on).
    pub fn with_seen_topics(mut self, topics: &[wb_corpus::TopicId]) -> Self {
        self.seen_topics = topics.iter().copied().collect();
        self
    }

    /// The distilled student.
    pub fn student(&self) -> &S {
        &self.student
    }

    /// Consumes the wrapper, returning the student.
    pub fn into_student(self) -> S {
        self.student
    }

    /// The identification distillation `L_ID` (eq. 1) between the student's
    /// attention and the (cached-hidden) teacher's attention over `R`.
    fn identification_loss(&self, g: &mut Graph, idx: usize, h_s: Var) -> Var {
        let raw = g.input(self.bank.raw.clone());
        let w_r = g.param(self.w_r);
        let r_proj_lin = g.matmul(raw, w_r);
        let r_proj = g.tanh(r_proj_lin);
        let h_t = g.input(self.cache.hidden[idx].clone());
        debug_assert_eq!(self.cache.hidden[idx].cols(), self.teacher_hidden_dim);
        let w_at = g.param(self.w_at);
        let w_as = g.param(self.w_as);
        let tw = g.matmul(h_t, w_at);
        let a_t = g.softmax_matmul_nt(tw, r_proj, 1.0, 1.0);
        let sw = g.matmul(h_s, w_as);
        let a_s = g.softmax_matmul_nt(sw, r_proj, 1.0, 1.0);
        l1_between(g, a_t, a_s)
    }
}

impl<S: DistillStudent> TrainableModel for DualDistill<S> {
    fn params(&self) -> &Params {
        self.student.params()
    }

    fn params_mut(&mut self) -> &mut Params {
        self.student.params_mut()
    }

    fn loss(&self, g: &mut Graph, idx: usize, ex: &Example) -> Var {
        let (h_s, logits_s) = self.student.student_outputs(g, ex);
        // Hard-label CE (standard KD practice [17]).
        let targets: Vec<usize> = match self.student.task() {
            TaskKind::Extraction => ex.bio.iter().map(|&b| b as usize).collect(),
            TaskKind::Generation => ex.topic_target.iter().map(|&t| t as usize).collect(),
        };
        let mut total = g.cross_entropy_rows(logits_s, &targets);
        let teacher_competent =
            self.seen_topics.is_empty() || self.seen_topics.contains(&ex.topic);
        if self.parts.ud && teacher_competent {
            let log_q = g.log_softmax_rows(logits_s, self.cfg.gamma);
            let ud = g.kl_div(log_q, self.cache.soft[idx].clone());
            // γ² compensates the 1/γ² gradient scaling (eq. 10); κ balances
            // the soft terms against the hard-label CE.
            let ud_scaled = g.scale(ud, self.cfg.kappa * self.cfg.gamma * self.cfg.gamma);
            total = g.add(total, ud_scaled);
        }
        if self.parts.id {
            let id = self.identification_loss(g, idx, h_s);
            let id_scaled = g.scale(id, self.cfg.kappa * self.cfg.alpha);
            total = g.add(total, id_scaled);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, TrainConfig};
    use crate::extractor::ExtractorPriors;
    use crate::trainer::train;
    use wb_corpus::{Dataset, DatasetConfig};
    use wb_nn::EmbedderKind;

    fn tiny() -> Dataset {
        Dataset::generate(&DatasetConfig::tiny())
    }

    fn phrases(d: &Dataset, topics: &[wb_corpus::TopicId]) -> Vec<Vec<u32>> {
        topics
            .iter()
            .map(|&t| {
                d.taxonomy.topic(t).phrase.iter().flat_map(|w| d.tokenizer.encode(w)).collect()
            })
            .collect()
    }

    #[test]
    fn teacher_cache_shapes() {
        let d = tiny();
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let teacher = Generator::new(EmbedderKind::Static, false, cfg, 0);
        let cache = TeacherCache::build(&teacher, &d.examples, &[0, 1], 2.0);
        assert_eq!(cache.hidden.len(), 2);
        assert_eq!(cache.hidden[0].rows(), d.examples[0].informative.len());
        assert_eq!(cache.soft[0].rows(), d.examples[0].topic_target.len());
        // Softened rows are distributions.
        let s: f32 = cache.soft[0].row(0).iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
    }

    #[test]
    fn phrase_bank_has_one_row_per_topic() {
        let d = tiny();
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let teacher = Generator::new(EmbedderKind::Static, false, cfg, 0);
        let (seen, _) = d.topic_partition(3, 5);
        let bank = PhraseBank::build(&teacher, &phrases(&d, &seen));
        assert_eq!(bank.len(), seen.len());
    }

    #[test]
    fn dual_distill_loss_is_finite_and_trains() {
        // Training passes the `train.step` fault point.
        let _chaos = wb_chaos::test_lock();
        let d = tiny();
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let teacher = Generator::new(EmbedderKind::Static, false, cfg, 0);
        let (seen, _) = d.topic_partition(3, 5);
        let idx: Vec<usize> = (0..6).collect();
        let cache = TeacherCache::build(&teacher, &d.examples, &idx, 2.0);
        let bank = PhraseBank::build(&teacher, &phrases(&d, &seen));
        let student = Generator::new(EmbedderKind::Static, false, cfg, 9);
        let mut dd = DualDistill::new(
            student,
            cache,
            bank,
            DistillConfig::default(),
            DistillParts::dual(),
            1,
        );
        let mut tc = TrainConfig::scaled(2);
        tc.batch_size = 3;
        let stats = train(&mut dd, &d.examples, &idx, tc);
        assert!(stats.final_loss().is_finite());
        assert!(stats.final_loss() < stats.epoch_losses[0] * 1.5);
    }

    #[test]
    fn ablation_parts_change_the_loss() {
        let d = tiny();
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let teacher = Extractor::new(EmbedderKind::Static, ExtractorPriors::default(), cfg, 0);
        let (seen, _) = d.topic_partition(3, 5);
        let idx = [0usize];
        let loss_with = |parts: DistillParts| -> f32 {
            let cache = TeacherCache::build(&teacher, &d.examples, &idx, 2.0);
            let bank = PhraseBank::build(&teacher, &phrases(&d, &seen));
            let student =
                Extractor::new(EmbedderKind::Static, ExtractorPriors::default(), cfg, 9);
            let dd = DualDistill::new(student, cache, bank, DistillConfig::default(), parts, 1);
            let mut g = Graph::new(dd.params(), false, 0);
            let loss = dd.loss(&mut g, 0, &d.examples[0]);
            g.value(loss).item()
        };
        let full = loss_with(DistillParts::dual());
        let id_only = loss_with(DistillParts::id_only());
        let ud_only = loss_with(DistillParts::ud_only());
        assert!(full > id_only, "UD term must add loss: {full} vs {id_only}");
        assert!(full > ud_only, "ID term must add loss: {full} vs {ud_only}");
    }

    #[test]
    fn l1_between_matches_manual() {
        let params = Params::new();
        let mut g = Graph::new(&params, false, 0);
        let a = g.input(Tensor::from_vec(&[2, 2], vec![1.0, -2.0, 0.0, 3.0]));
        let b = g.input(Tensor::from_vec(&[2, 2], vec![0.0, 0.0, 1.0, 1.0]));
        let l = l1_between(&mut g, a, b);
        // (1 + 2 + 1 + 2) / 2 rows = 3.
        assert!((g.value(l).item() - 3.0).abs() < 1e-6);
    }
}
