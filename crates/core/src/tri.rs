//! Triple Distillation (§III-B): one *shared* identification distillation
//! over the shared encoder representations (eq. 11) plus two understanding
//! distillations — attribute extraction and topic generation — with the
//! total loss `L = λ·L_ID + μ·L_UD^e + ν·γ²·L_UD^g` (eq. 12) plus the
//! hard-label terms (see `distill.rs` for why).
//!
//! Also provides the per-task teacher views of a [`JointModel`] so
//! Dual-Distill can use joint teachers (Table V's Naive-Join / Joint-WB
//! teacher columns).

use crate::config::DistillConfig;
use crate::distill::{l1_between, phrase_example, DistillTeacher, PhraseBank};
use crate::joint::JointModel;
use crate::trainer::TrainableModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use wb_corpus::Example;
use wb_tensor::{Graph, Initializer, ParamId, Params, Tensor, Var};

/// A joint teacher viewed as an attribute-extraction teacher.
pub struct JointExtractionTeacher<'a>(pub &'a JointModel);

/// A joint teacher viewed as a topic-generation teacher.
pub struct JointGenerationTeacher<'a>(pub &'a JointModel);

impl DistillTeacher for JointExtractionTeacher<'_> {
    fn teach(&self, ex: &Example) -> (Tensor, Tensor) {
        let mut g = Graph::new(self.0.params(), false, 0);
        let fwd = self.0.forward(&mut g, ex, &ex.topic_target);
        (g.value(fwd.hidden_e).clone(), g.value(fwd.e_logits).clone())
    }

    fn embed_phrase(&self, tokens: &[u32]) -> Tensor {
        self.0.embed_phrase_mean(tokens)
    }
}

impl DistillTeacher for JointGenerationTeacher<'_> {
    fn teach(&self, ex: &Example) -> (Tensor, Tensor) {
        let mut g = Graph::new(self.0.params(), false, 0);
        let fwd = self.0.forward(&mut g, ex, &ex.topic_target);
        (g.value(fwd.hidden_g).clone(), g.value(fwd.g_logits).clone())
    }

    fn embed_phrase(&self, tokens: &[u32]) -> Tensor {
        self.0.embed_phrase_mean(tokens)
    }
}

/// The joint teacher's cached signals for Tri-Distill.
#[derive(Clone)]
pub struct JointTeacherCache {
    /// Shared encoder representations `H_T` per example (`[T, dim]`).
    pub shared: Vec<Tensor>,
    /// Softened extraction distributions `[T, 3]`.
    pub soft_e: Vec<Tensor>,
    /// Softened generation distributions `[n, vocab]`.
    pub soft_g: Vec<Tensor>,
}

impl JointTeacherCache {
    /// Runs the joint teacher once over the training examples.
    pub fn build(
        teacher: &JointModel,
        examples: &[Example],
        indices: &[usize],
        gamma: f32,
    ) -> Self {
        let out: Vec<(Tensor, Tensor, Tensor)> = indices
            .par_iter()
            .map(|&i| {
                let ex = &examples[i];
                let mut g = Graph::new(teacher.params(), false, 0);
                let fwd = teacher.forward(&mut g, ex, &ex.topic_target);
                (
                    g.value(fwd.shared).clone(),
                    g.value(fwd.e_logits).clone().softmax_rows(gamma),
                    g.value(fwd.g_logits).clone().softmax_rows(gamma),
                )
            })
            .collect();
        let mut shared = Vec::with_capacity(out.len());
        let mut soft_e = Vec::with_capacity(out.len());
        let mut soft_g = Vec::with_capacity(out.len());
        for (s, e, g) in out {
            shared.push(s);
            soft_e.push(e);
            soft_g.push(g);
        }
        JointTeacherCache { shared, soft_e, soft_g }
    }
}

/// The Tri-Distill training wrapper: a joint student, the joint teacher's
/// caches, and the shared identification-distillation parameters.
pub struct TriDistill {
    student: JointModel,
    cache: JointTeacherCache,
    bank: PhraseBank,
    w_r: ParamId,
    w_at: ParamId,
    w_as: ParamId,
    cfg: DistillConfig,
    /// Topics the teacher saw — understanding distillation is gated to
    /// these (see `DualDistill::with_seen_topics`).
    seen_topics: std::collections::HashSet<wb_corpus::TopicId>,
}

impl TriDistill {
    /// Builds the wrapper; distillation parameters are registered in the
    /// student's store.
    pub fn new(
        mut student: JointModel,
        cache: JointTeacherCache,
        bank: PhraseBank,
        cfg: DistillConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let d_bank = bank.raw.cols();
        let d_r = d_bank.min(32);
        let dim = student.config().dim;
        let params = student.params_mut();
        let w_r =
            params.add_init("tri.w_r", &[d_bank, d_r], Initializer::XavierUniform, &mut rng);
        let w_at =
            params.add_init("tri.w_at", &[dim, d_r], Initializer::XavierUniform, &mut rng);
        let w_as =
            params.add_init("tri.w_as", &[dim, d_r], Initializer::XavierUniform, &mut rng);
        TriDistill {
            student,
            cache,
            bank,
            w_r,
            w_at,
            w_as,
            cfg,
            seen_topics: std::collections::HashSet::new(),
        }
    }

    /// Restricts the understanding distillations to the teacher's seen
    /// topics.
    pub fn with_seen_topics(mut self, topics: &[wb_corpus::TopicId]) -> Self {
        self.seen_topics = topics.iter().copied().collect();
        self
    }

    /// The distilled joint student.
    pub fn student(&self) -> &JointModel {
        &self.student
    }

    /// Consumes the wrapper, returning the student.
    pub fn into_student(self) -> JointModel {
        self.student
    }
}

impl TrainableModel for TriDistill {
    fn params(&self) -> &Params {
        self.student.params()
    }

    fn params_mut(&mut self) -> &mut Params {
        self.student.params_mut()
    }

    fn loss(&self, g: &mut Graph, idx: usize, ex: &Example) -> Var {
        let fwd = self.student.forward(g, ex, &ex.topic_target);

        // Hard labels.
        let bio: Vec<usize> = ex.bio.iter().map(|&b| b as usize).collect();
        let topic: Vec<usize> = ex.topic_target.iter().map(|&t| t as usize).collect();
        let ce_e = g.cross_entropy_rows(fwd.e_logits, &bio);
        let ce_g = g.cross_entropy_rows(fwd.g_logits, &topic);
        let mut total = g.add(ce_e, ce_g);

        // Shared identification distillation (eq. 11).
        let raw = g.input(self.bank.raw.clone());
        let w_r = g.param(self.w_r);
        let r_lin = g.matmul(raw, w_r);
        let r_proj = g.tanh(r_lin);
        let h_t = g.input(self.cache.shared[idx].clone());
        let w_at = g.param(self.w_at);
        let w_as = g.param(self.w_as);
        let tw = g.matmul(h_t, w_at);
        let a_t = g.softmax_matmul_nt(tw, r_proj, 1.0, 1.0);
        let sw = g.matmul(fwd.shared, w_as);
        let a_s = g.softmax_matmul_nt(sw, r_proj, 1.0, 1.0);
        let id = l1_between(g, a_t, a_s);
        let id_scaled = g.scale(id, self.cfg.kappa * self.cfg.lambda);
        total = g.add(total, id_scaled);

        // Understanding distillations (eq. 12), gated to seen topics.
        let teacher_competent =
            self.seen_topics.is_empty() || self.seen_topics.contains(&ex.topic);
        if teacher_competent {
            let log_q_e = g.log_softmax_rows(fwd.e_logits, self.cfg.gamma);
            let ud_e = g.kl_div(log_q_e, self.cache.soft_e[idx].clone());
            let ud_e_scaled = g.scale(ud_e, self.cfg.kappa * self.cfg.mu);
            total = g.add(total, ud_e_scaled);

            let log_q_g = g.log_softmax_rows(fwd.g_logits, self.cfg.gamma);
            let ud_g = g.kl_div(log_q_g, self.cache.soft_g[idx].clone());
            let ud_g_scaled =
                g.scale(ud_g, self.cfg.kappa * self.cfg.nu * self.cfg.gamma * self.cfg.gamma);
            total = g.add(total, ud_g_scaled);
        }

        total
    }
}

impl JointModel {
    /// Embeds a topic phrase with the shared encoder (mean over tokens) —
    /// used to build the phrase bank when the teacher is a joint model.
    pub fn embed_phrase_mean(&self, tokens: &[u32]) -> Tensor {
        let ex = phrase_example(tokens);
        let mut g = Graph::new(self.params(), false, 0);
        let fwd = self.forward(&mut g, &ex, &ex.topic_target);
        let m = g.mean_rows(fwd.shared);
        g.value(m).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, TrainConfig};
    use crate::joint::JointVariant;
    use crate::trainer::train;
    use wb_corpus::{Dataset, DatasetConfig};

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
    fn joint_teacher_cache_shapes() {
        let d = tiny();
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let teacher = JointModel::new(JointVariant::NaiveJoin, cfg, 0);
        let cache = JointTeacherCache::build(&teacher, &d.examples, &[0, 1], 2.0);
        assert_eq!(cache.shared.len(), 2);
        assert_eq!(cache.shared[0].rows(), d.examples[0].tokens.len());
        assert_eq!(cache.soft_e[0].rows(), d.examples[0].tokens.len());
        assert_eq!(cache.soft_g[0].rows(), d.examples[0].topic_target.len());
    }

    #[test]
    fn tri_distill_trains_and_loss_is_finite() {
        // Training passes the `train.step` fault point.
        let _chaos = wb_chaos::test_lock();
        let d = tiny();
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let teacher = JointModel::new(JointVariant::NaiveJoin, cfg, 0);
        let idx: Vec<usize> = (0..4).collect();
        let cache = JointTeacherCache::build(&teacher, &d.examples, &idx, 2.0);
        let (seen, _) = d.topic_partition(3, 5);
        let bank = PhraseBank::build(&JointGenerationTeacher(&teacher), &phrases(&d, &seen));
        let student = JointModel::new(JointVariant::NaiveJoin, cfg, 9);
        let mut tri = TriDistill::new(student, cache, bank, DistillConfig::default(), 2);
        let mut tc = TrainConfig::scaled(2);
        tc.batch_size = 2;
        let stats = train(&mut tri, &d.examples, &idx, tc);
        assert!(stats.final_loss().is_finite());
    }

    #[test]
    fn joint_teacher_views_produce_task_shaped_outputs() {
        let d = tiny();
        let ex = &d.examples[0];
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let teacher = JointModel::new(JointVariant::JointWb, cfg, 0);
        let (h_e, l_e) = JointExtractionTeacher(&teacher).teach(ex);
        assert_eq!(h_e.rows(), ex.tokens.len());
        assert_eq!(l_e.shape(), &[ex.tokens.len(), wb_corpus::NUM_TAGS]);
        let (h_g, l_g) = JointGenerationTeacher(&teacher).teach(ex);
        assert_eq!(h_g.rows(), ex.informative.len());
        assert_eq!(l_g.rows(), ex.topic_target.len());
    }

    #[test]
    fn phrase_embedding_is_fixed_width() {
        let d = tiny();
        let cfg = ModelConfig::scaled(d.tokenizer.vocab().len());
        let teacher = JointModel::new(JointVariant::NaiveJoin, cfg, 0);
        let a = teacher.embed_phrase_mean(&[10, 11, 12]);
        let b = teacher.embed_phrase_mean(&[10, 11, 12, 13, 14]);
        assert_eq!(a.shape(), b.shape());
    }
}
