#![warn(missing_docs)]
//! # wb-core
//!
//! The paper's contribution — three models for Webpage Briefing:
//!
//! * [`JointModel`] with [`JointVariant::JointWb`] — the joint model of
//!   §III-C: key attribute extractor `E`, topic generator `G` and
//!   informative section predictor `P` with Markov dependency, coupled by
//!   the section-and-topic and section-and-key-attributes dual-aware signal
//!   exchange mechanisms. The other [`JointVariant`]s are the joint
//!   baselines of Tables VIII/IX.
//! * [`DualDistill`] — §III-A: identification distillation (attention
//!   matching over the seen-topic [`PhraseBank`], eqs. 1–5) plus
//!   understanding distillation (temperature-softened KL, eqs. 6–9), with
//!   the [`DistillParts`] ablations (`ID only` / `UD only`).
//! * [`TriDistill`] — §III-B: one shared identification distillation over
//!   the shared encoder plus two understanding distillations.
//!
//! Single-task baselines ([`Extractor`], [`Generator`]) cover the
//! `{GloVe,BERT,BERTSUM} → {Bi-LSTM, [Bi-LSTM, LSTM]}` grid with the
//! `+prior section` / `+prior topic` variants of Tables VI/VII.
//!
//! The user-facing entry point is [`Briefer`]: HTML in, hierarchical
//! [`Brief`] out.
mod briefer;
mod checkpoint;
mod config;
mod distill;
mod early_stop;
mod extractor;
mod generator;
mod joint;
mod multilevel;
mod pipeline;
mod pretrain;
mod resume;
mod sensitivity;
mod trainer;
mod tri;

pub use briefer::{encode_chunked, Brief, BriefAttribute, BriefError, Briefer};
pub use checkpoint::{Checkpoint, RestoreError};
pub use config::{DistillConfig, ModelConfig, TrainConfig};
pub use distill::{
    DistillParts, DistillStudent, DistillTeacher, DualDistill, PhraseBank, TaskKind,
    TeacherCache,
};
pub use early_stop::{eval_loss, train_with_dev, EarlyStopConfig, EarlyStopStats};
pub use extractor::{Extractor, ExtractorPriors};
pub use generator::Generator;
pub use joint::{Inference, JointForward, JointModel, JointVariant};
pub use multilevel::{attr_level, split_bio_levels, MultiLevelForward, MultiLevelWb};
pub use pipeline::{crawl_brief, PipelineConfig, PipelineError, PipelineReport};
pub use pretrain::{
    bert_config, pretrain_contextual, pretrain_static, transfer_embedder, PretrainConfig, MASK,
};
pub use resume::{CheckpointPolicy, TrainError, TrainState};
pub use sensitivity::{build_pairs, content_sensitivity, SensitivityOutcome};
pub use trainer::{train, train_resumable, TrainStats, TrainableModel};
pub use tri::{JointExtractionTeacher, JointGenerationTeacher, JointTeacherCache, TriDistill};
