//! Model checkpointing: save a trained model (architecture metadata +
//! parameter store) to JSON and restore it exactly. A restore runs the
//! model's constructor against a restoring store ([`Params::restoring`]):
//! each parameter takes its saved tensor once its name and shape are
//! checked, so nothing is initialised at random and nothing of the sizes
//! the configuration asks for is allocated. Parameters
//! saved from another architecture, or a configuration edited to sizes
//! too large to allocate, are a [`RestoreError`] naming the first
//! parameter that differs, never a panic, an aborted allocation or
//! silently misassigned weights. Tensor values are stored as base64 of
//! their little-endian `f32` bytes (see [`wb_tensor::Tensor`]), which keeps
//! loading cheap and bit-exact.

use crate::extractor::{Extractor, ExtractorPriors};
use crate::generator::Generator;
use crate::joint::{JointModel, JointVariant};
use crate::trainer::TrainableModel;
use crate::ModelConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::path::Path;
use wb_nn::EmbedderKind;
use wb_tensor::Params;
use wb_text::WordPiece;

/// Serialisable snapshot of any model in this crate.
#[derive(serde::Serialize, serde::Deserialize)]
pub enum Checkpoint {
    /// A joint model.
    Joint {
        /// The joint variant.
        variant: JointVariant,
        /// Architecture configuration.
        config: ModelConfig,
        /// Parameter values.
        params: Params,
    },
    /// A single-task extractor.
    Extractor {
        /// Embedding method.
        kind: EmbedderKind,
        /// Prior-knowledge inputs (`+prior section` / `+prior topic`).
        section_prior: bool,
        /// Topic prior flag.
        topic_prior: bool,
        /// Architecture configuration.
        config: ModelConfig,
        /// Parameter values.
        params: Params,
    },
    /// A single-task generator.
    Generator {
        /// Embedding method.
        kind: EmbedderKind,
        /// `+prior section` flag.
        section_prior: bool,
        /// Architecture configuration.
        config: ModelConfig,
        /// Parameter values.
        params: Params,
    },
    /// A full briefing pipeline: a joint model plus its tokenizer.
    Briefer {
        /// The joint variant.
        variant: JointVariant,
        /// Architecture configuration.
        config: ModelConfig,
        /// Parameter values.
        params: Params,
        /// The trained tokenizer.
        tokenizer: WordPiece,
    },
}

impl Checkpoint {
    /// Writes the checkpoint as JSON.
    ///
    /// The write is atomic with respect to crashes: the JSON goes to a
    /// sibling temporary file first and is renamed over `path` only once
    /// fully written, so a crash mid-save can never leave a truncated
    /// checkpoint that poisons the next `wb brief`/`wb serve` start —
    /// `path` either holds the previous complete checkpoint or the new
    /// one. The temporary name embeds the process id so concurrent savers
    /// targeting the same path cannot trample each other's staging file.
    ///
    /// Transient write failures are retried a few times with jittered
    /// exponential backoff ([`wb_obs::retry`]); only a persistently
    /// failing volume surfaces as an error. Chaos site:
    /// `core.checkpoint.write` (an `error` fault exercises the retries).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = serde_json::to_string(self).map_err(io::Error::other)?;
        let path = path.as_ref();
        let cfg = wb_obs::retry::BackoffConfig::default();
        wb_obs::retry::retry("checkpoint save", cfg, || {
            if let Some(f) = wb_chaos::fault_point!("core.checkpoint.write") {
                return Err(f.io_error("core.checkpoint.write"));
            }
            let mut tmp_name = path.file_name().map(|n| n.to_os_string()).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("checkpoint path {} has no file name", path.display()),
                )
            })?;
            tmp_name.push(format!(".{}.tmp", std::process::id()));
            let tmp = path.with_file_name(tmp_name);
            std::fs::write(&tmp, &json)?;
            std::fs::rename(&tmp, path).inspect_err(|_| {
                // Leave no staging litter behind a failed rename.
                let _ = std::fs::remove_file(&tmp);
            })
        })
    }

    /// Reads a checkpoint from JSON. A file that is not a well-formed
    /// checkpoint — including a tensor whose value count disagrees with
    /// its shape — is an `Other` error, never a panic. Timed by the
    /// `core.checkpoint.load` span.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
        let _s = wb_obs::span!("core.checkpoint.load");
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json).map_err(io::Error::other)
    }
}

/// Errors when restoring a model from a checkpoint.
#[derive(Debug)]
pub enum RestoreError {
    /// The checkpoint holds a different model kind.
    WrongKind,
    /// The checkpoint's parameters do not fit the architecture its
    /// configuration builds; the text names the first parameter that
    /// differs (see [`Params::finish_restore`]).
    ParamMismatch(String),
    /// A briefer's tokenizer does not have the configuration's vocabulary
    /// size, so some token ids would miss the embedding tables.
    VocabMismatch {
        /// Tokens in the tokenizer.
        tokens: usize,
        /// The configuration's vocabulary size.
        config: usize,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::WrongKind => write!(f, "checkpoint holds a different model kind"),
            RestoreError::ParamMismatch(detail) => {
                write!(f, "parameters do not match the architecture: {detail}")
            }
            RestoreError::VocabMismatch { tokens, config } => {
                write!(f, "the tokenizer holds {tokens} tokens, the configuration {config}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Builds a model into a restoring copy of `saved` and finishes the
/// restore. The copy is the one clone of the saved tensors that borrowing
/// the checkpoint costs; the RNG is never drawn from.
fn restore<M: TrainableModel>(
    saved: &Params,
    build: impl FnOnce(Params, &mut StdRng) -> M,
) -> Result<M, RestoreError> {
    let mut m = build(Params::restoring(saved.clone()), &mut StdRng::seed_from_u64(0));
    m.params_mut().finish_restore().map_err(RestoreError::ParamMismatch)?;
    Ok(m)
}

/// Restores the joint model of a `Joint` or `Briefer` checkpoint.
fn restore_joint(ckpt: &Checkpoint) -> Result<JointModel, RestoreError> {
    match ckpt {
        Checkpoint::Joint { variant, config, params }
        | Checkpoint::Briefer { variant, config, params, .. } => {
            restore(params, |p, rng| JointModel::build(*variant, *config, p, rng))
        }
        _ => Err(RestoreError::WrongKind),
    }
}

impl JointModel {
    /// Snapshots this model.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::Joint {
            variant: self.variant(),
            config: *self.config(),
            params: self.params().clone(),
        }
    }

    /// Restores a joint model from a checkpoint. Timed by the
    /// `core.checkpoint.restore` span.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<JointModel, RestoreError> {
        let _s = wb_obs::span!("core.checkpoint.restore");
        restore_joint(ckpt)
    }
}

impl Extractor {
    /// Snapshots this model. The prior flags must be supplied by the caller
    /// because they are construction-time choices.
    pub fn checkpoint(&self, kind: EmbedderKind, priors: ExtractorPriors) -> Checkpoint {
        Checkpoint::Extractor {
            kind,
            section_prior: priors.section,
            topic_prior: priors.topic,
            config: *self.config(),
            params: self.params().clone(),
        }
    }

    /// Restores an extractor from a checkpoint. Timed by the
    /// `core.checkpoint.restore` span.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Extractor, RestoreError> {
        let _s = wb_obs::span!("core.checkpoint.restore");
        match ckpt {
            Checkpoint::Extractor { kind, section_prior, topic_prior, config, params } => {
                let priors = ExtractorPriors { section: *section_prior, topic: *topic_prior };
                restore(params, |p, rng| Extractor::build(*kind, priors, *config, p, rng))
            }
            _ => Err(RestoreError::WrongKind),
        }
    }
}

impl Generator {
    /// Snapshots this model.
    pub fn checkpoint(&self, kind: EmbedderKind, section_prior: bool) -> Checkpoint {
        Checkpoint::Generator {
            kind,
            section_prior,
            config: *self.config(),
            params: self.params().clone(),
        }
    }

    /// Restores a generator from a checkpoint. Timed by the
    /// `core.checkpoint.restore` span.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Generator, RestoreError> {
        let _s = wb_obs::span!("core.checkpoint.restore");
        match ckpt {
            Checkpoint::Generator { kind, section_prior, config, params } => {
                restore(params, |p, rng| {
                    Generator::build(*kind, *section_prior, *config, p, rng)
                })
            }
            _ => Err(RestoreError::WrongKind),
        }
    }
}

impl crate::briefer::Briefer {
    /// Snapshots the full briefing pipeline (model + tokenizer).
    pub fn checkpoint(&self, tokenizer: &WordPiece) -> Checkpoint {
        Checkpoint::Briefer {
            variant: self.model().variant(),
            config: *self.model().config(),
            params: self.model().params().clone(),
            tokenizer: tokenizer.clone(),
        }
    }

    /// Restores a briefer from a checkpoint. Its tokenizer must have the
    /// configuration's vocabulary size. Timed by the
    /// `core.checkpoint.restore` span.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<crate::briefer::Briefer, RestoreError> {
        let _s = wb_obs::span!("core.checkpoint.restore");
        match ckpt {
            Checkpoint::Briefer { tokenizer, config, .. } => {
                let tokens = tokenizer.vocab().len();
                if tokens != config.vocab {
                    return Err(RestoreError::VocabMismatch { tokens, config: config.vocab });
                }
                let model = restore_joint(ckpt)?;
                Ok(crate::briefer::Briefer::from_model(model, tokenizer.clone()))
            }
            _ => Err(RestoreError::WrongKind),
        }
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
    fn joint_checkpoint_roundtrips_predictions() {
        let d = tiny();
        let mc = ModelConfig::scaled(d.tokenizer.vocab().len());
        let m = JointModel::new(JointVariant::JointWb, mc, 5);
        let dir = std::env::temp_dir().join("wb_ckpt_joint.json");
        m.checkpoint().save(&dir).unwrap();
        let restored = JointModel::from_checkpoint(&Checkpoint::load(&dir).unwrap()).unwrap();
        let ex = &d.examples[0];
        assert_eq!(m.predict_tags(ex), restored.predict_tags(ex));
        assert_eq!(m.generate(ex), restored.generate(ex));
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn generator_checkpoint_roundtrips() {
        let d = tiny();
        let mc = ModelConfig::scaled(d.tokenizer.vocab().len());
        let m = Generator::new(EmbedderKind::Static, true, mc, 5);
        let ckpt = m.checkpoint(EmbedderKind::Static, true);
        let restored = Generator::from_checkpoint(&ckpt).unwrap();
        let ex = &d.examples[1];
        assert_eq!(m.generate(ex), restored.generate(ex));
    }

    #[test]
    fn extractor_checkpoint_roundtrips() {
        let d = tiny();
        let mc = ModelConfig::scaled(d.tokenizer.vocab().len());
        let priors = ExtractorPriors { section: true, topic: false };
        let m = Extractor::new(EmbedderKind::Bert, priors, mc, 5);
        let ckpt = m.checkpoint(EmbedderKind::Bert, priors);
        let restored = Extractor::from_checkpoint(&ckpt).unwrap();
        let ex = &d.examples[2];
        assert_eq!(m.predict(ex), restored.predict(ex));
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let d = tiny();
        let mc = ModelConfig::scaled(d.tokenizer.vocab().len());
        let m = Generator::new(EmbedderKind::Static, false, mc, 5);
        let ckpt = m.checkpoint(EmbedderKind::Static, false);
        assert!(JointModel::from_checkpoint(&ckpt).is_err());
        assert!(Extractor::from_checkpoint(&ckpt).is_err());
    }

    #[test]
    fn truncated_checkpoint_yields_clean_load_error() {
        let d = tiny();
        let mc = ModelConfig::scaled(d.tokenizer.vocab().len());
        let m = JointModel::new(JointVariant::JointWb, mc, 5);
        let path = std::env::temp_dir().join("wb_ckpt_truncated.json");
        m.checkpoint().save(&path).unwrap();
        // Simulate a crash mid-write under the old non-atomic scheme: the
        // file exists but holds only a prefix of the JSON.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = match Checkpoint::load(&path) {
            Ok(_) => panic!("truncated checkpoint must not load"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::Other, "load must fail cleanly: {err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rank_three_tensor_yields_clean_load_error() {
        let d = tiny();
        let mc = ModelConfig::scaled(d.tokenizer.vocab().len());
        let m = JointModel::new(JointVariant::JointWb, mc, 5);
        let path = std::env::temp_dir().join("wb_ckpt_rank3.json");
        m.checkpoint().save(&path).unwrap();
        // Prepend a unit axis to the first tensor: same element count, rank 3.
        let full = std::fs::read_to_string(&path).unwrap();
        assert!(full.contains("\"shape\":["), "unexpected checkpoint layout");
        std::fs::write(&path, full.replacen("\"shape\":[", "\"shape\":[1,", 1)).unwrap();
        let err = match Checkpoint::load(&path) {
            Ok(_) => panic!("a rank-3 tensor must not load"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("rank 3"), "load must name the bad rank: {err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn save_is_atomic_and_leaves_no_staging_file() {
        let d = tiny();
        let mc = ModelConfig::scaled(d.tokenizer.vocab().len());
        let m = JointModel::new(JointVariant::JointWb, mc, 5);
        let dir = std::env::temp_dir().join("wb_ckpt_atomic_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        m.checkpoint().save(&path).unwrap();
        // Saving over an existing checkpoint replaces it wholesale…
        let first = std::fs::read_to_string(&path).unwrap();
        m.checkpoint().save(&path).unwrap();
        assert_eq!(first, std::fs::read_to_string(&path).unwrap());
        // …and the staging file never outlives a successful save.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "staging litter: {leftovers:?}");
        assert!(Checkpoint::load(&path).is_ok());
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A transient write failure (injected via the `core.checkpoint.write`
    /// chaos site) is absorbed by the backoff retries; the checkpoint
    /// still lands intact.
    #[test]
    fn transient_write_failure_is_retried() {
        let d = tiny();
        let mc = ModelConfig::scaled(d.tokenizer.vocab().len());
        let m = JointModel::new(JointVariant::JointWb, mc, 5);
        let path =
            std::env::temp_dir().join(format!("wb_ckpt_retry_{}.json", std::process::id()));
        {
            let _guard = wb_chaos::test_lock();
            wb_chaos::arm_str("core.checkpoint.write=error@nth(1)").unwrap();
            let saved = m.checkpoint().save(&path);
            wb_chaos::disarm();
            saved.expect("save must succeed on the retry");
        }
        assert!(Checkpoint::load(&path).is_ok());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn save_to_pathless_target_is_invalid_input() {
        let d = tiny();
        let mc = ModelConfig::scaled(d.tokenizer.vocab().len());
        let m = JointModel::new(JointVariant::JointWb, mc, 5);
        // A fault armed by `transient_write_failure_is_retried` would
        // replace the path error with the injected one.
        let _guard = wb_chaos::test_lock();
        let retries = wb_obs::metrics::registry().counter("obs.retry.attempts");
        let before = retries.get();
        let err = match m.checkpoint().save("/") {
            Ok(()) => panic!("no file name to save to"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        // A path error fails the same way every time: no backoff sleeps.
        assert_eq!(retries.get(), before, "a permanent error was retried");
    }

    #[test]
    fn architecture_mismatch_is_a_restore_error() {
        let d = tiny();
        let mc = ModelConfig::scaled(d.tokenizer.vocab().len());
        let m = JointModel::new(JointVariant::JointWb, mc, 5);
        let Checkpoint::Joint { variant, config, params } = m.checkpoint() else {
            unreachable!("a joint model snapshots as Checkpoint::Joint")
        };
        let wider = ModelConfig { hidden: config.hidden + 1, ..config };
        let ckpt = Checkpoint::Joint { variant, config: wider, params: params.clone() };
        let err = JointModel::from_checkpoint(&ckpt).err().expect("hidden 17 must not restore");
        assert!(matches!(err, RestoreError::ParamMismatch(_)), "{err}");
        assert!(err.to_string().contains("shape"), "{err}");
        // Sizes no allocation could hold are compared, never built.
        let huge = ModelConfig { hidden: 1 << 60, ..config };
        let ckpt = Checkpoint::Joint { variant, config: huge, params };
        let err =
            JointModel::from_checkpoint(&ckpt).err().expect("hidden 2^60 must not restore");
        assert!(err.to_string().contains("1152921504606846976]"), "{err}");

        // A generator's checkpoint carrying an extractor's parameters.
        let ex = Extractor::new(EmbedderKind::Static, ExtractorPriors::default(), mc, 5);
        let ckpt = Checkpoint::Generator {
            kind: EmbedderKind::Static,
            section_prior: false,
            config: mc,
            params: ex.params().clone(),
        };
        let err =
            Generator::from_checkpoint(&ckpt).err().expect("foreign params must not restore");
        assert!(err.to_string().contains("in its place"), "{err}");
    }

    /// Checkpoints written before tensors were base64-encoded hold each
    /// tensor's values as a JSON number array; they load to the same bits.
    #[test]
    fn number_array_checkpoint_loads_bit_identically() {
        use serde::{Deserialize, Serialize, Value};
        fn to_number_arrays(v: &mut Value) {
            // Only a saved tensor deserializes as one.
            if let Ok(t) = wb_tensor::Tensor::from_value(v) {
                let nums = t.data().iter().map(|&x| Value::Num(f64::from(x))).collect();
                *v = Value::Obj(vec![
                    ("shape".into(), t.shape().to_vec().to_value()),
                    ("data".into(), Value::Arr(nums)),
                ]);
                return;
            }
            match v {
                Value::Obj(entries) => {
                    entries.iter_mut().for_each(|(_, e)| to_number_arrays(e))
                }
                Value::Arr(items) => items.iter_mut().for_each(to_number_arrays),
                _ => {}
            }
        }

        let d = tiny();
        let mc = ModelConfig::scaled(d.tokenizer.vocab().len());
        let briefer = crate::briefer::Briefer::from_model(
            JointModel::new(JointVariant::JointWb, mc, 5),
            d.tokenizer.clone(),
        );
        let dir = std::env::temp_dir().join(format!("wb_ckpt_legacy_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (new_path, old_path) = (dir.join("new.json"), dir.join("old.json"));
        briefer.checkpoint(&d.tokenizer).save(&new_path).unwrap();
        let mut tree: Value =
            serde_json::from_str(&std::fs::read_to_string(&new_path).unwrap()).unwrap();
        to_number_arrays(&mut tree);
        let legacy = serde_json::to_string(&tree).unwrap();
        assert!(!legacy.contains("\"data\":\""), "every tensor must be rewritten");
        std::fs::write(&old_path, legacy).unwrap();

        let load = |p: &std::path::Path| {
            crate::briefer::Briefer::from_checkpoint(&Checkpoint::load(p).unwrap()).unwrap()
        };
        let (new, old) = (load(&new_path), load(&old_path));
        let bits = |b: &crate::briefer::Briefer| -> Vec<Vec<u32>> {
            b.model()
                .params()
                .iter()
                .map(|(_, _, t)| t.data().iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&new), bits(&old));
        assert_eq!(bits(&new), bits(&briefer));
        let html = "<html><body><section><p>Great velcro books, price : $ 40.13 today.</p>\
                    </section></body></html>";
        let brief = |b: &crate::briefer::Briefer| {
            serde_json::to_string(&b.brief_html(html).unwrap()).unwrap()
        };
        assert_eq!(brief(&new), brief(&old));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_tokenizer_of_another_vocabulary_size_is_a_restore_error() {
        let d = tiny();
        let mc = ModelConfig::scaled(d.tokenizer.vocab().len() + 1);
        let briefer = crate::briefer::Briefer::from_model(
            JointModel::new(JointVariant::JointWb, mc, 5),
            d.tokenizer.clone(),
        );
        let ckpt = briefer.checkpoint(&d.tokenizer);
        let err =
            crate::briefer::Briefer::from_checkpoint(&ckpt).err().expect("must not restore");
        let tokens = d.tokenizer.vocab().len();
        assert!(matches!(err, RestoreError::VocabMismatch { .. }), "{err}");
        assert_eq!(
            err.to_string(),
            format!("the tokenizer holds {tokens} tokens, the configuration {}", tokens + 1)
        );
    }

    #[test]
    fn briefer_checkpoint_roundtrips_briefs() {
        let d = tiny();
        let mc = ModelConfig::scaled(d.tokenizer.vocab().len());
        let briefer = crate::briefer::Briefer::from_model(
            JointModel::new(JointVariant::JointWb, mc, 5),
            d.tokenizer.clone(),
        );
        let ckpt = briefer.checkpoint(&d.tokenizer);
        let restored = crate::briefer::Briefer::from_checkpoint(&ckpt).unwrap();
        let ex = &d.examples[0];
        assert_eq!(briefer.brief_example(ex), restored.brief_example(ex));
    }
}
