//! The generic minibatch training loop shared by every model in this crate.
//!
//! Models implement [`TrainableModel`]; the trainer shuffles, builds one
//! autograd tape per example (in parallel — tapes borrow the frozen
//! parameter store), merges gradients and applies one Adam step per batch.
//!
//! Steady-state steps allocate almost nothing: each tape draws its node
//! buffers from the `wb_tensor` scratch pool and returns them when it is
//! dropped at the end of the example closure, so from the second step
//! onwards forward/backward matmuls reuse the previous step's memory.
//!
//! [`train_resumable`] is the full loop: it can periodically snapshot a
//! [`TrainState`] (crash-safe resume; see [`crate::resume`]), continue a
//! killed run byte-identically, and guard against loss blow-ups by
//! rolling back to the last good snapshot with a halved learning rate.
//! [`train`] is the historical entry point, equivalent to
//! `train_resumable` with no checkpointing and no resume.

use crate::config::TrainConfig;
use crate::resume::{CheckpointPolicy, TrainError, TrainState};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use wb_corpus::Example;
use wb_tensor::{Adam, AdamConfig, Gradients, Graph, Params, Var};

/// A model trainable by [`train`].
pub trait TrainableModel: Sync {
    /// The parameter store (borrowed by per-example graphs).
    fn params(&self) -> &Params;
    /// Mutable access for the optimizer step.
    fn params_mut(&mut self) -> &mut Params;
    /// Builds the loss for one training example. `idx` is the example's
    /// index within the training slice — distillation models use it to
    /// address cached teacher outputs.
    fn loss(&self, g: &mut Graph, idx: usize, ex: &Example) -> Var;
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Default)]
pub struct TrainStats {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
}

impl TrainStats {
    /// The final epoch's mean loss.
    ///
    /// # NaN contract
    /// Returns `NaN` when no epoch ever ran — `cfg.epochs == 0`, or
    /// [`train`] was called with an empty `indices` selection (which also
    /// logs a `wb-obs` warning). `NaN` deliberately poisons any arithmetic
    /// built on a loss that does not exist; callers that want to branch on
    /// the condition should check `epoch_losses.is_empty()` instead of
    /// comparing against the return value.
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }
}

/// Rollbacks the NaN guard performs before declaring the run diverged.
const MAX_NAN_ROLLBACKS: u32 = 8;

/// The shuffled example order of one epoch, reconstructed from scratch.
///
/// The trainer's only RNG consumer is this shuffle, and Fisher–Yates
/// draws depend only on the slice *length*, so replaying `epoch + 1`
/// shuffles from the seed reproduces exactly the order a single
/// persistent RNG would have produced — which is what makes resume
/// possible without serialising RNG internals.
fn order_for_epoch(seed: u64, n: usize, epoch: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for _ in 0..=epoch {
        order.shuffle(&mut rng);
    }
    order
}

/// Trains `model` on the examples selected by `indices`.
///
/// An empty `indices` selection logs a warning and returns immediately
/// with no epochs recorded, so [`TrainStats::final_loss`] reports `NaN`
/// rather than a fabricated loss of zero (see its NaN contract).
///
/// The loop is instrumented with `wb-obs` spans (`train.epoch`,
/// `train.step`) and metrics (`train.epoch.loss`, `train.step.loss`,
/// `train.examples_per_sec`, plus the `optim.*` family emitted by
/// [`Adam::step`]); instrumentation reads the clock but never the RNG,
/// so observed runs are bit-identical to unobserved ones.
pub fn train<M: TrainableModel>(
    model: &mut M,
    examples: &[Example],
    indices: &[usize],
    cfg: TrainConfig,
) -> TrainStats {
    match train_resumable(model, examples, indices, cfg, None, None) {
        Ok(stats) => stats,
        Err(TrainError::Diverged { rollbacks, stats }) => {
            wb_obs::error!(
                "training diverged after {rollbacks} NaN rollbacks; \
                 returning stats up to the last good step"
            );
            stats
        }
        // Unreachable without a checkpoint policy or resume state, but a
        // training helper must not panic on principle.
        Err(e) => {
            wb_obs::error!("training aborted: {e}");
            TrainStats::default()
        }
    }
}

/// [`train`], plus crash safety: optional periodic [`TrainState`]
/// snapshots (`policy`), optional continuation of a killed run
/// (`resume`), and a NaN/Inf loss guard.
///
/// Resume is byte-identical: given the same seed, data and configuration,
/// a run killed at any point and resumed from its last snapshot produces
/// exactly the parameter bytes of an uninterrupted run — gradients merge
/// in deterministic order, dropout seeds are pure functions of
/// `(seed, epoch, position)` and the shuffle stream is replayed (see
/// [`order_for_epoch`]).
///
/// When a batch loss comes back non-finite, the guard restores the last
/// good snapshot (parameters, optimizer, loop position), permanently
/// halves the learning rate and re-runs from there; after
/// `MAX_NAN_ROLLBACKS` unsuccessful rollbacks it gives up with
/// [`TrainError::Diverged`]. Chaos sites: `train.step` (fires once per
/// batch before the forward pass; `panic`/`delay` act in place, `error`/
/// `nan` poison that batch's loss) and `train.state.write` inside
/// [`TrainState::save`].
pub fn train_resumable<M: TrainableModel>(
    model: &mut M,
    examples: &[Example],
    indices: &[usize],
    cfg: TrainConfig,
    policy: Option<&CheckpointPolicy>,
    resume: Option<TrainState>,
) -> Result<TrainStats, TrainError> {
    if indices.is_empty() {
        wb_obs::warn!(
            "train() called with an empty example selection; no steps will run \
             and TrainStats::final_loss() will be NaN"
        );
        return Ok(TrainStats::default());
    }
    let adam_cfg = AdamConfig {
        lr: cfg.lr,
        beta1: 0.9,
        beta2: 0.999,
        eps: 1e-8,
        clip_norm: Some(cfg.clip),
        warmup_steps: cfg.warmup,
        decay: cfg.decay,
    };
    let n = indices.len();
    let n_batches = n.div_ceil(cfg.batch_size);

    let mut stats = TrainStats::default();
    let mut epoch = 0usize;
    let mut batches_done = 0usize;
    let mut epoch_loss = 0.0f64;
    let mut seen = 0usize;
    let mut nan_rollbacks = 0u32;
    let mut opt = match resume {
        Some(state) => {
            validate_state(&state, cfg, n, n_batches)?;
            model.params_mut().copy_from(&state.params);
            let opt = Adam::from_state(model.params(), adam_cfg, &state.opt)
                .map_err(TrainError::StateMismatch)?;
            epoch = state.epoch;
            batches_done = state.batches_done;
            epoch_loss = state.epoch_loss;
            seen = state.seen;
            stats.epoch_losses = state.epoch_losses;
            nan_rollbacks = state.nan_rollbacks;
            wb_obs::counter!("train.resume.resumed");
            wb_obs::info!(
                "resuming training at epoch {epoch}, batch {batches_done}/{n_batches} \
                 (optimizer step {})",
                opt.steps()
            );
            opt
        }
        None => Adam::new(model.params(), adam_cfg),
    };

    let snapshot = |model: &M,
                    opt: &Adam,
                    epoch,
                    batches_done,
                    epoch_loss,
                    seen,
                    stats: &TrainStats,
                    nan_rollbacks| TrainState {
        seed: cfg.seed,
        n_examples: n,
        batch_size: cfg.batch_size,
        epoch,
        batches_done,
        epoch_loss,
        seen,
        epoch_losses: stats.epoch_losses.clone(),
        nan_rollbacks,
        opt: opt.export_state(),
        params: model.params().clone(),
    };

    // The NaN guard's in-memory rollback target: the most recent snapshot
    // (initially the starting position), whether or not it was written to
    // disk.
    let mut last_good =
        snapshot(model, &opt, epoch, batches_done, epoch_loss, seen, &stats, nan_rollbacks);

    while epoch < cfg.epochs {
        let _epoch_span = wb_obs::span!("train.epoch");
        let epoch_start = std::time::Instant::now();
        let order = order_for_epoch(cfg.seed, n, epoch);
        let mut rolled_back = false;
        for (b, batch) in order.chunks(cfg.batch_size).enumerate().skip(batches_done) {
            let _step_span = wb_obs::span!("train.step");
            // Chaos site: evaluated once per batch, before any model
            // work, so an injected `panic@nth(k)` kills the run at a
            // deterministic step. `error`/`nan` poison this batch's loss
            // to exercise the guard below.
            let poison_loss = wb_chaos::fault_point!("train.step").is_some();
            let frozen = &*model;
            let results: Vec<(f32, Gradients)> = batch
                .par_iter()
                .map(|&pos| {
                    let ex = &examples[indices[pos]];
                    let mut g = Graph::new(
                        frozen.params(),
                        true,
                        cfg.seed ^ (epoch as u64) << 32 ^ pos as u64,
                    );
                    let loss = frozen.loss(&mut g, pos, ex);
                    let value = g.value(loss).item();
                    (value, g.backward(loss))
                })
                .collect();
            let mut grads = Gradients::zeros(frozen.params());
            let mut batch_loss = 0.0f64;
            for (value, g) in results {
                batch_loss += value as f64;
                seen += 1;
                grads.merge(g);
            }
            if poison_loss {
                batch_loss = f64::NAN;
            }
            if !batch_loss.is_finite() {
                nan_rollbacks += 1;
                wb_obs::counter!("train.resume.nan_rollbacks");
                if nan_rollbacks > MAX_NAN_ROLLBACKS {
                    return Err(TrainError::Diverged { rollbacks: nan_rollbacks - 1, stats });
                }
                wb_obs::warn!(
                    "non-finite loss at epoch {epoch}, batch {b}; rolling back to \
                     epoch {}, batch {} with halved learning rate (rollback \
                     {nan_rollbacks}/{MAX_NAN_ROLLBACKS})",
                    last_good.epoch,
                    last_good.batches_done
                );
                model.params_mut().copy_from(&last_good.params);
                opt = Adam::from_state(model.params(), adam_cfg, &last_good.opt)
                    .map_err(TrainError::StateMismatch)?;
                opt.scale_lr(0.5);
                epoch = last_good.epoch;
                batches_done = last_good.batches_done;
                epoch_loss = last_good.epoch_loss;
                seen = last_good.seen;
                stats.epoch_losses = last_good.epoch_losses.clone();
                // Fold the halved LR and the rollback count back into the
                // target so repeated rollbacks compound instead of
                // re-halving from the same point.
                last_good.opt = opt.export_state();
                last_good.nan_rollbacks = nan_rollbacks;
                rolled_back = true;
                break;
            }
            epoch_loss += batch_loss;
            wb_obs::histogram!("train.step.loss", batch_loss / batch.len() as f64);
            // Counter-sample the step loss onto the trace timeline (a
            // relaxed load when tracing is inactive).
            wb_obs::trace::sample("train.step.loss", batch_loss / batch.len() as f64);
            grads.scale(1.0 / batch.len() as f32);
            opt.step(model.params_mut(), grads);
            batches_done = b + 1;
            if let Some(p) = policy {
                if p.every_batches > 0
                    && batches_done < n_batches
                    && batches_done.is_multiple_of(p.every_batches)
                {
                    let state = snapshot(
                        model,
                        &opt,
                        epoch,
                        batches_done,
                        epoch_loss,
                        seen,
                        &stats,
                        nan_rollbacks,
                    );
                    state.save(&p.state_path)?;
                    last_good = state;
                }
            }
        }
        if rolled_back {
            continue;
        }
        opt.decay_epoch();
        let mean = (epoch_loss / seen.max(1) as f64) as f32;
        stats.epoch_losses.push(mean);
        wb_obs::histogram!("train.epoch.loss", mean as f64);
        wb_obs::gauge!("train.loss.final", mean as f64);
        let secs = epoch_start.elapsed().as_secs_f64();
        if secs > 0.0 {
            wb_obs::gauge!("train.examples_per_sec", seen as f64 / secs);
        }
        wb_obs::info!(
            "epoch {}/{}: loss {mean:.4}, {seen} examples, lr {:.5}",
            epoch + 1,
            cfg.epochs,
            opt.current_lr()
        );
        // Roll the position over to the next epoch *before* snapshotting,
        // so the epoch close (decay, loss push) is never replayed on
        // resume — a state file always points at work not yet done.
        epoch += 1;
        batches_done = 0;
        epoch_loss = 0.0;
        seen = 0;
        let state =
            snapshot(model, &opt, epoch, batches_done, epoch_loss, seen, &stats, nan_rollbacks);
        if let Some(p) = policy {
            state.save(&p.state_path)?;
        }
        last_good = state;
    }
    Ok(stats)
}

fn validate_state(
    state: &TrainState,
    cfg: TrainConfig,
    n: usize,
    n_batches: usize,
) -> Result<(), TrainError> {
    let mut problems = Vec::new();
    if state.seed != cfg.seed {
        problems.push(format!("seed {} vs config seed {}", state.seed, cfg.seed));
    }
    if state.n_examples != n {
        problems.push(format!("{} training examples vs {n} selected", state.n_examples));
    }
    if state.batch_size != cfg.batch_size {
        problems.push(format!(
            "batch size {} vs config batch size {}",
            state.batch_size, cfg.batch_size
        ));
    }
    if state.epoch > cfg.epochs || (state.epoch < cfg.epochs && state.batches_done >= n_batches)
    {
        problems.push(format!(
            "position (epoch {}, batch {}) is outside a {}-epoch × {}-batch run",
            state.epoch, state.batches_done, cfg.epochs, n_batches
        ));
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(TrainError::StateMismatch(problems.join("; ")))
    }
}

/// Every test that trains passes the process-global `train.step` fault
/// point, so it holds `wb_chaos::test_lock()`: a fault another test arms
/// would otherwise fire inside it.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use wb_tensor::{Initializer, Tensor};

    /// A trivially trainable "model": one scalar pulled toward the number
    /// of tokens in each example.
    struct Toy {
        params: Params,
        w: wb_tensor::ParamId,
    }

    impl TrainableModel for Toy {
        fn params(&self) -> &Params {
            &self.params
        }
        fn params_mut(&mut self) -> &mut Params {
            &mut self.params
        }
        fn loss(&self, g: &mut Graph, _idx: usize, _ex: &Example) -> Var {
            let w = g.param(self.w);
            let target = g.input(Tensor::scalar(2.0));
            let d = g.sub(w, target);
            let sq = g.mul(d, d);
            g.sum_all(sq)
        }
    }

    fn dummy_examples(n: usize) -> Vec<Example> {
        let d = wb_corpus::Dataset::generate(&wb_corpus::DatasetConfig::tiny());
        d.examples.into_iter().take(n).collect()
    }

    fn toy(seed: u64) -> Toy {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let w = params.add_init("w", &[], Initializer::Uniform(0.5), &mut rng);
        Toy { params, w }
    }

    #[test]
    fn trainer_reduces_loss() {
        let _chaos = wb_chaos::test_lock();
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let w = params.add_init("w", &[], Initializer::Uniform(0.01), &mut rng);
        // Scalars have empty shape; ensure a single element exists.
        assert_eq!(params.get(w).len(), 1);
        let mut toy = Toy { params, w };
        let examples = dummy_examples(8);
        let idx: Vec<usize> = (0..examples.len()).collect();
        let mut cfg = TrainConfig::scaled(40);
        cfg.lr = 0.2;
        cfg.warmup = 1;
        cfg.decay = 1.0;
        let stats = train(&mut toy, &examples, &idx, cfg);
        assert!(stats.final_loss() < stats.epoch_losses[0]);
        assert!((toy.params.get(w).item() - 2.0).abs() < 0.3);
    }

    #[test]
    fn empty_selection_warns_and_reports_nan() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let w = params.add_init("w", &[], Initializer::Uniform(0.5), &mut rng);
        let mut toy = Toy { params, w };
        let examples = dummy_examples(2);
        let stats = train(&mut toy, &examples, &[], TrainConfig::scaled(3));
        // No fabricated zero-loss epochs: the NaN contract applies.
        assert!(stats.epoch_losses.is_empty());
        assert!(stats.final_loss().is_nan());
    }

    #[test]
    fn training_populates_the_metrics_registry() {
        let _chaos = wb_chaos::test_lock();
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = Params::new();
        let w = params.add_init("w", &[], Initializer::Uniform(0.5), &mut rng);
        let mut toy = Toy { params, w };
        let examples = dummy_examples(4);
        let idx: Vec<usize> = (0..examples.len()).collect();
        train(&mut toy, &examples, &idx, TrainConfig::scaled(2));
        let snap = wb_obs::metrics::snapshot();
        for hist in ["train.epoch.loss", "train.step.loss", "optim.grad_norm"] {
            assert!(snap.histograms.get(hist).is_some_and(|h| h.count > 0), "missing {hist}");
        }
        assert!(snap.gauges.contains_key("optim.lr"));
        assert!(snap.spans.keys().any(|p| p.ends_with("train.epoch")));
        assert!(snap.spans.keys().any(|p| p.ends_with("train.epoch/train.step")));
    }

    #[test]
    fn trainer_is_deterministic() {
        let _chaos = wb_chaos::test_lock();
        let build = || {
            let mut rng = StdRng::seed_from_u64(1);
            let mut params = Params::new();
            let w = params.add_init("w", &[], Initializer::Uniform(0.5), &mut rng);
            Toy { params, w }
        };
        let examples = dummy_examples(6);
        let idx: Vec<usize> = (0..examples.len()).collect();
        let cfg = TrainConfig::scaled(3);
        let mut a = build();
        let mut b = build();
        let sa = train(&mut a, &examples, &idx, cfg);
        let sb = train(&mut b, &examples, &idx, cfg);
        assert_eq!(sa.epoch_losses, sb.epoch_losses);
    }

    fn param_bytes(p: &Params) -> Vec<u8> {
        serde_json::to_string(p).unwrap().into_bytes()
    }

    /// Resuming from a mid-epoch snapshot reproduces the uninterrupted
    /// run's parameters exactly — the heart of crash-safe training.
    #[test]
    fn resume_from_mid_epoch_state_is_byte_identical() {
        let _chaos = wb_chaos::test_lock();
        let examples = dummy_examples(7);
        let idx: Vec<usize> = (0..examples.len()).collect();
        let mut cfg = TrainConfig::scaled(4);
        cfg.batch_size = 2;
        cfg.decay = 0.7;

        let mut uninterrupted = toy(9);
        let su = train_resumable(&mut uninterrupted, &examples, &idx, cfg, None, None).unwrap();

        let dir = std::env::temp_dir().join(format!("wb_resume_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let policy = CheckpointPolicy { state_path: dir.join("state.json"), every_batches: 3 };

        // First leg: crash (simulated by arming a panic on the 6th batch).
        let mut crashed = toy(9);
        wb_chaos::arm_str("train.step=panic@nth(6)").unwrap();
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = train_resumable(&mut crashed, &examples, &idx, cfg, Some(&policy), None);
        }));
        wb_chaos::disarm();
        assert!(died.is_err(), "armed panic must kill the first leg");

        // Second leg: resume from the state file written before the kill,
        // round-tripped through disk like a real restart.
        let state = TrainState::load(&policy.state_path).unwrap();
        assert!(state.epoch > 0 || state.batches_done > 0, "no progress snapshotted");
        let mut resumed = toy(1234); // fresh params; resume must overwrite them
        let sr =
            train_resumable(&mut resumed, &examples, &idx, cfg, Some(&policy), Some(state))
                .unwrap();

        assert_eq!(su.epoch_losses, sr.epoch_losses);
        assert_eq!(
            param_bytes(uninterrupted.params()),
            param_bytes(resumed.params()),
            "resumed run diverged from uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// An injected NaN loss rolls back to the last good snapshot with a
    /// halved LR instead of corrupting the parameters, and training still
    /// completes.
    #[test]
    fn nan_loss_rolls_back_and_recovers() {
        let examples = dummy_examples(6);
        let idx: Vec<usize> = (0..examples.len()).collect();
        let mut cfg = TrainConfig::scaled(3);
        cfg.batch_size = 2;
        let mut model = toy(4);
        let stats = {
            let _guard = wb_chaos::test_lock();
            wb_chaos::arm_str("train.step=nan@nth(4)").unwrap();
            let out = train_resumable(&mut model, &examples, &idx, cfg, None, None);
            wb_chaos::disarm();
            out.unwrap()
        };
        assert_eq!(stats.epoch_losses.len(), cfg.epochs, "run must still complete");
        assert!(stats.epoch_losses.iter().all(|l| l.is_finite()));
        assert!(model.params().iter().all(|(_, _, t)| t.data().iter().all(|v| v.is_finite())));
    }

    /// A loss that stays non-finite exhausts the rollback budget and
    /// surfaces `Diverged` instead of looping forever.
    #[test]
    fn persistent_nan_gives_up_with_diverged() {
        let examples = dummy_examples(4);
        let idx: Vec<usize> = (0..examples.len()).collect();
        let mut model = toy(5);
        let out = {
            let _guard = wb_chaos::test_lock();
            wb_chaos::arm_str("train.step=nan@every(1)").unwrap();
            let out = train_resumable(
                &mut model,
                &examples,
                &idx,
                TrainConfig::scaled(2),
                None,
                None,
            );
            wb_chaos::disarm();
            out
        };
        match out {
            Err(TrainError::Diverged { rollbacks, .. }) => {
                assert_eq!(rollbacks, MAX_NAN_ROLLBACKS)
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    /// A state from a different run configuration is rejected with a
    /// message naming every mismatch.
    #[test]
    fn mismatched_state_is_rejected() {
        let examples = dummy_examples(4);
        let idx: Vec<usize> = (0..examples.len()).collect();
        let cfg = TrainConfig::scaled(2);
        let mut model = toy(6);
        let mut state = TrainState {
            seed: cfg.seed ^ 1,
            n_examples: idx.len() + 3,
            batch_size: cfg.batch_size,
            epoch: 0,
            batches_done: 0,
            epoch_loss: 0.0,
            seen: 0,
            epoch_losses: Vec::new(),
            nan_rollbacks: 0,
            opt: Adam::new(model.params(), AdamConfig::default()).export_state(),
            params: model.params().clone(),
        };
        let err = train_resumable(&mut model, &examples, &idx, cfg, None, Some(state.clone()))
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("seed"), "{msg}");
        assert!(msg.contains("examples"), "{msg}");

        state.seed = cfg.seed;
        state.n_examples = idx.len();
        state.epoch = cfg.epochs + 1;
        let err =
            train_resumable(&mut model, &examples, &idx, cfg, None, Some(state)).unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
    }
}
