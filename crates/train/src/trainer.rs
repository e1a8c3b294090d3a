//! The training loop: Adam + early stopping on validation accuracy, with
//! best-checkpoint restoration and per-epoch wall-clock timing (Fig 7) —
//! wrapped in a fault-tolerance layer (DESIGN.md §7):
//!
//! * **Divergence guardrails** — every optimization step checks the loss,
//!   the gradients (after an optional global-norm clip) and the updated
//!   parameters for NaN/±Inf. On a hit, the step is rolled back to the
//!   top-of-epoch snapshot (weights, Adam moments *and* PRNG state), the
//!   learning rate is halved, and the epoch is retried — up to
//!   [`TrainConfig::max_recoveries`] times before a structured
//!   [`TrainError::Diverged`] is returned. No run ever silently produces
//!   NaN weights.
//! * **Crash-safe resume** — with a [`CheckpointPolicy`], the full train
//!   state (weights, best snapshot, Adam moments, counters, PRNG state,
//!   history) is persisted every `every` epochs; `resume: true` picks it
//!   back up and replays the remaining epochs **bit-identically** to the
//!   uninterrupted run.
//! * **Fault injection** — an optional [`FaultPlan`] from the testkit
//!   poisons a chosen gradient step or simulates a crash at a chosen
//!   epoch, so the recovery paths above are tested deterministically.

use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use lasagne_autograd::{clip_grad_norm, Adam, Optimizer, ParamId, ParamStore, Tape};
use lasagne_datasets::Split;
use lasagne_gnn::sampling::BatchStrategy;
use lasagne_gnn::{GraphContext, Hyper, Mode, NodeClassifier};
use lasagne_tensor::{Tensor, TensorRng};
use lasagne_testkit::{FaultPlan, Json};

use crate::checkpoint::{load_train_state_with_fallback, save_train_state, TrainState};
use crate::error::{TrainError, TrainResult};
use crate::metrics::accuracy;

/// Training-loop configuration (§5.1.3 defaults via
/// [`TrainConfig::from_hyper`]).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Hard cap on epochs (paper: 400; scaled default 200, see
    /// EXPERIMENTS.md).
    pub max_epochs: usize,
    /// Early-stopping patience in epochs (paper: 20).
    pub patience: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// L2 factor folded into the gradient.
    pub weight_decay: f32,
    /// Evaluate validation accuracy every `eval_every` epochs (1 = always).
    pub eval_every: usize,
    /// Clip the global gradient norm to this bound before each update
    /// (`None` = no clipping, the paper's setting).
    pub clip_norm: Option<f32>,
    /// How many divergence recoveries (rollback + LR halving) to attempt
    /// before reporting [`TrainError::Diverged`]. 0 = fail fast.
    pub max_recoveries: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            max_epochs: 200,
            patience: 20,
            lr: 0.01,
            weight_decay: 5e-4,
            eval_every: 1,
            clip_norm: None,
            max_recoveries: 2,
        }
    }
}

impl TrainConfig {
    /// Lift lr/weight-decay from the shared hyper-parameter block.
    pub fn from_hyper(hyper: &Hyper) -> TrainConfig {
        TrainConfig {
            lr: hyper.lr,
            weight_decay: hyper.weight_decay,
            ..TrainConfig::default()
        }
    }

    fn validate(&self) -> TrainResult<()> {
        if self.max_epochs < 1 {
            return Err(TrainError::InvalidConfig("fit: max_epochs must be ≥ 1".into()));
        }
        if self.eval_every < 1 {
            return Err(TrainError::InvalidConfig("fit: eval_every must be ≥ 1".into()));
        }
        if let Some(c) = self.clip_norm {
            // Negated so that a NaN bound is refused too.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(c > 0.0) {
                return Err(TrainError::InvalidConfig(format!(
                    "fit: clip_norm {c} must be positive"
                )));
            }
        }
        Ok(())
    }
}

/// One epoch of the training history.
#[derive(Clone, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Training NLL on the epoch's batch.
    pub loss: f32,
    /// Validation accuracy (on the eval context), if evaluated this epoch.
    pub val_acc: Option<f64>,
    /// Wall-clock seconds of the optimization step (forward+backward+step,
    /// excluding evaluation — this is the "per epoch time" of Fig 7).
    pub train_seconds: f64,
}

impl EpochStats {
    /// JSON form (for result files the bench binaries emit).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("epoch".into(), Json::Num(self.epoch as f64)),
            ("loss".into(), Json::Num(self.loss as f64)),
            (
                "val_acc".into(),
                self.val_acc.map_or(Json::Null, Json::Num),
            ),
            ("train_seconds".into(), Json::Num(self.train_seconds)),
        ])
    }

    /// Inverse of [`EpochStats::to_json`] (train-state checkpoints carry
    /// the history so a resumed run's `FitResult` is complete).
    pub fn from_json(j: &Json) -> TrainResult<EpochStats> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| TrainError::Parse(format!("epoch stats: '{k}' missing/invalid")))
        };
        Ok(EpochStats {
            epoch: j
                .get("epoch")
                .and_then(Json::as_usize)
                .ok_or_else(|| TrainError::Parse("epoch stats: 'epoch' missing/invalid".into()))?,
            loss: num("loss")? as f32,
            val_acc: match j.get("val_acc") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_f64().ok_or_else(|| {
                    TrainError::Parse("epoch stats: 'val_acc' not a number".into())
                })?),
            },
            train_seconds: num("train_seconds")?,
        })
    }
}

/// Outcome of one training run.
#[derive(Clone, Debug)]
pub struct FitResult {
    /// Best validation accuracy seen.
    pub best_val_acc: f64,
    /// Test accuracy at the best-validation checkpoint.
    pub test_acc: f64,
    /// Epochs actually run (≤ max_epochs).
    pub epochs: usize,
    /// Mean per-epoch optimization time in seconds.
    pub mean_epoch_seconds: f64,
    /// Divergence recoveries (rollback + LR halving) consumed.
    pub recoveries: usize,
    /// Full history.
    pub history: Vec<EpochStats>,
}

impl FitResult {
    /// JSON form (for result files the bench binaries emit).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("best_val_acc".into(), Json::Num(self.best_val_acc)),
            ("test_acc".into(), Json::Num(self.test_acc)),
            ("epochs".into(), Json::Num(self.epochs as f64)),
            ("mean_epoch_seconds".into(), Json::Num(self.mean_epoch_seconds)),
            ("recoveries".into(), Json::Num(self.recoveries as f64)),
            (
                "history".into(),
                Json::Arr(self.history.iter().map(EpochStats::to_json).collect()),
            ),
        ])
    }
}

/// Deterministic evaluation forward: logits on `ctx`.
pub fn evaluate(model: &dyn NodeClassifier, ctx: &GraphContext, rng: &mut TensorRng) -> Tensor {
    lasagne_obs::span!("eval");
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, ctx, Mode::Eval, rng);
    tape.value(out.logits).clone()
}

/// A hook invoked after every epoch's evaluation with
/// `(epoch, model, eval_ctx)` — used to trace MI during training (Fig 6).
pub type EpochCallback<'a> = &'a mut dyn FnMut(usize, &dyn NodeClassifier, &GraphContext);

/// Where and how often to persist the resumable train state.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Checkpoint file; its `.prev` sibling holds the previous generation.
    pub path: PathBuf,
    /// Save every `every` epochs (must be ≥ 1).
    pub every: usize,
}

impl CheckpointPolicy {
    /// Save to `path` at the end of every epoch.
    pub fn every_epoch(path: impl Into<PathBuf>) -> CheckpointPolicy {
        CheckpointPolicy { path: path.into(), every: 1 }
    }
}

/// Optional behaviors of [`fit_with_options`]; `FitOptions::default()`
/// reproduces plain [`fit`].
#[derive(Default)]
pub struct FitOptions<'a> {
    /// Per-epoch hook (see [`EpochCallback`]).
    pub callback: Option<EpochCallback<'a>>,
    /// Deterministic fault injection (robustness tests only).
    pub fault: Option<&'a FaultPlan>,
    /// Persist resumable train state on this schedule.
    pub checkpoint: Option<CheckpointPolicy>,
    /// If the checkpoint file exists, load it and continue from there
    /// instead of starting fresh. Requires `checkpoint`.
    pub resume: bool,
}

/// Train `model` with `strategy` supplying per-step (sub)graphs, early
/// stopping on `eval_ctx`/`split.val`, reporting test accuracy at the best
/// checkpoint. Panics if training diverges beyond recovery — use
/// [`try_fit`] to handle that as a value. See [`fit_with_options`] for
/// checkpointing/resume and [`fit_with_callback`] for a per-epoch hook.
pub fn fit(
    model: &mut dyn NodeClassifier,
    strategy: &mut dyn BatchStrategy,
    eval_ctx: &GraphContext,
    split: &Split,
    cfg: &TrainConfig,
    rng: &mut TensorRng,
) -> FitResult {
    try_fit(model, strategy, eval_ctx, split, cfg, rng).unwrap_or_else(|e| panic!("fit: {e}"))
}

/// [`fit`], but divergence and I/O failures come back as a
/// [`TrainError`] instead of a panic (the multi-seed runner uses this to
/// degrade gracefully when one seed blows up).
pub fn try_fit(
    model: &mut dyn NodeClassifier,
    strategy: &mut dyn BatchStrategy,
    eval_ctx: &GraphContext,
    split: &Split,
    cfg: &TrainConfig,
    rng: &mut TensorRng,
) -> TrainResult<FitResult> {
    fit_with_options(model, strategy, eval_ctx, split, cfg, rng, FitOptions::default())
}

/// [`fit`] with an optional per-epoch callback.
pub fn fit_with_callback(
    model: &mut dyn NodeClassifier,
    strategy: &mut dyn BatchStrategy,
    eval_ctx: &GraphContext,
    split: &Split,
    cfg: &TrainConfig,
    rng: &mut TensorRng,
    callback: Option<EpochCallback<'_>>,
) -> FitResult {
    fit_with_options(
        model,
        strategy,
        eval_ctx,
        split,
        cfg,
        rng,
        FitOptions { callback, ..FitOptions::default() },
    )
    .unwrap_or_else(|e| panic!("fit: {e}"))
}

/// Named copy of the store's current values (for train-state checkpoints).
fn named_snapshot(store: &ParamStore) -> Vec<(String, Tensor)> {
    (0..store.len())
        .map(|i| {
            let id = ParamId::from_index(i);
            (store.name(id).to_string(), store.value(id).clone())
        })
        .collect()
}

/// Check that a checkpointed snapshot matches the live store's shapes.
fn check_snapshot_shapes(store: &ParamStore, snapshot: &[Tensor], what: &str) -> TrainResult<()> {
    if snapshot.len() != store.len() {
        return Err(TrainError::Mismatch(format!(
            "{what}: checkpoint has {} tensors, model has {}",
            snapshot.len(),
            store.len()
        )));
    }
    for (i, t) in snapshot.iter().enumerate() {
        let have = store.value(ParamId::from_index(i)).shape();
        if t.shape() != have {
            return Err(TrainError::Mismatch(format!(
                "{what}: tensor {i} is {:?} in the checkpoint but {have:?} in the model",
                t.shape()
            )));
        }
    }
    Ok(())
}

/// The full fault-tolerant training engine. `FitOptions::default()` makes
/// this behave exactly like [`fit`] (bit-identical trajectories).
pub fn fit_with_options(
    model: &mut dyn NodeClassifier,
    strategy: &mut dyn BatchStrategy,
    eval_ctx: &GraphContext,
    split: &Split,
    cfg: &TrainConfig,
    rng: &mut TensorRng,
    mut opts: FitOptions<'_>,
) -> TrainResult<FitResult> {
    cfg.validate()?;
    if let Some(pol) = &opts.checkpoint {
        if pol.every < 1 {
            return Err(TrainError::InvalidConfig("fit: checkpoint.every must be ≥ 1".into()));
        }
    }
    if opts.resume && opts.checkpoint.is_none() {
        return Err(TrainError::InvalidConfig("fit: resume requires a checkpoint policy".into()));
    }

    let mut opt = Adam::new(model.store(), cfg.lr, cfg.weight_decay);
    let eval_labels = Rc::new((*eval_ctx.labels).clone());

    let mut best_val = f64::NEG_INFINITY;
    let mut best_snapshot = model.store().snapshot();
    let mut since_best = 0usize;
    let mut history: Vec<EpochStats> = Vec::with_capacity(cfg.max_epochs);
    let mut train_time_total = 0.0f64;
    let mut start_epoch = 0usize;
    let mut step = 0usize;
    let mut recoveries = 0usize;

    // Resume: restore the complete state the interrupted run persisted.
    if opts.resume {
        let path = &opts.checkpoint.as_ref().expect("checked above").path;
        if path.exists() {
            let (state, _from_fallback) = load_train_state_with_fallback(path)?;
            state.apply_params(model.store_mut())?;
            check_snapshot_shapes(model.store(), &state.best_params, "best_params")?;
            if state.adam.m.len() != model.store().len() {
                return Err(TrainError::Mismatch(format!(
                    "adam state: checkpoint has {} moments, model has {} params",
                    state.adam.m.len(),
                    model.store().len()
                )));
            }
            opt.restore_state(&state.adam);
            opt.set_learning_rate(state.lr);
            *rng = TensorRng::from_state(state.rng);
            best_val = state.best_val;
            best_snapshot = state.best_params;
            since_best = state.since_best;
            history = state.history;
            train_time_total = state.train_time_total;
            start_epoch = state.next_epoch;
            step = state.step;
            recoveries = state.recoveries;
        }
    }

    let mut epoch = start_epoch;
    while epoch < cfg.max_epochs {
        if let Some(plan) = opts.fault {
            if plan.crash_at(epoch) {
                return Err(TrainError::Crashed { epoch });
            }
        }

        lasagne_obs::span!("epoch");

        // Top-of-epoch snapshot: the rollback target if this epoch's update
        // turns out non-finite. Captured outside the timed window so Fig 7
        // timings stay comparable.
        let pre_params = model.store().snapshot();
        let pre_adam = opt.state();
        let pre_rng = rng.state();

        let start = Instant::now();
        let batch = strategy.batch(epoch, rng);
        let labels = if std::ptr::eq(batch.ctx.labels.as_ref(), eval_labels.as_ref()) {
            eval_labels.clone()
        } else {
            Rc::new((*batch.ctx.labels).clone())
        };
        let idx = Rc::new(batch.train_idx.clone());

        let mut tape = Tape::new();
        let loss = {
            lasagne_obs::span!("forward");
            let out = model.forward(&mut tape, &batch.ctx, Mode::Train, rng);
            let lp = tape.log_softmax(out.logits);
            let mut loss = tape.nll_masked(lp, labels, idx);
            if let Some(reg) = out.regularizer {
                loss = tape.add(loss, reg);
            }
            loss
        };
        let loss_value = tape.value(loss).get(0, 0);
        model.store_mut().zero_grads();
        {
            lasagne_obs::span!("backward");
            tape.backward(loss, model.store_mut());
        }

        let this_step = step;
        step += 1;
        if let Some(plan) = opts.fault {
            if plan.grad_nan_at(this_step) {
                let store = model.store_mut();
                if !store.is_empty() && !store.grad(ParamId::from_index(0)).is_empty() {
                    store.grad_mut(ParamId::from_index(0)).as_mut_slice()[0] = f32::NAN;
                }
            }
        }

        // Divergence guardrails: loss → gradients → (clip, update) → params.
        let mut failure: Option<String> = None;
        if !loss_value.is_finite() {
            failure = Some(format!("loss = {loss_value}"));
        } else if model.store().grads_non_finite() {
            failure = Some("non-finite gradient".into());
        } else {
            lasagne_obs::span!("step");
            if let Some(max_norm) = cfg.clip_norm {
                clip_grad_norm(model.store_mut(), max_norm);
            }
            opt.step(model.store_mut());
            if model.store().values_non_finite() {
                failure = Some("non-finite parameters after update".into());
            }
        }
        if let Some(reason) = failure {
            if recoveries >= cfg.max_recoveries {
                return Err(TrainError::Diverged { epoch, recoveries, reason });
            }
            // Recovery: roll back weights, Adam moments and the PRNG to the
            // top of this epoch, halve the LR, and retry the epoch.
            lasagne_obs::counter_add("train.recoveries", 1);
            recoveries += 1;
            model.store_mut().restore(&pre_params);
            opt.restore_state(&pre_adam);
            *rng = TensorRng::from_state(pre_rng);
            let halved = 0.5 * opt.learning_rate();
            opt.set_learning_rate(halved);
            continue;
        }
        let train_seconds = start.elapsed().as_secs_f64();
        train_time_total += train_seconds;

        let mut val_acc = None;
        if epoch.is_multiple_of(cfg.eval_every) || epoch + 1 == cfg.max_epochs {
            let logits = evaluate(model, eval_ctx, rng);
            let acc = accuracy(&logits, &eval_ctx.labels, &split.val);
            val_acc = Some(acc);
            if acc > best_val {
                best_val = acc;
                best_snapshot = model.store().snapshot();
                since_best = 0;
            } else {
                since_best += cfg.eval_every;
            }
            if let Some(cb) = opts.callback.as_mut() {
                cb(epoch, model, eval_ctx);
            }
        }

        history.push(EpochStats { epoch, loss: loss_value, val_acc, train_seconds });

        if let Some(pol) = &opts.checkpoint {
            if (epoch + 1).is_multiple_of(pol.every) {
                let state = TrainState {
                    next_epoch: epoch + 1,
                    step,
                    lr: opt.learning_rate(),
                    recoveries,
                    best_val,
                    since_best,
                    train_time_total,
                    rng: rng.state(),
                    params: named_snapshot(model.store()),
                    best_params: best_snapshot.clone(),
                    adam: opt.state(),
                    history: history.clone(),
                };
                save_train_state(&state, &pol.path)?;
            }
        }

        if since_best >= cfg.patience {
            break;
        }
        epoch += 1;
    }

    // Test at the best-validation checkpoint (§5.1.3 protocol).
    model.store_mut().restore(&best_snapshot);
    let logits = evaluate(model, eval_ctx, rng);
    let test_acc = accuracy(&logits, &eval_ctx.labels, &split.test);
    let epochs = history.len();
    Ok(FitResult {
        best_val_acc: best_val.max(0.0),
        test_acc,
        epochs,
        mean_epoch_seconds: train_time_total / epochs.max(1) as f64,
        recoveries,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_datasets::{Dataset, DatasetId};
    use lasagne_gnn::models::Gcn;
    use lasagne_gnn::sampling::FullBatch;

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            max_epochs: 60,
            patience: 15,
            lr: 0.02,
            weight_decay: 5e-4,
            eval_every: 1,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn gcn_beats_majority_on_cora_sim() {
        let ds = Dataset::generate(DatasetId::Cora, 0);
        let hyper = Hyper::for_dataset(DatasetId::Cora);
        let mut model = Gcn::new(ds.num_features(), ds.num_classes, &hyper, 0);
        let ctx = GraphContext::from_dataset(&ds);
        let mut strat = FullBatch::from_dataset(&ds);
        let mut rng = TensorRng::seed_from_u64(0);
        let result = fit(&mut model, &mut strat, &ctx, &ds.split, &quick_cfg(), &mut rng);
        let majority = ds.majority_baseline();
        assert!(
            result.test_acc > majority + 0.2,
            "GCN test acc {:.3} vs majority {:.3}",
            result.test_acc,
            majority
        );
        assert!(result.best_val_acc > 0.0);
        assert!(result.mean_epoch_seconds > 0.0);
        assert_eq!(result.recoveries, 0, "healthy run must not trigger recovery");
    }

    #[test]
    fn early_stopping_caps_epochs() {
        let ds = Dataset::generate(DatasetId::Cora, 1);
        let hyper = Hyper::for_dataset(DatasetId::Cora);
        let mut model = Gcn::new(ds.num_features(), ds.num_classes, &hyper, 1);
        let ctx = GraphContext::from_dataset(&ds);
        let mut strat = FullBatch::from_dataset(&ds);
        let mut rng = TensorRng::seed_from_u64(1);
        let cfg = TrainConfig { max_epochs: 500, patience: 5, ..quick_cfg() };
        let result = fit(&mut model, &mut strat, &ctx, &ds.split, &cfg, &mut rng);
        assert!(
            result.epochs < 500,
            "patience 5 should stop well before 500 epochs (ran {})",
            result.epochs
        );
    }

    #[test]
    fn callback_fires_every_eval() {
        let ds = Dataset::generate(DatasetId::Cora, 2);
        let hyper = Hyper::for_dataset(DatasetId::Cora);
        let mut model = Gcn::new(ds.num_features(), ds.num_classes, &hyper, 2);
        let ctx = GraphContext::from_dataset(&ds);
        let mut strat = FullBatch::from_dataset(&ds);
        let mut rng = TensorRng::seed_from_u64(2);
        let cfg = TrainConfig { max_epochs: 10, patience: 50, ..quick_cfg() };
        let mut calls = 0usize;
        let mut cb = |_e: usize, _m: &dyn NodeClassifier, _c: &GraphContext| calls += 1;
        let _ = fit_with_callback(
            &mut model, &mut strat, &ctx, &ds.split, &cfg, &mut rng, Some(&mut cb),
        );
        assert_eq!(calls, 10);
    }

    #[test]
    fn history_records_losses_and_times() {
        let ds = Dataset::generate(DatasetId::Cora, 3);
        let hyper = Hyper::for_dataset(DatasetId::Cora);
        let mut model = Gcn::new(ds.num_features(), ds.num_classes, &hyper, 3);
        let ctx = GraphContext::from_dataset(&ds);
        let mut strat = FullBatch::from_dataset(&ds);
        let mut rng = TensorRng::seed_from_u64(3);
        let cfg = TrainConfig { max_epochs: 5, ..quick_cfg() };
        let result = fit(&mut model, &mut strat, &ctx, &ds.split, &cfg, &mut rng);
        assert_eq!(result.history.len(), 5);
        assert!(result.history.iter().all(|e| e.loss.is_finite()));
        // Loss should drop over the first few epochs.
        assert!(result.history[4].loss < result.history[0].loss);
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let ds = Dataset::generate(DatasetId::Cora, 4);
        let hyper = Hyper::for_dataset(DatasetId::Cora);
        let mut model = Gcn::new(ds.num_features(), ds.num_classes, &hyper, 4);
        let ctx = GraphContext::from_dataset(&ds);
        let mut strat = FullBatch::from_dataset(&ds);
        let mut rng = TensorRng::seed_from_u64(4);
        for bad in [
            TrainConfig { max_epochs: 0, ..quick_cfg() },
            TrainConfig { eval_every: 0, ..quick_cfg() },
            TrainConfig { clip_norm: Some(0.0), ..quick_cfg() },
        ] {
            let err = try_fit(&mut model, &mut strat, &ctx, &ds.split, &bad, &mut rng).unwrap_err();
            assert!(matches!(err, TrainError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn epoch_stats_json_round_trips() -> TrainResult<()> {
        for stats in [
            EpochStats { epoch: 3, loss: 0.123, val_acc: Some(0.75), train_seconds: 0.01 },
            EpochStats { epoch: 0, loss: 1.5, val_acc: None, train_seconds: 0.0 },
        ] {
            let back = EpochStats::from_json(&stats.to_json())?;
            assert_eq!(back.epoch, stats.epoch);
            assert_eq!(back.loss.to_bits(), stats.loss.to_bits());
            assert_eq!(back.val_acc.map(f64::to_bits), stats.val_acc.map(f64::to_bits));
            assert_eq!(back.train_seconds.to_bits(), stats.train_seconds.to_bits());
        }
        Ok(())
    }

    #[test]
    fn clip_norm_bounds_the_update_but_still_learns() {
        let ds = Dataset::generate(DatasetId::Cora, 5);
        let hyper = Hyper::for_dataset(DatasetId::Cora);
        let mut model = Gcn::new(ds.num_features(), ds.num_classes, &hyper, 5);
        let ctx = GraphContext::from_dataset(&ds);
        let mut strat = FullBatch::from_dataset(&ds);
        let mut rng = TensorRng::seed_from_u64(5);
        let cfg = TrainConfig { max_epochs: 30, clip_norm: Some(1.0), ..quick_cfg() };
        let result = fit(&mut model, &mut strat, &ctx, &ds.split, &cfg, &mut rng);
        assert!(result.test_acc > ds.majority_baseline());
        assert!(result.history.iter().all(|e| e.loss.is_finite()));
    }
}
