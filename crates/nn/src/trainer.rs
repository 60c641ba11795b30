//! Generic training loop for sequence classifiers, with crossbeam
//! data-parallel gradient computation and per-epoch loss tracking (the
//! paper's training/validation loss-curve figures come straight from
//! [`TrainHistory`]).
//!
//! The loop is built to survive the failure modes of long multi-epoch
//! runs:
//!
//! * **Panic-safe workers** — a shard worker that panics fails the step
//!   (`TrainError::WorkerPanic`), not the process; the batch is retried
//!   inline with the same per-shard RNG streams, so a transient fault
//!   leaves the trajectory bit-identical.
//! * **Divergence guards** — a non-finite loss or gradient skips the
//!   optimizer step; after `divergence_patience` consecutive poisoned
//!   steps the trainer rolls back to the last epoch-boundary snapshot
//!   with a halved learning rate. Counts surface in [`EpochStats`].
//! * **Crash-safe resumable checkpoints** — [`FitOptions`] points
//!   [`Trainer::fit_with`] at a [`CheckpointManager`] directory; an
//!   interrupted run resumed from it continues bit-identically from the
//!   last epoch boundary (optimizer moments, step counters and history
//!   all ride inside the checkpoint).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use autograd::{Graph, ParamId, ParamStore, VarId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Tensor;
use trace::{Counter, Gauge};

/// Token ids pushed through the forward/backward passes during training.
static TRAIN_TOKENS: Counter = Counter::new("nn.train.tokens");
/// Optimizer steps skipped for non-finite loss/gradients.
static TRAIN_SKIPPED_STEPS: Counter = Counter::new("nn.train.skipped_steps");
/// Divergence rollbacks taken.
static TRAIN_ROLLBACKS: Counter = Counter::new("nn.train.rollbacks");
/// Training throughput of the most recent epoch.
static TRAIN_TOKENS_PER_SEC: Gauge = Gauge::new("nn.train.tokens_per_sec");
/// Checkpoints written by the trainer.
static CKPT_SAVES: Counter = Counter::new("nn.checkpoint.saves");
/// Cumulative wall time spent writing checkpoints.
static CKPT_SAVE_NS: Counter = Counter::new("nn.checkpoint.save_ns");

use crate::batch::BatchIterator;
use crate::checkpoint::{CheckpointManager, TrainState};
use crate::faults::{FaultKind, FaultPlan};
use crate::optim::{Optimizer, OptimizerState};
use crate::schedule::LrSchedule;

/// What one data-parallel shard hands back: its merged `(param, grad)`
/// pairs, summed loss, and sample count.
pub(crate) type ShardResult = (Vec<(ParamId, Tensor)>, f64, usize);

/// Rollbacks tolerated per `fit` call before giving up with
/// [`TrainError::Diverged`] (the LR is halved each time, so eight
/// rollbacks mean a 256× smaller step than configured).
const MAX_ROLLBACKS: usize = 8;

/// A model trainable by [`Trainer`]: anything that can map a token-id
/// sequence to a `1 × classes` logit row on a caller-provided graph.
pub trait SequenceModel {
    /// The parameter store (read side, for forward passes).
    fn store(&self) -> &ParamStore;
    /// The parameter store (write side, for the optimizer).
    fn store_mut(&mut self) -> &mut ParamStore;
    /// Number of output classes.
    fn num_classes(&self) -> usize;
    /// Builds the forward pass for one sequence, returning the logit row.
    /// `train` enables dropout; `rng` drives it.
    fn logits(&self, g: &mut Graph, ids: &[usize], train: bool, rng: &mut StdRng) -> VarId;
}

/// One labelled example: token ids plus a class label.
pub type Example = (Vec<usize>, usize);

/// What [`Trainer::evaluate`] returns: `(mean loss, accuracy, argmax
/// predictions, probability rows)`.
pub type Evaluation = (f64, f64, Vec<usize>, Vec<Vec<f64>>);

/// Why training could not produce a result.
#[derive(Debug)]
pub enum TrainError {
    /// `fit` was called with no training examples.
    EmptyDataset,
    /// An example carries a label outside `0..classes` — caught up front
    /// instead of panicking mid-epoch on an out-of-bounds index.
    BadExample {
        /// Position of the offending example in its slice.
        index: usize,
        /// The label found.
        label: usize,
        /// The model's class count.
        classes: usize,
    },
    /// A worker thread panicked and the inline retry panicked too.
    WorkerPanic {
        /// Best-effort panic payload text.
        message: String,
    },
    /// The loss stayed non-finite past the rollback budget.
    Diverged {
        /// Epoch of the final poisoned step.
        epoch: usize,
        /// Optimizer step count at that point.
        step: usize,
    },
    /// Reading or writing a checkpoint failed.
    Checkpoint(io::Error),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::EmptyDataset => write!(f, "no training data"),
            TrainError::BadExample {
                index,
                label,
                classes,
            } => write!(
                f,
                "example {index} has label {label}, outside the model's {classes} classes"
            ),
            TrainError::WorkerPanic { message } => {
                write!(f, "training worker panicked: {message}")
            }
            TrainError::Diverged { epoch, step } => write!(
                f,
                "training diverged (non-finite loss persisted through every rollback) \
                 at epoch {epoch}, step {step}"
            ),
            TrainError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TrainError {
    fn from(e: io::Error) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Trainer hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Passes over the training data.
    pub epochs: usize,
    /// Examples per optimizer step.
    pub batch_size: usize,
    /// Learning-rate schedule (indexed by optimizer step).
    pub schedule: LrSchedule,
    /// Elementwise gradient clip (`0` disables).
    pub grad_clip: f32,
    /// Worker threads (`0` → one per core).
    pub threads: usize,
    /// Shuffling / dropout seed.
    pub seed: u64,
    /// Stop after this many epochs without val-loss improvement
    /// (`0` disables; requires validation data).
    pub early_stop_patience: usize,
    /// Consecutive non-finite steps tolerated before rolling back to the
    /// last snapshot with a halved LR (`0` disables rollback; poisoned
    /// steps are still skipped).
    pub divergence_patience: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 16,
            schedule: LrSchedule::Constant(1e-3),
            grad_clip: 1.0,
            threads: 0,
            seed: 0,
            early_stop_patience: 0,
            divergence_patience: 3,
        }
    }
}

/// Checkpoint / resume options for [`Trainer::fit_with`].
#[derive(Debug, Clone, Default)]
pub struct FitOptions {
    /// Directory for the rotating `latest.ckpt` / `previous.ckpt` pair
    /// (`None` disables checkpointing — and disk-backed resume).
    pub checkpoint_dir: Option<PathBuf>,
    /// Epochs between checkpoint saves (`0` behaves as `1`: every epoch).
    pub checkpoint_every: usize,
    /// Load the newest readable checkpoint from `checkpoint_dir` before
    /// training and continue from it. A directory with no checkpoint is a
    /// fresh start, not an error.
    pub resume: bool,
}

impl FitOptions {
    /// Checkpoint every epoch into `dir`, starting fresh.
    pub fn checkpoint(dir: impl Into<PathBuf>) -> Self {
        Self {
            checkpoint_dir: Some(dir.into()),
            checkpoint_every: 1,
            resume: false,
        }
    }

    /// Checkpoint every epoch into `dir`, resuming from whatever state it
    /// already holds.
    pub fn resume(dir: impl Into<PathBuf>) -> Self {
        Self {
            checkpoint_dir: Some(dir.into()),
            checkpoint_every: 1,
            resume: true,
        }
    }
}

/// Metrics recorded after each epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// 0-indexed epoch.
    pub epoch: usize,
    /// Mean training cross-entropy over the epoch.
    pub train_loss: f64,
    /// Mean validation cross-entropy (when validation data was given).
    pub val_loss: Option<f64>,
    /// Validation accuracy (when validation data was given).
    pub val_accuracy: Option<f64>,
    /// Optimizer steps skipped because loss or gradients were non-finite.
    pub skipped_steps: usize,
    /// Divergence rollbacks that landed in this epoch (each one restored
    /// the last snapshot and halved the LR).
    pub rollbacks: usize,
}

/// Full training trace — the source of the paper's loss-curve figures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainHistory {
    /// Per-epoch stats in order.
    pub epochs: Vec<EpochStats>,
}

impl TrainHistory {
    /// Training-loss series.
    pub fn train_losses(&self) -> Vec<f64> {
        self.epochs.iter().map(|e| e.train_loss).collect()
    }

    /// Validation-loss series (empty entries skipped).
    pub fn val_losses(&self) -> Vec<f64> {
        self.epochs.iter().filter_map(|e| e.val_loss).collect()
    }

    /// Best validation accuracy seen.
    pub fn best_val_accuracy(&self) -> Option<f64> {
        self.epochs
            .iter()
            .filter_map(|e| e.val_accuracy)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Total optimizer steps skipped for non-finite loss/gradients.
    pub fn total_skipped_steps(&self) -> usize {
        self.epochs.iter().map(|e| e.skipped_steps).sum()
    }

    /// Total divergence rollbacks.
    pub fn total_rollbacks(&self) -> usize {
        self.epochs.iter().map(|e| e.rollbacks).sum()
    }
}

/// Mutable trainer state that checkpoints carry and rollbacks restore.
struct RunState {
    epoch: usize,
    step: usize,
    best_val: f64,
    stale: usize,
    lr_scale: f32,
    history: TrainHistory,
}

/// An epoch-boundary snapshot: enough to rewind model, optimizer and
/// counters exactly (the in-memory twin of an on-disk checkpoint).
struct Snapshot {
    params: Vec<Tensor>,
    optimizer: Option<OptimizerState>,
    epoch: usize,
    step: usize,
    best_val: f64,
    stale: usize,
    lr_scale: f32,
    history_len: usize,
}

impl Snapshot {
    fn capture(store: &ParamStore, optimizer: &impl Optimizer, run: &RunState) -> Self {
        Self {
            params: store.iter().map(|(_, _, t)| t.clone()).collect(),
            optimizer: optimizer.export_state(),
            epoch: run.epoch,
            step: run.step,
            best_val: run.best_val,
            stale: run.stale,
            lr_scale: run.lr_scale,
            history_len: run.history.epochs.len(),
        }
    }

    fn restore(
        &self,
        store: &mut ParamStore,
        optimizer: &mut impl Optimizer,
        run: &mut RunState,
    ) -> Result<(), TrainError> {
        let ids: Vec<_> = store.ids().collect();
        for (id, params) in ids.into_iter().zip(&self.params) {
            *store.get_mut(id) = params.clone();
        }
        if let Some(state) = &self.optimizer {
            optimizer.import_state(state).map_err(|e| {
                TrainError::Checkpoint(io::Error::new(io::ErrorKind::InvalidData, e))
            })?;
        }
        run.epoch = self.epoch;
        run.step = self.step;
        run.best_val = self.best_val;
        run.stale = self.stale;
        run.lr_scale = self.lr_scale;
        run.history.epochs.truncate(self.history_len);
        Ok(())
    }
}

/// The training loop.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer.
    pub fn new(config: TrainerConfig) -> Self {
        assert!(config.batch_size > 0, "batch size must be positive");
        Self { config }
    }

    /// Trains `model` in place, returning the per-epoch history.
    ///
    /// # Errors
    ///
    /// See [`TrainError`]; with default options no checkpointing happens,
    /// so only data validation, worker and divergence errors apply.
    pub fn fit<M: SequenceModel + Sync>(
        &self,
        model: &mut M,
        optimizer: &mut impl Optimizer,
        train: &[Example],
        val: Option<&[Example]>,
    ) -> Result<TrainHistory, TrainError> {
        self.fit_with(model, optimizer, train, val, &FitOptions::default())
    }

    /// Trains `model` in place with checkpointing / resume options.
    ///
    /// Checkpoints are cut at epoch boundaries; a run resumed from one
    /// continues bit-identically with an uninterrupted run of the same
    /// config and thread count (shuffling and dropout streams are derived
    /// statelessly from `(seed, epoch, step)`).
    ///
    /// # Errors
    ///
    /// See [`TrainError`].
    pub fn fit_with<M: SequenceModel + Sync>(
        &self,
        model: &mut M,
        optimizer: &mut impl Optimizer,
        train: &[Example],
        val: Option<&[Example]>,
        opts: &FitOptions,
    ) -> Result<TrainHistory, TrainError> {
        if train.is_empty() {
            return Err(TrainError::EmptyDataset);
        }
        validate_examples(train, model.num_classes())?;
        if let Some(v) = val {
            validate_examples(v, model.num_classes())?;
        }
        let manager = match &opts.checkpoint_dir {
            Some(dir) => Some(CheckpointManager::new(dir)?),
            None => None,
        };
        let checkpoint_every = opts.checkpoint_every.max(1);
        // shots armed on this thread belong to this run alone
        let faults = FaultPlan::claim();

        let batches = BatchIterator::new(train.len(), self.config.batch_size, self.config.seed);
        let mut run = RunState {
            epoch: 0,
            step: 0,
            best_val: f64::INFINITY,
            stale: 0,
            lr_scale: 1.0,
            history: TrainHistory::default(),
        };

        if opts.resume {
            if let Some(manager) = &manager {
                if let Some(state) = manager.load_latest(model.store_mut())? {
                    if let Some(opt_state) = &state.optimizer {
                        optimizer.import_state(opt_state).map_err(|e| {
                            TrainError::Checkpoint(io::Error::new(io::ErrorKind::InvalidData, e))
                        })?;
                    }
                    run.epoch = state.epoch;
                    run.step = state.step;
                    run.best_val = state.best_val;
                    run.stale = state.stale;
                    run.lr_scale = state.lr_scale;
                    run.history = state.history;
                }
            }
        }

        let mut snapshot = Snapshot::capture(model.store(), optimizer, &run);
        let mut consecutive_bad = 0usize;
        let mut rollbacks_used = 0usize;
        let mut pending_rollbacks = 0usize;

        let _fit_span = trace::span("nn.trainer.fit");
        'training: while run.epoch < self.config.epochs {
            // Per-epoch observability: a timed span named after the epoch
            // plus a token count for throughput. All of it is gated on the
            // enabled flag so the disabled path never formats or reads the
            // clock.
            let epoch_trace = trace::enabled().then(|| {
                (
                    trace::span(format!("epoch[{}]", run.epoch)),
                    std::time::Instant::now(),
                )
            });
            let mut epoch_tokens = 0usize;
            let mut epoch_loss = 0.0;
            let mut seen = 0usize;
            let mut skipped = 0usize;
            for batch in batches.epoch(run.epoch) {
                if epoch_trace.is_some() {
                    epoch_tokens += batch.iter().map(|&i| train[i].0.len()).sum::<usize>();
                }
                let lr = self.config.schedule.at(run.step) * run.lr_scale;
                run.step += 1;
                let (grads, loss) =
                    self.batch_gradients(model, train, &batch, run.epoch, run.step, &faults)?;
                let poisoned = !loss.is_finite() || grads.iter().any(|(_, t)| t.has_non_finite());
                if poisoned {
                    skipped += 1;
                    TRAIN_SKIPPED_STEPS.incr();
                    consecutive_bad += 1;
                    if self.config.divergence_patience > 0
                        && consecutive_bad >= self.config.divergence_patience
                    {
                        rollbacks_used += 1;
                        TRAIN_ROLLBACKS.incr();
                        if rollbacks_used > MAX_ROLLBACKS {
                            return Err(TrainError::Diverged {
                                epoch: run.epoch,
                                step: run.step,
                            });
                        }
                        // rewind to the last good epoch boundary and take
                        // smaller steps from here on
                        snapshot.lr_scale *= 0.5;
                        snapshot.restore(model.store_mut(), optimizer, &mut run)?;
                        consecutive_bad = 0;
                        pending_rollbacks += 1;
                        continue 'training;
                    }
                    // skip the poisoned optimizer step entirely
                    continue;
                }
                consecutive_bad = 0;
                epoch_loss += loss * batch.len() as f64;
                seen += batch.len();
                optimizer.step(model.store_mut(), &grads, lr);
            }
            let train_loss = epoch_loss / seen.max(1) as f64;
            if let Some((_, started)) = &epoch_trace {
                TRAIN_TOKENS.add(epoch_tokens as u64);
                let secs = started.elapsed().as_secs_f64();
                if secs > 0.0 {
                    TRAIN_TOKENS_PER_SEC.set((epoch_tokens as f64 / secs) as u64);
                }
            }

            let (val_loss, val_accuracy) = match val {
                Some(v) if !v.is_empty() => {
                    let (loss, acc, _, _) = self.evaluate(model, v)?;
                    (Some(loss), Some(acc))
                }
                _ => (None, None),
            };
            run.history.epochs.push(EpochStats {
                epoch: run.epoch,
                train_loss,
                val_loss,
                val_accuracy,
                skipped_steps: skipped,
                rollbacks: pending_rollbacks,
            });
            pending_rollbacks = 0;
            run.epoch += 1;

            let mut stop = false;
            if self.config.early_stop_patience > 0 {
                if let Some(vl) = val_loss {
                    if vl + 1e-6 < run.best_val {
                        run.best_val = vl;
                        run.stale = 0;
                    } else {
                        run.stale += 1;
                        if run.stale >= self.config.early_stop_patience {
                            stop = true;
                        }
                    }
                }
            }

            snapshot = Snapshot::capture(model.store(), optimizer, &run);
            if let Some(manager) = &manager {
                let boundary = stop
                    || run.epoch >= self.config.epochs
                    || run.epoch.is_multiple_of(checkpoint_every);
                if boundary {
                    let state = TrainState {
                        epoch: run.epoch,
                        step: run.step,
                        seed: self.config.seed,
                        lr_scale: run.lr_scale,
                        best_val: run.best_val,
                        stale: run.stale,
                        history: run.history.clone(),
                        optimizer: optimizer.export_state(),
                    };
                    let _ckpt_span = trace::span("nn.checkpoint.save");
                    let save_started = trace::enabled().then(std::time::Instant::now);
                    manager.save(model.store(), Some(&state))?;
                    if let Some(started) = save_started {
                        CKPT_SAVES.incr();
                        CKPT_SAVE_NS.add(started.elapsed().as_nanos() as u64);
                    }
                }
            }
            if stop {
                break;
            }
        }
        Ok(run.history)
    }

    /// Computes summed gradients and mean loss for one minibatch, sharded
    /// over worker threads.
    ///
    /// One poisoned shard fails the attempt, not the process: the batch is
    /// retried inline with identical sharding and RNG streams, so a
    /// transient panic leaves the trajectory bit-identical.
    fn batch_gradients<M: SequenceModel + Sync>(
        &self,
        model: &M,
        data: &[Example],
        batch: &[usize],
        epoch: usize,
        step: usize,
        faults: &FaultPlan,
    ) -> Result<(Vec<(ParamId, Tensor)>, f64), TrainError> {
        let seed_base = self
            .config
            .seed
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add((epoch * 1_000_003 + step) as u64);
        let (grads, mut loss) =
            match self.sharded_gradients(model, data, batch, seed_base, true, faults) {
                Err(TrainError::WorkerPanic { .. }) => {
                    self.sharded_gradients(model, data, batch, seed_base, false, faults)?
                }
                result => result?,
            };
        if faults.take(FaultKind::NanLoss) {
            loss = f64::NAN;
        }
        Ok((grads, loss))
    }

    /// Shard layout shared by the parallel path and the inline retry: the
    /// chunking and per-shard RNG seeds depend only on `(config, batch,
    /// seed_base)`, never on which thread runs a shard, so both paths
    /// produce bit-identical gradients.
    fn sharded_gradients<M: SequenceModel + Sync>(
        &self,
        model: &M,
        data: &[Example],
        batch: &[usize],
        seed_base: u64,
        parallel: bool,
        faults: &FaultPlan,
    ) -> Result<(Vec<(ParamId, Tensor)>, f64), TrainError> {
        let n_threads = self.threads().min(batch.len()).max(1);
        let chunk = batch.len().div_ceil(n_threads);

        let outcomes: Vec<Result<ShardResult, String>> = if parallel && n_threads > 1 {
            crossbeam::scope(|scope| {
                let handles: Vec<_> = batch
                    .chunks(chunk)
                    .enumerate()
                    .map(|(w, shard)| {
                        scope.spawn(move |_| run_shard(model, data, shard, seed_base, w, faults))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| Err(panic_text(p.as_ref()))))
                    .collect()
            })
            .unwrap_or_else(|p| vec![Err(panic_text(p.as_ref()))])
        } else {
            batch
                .chunks(chunk)
                .enumerate()
                .map(|(w, shard)| run_shard(model, data, shard, seed_base, w, faults))
                .collect()
        };
        let mut results: Vec<ShardResult> = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            results.push(outcome.map_err(|message| TrainError::WorkerPanic { message })?);
        }

        let total: usize = results.iter().map(|(_, _, n)| n).sum();
        let mut merged: Vec<(ParamId, Tensor)> = Vec::new();
        // ParamId → position in `merged`: O(1) lookups instead of a linear
        // scan per parameter, while first-appearance order (shards in index
        // order, params in tape order) keeps the output deterministic.
        let mut positions: HashMap<ParamId, usize> = HashMap::new();
        let mut loss_sum = 0.0;
        for (grads, loss, n) in results {
            loss_sum += loss * n as f64;
            // shard CE is a mean over its n examples; reweight to a mean
            // over the whole batch
            let scale = n as f32 / total as f32;
            for (p, mut t) in grads {
                t.scale(scale);
                match positions.entry(p) {
                    Entry::Occupied(e) => merged[*e.get()].1.axpy(1.0, &t),
                    Entry::Vacant(e) => {
                        e.insert(merged.len());
                        merged.push((p, t));
                    }
                }
            }
        }
        if self.config.grad_clip > 0.0 {
            for (_, t) in &mut merged {
                t.clip_inplace(self.config.grad_clip);
            }
        }
        Ok((merged, loss_sum / total.max(1) as f64))
    }

    /// Evaluates on labelled data: `(mean loss, accuracy, predictions,
    /// probability rows)`.
    ///
    /// # Errors
    ///
    /// [`TrainError::BadExample`] for an out-of-range label,
    /// [`TrainError::WorkerPanic`] if an eval worker dies.
    pub fn evaluate<M: SequenceModel + Sync>(
        &self,
        model: &M,
        data: &[Example],
    ) -> Result<Evaluation, TrainError> {
        validate_examples(data, model.num_classes())?;
        let probs = self.predict_proba(model, data)?;
        let mut loss = 0.0;
        let mut correct = 0usize;
        let mut preds = Vec::with_capacity(data.len());
        for ((_, label), row) in data.iter().zip(&probs) {
            loss -= row[*label].max(1e-12).ln();
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
            if pred == *label {
                correct += 1;
            }
            preds.push(pred);
        }
        let n = data.len().max(1) as f64;
        Ok((loss / n, correct as f64 / n, preds, probs))
    }

    /// Class-probability rows for each example (eval mode, parallel).
    ///
    /// # Errors
    ///
    /// [`TrainError::WorkerPanic`] if an eval worker dies.
    pub fn predict_proba<M: SequenceModel + Sync>(
        &self,
        model: &M,
        data: &[Example],
    ) -> Result<Vec<Vec<f64>>, TrainError> {
        if data.is_empty() {
            return Ok(Vec::new());
        }
        let n_threads = self.threads().min(data.len()).max(1);
        let chunk = data.len().div_ceil(n_threads);
        let shard_rows: Vec<Result<Vec<Vec<f64>>, String>> = crossbeam::scope(|scope| {
            let handles: Vec<_> = data
                .chunks(chunk)
                .map(|shard| {
                    scope.spawn(move |_| {
                        catch_unwind(AssertUnwindSafe(|| {
                            // shared graphs bind the parameters once per
                            // chunk instead of once per example; results
                            // are bitwise identical either way
                            let refs: Vec<&[usize]> =
                                shard.iter().map(|(ids, _)| ids.as_slice()).collect();
                            crate::infer::predict_proba_graph(model, &refs)
                        }))
                        .map_err(|p| panic_text(p.as_ref()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| Err(panic_text(p.as_ref()))))
                .collect()
        })
        .unwrap_or_else(|p| vec![Err(panic_text(p.as_ref()))]);

        let mut out = Vec::with_capacity(data.len());
        for rows in shard_rows {
            out.extend(rows.map_err(|message| TrainError::WorkerPanic { message })?);
        }
        Ok(out)
    }

    fn threads(&self) -> usize {
        if self.config.threads == 0 {
            std::thread::available_parallelism().map_or(4, |p| p.get())
        } else {
            self.config.threads
        }
    }
}

/// Rejects any example whose label the model cannot represent.
fn validate_examples(data: &[Example], classes: usize) -> Result<(), TrainError> {
    for (index, (_, label)) in data.iter().enumerate() {
        if *label >= classes {
            return Err(TrainError::BadExample {
                index,
                label: *label,
                classes,
            });
        }
    }
    Ok(())
}

/// Best-effort text of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one shard with its deterministic RNG stream, containing panics.
fn run_shard<M: SequenceModel>(
    model: &M,
    data: &[Example],
    shard: &[usize],
    seed_base: u64,
    w: usize,
    faults: &FaultPlan,
) -> Result<ShardResult, String> {
    catch_unwind(AssertUnwindSafe(|| {
        if faults.take(FaultKind::WorkerPanic) {
            panic!("injected worker panic");
        }
        let mut rng = StdRng::seed_from_u64(seed_base.wrapping_add(w as u64));
        shard_gradients(model, data, shard, true, &mut rng)
    }))
    .map_err(|p| panic_text(p.as_ref()))
}

/// Gradients and mean loss of one shard, computed on a single graph so the
/// parameters are bound once for the whole shard.
fn shard_gradients<M: SequenceModel>(
    model: &M,
    data: &[Example],
    shard: &[usize],
    train: bool,
    rng: &mut StdRng,
) -> (Vec<(ParamId, Tensor)>, f64, usize) {
    let mut g = Graph::new(model.store());
    let mut logit_rows = Vec::with_capacity(shard.len());
    let mut labels = Vec::with_capacity(shard.len());
    for (s, &i) in shard.iter().enumerate() {
        let (ids, label) = &data[i];
        logit_rows.push(model.logits(&mut g, ids, train, rng));
        labels.push(*label);
        if s == 0 {
            // the first sample reveals roughly how many tape nodes each
            // one needs; reserve the rest up front
            g.reserve(g.len() * (shard.len() - 1));
        }
    }
    let all_logits = g.concat_rows(&logit_rows);
    let loss = g.cross_entropy(all_logits, &labels);
    let loss_value = g.value(loss).get(0, 0) as f64;
    let grads = g.backward(loss);
    let collected: Vec<(ParamId, Tensor)> =
        grads.param_grads().map(|(p, t)| (p, t.clone())).collect();
    (collected, loss_value, shard.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstm::{LstmClassifier, LstmConfig};
    use crate::optim::AdamW;

    fn toy_model(seed: u64) -> LstmClassifier {
        let mut rng = StdRng::seed_from_u64(seed);
        LstmClassifier::new(
            LstmConfig {
                vocab: 12,
                emb_dim: 8,
                hidden: 10,
                layers: 1,
                dropout: 0.0,
                classes: 2,
                pooling: crate::lstm::LstmPooling::LastHidden,
            },
            &mut rng,
        )
    }

    fn order_task() -> Vec<Example> {
        // label = whether token 1 precedes token 2
        vec![
            (vec![1, 2, 3], 0),
            (vec![1, 3, 2], 0),
            (vec![2, 1, 3], 1),
            (vec![2, 3, 1], 1),
            (vec![1, 2], 0),
            (vec![2, 1], 1),
        ]
    }

    #[test]
    fn training_learns_order_task() {
        let mut model = toy_model(0);
        let data = order_task();
        let trainer = Trainer::new(TrainerConfig {
            epochs: 40,
            batch_size: 3,
            schedule: LrSchedule::Constant(0.02),
            threads: 2,
            ..Default::default()
        });
        let mut opt = AdamW::default();
        let history = trainer
            .fit(&mut model, &mut opt, &data, Some(&data))
            .unwrap();
        let (_, acc, _, _) = trainer.evaluate(&model, &data).unwrap();
        assert!(acc >= 0.99, "accuracy {acc}, history {history:?}");
        assert!(history.epochs.len() == 40);
        let first = history.epochs.first().unwrap().train_loss;
        let last = history.epochs.last().unwrap().train_loss;
        assert!(last < first, "loss rose: {first} → {last}");
    }

    #[test]
    fn history_records_validation() {
        let mut model = toy_model(1);
        let data = order_task();
        let trainer = Trainer::new(TrainerConfig {
            epochs: 2,
            ..Default::default()
        });
        let mut opt = AdamW::default();
        let history = trainer
            .fit(&mut model, &mut opt, &data, Some(&data))
            .unwrap();
        assert!(history.epochs.iter().all(|e| e.val_loss.is_some()));
        assert!(history.best_val_accuracy().is_some());
        assert_eq!(history.train_losses().len(), 2);
    }

    #[test]
    fn no_validation_means_no_val_stats() {
        let mut model = toy_model(2);
        let data = order_task();
        let trainer = Trainer::new(TrainerConfig {
            epochs: 1,
            ..Default::default()
        });
        let mut opt = AdamW::default();
        let history = trainer.fit(&mut model, &mut opt, &data, None).unwrap();
        assert!(history.epochs[0].val_loss.is_none());
        assert!(history.val_losses().is_empty());
    }

    #[test]
    fn early_stopping_cuts_epochs() {
        let mut model = toy_model(3);
        let data = order_task();
        let trainer = Trainer::new(TrainerConfig {
            epochs: 100,
            batch_size: 6,
            schedule: LrSchedule::Constant(0.0), // frozen → val never improves
            early_stop_patience: 3,
            ..Default::default()
        });
        let mut opt = AdamW::default();
        let history = trainer
            .fit(&mut model, &mut opt, &data, Some(&data))
            .unwrap();
        assert!(
            history.epochs.len() <= 5,
            "ran {} epochs",
            history.epochs.len()
        );
    }

    #[test]
    fn gradients_independent_of_thread_count() {
        let model = toy_model(4);
        let data = order_task();
        let config_one = TrainerConfig {
            threads: 1,
            ..Default::default()
        };
        let config_many = TrainerConfig {
            threads: 3,
            ..Default::default()
        };
        let batch: Vec<usize> = (0..data.len()).collect();
        let faults = FaultPlan::claim();
        // dropout is 0 so per-worker RNG divergence cannot matter
        let (g1, l1) = Trainer::new(config_one)
            .batch_gradients(&model, &data, &batch, 0, 0, &faults)
            .unwrap();
        let (g2, l2) = Trainer::new(config_many)
            .batch_gradients(&model, &data, &batch, 0, 0, &faults)
            .unwrap();
        assert!((l1 - l2).abs() < 1e-6);
        for (p, t) in &g1 {
            let other = &g2.iter().find(|(q, _)| q == p).expect("param present").1;
            assert!(
                t.max_abs_diff(other).unwrap() < 1e-4,
                "gradient mismatch for param {p:?}"
            );
        }
    }

    #[test]
    fn predict_proba_rows_are_distributions() {
        let model = toy_model(5);
        let data = order_task();
        let trainer = Trainer::new(TrainerConfig::default());
        for row in trainer.predict_proba(&model, &data).unwrap() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let mut model = toy_model(6);
        let trainer = Trainer::new(TrainerConfig::default());
        let mut opt = AdamW::default();
        let err = trainer.fit(&mut model, &mut opt, &[], None).unwrap_err();
        assert!(matches!(err, TrainError::EmptyDataset));
    }

    #[test]
    fn bad_label_is_reported_not_panicked() {
        let mut model = toy_model(7);
        let mut data = order_task();
        data[4].1 = 9; // out of the model's 2 classes
        let trainer = Trainer::new(TrainerConfig::default());
        let mut opt = AdamW::default();
        let err = trainer.fit(&mut model, &mut opt, &data, None).unwrap_err();
        assert!(
            matches!(
                err,
                TrainError::BadExample {
                    index: 4,
                    label: 9,
                    classes: 2
                }
            ),
            "got {err:?}"
        );
        let err = trainer.evaluate(&model, &data).unwrap_err();
        assert!(matches!(err, TrainError::BadExample { .. }));
    }

    #[test]
    fn injected_worker_panic_is_retried_bit_identically() {
        let data = order_task();
        let config = TrainerConfig {
            epochs: 3,
            batch_size: 3,
            threads: 2,
            schedule: LrSchedule::Constant(0.02),
            ..Default::default()
        };

        let mut clean = toy_model(8);
        let mut opt = AdamW::default();
        let clean_history = Trainer::new(config)
            .fit(&mut clean, &mut opt, &data, None)
            .unwrap();

        let mut faulted = toy_model(8);
        let mut opt = AdamW::default();
        crate::faults::inject(FaultKind::WorkerPanic, 1);
        let faulted_history = Trainer::new(config)
            .fit(&mut faulted, &mut opt, &data, None)
            .unwrap();

        assert_eq!(clean_history, faulted_history);
        for (id, _, tensor) in clean.store().iter() {
            assert_eq!(tensor, faulted.store().get(id));
        }
    }

    #[test]
    fn injected_nan_loss_is_skipped_and_counted() {
        let data = order_task();
        let mut model = toy_model(9);
        let mut opt = AdamW::default();
        crate::faults::inject(FaultKind::NanLoss, 1);
        let history = Trainer::new(TrainerConfig {
            epochs: 2,
            batch_size: 2,
            threads: 1,
            ..Default::default()
        })
        .fit(&mut model, &mut opt, &data, None)
        .unwrap();
        assert_eq!(history.total_skipped_steps(), 1);
        assert_eq!(history.total_rollbacks(), 0);
        assert!(history.epochs.iter().all(|e| e.train_loss.is_finite()));
    }

    #[test]
    fn persistent_nan_loss_rolls_back_with_halved_lr() {
        let data = order_task();
        let mut model = toy_model(10);
        let mut opt = AdamW::default();
        crate::faults::inject(FaultKind::NanLoss, 2);
        let history = Trainer::new(TrainerConfig {
            epochs: 3,
            batch_size: 3, // two steps per epoch
            threads: 1,
            divergence_patience: 2,
            ..Default::default()
        })
        .fit(&mut model, &mut opt, &data, None)
        .unwrap();
        assert_eq!(history.total_rollbacks(), 1);
        assert_eq!(history.epochs.len(), 3, "rollback must not lose epochs");
        assert!(history.epochs.iter().all(|e| e.train_loss.is_finite()));
    }

    #[test]
    fn unrecoverable_divergence_is_an_error() {
        let data = order_task();
        let mut model = toy_model(11);
        let mut opt = AdamW::default();
        // enough poison to exhaust every rollback (patience 1 → a rollback
        // per poisoned step, budget of MAX_ROLLBACKS)
        crate::faults::inject(FaultKind::NanLoss, MAX_ROLLBACKS + 2);
        let err = Trainer::new(TrainerConfig {
            epochs: 2,
            batch_size: 6,
            threads: 1,
            divergence_patience: 1,
            ..Default::default()
        })
        .fit(&mut model, &mut opt, &data, None)
        .unwrap_err();
        assert!(matches!(err, TrainError::Diverged { .. }), "got {err:?}");
    }

    #[test]
    fn shots_armed_on_one_thread_never_reach_a_fit_on_another() {
        let data = order_task();
        let config = TrainerConfig {
            epochs: 2,
            batch_size: 2,
            threads: 1,
            ..Default::default()
        };
        // enough poison for every step of both runs
        crate::faults::inject(FaultKind::NanLoss, 100);
        let elsewhere = std::thread::spawn({
            let data = data.clone();
            move || {
                let mut model = toy_model(13);
                Trainer::new(config)
                    .fit(&mut model, &mut AdamW::default(), &data, None)
                    .unwrap()
            }
        })
        .join()
        .unwrap();
        assert_eq!(elsewhere.total_skipped_steps(), 0, "{elsewhere:?}");

        // the shots are still armed here, and the next fit on this thread
        // takes them
        let mut model = toy_model(13);
        let here = Trainer::new(TrainerConfig {
            divergence_patience: 0,
            ..config
        })
        .fit(&mut model, &mut AdamW::default(), &data, None)
        .unwrap();
        assert_eq!(here.total_skipped_steps(), 6, "{here:?}");

        // and they died with that run
        let mut model = toy_model(13);
        let after = Trainer::new(config)
            .fit(&mut model, &mut AdamW::default(), &data, None)
            .unwrap();
        assert_eq!(after.total_skipped_steps(), 0, "{after:?}");
    }

    #[test]
    fn fit_emits_epoch_spans_and_token_counts() {
        let tokens0 = TRAIN_TOKENS.get();
        trace::enable();
        let mut model = toy_model(20);
        let data = order_task();
        let trainer = Trainer::new(TrainerConfig {
            epochs: 2,
            threads: 1,
            ..Default::default()
        });
        let mut opt = AdamW::default();
        trainer.fit(&mut model, &mut opt, &data, None).unwrap();
        let snap = trace::snapshot();
        trace::disable();
        // other tests in this binary may trace concurrently → lower bounds
        let fit_ids: Vec<u64> = snap
            .spans
            .iter()
            .filter(|s| s.name == "nn.trainer.fit")
            .map(|s| s.id)
            .collect();
        assert!(!fit_ids.is_empty(), "fit span recorded");
        let epoch0 = snap
            .spans
            .iter()
            .find(|s| s.name == "epoch[0]" && s.parent.is_some_and(|p| fit_ids.contains(&p)))
            .expect("epoch span nested under fit");
        assert!(epoch0.dur_ns > 0);
        // 6 examples × 16 tokens total per epoch × 2 epochs = 32 tokens
        assert!(TRAIN_TOKENS.get() >= tokens0 + 32);
    }

    #[test]
    fn resume_from_checkpoint_matches_uninterrupted_run() {
        let dir = std::env::temp_dir().join("nn_trainer_resume_unit");
        let _ = std::fs::remove_dir_all(&dir);
        let data = order_task();
        let config = TrainerConfig {
            epochs: 4,
            batch_size: 3,
            threads: 2,
            schedule: LrSchedule::Constant(0.02),
            ..Default::default()
        };

        let mut straight = toy_model(12);
        let mut opt = AdamW::default();
        let full_history = Trainer::new(config)
            .fit(&mut straight, &mut opt, &data, Some(&data))
            .unwrap();

        // phase 1: two epochs, checkpointed, then "the process dies"
        let mut interrupted = toy_model(12);
        let mut opt = AdamW::default();
        let short = Trainer::new(TrainerConfig {
            epochs: 2,
            ..config
        });
        short
            .fit_with(
                &mut interrupted,
                &mut opt,
                &data,
                Some(&data),
                &FitOptions::checkpoint(&dir),
            )
            .unwrap();
        drop(interrupted);

        // phase 2: a fresh process resumes and finishes the run
        let mut resumed = toy_model(99); // different init — must be overwritten
        let mut opt = AdamW::default();
        let resumed_history = Trainer::new(config)
            .fit_with(
                &mut resumed,
                &mut opt,
                &data,
                Some(&data),
                &FitOptions::resume(&dir),
            )
            .unwrap();

        assert_eq!(full_history, resumed_history);
        for (id, _, tensor) in straight.store().iter() {
            assert_eq!(tensor, resumed.store().get(id), "weights diverged");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
