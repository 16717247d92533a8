//! Mini-batch SGD training loop with optional group-Lasso regularizers.

use crate::layer::zeroed_grads;
use crate::loss::softmax_cross_entropy;
use crate::network::{batched_accuracy, Network};
use crate::optim::Sgd;
use crate::regularizer::{GroupLasso, LassoMode};
use crate::saved::{check_entries, read_snapshot_file, write_snapshot_file, SavedNetwork};
use crate::{NnError, Result};
use lts_tensor::{par, Shape, Tensor};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Number of gradient shards each mini-batch is split into.
///
/// The decomposition is fixed regardless of the worker count configured in
/// [`par`], so training results are bit-identical for any `LTS_THREADS`:
/// shard boundaries, per-shard accumulation order, and the shard-ascending
/// gradient reduction never change — threads only decide *when* a shard
/// runs.
const TRAIN_SHARDS: usize = 8;

/// Optional per-epoch checkpoint sink threaded through the internal
/// training loop (`None` for plain, checkpoint-free runs).
type CheckpointSink<'a> = Option<&'a mut dyn FnMut(&TrainCheckpoint) -> Result<()>>;

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Per-epoch multiplicative learning-rate decay.
    pub lr_decay: f32,
    /// Global gradient-norm clip (0 disables). Deep conv stacks at
    /// aggressive learning rates occasionally produce exploding batches;
    /// clipping keeps every model family stable at its tuned rate.
    pub clip_grad_norm: f32,
    /// Shuffle seed (training is fully deterministic given this).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_decay: 0.9,
            clip_grad_norm: 5.0,
            seed: 0,
        }
    }
}

/// Per-epoch training metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss (data term only).
    pub loss: f32,
    /// Mean group-Lasso penalty at epoch end.
    pub penalty: f32,
    /// Training accuracy over the epoch.
    pub accuracy: f32,
}

/// Summary of a whole training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainStats {
    /// One entry per epoch.
    pub epochs: Vec<EpochStats>,
}

impl TrainStats {
    /// Final-epoch training accuracy (`0` if no epochs ran).
    pub fn final_accuracy(&self) -> f32 {
        self.epochs.last().map_or(0.0, |e| e.accuracy)
    }

    /// Final-epoch loss (`inf` if no epochs ran).
    pub fn final_loss(&self) -> f32 {
        self.epochs.last().map_or(f32::INFINITY, |e| e.loss)
    }
}

/// One weight-bearing layer's SGD momentum buffers — the optimizer
/// state a [`SavedNetwork`] deliberately omits, persisted alongside it
/// in a [`TrainCheckpoint`] so resumed training continues the exact
/// velocity trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SavedMomentum {
    /// Layer name (matches the snapshot's parameter entry).
    pub layer: String,
    /// Weight momentum buffer.
    pub weight: Tensor,
    /// Bias momentum buffer.
    pub bias: Tensor,
}

/// A crash-safe snapshot of a training run, captured at an epoch
/// boundary.
///
/// The checkpoint holds everything [`Trainer::resume`] needs to
/// continue *bit-identically* to the uninterrupted run: the hyper
/// parameters (resume refuses a mismatched trainer), the completed
/// epoch count, the network weights and freeze masks, the momentum
/// buffers, and the per-epoch stats so far. The shuffle RNG and the
/// decayed learning rate are *not* stored — both are deterministic
/// functions of `(config, completed_epochs)` and are replayed on
/// resume, repeating the exact same f32 multiplications the original
/// run performed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Hyper-parameters of the interrupted run.
    pub config: TrainConfig,
    /// Epochs fully completed before the snapshot (resume starts here).
    pub completed_epochs: usize,
    /// Weights and freeze masks at the epoch boundary.
    pub network: SavedNetwork,
    /// Momentum buffers, one entry per weight-bearing layer in spec
    /// order (mirrors `network.params`).
    pub momentum: Vec<SavedMomentum>,
    /// Stats of the completed epochs.
    pub stats: TrainStats,
}

impl TrainCheckpoint {
    /// Captures the training state after `completed_epochs` epochs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::SaveFailed`] when the network cannot be
    /// snapshotted (see [`SavedNetwork::from_network`]).
    pub fn capture(
        config: &TrainConfig,
        completed_epochs: usize,
        net: &Network,
        stats: &TrainStats,
    ) -> Result<Self> {
        let network = SavedNetwork::from_network(net)?;
        let mut momentum = Vec::with_capacity(network.params.len());
        for saved in &network.params {
            let layer = net.layer(&saved.layer).ok_or_else(|| {
                NnError::SaveFailed(format!("layer `{}` vanished mid-capture", saved.layer))
            })?;
            let ps = layer.params();
            let (w, b) = match (ps.first(), ps.get(1)) {
                (Some(w), Some(b)) => (w, b),
                _ => {
                    return Err(NnError::SaveFailed(format!(
                        "layer `{}` lacks weight/bias parameters",
                        saved.layer
                    )))
                }
            };
            momentum.push(SavedMomentum {
                layer: saved.layer.clone(),
                weight: w.momentum.clone(),
                bias: b.momentum.clone(),
            });
        }
        Ok(Self { config: *config, completed_epochs, network, momentum, stats: stats.clone() })
    }

    /// Checks internal consistency: the embedded network snapshot is
    /// valid, the epoch count fits the config, the stats cover exactly
    /// the completed epochs, and momentum entries mirror the parameter
    /// entries shape-for-shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MalformedSnapshot`] describing the first
    /// inconsistency.
    pub fn validate(&self) -> Result<()> {
        self.network.validate()?;
        if self.completed_epochs > self.config.epochs {
            return Err(NnError::MalformedSnapshot(format!(
                "checkpoint claims {} completed epochs of a {}-epoch run",
                self.completed_epochs, self.config.epochs
            )));
        }
        if self.stats.epochs.len() != self.completed_epochs {
            return Err(NnError::MalformedSnapshot(format!(
                "{} epoch stats for {} completed epochs",
                self.stats.epochs.len(),
                self.completed_epochs
            )));
        }
        if self.momentum.len() != self.network.params.len() {
            return Err(NnError::MalformedSnapshot(format!(
                "{} momentum entries for {} parameter entries",
                self.momentum.len(),
                self.network.params.len()
            )));
        }
        for (m, p) in self.momentum.iter().zip(&self.network.params) {
            if m.layer != p.layer {
                return Err(NnError::MalformedSnapshot(format!(
                    "momentum entry `{}` out of order with parameter entry `{}`",
                    m.layer, p.layer
                )));
            }
            check_entries(&m.layer, "weight momentum", &m.weight)?;
            check_entries(&m.layer, "bias momentum", &m.bias)?;
            if m.weight.shape() != p.weight.shape() || m.bias.shape() != p.bias.shape() {
                return Err(NnError::MalformedSnapshot(format!(
                    "momentum shapes for `{}` disagree with its parameters",
                    m.layer
                )));
            }
        }
        Ok(())
    }

    /// Rebuilds the network with weights, freeze masks *and* momentum
    /// buffers restored.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MalformedSnapshot`] for inconsistent
    /// checkpoints and [`NnError::BadConfig`] when the network cannot be
    /// rebuilt.
    pub fn restore_network(&self) -> Result<Network> {
        self.validate()?;
        let mut net = self.network.clone().into_network()?;
        for m in &self.momentum {
            let layer = net.layer_mut(&m.layer).ok_or_else(|| {
                NnError::BadConfig(format!("checkpoint layer `{}` not reconstructible", m.layer))
            })?;
            let mut params = layer.params_mut();
            if params.len() < 2 {
                return Err(NnError::BadConfig(format!(
                    "checkpoint layer `{}` lacks weight/bias parameters",
                    m.layer
                )));
            }
            params[0].momentum = m.weight.clone();
            params[1].momentum = m.bias.clone();
        }
        Ok(net)
    }

    /// Serializes to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::SaveFailed`] if serialization fails.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| NnError::SaveFailed(e.to_string()))
    }

    /// Deserializes and validates a checkpoint from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MalformedSnapshot`] for unparsable input and
    /// checkpoints failing [`TrainCheckpoint::validate`].
    pub fn from_json(json: &str) -> Result<Self> {
        let cp: Self =
            serde_json::from_str(json).map_err(|e| NnError::MalformedSnapshot(e.to_string()))?;
        cp.validate()?;
        Ok(cp)
    }

    /// Persists the checkpoint atomically under the snapshot checksum
    /// envelope (see [`write_snapshot_file`]): a crash mid-save leaves
    /// the previous checkpoint intact, never a torn file.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::SaveFailed`] for serialization or filesystem
    /// failures.
    pub fn save_to_file(&self, path: &Path) -> Result<()> {
        write_snapshot_file(path, &self.to_json()?)
    }

    /// Loads, checksum-verifies and validates a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MalformedSnapshot`] for missing/corrupt files
    /// and invalid checkpoints.
    pub fn load_from_file(path: &Path) -> Result<Self> {
        Self::from_json(&read_snapshot_file(path)?)
    }
}

/// Trains networks with SGD and (optionally) per-layer group-Lasso
/// regularizers — the mechanism behind the paper's SS and SS_Mask schemes.
///
/// # Examples
///
/// ```
/// use lts_nn::network::NetworkBuilder;
/// use lts_nn::trainer::{TrainConfig, Trainer};
/// use lts_tensor::{init, Shape, Tensor};
///
/// # fn main() -> Result<(), lts_nn::NnError> {
/// let mut rng = init::rng(1);
/// let mut net = NetworkBuilder::new("xor-ish", (2, 1, 1))
///     .linear("ip1", 8)
///     .relu()
///     .linear("ip2", 2)
///     .build(&mut rng)?;
/// let inputs = Tensor::from_vec(
///     Shape::d2(4, 2),
///     vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0],
/// ).map_err(lts_nn::NnError::from)?;
/// let labels = [0usize, 1, 1, 0];
/// let trainer = Trainer::new(TrainConfig { epochs: 50, batch_size: 4, lr: 0.2, ..TrainConfig::default() })?;
/// let stats = trainer.train(&mut net, &inputs, &labels)?;
/// assert!(stats.final_loss() < 0.7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
    regularizers: Vec<GroupLasso>,
}

impl Trainer {
    /// Creates a trainer without structured-sparsity regularization
    /// (the paper's *Baseline*).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for invalid hyper-parameters.
    pub fn new(config: TrainConfig) -> Result<Self> {
        if config.epochs == 0 || config.batch_size == 0 {
            return Err(NnError::BadConfig("epochs and batch_size must be positive".into()));
        }
        Sgd::new(config.lr, config.momentum, config.weight_decay)?;
        Ok(Self { config, regularizers: Vec::new() })
    }

    /// Adds a group-Lasso regularizer for one layer.
    pub fn with_regularizer(mut self, reg: GroupLasso) -> Self {
        self.regularizers.push(reg);
        self
    }

    /// The attached regularizers.
    pub fn regularizers(&self) -> &[GroupLasso] {
        &self.regularizers
    }

    /// Runs the training loop on `(inputs, labels)`.
    ///
    /// `inputs` is a full dataset batch (NCHW or `[n, features]`); labels
    /// are class indices. Training is deterministic given
    /// [`TrainConfig::seed`].
    ///
    /// # Errors
    ///
    /// Propagates layer/loss errors and returns [`NnError::BadInput`] if
    /// labels and inputs disagree, or [`NnError::BadConfig`] if a
    /// regularizer names a layer the network lacks.
    pub fn train(
        &self,
        net: &mut Network,
        inputs: &Tensor,
        labels: &[usize],
    ) -> Result<TrainStats> {
        self.run(net, inputs, labels, 0, Vec::new(), None)
    }

    /// Like [`Trainer::train`], but invokes `on_checkpoint` with a
    /// [`TrainCheckpoint`] after every completed epoch (typically to
    /// [`TrainCheckpoint::save_to_file`] it). The training trajectory is
    /// bit-identical to [`Trainer::train`] — checkpointing only *reads*
    /// state. A sink error aborts the run and propagates.
    ///
    /// # Errors
    ///
    /// Everything [`Trainer::train`] returns, plus errors from the sink
    /// and from checkpoint capture.
    pub fn train_with_checkpoints(
        &self,
        net: &mut Network,
        inputs: &Tensor,
        labels: &[usize],
        mut on_checkpoint: impl FnMut(&TrainCheckpoint) -> Result<()>,
    ) -> Result<TrainStats> {
        self.run(net, inputs, labels, 0, Vec::new(), Some(&mut on_checkpoint))
    }

    /// Resumes an interrupted run from `checkpoint`, returning the
    /// trained network and the full (prior + new epochs) stats.
    ///
    /// The result is bit-identical to the run that would have completed
    /// without the interruption: weights, freeze masks and momentum come
    /// from the checkpoint, while the shuffle RNG and the decayed
    /// learning rate are replayed from the seed through the completed
    /// epochs (the same f32 operations in the same order).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when the checkpoint's hyper
    /// parameters disagree with this trainer's, plus everything
    /// [`Trainer::train`] and [`TrainCheckpoint::restore_network`]
    /// return.
    pub fn resume(
        &self,
        checkpoint: &TrainCheckpoint,
        inputs: &Tensor,
        labels: &[usize],
    ) -> Result<(Network, TrainStats)> {
        let mut net = self.restore_for_resume(checkpoint)?;
        let stats = self.run(
            &mut net,
            inputs,
            labels,
            checkpoint.completed_epochs,
            checkpoint.stats.epochs.clone(),
            None,
        )?;
        Ok((net, stats))
    }

    /// [`Trainer::resume`] that keeps checkpointing the remaining epochs
    /// through `on_checkpoint`, so a resumed run is itself crash-safe.
    ///
    /// # Errors
    ///
    /// Everything [`Trainer::resume`] returns, plus sink errors.
    pub fn resume_with_checkpoints(
        &self,
        checkpoint: &TrainCheckpoint,
        inputs: &Tensor,
        labels: &[usize],
        mut on_checkpoint: impl FnMut(&TrainCheckpoint) -> Result<()>,
    ) -> Result<(Network, TrainStats)> {
        let mut net = self.restore_for_resume(checkpoint)?;
        let stats = self.run(
            &mut net,
            inputs,
            labels,
            checkpoint.completed_epochs,
            checkpoint.stats.epochs.clone(),
            Some(&mut on_checkpoint),
        )?;
        Ok((net, stats))
    }

    fn restore_for_resume(&self, checkpoint: &TrainCheckpoint) -> Result<Network> {
        if checkpoint.config != self.config {
            return Err(NnError::BadConfig(
                "checkpoint hyper-parameters disagree with this trainer; resuming would \
                 silently change the training trajectory"
                    .into(),
            ));
        }
        checkpoint.restore_network()
    }

    /// The training loop proper, shared by fresh and resumed runs.
    ///
    /// `start_epoch` epochs are replayed through the shuffle RNG and the
    /// learning-rate decay (but not trained); `prior` seeds the stats.
    fn run(
        &self,
        net: &mut Network,
        inputs: &Tensor,
        labels: &[usize],
        start_epoch: usize,
        prior: Vec<EpochStats>,
        mut on_checkpoint: CheckpointSink<'_>,
    ) -> Result<TrainStats> {
        let total = inputs.shape().dim(0);
        if labels.len() != total {
            return Err(NnError::BadInput {
                layer: "trainer".into(),
                reason: format!("{} labels for {total} inputs", labels.len()),
            });
        }
        for reg in &self.regularizers {
            let w = net.layer_weight(&reg.layer).ok_or_else(|| {
                NnError::BadConfig(format!("regularizer targets unknown layer `{}`", reg.layer))
            })?;
            if w.len() != reg.layout.weight_len() {
                return Err(NnError::BadConfig(format!(
                    "regularizer layout for `{}` covers {} weights, layer has {}",
                    reg.layer,
                    reg.layout.weight_len(),
                    w.len()
                )));
            }
        }
        let sample_len = inputs.len().checked_div(total).unwrap_or(0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
        let mut order: Vec<usize> = (0..total).collect();
        let mut opt = Sgd::new(self.config.lr, self.config.momentum, self.config.weight_decay)?;
        // Replay the completed epochs' RNG draws and lr decays so a
        // resumed run continues the exact sequence — same shuffles, same
        // repeated f32 multiplications — the uninterrupted run would see.
        for _ in 0..start_epoch {
            order.shuffle(&mut rng);
            opt = opt.with_lr_scaled(self.config.lr_decay);
        }
        let mut stats = TrainStats { epochs: prior };
        for epoch in start_epoch..self.config.epochs {
            let _probe = lts_obs::span("nn.train_epoch");
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            let mut epoch_correct = 0usize;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let (loss, correct) = train_batch(net, inputs, labels, chunk, sample_len)?;
                self.apply_regularizers(net, LassoMode::Subgradient, opt.lr)?;
                let mut params = net.params_mut();
                clip_global_grad_norm(&mut params, self.config.clip_grad_norm);
                opt.step(&mut params);
                self.apply_regularizers(net, LassoMode::Proximal, opt.lr)?;
                epoch_loss += loss as f64;
                epoch_correct += correct;
                batches += 1;
            }
            let penalty = self.total_penalty(net)?;
            stats.epochs.push(EpochStats {
                epoch,
                loss: (epoch_loss / batches.max(1) as f64) as f32,
                penalty,
                accuracy: epoch_correct as f32 / total.max(1) as f32,
            });
            opt = opt.with_lr_scaled(self.config.lr_decay);
            if let Some(sink) = on_checkpoint.as_deref_mut() {
                let cp = TrainCheckpoint::capture(&self.config, epoch + 1, net, &stats)?;
                sink(&cp)?;
            }
        }
        Ok(stats)
    }

    /// Sum of all regularizer penalties at the network's current weights.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if a regularizer names a missing layer.
    pub fn total_penalty(&self, net: &Network) -> Result<f32> {
        let mut total = 0.0;
        for reg in &self.regularizers {
            let w = net.layer_weight(&reg.layer).ok_or_else(|| {
                NnError::BadConfig(format!("regularizer targets unknown layer `{}`", reg.layer))
            })?;
            total += reg.penalty(w.value.as_slice());
        }
        Ok(total)
    }

    /// Applies the regularizers optimized in `mode`: subgradient ones add
    /// to the gradients, proximal ones shrink the weights by `step_size`.
    fn apply_regularizers(&self, net: &mut Network, mode: LassoMode, step_size: f32) -> Result<()> {
        for reg in self.regularizers.iter().filter(|r| r.mode == mode) {
            let param = net.layer_weight_mut(&reg.layer).ok_or_else(|| {
                NnError::BadConfig(format!("regularizer targets unknown layer `{}`", reg.layer))
            })?;
            match mode {
                LassoMode::Subgradient => reg.accumulate_grad(param),
                LassoMode::Proximal => reg.proximal_shrink(param, step_size),
            }
        }
        Ok(())
    }
}

/// Runs forward + backward for one mini-batch, leaving the mean-batch
/// gradient in `net`'s parameter grads. Returns `(mean loss, correct)`.
///
/// The batch is split into `min(TRAIN_SHARDS, batch)` fixed shards that run
/// data-parallel. Every shard borrows `net` and fills its own zeroed
/// gradient buffers; they are reduced onto the master's grads in ascending
/// shard order with fixed weights, so the result does not depend on the
/// engine's worker count.
fn train_batch(
    net: &mut Network,
    inputs: &Tensor,
    labels: &[usize],
    chunk: &[usize],
    sample_len: usize,
) -> Result<(f32, usize)> {
    let _probe = lts_obs::span("nn.train_batch");
    let batch_len = chunk.len();
    let ranges = par::stripe_ranges(batch_len, TRAIN_SHARDS.min(batch_len));
    let shared: &Network = net;
    let results = par::par_map(&ranges, |_, range| -> Result<(f32, usize, usize, Vec<Tensor>)> {
        let idx = &chunk[range.start..range.end];
        let (batch, batch_labels) = gather_batch(inputs, labels, idx, sample_len)?;
        let (logits, tape) = shared.forward_train(batch)?;
        let out = softmax_cross_entropy(&logits, &batch_labels)?;
        let mut grads = zeroed_grads(&shared.params());
        shared.backward(tape, &out.grad, &mut grads)?;
        Ok((out.loss, out.correct, idx.len(), grads))
    });
    // Fixed-order weighted reduction: shard s contributes
    // `shard_len / batch_len` of the batch-mean gradient and loss.
    net.zero_grads();
    let mut loss = 0.0f32;
    let mut correct = 0usize;
    let mut params = net.params_mut();
    for result in results {
        let (shard_loss, shard_correct, shard_len, grads) = result?;
        let factor = shard_len as f32 / batch_len as f32;
        loss += factor * shard_loss;
        correct += shard_correct;
        for (p, g) in params.iter_mut().zip(&grads) {
            for (gm, &gs) in p.grad.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *gm += factor * gs;
            }
        }
    }
    Ok((loss, correct))
}

/// Scales all gradients down so their global L2 norm is at most
/// `max_norm` (no-op when `max_norm <= 0` or the norm is already within
/// bounds).
pub fn clip_global_grad_norm(params: &mut [&mut Param], max_norm: f32) {
    if max_norm <= 0.0 {
        return;
    }
    let mut ss = 0.0f64;
    for p in params.iter() {
        for &g in p.grad.as_slice() {
            ss += (g as f64) * (g as f64);
        }
    }
    let norm = ss.sqrt() as f32;
    if norm > max_norm {
        let scale = max_norm / norm;
        for p in params.iter_mut() {
            lts_tensor::ops::scale(scale, &mut p.grad);
        }
    }
}

use crate::param::Param;

/// Copies the samples at `indices` into one contiguous batch tensor.
fn gather_batch(
    inputs: &Tensor,
    labels: &[usize],
    indices: &[usize],
    sample_len: usize,
) -> Result<(Tensor, Vec<usize>)> {
    let mut dims = inputs.shape().dims().to_vec();
    dims[0] = indices.len();
    let mut data = Vec::with_capacity(indices.len() * sample_len);
    let src = inputs.as_slice();
    let mut batch_labels = Vec::with_capacity(indices.len());
    for &i in indices {
        data.extend_from_slice(&src[i * sample_len..(i + 1) * sample_len]);
        batch_labels.push(labels[i]);
    }
    Ok((Tensor::from_vec(Shape::new(dims), data)?, batch_labels))
}

/// Evaluates classification accuracy data-parallel on the execution
/// engine, splitting the dataset into `threads` contiguous sample chunks
/// that all borrow `net`.
///
/// The result is partition-independent: each chunk contributes an integer
/// correct-count and per-sample forward passes do not depend on batchmates,
/// so any `threads` value (and any engine worker count) yields the same
/// accuracy.
///
/// # Errors
///
/// Propagates forward errors from any worker.
pub fn parallel_accuracy(
    net: &Network,
    inputs: &Tensor,
    labels: &[usize],
    batch_size: usize,
    threads: usize,
) -> Result<f32> {
    let forward = || |batch: &Tensor| net.forward(batch);
    batched_accuracy("parallel_accuracy", inputs, labels, batch_size, threads, forward)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::GroupLayout;
    use crate::network::NetworkBuilder;
    use crate::regularizer::StrengthMask;
    use lts_tensor::init;

    /// A linearly separable toy problem: class = argmax over 4 fixed
    /// directions.
    fn toy_data(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = init::rng(seed);
        let x = init::uniform(Shape::d2(n, 8), 1.0, &mut rng);
        let labels = (0..n)
            .map(|i| {
                let row = &x.as_slice()[i * 8..(i + 1) * 8];
                lts_tensor::ops::argmax(&row[0..4]).map(|(j, _)| j).unwrap_or(0)
            })
            .collect();
        (x, labels)
    }

    fn toy_net(seed: u64) -> Network {
        let mut rng = init::rng(seed);
        NetworkBuilder::new("toy", (8, 1, 1))
            .linear("ip1", 16)
            .relu()
            .linear("ip2", 4)
            .build(&mut rng)
            .unwrap()
    }

    #[test]
    fn training_reduces_loss_and_learns_the_task() {
        let (x, y) = toy_data(256, 1);
        let mut net = toy_net(2);
        let trainer = Trainer::new(TrainConfig {
            epochs: 30,
            batch_size: 32,
            lr: 0.1,
            ..TrainConfig::default()
        })
        .unwrap();
        let stats = trainer.train(&mut net, &x, &y).unwrap();
        assert!(stats.epochs[0].loss > stats.final_loss());
        assert!(stats.final_accuracy() > 0.9, "accuracy {}", stats.final_accuracy());
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (x, y) = toy_data(64, 3);
        let cfg = TrainConfig { epochs: 3, ..TrainConfig::default() };
        let mut a = toy_net(4);
        let mut b = toy_net(4);
        let sa = Trainer::new(cfg).unwrap().train(&mut a, &x, &y).unwrap();
        let sb = Trainer::new(cfg).unwrap().train(&mut b, &x, &y).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(a.layer_weight("ip1").unwrap().value, b.layer_weight("ip1").unwrap().value);
    }

    #[test]
    fn group_lasso_drives_masked_groups_toward_zero() {
        let (x, y) = toy_data(256, 5);
        let mut net = toy_net(6);
        let layout = GroupLayout::new(16, 8, 1, 4);
        // Heavily penalize every off-diagonal group.
        let mut factors = vec![4.0f32; 16];
        for d in 0..4 {
            factors[d * 4 + d] = 0.0;
        }
        let reg = GroupLasso::new(
            "ip1",
            layout.clone(),
            0.2,
            StrengthMask::from_factors(4, factors).unwrap(),
        )
        .unwrap();
        let trainer = Trainer::new(TrainConfig {
            epochs: 40,
            batch_size: 32,
            lr: 0.1,
            ..TrainConfig::default()
        })
        .unwrap()
        .with_regularizer(reg);
        trainer.train(&mut net, &x, &y).unwrap();
        let w = net.layer_weight("ip1").unwrap().value.as_slice().to_vec();
        let mut off_diag = 0.0;
        let mut diag = 0.0;
        for p in 0..4 {
            for c in 0..4 {
                let n = layout.group_norm(p, c, &w);
                if p == c {
                    diag += n;
                } else {
                    off_diag += n;
                }
            }
        }
        assert!(
            off_diag < diag * 0.25,
            "off-diagonal mass {off_diag} should be far below diagonal {diag}"
        );
    }

    #[test]
    fn regularizer_on_unknown_layer_is_rejected() {
        let (x, y) = toy_data(16, 7);
        let mut net = toy_net(8);
        let reg =
            GroupLasso::new("nope", GroupLayout::new(16, 8, 1, 4), 0.01, StrengthMask::uniform(4))
                .unwrap();
        let trainer = Trainer::new(TrainConfig { epochs: 1, ..TrainConfig::default() })
            .unwrap()
            .with_regularizer(reg);
        assert!(trainer.train(&mut net, &x, &y).is_err());
    }

    #[test]
    fn empty_dataset_trains_to_nothing_without_panicking() {
        let mut net = toy_net(20);
        let x = Tensor::zeros(Shape::d2(0, 8));
        let trainer = Trainer::new(TrainConfig { epochs: 2, ..TrainConfig::default() }).unwrap();
        let stats = trainer.train(&mut net, &x, &[]).unwrap();
        assert_eq!(stats.epochs.len(), 2);
        assert_eq!(stats.final_accuracy(), 0.0);
        assert_eq!(parallel_accuracy(&net, &x, &[], 8, 4).unwrap(), 0.0);
    }

    #[test]
    fn single_sample_dataset_trains() {
        let (x, y) = toy_data(1, 30);
        let mut net = toy_net(31);
        let trainer = Trainer::new(TrainConfig { epochs: 3, ..TrainConfig::default() }).unwrap();
        let stats = trainer.train(&mut net, &x, &y).unwrap();
        assert!(stats.final_loss().is_finite());
    }

    #[test]
    fn parallel_accuracy_matches_sequential() {
        let (x, y) = toy_data(64, 9);
        let net = toy_net(10);
        let seq = net.evaluate(&x, &y, 16).unwrap();
        let par = parallel_accuracy(&net, &x, &y, 16, 4).unwrap();
        assert!((seq - par).abs() < 1e-6);
    }

    #[test]
    fn config_validation() {
        assert!(Trainer::new(TrainConfig { epochs: 0, ..TrainConfig::default() }).is_err());
        assert!(Trainer::new(TrainConfig { batch_size: 0, ..TrainConfig::default() }).is_err());
        assert!(Trainer::new(TrainConfig { lr: -1.0, ..TrainConfig::default() }).is_err());
    }

    /// A trainer with a proximal group-Lasso regularizer — exercises the
    /// lr-dependent shrink on resume, the hardest bit-identity case.
    fn lasso_trainer(epochs: usize) -> Trainer {
        let layout = GroupLayout::new(16, 8, 1, 4);
        let reg = GroupLasso::new("ip1", layout, 0.05, StrengthMask::uniform(4)).unwrap();
        Trainer::new(TrainConfig { epochs, batch_size: 16, lr: 0.1, ..TrainConfig::default() })
            .unwrap()
            .with_regularizer(reg)
    }

    fn weights_of(net: &Network) -> Vec<Vec<f32>> {
        net.params().into_iter().map(|p| p.value.as_slice().to_vec()).collect()
    }

    #[test]
    fn killed_run_resumes_to_bit_identical_weights() {
        let (x, y) = toy_data(96, 11);
        let epochs = 6;
        // The uninterrupted reference run.
        let mut full_net = toy_net(12);
        let full_stats = lasso_trainer(epochs).train(&mut full_net, &x, &y).unwrap();
        // The same run, checkpointing every epoch and "killed" after
        // epoch 3: all we keep is the last checkpoint.
        let mut killed_net = toy_net(12);
        let mut checkpoints = Vec::new();
        let trainer = lasso_trainer(epochs);
        let err = trainer
            .train_with_checkpoints(&mut killed_net, &x, &y, |cp| {
                checkpoints.push(cp.clone());
                if cp.completed_epochs == 3 {
                    return Err(NnError::SaveFailed("simulated crash".into()));
                }
                Ok(())
            })
            .unwrap_err();
        assert!(err.to_string().contains("simulated crash"));
        assert_eq!(checkpoints.len(), 3);
        let last = checkpoints.last().unwrap();
        last.validate().unwrap();
        // Resume from the survivor and compare bit-for-bit.
        let (resumed_net, resumed_stats) = trainer.resume(last, &x, &y).unwrap();
        assert_eq!(resumed_stats, full_stats);
        assert_eq!(weights_of(&resumed_net), weights_of(&full_net));
    }

    #[test]
    fn checkpoint_survives_the_file_roundtrip() {
        let (x, y) = toy_data(48, 13);
        let mut net = toy_net(14);
        let trainer = lasso_trainer(4);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("lts-train-{}-ckpt.snap", std::process::id()));
        let mut kept: Option<TrainCheckpoint> = None;
        trainer
            .train_with_checkpoints(&mut net, &x, &y, |cp| {
                cp.save_to_file(&path)?;
                if cp.completed_epochs == 2 {
                    kept = Some(cp.clone());
                }
                Ok(())
            })
            .unwrap();
        // The file holds the *final* checkpoint; reload and sanity-check.
        let final_cp = TrainCheckpoint::load_from_file(&path).unwrap();
        assert_eq!(final_cp.completed_epochs, 4);
        // Round-trip the mid-run checkpoint through JSON and resume from
        // both copies: identical weights either way.
        let kept = kept.unwrap();
        let reparsed = TrainCheckpoint::from_json(&kept.to_json().unwrap()).unwrap();
        assert_eq!(kept, reparsed);
        let (a, _) = trainer.resume(&kept, &x, &y).unwrap();
        let (b, _) = trainer.resume(&reparsed, &x, &y).unwrap();
        assert_eq!(weights_of(&a), weights_of(&b));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_restores_momentum_not_just_weights() {
        let (x, y) = toy_data(64, 15);
        let mut net = toy_net(16);
        let trainer = Trainer::new(TrainConfig { epochs: 2, ..TrainConfig::default() }).unwrap();
        let mut cp1 = None;
        trainer
            .train_with_checkpoints(&mut net, &x, &y, |cp| {
                if cp.completed_epochs == 1 {
                    cp1 = Some(cp.clone());
                }
                Ok(())
            })
            .unwrap();
        let cp1 = cp1.unwrap();
        // After a real epoch the momentum buffers are nonzero...
        assert!(cp1.momentum.iter().any(|m| m.weight.as_slice().iter().any(|&v| v != 0.0)));
        // ...and restoring brings them back exactly.
        let restored = cp1.restore_network().unwrap();
        for m in &cp1.momentum {
            let w = restored.layer_weight(&m.layer).unwrap();
            assert_eq!(w.momentum, m.weight, "momentum of `{}`", m.layer);
        }
        // Dropping them (fresh momentum) diverges: proves they matter.
        let mut zeroed = cp1.clone();
        for m in &mut zeroed.momentum {
            m.weight.fill(0.0);
            m.bias.fill(0.0);
        }
        let (with_m, _) = trainer.resume(&cp1, &x, &y).unwrap();
        let (without_m, _) = trainer.resume(&zeroed, &x, &y).unwrap();
        assert_ne!(weights_of(&with_m), weights_of(&without_m));
    }

    #[test]
    fn resume_rejects_mismatched_config_and_malformed_checkpoints() {
        let (x, y) = toy_data(32, 17);
        let mut net = toy_net(18);
        let trainer = Trainer::new(TrainConfig { epochs: 2, ..TrainConfig::default() }).unwrap();
        let mut cp = None;
        trainer
            .train_with_checkpoints(&mut net, &x, &y, |c| {
                cp.get_or_insert_with(|| c.clone());
                Ok(())
            })
            .unwrap();
        let cp = cp.unwrap();
        // A trainer with different hyper-parameters must refuse.
        let other =
            Trainer::new(TrainConfig { lr: 0.01, epochs: 2, ..TrainConfig::default() }).unwrap();
        assert!(matches!(other.resume(&cp, &x, &y), Err(NnError::BadConfig(_))));
        // Tampered epoch counts and momentum lists fail validation.
        let mut bad = cp.clone();
        bad.completed_epochs = 99;
        assert!(matches!(bad.validate(), Err(NnError::MalformedSnapshot(_))));
        let mut bad = cp.clone();
        bad.momentum.pop();
        assert!(matches!(bad.validate(), Err(NnError::MalformedSnapshot(_))));
        let mut bad = cp;
        bad.momentum[0].weight = Tensor::zeros(Shape::d1(1));
        assert!(matches!(bad.validate(), Err(NnError::MalformedSnapshot(_))));
    }

    #[test]
    fn resuming_a_finished_run_is_an_identity() {
        let (x, y) = toy_data(32, 19);
        let mut net = toy_net(20);
        let trainer = Trainer::new(TrainConfig { epochs: 2, ..TrainConfig::default() }).unwrap();
        let mut last = None;
        let stats = trainer
            .train_with_checkpoints(&mut net, &x, &y, |c| {
                last = Some(c.clone());
                Ok(())
            })
            .unwrap();
        let last = last.unwrap();
        assert_eq!(last.completed_epochs, 2);
        let (resumed, resumed_stats) = trainer.resume(&last, &x, &y).unwrap();
        assert_eq!(resumed_stats, stats);
        assert_eq!(weights_of(&resumed), weights_of(&net));
    }

    #[test]
    fn grad_clipping_scales_to_max_norm() {
        use crate::param::Param;
        use lts_tensor::{Shape, Tensor};
        let mut a = Param::new(Tensor::zeros(Shape::d1(2)));
        let mut b = Param::new(Tensor::zeros(Shape::d1(2)));
        a.grad = Tensor::from_slice_1d(&[3.0, 0.0]);
        b.grad = Tensor::from_slice_1d(&[0.0, 4.0]);
        // Global norm = 5; clip to 1 -> everything scaled by 1/5.
        clip_global_grad_norm(&mut [&mut a, &mut b], 1.0);
        assert!((a.grad.as_slice()[0] - 0.6).abs() < 1e-6);
        assert!((b.grad.as_slice()[1] - 0.8).abs() < 1e-6);
        // Already within bounds -> untouched; 0 disables.
        clip_global_grad_norm(&mut [&mut a, &mut b], 10.0);
        assert!((a.grad.as_slice()[0] - 0.6).abs() < 1e-6);
        a.grad = Tensor::from_slice_1d(&[100.0, 0.0]);
        clip_global_grad_norm(&mut [&mut a], 0.0);
        assert_eq!(a.grad.as_slice()[0], 100.0);
    }
}
