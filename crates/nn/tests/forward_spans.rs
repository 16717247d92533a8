//! Per-layer probe rows: with recording on, a forward pass credits each
//! layer's wall time to its own `nn.forward;<layer>` call path, which
//! the repository benchmark reads as its `nn.forward.<layer>_pct`
//! metrics, and a training step records the same rows plus one
//! `nn.backward;<layer>` row per layer. A test binary of its own, because
//! the probe registry and the enable flag are process-global; its tests
//! serialize on one lock.

use lts_nn::models;
use lts_nn::trainer::{TrainConfig, Trainer};
use lts_obs::Snapshot;
use lts_tensor::{init, Shape, Tensor};
use std::sync::{Mutex, PoisonError};

static RECORDING: Mutex<()> = Mutex::new(());

/// Runs `f` with recording on and returns what it recorded.
fn record<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let _guard = RECORDING.lock().unwrap_or_else(PoisonError::into_inner);
    lts_obs::reset();
    lts_obs::set_enabled(true);
    let out = f();
    lts_obs::set_enabled(false);
    (out, lts_obs::snapshot())
}

/// Total calls of the rows whose call path ends in `parent;layer`, the
/// two segments the benchmark keys its per-layer metrics on.
fn calls(snap: &Snapshot, parent: &str, layer: &str) -> u64 {
    let path = format!("{parent};{layer}");
    let tail = format!(";{path}");
    let rows = snap.probes.iter().filter(|p| p.path == path || p.path.ends_with(&tail));
    rows.map(|p| p.count).sum()
}

#[test]
fn a_forward_pass_records_one_row_per_layer_under_nn_forward() {
    let net = models::lenet(10, 1).expect("lenet");
    let batch = Tensor::zeros(Shape::d4(2, 1, 28, 28));
    let (out, snap) = record(|| net.forward(&batch));
    out.expect("forward");

    for layer in ["conv1", "pool1", "conv2", "pool2", "ip1", "ip2"] {
        let path = format!("nn.forward;{layer}");
        let row = snap.probes.iter().find(|p| p.path == path);
        assert_eq!(row.map(|p| p.count), Some(1), "{path}: {:?}", snap.probes);
    }
}

#[test]
fn a_training_step_records_forward_and_backward_rows_for_every_layer() {
    let mut net = models::lenet(10, 1).expect("lenet");
    let samples = 4;
    let inputs = init::uniform(Shape::d4(samples, 1, 28, 28), 1.0, &mut init::rng(2));
    let labels: Vec<usize> = (0..samples).collect();
    let config = TrainConfig { epochs: 1, batch_size: samples, ..TrainConfig::default() };
    let trainer = Trainer::new(config).expect("trainer");
    let (stats, snap) = record(|| trainer.train(&mut net, &inputs, &labels));
    stats.expect("train");

    // One batch of 4 samples runs as 4 one-sample shards.
    for layer in net.spec().layers {
        for parent in ["nn.forward", "nn.backward"] {
            let n = calls(&snap, parent, &layer.name);
            assert_eq!(n, samples as u64, "{parent};{}: {:?}", layer.name, snap.probes);
        }
    }
}
