//! Bit-reproducibility of the nn layer on top of the execution engine:
//! grouped convolution, the data-parallel trainer, and parallel
//! evaluation must be byte-identical for any worker count.
//!
//! All sweeps share one `#[test]` so the process-wide
//! [`lts_tensor::par::install`] calls never race.

use lts_nn::conv::Conv2d;
use lts_nn::layer::{zeroed_grads, Layer};
use lts_nn::network::{Network, NetworkBuilder};
use lts_nn::trainer::{parallel_accuracy, TrainConfig, Trainer};
use lts_tensor::par::{self, ExecConfig};
use lts_tensor::{init, ops, Shape, Tensor};

fn grouped_conv_pass() -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut rng = init::rng(11);
    let conv = Conv2d::new("c", (8, 10, 10), 16, 3, 1, 1, 2, &mut rng).unwrap();
    let x = init::uniform(Shape::d4(4, 8, 10, 10), 1.0, &mut rng);
    let y = conv.forward(&x).unwrap();
    let grad = init::uniform(y.shape().clone(), 1.0, &mut init::rng(12));
    let mut grads = zeroed_grads(&conv.params());
    let dx = conv.backward(&x, &grad, &mut grads).unwrap();
    (
        y.as_slice().to_vec(),
        dx.as_slice().to_vec(),
        grads[0].as_slice().to_vec(),
        grads[1].as_slice().to_vec(),
    )
}

fn toy_problem(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
    let mut rng = init::rng(seed);
    let x = init::uniform(Shape::d2(n, 8), 1.0, &mut rng);
    let labels = (0..n)
        .map(|i| {
            let row = &x.as_slice()[i * 8..(i + 1) * 8];
            ops::argmax(&row[0..4]).map(|(j, _)| j).unwrap_or(0)
        })
        .collect();
    (x, labels)
}

fn trained_weights(x: &Tensor, y: &[usize]) -> (Vec<f32>, Vec<f32>) {
    let mut rng = init::rng(21);
    let mut net: Network = NetworkBuilder::new("toy", (8, 1, 1))
        .linear("ip1", 16)
        .relu()
        .linear("ip2", 4)
        .build(&mut rng)
        .unwrap();
    let trainer =
        Trainer::new(TrainConfig { epochs: 3, batch_size: 32, lr: 0.1, ..TrainConfig::default() })
            .unwrap();
    let stats = trainer.train(&mut net, x, y).unwrap();
    let w = net.layer_weight("ip1").unwrap().value.as_slice().to_vec();
    (w, stats.epochs.iter().map(|e| e.loss).collect())
}

#[test]
fn nn_stack_bit_identical_across_worker_counts() {
    let (x, y) = toy_problem(64, 20);

    par::install(ExecConfig::serial());
    let conv_ref = grouped_conv_pass();
    let train_ref = trained_weights(&x, &y);
    let eval_net = {
        let mut rng = init::rng(33);
        NetworkBuilder::new("toy", (8, 1, 1))
            .linear("ip1", 16)
            .relu()
            .linear("ip2", 4)
            .build(&mut rng)
            .unwrap()
    };
    let acc_ref = parallel_accuracy(&eval_net, &x, &y, 16, 4).unwrap();
    let seq = eval_net.evaluate(&x, &y, 16).unwrap();
    assert!((acc_ref - seq).abs() < 1e-6, "parallel vs sequential accuracy");

    for threads in [2usize, 4, 8] {
        par::install(ExecConfig::new(threads));
        assert_eq!(
            grouped_conv_pass(),
            conv_ref,
            "grouped conv forward/backward differs at {threads} workers"
        );
        assert_eq!(
            trained_weights(&x, &y),
            train_ref,
            "trained weights/losses differ at {threads} workers"
        );
        assert_eq!(
            parallel_accuracy(&eval_net, &x, &y, 16, 4).unwrap(),
            acc_ref,
            "parallel accuracy differs at {threads} workers"
        );
    }
    par::install(ExecConfig::serial());
}
