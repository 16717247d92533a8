//! The evaluation section's model zoo.
//!
//! Trainable builders for every network the paper trains (MLP, LeNet,
//! ConvNet, the Table III ConvNet variants, and a scaled CaffeNet), plus
//! re-exports of the purely analytic descriptors (full AlexNet/VGG19) used
//! by Table I.
//!
//! Scaling substitutions (documented in `DESIGN.md`): networks trained on
//! ImageNet in the paper run here on downscaled synthetic inputs —
//! ImageNet10 at 16×16×3 and ImageNet (CaffeNet) at 32×32×3 — preserving
//! the layer pattern and relative per-layer traffic profile while staying
//! trainable on a CPU in seconds.

pub use crate::descriptor::{alexnet_spec, convnet_spec, lenet_spec, mlp_spec, vgg19_spec};

use crate::network::{Network, NetworkBuilder};
use crate::Result;
use lts_tensor::init;

/// Input geometry of the synthetic ImageNet10 substitute.
pub const IMAGENET10_DIMS: (usize, usize, usize) = (3, 16, 16);
/// Input geometry of the synthetic ImageNet (CaffeNet) substitute.
pub const IMAGENET_SMALL_DIMS: (usize, usize, usize) = (3, 32, 32);

/// The paper's MLP: fully-connected 512/304/`classes` on flat inputs of
/// `input_len` values (784 for MNIST-shaped data). Accepts any batch
/// whose per-sample size is `input_len` (e.g. NCHW `[n, 1, 28, 28]`); the
/// leading flatten collapses it.
pub fn mlp(input_len: usize, classes: usize, seed: u64) -> Result<Network> {
    let mut rng = init::rng(seed);
    NetworkBuilder::new("MLP", (input_len, 1, 1))
        .flatten()
        .linear("ip1", 512)
        .relu()
        .linear("ip2", 304)
        .relu()
        .linear("ip3", classes)
        .build(&mut rng)
}

/// Caffe LeNet on 28×28×1 inputs: conv 20@5×5, pool, conv 50@5×5, pool,
/// fc 500, fc `classes`.
pub fn lenet(classes: usize, seed: u64) -> Result<Network> {
    let mut rng = init::rng(seed);
    NetworkBuilder::new("LeNet", (1, 28, 28))
        .conv("conv1", 20, 5, 1, 0, 1)
        .pool("pool1", 2, 2)
        .conv("conv2", 50, 5, 1, 0, 1)
        .pool("pool2", 2, 2)
        .flatten()
        .linear("ip1", 500)
        .relu()
        .linear("ip2", classes)
        .build(&mut rng)
}

/// Caffe CIFAR-10 "quick" ConvNet on 32×32×3 inputs.
pub fn convnet(classes: usize, seed: u64) -> Result<Network> {
    let mut rng = init::rng(seed);
    NetworkBuilder::new("ConvNet", (3, 32, 32))
        .conv("conv1", 32, 5, 1, 2, 1)
        .pool("pool1", 3, 2)
        .relu()
        .conv("conv2", 32, 5, 1, 2, 1)
        .relu()
        .pool("pool2", 3, 2)
        .conv("conv3", 64, 5, 1, 2, 1)
        .relu()
        .pool("pool3", 3, 2)
        .flatten()
        .linear("ip1", 64)
        .relu()
        .linear("ip2", classes)
        .build(&mut rng)
}

/// The Table III ConvNet variant for structure-level parallelization on
/// the ImageNet10 substitute.
///
/// `kernels = [conv1, conv2, conv3]` output-channel counts (the paper uses
/// `64-128-256` for Parallel#1/#2 and `64-160-320` for Parallel#3);
/// `groups` is the grouping degree `n` applied to conv2 and conv3
/// (`1` = traditional baseline, `n = cores` = structure-level
/// parallelization).
///
/// # Errors
///
/// Returns a configuration error if the channel counts are not divisible
/// by `groups`.
pub fn convnet_variant(kernels: [usize; 3], groups: usize, seed: u64) -> Result<Network> {
    let mut rng = init::rng(seed);
    let name = format!("ConvNet-{}-{}-{}-n{}", kernels[0], kernels[1], kernels[2], groups);
    NetworkBuilder::new(&name, IMAGENET10_DIMS)
        .conv("conv1", kernels[0], 5, 1, 2, 1)
        .relu()
        .pool("pool1", 2, 2)
        .conv("conv2", kernels[1], 3, 1, 1, groups)
        .relu()
        .pool("pool2", 2, 2)
        .conv("conv3", kernels[2], 3, 1, 1, groups)
        .relu()
        .pool("pool3", 2, 2)
        .flatten()
        .linear("ip1", 10)
        .build(&mut rng)
}

/// A layer-pattern-preserving scaled CaffeNet (5 conv + 3 fc) on the
/// 32×32×3 ImageNet substitute.
pub fn caffenet_small(classes: usize, seed: u64) -> Result<Network> {
    let mut rng = init::rng(seed);
    NetworkBuilder::new("CaffeNet", IMAGENET_SMALL_DIMS)
        .conv("conv1", 32, 5, 2, 2, 1)
        .relu()
        .conv("conv2", 64, 3, 1, 1, 1)
        .relu()
        .pool("pool2", 2, 2)
        .conv("conv3", 96, 3, 1, 1, 1)
        .relu()
        .conv("conv4", 96, 3, 1, 1, 1)
        .relu()
        .conv("conv5", 64, 3, 1, 1, 1)
        .relu()
        .pool("pool5", 2, 2)
        .flatten()
        .linear("ip1", 256)
        .relu()
        .linear("ip2", 128)
        .relu()
        .linear("ip3", classes)
        .build(&mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_tensor::{Shape, Tensor};

    #[test]
    fn mlp_matches_paper_dimensions() {
        let net = mlp(784, 10, 0).unwrap();
        let spec = net.spec();
        assert_eq!(spec.layer("ip1").unwrap().out_dims.0, 512);
        assert_eq!(spec.layer("ip2").unwrap().out_dims.0, 304);
        assert_eq!(spec.layer("ip3").unwrap().out_dims.0, 10);
    }

    #[test]
    fn lenet_forward_produces_class_logits() {
        let net = lenet(10, 1).unwrap();
        let x = Tensor::zeros(Shape::d4(2, 1, 28, 28));
        let y = net.forward(&x).unwrap();
        assert_eq!(y.shape().dims(), &[2, 10]);
    }

    #[test]
    fn convnet_variant_grouping_divides_weights() {
        let dense = convnet_variant([64, 128, 256], 1, 0).unwrap();
        let grouped = convnet_variant([64, 128, 256], 16, 0).unwrap();
        let wd = dense.spec().layer("conv2").unwrap().weight_count();
        let wg = grouped.spec().layer("conv2").unwrap().weight_count();
        assert_eq!(wd, 16 * wg);
        // conv1 is never grouped.
        assert_eq!(
            dense.spec().layer("conv1").unwrap().weight_count(),
            grouped.spec().layer("conv1").unwrap().weight_count()
        );
    }

    #[test]
    fn convnet_variant_rejects_indivisible_grouping() {
        assert!(convnet_variant([64, 100, 256], 16, 0).is_err());
    }

    #[test]
    fn parallel3_has_more_kernels_than_parallel2() {
        let p2 = convnet_variant([64, 128, 256], 16, 0).unwrap();
        let p3 = convnet_variant([64, 160, 320], 16, 0).unwrap();
        assert!(p3.spec().total_macs() > p2.spec().total_macs());
    }

    #[test]
    fn caffenet_has_five_convs_and_three_fcs() {
        let net = caffenet_small(10, 0).unwrap();
        let spec = net.spec();
        let convs = spec.weight_layer_names().iter().filter(|n| n.starts_with("conv")).count();
        let fcs = spec.weight_layer_names().iter().filter(|n| n.starts_with("ip")).count();
        assert_eq!(convs, 5);
        assert_eq!(fcs, 3);
    }

    #[test]
    fn models_are_deterministic_by_seed() {
        let a = mlp(64, 10, 7).unwrap();
        let b = mlp(64, 10, 7).unwrap();
        assert_eq!(a.layer_weight("ip1").unwrap().value, b.layer_weight("ip1").unwrap().value);
    }
}
