//! Per-layer probe rows: with recording on, a forward pass credits each
//! layer's wall time to its own `nn.forward;<layer>` call path, which
//! the repository benchmark reads as its `nn.forward.<layer>_pct`
//! metrics. A test binary of its own, because the probe registry and
//! the enable flag are process-global.

use lts_nn::models;
use lts_tensor::{Shape, Tensor};

#[test]
fn a_forward_pass_records_one_row_per_layer_under_nn_forward() {
    let mut net = models::lenet(10, 1).expect("lenet");
    let batch = Tensor::zeros(Shape::d4(2, 1, 28, 28));
    lts_obs::reset();
    lts_obs::set_enabled(true);
    let out = net.forward(&batch);
    lts_obs::set_enabled(false);
    out.expect("forward");

    let snap = lts_obs::snapshot();
    for layer in ["conv1", "pool1", "conv2", "pool2", "ip1", "ip2"] {
        let path = format!("nn.forward;{layer}");
        let row = snap.probes.iter().find(|p| p.path == path);
        assert_eq!(row.map(|p| p.count), Some(1), "{path}: {:?}", snap.probes);
    }
}
