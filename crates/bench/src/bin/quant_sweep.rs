//! The 16-bit fixed-point fast path, end to end: a strategy × network ×
//! precision sweep where each trained model is deployed under both
//! [`Precision::I16`] (calibrated symmetric scales, the i16 A·B GEMM)
//! and [`Precision::F32`] (the full-precision reference), comparing
//! top-1 accuracy, NoC traffic width and simulated single-pass cycles.
//! The host-time ratio of the two GEMM kernels is measured by the
//! repository benchmark (`infer_sparse`'s `tensor.gemm_f32_gmacs` and
//! `tensor.gemm_i16_gmacs`), not here.
//!
//! Run: `cargo run --release -p lts-bench --bin quant_sweep`
//! (`LTS_EFFORT=quick` for a fast pass).

use lts_bench::{banner, effort_from_env};
use lts_core::experiment::train_presets;
use lts_core::pipeline::{
    evaluate, plan_for_precision, train_baseline, train_sparsified, PipelineConfig,
};
use lts_core::strategy::SparsityScheme;
use lts_core::system::SystemModel;
use lts_core::Precision;
use lts_datasets::{presets, TrainTest};
use lts_nn::prune::PruneCriterion;
use lts_nn::{models, Network};

fn main() {
    let preset = effort_from_env();
    banner("quantization sweep — i16 fast path vs f32 reference", Some(&preset));
    let mnist = presets::synth_mnist(preset.train_samples, preset.test_samples, preset.seed);
    let imagenet =
        presets::synth_imagenet10(preset.train_samples, preset.test_samples, preset.seed);
    let seed = preset.seed;
    let (mlp_lr, mlp_mul) = train_presets::MLP;
    let (lenet_lr, lenet_mul) = train_presets::LENET;
    let (conv_lr, conv_mul) = train_presets::CONVNET;

    // Train each (network, strategy) cell ONCE — training is precision-
    // independent — then deploy the same weights under both precisions, so
    // every accuracy delta is purely the quantization error.
    struct Cell {
        name: &'static str,
        net: Network,
        sparse: bool,
        config: PipelineConfig,
        data: TrainTest,
    }
    let prune = PruneCriterion::RmsBelowRelative(0.35);
    let cell = |name: &'static str,
                scheme: Option<SparsityScheme>,
                build: lts_nn::Result<Network>,
                config: PipelineConfig,
                data: &TrainTest|
     -> Cell {
        let net = build.expect("model builds");
        let trained = match scheme {
            None => train_baseline(net, data, &config).expect("baseline trains").network,
            Some(s) => {
                train_sparsified(net, data, &config, 16, s, 2.0, prune)
                    .expect("sparsified trains")
                    .network
            }
        };
        Cell { name, net: trained, sparse: scheme.is_some(), config, data: data.clone() }
    };
    let mlp_cfg = preset.pipeline_config_with(mlp_lr, mlp_mul);
    let lenet_cfg = preset.pipeline_config_with(lenet_lr, lenet_mul);
    let conv_cfg = preset.pipeline_config_with(conv_lr, conv_mul);
    let cells = vec![
        cell("mlp_baseline", None, models::mlp(28 * 28, 10, seed), mlp_cfg, &mnist),
        cell("mlp_ss", Some(SparsityScheme::Ss), models::mlp(28 * 28, 10, seed), mlp_cfg, &mnist),
        cell(
            "mlp_ss_mask",
            Some(SparsityScheme::mask()),
            models::mlp(28 * 28, 10, seed),
            mlp_cfg,
            &mnist,
        ),
        cell("lenet_baseline", None, models::lenet(10, seed), lenet_cfg, &mnist),
        cell(
            "lenet_ss_mask",
            Some(SparsityScheme::mask()),
            models::lenet(10, seed),
            lenet_cfg,
            &mnist,
        ),
        cell(
            "convnet_grouped",
            None,
            models::convnet_variant([64, 128, 256], 16, seed),
            conv_cfg,
            &imagenet,
        ),
    ];

    // Two test-set misclassifications of slack, but never tighter than the
    // 1% contract: at quick effort (96 samples) one flipped sample already
    // moves top-1 by >1%.
    let tol = (2.0 / preset.test_samples as f32).max(0.01);
    let model = SystemModel::paper(16).expect("paper system model");
    for c in &cells {
        let mut acc = [0.0f32; 2];
        for (slot, precision) in [Precision::I16, Precision::F32].into_iter().enumerate() {
            let config = PipelineConfig {
                precision,
                // f32 reference = untouched master weights.
                quantize: precision == Precision::I16,
                ..c.config
            };
            acc[slot] = evaluate(&c.net, &c.data, &config).expect("evaluation succeeds");
        }
        let [acc_i16, acc_f32] = acc;
        let plan_i16 =
            plan_for_precision(&c.net, 16, c.sparse, true, Precision::I16).expect("i16 plan");
        let plan_f32 =
            plan_for_precision(&c.net, 16, c.sparse, true, Precision::F32).expect("f32 plan");
        assert_eq!(
            2 * plan_i16.total_traffic_bytes(),
            plan_f32.total_traffic_bytes(),
            "{}: i16 must move exactly 2 bytes/value vs f32's 4",
            c.name
        );
        let cyc_i16 = model.evaluate(&plan_i16).expect("i16 system eval").total_cycles;
        let cyc_f32 = model.evaluate(&plan_f32).expect("f32 system eval").total_cycles;
        println!(
            "note: {}: top-1 i16 {:.1}% vs f32 {:.1}% (|delta| {:.2}% <= {:.2}%); single-pass \
             {cyc_i16} cycles @2B/value vs {cyc_f32} @4B/value",
            c.name,
            100.0 * acc_i16,
            100.0 * acc_f32,
            100.0 * (acc_i16 - acc_f32).abs(),
            100.0 * tol,
        );
        assert!(
            (acc_i16 - acc_f32).abs() <= tol,
            "{}: i16 accuracy {acc_i16} drifted more than {tol} from f32 {acc_f32}",
            c.name
        );
    }
    println!(
        "note: each cell trains once (training is precision-independent) and deploys the same \
         weights under i16 and f32, so accuracy deltas are pure quantization error"
    );
}
