//! The 16-bit fixed-point fast path, measured end to end: i16 vs f32
//! A·Bᵀ GEMM microkernels on the hot-path shape, then a strategy × network ×
//! precision sweep where each trained model is deployed under both
//! [`Precision::I16`] (calibrated symmetric scales, the i16 A·Bᵀ GEMM)
//! and [`Precision::F32`] (the full-precision reference), comparing
//! top-1 accuracy, evaluation latency, NoC traffic width and simulated
//! single-pass cycles.
//!
//! Writes `BENCH_quant.json` (into `LTS_BENCH_DIR`). Run:
//! `cargo run --release -p lts-bench --bin quant_sweep`
//! (`LTS_EFFORT=quick` for a fast pass).

use lts_bench::timing::{iters_from_env, time, BenchReport};
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
use lts_tensor::par::{self, ExecConfig};
use lts_tensor::{init, matmul, qmatmul, Shape};

/// Hot-path microbench GEMM dimension (matches `benches/hotpath.rs`).
const N: usize = 256;

fn main() {
    let preset = effort_from_env();
    banner("quantization sweep — i16 fast path vs f32 reference", &preset);
    let mut report = BenchReport::new("quant", effort_label(&preset));
    let host = report.host_cpus;

    // --- Microkernels: identical 256^3 workload, single-threaded. -------
    par::install(ExecConfig::new(1));
    let mut rng = init::rng(1);
    let af = init::uniform(Shape::d2(N, N), 1.0, &mut rng);
    let bf = init::uniform(Shape::d2(N, N), 1.0, &mut rng);
    let (afv, bfv) = (af.as_slice(), bf.as_slice());
    // ~10-bit operands, the realistic post-headroom quantized range.
    let gen =
        |s: usize| -> Vec<i16> { (0..N * N).map(|i| ((i * 7 + s) % 2047) as i16 - 1023).collect() };
    let (aq, bq) = (gen(3), gen(11));
    let mut cf = vec![0.0f32; N * N];
    let mut cq = vec![0i32; N * N];
    // Floor of 10 so the recorded uplift always averages over enough
    // samples to ride out scheduler jitter, even under LTS_BENCH_ITERS=1
    // smoke runs.
    let iters = iters_from_env(20).max(10);
    report.push(time("gemm_a_bt_f32_256_t1", 3, iters, || {
        matmul::matmul_a_bt_into(afv, bfv, &mut cf, N, N, N);
    }));
    report.push(time("gemm_a_bt_i16_256_t1", 3, iters, || {
        qmatmul::matmul_a_bt_i16_into(&aq, &bq, &mut cq, N, N, N);
    }));
    let up_bt = uplift(&report, "gemm_a_bt_f32_256_t1", "gemm_a_bt_i16_256_t1");
    let macs = (N * N * N) as f64;
    lts_obs::gauge_set("quant.gemm_a_bt_256_macs_per_cycle_uplift", up_bt);
    report.note(format!("gemm_a_bt_256: i16/f32 MACs-per-cycle uplift {up_bt:.2}x"));
    report.note(format!(
        "MACs/cycle caveat: both kernels timed single-threaded on one CPU of the same host \
         at the same frequency, so the wall-time ratio IS the MACs/cycle ratio; absolute \
         cycle counts are not measurable from safe Rust ({:.0}M MACs per iteration)",
        macs / 1e6
    ));
    report.note(
        "dense i16 A*B^T trails f32 since the f32 kernel packs B^T panels into its register \
         tile (0.56-0.75x on a shared 2-vCPU Xeon; it was 2.4-2.9x against the scalar f32 \
         dots), so the ratio is recorded, not gated; i16 still moves half the NoC bytes \
         (asserted per cell below) and skips zero weight runs (tensor.macs_i16_skipped)",
    );

    // --- Strategy x network x precision, end to end. --------------------
    par::install(ExecConfig::new(host));
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
    let eval_iters = iters_from_env(3);
    for c in &cells {
        let mut acc = [0.0f32; 2];
        for (slot, precision) in [Precision::I16, Precision::F32].into_iter().enumerate() {
            let config = PipelineConfig {
                precision,
                // f32 reference = untouched master weights.
                quantize: precision == Precision::I16,
                ..c.config
            };
            report.push(time(&format!("eval_{}_{}", c.name, precision), 0, eval_iters, || {
                acc[slot] = evaluate(&c.net, &c.data, &config).expect("evaluation succeeds");
            }));
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
        report.note(format!(
            "{}: top-1 i16 {:.1}% vs f32 {:.1}% (|delta| {:.2}% <= {:.2}%); single-pass \
             {cyc_i16} cycles @2B/value vs {cyc_f32} @4B/value",
            c.name,
            100.0 * acc_i16,
            100.0 * acc_f32,
            100.0 * (acc_i16 - acc_f32).abs(),
            100.0 * tol,
        ));
        assert!(
            (acc_i16 - acc_f32).abs() <= tol,
            "{}: i16 accuracy {acc_i16} drifted more than {tol} from f32 {acc_f32}",
            c.name
        );
    }
    report.note(
        "each cell trains once (training is precision-independent) and deploys the same \
         weights under i16 and f32, so accuracy deltas are pure quantization error",
    );

    report.attach_probes();
    report.write().expect("write benchmark report");
}

/// `before/after` mean-time ratio of two records (= MACs/cycle uplift on
/// an identical workload).
fn uplift(report: &BenchReport, f32_name: &str, i16_name: &str) -> f64 {
    let mean = |name: &str| {
        report.records.iter().find(|r| r.name == name).map(|r| r.mean_ms).unwrap_or(f64::NAN)
    };
    mean(f32_name) / mean(i16_name)
}

fn effort_label(preset: &lts_core::experiment::EffortPreset) -> &'static str {
    if *preset == lts_core::experiment::EffortPreset::quick() {
        "quick"
    } else {
        "paper"
    }
}
