//! Wall-clock benches over the analytic/simulation experiment paths, one
//! per table or figure of the paper.
//!
//! The headline measurement is the Table III runner (`table3_rows`) under
//! an execution-engine thread sweep: the whole train+plan+simulate path
//! runs once at 1 worker and once at 4 workers on identical inputs
//! (results are bit-identical; only wall-clock changes). Training-based
//! tables are timed at the `LTS_EFFORT` preset (default `paper`; use
//! `quick` for a fast run). Results land in `BENCH_paper_tables.json`.

use lts_bench::timing::{time, BenchReport};
use lts_core::experiment::{
    motivation_comm_share, sparsified_experiment, table1_rows, table3_rows, EffortPreset,
    SparsifyParams,
};
use lts_core::pipeline::plan_for;
use lts_core::SystemModel;
use lts_datasets::presets::synth_mnist;
use lts_nn::models;
use lts_nn::prune::PruneCriterion;
use lts_partition::Plan;
use lts_tensor::par::{self, ExecConfig};

/// A micro effort preset so training-path benches finish quickly.
fn micro_preset() -> EffortPreset {
    EffortPreset {
        train_samples: 64,
        test_samples: 32,
        epochs: 1,
        fine_tune_epochs: 0,
        batch_size: 32,
        seed: 2019,
    }
}

fn main() {
    let preset = lts_bench::effort_from_env();
    let effort = if preset == EffortPreset::quick() { "quick" } else { "paper" };
    lts_bench::banner("paper-table benchmark timings", &preset);
    let mut report = BenchReport::new("paper_tables", effort);
    let host = report.host_cpus;

    // Table III end-to-end (train + plan + simulate) thread sweep. The
    // pipeline entries re-install their configured `ExecConfig` (which
    // resolves from the environment), so the sweep drives `LTS_THREADS`
    // rather than a one-shot `par::install`.
    let mut sweep_means = Vec::new();
    for threads in [1usize, 4] {
        std::env::set_var(par::THREADS_ENV, threads.to_string());
        par::install(ExecConfig::new(threads));
        let record = time(&format!("table3_rows_{effort}_t{threads}"), 0, 1, || {
            table3_rows(&preset).expect("table 3");
        });
        sweep_means.push((threads, record.mean_ms));
        report.push(record);
    }
    std::env::remove_var(par::THREADS_ENV);
    if let [(t1, base), rest @ ..] = &sweep_means[..] {
        for (tn, ms) in rest {
            report.note(format!(
                "table3 speedup t{t1}->t{tn}: {:.2}x on a {host}-CPU host",
                base / ms.max(f64::MIN_POSITIVE)
            ));
        }
    }
    if host < 4 {
        report.note(format!(
            "host exposes only {host} CPU(s); the >=4-core speedup target cannot \
             materialize on this machine — numbers recorded as measured"
        ));
    }
    par::install(ExecConfig::new(host));

    report.push(time("table1_data_volume_analytic", 2, 10, || {
        table1_rows(16).expect("table 1");
    }));

    report.push(time("motivation_alexnet_comm_share", 2, 10, || {
        motivation_comm_share().expect("motivation");
    }));

    let spec = lts_nn::descriptor::lenet_spec();
    let plan = Plan::dense(&spec, 16, 2).expect("plan");
    let model = SystemModel::paper(16).expect("model");
    report.push(time("system_eval_lenet_dense_16c", 2, 10, || {
        model.evaluate(&plan).expect("evaluate");
    }));

    // The Table III system-evaluation path (training excluded): grouped
    // vs dense variant plans through the full accel+NoC model.
    let dense = models::convnet_variant([64, 128, 256], 1, 0).expect("net").spec();
    let grouped = models::convnet_variant([64, 128, 256], 16, 0).expect("net").spec();
    report.push(time("table3_system_eval_dense_vs_grouped", 2, 10, || {
        let pd = Plan::dense(&dense, 16, 2).expect("plan");
        let pg = Plan::dense(&grouped, 16, 2).expect("plan");
        let rd = model.evaluate(&pd).expect("evaluate");
        let rg = model.evaluate(&pg).expect("evaluate");
        rg.speedup_vs(&rd);
    }));

    // The Table IV/VI code path at micro scale: baseline + SS + SS_Mask
    // over a 1-point λ grid on the MLP.
    let micro = micro_preset();
    let data = synth_mnist(micro.train_samples, micro.test_samples, micro.seed);
    let params = SparsifyParams {
        lambda_grid: vec![2.0],
        prune: PruneCriterion::RmsBelowRelative(0.35),
        accuracy_tolerance: 0.05,
    };
    let config = micro.pipeline_config();
    report.push(time("table4_pipeline_micro_mlp", 0, 3, || {
        sparsified_experiment(
            "MLP",
            |s| models::mlp(28 * 28, 10, s),
            &data,
            16,
            &config,
            micro.seed,
            params.clone(),
        )
        .expect("micro table 4");
    }));

    // The Table V/Fig. 8 system path across core counts (training
    // excluded).
    let nets: Vec<_> = [4usize, 8, 16, 32]
        .iter()
        .map(|&n| (n, models::convnet_variant([64, 160, 320], n, 0).expect("net").spec()))
        .collect();
    lts_core::simcache::reset();
    report.push(time("table5_system_eval_4_to_32_cores", 2, 10, || {
        for (cores, spec) in &nets {
            let model = SystemModel::paper(*cores).expect("model");
            let plan = Plan::dense(spec, *cores, 2).expect("plan");
            model.evaluate(&plan).expect("evaluate");
        }
    }));
    let cache = lts_core::simcache::stats();
    report.note(format!(
        "sim cache over table5 sweep: {} hits / {} misses ({} entries)",
        cache.hits, cache.misses, cache.entries
    ));

    // Group-matrix extraction from a network (training excluded).
    let net = models::mlp(28 * 28, 10, 0).expect("net");
    let spec = net.spec();
    let plan = Plan::dense(&spec, 16, 2).expect("plan");
    let layout = plan.layer("ip2").and_then(|l| l.layout.clone()).expect("layout");
    let weights = net.layer_weight("ip2").expect("weights").value.as_slice().to_vec();
    report.push(time("fig6_group_matrix_extraction", 2, 20, || {
        layout.norm_matrix(&weights);
    }));

    // Sparsity-aware traffic generation (the Plan::build hot path).
    report.push(time("sparse_plan_build_mlp_16c", 2, 10, || {
        plan_for(&net, 16, true, true).expect("plan");
    }));

    report.write().expect("write benchmark report");
}
