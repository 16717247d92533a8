//! Ablation studies over the design choices called out in `DESIGN.md` §5,
//! plus wall-clock timings of the evaluation paths they exercise.
//!
//! Run with `cargo bench --bench ablations`. The ablation result tables
//! are printed once before the timing loops; timings land in
//! `BENCH_ablations.json`.

use lts_accel::{CoreConfig, CoreModel};
use lts_bench::timing::{time, BenchReport};
use lts_core::experiment::EffortPreset;
use lts_core::pipeline::{plan_for, train_baseline, train_sparsified};
use lts_core::strategy::SparsityScheme;
use lts_core::SystemModel;
use lts_datasets::presets::synth_mnist;
use lts_nn::models;
use lts_nn::prune::PruneCriterion;
use lts_noc::analytic::analyze;
use lts_noc::{EnergyModel, Mesh2d, NocConfig};
use lts_partition::Plan;

fn micro_preset() -> EffortPreset {
    EffortPreset {
        train_samples: 128,
        test_samples: 64,
        epochs: 3,
        fine_tune_epochs: 1,
        batch_size: 32,
        seed: 2019,
    }
}

/// Ablation 1 — NoC fidelity: what the flit-level simulation adds over
/// the closed-form hop model (congestion makes real makespans exceed the
/// analytic lower bound, most during dense layer-transition bursts).
fn ablation_noc_fidelity() {
    println!("\n--- ablation: flit-level simulation vs analytic lower bound (LeNet, 16 cores) ---");
    let spec = lts_nn::descriptor::lenet_spec();
    let plan = Plan::dense(&spec, 16, 2).expect("plan");
    let config = NocConfig::paper_16core();
    let mut sim = lts_noc::Simulator::new(config).expect("sim");
    println!("{:<8} {:>12} {:>12} {:>7}", "layer", "analytic", "simulated", "ratio");
    for lp in &plan.layers {
        if lp.traffic.is_empty() {
            continue;
        }
        let bound = analyze(&config, &lp.traffic).makespan_lower_bound;
        let sim_makespan = sim.run(&lp.traffic.messages).expect("run").makespan;
        println!(
            "{:<8} {:>12} {:>12} {:>6.2}x",
            lp.spec.name,
            bound,
            sim_makespan,
            sim_makespan as f64 / bound.max(1) as f64
        );
    }
}

/// Ablation 2 — distance-mask power: 0 (off-core-uniform), 1 (the
/// paper's SS_Mask), 2 (quadratic) on the micro MLP.
fn ablation_distance_power() {
    println!("\n--- ablation: distance-mask power (MLP, 16 cores, lambda 2.0) ---");
    let preset = micro_preset();
    let data = synth_mnist(preset.train_samples, preset.test_samples, preset.seed);
    let config = preset.pipeline_config();
    let mesh = Mesh2d::new(4, 4);
    let model = SystemModel::paper(16).expect("model");
    let baseline =
        train_baseline(models::mlp(28 * 28, 10, preset.seed).expect("net"), &data, &config)
            .expect("baseline");
    let base_plan = plan_for(&baseline.network, 16, false, true).expect("plan");
    let base = model.evaluate(&base_plan).expect("evaluate");
    println!(
        "{:<10} {:>8} {:>12} {:>9} {:>16}",
        "power", "accuracy", "traffic rate", "speedup", "surviving hops"
    );
    for power in [0.0f32, 1.0, 2.0] {
        let outcome = train_sparsified(
            models::mlp(28 * 28, 10, preset.seed).expect("net"),
            &data,
            &config,
            16,
            SparsityScheme::SsMask { power },
            2.0,
            PruneCriterion::RmsBelowRelative(0.35),
        )
        .expect("sparsified");
        let plan = plan_for(&outcome.network, 16, true, true).expect("plan");
        let report = model.evaluate(&plan).expect("evaluate");
        // Mean hop distance of surviving traffic.
        let mut hops = 0.0f64;
        let mut msgs = 0.0f64;
        for lp in &plan.layers {
            for m in &lp.traffic.messages {
                hops += mesh.distance(m.src, m.dst) as f64;
                msgs += 1.0;
            }
        }
        println!(
            "{:<10} {:>8.3} {:>11.0}% {:>8.2}x {:>15.2}",
            power,
            outcome.test_accuracy,
            report.traffic_rate_vs(&base) * 100.0,
            report.speedup_vs(&base),
            if msgs > 0.0 { hops / msgs } else { 0.0 }
        );
    }
}

/// Ablation 3 — compute/communication overlap factor in the barrier
/// schedule.
fn ablation_overlap() {
    println!("\n--- ablation: compute/communication overlap (LeNet dense, 16 cores) ---");
    let spec = lts_nn::descriptor::lenet_spec();
    let plan = Plan::dense(&spec, 16, 2).expect("plan");
    println!("{:<9} {:>12} {:>11}", "overlap", "total cycles", "comm share");
    for overlap in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        let model = SystemModel::paper(16).expect("model").with_overlap(overlap);
        let report = model.evaluate(&plan).expect("evaluate");
        println!(
            "{:<9} {:>12} {:>10.1}%",
            overlap,
            report.total_cycles,
            report.comm_share() * 100.0
        );
    }
}

/// Ablation 4 — prune-threshold sweep on one SS_Mask-trained MLP.
fn ablation_prune_threshold() {
    println!("\n--- ablation: prune threshold (SS_Mask MLP, lambda 2.0, 16 cores) ---");
    let preset = micro_preset();
    let data = synth_mnist(preset.train_samples, preset.test_samples, preset.seed);
    let config = preset.pipeline_config();
    let model = SystemModel::paper(16).expect("model");
    let baseline =
        train_baseline(models::mlp(28 * 28, 10, preset.seed).expect("net"), &data, &config)
            .expect("baseline");
    let base_plan = plan_for(&baseline.network, 16, false, true).expect("plan");
    let base = model.evaluate(&base_plan).expect("evaluate");
    println!("{:<11} {:>8} {:>13} {:>9}", "threshold", "accuracy", "traffic rate", "speedup");
    for threshold in [0.1f32, 0.25, 0.5, 0.75] {
        let outcome = train_sparsified(
            models::mlp(28 * 28, 10, preset.seed).expect("net"),
            &data,
            &config,
            16,
            SparsityScheme::mask(),
            2.0,
            PruneCriterion::RmsBelowRelative(threshold),
        )
        .expect("sparsified");
        let plan = plan_for(&outcome.network, 16, true, true).expect("plan");
        let report = model.evaluate(&plan).expect("evaluate");
        println!(
            "{:<11} {:>8.3} {:>12.0}% {:>8.2}x",
            threshold,
            outcome.test_accuracy,
            report.traffic_rate_vs(&base) * 100.0,
            report.speedup_vs(&base)
        );
    }
}

/// Ablation 5 — weight residency: the paper's preloaded-weights
/// assumption vs streaming weights from DRAM.
fn ablation_weight_residency() {
    println!("\n--- ablation: weight residency (AlexNet dense, 16 cores) ---");
    let spec = lts_nn::descriptor::alexnet_spec();
    let plan = Plan::dense(&spec, 16, 2).expect("plan");
    for (label, resident) in [("resident (paper)", true), ("streaming", false)] {
        let core = CoreModel::new(CoreConfig::diannao()).with_resident_weights(resident);
        let model = SystemModel::new(core, NocConfig::paper_16core(), EnergyModel::default());
        let report = model.evaluate(&plan).expect("evaluate");
        println!(
            "{:<17} total {:>9} cycles, comm share {:>5.1}%",
            label,
            report.total_cycles,
            report.comm_share() * 100.0
        );
    }
}

/// Ablation 7 — traffic-suppression granularity: deciding per input unit
/// (ours) vs per whole producer→consumer group, on one SS_Mask-trained
/// MLP.
fn ablation_granularity() {
    use lts_partition::traffic::group_level_volume_bytes;
    println!("\n--- ablation: traffic-suppression granularity (SS_Mask MLP, 16 cores) ---");
    let preset = micro_preset();
    let data = synth_mnist(preset.train_samples, preset.test_samples, preset.seed);
    let config = preset.pipeline_config();
    let outcome = train_sparsified(
        models::mlp(28 * 28, 10, preset.seed).expect("net"),
        &data,
        &config,
        16,
        SparsityScheme::mask(),
        2.0,
        PruneCriterion::RmsBelowRelative(0.35),
    )
    .expect("sparsified");
    let plan = plan_for(&outcome.network, 16, true, true).expect("plan");
    let dense = plan_for(&outcome.network, 16, false, true).expect("plan");
    println!("{:<8} {:>12} {:>12} {:>12}", "layer", "dense B", "per-group B", "per-unit B");
    for (lp, dp) in plan.layers.iter().zip(&dense.layers) {
        let Some(layout) = &lp.layout else { continue };
        if dp.traffic.is_empty() {
            continue;
        }
        let weights = lts_core::pipeline::weights_map(&outcome.network, true);
        let Some(w) = weights.get(&lp.spec.name) else { continue };
        // Reconstruct the producer ownership from the layout's in-blocks.
        let producer = lts_partition::OwnershipMap::from_blocks(
            (0..layout.cores()).map(|p| layout.in_block(p)).collect(),
            1,
        );
        let per_group = group_level_volume_bytes(&producer, layout, w, 2);
        println!(
            "{:<8} {:>12} {:>12} {:>12}",
            lp.spec.name,
            dp.traffic.total_bytes(),
            per_group,
            lp.traffic.total_bytes()
        );
    }
}

/// Ablation 8 — lasso optimization mode: proximal (ours) vs subgradient
/// at the same λ and epoch budget.
fn ablation_lasso_mode() {
    use lts_nn::regularizer::{GroupLasso, LassoMode};
    use lts_nn::trainer::Trainer;
    println!("\n--- ablation: group-Lasso mode (MLP ip2, lambda 2.0, 16 cores) ---");
    let preset = micro_preset();
    let data = synth_mnist(preset.train_samples, preset.test_samples, preset.seed);
    let config = preset.pipeline_config();
    let spec = models::mlp(28 * 28, 10, preset.seed).expect("net").spec();
    let plan = Plan::dense(&spec, 16, 2).expect("plan");
    let layout = plan.layer("ip2").and_then(|l| l.layout.clone()).expect("layout");
    let mask = lts_core::pipeline::strength_mask(16, SparsityScheme::mask()).expect("mask");
    println!("{:<12} {:>14} {:>12}", "mode", "zero groups", "train acc");
    for mode in [LassoMode::Proximal, LassoMode::Subgradient] {
        let mut net = models::mlp(28 * 28, 10, preset.seed).expect("net");
        let reg = GroupLasso::new("ip2", layout.clone(), 2.0, mask.clone())
            .expect("regularizer")
            .with_mode(mode);
        let trainer = Trainer::new(config.train).expect("trainer").with_regularizer(reg);
        let stats = trainer.train(&mut net, &data.train.images, &data.train.labels).expect("train");
        let w = net.layer_weight("ip2").expect("ip2");
        let zeros = lts_nn::prune::zero_group_count(&layout, w.value.as_slice());
        println!("{:<12} {:>10}/256 {:>11.3}", format!("{mode:?}"), zeros, stats.final_accuracy());
    }
    println!("(proximal produces exact zero groups during training; the subgradient");
    println!(" merely shrinks them and relies entirely on post-hoc thresholding)");
}

/// Ablation 6 — routing policy: XY vs YX vs O1TURN on the densest LeNet
/// transition burst and on transpose traffic (O1TURN's best case).
fn ablation_routing_policy() {
    use lts_noc::traffic::{Message, TrafficTrace};
    use lts_noc::RoutingPolicy;
    println!("\n--- ablation: routing policy (16 cores) ---");
    let plan = Plan::dense(&lts_nn::descriptor::lenet_spec(), 16, 2).expect("plan");
    let burst = plan.layer("conv2").expect("conv2").traffic.clone();
    let transpose: TrafficTrace = (0..4usize)
        .flat_map(|i| (0..4usize).map(move |j| (i * 4 + j, j * 4 + i)))
        .filter(|&(s, d)| s != d)
        .map(|(s, d)| Message::new(s, d, 2048, 0))
        .collect();
    println!(
        "{:<9} {:>16} {:>12} {:>18} {:>12}",
        "policy", "lenet burst", "hot link", "transpose", "hot link"
    );
    for policy in [RoutingPolicy::XyDor, RoutingPolicy::YxDor, RoutingPolicy::O1Turn] {
        let mut config = NocConfig::paper_16core();
        config.routing = policy;
        let mut sim = lts_noc::Simulator::new(config).expect("sim");
        let b = sim.run(&burst.messages).expect("run");
        let t = sim.run(&transpose.messages).expect("run");
        println!(
            "{:<9} {:>15}c {:>12} {:>17}c {:>12}",
            format!("{policy:?}"),
            b.makespan,
            b.max_link_flits(),
            t.makespan,
            t.max_link_flits()
        );
    }
}

fn bench_ablation_paths(report: &mut BenchReport) {
    // Time the system-evaluation path the ablations lean on.
    let spec = lts_nn::descriptor::lenet_spec();
    let plan = Plan::dense(&spec, 16, 2).expect("plan");
    let model = SystemModel::paper(16).expect("model");
    report.push(time("ablation_system_eval_lenet", 2, 10, || {
        model.evaluate(&plan).expect("evaluate");
    }));
    let config = NocConfig::paper_16core();
    report.push(time("ablation_analytic_model_lenet", 2, 10, || {
        plan.layers
            .iter()
            .map(|lp| analyze(&config, &lp.traffic).makespan_lower_bound)
            .sum::<u64>();
    }));
}

fn main() {
    ablation_noc_fidelity();
    ablation_overlap();
    ablation_weight_residency();
    ablation_routing_policy();
    ablation_distance_power();
    ablation_prune_threshold();
    ablation_granularity();
    ablation_lasso_mode();
    println!("\n--- timings ---");
    let mut report = BenchReport::new("ablations", "micro");
    bench_ablation_paths(&mut report);
    report.write().expect("write benchmark report");
}
