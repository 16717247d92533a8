//! `train_convnet`: the Table III structure-level pipeline. Each item
//! trains one ConvNet variant on the synthetic ImageNet10 stand-in,
//! evaluates it through the i16 deployment path, plans it for 16 cores
//! and simulates one inference.

use crate::harness::{Error, Workload};
use crate::metrics::{Checks, Metrics};
use crate::sim;
use lts_core::experiment::{train_presets, EffortPreset};
use lts_core::pipeline::{plan_for_precision, train_baseline, PipelineConfig};
use lts_core::{SystemModel, SystemReport};
use lts_datasets::{presets, TrainTest};
use lts_nn::models;
use lts_noc::NocConfig;
use lts_partition::Plan;

const CORES: usize = 16;

/// Table III's variants: name, conv kernel counts, grouping degree.
const VARIANTS: [(&str, [usize; 3], usize); 3] = [
    ("Parallel#1", [64, 128, 256], 1),
    ("Parallel#2", [64, 128, 256], CORES),
    ("Parallel#3", [64, 160, 320], CORES),
];

/// One trained variant.
#[derive(Debug, PartialEq)]
pub struct Variant {
    accuracy: f32,
    plan: Plan,
    report: SystemReport,
}

pub struct TrainConvnet {
    preset: EffortPreset,
    config: PipelineConfig,
    data: TrainTest,
    model: SystemModel,
}

impl Workload for TrainConvnet {
    type Out = Variant;

    fn setup(seed: u64, smoke: bool) -> Result<Self, Error> {
        // A third of the `quick` preset's samples and epochs: the same
        // kernels and training loop at a fraction of a second per variant,
        // so a run's per-item medians rest on a dozen passes.
        let preset = EffortPreset {
            train_samples: if smoke { 32 } else { 64 },
            test_samples: if smoke { 16 } else { 32 },
            epochs: 1,
            fine_tune_epochs: 0,
            batch_size: 32,
            seed,
        };
        let (lr, epochs_mul) = train_presets::CONVNET;
        let config = preset.pipeline_config_with(lr, epochs_mul);
        let data = presets::synth_imagenet10(preset.train_samples, preset.test_samples, seed);
        Ok(TrainConvnet { preset, config, data, model: SystemModel::paper(CORES)? })
    }

    fn items(&self) -> usize {
        VARIANTS.len()
    }

    fn run_item(&mut self, i: usize) -> Result<Variant, Error> {
        let (_, kernels, groups) = VARIANTS[i];
        let network = models::convnet_variant(kernels, groups, self.preset.seed)?;
        let outcome = {
            let _span = lts_obs::span("bench.train_baseline");
            train_baseline(network, &self.data, &self.config)?
        };
        let plan = {
            let _span = lts_obs::span("bench.plan");
            plan_for_precision(&outcome.network, CORES, false, true, self.config.precision)?
        };
        let report = {
            let _span = lts_obs::span("bench.evaluate");
            self.model.evaluate(&plan)?
        };
        Ok(Variant { accuracy: outcome.test_accuracy, plan, report })
    }

    fn check(&self, outs: &[Variant], checks: &mut Checks) {
        for ((name, ..), v) in VARIANTS.iter().zip(outs) {
            sim::check_report(name, &v.report, checks);
            checks.check((0.0..=1.0).contains(&v.accuracy), || {
                format!("{name}: accuracy {}", v.accuracy)
            });
        }
        // Structure-level grouping removes traffic, so both grouped
        // variants must beat the traditional baseline (the paper's Fig. 7).
        for v in &outs[1..] {
            checks.check(v.report.total_cycles < outs[0].report.total_cycles, || {
                format!(
                    "grouped variant not faster: {} vs {}",
                    v.report.total_cycles, outs[0].report.total_cycles
                )
            });
        }
    }

    fn sim_latency_kcycles(&self, outs: &[Variant]) -> f64 {
        sim::mean_kcycles(outs.iter().map(|v| &v.report))
    }

    fn per_layer(&self, outs: &[Variant], m: &mut Metrics) {
        sim::add_totals(outs.iter().map(|v| &v.report), m);
        let base = outs[0].report.total_cycles as f64;
        let p2 = base / outs[1].report.total_cycles as f64;
        let p3 = base / outs[2].report.total_cycles as f64;
        m.set("sim.table3.parallel2_speedup", p2);
        m.set("sim.table3.parallel3_speedup", p3);
        // The paper's Table III is the model's only reference point.
        eprintln!("Table III speedup over Parallel#1: Parallel#2 {p2:.2}x (paper 4.9x), Parallel#3 {p3:.2}x (paper 4.6x)");
        let mean_acc = outs.iter().map(|v| f64::from(v.accuracy)).sum::<f64>() / outs.len() as f64;
        m.set("nn.top1_acc", mean_acc);
    }

    fn plans<'a>(&'a self, outs: &'a [Variant]) -> Vec<(NocConfig, &'a Plan, &'a SystemReport)> {
        outs.iter().map(|v| (*self.model.noc_config(), &v.plan, &v.report)).collect()
    }
}
