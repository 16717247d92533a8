//! The paper's results as one list of named tables.
//!
//! [`PAPER_TABLES`] lists the §III-B communication share, Table I,
//! Tables III–VI, Fig. 6(b) and two extensions (the combined strategy and
//! the throughput/latency tradeoff). Each table runs deterministically in
//! its [`EffortPreset`] into [`TableRows`], which render in the paper's
//! layout ([`TableRows::render`]) and check the table's shape claim
//! ([`TableRows::violations`]). `paper_tables <table>…` in `lts-bench`
//! runs them, and `EXPERIMENTS.md` records paper-vs-measured values.

use crate::pipeline::{
    plan_for_precision, train_baseline, train_sparsified, PipelineConfig, TrainedOutcome,
};
use crate::report::{
    render_group_matrix, render_table, render_table1, render_table3, render_table4,
};
use crate::strategy::SparsityScheme;
use crate::system::{SystemModel, SystemReport};
use crate::{CoreError, Result};
use lts_datasets::{presets, TrainTest};
use lts_nn::models;
use lts_nn::prune::PruneCriterion;
use lts_nn::trainer::TrainConfig;
use lts_nn::Network;
use lts_partition::comm::{dense_volumes, VolumeRow};
use lts_tensor::par;
use serde::{Deserialize, Serialize};

/// How much work the experiment runners do — `quick` for tests,
/// `paper` for the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EffortPreset {
    /// Training samples per dataset.
    pub train_samples: usize,
    /// Held-out test samples.
    pub test_samples: usize,
    /// Main-phase epochs.
    pub epochs: usize,
    /// Post-prune fine-tuning epochs.
    pub fine_tune_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Master seed (data, init and shuffling all derive from it).
    pub seed: u64,
}

impl EffortPreset {
    /// Small and fast — integration tests.
    pub fn quick() -> Self {
        Self {
            train_samples: 192,
            test_samples: 96,
            epochs: 3,
            fine_tune_epochs: 1,
            batch_size: 32,
            seed: 2019,
        }
    }

    /// The benchmark-harness scale (minutes of CPU time in total).
    pub fn paper() -> Self {
        Self {
            train_samples: 480,
            test_samples: 200,
            epochs: 6,
            fine_tune_epochs: 2,
            batch_size: 32,
            seed: 2019,
        }
    }

    /// The pipeline configuration this preset implies, at the default
    /// learning rate (tuned for the MLP; use
    /// [`EffortPreset::pipeline_config_with`] for other model families).
    pub fn pipeline_config(&self) -> PipelineConfig {
        self.pipeline_config_with(0.06, 1)
    }

    /// Pipeline configuration with a model-family learning rate and an
    /// epoch multiplier (deep conv stacks train at lower rates for more
    /// epochs: LeNet 0.005×1, ConvNet/CaffeNet 0.02×2).
    pub fn pipeline_config_with(&self, lr: f32, epochs_mul: usize) -> PipelineConfig {
        PipelineConfig {
            train: TrainConfig {
                epochs: self.epochs * epochs_mul.max(1),
                batch_size: self.batch_size,
                lr,
                momentum: 0.9,
                weight_decay: 1e-4,
                lr_decay: 0.85,
                clip_grad_norm: 5.0,
                seed: self.seed,
            },
            fine_tune_epochs: self.fine_tune_epochs,
            ..PipelineConfig::default()
        }
    }
}

/// Learning-rate/epoch presets per model family (empirically the largest
/// stable rates; see `DESIGN.md`).
pub mod train_presets {
    /// `(learning rate, epoch multiplier)` for the MLP.
    pub const MLP: (f32, usize) = (0.06, 1);
    /// `(learning rate, epoch multiplier)` for LeNet.
    pub const LENET: (f32, usize) = (0.005, 1);
    /// `(learning rate, epoch multiplier)` for the CIFAR ConvNet, the
    /// ImageNet10 ConvNet variants and CaffeNet.
    pub const CONVNET: (f32, usize) = (0.02, 2);
}

// ---------------------------------------------------------------------------
// The table list
// ---------------------------------------------------------------------------

/// One of the paper's results.
#[derive(Debug, Clone, Copy)]
pub struct PaperTable {
    /// The selector name (`table3`, `fig6`, …).
    pub name: &'static str,
    /// Whether the table trains networks, and so depends on the preset;
    /// the others are analytic plus simulation.
    pub trains: bool,
    /// Runs the table (propagating training/plan/simulation errors).
    pub run: fn(&EffortPreset) -> Result<TableRows>,
}

const fn table(
    name: &'static str,
    trains: bool,
    run: fn(&EffortPreset) -> Result<TableRows>,
) -> PaperTable {
    PaperTable { name, trains, run }
}

/// Every table, in the order the paper tells its claims.
pub const PAPER_TABLES: [PaperTable; 9] = [
    table("motivation", false, |_| motivation_comm_share().map(TableRows::Motivation)),
    table("table1", false, |_| table1_rows(16).map(TableRows::Table1)),
    table("table3", true, |p| table3_rows(p).map(TableRows::Table3)),
    table("table4", true, |p| table4_rows(p).map(TableRows::Table4)),
    table("table5", true, |p| table5_rows(p).map(TableRows::Table5)),
    table("table6", true, |p| table6_rows(p).map(TableRows::Table6)),
    table("fig6", true, |p| fig6_matrix(p).map(TableRows::Fig6)),
    table("combined", true, |p| combined_strategy_rows(p).map(TableRows::Combined)),
    table("tradeoff", false, |_| {
        let specs = [lts_nn::descriptor::lenet_spec(), lts_nn::descriptor::alexnet_spec()];
        let nets = specs.iter().map(|s| Ok((s.name.clone(), parallelism_tradeoff(s, 16)?)));
        nets.collect::<Result<_>>().map(TableRows::Tradeoff)
    }),
];

/// The rows one [`PaperTable`] produced.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRows {
    /// AlexNet's single-pass report on 16 cores.
    Motivation(SystemReport),
    /// One volume row per network.
    Table1(Vec<VolumeRow>),
    /// Parallel#1, #2 and #3 on 16 cores.
    Table3(Vec<StructureRow>),
    /// Baseline, SS and SS_Mask per network.
    Table4(Vec<SparsifiedRow>),
    /// Parallel#3 against Parallel#1 per core count.
    Table5(Vec<StructureRow>),
    /// Baseline, SS and SS_Mask per core count.
    Table6(Vec<SparsifiedRow>),
    /// The ip2 group-norm matrix.
    Fig6(GroupMatrix),
    /// Traditional, Grouped and Grouped+SS_Mask.
    Combined(Vec<SparsifiedRow>),
    /// Data, layer-pipeline and model rows per network.
    Tradeoff(Vec<(String, Vec<ParallelismRow>)>),
}

/// The mesh Fig. 6(b)'s 16 cores sit on.
fn fig6_mesh() -> lts_noc::Mesh2d {
    lts_noc::Mesh2d::new(4, 4)
}

impl TableRows {
    /// A caption, the rows in the paper's layout, and the paper's values
    /// (or, for an extension, the expected shape) for comparison.
    pub fn render(&self) -> String {
        let (title, body, paper) = match self {
            Self::Motivation(r) => {
                let layers: Vec<Vec<String>> = r
                    .layers
                    .iter()
                    .filter(|l| l.compute_cycles > 0 || l.comm_cycles > 0)
                    .map(|l| {
                        let cycles = [l.compute_cycles, l.comm_cycles, l.traffic_bytes];
                        [l.name.clone()].into_iter().chain(cycles.map(|c| c.to_string())).collect()
                    })
                    .collect();
                let body = format!(
                    "single-pass latency: {} cycles ({} compute + {} communication)\n\
                     communication share: {:.1}%\n{}",
                    r.total_cycles,
                    r.compute_cycles,
                    r.comm_cycles,
                    r.comm_share() * 100.0,
                    render_table(&["Layer", "Compute", "Comm", "Traffic (B)"], &layers)
                );
                let title = "§III-B — AlexNet communication share (16 cores)";
                (title, body, "Paper: ~23% of the single pass is communication.")
            }
            Self::Table1(rows) => (
                "Table I — data moving volume (traditional, 16 cores)",
                render_table1(rows),
                "Paper (bytes; the formula is documented in EXPERIMENTS.md):
  MLP      Ip1 28K  Ip2/3 17K
  LeNet    Conv2 225K  Ip1 57K  Ip2/3 29K
  ConvNet  Conv2 450K  Conv3 113K  Ip1 57K
  AlexNet  Conv2 2M  Conv3 2.4M  Conv4 1.8M  Conv5 1.8M  Ip1 450K  Ip2/3 57K
  VGG19    Conv2 42M  Conv3 22M  Conv4 11M  Conv5 5.4M  Ip1 1.4M  Ip2/3 57K",
            ),
            Self::Table3(rows) => (
                "Table III / Fig. 7 — structure-level parallelization (16 cores)",
                render_table3(rows),
                "Paper: Parallel#1 acc 0.726 1x | Parallel#2 acc 0.698 4.9x | Parallel#3 acc 0.742 4.6x
Paper Fig. 7: comm energy reduction 91% (#2), 88% (#3)",
            ),
            Self::Table4(rows) => (
                "Table IV — communication-aware sparsified parallelization (16 cores)",
                render_table4(rows),
                "Paper (accuracy / traffic / speedup / energy reduction):
  MLP      SS 98.38% 30% 1.40x 59%   SS_Mask 98.36% 11% 1.59x 81%
  LeNet    SS 98.98% 82% 1.20x 15%   SS_Mask 98.60% 23% 1.51x 89%
  ConvNet  SS 80.15% 46% 1.19x 25%   SS_Mask 79.61% 35% 1.32x 55%
  CaffeNet SS 55.02% 98% 1.02x 17%   SS_Mask 54.21% 57% 1.10x 38%",
            ),
            Self::Table5(rows) => (
                "Table V / Fig. 8 — structure-level scalability (Parallel#3)",
                render_table3(rows),
                "Paper: 4 cores 0.694 2.7x | 8 cores 0.718 4.6x | 16 cores 0.742 6.0x | 32 cores 0.722 6.9x
Paper Fig. 8: computation speedup/energy grow with cores; communication series stay roughly flat.",
            ),
            Self::Table6(rows) => (
                "Table VI — sparsified parallelization of LeNet on 8 and 32 cores",
                render_table4(rows),
                "Paper (accuracy / traffic / speedup / energy reduction):
  8 cores  SS 98.9% 80% 1.20x 10%   SS_Mask 98.9% 68% 1.22x 32%
  32 cores SS 98.7% 32% 1.49x 34%   SS_Mask 98.6% 18% 1.58x 56%",
            ),
            Self::Fig6(m) => {
                let mesh = fig6_mesh();
                let body = format!(
                    "{}mean hop distance of surviving off-diagonal groups: {:.2} (mesh mean: {:.2})",
                    render_group_matrix(m),
                    m.mean_surviving_distance(&mesh),
                    mesh.mean_distance()
                );
                let title = "Fig. 6(b) — final group-level weight matrix (MLP/ip2, SS_Mask, 16 cores)";
                (title, body, "Paper: diagonal groups survive; long-distance groups are pruned away.")
            }
            Self::Combined(rows) => (
                "Extension — Grouped + SS_Mask combined (ConvNet, 16 cores)",
                render_table4(rows),
                "Expected shape: grouping removes the conv transitions; SS_Mask then
removes most of what remains (the FC transition), compounding the win.",
            ),
            Self::Tradeoff(nets) => {
                let mut lines = Vec::new();
                for (name, rows) in nets {
                    lines.push(format!("{name}:"));
                    lines.extend(rows.iter().map(|r| {
                        let imbalance = r
                            .imbalance
                            .map_or_else(String::new, |x| format!("   load imbalance {x:.2}x"));
                        format!(
                            "  {:<26} latency {:>9} cycles   throughput {:>8.2} inf/Mcycle{imbalance}",
                            r.mode, r.latency_cycles, r.throughput_per_mcycle
                        )
                    }));
                }
                (
                    "Extension — data vs layer-pipeline vs model parallelism (16 cores)",
                    lines.join("\n"),
                    "Expected shape: model parallelism answers sooner at lower peak throughput; the
layer pipeline keeps one core's latency (a lower bound: stage transfers are
free here), and its slowest stage runs above the mean.",
                )
            }
        };
        format!("{title}\n{body}\n{paper}")
    }

    /// The parts of the table's shape claim its rows break; empty when they
    /// keep it. Table IV claims nothing yet: its shape does not reproduce
    /// (ROADMAP item 1).
    pub fn violations(&self) -> Vec<String> {
        // (holds, claim) per check. A missing row reads NaN, which fails.
        let checks: Vec<(bool, String)> = match self {
            Self::Motivation(r) => {
                let share = r.comm_share();
                vec![((share - 0.23).abs() <= 0.05, format!("share {share:.3} is 0.23 ± 0.05"))]
            }
            Self::Table1(rows) => {
                let total = |n: &str| rows.iter().find(|r| r.network == n).map(VolumeRow::total);
                let order = ["VGG19", "AlexNet", "ConvNet", "LeNet", "MLP"];
                let check = |w: &[&str]| {
                    let ok = total(w[1]).is_some() && total(w[0]) > total(w[1]);
                    (ok, format!("{} total > {} total", w[0], w[1]))
                };
                order.windows(2).map(check).collect()
            }
            Self::Table3(rows) => {
                let speedup =
                    |n: &str| rows.iter().find(|r| r.name == n).map_or(f64::NAN, |r| r.speedup);
                let (p2, p3) = (speedup("Parallel#2"), speedup("Parallel#3"));
                vec![(p2 >= p3 && p3 > 1.0, format!("speedup #2 {p2:.3} >= #3 {p3:.3} > 1"))]
            }
            Self::Table4(_) => Vec::new(),
            Self::Table5(rows) => {
                let per_core = |r: &StructureRow| r.speedup / r.cores as f64;
                let check = |w: &[StructureRow]| {
                    let ok = w[1].speedup > w[0].speedup && per_core(&w[1]) < per_core(&w[0]);
                    (
                        ok,
                        format!(
                            "speedup rises sublinearly from {} to {} cores",
                            w[0].cores, w[1].cores
                        ),
                    )
                };
                rows.windows(2).map(check).collect()
            }
            Self::Table6(rows) => {
                let traffic = |cores: usize, scheme: &str| {
                    let row = rows.iter().find(|r| r.cores == cores && r.scheme == scheme);
                    row.map_or(f64::NAN, |r| r.traffic_rate)
                };
                let (ss8, mask8) = (traffic(8, "SS"), traffic(8, "SS_Mask"));
                let (ss32, mask32) = (traffic(32, "SS"), traffic(32, "SS_Mask"));
                vec![
                    (mask8 < ss8, format!("8 cores: SS_Mask traffic {mask8:.3} < SS {ss8:.3}")),
                    (
                        mask32 < ss32,
                        format!("32 cores: SS_Mask traffic {mask32:.3} < SS {ss32:.3}"),
                    ),
                    (mask32 < mask8, "SS_Mask traffic falls from 8 to 32 cores".into()),
                ]
            }
            Self::Fig6(m) => {
                let mesh = fig6_mesh();
                let (d, mean) = (m.mean_surviving_distance(&mesh), mesh.mean_distance());
                vec![(d < mean, format!("surviving distance {d:.2} < mesh mean {mean:.2}"))]
            }
            Self::Combined(rows) => {
                let t: Vec<f64> = rows.iter().map(|r| r.traffic_rate).collect();
                let ok = t.len() == 3 && t.windows(2).all(|w| w[1] < w[0]);
                vec![(ok, format!("traffic {t:?} falls Traditional > Grouped > Grouped+SS_Mask"))]
            }
            Self::Tradeoff(nets) => nets
                .iter()
                .flat_map(|(name, rows)| {
                    let [data, pipe, model] = &rows[..] else {
                        return vec![(false, format!("{name}: data, pipeline and model rows"))];
                    };
                    vec![
                        (
                            model.latency_cycles < data.latency_cycles,
                            format!("{name}: model latency < data"),
                        ),
                        (
                            model.throughput_per_mcycle < data.throughput_per_mcycle,
                            format!("{name}: model throughput < data"),
                        ),
                        (
                            pipe.imbalance.is_some_and(|x| x > 1.0),
                            format!("{name}: pipeline imbalance > 1"),
                        ),
                    ]
                })
                .collect(),
        };
        checks
            .into_iter()
            .filter(|(ok, _)| !ok)
            .map(|(_, claim)| format!("claim does not hold: {claim}"))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Shared steps of the trained tables
// ---------------------------------------------------------------------------

/// One trained network's test accuracy and single-pass report.
struct Pass {
    accuracy: f32,
    report: SystemReport,
}

/// Plans a trained network at the configured precision (sparsity-aware
/// when `sparse`) and simulates one pass on `model`.
fn simulate(
    model: &SystemModel,
    network: &Network,
    sparse: bool,
    config: &PipelineConfig,
) -> Result<SystemReport> {
    model.evaluate(&plan_for_precision(network, model.cores(), sparse, true, config.precision)?)
}

/// Trains `network` densely, or with the group Lasso of `sparsify`'s
/// `(scheme, λ, prune rule)` then pruned, and [`simulate`]s it.
fn train_and_simulate(
    network: Network,
    data: &TrainTest,
    config: &PipelineConfig,
    model: &SystemModel,
    sparsify: Option<(SparsityScheme, f32, PruneCriterion)>,
) -> Result<Pass> {
    let (network, accuracy) = match sparsify {
        None => {
            let o = train_baseline(network, data, config)?;
            (o.network, o.test_accuracy)
        }
        Some((scheme, lambda, prune)) => {
            let o = train_sparsified(network, data, config, model.cores(), scheme, lambda, prune)?;
            (o.network, o.test_accuracy)
        }
    };
    let report = simulate(model, &network, sparsify.is_some(), config)?;
    Ok(Pass { accuracy, report })
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Table I: analytic data-moving volume per layer transition under
/// traditional parallelization, for all five benchmark networks.
///
/// # Errors
///
/// Propagates plan-construction errors.
pub fn table1_rows(cores: usize) -> Result<Vec<VolumeRow>> {
    let specs = [
        lts_nn::descriptor::mlp_spec(),
        lts_nn::descriptor::lenet_spec(),
        lts_nn::descriptor::convnet_spec(),
        lts_nn::descriptor::alexnet_spec(),
        lts_nn::descriptor::vgg19_spec(),
    ];
    par::par_map(&specs, |_, s| dense_volumes(s, cores).map_err(CoreError::from))
        .into_iter()
        .collect()
}

// ---------------------------------------------------------------------------
// Table III / Fig. 7 and Table V / Fig. 8 — structure-level parallelization
// ---------------------------------------------------------------------------

/// One Table III or Table V row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructureRow {
    /// Variant name (Parallel#1/2/3).
    pub name: String,
    /// Core count.
    pub cores: usize,
    /// Conv kernel counts (conv1-conv2-conv3).
    pub kernels: [usize; 3],
    /// Grouping degree `n`.
    pub groups: usize,
    /// Test accuracy.
    pub accuracy: f32,
    /// Single-pass speedup vs Parallel#1 on the same core count.
    pub speedup: f64,
    /// Normalized communication speedup vs Parallel#1 (Fig. 7 right axis
    /// counterpart; ∞ when the variant eliminates all traffic).
    pub comm_speedup: f64,
    /// NoC energy reduction vs Parallel#1.
    pub comm_energy_reduction: f64,
    /// Total (compute+NoC) energy reduction vs Parallel#1.
    pub total_energy_reduction: f64,
}

/// Parallel#1's and #2's conv kernel counts; Parallel#3 widens them.
const KERNELS: [usize; 3] = [64, 128, 256];
/// Parallel#3's wider kernels, which buy back the accuracy grouping costs.
const WIDE_KERNELS: [usize; 3] = [64, 160, 320];

/// The ImageNet10 stand-in and the ConvNet training configuration the
/// structure-level tables and the combined extension share.
fn imagenet10(preset: &EffortPreset) -> (TrainTest, PipelineConfig) {
    let (lr, mul) = train_presets::CONVNET;
    (
        presets::synth_imagenet10(preset.train_samples, preset.test_samples, preset.seed),
        preset.pipeline_config_with(lr, mul),
    )
}

/// A ConvNet variant: its name, conv kernel counts and grouping degree.
type Variant = (&'static str, [usize; 3], usize);

impl StructureRow {
    /// `variant` on `cores` cores, compared with Parallel#1's `base`.
    fn versus(
        (name, kernels, groups): Variant,
        cores: usize,
        pass: &Pass,
        base: &SystemReport,
    ) -> Self {
        let report = &pass.report;
        Self {
            name: name.into(),
            cores,
            kernels,
            groups,
            accuracy: pass.accuracy,
            speedup: report.speedup_vs(base),
            comm_speedup: if report.comm_cycles == 0 {
                f64::INFINITY
            } else {
                base.comm_cycles as f64 / report.comm_cycles as f64
            },
            comm_energy_reduction: report.noc_energy_reduction_vs(base),
            total_energy_reduction: 1.0
                - report.total_energy_pj() / base.total_energy_pj().max(f64::MIN_POSITIVE),
        }
    }
}

/// Table III / Fig. 7: the three ConvNet variants on 16 cores.
///
/// # Errors
///
/// Propagates training/plan/simulation errors.
pub fn table3_rows(preset: &EffortPreset) -> Result<Vec<StructureRow>> {
    let (data, config) = imagenet10(preset);
    let cores = 16;
    let model = SystemModel::paper(cores)?;
    let variants: [Variant; 3] = [
        ("Parallel#1", KERNELS, 1),
        ("Parallel#2", KERNELS, cores),
        ("Parallel#3", WIDE_KERNELS, cores),
    ];
    let mut rows = Vec::with_capacity(variants.len());
    let mut base = None;
    for variant @ (_, kernels, groups) in variants {
        let network = models::convnet_variant(kernels, groups, preset.seed)?;
        let pass = train_and_simulate(network, &data, &config, &model, None)?;
        let base = base.get_or_insert_with(|| pass.report.clone());
        rows.push(StructureRow::versus(variant, cores, &pass, base));
    }
    Ok(rows)
}

/// Table V / Fig. 8: Parallel#3 on 4, 8, 16 and 32 cores, each against
/// Parallel#1 on the same core count. Parallel#1 has one group whatever
/// the core count, so it trains once and is simulated on each.
///
/// # Errors
///
/// Propagates training/plan/simulation errors.
pub fn table5_rows(preset: &EffortPreset) -> Result<Vec<StructureRow>> {
    let (data, config) = imagenet10(preset);
    let parallel1 =
        train_baseline(models::convnet_variant(KERNELS, 1, preset.seed)?, &data, &config)?;
    // Each core count is an independent train+simulate run; fan them out
    // on the engine and collect in fixed core-count order.
    par::par_map(&[4usize, 8, 16, 32], |_, &cores| {
        let model = SystemModel::paper(cores)?;
        let base = simulate(&model, &parallel1.network, false, &config)?;
        let network = models::convnet_variant(WIDE_KERNELS, cores, preset.seed)?;
        let pass = train_and_simulate(network, &data, &config, &model, None)?;
        Ok(StructureRow::versus(("Parallel#3", WIDE_KERNELS, cores), cores, &pass, &base))
    })
    .into_iter()
    .collect()
}

// ---------------------------------------------------------------------------
// Table IV / Table VI — communication-aware sparsified parallelization
// ---------------------------------------------------------------------------

/// One Table IV/VI row, or one row of the combined extension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparsifiedRow {
    /// Network name.
    pub network: String,
    /// Core count.
    pub cores: usize,
    /// `Baseline`, `SS` or `SS_Mask` (or a combined-extension strategy).
    pub scheme: String,
    /// Test accuracy.
    pub accuracy: f32,
    /// NoC traffic as a fraction of the baseline (1.0 = 100 %).
    pub traffic_rate: f64,
    /// Single-pass speedup vs the baseline.
    pub speedup: f64,
    /// NoC energy reduction vs the baseline.
    pub energy_reduction: f64,
    /// Whether the row's accuracy is within [`ACCURACY_TOLERANCE`] of the
    /// baseline. `false` marks a fallback: no λ met the floor, so the row
    /// is the most accurate run instead. Rows that choose no λ (baselines
    /// and the combined extension) read `true`.
    pub within_tolerance: bool,
}

impl SparsifiedRow {
    /// `scheme`'s run of `network` on `cores` cores, compared with `base`.
    fn versus(
        network: &str,
        cores: usize,
        scheme: &str,
        pass: &Pass,
        base: &SystemReport,
        within_tolerance: bool,
    ) -> Self {
        let report = &pass.report;
        Self {
            network: network.into(),
            cores,
            scheme: scheme.into(),
            accuracy: pass.accuracy,
            traffic_rate: report.traffic_rate_vs(base),
            speedup: report.speedup_vs(base),
            energy_reduction: report.noc_energy_reduction_vs(base),
            within_tolerance,
        }
    }
}

/// Maximum accuracy drop below the baseline a sparsified run may show and
/// still be chosen.
pub const ACCURACY_TOLERANCE: f32 = 0.02;

/// Per-network group-Lasso hyper-parameters.
///
/// Mirroring the paper's methodology, λ_g is not a single magic number:
/// each scheme is trained at every λ in `lambda_grid` and the run with the
/// **lowest NoC traffic whose accuracy stays within
/// [`ACCURACY_TOLERANCE`] of the baseline** is reported. This is what "let
/// the network learn a configuration that is both accurate and
/// communication-reduced" means operationally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparsifyParams {
    /// Candidate group-Lasso coefficients (each is trained; runs execute
    /// in parallel worker threads).
    pub lambda_grid: Vec<f32>,
    /// Prune rule applied after training.
    pub prune: PruneCriterion,
}

impl Default for SparsifyParams {
    fn default() -> Self {
        Self {
            lambda_grid: vec![0.5, 1.0, 2.0, 4.0],
            prune: PruneCriterion::RmsBelowRelative(0.35),
        }
    }
}

/// Baseline / SS / SS_Mask rows of one network on `cores` cores: the
/// trained `baseline` is simulated there, and each scheme trains a copy of
/// the untrained `init` at every λ of `params` and keeps one by
/// [`choose_lambda`].
fn sparsified_rows(
    init: &Network,
    baseline: &TrainedOutcome,
    data: &TrainTest,
    cores: usize,
    config: &PipelineConfig,
    params: &SparsifyParams,
) -> Result<Vec<SparsifiedRow>> {
    let name = init.name();
    let model = SystemModel::paper(cores)?;
    let base = Pass {
        accuracy: baseline.test_accuracy,
        report: simulate(&model, &baseline.network, false, config)?,
    };
    let mut rows = vec![SparsifiedRow::versus(name, cores, "Baseline", &base, &base.report, true)];
    for scheme in [SparsityScheme::Ss, SparsityScheme::mask()] {
        // Train the whole λ grid on the execution engine; every run is
        // independent and deterministic, and par_map returns results in
        // grid order regardless of scheduling.
        let candidates = par::par_map(&params.lambda_grid, |_, &lambda| {
            let sparsify = Some((scheme, lambda, params.prune));
            train_and_simulate(init.clone(), data, config, &model, sparsify)
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        let scored: Vec<(f32, u64)> =
            candidates.iter().map(|p| (p.accuracy, p.report.traffic_bytes)).collect();
        let (i, within) = choose_lambda(&scored, baseline.test_accuracy - ACCURACY_TOLERANCE)
            .ok_or_else(|| CoreError::BadConfig("empty lambda grid".into()))?;
        rows.push(SparsifiedRow::versus(
            name,
            cores,
            scheme.label(),
            &candidates[i],
            &base.report,
            within,
        ));
    }
    Ok(rows)
}

/// Picks one λ run from `(accuracy, traffic bytes)` candidates, by the
/// paper's methodology: the lowest traffic among runs whose accuracy is at
/// least `floor`. When none is, the most accurate run. Returns its index
/// and whether it met the floor; `None` for no candidates.
pub fn choose_lambda(candidates: &[(f32, u64)], floor: f32) -> Option<(usize, bool)> {
    let within = candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| c.0 >= floor)
        .min_by_key(|(_, c)| c.1)
        .map(|(i, _)| (i, true));
    within.or_else(|| {
        candidates
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
            .map(|(i, _)| (i, false))
    })
}

/// Table IV: MLP, LeNet, ConvNet, CaffeNet × {Baseline, SS, SS_Mask} on
/// 16 cores.
///
/// # Errors
///
/// Propagates training/plan/simulation errors.
pub fn table4_rows(preset: &EffortPreset) -> Result<Vec<SparsifiedRow>> {
    let p = preset;
    let mnist = presets::synth_mnist(p.train_samples, p.test_samples, p.seed);
    let cifar = presets::synth_cifar10(p.train_samples, p.test_samples, p.seed);
    let imagenet = presets::synth_imagenet_small(p.train_samples, p.test_samples, p.seed);
    let networks = [
        (models::mlp(28 * 28, 10, p.seed)?, &mnist, train_presets::MLP, SparsifyParams::default()),
        (models::lenet(10, p.seed)?, &mnist, train_presets::LENET, SparsifyParams::default()),
        (
            models::convnet(10, p.seed)?,
            &cifar,
            train_presets::CONVNET,
            SparsifyParams { lambda_grid: vec![0.5, 1.5, 3.0], ..SparsifyParams::default() },
        ),
        (
            models::caffenet_small(10, p.seed)?,
            &imagenet,
            train_presets::CONVNET,
            // CaffeNet sparsifies seven layers at once (conv2–conv5,
            // ip1–ip3) at a low learning rate: proximal thresholds that
            // suit the small nets destroy it, so its λ grid sits an order
            // of magnitude lower.
            SparsifyParams {
                lambda_grid: vec![0.1, 0.4, 1.2],
                prune: PruneCriterion::RmsBelowRelative(0.25),
            },
        ),
    ];
    let mut rows = Vec::new();
    for (init, data, (lr, mul), params) in &networks {
        let config = p.pipeline_config_with(*lr, *mul);
        let baseline = train_baseline(init.clone(), data, &config)?;
        rows.extend(sparsified_rows(init, &baseline, data, 16, &config, params)?);
    }
    Ok(rows)
}

/// Table VI: LeNet sparsified on 8 and 32 cores. The dense baseline does
/// not depend on the core count, so it trains once for both.
///
/// # Errors
///
/// Propagates training/plan/simulation errors.
pub fn table6_rows(preset: &EffortPreset) -> Result<Vec<SparsifiedRow>> {
    let data = presets::synth_mnist(preset.train_samples, preset.test_samples, preset.seed);
    let (lr, mul) = train_presets::LENET;
    let config = preset.pipeline_config_with(lr, mul);
    let init = models::lenet(10, preset.seed)?;
    let baseline = train_baseline(init.clone(), &data, &config)?;
    let params = SparsifyParams::default();
    let mut rows = Vec::new();
    for cores in [8usize, 32] {
        rows.extend(sparsified_rows(&init, &baseline, &data, cores, &config, &params)?);
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Extension experiments (beyond the paper's tables)
// ---------------------------------------------------------------------------

/// Extension: §IV-B and §IV-C are orthogonal — grouped conv layers kill
/// their transitions *by construction*, and the remaining dense layers'
/// transitions can still be sparsified away with SS_Mask. Compares
/// Traditional vs Grouped vs Grouped+SS_Mask on the ImageNet10 ConvNet,
/// each against Traditional.
///
/// # Errors
///
/// Propagates training/plan/simulation errors.
pub fn combined_strategy_rows(preset: &EffortPreset) -> Result<Vec<SparsifiedRow>> {
    let (data, config) = imagenet10(preset);
    let cores = 16;
    let model = SystemModel::paper(cores)?;
    let variant = |groups| models::convnet_variant(KERNELS, groups, preset.seed);
    let dense = train_and_simulate(variant(1)?, &data, &config, &model, None)?;
    let grouped = train_and_simulate(variant(cores)?, &data, &config, &model, None)?;
    // The grouped network's remaining dense transitions (into ip1)
    // sparsified with SS_Mask.
    let mask = Some((SparsityScheme::mask(), 2.0, SparsifyParams::default().prune));
    let combined = train_and_simulate(variant(cores)?, &data, &config, &model, mask)?;
    Ok([
        ("Traditional".to_string(), &dense),
        (format!("Grouped(n={cores})"), &grouped),
        (format!("Grouped(n={cores})+SS_Mask"), &combined),
    ]
    .iter()
    .map(|(scheme, pass)| {
        SparsifiedRow::versus("ConvNet", cores, scheme, pass, &dense.report, true)
    })
    .collect())
}

/// One row of the throughput-vs-latency extension experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelismRow {
    /// `data` (one independent inference per core, DaDianNao/TPU style),
    /// `layer pipeline` (contiguous layer stages on separate cores — the
    /// §II-B alternative) or `model` (this paper: one inference split
    /// across all cores).
    pub mode: String,
    /// Latency of one inference, in cycles.
    pub latency_cycles: u64,
    /// Sustained throughput in inferences per million cycles.
    pub throughput_per_mcycle: f64,
    /// The slowest pipeline stage over the mean stage (`Some` only for
    /// the layer pipeline).
    pub imbalance: Option<f64>,
}

/// Extension: the §I distinction between throughput-oriented data-level
/// parallelism and the paper's latency-oriented single-pass model
/// parallelism, quantified on one network/core count, with the §II-B
/// inter-layer pipeline between them. The pipeline cuts the per-layer
/// compute cycles of the single-core pass into at most `cores` stages
/// ([`lts_partition::StagePipeline::partition`]) and charges nothing for
/// moving activations between stages, so its latency (the single-core
/// pass) is a lower bound and its throughput an upper bound.
///
/// # Errors
///
/// Propagates plan/simulation errors.
pub fn parallelism_tradeoff(
    spec: &lts_nn::NetworkSpec,
    cores: usize,
) -> Result<Vec<ParallelismRow>> {
    let model = SystemModel::paper(cores)?;
    // Data parallelism: every core runs the whole network by itself.
    let single = model.evaluate(&lts_partition::Plan::dense(spec, 1, 2)?)?;
    // Layer pipelining: contiguous stages of the single-core pass.
    let compute: Vec<u64> = single.layers.iter().map(|l| l.compute_cycles).collect();
    let pipeline = lts_partition::StagePipeline::partition(spec, &compute, cores)?;
    // Model parallelism: one pass split across all cores.
    let split = model.evaluate(&lts_partition::Plan::dense(spec, cores, 2)?)?;
    Ok(vec![
        ParallelismRow {
            mode: "data (1 net/core)".into(),
            latency_cycles: single.total_cycles,
            throughput_per_mcycle: cores as f64 / single.total_cycles as f64 * 1e6,
            imbalance: None,
        },
        ParallelismRow {
            mode: format!("layer pipeline ({} stages)", pipeline.ranges.len()),
            latency_cycles: pipeline.latency(),
            throughput_per_mcycle: 1e6 / pipeline.interval() as f64,
            imbalance: Some(pipeline.imbalance()),
        },
        ParallelismRow {
            mode: format!("model ({cores}-way split)"),
            latency_cycles: split.total_cycles,
            throughput_per_mcycle: 1.0 / split.total_cycles as f64 * 1e6,
            imbalance: None,
        },
    ])
}

// ---------------------------------------------------------------------------
// §III-B motivation — AlexNet communication share
// ---------------------------------------------------------------------------

/// The §III-B claim: AlexNet's single pass on a 16-core CMP, whose
/// [`SystemReport::comm_share`] is the fraction spent on inter-core
/// communication (paper: ~23 %).
///
/// # Errors
///
/// Propagates plan/simulation errors.
pub fn motivation_comm_share() -> Result<SystemReport> {
    let spec = lts_nn::descriptor::alexnet_spec();
    SystemModel::paper(16)?.evaluate(&lts_partition::Plan::dense(&spec, 16, 2)?)
}

// ---------------------------------------------------------------------------
// Fig. 6(b) — final group-level weight matrix
// ---------------------------------------------------------------------------

/// Fig. 6(b): the group-norm matrix of one sparsified layer (row =
/// producer core, column = consumer core); zero entries are pruned
/// groups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupMatrix {
    /// Network name.
    pub network: String,
    /// Layer whose weights are shown.
    pub layer: String,
    /// Core count per axis.
    pub cores: usize,
    /// Row-major `cores × cores` block norms.
    pub norms: Vec<f32>,
}

impl GroupMatrix {
    /// Fraction of groups that are exactly zero.
    pub fn zero_fraction(&self) -> f32 {
        if self.norms.is_empty() {
            return 0.0;
        }
        self.norms.iter().filter(|&&n| n == 0.0).count() as f32 / self.norms.len() as f32
    }

    /// Mean hop-weighted surviving norm: how "distant" the remaining
    /// traffic-inducing groups are (lower = more local).
    pub fn mean_surviving_distance(&self, mesh: &lts_noc::Mesh2d) -> f64 {
        let mut total = 0.0f64;
        let mut weight = 0.0f64;
        for p in 0..self.cores {
            for c in 0..self.cores {
                let n = self.norms[p * self.cores + c] as f64;
                if p != c && n > 0.0 {
                    total += mesh.distance(p, c) as f64;
                    weight += 1.0;
                }
            }
        }
        if weight == 0.0 {
            0.0
        } else {
            total / weight
        }
    }
}

/// Trains an MLP with SS_Mask on 16 cores and returns the ip2 group
/// matrix (the Fig. 6(b) artifact).
///
/// # Errors
///
/// Propagates training errors.
pub fn fig6_matrix(preset: &EffortPreset) -> Result<GroupMatrix> {
    let data = presets::synth_mnist(preset.train_samples, preset.test_samples, preset.seed);
    let outcome = train_sparsified(
        models::mlp(28 * 28, 10, preset.seed)?,
        &data,
        &preset.pipeline_config(),
        16,
        SparsityScheme::mask(),
        2.0,
        SparsifyParams::default().prune,
    )?;
    let spec = outcome.network.spec();
    let plan = lts_partition::Plan::dense(&spec, 16, 2)?;
    let layer = "ip2";
    let layout = plan
        .layer(layer)
        .and_then(|lp| lp.layout.clone())
        .ok_or_else(|| CoreError::BadConfig(format!("layer `{layer}` has no layout")))?;
    let weights = outcome
        .network
        .layer_weight(layer)
        .ok_or_else(|| CoreError::BadConfig(format!("layer `{layer}` missing")))?;
    Ok(GroupMatrix {
        network: "MLP".into(),
        layer: layer.into(),
        cores: 16,
        norms: layout.norm_matrix(weights.value.as_slice()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_choice_prefers_least_traffic_within_the_floor() {
        // (accuracy, traffic bytes): the 0.97 run has the least traffic of
        // the two at or above the 0.95 floor; the 0.90 run has less still
        // but misses the floor.
        let candidates = [(0.99, 900), (0.97, 500), (0.90, 100), (0.95, 700)];
        assert_eq!(choose_lambda(&candidates, 0.95), Some((1, true)));
    }

    #[test]
    fn lambda_choice_falls_back_to_the_most_accurate_run() {
        let candidates = [(0.80, 900), (0.85, 500), (0.70, 100)];
        assert_eq!(choose_lambda(&candidates, 0.95), Some((1, false)));
        assert_eq!(choose_lambda(&[], 0.95), None);
    }

    #[test]
    fn table1_reproduces_known_volumes() {
        let rows = table1_rows(16).unwrap();
        assert_eq!(rows.len(), 5);
        let alexnet = rows.iter().find(|r| r.network == "AlexNet").unwrap();
        assert_eq!(alexnet.layer("conv2").unwrap(), 96 * 27 * 27 * 2 * 15);
        let vgg = rows.iter().find(|r| r.network == "VGG19").unwrap();
        assert!(vgg.total() > alexnet.total());
    }

    #[test]
    fn motivation_comm_share_is_substantial() {
        let report = motivation_comm_share().unwrap();
        let share = report.comm_share();
        assert!(report.comm_cycles > 0);
        // The paper reports ~23 %; accept a generous band around it
        // (our core/NoC models are reconstructions).
        assert!((0.05..=0.60).contains(&share), "comm share {share}");
    }

    #[test]
    fn parallelism_tradeoff_shows_the_latency_throughput_tension() {
        let rows = parallelism_tradeoff(&lts_nn::descriptor::lenet_spec(), 16).unwrap();
        assert_eq!(rows.len(), 3);
        let (data, pipe, model) = (&rows[0], &rows[1], &rows[2]);
        // Model parallelism must cut latency...
        assert!(model.latency_cycles < data.latency_cycles);
        // ...at some cost in aggregate throughput.
        assert!(model.throughput_per_mcycle < data.throughput_per_mcycle);
        // The layer pipeline keeps the single-core latency and, with
        // unevenly sized layers, cannot reach data-parallel throughput.
        assert_eq!(pipe.latency_cycles, data.latency_cycles);
        assert!(pipe.throughput_per_mcycle < data.throughput_per_mcycle);
    }

    #[test]
    fn layer_pipelining_a_cnn_shows_the_papers_load_imbalance() {
        // The paper's §II-B objection: conv layers dwarf everything else,
        // so contiguous stages cannot balance.
        let rows = parallelism_tradeoff(&lts_nn::descriptor::alexnet_spec(), 16).unwrap();
        let imbalance = rows[1].imbalance.expect("the pipeline row reports its imbalance");
        assert!(imbalance > 1.5, "AlexNet stages should be visibly unbalanced, got {imbalance}");
        assert!(rows[0].imbalance.is_none() && rows[2].imbalance.is_none());
    }

    fn run(name: &str) -> TableRows {
        let table = PAPER_TABLES.iter().find(|t| t.name == name).expect("a listed table");
        (table.run)(&EffortPreset::quick()).unwrap()
    }

    #[test]
    fn table_names_are_unique_and_only_analytic_tables_skip_training() {
        for (i, t) in PAPER_TABLES.iter().enumerate() {
            assert!(PAPER_TABLES[..i].iter().all(|u| u.name != t.name), "{}", t.name);
        }
        let analytic: Vec<&str> =
            PAPER_TABLES.iter().filter(|t| !t.trains).map(|t| t.name).collect();
        assert_eq!(analytic, ["motivation", "table1", "tradeoff"]);
    }

    #[test]
    fn analytic_tables_keep_their_shape_claims() {
        for name in ["motivation", "table1", "tradeoff"] {
            let rows = run(name);
            assert_eq!(rows.violations(), Vec::<String>::new(), "{name}");
            assert!(!rows.render().is_empty());
        }
    }

    fn structure(cores: usize, speedup: f64) -> StructureRow {
        StructureRow {
            name: "Parallel#3".into(),
            cores,
            kernels: WIDE_KERNELS,
            groups: cores,
            accuracy: 0.9,
            speedup,
            comm_speedup: 6.0,
            comm_energy_reduction: 0.8,
            total_energy_reduction: 0.5,
        }
    }

    fn sparsified(cores: usize, scheme: &str, traffic_rate: f64) -> SparsifiedRow {
        SparsifiedRow {
            network: "LeNet".into(),
            cores,
            scheme: scheme.into(),
            accuracy: 0.9,
            traffic_rate,
            speedup: 1.0,
            energy_reduction: 0.0,
            within_tolerance: true,
        }
    }

    #[test]
    fn structure_predicates_flag_broken_orderings() {
        let p2 = StructureRow { name: "Parallel#2".into(), ..structure(16, 3.0) };
        let table3 = |p3| TableRows::Table3(vec![p2.clone(), structure(16, p3)]);
        assert!(table3(2.9).violations().is_empty());
        assert_eq!(table3(3.1).violations().len(), 1, "#3 above #2");
        assert_eq!(table3(0.9).violations().len(), 1, "#3 below 1");

        let table5 = |s: [f64; 3]| {
            TableRows::Table5(vec![structure(4, s[0]), structure(8, s[1]), structure(16, s[2])])
        };
        assert!(table5([2.0, 2.5, 3.0]).violations().is_empty());
        assert_eq!(table5([2.0, 1.9, 3.0]).violations().len(), 1, "speedup falls");
        assert_eq!(table5([2.0, 4.5, 5.0]).violations().len(), 1, "superlinear step");
    }

    #[test]
    fn sparsified_predicates_flag_broken_orderings() {
        let table6 = |m8, m32| {
            TableRows::Table6(vec![
                sparsified(8, "SS", 0.99),
                sparsified(8, "SS_Mask", m8),
                sparsified(32, "SS", 0.99),
                sparsified(32, "SS_Mask", m32),
            ])
        };
        assert!(table6(0.97, 0.62).violations().is_empty());
        assert_eq!(table6(1.0, 0.62).violations().len(), 1, "mask not below SS at 8");
        assert_eq!(table6(0.6, 0.62).violations().len(), 1, "mask rises with cores");
        assert_eq!(TableRows::Table6(Vec::new()).violations().len(), 3, "missing rows");

        let combined =
            |t: [f64; 3]| TableRows::Combined(t.iter().map(|&x| sparsified(16, "x", x)).collect());
        assert!(combined([1.0, 0.09, 0.01]).violations().is_empty());
        assert_eq!(combined([1.0, 0.09, 0.09]).violations().len(), 1);
        assert!(TableRows::Table4(vec![sparsified(16, "SS", 2.0)]).violations().is_empty());
    }

    #[test]
    fn analytic_and_matrix_predicates_flag_broken_rows() {
        let TableRows::Motivation(mut report) = run("motivation") else {
            panic!("motivation rows")
        };
        report.comm_cycles = report.total_cycles / 2;
        assert_eq!(TableRows::Motivation(report).violations().len(), 1, "share 50%");

        let mut volumes = table1_rows(16).unwrap();
        volumes.reverse();
        volumes[0].layers.clear();
        assert_eq!(TableRows::Table1(volumes).violations().len(), 1, "VGG19 without traffic");

        let local = GroupMatrix {
            network: "MLP".into(),
            layer: "ip2".into(),
            cores: 16,
            norms: {
                let mut n = vec![0.0; 256];
                n[1] = 1.0; // core 0 -> core 1, one hop
                n
            },
        };
        assert!(TableRows::Fig6(local.clone()).violations().is_empty());
        let mut far = local;
        far.norms[15] = 1.0; // core 0 -> core 15, six hops
        far.norms[12] = 1.0; // core 0 -> core 12, three hops
        assert_eq!(TableRows::Fig6(far).violations().len(), 1, "mean 3.33 hops");

        let mut nets = match run("tradeoff") {
            TableRows::Tradeoff(nets) => nets,
            other => panic!("tradeoff rows, got {other:?}"),
        };
        nets[0].1[1].imbalance = Some(1.0);
        nets[1].1.pop();
        assert_eq!(TableRows::Tradeoff(nets).violations().len(), 2);
    }

    #[test]
    fn presets_build_valid_pipeline_configs() {
        let quick = EffortPreset::quick();
        let paper = EffortPreset::paper();
        assert!(paper.train_samples > quick.train_samples);
        assert_eq!(quick.pipeline_config().train.epochs, quick.epochs);
    }
}
