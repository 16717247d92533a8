//! `noc_sweep`: plan and simulate fixed design points with no training.
//! Each item builds one plan and evaluates it; the pass starts on a cold
//! cache. The grid does not depend on the seed.

use crate::harness::{Error, Workload};
use crate::metrics::{Checks, Metrics, FORWARD_LAYERS, STRATEGIES};
use crate::sim;
use lts_core::{Precision, SystemModel, SystemReport};
use lts_nn::descriptor::alexnet_spec;
use lts_nn::NetworkSpec;
use lts_noc::NocConfig;
use lts_partition::Plan;
use std::collections::HashMap;

/// One design point.
struct Point {
    label: String,
    spec: NetworkSpec,
    cores: usize,
    /// Layer weights whose zero blocks the plan skips; empty = dense.
    weights: HashMap<String, Vec<f32>>,
    model: SystemModel,
}

/// One evaluated design point.
#[derive(Debug, PartialEq)]
pub struct Evaluated {
    plan: Plan,
    report: SystemReport,
}

pub struct NocSweep {
    points: Vec<Point>,
}

fn point(
    label: String,
    spec: NetworkSpec,
    cores: usize,
    weights: HashMap<String, Vec<f32>>,
) -> Result<Point, Error> {
    Ok(Point { label, spec, cores, weights, model: SystemModel::paper(cores)? })
}

/// A dense design point on `chiplets` chiplets of `per_chiplet` cores.
fn package(
    label: &str,
    spec: NetworkSpec,
    chiplets: usize,
    per_chiplet: usize,
) -> Result<Point, Error> {
    Ok(Point {
        label: label.into(),
        spec,
        cores: chiplets * per_chiplet,
        weights: HashMap::new(),
        model: SystemModel::paper_mcm(chiplets, per_chiplet)?,
    })
}

impl NocSweep {
    fn index(&self, label: &str) -> Option<usize> {
        self.points.iter().position(|p| p.label == label)
    }
}

impl Workload for NocSweep {
    type Out = Evaluated;

    fn setup(_seed: u64, smoke: bool) -> Result<Self, Error> {
        // The three-strategy ConvNet ladder spans chip sizes; AlexNet adds
        // congested dense bursts beside a hop-local (SS_Mask-pattern)
        // trace, and two multi-chip packages put traffic on the seams.
        let ladder: &[usize] = if smoke { &[4, 16] } else { &[4, 8, 16, 32, 64] };
        let mut points = Vec::new();
        for &c in ladder {
            for w in lts_core::workloads(c)? {
                points.push(point(format!("convnet.{}.c{c}", w.strategy), w.spec, c, w.weights)?);
            }
        }
        let convnet = lts_nn::descriptor::convnet_spec();
        points.push(package("convnet.traditional.mcm2x16", convnet, 2, 16)?);
        if !smoke {
            let alexnet = alexnet_spec();
            for c in [4, 16] {
                points.push(point(
                    format!("alexnet.dense.c{c}"),
                    alexnet.clone(),
                    c,
                    HashMap::new(),
                )?);
            }
            let weights = sim::hop_local_weights(&alexnet, 16)?;
            points.push(point("alexnet.hop_local.c16".into(), alexnet.clone(), 16, weights)?);
            points.push(package("alexnet.dense.mcm4x4", alexnet, 4, 4)?);
        }
        Ok(NocSweep { points })
    }

    fn items(&self) -> usize {
        self.points.len()
    }

    fn run_item(&mut self, i: usize) -> Result<Evaluated, Error> {
        let p = &self.points[i];
        let plan = {
            let _span = lts_obs::span("bench.plan");
            Plan::build(&p.spec, p.cores, &p.weights, Precision::I16.bytes_per_value())?
        };
        let report = {
            let _span = lts_obs::span("bench.evaluate");
            p.model.evaluate(&plan)?
        };
        Ok(Evaluated { plan, report })
    }

    fn check(&self, outs: &[Evaluated], checks: &mut Checks) {
        for (p, e) in self.points.iter().zip(outs) {
            sim::check_report(&p.label, &e.report, checks);
            let multi_chip = p.model.noc_config().chiplets() > 1;
            checks.check((e.report.inter_chip_traversals > 0) == multi_chip, || {
                format!("{}: {} seam crossings", p.label, e.report.inter_chip_traversals)
            });
        }
        // Communication-aware layouts must cut traffic against the dense
        // layout of the same network on the same chip.
        let traffic = |label: &str| self.index(label).map(|i| outs[i].report.traffic_bytes);
        let mut pairs = Vec::new();
        for c in [4, 8, 16, 32, 64] {
            for strategy in ["structure", "sparsified"] {
                pairs.push((
                    format!("convnet.{strategy}.c{c}"),
                    format!("convnet.traditional.c{c}"),
                ));
            }
        }
        pairs.push(("alexnet.hop_local.c16".into(), "alexnet.dense.c16".into()));
        for (lean, dense) in pairs {
            if let (Some(l), Some(d)) = (traffic(&lean), traffic(&dense)) {
                checks
                    .check(l < d, || format!("{lean} moves {l} B, not less than {dense}'s {d} B"));
            }
        }
    }

    fn sim_latency_kcycles(&self, outs: &[Evaluated]) -> f64 {
        sim::mean_kcycles(outs.iter().map(|e| &e.report))
    }

    fn per_layer(&self, outs: &[Evaluated], m: &mut Metrics) {
        sim::add_totals(outs.iter().map(|e| &e.report), m);
        for strategy in STRATEGIES {
            let Some(i) = self.index(&format!("convnet.{strategy}.c16")) else { continue };
            for row in
                outs[i].report.layers.iter().filter(|l| FORWARD_LAYERS.contains(&l.name.as_str()))
            {
                let prefix = format!("sim.convnet16.{strategy}.{}", row.name);
                m.set(format!("{prefix}.compute_cycles"), row.compute_cycles as f64);
                m.set(format!("{prefix}.comm_cycles"), row.comm_cycles as f64);
            }
        }
    }

    fn plans<'a>(&'a self, outs: &'a [Evaluated]) -> Vec<(NocConfig, &'a Plan, &'a SystemReport)> {
        self.points
            .iter()
            .zip(outs)
            .map(|(p, e)| (*p.model.noc_config(), &e.plan, &e.report))
            .collect()
    }
}
