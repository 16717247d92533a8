//! `infer_sparse`: the deployment forward path. A CIFAR ConvNet whose
//! weights carry the hop-local zero blocks of a 16-core SS_Mask layout
//! classifies synthetic images in batches, through the calibrated i16
//! network and the f32 network in turn. The first item plans the
//! deployment and simulates one inference.

use crate::harness::{Error, Workload};
use crate::metrics::{Checks, Metrics};
use crate::sim;
use lts_core::pipeline::{calibration_batch, plan_for_precision};
use lts_core::{Precision, SystemModel, SystemReport};
use lts_datasets::presets;
use lts_nn::{models, Network, QuantizedNetwork};
use lts_noc::{NocConfig, Topology};
use lts_partition::Plan;
use lts_tensor::{Shape, Tensor};

const CORES: usize = 16;
const BATCH: usize = 16;

/// Output of one item.
#[derive(Debug, PartialEq)]
pub enum Out {
    /// The deployment's plan and simulated inference.
    Deployed { plan: Plan, report: SystemReport },
    /// Predicted classes of one batch.
    Predictions(Vec<usize>),
}

pub struct InferSparse {
    f32_net: Network,
    i16_net: QuantizedNetwork,
    batches: Vec<Tensor>,
    model: SystemModel,
}

impl InferSparse {
    /// Pairs each batch's i16 predictions with its f32 ones.
    fn prediction_pairs(outs: &[Out]) -> impl Iterator<Item = (&[usize], &[usize])> {
        outs[1..].chunks(2).filter_map(|pair| match pair {
            [Out::Predictions(q), Out::Predictions(f)] => Some((q.as_slice(), f.as_slice())),
            _ => None,
        })
    }

    fn agreement(outs: &[Out]) -> f64 {
        let (same, total) = Self::prediction_pairs(outs).fold((0, 0), |(s, t), (q, f)| {
            (s + q.iter().zip(f).filter(|(a, b)| a == b).count(), t + q.len())
        });
        if total == 0 {
            0.0
        } else {
            same as f64 / total as f64
        }
    }

    fn deployed(outs: &[Out]) -> Option<(&Plan, &SystemReport)> {
        match outs.first() {
            Some(Out::Deployed { plan, report }) => Some((plan, report)),
            _ => None,
        }
    }
}

impl Workload for InferSparse {
    type Out = Out;

    fn setup(seed: u64, smoke: bool) -> Result<Self, Error> {
        let images = if smoke { 64 } else { 1024 };
        let data = presets::synth_cifar10(images, BATCH, seed);
        let mut f32_net = models::convnet(10, seed)?;
        for (layer, mask) in sim::hop_local_weights(&f32_net.spec(), CORES)? {
            let param = f32_net.layer_weight_mut(&layer).ok_or("masked layer missing")?;
            for (w, keep) in param.value.as_mut_slice().iter_mut().zip(mask) {
                *w *= keep;
            }
        }
        let i16_net = QuantizedNetwork::from_network(&f32_net, &calibration_batch(&data)?)?;
        let (c, h, w) = data.train.image_dims();
        let per_batch = BATCH * c * h * w;
        let batches = data
            .train
            .images
            .as_slice()
            .chunks_exact(per_batch)
            .map(|chunk| Tensor::from_vec(Shape::d4(BATCH, c, h, w), chunk.to_vec()))
            .collect::<Result<_, _>>()?;
        Ok(InferSparse { f32_net, i16_net, batches, model: SystemModel::paper(CORES)? })
    }

    fn items(&self) -> usize {
        1 + 2 * self.batches.len()
    }

    fn run_item(&mut self, i: usize) -> Result<Out, Error> {
        if i == 0 {
            let plan = {
                let _span = lts_obs::span("bench.plan");
                plan_for_precision(&self.f32_net, CORES, true, true, Precision::I16)?
            };
            let report = {
                let _span = lts_obs::span("bench.evaluate");
                self.model.evaluate(&plan)?
            };
            return Ok(Out::Deployed { plan, report });
        }
        let batch = &self.batches[(i - 1) / 2];
        let predictions = if i % 2 == 1 {
            let _span = lts_obs::span("bench.infer_i16");
            self.i16_net.predict(batch)?
        } else {
            let _span = lts_obs::span("bench.infer_f32");
            self.f32_net.predict(batch)?
        };
        Ok(Out::Predictions(predictions))
    }

    fn check(&self, outs: &[Out], checks: &mut Checks) {
        let Some((plan, report)) = Self::deployed(outs) else {
            checks.check(false, || "the first item is not the deployment".into());
            return;
        };
        sim::check_report("deployment", report, checks);
        // The hop-local zero blocks leave only neighbour traffic.
        let mesh = self.model.noc_config().topo();
        let far = plan
            .layers
            .iter()
            .flat_map(|l| &l.traffic.messages)
            .filter(|m| mesh.distance(m.src, m.dst) > 1)
            .count();
        checks.check(far == 0, || format!("{far} deployment messages travel more than one hop"));
        checks.check(report.traffic_bytes > 0, || "the deployment moves no data".into());
        let pairs = Self::prediction_pairs(outs).count();
        checks.check(pairs == self.batches.len(), || format!("{pairs} prediction pairs"));
        // Calibrated i16 inference must track the f32 network it was
        // quantized from.
        let agreement = Self::agreement(outs);
        checks.check(agreement >= 0.9, || format!("i16 and f32 agree on {agreement} of images"));
    }

    fn sim_latency_kcycles(&self, outs: &[Out]) -> f64 {
        sim::mean_kcycles(Self::deployed(outs).map(|(_, r)| r))
    }

    fn per_layer(&self, outs: &[Out], m: &mut Metrics) {
        sim::add_totals(Self::deployed(outs).map(|(_, r)| r), m);
        m.set("nn.i16_agreement", Self::agreement(outs));
    }

    fn plans<'a>(&'a self, outs: &'a [Out]) -> Vec<(NocConfig, &'a Plan, &'a SystemReport)> {
        Self::deployed(outs).map(|(p, r)| (*self.model.noc_config(), p, r)).into_iter().collect()
    }
}
