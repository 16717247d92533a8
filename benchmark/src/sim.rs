//! Helpers shared by the workloads that plan and evaluate networks:
//! report consistency checks, simulated totals, and the hop-local weights
//! that give a dense network the SS_Mask communication pattern.

use crate::harness::Error;
use crate::metrics::{Checks, Metrics};
use lts_core::{Precision, SystemReport};
use lts_nn::NetworkSpec;
use lts_noc::{NocConfig, Topology};
use lts_partition::Plan;
use std::collections::HashMap;

/// Checks that a report's per-layer rows sum exactly to its totals and
/// that its latency is compute plus communication.
pub fn check_report(label: &str, r: &SystemReport, checks: &mut Checks) {
    let sum = |f: fn(&lts_core::system::LayerBreakdown) -> u64| r.layers.iter().map(f).sum::<u64>();
    checks
        .check(sum(|l| l.compute_cycles) == r.compute_cycles, || format!("{label}: compute rows"));
    checks.check(sum(|l| l.comm_cycles) == r.comm_cycles, || format!("{label}: comm rows"));
    checks.check(sum(|l| l.traffic_bytes) == r.traffic_bytes, || format!("{label}: traffic rows"));
    checks.check(r.total_cycles == r.compute_cycles + r.comm_cycles, || format!("{label}: total"));
    // The model accumulates energies in layer order, so the row sums
    // reproduce the totals bit for bit.
    let compute_pj = r.layers.iter().fold(0.0, |a, l| a + l.compute_energy_pj);
    let noc_pj = r.layers.iter().fold(0.0, |a, l| a + l.noc_energy_pj);
    checks.check(compute_pj == r.compute_energy_pj, || format!("{label}: compute energy rows"));
    checks.check(noc_pj == r.noc_energy_pj, || format!("{label}: NoC energy rows"));
    checks.check(r.total_cycles > 0, || format!("{label}: zero latency"));
}

/// Adds the simulated totals of `reports` to the `sim.*`, `noc.*` and
/// `partition.*` per-layer metrics.
pub fn add_totals<'a>(reports: impl IntoIterator<Item = &'a SystemReport>, m: &mut Metrics) {
    for r in reports {
        m.add("sim.cycles", r.total_cycles as f64);
        m.add("sim.compute_cycles", r.compute_cycles as f64);
        m.add("sim.energy_uj", r.total_energy_pj() / 1e6);
        m.add("noc.comm_cycles", r.comm_cycles as f64);
        m.add("noc.energy_uj", r.noc_energy_pj / 1e6);
        m.add("partition.traffic_bytes", r.traffic_bytes as f64);
        let blocked: u64 = r.layers.iter().map(|l| l.blocked_flit_cycles).sum();
        m.add("noc.blocked_flit_cycles", blocked as f64);
    }
}

/// Mean single-pass latency of `reports`, in kilocycles.
pub fn mean_kcycles<'a>(reports: impl IntoIterator<Item = &'a SystemReport>) -> f64 {
    let (sum, n) = reports.into_iter().fold((0u64, 0u64), |(s, n), r| (s + r.total_cycles, n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64 / 1e3
    }
}

/// Weights for `spec` on a `cores`-core mesh in which every
/// producer→consumer block between cores more than one hop apart is zero
/// and every other weight is one: the hop-local pattern the SS_Mask
/// regularizer converges to, without training. The first weighted layer
/// reads the replicated input and stays dense.
pub fn hop_local_weights(
    spec: &NetworkSpec,
    cores: usize,
) -> Result<HashMap<String, Vec<f32>>, Error> {
    let mesh = NocConfig::paper_cores(cores)?.topo();
    let plan = Plan::dense(spec, cores, Precision::I16.bytes_per_value())?;
    let mut weights = HashMap::new();
    for lp in &plan.layers {
        let Some(layout) = &lp.layout else { continue };
        if lp.traffic.is_empty() {
            continue;
        }
        let mut w = vec![1.0f32; layout.weight_len()];
        for p in 0..cores {
            for c in 0..cores {
                if p != c && mesh.distance(p, c) > 1 {
                    layout.visit_group(p, c, |idx| w[idx] = 0.0);
                }
            }
        }
        weights.insert(lp.spec.name.clone(), w);
    }
    Ok(weights)
}
