//! The three-strategy workload ladder every fault and serving harness
//! sweeps: traditional (dense), structure-level (grouped) and the
//! communication-aware sparsified layout, on one chip size.
//!
//! * **traditional** — dense ConvNet; re-sharding over survivors
//!   preserves accuracy, latency and traffic shift with the survivor
//!   count;
//! * **structure** — grouped ConvNet; a dead core takes its channel
//!   groups' output chain with it (the lost-output fraction of
//!   [`lts_partition::Replan`] is the accuracy-degradation proxy);
//! * **sparsified** — dense ConvNet with synthetic SS_Mask-style weights
//!   (producer→consumer groups more than one hop apart are zero), the
//!   communication pattern the paper's mask regularizer converges to.

use crate::Result;
use lts_nn::descriptor::{convnet_spec, NetworkSpec, SpecBuilder};
use lts_noc::{NocConfig, Topology};
use lts_partition::Plan;
use std::collections::HashMap;

/// One strategy's workload: a spec plus (possibly sparse) weights.
/// The fault matrix ([`crate::fault_matrix`]) and the serving simulator
/// ([`crate::serve`]) run it, and so do external benches that sweep the
/// same ladder.
pub struct Workload {
    /// Strategy label: `traditional`, `structure`, `sparsified` or `ss`.
    pub strategy: &'static str,
    /// Workload network name.
    pub network: &'static str,
    /// The network to plan and evaluate.
    pub spec: NetworkSpec,
    /// Per-layer weights; empty for dense strategies.
    pub weights: HashMap<String, Vec<f32>>,
}

/// The CIFAR ConvNet with its deeper convolutions grouped `groups` ways
/// (the §IV-B structure-level layout at chip scale).
fn grouped_convnet_spec(groups: usize) -> NetworkSpec {
    SpecBuilder::new("ConvNet-G", (3, 32, 32))
        .conv("conv1", 32, 5, 1, 2, 1)
        .pool("pool1", 3, 2)
        .relu()
        .conv("conv2", 32, 5, 1, 2, groups)
        .relu()
        .pool("pool2", 3, 2)
        .conv("conv3", 64, 5, 1, 2, groups)
        .relu()
        .pool("pool3", 3, 2)
        .flatten()
        .linear("ip1", 64)
        .linear("ip2", 10)
        .build()
}

/// Synthetic SS_Mask-style weights for `spec` on `cores` cores: every
/// producer→consumer weight group whose cores sit more than one hop
/// apart on the mesh is zeroed, nearby groups stay dense. This is the
/// hop-local communication pattern the paper's mask regularizer learns,
/// reproduced without training.
fn hop_local_weights(spec: &NetworkSpec, cores: usize) -> Result<HashMap<String, Vec<f32>>> {
    let mesh = NocConfig::paper_cores(cores)?.topo();
    masked_weights(spec, cores, |p, c| mesh.distance(p, c) > 1)
}

/// Synthetic weights for `spec` on `cores` cores: every weight is one
/// except in the off-diagonal producer→consumer groups `(p, c)` for which
/// `zeroed(p, c)` holds, which are zero. The first weighted layer reads
/// the replicated input and stays dense.
pub(crate) fn masked_weights(
    spec: &NetworkSpec,
    cores: usize,
    zeroed: impl Fn(usize, usize) -> bool,
) -> Result<HashMap<String, Vec<f32>>> {
    let plan = Plan::dense(spec, cores, 2)?;
    let mut weights = HashMap::new();
    for lp in &plan.layers {
        let Some(layout) = &lp.layout else { continue };
        if lp.traffic.is_empty() {
            // First layer reads the replicated input: leave it dense.
            continue;
        }
        let mut w = vec![1.0f32; layout.weight_len()];
        for (p, c, segment) in layout.row_segments() {
            if p != c && zeroed(p, c) {
                w[segment].fill(0.0);
            }
        }
        weights.insert(lp.spec.name.clone(), w);
    }
    Ok(weights)
}

/// The three-strategy workload ladder on a `cores`-core chip:
/// traditional (dense), structure-level (grouped ConvNet, grouping
/// degree picked to divide the conv channel counts), and the
/// communication-aware sparsified layout (synthetic hop-local SS_Mask
/// weights).
///
/// # Errors
///
/// Propagates plan construction failures from the hop-local weight
/// synthesis (e.g. an unsupported core count).
pub fn workloads(cores: usize) -> Result<Vec<Workload>> {
    let dense = convnet_spec();
    // Grouping degree: the chip size when it divides the conv channel
    // counts, otherwise the largest divisor that does.
    let groups = (1..=cores).rev().find(|g| 32 % g == 0 && 64 % g == 0).unwrap_or(1);
    let sparse_weights = hop_local_weights(&dense, cores)?;
    Ok(vec![
        Workload {
            strategy: "traditional",
            network: "ConvNet",
            spec: dense.clone(),
            weights: HashMap::new(),
        },
        Workload {
            strategy: "structure",
            network: "ConvNet-G",
            spec: grouped_convnet_spec(groups),
            weights: HashMap::new(),
        },
        Workload {
            strategy: "sparsified",
            network: "ConvNet",
            spec: dense,
            weights: sparse_weights,
        },
    ])
}
