//! Analytic communication-volume model (Table I).
//!
//! Table I of the paper reports the per-layer "data moving size" after
//! partitioning a network over 16 cores the traditional way. Our
//! documented formula: the input activations of a partitioned layer are
//! scattered across all cores, so each producer broadcasts its share to
//! the other `C − 1` cores — `bytes = input_bytes × (C − 1)` at 16-bit
//! precision (this matches the paper's AlexNet conv2/conv4/conv5 entries
//! closely; other entries differ by bookkeeping the paper does not
//! specify — see `EXPERIMENTS.md`).

use crate::plan::{Plan, PlanError};
use lts_nn::descriptor::NetworkSpec;
use serde::{Deserialize, Serialize};

/// One Table I row: a network's per-layer transition volumes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VolumeRow {
    /// Network name.
    pub network: String,
    /// `(layer name, bytes)` for every transition with traffic.
    pub layers: Vec<(String, u64)>,
}

impl VolumeRow {
    /// Total bytes across all transitions.
    pub fn total(&self) -> u64 {
        self.layers.iter().map(|(_, b)| *b).sum()
    }

    /// The volume of `layer`, if it has traffic.
    pub fn layer(&self, name: &str) -> Option<u64> {
        self.layers.iter().find(|(n, _)| n == name).map(|(_, b)| *b)
    }
}

/// Computes the traditional-parallelization volume row for a network.
///
/// # Errors
///
/// Propagates [`PlanError`] from plan construction.
pub fn dense_volumes(spec: &NetworkSpec, cores: usize) -> Result<VolumeRow, PlanError> {
    let plan = Plan::dense(spec, cores, 2)?;
    Ok(VolumeRow { network: spec.name.clone(), layers: plan.traffic_by_layer() })
}

/// Formats bytes the way Table I does (K = KiB, M = MiB, rounded).
pub fn format_bytes(bytes: u64) -> String {
    const K: f64 = 1024.0;
    const M: f64 = 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= M {
        format!("{:.1}M", b / M)
    } else if b >= K {
        format!("{:.0}K", b / K)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_nn::descriptor::{alexnet_spec, lenet_spec, mlp_spec, vgg19_spec};

    #[test]
    fn alexnet_conv_rows_match_paper_scale() {
        // Paper Table I (AlexNet): conv2 2M, conv4 1.8M, conv5 1.8M.
        let row = dense_volumes(&alexnet_spec(), 16).unwrap();
        let conv2 = row.layer("conv2").unwrap();
        assert_eq!(conv2, 96 * 27 * 27 * 2 * 15);
        let m = 1024 * 1024;
        assert!((conv2 as f64 / m as f64 - 2.0).abs() < 0.1, "conv2 = {}", format_bytes(conv2));
        let conv4 = row.layer("conv4").unwrap();
        assert!((conv4 as f64 / m as f64 - 1.86).abs() < 0.1, "conv4 = {}", format_bytes(conv4));
    }

    #[test]
    fn volumes_shrink_deeper_into_alexnet() {
        let row = dense_volumes(&alexnet_spec(), 16).unwrap();
        assert!(row.layer("conv2").unwrap() > row.layer("ip1").unwrap());
        assert!(row.layer("ip1").unwrap() > row.layer("ip3").unwrap());
    }

    #[test]
    fn vgg_dwarfs_alexnet_dwarfs_lenet() {
        let vgg = dense_volumes(&vgg19_spec(), 16).unwrap().total();
        let alex = dense_volumes(&alexnet_spec(), 16).unwrap().total();
        let lenet = dense_volumes(&lenet_spec(), 16).unwrap().total();
        let mlp = dense_volumes(&mlp_spec(), 16).unwrap().total();
        assert!(vgg > 5 * alex, "VGG {} vs AlexNet {}", vgg, alex);
        assert!(alex > 10 * lenet);
        assert!(lenet > mlp);
    }

    #[test]
    fn format_bytes_uses_table_units() {
        assert_eq!(format_bytes(512), "512B");
        assert_eq!(format_bytes(57 * 1024), "57K");
        assert_eq!(format_bytes(2 * 1024 * 1024), "2.0M");
    }

    #[test]
    fn first_layers_never_appear() {
        let row = dense_volumes(&alexnet_spec(), 16).unwrap();
        assert!(row.layer("conv1").is_none());
    }

    #[test]
    fn format_bytes_switches_units_at_the_binary_boundaries() {
        assert_eq!(format_bytes(0), "0B");
        assert_eq!(format_bytes(1023), "1023B");
        assert_eq!(format_bytes(1024), "1K");
        assert_eq!(format_bytes(1024 * 1024 - 1), "1024K");
        assert_eq!(format_bytes(1024 * 1024), "1.0M");
        assert_eq!(format_bytes(1536 * 1024), "1.5M");
    }

    #[test]
    fn one_core_moves_no_data() {
        let row = dense_volumes(&lenet_spec(), 1).unwrap();
        assert_eq!(row.total(), 0, "{row:?}");
        assert_eq!(row.network, lenet_spec().name);
    }

    #[test]
    fn total_sums_the_rows_and_lookup_misses_unknown_layers() {
        let row =
            VolumeRow { network: "toy".into(), layers: vec![("a".into(), 10), ("b".into(), 32)] };
        assert_eq!(row.total(), 42);
        assert_eq!(row.layer("b"), Some(32));
        assert_eq!(row.layer("c"), None);
        assert_eq!(VolumeRow { network: "none".into(), layers: vec![] }.total(), 0);
    }

    #[test]
    fn zero_cores_is_a_typed_error() {
        assert!(dense_volumes(&lenet_spec(), 0).is_err());
    }
}
