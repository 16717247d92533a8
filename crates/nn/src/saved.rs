//! Serializable snapshots of trained networks.
//!
//! `Box<dyn Layer>` cannot derive serde, so persistence goes through
//! [`SavedNetwork`]: the analytic [`NetworkSpec`] plus every layer's
//! parameters and freeze masks, so a saved network is the *deployment*
//! artifact — exactly what would be burned into the accelerator cores'
//! buffers.
//!
//! # Examples
//!
//! ```
//! use lts_nn::models;
//! use lts_nn::saved::SavedNetwork;
//!
//! # fn main() -> Result<(), lts_nn::NnError> {
//! let net = models::mlp(16, 4, 3)?;
//! let saved = SavedNetwork::from_network(&net)?;
//! let json = saved.to_json()?;
//! let restored = SavedNetwork::from_json(&json)?.into_network()?;
//! assert_eq!(
//!     restored.layer_weight("ip1").unwrap().value,
//!     net.layer_weight("ip1").unwrap().value
//! );
//! # Ok(())
//! # }
//! ```

use crate::descriptor::{LayerKind, NetworkSpec};
use crate::network::{Network, NetworkBuilder};
use crate::{NnError, Result};
use lts_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;

/// Magic tag heading every snapshot file; bump on format changes.
const SNAPSHOT_MAGIC: &str = "LTS-SNAPSHOT-V1";

/// FNV-1a 64-bit hash of `bytes` — the snapshot content checksum.
///
/// Public because downstream crates reuse the same content-hash for
/// golden fingerprints and the simulation memoization cache key.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Atomically writes `payload` to `path` under a checksum envelope.
///
/// The file starts with one header line — `LTS-SNAPSHOT-V1 <16-hex
/// fnv-1a-64 of the payload>` — followed by the payload itself. The
/// bytes go to a sibling `<name>.tmp` first and are renamed into place,
/// so a crash mid-write leaves the previous snapshot (or nothing)
/// behind, never a half-written file under the final name.
///
/// # Errors
///
/// Returns [`NnError::SaveFailed`] for paths without a file name and
/// for filesystem errors (the temporary file is removed best-effort if
/// the rename fails).
pub fn write_snapshot_file(path: &Path, payload: &str) -> Result<()> {
    let name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        NnError::SaveFailed(format!("snapshot path `{}` has no file name", path.display()))
    })?;
    let tmp = path.with_file_name(format!("{name}.tmp"));
    let envelope = format!("{SNAPSHOT_MAGIC} {:016x}\n{payload}", fnv1a64(payload.as_bytes()));
    fs::write(&tmp, envelope)
        .map_err(|e| NnError::SaveFailed(format!("cannot write `{}`: {e}", tmp.display())))?;
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        NnError::SaveFailed(format!("cannot move snapshot into `{}`: {e}", path.display()))
    })
}

/// Reads a snapshot file written by [`write_snapshot_file`], verifying
/// the checksum envelope, and returns the payload.
///
/// # Errors
///
/// Returns [`NnError::MalformedSnapshot`] for unreadable files, missing
/// or unrecognized headers, and — most importantly — payloads whose
/// recomputed checksum disagrees with the header: a truncated or
/// bit-flipped snapshot is rejected here instead of deploying a corrupt
/// model.
pub fn read_snapshot_file(path: &Path) -> Result<String> {
    let text = fs::read_to_string(path).map_err(|e| {
        NnError::MalformedSnapshot(format!("cannot read `{}`: {e}", path.display()))
    })?;
    let (header, payload) = text.split_once('\n').ok_or_else(|| {
        NnError::MalformedSnapshot(format!("`{}` has no envelope header line", path.display()))
    })?;
    // Exactly the header `write_snapshot_file` writes: one space, then 16
    // lowercase hex digits, so a bit flip anywhere in it is caught too.
    let declared = header
        .strip_prefix(SNAPSHOT_MAGIC)
        .and_then(|rest| rest.strip_prefix(' '))
        .filter(|hex| {
            hex.len() == 16 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
        })
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| {
            NnError::MalformedSnapshot(format!(
                "`{}` does not start with `{SNAPSHOT_MAGIC} <checksum>`",
                path.display()
            ))
        })?;
    let actual = fnv1a64(payload.as_bytes());
    if actual != declared {
        return Err(NnError::MalformedSnapshot(format!(
            "`{}` checksum mismatch: header says {declared:016x}, payload hashes to \
             {actual:016x} (truncated or corrupted file)",
            path.display()
        )));
    }
    Ok(payload.to_string())
}

/// Checks that a deserialized tensor holds as many entries as its shape
/// promises (the derived `Deserialize` takes shape and data as they come).
///
/// # Errors
///
/// Returns [`NnError::MalformedSnapshot`] naming `layer` and `what` when
/// they differ or the shape's entry count overflows.
pub(crate) fn check_entries(layer: &str, what: &str, t: &Tensor) -> Result<()> {
    let promised = t.shape().dims().iter().try_fold(1usize, |n, &d| n.checked_mul(d));
    if promised == Some(t.len()) {
        return Ok(());
    }
    Err(NnError::MalformedSnapshot(format!(
        "layer `{layer}` {what} has shape {:?} but holds {} entries",
        t.shape().dims(),
        t.len()
    )))
}

/// One layer's persisted parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SavedParams {
    /// Layer name.
    pub layer: String,
    /// Weight tensor.
    pub weight: Tensor,
    /// Bias tensor.
    pub bias: Tensor,
    /// Indices of frozen (pruned) weight entries.
    pub frozen_weight_indices: Vec<usize>,
}

/// A serializable snapshot of a network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SavedNetwork {
    /// The layer-chain description.
    pub spec: NetworkSpec,
    /// Parameters of every weight-bearing layer, in order.
    pub params: Vec<SavedParams>,
}

impl SavedNetwork {
    /// Captures a network's structure and parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::SaveFailed`] when a weight-bearing layer of the
    /// spec cannot be captured (missing from the network, or missing its
    /// weight/bias parameters) — a silently incomplete snapshot would
    /// deploy a wrong model.
    pub fn from_network(net: &Network) -> Result<Self> {
        let spec = net.spec();
        let mut params = Vec::new();
        for l in spec.layers.iter().filter(|l| l.has_weights()) {
            let layer = net.layer(&l.name).ok_or_else(|| {
                NnError::SaveFailed(format!("weight-bearing layer `{}` not in the network", l.name))
            })?;
            let ps = layer.params();
            let (weight, bias) = match (ps.first(), ps.get(1)) {
                (Some(w), Some(b)) => (w, b),
                _ => {
                    return Err(NnError::SaveFailed(format!(
                        "layer `{}` exposes {} parameters, expected weight and bias",
                        l.name,
                        ps.len()
                    )))
                }
            };
            let frozen_weight_indices = weight
                .frozen_mask()
                .map(|mask| mask.iter().enumerate().filter_map(|(i, &f)| f.then_some(i)).collect())
                .unwrap_or_default();
            params.push(SavedParams {
                layer: l.name.clone(),
                weight: weight.value.clone(),
                bias: bias.value.clone(),
                frozen_weight_indices,
            });
        }
        Ok(Self { spec, params })
    }

    /// Checks the snapshot's internal consistency: every weight-bearing
    /// spec layer has exactly one parameter entry (no missing, duplicate
    /// or unknown entries), entries follow spec order, every tensor holds
    /// as many entries as its shape promises, and frozen indices address
    /// real weight entries.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MalformedSnapshot`] describing the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<()> {
        let expected: Vec<&str> =
            self.spec.layers.iter().filter(|l| l.has_weights()).map(|l| l.name.as_str()).collect();
        let got: Vec<&str> = self.params.iter().map(|p| p.layer.as_str()).collect();
        if expected != got {
            return Err(NnError::MalformedSnapshot(format!(
                "parameter entries {got:?} do not match the spec's weight-bearing layers \
                 {expected:?}"
            )));
        }
        for p in &self.params {
            check_entries(&p.layer, "weight", &p.weight)?;
            check_entries(&p.layer, "bias", &p.bias)?;
            let len = p.weight.len();
            if let Some(&bad) = p.frozen_weight_indices.iter().find(|&&i| i >= len) {
                return Err(NnError::MalformedSnapshot(format!(
                    "layer `{}` freezes weight index {bad}, but the weight tensor has only {len} \
                     entries",
                    p.layer
                )));
            }
        }
        Ok(())
    }

    /// Rebuilds a runnable network (fresh momentum/grad state).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MalformedSnapshot`] if the snapshot fails
    /// [`SavedNetwork::validate`], and [`NnError::BadConfig`] if the
    /// rebuilt layers disagree with the persisted parameter shapes.
    pub fn into_network(self) -> Result<Network> {
        self.validate()?;
        let mut builder = NetworkBuilder::new(&self.spec.name, self.spec.input);
        for layer in &self.spec.layers {
            builder = match layer.kind {
                LayerKind::Conv { out_c, kernel, stride, pad, groups } => {
                    builder.conv(&layer.name, out_c, kernel, stride, pad, groups)
                }
                LayerKind::Linear { out_f, .. } => builder.linear(&layer.name, out_f),
                LayerKind::Pool { kernel, stride, average: false } => {
                    builder.pool(&layer.name, kernel, stride)
                }
                LayerKind::Pool { kernel, stride, average: true } => {
                    builder.avg_pool(&layer.name, kernel, stride)
                }
                LayerKind::Activation => builder.relu(),
                LayerKind::Flatten => builder.flatten(),
            };
        }
        // Weights get overwritten below; the init RNG seed is irrelevant.
        let mut rng = lts_tensor::init::rng(0);
        let mut net = builder.build(&mut rng)?;
        for saved in self.params {
            let layer = net.layer_mut(&saved.layer).ok_or_else(|| {
                NnError::BadConfig(format!("snapshot layer `{}` not reconstructible", saved.layer))
            })?;
            let mut params = layer.params_mut();
            if params.len() < 2 {
                return Err(NnError::BadConfig(format!(
                    "snapshot layer `{}` lacks weight/bias parameters",
                    saved.layer
                )));
            }
            if params[0].value.shape() != saved.weight.shape()
                || params[1].value.shape() != saved.bias.shape()
            {
                return Err(NnError::BadConfig(format!(
                    "snapshot layer `{}` parameter shapes disagree with the rebuilt network",
                    saved.layer
                )));
            }
            params[0].value = saved.weight;
            if !saved.frozen_weight_indices.is_empty() {
                params[0].freeze_indices(&saved.frozen_weight_indices);
            }
            params[1].value = saved.bias;
        }
        Ok(net)
    }

    /// Serializes to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::SaveFailed`] if serialization fails (cannot
    /// happen for well-formed snapshots).
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| NnError::SaveFailed(e.to_string()))
    }

    /// Deserializes and validates a snapshot from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MalformedSnapshot`] for unparsable input and
    /// for snapshots that parse but fail [`SavedNetwork::validate`]
    /// (e.g. truncated parameter lists or out-of-range freeze indices).
    pub fn from_json(json: &str) -> Result<Self> {
        let saved: Self =
            serde_json::from_str(json).map_err(|e| NnError::MalformedSnapshot(e.to_string()))?;
        saved.validate()?;
        Ok(saved)
    }

    /// Persists the snapshot to `path` atomically (checksum envelope,
    /// temp-file + rename — see [`write_snapshot_file`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::SaveFailed`] for serialization or filesystem
    /// failures.
    pub fn save_to_file(&self, path: &Path) -> Result<()> {
        write_snapshot_file(path, &self.to_json()?)
    }

    /// Loads and validates a snapshot from a file written by
    /// [`SavedNetwork::save_to_file`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::MalformedSnapshot`] for missing files, bad
    /// envelopes, checksum mismatches, and snapshots that parse but fail
    /// [`SavedNetwork::validate`].
    pub fn load_from_file(path: &Path) -> Result<Self> {
        Self::from_json(&read_snapshot_file(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::GroupLayout;
    use crate::models;
    use crate::prune::{prune_groups, PruneCriterion};
    use lts_tensor::{init, Shape};

    #[test]
    fn roundtrip_preserves_forward_outputs() {
        let net = models::lenet(10, 4).unwrap();
        let x = init::uniform(Shape::d4(2, 1, 28, 28), 1.0, &mut init::rng(1));
        let y1 = net.forward(&x).unwrap();
        let restored = SavedNetwork::from_network(&net).unwrap().into_network().unwrap();
        let y2 = restored.forward(&x).unwrap();
        assert_eq!(y1, y2);
    }

    #[test]
    fn roundtrip_preserves_freeze_masks() {
        let mut net = models::mlp(16, 4, 2).unwrap();
        let layout = GroupLayout::new(304, 512, 1, 4);
        let param = net.layer_weight_mut("ip2").unwrap();
        prune_groups(param, &layout, PruneCriterion::SmallestFraction(0.5)).unwrap();
        let frozen_before = net.layer_weight("ip2").unwrap().frozen_count();
        assert!(frozen_before > 0);
        let restored = SavedNetwork::from_network(&net).unwrap().into_network().unwrap();
        assert_eq!(restored.layer_weight("ip2").unwrap().frozen_count(), frozen_before);
        // Frozen entries are still exactly zero.
        let w = restored.layer_weight("ip2").unwrap();
        for i in 0..w.len() {
            if w.is_frozen(i) {
                assert_eq!(w.value.as_slice()[i], 0.0);
            }
        }
    }

    #[test]
    fn json_roundtrip() {
        let net = models::mlp(16, 4, 9).unwrap();
        let saved = SavedNetwork::from_network(&net).unwrap();
        let json = saved.to_json().unwrap();
        let parsed = SavedNetwork::from_json(&json).unwrap();
        assert_eq!(saved, parsed);
        assert!(matches!(SavedNetwork::from_json("{bad json"), Err(NnError::MalformedSnapshot(_))));
    }

    #[test]
    fn truncated_json_is_a_malformed_snapshot() {
        let net = models::mlp(16, 4, 9).unwrap();
        let json = SavedNetwork::from_network(&net).unwrap().to_json().unwrap();
        let truncated = &json[..json.len() / 2];
        assert!(matches!(SavedNetwork::from_json(truncated), Err(NnError::MalformedSnapshot(_))));
    }

    #[test]
    fn missing_and_unknown_param_entries_fail_validation() {
        let net = models::mlp(16, 4, 9).unwrap();
        let saved = SavedNetwork::from_network(&net).unwrap();
        // Dropping a layer's parameters must be caught...
        let mut missing = saved.clone();
        missing.params.remove(0);
        assert!(matches!(missing.validate(), Err(NnError::MalformedSnapshot(_))));
        assert!(missing.into_network().is_err());
        // ...as must a duplicated entry...
        let mut duplicated = saved.clone();
        let extra = duplicated.params[0].clone();
        duplicated.params.push(extra);
        assert!(matches!(duplicated.validate(), Err(NnError::MalformedSnapshot(_))));
        // ...and an entry for a layer the spec does not know.
        let mut unknown = saved;
        unknown.params[0].layer = "phantom".into();
        assert!(matches!(unknown.validate(), Err(NnError::MalformedSnapshot(_))));
    }

    #[test]
    fn out_of_range_freeze_indices_fail_validation() {
        let net = models::mlp(16, 4, 9).unwrap();
        let mut saved = SavedNetwork::from_network(&net).unwrap();
        let len = saved.params[0].weight.len();
        saved.params[0].frozen_weight_indices.push(len);
        let err = saved.validate().unwrap_err();
        assert!(matches!(err, NnError::MalformedSnapshot(_)));
        assert!(err.to_string().contains("freezes weight index"), "{err}");
        // And the same snapshot round-tripped through JSON is rejected
        // at parse time, before any network is built.
        let net2 = models::mlp(16, 4, 9).unwrap();
        let mut saved2 = SavedNetwork::from_network(&net2).unwrap();
        saved2.params[0].frozen_weight_indices.push(usize::MAX);
        let json = saved2.to_json().unwrap();
        assert!(matches!(SavedNetwork::from_json(&json), Err(NnError::MalformedSnapshot(_))));
        // The original network is untouched and still runs.
        let x = init::uniform(Shape::d2(1, 16), 1.0, &mut init::rng(2));
        assert!(net2.forward(&x).is_ok());
    }

    /// A unique scratch path in the system temp dir (no tempfile dep).
    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lts-saved-{}-{name}", std::process::id()))
    }

    #[test]
    fn file_roundtrip_is_atomic_and_checksummed() {
        let net = models::mlp(16, 4, 9).unwrap();
        let saved = SavedNetwork::from_network(&net).unwrap();
        let path = scratch("roundtrip.snap");
        saved.save_to_file(&path).unwrap();
        // The temp file was renamed away, not left behind.
        assert!(!path.with_file_name("roundtrip.snap.tmp").exists());
        let loaded = SavedNetwork::load_from_file(&path).unwrap();
        assert_eq!(saved, loaded);
        // Saving over an existing snapshot replaces it in one step.
        saved.save_to_file(&path).unwrap();
        assert_eq!(SavedNetwork::load_from_file(&path).unwrap(), saved);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_snapshot_files_are_rejected() {
        let net = models::mlp(16, 4, 9).unwrap();
        let saved = SavedNetwork::from_network(&net).unwrap();
        let path = scratch("corrupt.snap");
        saved.save_to_file(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip one payload byte: checksum must catch it.
        let mut flipped = text.clone().into_bytes();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&path, flipped).unwrap();
        let err = SavedNetwork::load_from_file(&path).unwrap_err();
        assert!(matches!(err, NnError::MalformedSnapshot(_)));
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // Truncation (simulated torn write) is also a checksum mismatch.
        std::fs::write(&path, &text[..text.len() - 40]).unwrap();
        assert!(matches!(SavedNetwork::load_from_file(&path), Err(NnError::MalformedSnapshot(_))));
        // A file with the wrong magic is rejected up front...
        std::fs::write(&path, "BOGUS-MAGIC 0123\n{}").unwrap();
        let err = SavedNetwork::load_from_file(&path).unwrap_err();
        assert!(err.to_string().contains("LTS-SNAPSHOT-V1"), "{err}");
        // ...as is one with no header line at all.
        std::fs::write(&path, "{}").unwrap();
        let err = SavedNetwork::load_from_file(&path).unwrap_err();
        assert!(err.to_string().contains("envelope header"), "{err}");
        // And a missing file is a malformed snapshot, not a panic.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(SavedNetwork::load_from_file(&path), Err(NnError::MalformedSnapshot(_))));
    }

    #[test]
    fn checksum_is_stable_fnv1a() {
        // Pinned vectors so the on-disk format never drifts silently.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn avg_pool_roundtrips_as_avg_pool() {
        let mut rng = init::rng(0);
        let net = NetworkBuilder::new("a", (1, 8, 8))
            .conv("c", 2, 3, 1, 1, 1)
            .avg_pool("ap", 2, 2)
            .flatten()
            .linear("ip", 3)
            .build(&mut rng)
            .unwrap();
        let x = init::uniform(Shape::d4(1, 1, 8, 8), 1.0, &mut init::rng(5));
        let y1 = net.forward(&x).unwrap();
        let restored = SavedNetwork::from_network(&net).unwrap().into_network().unwrap();
        let y2 = restored.forward(&x).unwrap();
        assert_eq!(y1, y2);
        // The spec marks the pool as average.
        let spec = restored.spec();
        assert!(matches!(spec.layer("ap").unwrap().kind, LayerKind::Pool { average: true, .. }));
    }
}
