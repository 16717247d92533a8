//! Corrupt-input robustness: truncated and bit-flipped `LTS-SNAPSHOT-V1`
//! files and JSON texts are typed errors, never panics.
//!
//! A corrupted snapshot file must fail its checksum. A payload corrupted
//! before it was enveloped (so its checksum holds) and a corrupted JSON
//! text in general must still parse to a value or fail with a typed error,
//! and a parsed snapshot must rebuild a network or fail the same way.

use lts_nn::network::NetworkBuilder;
use lts_nn::saved::{read_snapshot_file, write_snapshot_file, SavedNetwork};
use lts_nn::NnError;
use lts_tensor::init;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A small trained-shape network's snapshot JSON: a conv, a pool and a
/// linear layer, one weight frozen.
fn snapshot_json() -> String {
    let mut rng = init::rng(5);
    let net = NetworkBuilder::new("tiny", (1, 6, 6))
        .conv("conv1", 2, 3, 1, 1, 1)
        .relu()
        .pool("pool1", 2, 2)
        .flatten()
        .linear("ip1", 4)
        .build(&mut rng)
        .expect("network");
    let mut saved = SavedNetwork::from_network(&net).expect("snapshot");
    saved.params[0].frozen_weight_indices = vec![3];
    saved.to_json().expect("json")
}

/// A JSON text with every kind of value: nested maps and sequences,
/// escaped and non-ASCII strings, signed, unsigned and float numbers,
/// booleans and null.
fn mixed_json() -> String {
    let mut map = BTreeMap::new();
    map.insert("name \"quoted\"\n\u{e9}\u{1f600}".to_string(), vec![-3i64, 0, 7]);
    map.insert("empty".to_string(), Vec::new());
    let value = (map, vec![(1.5f64, true), (-2e-3, false)], Some(u64::MAX), None::<String>);
    serde_json::to_string(&value).expect("json")
}

type Mixed = (BTreeMap<String, Vec<i64>>, Vec<(f64, bool)>, Option<u64>, Option<String>);

/// `bytes` with bit `bit` of byte `at` flipped.
fn flip(bytes: &[u8], at: usize, bit: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at] ^= 1 << bit;
    out
}

/// A scratch file of its own (cases may run concurrently) that is
/// removed when dropped.
struct TempFile(PathBuf);

impl TempFile {
    fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("lts-corrupt-{}-{n}.snap", std::process::id());
        TempFile(std::env::temp_dir().join(name))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Parses `text` as a snapshot and rebuilds it: either step may fail, but
/// only with a typed error.
fn load(text: &str) -> Result<(), NnError> {
    SavedNetwork::from_json(text)?.into_network().map(drop)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn corrupted_snapshot_files_fail_their_checksum(
        cut in 0.0f64..1.0,
        at in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let json = snapshot_json();
        let file = TempFile::new();
        write_snapshot_file(&file.0, &json).expect("write");
        let good = std::fs::read(&file.0).expect("read");
        prop_assert!(SavedNetwork::load_from_file(&file.0).is_ok());

        let truncated = &good[..(cut * good.len() as f64) as usize];
        std::fs::write(&file.0, truncated).expect("write");
        let err = read_snapshot_file(&file.0).unwrap_err();
        prop_assert!(matches!(err, NnError::MalformedSnapshot(_)), "{}", err);
        prop_assert!(SavedNetwork::load_from_file(&file.0).is_err());

        let flipped = flip(&good, (at * good.len() as f64) as usize, bit);
        std::fs::write(&file.0, flipped).expect("write");
        let err = read_snapshot_file(&file.0).unwrap_err();
        prop_assert!(matches!(err, NnError::MalformedSnapshot(_)), "{}", err);
        prop_assert!(SavedNetwork::load_from_file(&file.0).is_err());
    }

    #[test]
    fn corrupted_snapshot_payloads_are_typed_errors(
        cut in 0.0f64..1.0,
        at in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        // Corrupted before enveloping: the checksum holds, so the parser,
        // the snapshot validation and the rebuild meet the damage.
        let json = snapshot_json();
        let truncated = &json[..json.floor_char_boundary((cut * json.len() as f64) as usize)];
        prop_assert!(load(truncated).is_err(), "a truncated snapshot cannot be complete");
        let flipped = flip(json.as_bytes(), (at * json.len() as f64) as usize, bit);
        let Ok(flipped) = String::from_utf8(flipped) else { return };
        let file = TempFile::new();
        write_snapshot_file(&file.0, &flipped).expect("write");
        let _typed: Result<(), NnError> =
            SavedNetwork::load_from_file(&file.0).and_then(|s| s.into_network().map(drop));
    }

    #[test]
    fn corrupted_json_texts_are_typed_errors(
        cut in 0.0f64..1.0,
        at in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let json = mixed_json();
        prop_assert!(serde_json::from_str::<Mixed>(&json).is_ok());
        let end = json.floor_char_boundary((cut * json.len() as f64) as usize);
        prop_assert!(serde_json::from_str::<Mixed>(&json[..end]).is_err());
        let flipped = flip(json.as_bytes(), (at * json.len() as f64) as usize, bit);
        if let Ok(text) = String::from_utf8(flipped) {
            let _typed = serde_json::from_str::<Mixed>(&text);
            let _typed = serde_json::from_str::<SavedNetwork>(&text);
        }
    }
}

#[test]
fn deeply_nested_json_is_a_typed_error() {
    let deep = "[".repeat(100_000);
    assert!(serde_json::from_str::<Vec<u64>>(&deep).is_err());
    let deep = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
    assert!(serde_json::from_str::<Vec<u64>>(&deep).is_err());
}

#[test]
fn inconsistent_tensor_shapes_are_malformed_snapshots() {
    // A weight whose shape promises more entries than it holds, and one
    // whose shape's entry count overflows.
    let json = snapshot_json();
    let grown = json.replacen("\"dims\":[2,1,3,3]", "\"dims\":[3,1,3,3]", 1);
    assert_ne!(grown, json, "the conv weight shape is in the text");
    let err = SavedNetwork::from_json(&grown).unwrap_err();
    assert!(matches!(err, NnError::MalformedSnapshot(_)), "{err}");
    let huge = json.replacen("\"dims\":[2,1,3,3]", "\"dims\":[18446744073709551615,2,1,1]", 1);
    let err = SavedNetwork::from_json(&huge).unwrap_err();
    assert!(matches!(err, NnError::MalformedSnapshot(_)), "{err}");
}
