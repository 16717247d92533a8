//! Exact cycle accounting on the `lts-obs` cycle tracks: an instrumented
//! [`SystemModel::evaluate`] of dense LeNet on the paper's 16-core chip
//! emits a `core.evaluate#N` timeline that reconciles with its
//! [`SystemReport`] to the cycle, and the NoC stepper reports its own
//! track. The registries and the enable flag are process-global, so the
//! tests in this binary serialize on one lock.

use lts_core::{simcache, SystemModel, SystemReport};
use lts_nn::descriptor::lenet_spec;
use lts_obs::{CycleTrackRow, Snapshot};
use lts_partition::Plan;
use std::sync::{Mutex, PoisonError};

/// Evaluates dense LeNet on 16 cores with recording on, from an empty
/// simulation cache so that every transition runs the stepper.
fn recorded_evaluate() -> (SystemReport, Snapshot) {
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    simcache::reset();
    lts_obs::reset();
    lts_obs::set_enabled(true);
    let report = SystemModel::paper(16)
        .expect("model")
        .evaluate(&Plan::dense(&lenet_spec(), 16, 2).expect("plan"));
    lts_obs::set_enabled(false);
    (report.expect("evaluate"), lts_obs::snapshot())
}

fn evaluate_track(snap: &Snapshot) -> &CycleTrackRow {
    snap.cycles
        .iter()
        .find(|t| t.track.starts_with("core.evaluate#"))
        .expect("evaluate must emit a core.evaluate#N cycle track")
}

#[test]
fn evaluate_track_and_its_spans_sum_to_the_report_total() {
    let (report, snap) = recorded_evaluate();
    let track = evaluate_track(&snap);
    assert_eq!(track.total_cycles, report.total_cycles);
    let span_sum: u64 = track.spans.iter().map(|s| s.cycles).sum();
    assert_eq!(span_sum, report.total_cycles, "no interval may be dropped at this scale");
}

#[test]
fn evaluate_track_has_comm_and_compute_phases() {
    let (_, snap) = recorded_evaluate();
    let track = evaluate_track(&snap);
    for phase in ["comm", "compute"] {
        assert!(track.spans.iter().any(|s| s.phase == phase), "no {phase} phase: {track:?}");
    }
}

#[test]
fn the_noc_stepper_reports_its_cycle_track() {
    let (_, snap) = recorded_evaluate();
    assert!(
        snap.cycles.iter().any(|t| t.track == "noc.stepper" && t.total_cycles > 0),
        "no noc.stepper track with cycles: {:?}",
        snap.cycles.iter().map(|t| (&t.track, t.total_cycles)).collect::<Vec<_>>()
    );
}
