//! Learn-to-Scale: communication-aware parallelization of single-pass CNN
//! inference on chip multiprocessors.
//!
//! This crate is the paper's contribution proper, assembled from the
//! substrate crates:
//!
//! * [`strategy`] — the three parallelization strategies (§IV):
//!   traditional, structure-level (grouping), and communication-aware
//!   sparsified (SS / SS_Mask);
//! * [`pipeline`] — the train → sparsify → prune → fine-tune → quantize
//!   flow that produces CMP-friendly models;
//! * [`precision`] — the f32/i16 deployment-precision knob shared by the
//!   pipelines, the communication-volume model and the benches;
//! * [`system`] — the end-to-end system model: per-layer accelerator
//!   compute latency ([`lts_accel`]) plus flit-level NoC simulation of the
//!   layer-transition bursts ([`lts_noc`]), combined under a barrier
//!   schedule;
//! * [`experiment`] — the evaluation section as one list of named tables
//!   (Tables I, III–VI; Figs. 6–8; the §III motivation claim; two
//!   extensions), each with its renderer and its shape claim as a
//!   predicate over rows;
//! * [`degradation`] — the three-strategy workload ladder the fault and
//!   serving harnesses sweep;
//! * [`fault_matrix`] — the fail-operational extension: one matrix of
//!   (strategy, package, fault) cells with degradation, chaos and
//!   chiplet-loss slices, each with its contract as a predicate over
//!   rows — bounded output loss or a typed error, never a panic or hang;
//! * [`mcm`] — multi-chip-module scale-out: chiplet-count sweeps that
//!   pit stage-pipelined [`lts_partition::McmPlan`] schedules against
//!   whole-network replication for package throughput;
//! * [`simcache`] — cross-sweep NoC simulation memoization: repeated
//!   (config, fault model, trace) triples return the cached, bit-identical
//!   report instead of re-stepping the simulator;
//! * [`recovery`] — *online* fault recovery: mid-inference core or
//!   chiplet deaths detected by heartbeat-deadline arithmetic,
//!   incrementally replanned with [`lts_partition::FailureDomain::replan`]
//!   and resumed on the degraded chip, measured against the oracle static
//!   replan;
//! * [`serve`] — fail-operational online serving: seeded open-loop
//!   request streams, bounded-queue admission with deadline shedding,
//!   layer-group pipelining, SLO-driven strategy switching with
//!   hysteresis, and graceful degradation under mid-stream faults;
//! * [`outcome`] — the typed request/cell outcome vocabulary shared by
//!   the fault matrix and the serving simulator;
//! * [`report`] — ASCII rendering of tables and weight-group matrices.
//!
//! # Examples
//!
//! ```no_run
//! use lts_core::experiment::{table1_rows, EffortPreset};
//!
//! # fn main() -> Result<(), lts_core::CoreError> {
//! for row in table1_rows(16)? {
//!     println!("{}: {} bytes total", row.network, row.total());
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod degradation;
pub mod error;
pub mod experiment;
pub mod fault_matrix;
pub mod mcm;
pub mod outcome;
pub mod pipeline;
pub mod precision;
pub mod recovery;
pub mod report;
pub mod serve;
pub mod simcache;
pub mod strategy;
pub mod system;

pub use degradation::{workloads, Workload};
pub use error::CoreError;
pub use mcm::{scale_chiplets, McmScalingRow, ScaleMode};
pub use outcome::{Outcome, OutcomeHistogram};
pub use precision::Precision;
pub use recovery::{
    boundary_checkpoints, run_with_recovery, BoundaryCheckpoint, InferenceFault, RecoveryEvent,
    RecoveryReport,
};
pub use serve::{
    chiplet_stream_fault, run_serving, service_capacity_rpmc, ArrivalConfig, ArrivalProcess,
    ControllerConfig, ControllerEvent, ServingConfig, ServingReport, ServingStrategy, StreamFault,
};
pub use simcache::SimCacheStats;
pub use strategy::{SparsityScheme, Strategy};
pub use system::{SystemModel, SystemReport};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
