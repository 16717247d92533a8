//! Flit-level network-on-chip simulator with a DSENT-style energy model,
//! over pluggable package topologies ([`Topology`]): a single-chip 2-D
//! mesh ([`Mesh2d`]) or a multi-chip module of interposer-linked mesh
//! chiplets ([`McmTopology`]).
//!
//! This crate reconstructs the NoC substrate of the Learn-to-Scale paper
//! ("BookSim2 and DSENT are used to simulate the NoC communication
//! process", Table II): wormhole-switched, input-buffered virtual-channel
//! routers on a 2-D mesh, with
//!
//! * 512-bit flits and 20-flit maximum packets,
//! * dimension-ordered (XY) routing,
//! * 3 virtual channels per port with credit-based flow control,
//! * a 3-stage router pipeline plus single-cycle links (interposer
//!   seams on an MCM price each hop by its [`HopClass`]: wider phits,
//!   slower traversal).
//!
//! Congestion — the effect the paper's communication-aware training
//! attacks — emerges naturally: layer-transition bursts serialize on
//! links, back-pressure through credits, and block upstream routers.
//!
//! [`analytic`] offers a closed-form hop-count model used both as a lower
//! bound in tests and as the cheap cost model inside training-time masks.
//!
//! # Examples
//!
//! ```
//! use lts_noc::{NocConfig, Simulator, traffic::Message};
//!
//! # fn main() -> Result<(), lts_noc::NocError> {
//! let config = NocConfig::paper_16core();
//! let mut sim = Simulator::new(config)?;
//! let report = sim.run(&[Message::new(0, 5, 4096, 0)])?;
//! assert_eq!(report.messages_delivered, 1);
//! assert!(report.makespan > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod analytic;
pub mod config;
pub mod energy;
pub mod fault;
pub mod network;
pub mod packet;
pub mod recovery;
pub mod stats;
pub mod topology;
pub mod traffic;

pub use config::{InterposerConfig, NocConfig, NocError, RoutingPolicy, TopologySpec};
pub use energy::{EnergyModel, EnergyReport};
pub use fault::{FaultModel, RetransmitConfig};
pub use network::Simulator;
pub use recovery::{
    aggregate_chiplet_detections, ChipletDetection, ChipletVerdict, Detection, DetectionCause,
    FaultEvent, FaultEventKind, FaultSchedule, MonitorConfig, RecoverableReport,
};
pub use stats::{FaultStats, PeriodicReport, SimReport};
pub use topology::{HopClass, McmTopology, Mesh2d, Topo, Topology};
