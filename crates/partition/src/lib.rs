//! Layer-to-core mapping, distance masks, and NoC traffic generation.
//!
//! This crate is the bridge between the neural network ([`lts_nn`]) and
//! the hardware models (`lts-accel`/[`lts_noc`]): it decides which core
//! owns which output channels/neurons of every layer, derives the
//! producer→consumer block layouts that group-Lasso training regularizes,
//! builds the hop-distance strength masks of the SS_Mask scheme
//! (Fig. 6(a)), and turns a (possibly sparsified) network into the
//! per-layer-transition message traces the NoC simulator executes.
//!
//! The central invariant: **input-unit ownership follows the previous
//! layer's output partition**. [`ownership`] tracks activation ownership
//! through pooling/activation/flatten so that both the regularizer masks
//! and the traffic traces agree on who must send what to whom.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod comm;
pub mod distance;
pub mod domain;
pub mod mcm;
pub mod ownership;
pub mod plan;
pub mod traffic;

pub use distance::{hop_mask, hop_power_mask, two_level_mask};
pub use domain::{FailureDomain, LostGroups, Replan};
pub use mcm::{group_occupancy, partition_stages, McmPlan, StagePipeline, StagePlacement};
pub use ownership::OwnershipMap;
pub use plan::{LayerPlan, Plan, PlanError};
