//! Warehouse and lab-deployment simulator.
//!
//! The paper evaluates on (a) a synthetic warehouse simulator (§V-A) and
//! (b) a physical lab rig (§V-C: two shelves of EPC Gen2 tags scanned by
//! a ThingMagic reader on an iRobot Create). This crate reproduces both
//! as controlled generative processes. Per DESIGN.md §5, the lab rig is
//! hardware we do not have, so [`LabDeployment`] *simulates* its statistically
//! relevant properties: dead-reckoning drift, a spherical antenna
//! pattern, timeout-dependent read rates, 4-inch tag spacing, and five
//! reference tags per shelf.
//!
//! The surface (the `pub use` list below is all of it, one import path
//! per item; only [`scenario`] is named through its module):
//! * [`WarehouseLayout`] — shelf geometry, tag placement, the
//!   uniform-over-shelves location prior.
//! * [`Trajectory`] — per-epoch intended motion of the reader.
//! * [`ReportNoise`] — reader location reporting noise, including an
//!   accumulating dead-reckoning model for the lab.
//! * [`GroundTruth`] — ground-truth object locations and reader poses
//!   per epoch, for error measurement.
//! * [`TraceGenerator`] — turns (layout, trajectory, sensor, noise) into
//!   the two raw streams plus ground truth ([`SimTrace`]).
//! * [`scenario`] — canned configurations matching each experiment of
//!   the paper.
//! * [`LabDeployment`] — the simulated §V-C deployment.

mod generator;
mod lab;
mod layout;
mod noise;
pub mod scenario;
mod source;
mod trajectory;
mod truth;

pub use generator::{MovementEvent, SimTrace, TraceGenerator};
pub use lab::LabDeployment;
pub use layout::{Shelf, WarehouseLayout};
pub use noise::{DeadReckoning, ReportNoise};
pub use source::TraceStream;
pub use trajectory::{Step, Trajectory};
pub use truth::GroundTruth;
