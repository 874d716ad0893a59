//! # rfid-repro
//!
//! A from-scratch Rust reproduction of *"Probabilistic Inference over
//! RFID Streams in Mobile Environments"* (Tran, Sutton, Cocci, Nie,
//! Diao, Shenoy — ICDE 2009): translating noisy, incomplete raw streams
//! from mobile RFID readers into clean, precise event streams with
//! object locations, via scalable particle filtering.
//!
//! This umbrella crate re-exports the whole stack; the individual
//! crates can also be used directly:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`geom`] | points, poses, AABBs, 3×3 linear algebra, Gaussians |
//! | [`spatial`] | simplified R\*-tree + sensing-region index (§IV-C) |
//! | [`model`] | the probabilistic data-generation model (§III) |
//! | [`stream`] | raw/clean stream types, epoch sync, CQL-like queries (§II) |
//! | [`sim`] | warehouse & lab simulator producing noisy traces (§V-A/C) |
//! | [`learn`] | Monte-Carlo EM self-calibration (§III-C) |
//! | [`core`] | the particle-filter inference engine (§IV) |
//! | [`baselines`] | SMURF and uniform-sampling baselines (§V) |
//! | [`serve`] | query serving: embedded event store + TCP query server |
//!
//! ## Quickstart
//!
//! ```
//! use rfid_repro::prelude::*;
//!
//! // 1. simulate a small warehouse scan
//! let sc = rfid_repro::sim::scenario::small_trace(8, 4, 42);
//!
//! // 2. run the inference engine over the synchronized epoch stream
//! let model = JointModel::new(ModelParams::default_warehouse());
//! let mut cfg = FilterConfig::full_default();
//! cfg.particles_per_object = 200; // keep the doctest fast
//! let mut engine = InferenceEngine::new(
//!     model,
//!     sc.layout.clone(),
//!     sc.trace.shelf_tags.clone(),
//!     cfg,
//! )
//! .unwrap();
//! let events = run_engine(&mut engine, &sc.trace.epoch_batches());
//!
//! // 3. every object gets a location event
//! assert_eq!(events.len(), 8);
//! ```

pub use rfid_baselines as baselines;
pub use rfid_core as core;
pub use rfid_geom as geom;
pub use rfid_learn as learn;
pub use rfid_model as model;
pub use rfid_serve as serve;
pub use rfid_sim as sim;
pub use rfid_spatial as spatial;
pub use rfid_stream as stream;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use rfid_core::engine::run_engine;
    pub use rfid_core::{CompressionPolicy, FilterConfig, InferenceEngine, ReaderMode};
    pub use rfid_geom::{Aabb, Point3, Pose, Vec3};
    pub use rfid_learn::{calibrate, EmConfig};
    pub use rfid_model::{
        ConeSensor, JointModel, LocationPrior, LogisticSensorModel, ModelParams, ReadRateModel,
        SensorParams,
    };
    pub use rfid_sim::{GroundTruth, SimTrace, TraceGenerator, Trajectory, WarehouseLayout};
    pub use rfid_stream::{
        Epoch, EpochBatch, EventSink, InferenceStage, LocationEvent, Pipeline, PipelineStats,
        ReadingSource, RfidReading, StreamItem, TagId,
    };
}
