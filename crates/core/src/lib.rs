//! Scalable particle-filter inference over mobile RFID streams — the
//! paper's primary contribution (§IV).
//!
//! The input is the synchronized epoch stream of [`rfid_stream`]; the
//! output is the clean location-event stream applications query. Four
//! inference strategies are provided, matching the four curves of the
//! scalability study (Fig. 5(i)/(j)):
//!
//! * [`BasicParticleFilter`] — textbook (unfactorized) particle
//!   filtering over the joint state of the reader and *all* objects.
//!   Needs a number of particles exponential-ish in the object count;
//!   kept as the baseline.
//! * [`ObjectFilter`] / [`ReaderFilter`] — **particle factorization**
//!   (§IV-B): reader particles and per-object particles with factored
//!   weights (Eq. 5), combined through pointers from object particles
//!   to reader particles.
//! * **spatial indexing** (§IV-C): a region index over
//!   past sensing areas restricts each epoch's work to objects read now
//!   (Case 1) or read before near the current location (Case 2).
//! * [`CompressedBelief`] — **belief compression** (§IV-D): per-object
//!   particle clouds that have stabilized are collapsed into 3-D
//!   Gaussians — nine numbers, a mean and a covariance's lower
//!   triangle, 80 bytes — and re-expanded with far fewer particles when
//!   the object is encountered again (selective Boyen–Koller).
//!
//! [`InferenceEngine`] wires everything together behind one
//! `process_batch` API and applies the output policy of §II-A.
//!
//! Public is what another crate, a test, a bench or the benchmark
//! names, and each item has one import path: the engine, its
//! configuration ([`FilterConfig`] and the constants the paper fixes)
//! and the step's parts are the `pub use` list below; the batch driver,
//! checkpoints and the cluster split are named through [`engine`]
//! (`engine::run_engine`, `engine::checkpoint`, `engine::cluster`).

mod basic;
mod compression;
mod config;
pub mod engine;
mod error;
mod exec;
mod factored;
mod output;
mod particle;
mod spatial_hook;

pub use basic::BasicParticleFilter;
pub use config::{
    CompressionPolicy, FilterConfig, ReaderMode, DECOMPRESSED_PARTICLES, INIT_CONE_HALF_ANGLE,
    MAX_INIT_RANGE, RESPAWN_DISTANCE, SMALL_MOVE_DISTANCE,
};
pub use engine::{EngineStats, InferenceEngine};
pub use error::ConfigError;
// test-support surface: the step's parts, named by this crate's
// integration tests and `bench_step` (and by `rfid_cluster::proto` for
// the resample directive's payload)
pub use compression::CompressedBelief;
pub use exec::StepScratch;
pub use factored::{
    sample_cone, sample_cone_in_prior, ObjectFilter, ReaderFilter, ReaderRemap, ReaderTables,
    StepOutcome,
};
pub use particle::{
    log_normalize, log_normalize_exp, ObjectParticle, ParticleSoa, ReaderParticle, XyBounds,
};
pub use spatial_hook::Reach;
