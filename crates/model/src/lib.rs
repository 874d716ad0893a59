//! The probabilistic data-generation model of §III.
//!
//! The world is a dynamic Bayesian network over hidden reader poses
//! `R_t`, hidden object locations `O_{t,i}`, observed (noisy) reader
//! location reports `R̂_t`, and binary tag readings `Ô_{t,i}` /
//! `Ŝ_{t,i}`. The joint factorizes as Eq. 2 of the paper:
//!
//! ```text
//! p(R, R̂, O, Ô | S) = p(R_1, O_1) Π_t p(R_t | R_{t-1}) p(R̂_t | R_t)
//!     × Π_{i∈O} p(O_{t,i} | O_{t-1,i}) p(Ô_{t,i} | R_t, O_{t,i})
//!     × Π_{i∈S} p(Ŝ_{t,i} | R_t, S_i)
//! ```
//!
//! The four components are:
//!
//! * [`LogisticSensorModel`] — the parametric RFID **sensor model** `p(Ô | d, θ)`
//!   (Eq. 1): logistic regression in distance and angle, the same model
//!   for object tags and shelf tags. Ground-truth generative sensor
//!   shapes used by the simulator ([`ConeSensor`], [`SphericalSensor`])
//!   implement the same [`ReadRateModel`] so learned models can be
//!   compared against them.
//! * [`MotionModel`] — the **reader motion model**
//!   `R_t = R_{t-1} + Δ + ε`, `ε ~ N(0, Σ_m)`.
//! * [`LocationSensingModel`] — the **reader location sensing model**
//!   `R̂_t = R_t + η`, `η ~ N(µ_s, Σ_s)` (dead-reckoning drift).
//! * [`ObjectLocationModel`] — the **object location model**: stationary objects that
//!   move with probability `α` per epoch to a uniform location over the
//!   shelf space (the [`LocationPrior`] abstraction).
//!
//! [`ModelParams`] aggregates every learnable parameter;
//! [`JointModel`] bundles the components and exposes the local
//! conditional log-densities the particle filter weights with.

mod dbn;
mod motion;
mod object;
mod params;
mod sensing;
mod sensor;

pub use dbn::JointModel;
pub use motion::MotionModel;
pub use object::{BoxPrior, LocationPrior, MultiBoxPrior, ObjectLocationModel};
pub use params::{ModelParams, MotionParams, ObjectParams, SensingParams, SensorParams};
pub use sensing::LocationSensingModel;
pub use sensor::{
    sigmoid, Classified, ConeSensor, LogisticSensorModel, ReadRateModel, SphericalSensor,
};
