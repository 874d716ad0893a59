//! Geometry and small linear-algebra substrate for the RFID inference stack.
//!
//! The paper's model lives in a low-dimensional continuous space: object
//! locations are `(x, y, z)` points, the reader pose adds a heading angle,
//! sensing regions are summarized by axis-aligned bounding boxes, and all
//! noise models are (at most) 3-dimensional Gaussians. Rather than pulling
//! in a general linear-algebra dependency, this crate implements exactly
//! the primitives the rest of the workspace needs:
//!
//! * [`Point3`] / [`Vec3`]: positions and displacements in feet.
//! * [`Pose`]: reader position plus heading angle `phi` in the XY plane.
//! * [`Aabb`]: axis-aligned bounding boxes (used by the spatial index).
//! * [`Mat3`]: symmetric-positive-definite friendly 3x3 matrices with
//!   Cholesky factorization, used for Gaussian covariances.
//! * [`Gaussian1`], [`Gaussian3`], [`DiagGaussian3`]: the noise models of
//!   the paper (reader motion, reader location sensing) with exact
//!   log-density evaluation and sampling, and the compressed object
//!   belief (fitted to a particle cloud and sampled).
//! * [`angles`]: utilities for working with headings and bearings.
//!
//! Everything is `f64` and units are feet/radians/seconds to match the
//! paper's evaluation.
//!
//! The `pub use` list below is the crate's whole surface: each type has
//! one import path (`rfid_geom::Point3`); only the [`angles`] functions
//! are named through their module.

mod aabb;
pub mod angles;
mod gaussian;
mod mat3;
mod point;
mod pose;

pub use aabb::Aabb;
pub use gaussian::{standard_normal, DiagGaussian3, Gaussian1, Gaussian3};
pub use mat3::Mat3;
pub use point::{Point3, Vec3};
pub use pose::Pose;
