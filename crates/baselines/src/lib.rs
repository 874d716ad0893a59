//! Baseline RFID cleaning approaches the paper compares against.
//!
//! * [`smurf::Smurf`] — SMURF (Jeffery et al., VLDB J. 2007): per-tag
//!   adaptive smoothing windows sized by a π-estimator, *augmented* with
//!   location sampling exactly as §V-C describes ("if SMURF decides that
//!   the tag is still in range ... a location of the tag is obtained by
//!   randomly sampling over the intersection of the read range and the
//!   shelf; ... if SMURF decides that the tag is no longer in scope, all
//!   sampled locations ... are averaged").
//! * [`uniform::UniformBaseline`] — the worst-case bound of §V-B:
//!   uniformly samples the object location over the overlap of the
//!   sensor read range and the shelf.
//!
//! Both consume the same epoch batches as the inference engine and
//! produce the same event type, so experiments score all three systems
//! identically.

mod common;
mod smurf;
mod uniform;

pub use smurf::{Smurf, SmurfConfig};
pub use uniform::UniformBaseline;
