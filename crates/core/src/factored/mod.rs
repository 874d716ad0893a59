//! Particle factorization (§IV-B).
//!
//! Instead of joint particles over the reader and *all* objects, the
//! factored filter keeps:
//!
//! * a list of **reader particles** (hypotheses about the reader pose)
//!   with factored weights `w_rt` ([`reader::ReaderFilter`]), and
//! * per-object lists of **object particles**, each holding a location
//!   hypothesis, a *pointer* to the reader particle it is conditioned
//!   on, and a factored weight `w_ti` ([`object::ObjectFilter`]).
//!
//! The weight of the implicit unfactored particle is the product of the
//! reader weight and the object weights (Eq. 5); the code only ever
//! manipulates the factors. Good reader hypotheses can thus combine
//! with good object hypotheses from *different* implicit joint
//! particles — the effect Fig. 3(a) motivates — so the particle count
//! needed is linear, not exponential, in the number of objects.

mod object;
mod reader;

pub use object::{sample_cone, sample_cone_in_prior, ObjectFilter, StepOutcome};
pub use reader::{ReaderFilter, ReaderRemap, ReaderTables};
