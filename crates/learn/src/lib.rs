//! Self-calibration of the probabilistic model (§III-C).
//!
//! "An important benefit of having a flexible parametric model is that
//! we can automatically learn the model parameters using a small
//! training data set collected from the same environment in which the
//! system is to be fielded." The training data is a short trace with a
//! handful of *shelf tags with known locations*; everything else is
//! hidden, so estimation is Expectation–Maximization:
//!
//! * **E-step** — run the particle filter (the `rfid-core` engine) under
//!   the current parameters to obtain distributions over the hidden
//!   reader poses and object locations, and convert them into weighted
//!   training rows.
//! * **M-step** — refit the logistic sensor coefficients by weighted
//!   logistic regression ([`fit_logistic`], IRLS), and re-estimate the
//!   motion and location-sensing Gaussians by weighted moments.
//!
//! [`calibrate`] runs the loop; a few iterations on a 20-tag trace
//! recover sensor models close to the ground truth (Fig. 5(b)), and the
//! quality degrades gracefully as known tags are removed (Fig. 5(e)).

mod dataset;
mod em;
mod logistic;
mod motion_fit;

pub use dataset::SensorRow;
pub use em::{calibrate, EmConfig, EmResult};
pub use logistic::{fit_logistic, FitReport};
