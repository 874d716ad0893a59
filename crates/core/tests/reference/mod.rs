//! The naive reference for `ObjectFilter::step_fused`.
//!
//! Same arithmetic as the production step — each probability-space
//! weight times its likelihood, divided by the sum; those weights times
//! the reader weights, divided by their sum; log space only when a sum
//! cannot be divided by — written the obvious way: array-of-structs
//! particles, a fresh `Vec` for every intermediate, the sensor model
//! called through its plain `(pose, location)` entry points with the
//! heading trig recomputed per particle, an explicit ancestry vector
//! for resampling. Nothing here shares code with the step beyond the
//! model and the reader filter, so agreement bit for bit
//! (`fused_equivalence.rs`) pins the production path's column layout,
//! buffer reuse, per-epoch tables and in-place reorder as pure
//! re-arrangements of this computation.
//!
//! Compiled into tests and benches only (`mod reference;` from a test,
//! `#[path]` from `bench_step.rs`); the library holds one step path.

use rand::Rng;
use rfid_core::{log_normalize, ObjectFilter, ObjectParticle, ReaderFilter};
use rfid_geom::Point3;
use rfid_model::{JointModel, ReadRateModel};

/// An object's particle set, one struct per particle.
#[derive(Debug, Clone)]
pub(crate) struct ReferenceFilter {
    pub(crate) particles: Vec<ObjectParticle>,
}

impl ReferenceFilter {
    /// Copies a production filter's particles.
    pub(crate) fn from_filter(f: &ObjectFilter) -> Self {
        Self {
            particles: f.iter_particles().collect(),
        }
    }

    /// Weighting step (the `w_ti` factor of Eq. 5): multiplies each
    /// particle's weight by the sensor likelihood of the observed
    /// outcome under its own reader hypothesis, renormalizes the object
    /// weights, deposits per-reader support into `reader`, and returns
    /// the joint probabilities.
    pub(crate) fn weight<S: ReadRateModel>(
        &mut self,
        model: &JointModel<S>,
        reader: &mut ReaderFilter,
        read: bool,
    ) -> Vec<f64> {
        let products: Vec<f64> = self
            .particles
            .iter()
            .map(|p| {
                model
                    .sensor
                    .likelihood(reader.pose_of(p.reader_idx), &p.loc, read)
                    * p.w
            })
            .collect();
        let sum: f64 = products.iter().sum();
        if sum > 0.0 && sum.is_finite() {
            for (p, q) in self.particles.iter_mut().zip(&products) {
                p.w = q / sum;
            }
        } else {
            // the products underflowed or every particle is ruled out:
            // the same update in log space
            let mut log_w: Vec<f64> = self
                .particles
                .iter()
                .map(|p| {
                    p.w.ln() + model.object_log_weight(reader.pose_of(p.reader_idx), &p.loc, read)
                })
                .collect();
            let n = self.particles.len();
            let depleted = log_normalize(&mut log_w).is_none();
            for (p, lw) in self.particles.iter_mut().zip(log_w) {
                // total depletion: uniform reset
                p.w = if depleted { 1.0 / n as f64 } else { lw.exp() };
            }
        }
        let probs = self.joint_probs(reader);
        for (p, &w) in self.particles.iter().zip(&probs) {
            reader.add_support(p.reader_idx, w);
        }
        probs
    }

    /// Object factor × reader factor, normalized to sum to one; in log
    /// space when the products underflow to nothing.
    fn joint_probs(&self, reader: &ReaderFilter) -> Vec<f64> {
        let q: Vec<f64> = self
            .particles
            .iter()
            .map(|p| p.w * reader.weight_of(p.reader_idx))
            .collect();
        let sum: f64 = q.iter().sum();
        if sum > 0.0 && sum.is_finite() {
            return q.into_iter().map(|q| q / sum).collect();
        }
        let mut joint: Vec<f64> = self
            .particles
            .iter()
            .map(|p| p.w.ln() + reader.log_weight_of(p.reader_idx))
            .collect();
        log_normalize(&mut joint);
        joint.into_iter().map(f64::exp).collect()
    }

    /// Resamples by joint probability when the joint ESS drops below
    /// `ess_frac * n`, carrying reader pointers along with the
    /// survivors. Returns the joint probabilities of the new set, or
    /// `None` when the set was left alone.
    pub(crate) fn maybe_resample<R: Rng + ?Sized>(
        &mut self,
        reader: &ReaderFilter,
        probs: &[f64],
        ess_frac: f64,
        rng: &mut R,
    ) -> Option<Vec<f64>> {
        let n = self.particles.len();
        let sum_sq: f64 = probs.iter().map(|p| p * p).sum();
        let ess = if sum_sq > 0.0 { 1.0 / sum_sq } else { 0.0 };
        if ess >= ess_frac * n as f64 {
            return None;
        }
        // systematic resampling: one draw, n evenly spaced pointers
        let step = 1.0 / n as f64;
        let mut u = rng.gen::<f64>() * step;
        let mut cum = 0.0;
        let mut i = 0usize;
        let mut ancestry = Vec::with_capacity(n);
        for _ in 0..n {
            while cum + probs[i] < u && i + 1 < n {
                cum += probs[i];
                i += 1;
            }
            ancestry.push(i);
            u += step;
        }
        let uniform = 1.0 / n as f64;
        self.particles = ancestry
            .into_iter()
            .map(|a| ObjectParticle {
                w: uniform,
                ..self.particles[a]
            })
            .collect();
        Some(self.joint_probs(reader))
    }

    /// Posterior mean and per-axis variance under joint probabilities
    /// aligned with the particles.
    pub(crate) fn estimate(&self, probs: &[f64]) -> (Point3, [f64; 3]) {
        let mut mean = Point3::origin();
        for (p, w) in self.particles.iter().zip(probs) {
            mean.x += w * p.loc.x;
            mean.y += w * p.loc.y;
            mean.z += w * p.loc.z;
        }
        let mut var = [0.0f64; 3];
        for (p, w) in self.particles.iter().zip(probs) {
            var[0] += w * (p.loc.x - mean.x) * (p.loc.x - mean.x);
            var[1] += w * (p.loc.y - mean.y) * (p.loc.y - mean.y);
            var[2] += w * (p.loc.z - mean.z) * (p.loc.z - mean.z);
        }
        (mean, var)
    }
}
