//! Moment-based estimation of the motion and location-sensing
//! Gaussians.
//!
//! Given the E-step's posterior-mean reader trajectory, the M-step for
//! the Gaussian components is in closed form:
//!
//! * motion: `Δ̂` is the mean per-epoch displacement and `Σ̂_m` the
//!   per-axis variance of the displacement residuals (relative to the
//!   odometry increment when odometry is available, since the filter
//!   proposes from odometry-conditioned motion);
//! * sensing: `µ̂_s` is the mean of `reported − estimated` and `Σ̂_s`
//!   the per-axis variance of those residuals.

use rfid_geom::{Point3, Vec3};
use rfid_model::{MotionParams, SensingParams};

/// Per-axis mean of a vector sample.
fn mean(vs: &[Vec3]) -> Vec3 {
    if vs.is_empty() {
        return Vec3::zero();
    }
    let mut m = Vec3::zero();
    for v in vs {
        m += *v;
    }
    m / vs.len() as f64
}

/// Per-axis standard deviation around `m`.
fn std(vs: &[Vec3], m: &Vec3) -> Vec3 {
    if vs.len() < 2 {
        return Vec3::zero();
    }
    let mut s = Vec3::zero();
    for v in vs {
        let d = *v - *m;
        s += Vec3::new(d.x * d.x, d.y * d.y, d.z * d.z);
    }
    let n = vs.len() as f64;
    Vec3::new((s.x / n).sqrt(), (s.y / n).sqrt(), (s.z / n).sqrt())
}

/// Estimates motion parameters from the inferred true trajectory.
/// `estimated` is the per-epoch posterior-mean reader position;
/// `odometry` the per-epoch odometry increment when available (same
/// length as `estimated.len() - 1`, entries `None` when no report
/// arrived). `floor` lower-bounds the stds so the filter never
/// degenerates to zero proposal noise.
pub(crate) fn fit_motion(
    estimated: &[Point3],
    odometry: &[Option<Vec3>],
    heading_std: f64,
    floor: f64,
) -> MotionParams {
    let mut deltas = Vec::new();
    let mut residuals = Vec::new();
    for t in 1..estimated.len() {
        let d = estimated[t] - estimated[t - 1];
        deltas.push(d);
        if let Some(Some(o)) = odometry.get(t - 1) {
            residuals.push(d - *o);
        }
    }
    let delta = mean(&deltas);
    // residuals vs odometry when present, else around the mean delta
    let sigma = if residuals.is_empty() {
        std(&deltas, &delta)
    } else {
        let rm = mean(&residuals);
        std(&residuals, &rm)
    };
    MotionParams {
        delta,
        sigma: Vec3::new(sigma.x.max(floor), sigma.y.max(floor), sigma.z.max(0.0)),
        heading_std,
    }
}

/// Estimates location-sensing parameters from `reported − estimated`
/// residuals. `floor` lower-bounds the stds (a zero sensing std would
/// make the filter trust reports absolutely).
pub(crate) fn fit_sensing(residuals: &[Vec3], heading_std: f64, floor: f64) -> SensingParams {
    let mu = mean(residuals);
    let sigma = std(residuals, &mu);
    SensingParams {
        mu,
        sigma: Vec3::new(sigma.x.max(floor), sigma.y.max(floor), sigma.z.max(0.0)),
        heading_std,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_motion_recovers_drift() {
        // trajectory drifting 0.1/epoch along y with known odometry of
        // 0.08 (systematically under-reporting)
        let n = 200;
        let estimated: Vec<Point3> = (0..n)
            .map(|t| Point3::new(0.0, t as f64 * 0.1, 0.0))
            .collect();
        let odometry: Vec<Option<Vec3>> = (0..n - 1)
            .map(|_| Some(Vec3::new(0.0, 0.08, 0.0)))
            .collect();
        let m = fit_motion(&estimated, &odometry, 0.0, 0.005);
        assert!((m.delta.y - 0.1).abs() < 1e-9);
        // residual vs odometry is constant 0.02 => tiny std, floored
        assert!(m.sigma.y >= 0.005);
        assert_eq!(m.sigma.z, 0.0);
    }

    #[test]
    fn fit_motion_without_odometry_uses_delta_spread() {
        let estimated = vec![
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(0.0, 0.1, 0.0),
            Point3::new(0.0, 0.3, 0.0),
            Point3::new(0.0, 0.4, 0.0),
        ];
        let odometry = vec![None, None, None];
        let m = fit_motion(&estimated, &odometry, 0.0, 0.001);
        assert!((m.delta.y - 0.4 / 3.0).abs() < 1e-9);
        assert!(m.sigma.y > 0.0);
    }

    #[test]
    fn fit_sensing_recovers_bias() {
        let residuals: Vec<Vec3> = (0..100)
            .map(|i| Vec3::new(0.0, 0.5 + 0.01 * ((i % 5) as f64 - 2.0), 0.0))
            .collect();
        let s = fit_sensing(&residuals, 0.0, 0.001);
        assert!((s.mu.y - 0.5).abs() < 1e-9);
        assert!(s.sigma.y >= 0.001);
        assert!(s.mu.x.abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_floor_gracefully() {
        let m = fit_motion(&[], &[], 0.0, 0.01);
        assert_eq!(m.delta, Vec3::zero());
        assert_eq!(m.sigma.x, 0.01);
        let s = fit_sensing(&[], 0.0, 0.01);
        assert_eq!(s.mu, Vec3::zero());
        assert_eq!(s.sigma.y, 0.01);
    }
}
