//! Reader-location reporting noise.
//!
//! Two regimes, matching the paper:
//!
//! * [`ReportNoise::Gaussian`] — the §V-A simulator: each report is the
//!   true location plus `N(µ_s, Σ_s)` noise (systematic bias plus
//!   jitter). Fig. 5(g) sweeps `µ_s^y`.
//! * [`ReportNoise::DeadReckoning`] — the §V-C robot: the *reported*
//!   location is integrated odometry, so error accumulates with travel
//!   (wheel slippage forward, sideways drift from inertia), "with error
//!   in reported location up to 1 foot away from its true location".

use rand::Rng;
use rfid_geom::{standard_normal, Pose, Vec3};

/// Accumulating odometry error model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadReckoning {
    /// Fractional forward slippage: reported distance per true foot
    /// traveled is `1 + slip` (negative = under-reporting).
    pub slip: f64,
    /// Sideways drift per foot traveled (feet), perpendicular to the
    /// direction of travel.
    pub side_drift_per_ft: f64,
    /// Per-epoch random jitter std on the integrated estimate (feet).
    pub jitter_std: f64,
    /// Cap on the accumulated error magnitude (the lab observed up to
    /// ~1 ft). Zero disables the cap.
    pub max_error: f64,
}

impl DeadReckoning {
    /// The simulated lab robot: drifts toward ~0.9 ft of error over
    /// the full two-row scan (~27 ft of travel), matching the paper's
    /// "error in reported location up to 1 foot".
    pub(crate) fn lab_default() -> Self {
        Self {
            slip: 0.015,
            side_drift_per_ft: 0.02,
            jitter_std: 0.01,
            max_error: 1.0,
        }
    }
}

/// The reporting-noise regimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReportNoise {
    /// Independent per-report noise `N(mu, sigma)` (diagonal), the
    /// §V-A simulator model.
    Gaussian { mu: Vec3, sigma: Vec3 },
    /// Integrated odometry with accumulating error, the §V-C robot.
    DeadReckoning(DeadReckoning),
    /// Perfect reports (for oracle experiments and tests).
    None,
}

/// Stateful reporter: feed true poses epoch by epoch, get reported poses.
#[derive(Debug, Clone)]
pub(crate) struct Reporter {
    noise: ReportNoise,
    /// Accumulated odometry error (dead-reckoning regime only).
    acc_error: Vec3,
    last_true: Option<Pose>,
}

impl Reporter {
    /// Creates a reporter for the given noise regime.
    pub(crate) fn new(noise: ReportNoise) -> Self {
        Self {
            noise,
            acc_error: Vec3::zero(),
            last_true: None,
        }
    }

    /// Produces the reported pose for this epoch's true pose.
    pub(crate) fn report<R: Rng + ?Sized>(&mut self, truth: &Pose, rng: &mut R) -> Pose {
        let reported = match &self.noise {
            ReportNoise::None => *truth,
            ReportNoise::Gaussian { mu, sigma } => {
                let eta = Vec3::new(
                    mu.x + sigma.x * standard_normal(rng),
                    mu.y + sigma.y * standard_normal(rng),
                    mu.z + sigma.z * standard_normal(rng),
                );
                Pose::new(truth.pos + eta, truth.phi)
            }
            ReportNoise::DeadReckoning(dr) => {
                if let Some(prev) = self.last_true {
                    let step = truth.pos - prev.pos;
                    let dist = step.norm();
                    if dist > 0.0 {
                        let dir = step / dist;
                        // perpendicular in the XY plane
                        let perp = Vec3::new(-dir.y, dir.x, 0.0);
                        self.acc_error +=
                            dir * (dr.slip * dist) + perp * (dr.side_drift_per_ft * dist);
                    }
                    self.acc_error += Vec3::new(
                        dr.jitter_std * standard_normal(rng),
                        dr.jitter_std * standard_normal(rng),
                        0.0,
                    );
                    if dr.max_error > 0.0 {
                        let m = self.acc_error.norm();
                        if m > dr.max_error {
                            self.acc_error = self.acc_error * (dr.max_error / m);
                        }
                    }
                }
                Pose::new(truth.pos + self.acc_error, truth.phi)
            }
        };
        self.last_true = Some(*truth);
        reported
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfid_geom::Point3;

    #[test]
    fn none_reports_truth() {
        let mut rep = Reporter::new(ReportNoise::None);
        let mut rng = StdRng::seed_from_u64(1);
        let p = Pose::new(Point3::new(1.0, 2.0, 0.0), 0.5);
        assert_eq!(rep.report(&p, &mut rng), p);
    }

    #[test]
    fn gaussian_bias_visible_in_mean() {
        let mut rep = Reporter::new(ReportNoise::Gaussian {
            mu: Vec3::new(0.0, 0.5, 0.0),
            sigma: Vec3::new(0.01, 0.2, 0.0),
        });
        let mut rng = StdRng::seed_from_u64(2);
        let truth = Pose::identity();
        let n = 5000;
        let mut my = 0.0;
        for _ in 0..n {
            my += rep.report(&truth, &mut rng).pos.y;
        }
        my /= n as f64;
        assert!((my - 0.5).abs() < 0.02, "mean y {my}");
    }

    #[test]
    fn dead_reckoning_error_grows_with_travel() {
        let mut rep = Reporter::new(ReportNoise::DeadReckoning(DeadReckoning {
            slip: 0.05,
            side_drift_per_ft: 0.05,
            jitter_std: 0.0,
            max_error: 0.0,
        }));
        let mut rng = StdRng::seed_from_u64(3);
        let mut errors = Vec::new();
        for i in 0..100 {
            let truth = Pose::new(Point3::new(0.0, i as f64 * 0.1, 0.0), 0.0);
            let r = rep.report(&truth, &mut rng);
            errors.push(r.pos.dist(&truth.pos));
        }
        assert!(errors[10] < errors[50]);
        assert!(errors[50] < errors[99]);
        // after ~10 ft of travel at 5%+5% error: ~0.7 ft
        assert!(errors[99] > 0.4 && errors[99] < 1.2, "final {}", errors[99]);
    }

    #[test]
    fn dead_reckoning_respects_cap() {
        let mut rep = Reporter::new(ReportNoise::DeadReckoning(DeadReckoning {
            slip: 0.5,
            side_drift_per_ft: 0.5,
            jitter_std: 0.0,
            max_error: 1.0,
        }));
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..200 {
            let truth = Pose::new(Point3::new(0.0, i as f64 * 0.1, 0.0), 0.0);
            let r = rep.report(&truth, &mut rng);
            assert!(r.pos.dist(&truth.pos) <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn stationary_robot_accumulates_nothing_without_jitter() {
        let mut rep = Reporter::new(ReportNoise::DeadReckoning(DeadReckoning {
            slip: 0.1,
            side_drift_per_ft: 0.1,
            jitter_std: 0.0,
            max_error: 1.0,
        }));
        let mut rng = StdRng::seed_from_u64(5);
        let truth = Pose::identity();
        for _ in 0..50 {
            rep.report(&truth, &mut rng);
        }
        assert!(rep.acc_error.norm() < 1e-12);
    }
}
