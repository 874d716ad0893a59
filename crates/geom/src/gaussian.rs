//! Gaussian distributions in one and three dimensions.
//!
//! Three uses in the system, mirroring the paper:
//!
//! * reader **motion noise** `eps ~ N(0, Sigma_m)` (diagonal covariance),
//! * reader **location-sensing noise** `eta ~ N(mu_s, Sigma_s)`,
//! * **belief compression** (§IV-D): a stabilized particle cloud is
//!   collapsed into a full-covariance 3-D Gaussian, which requires the
//!   weighted empirical mean/covariance and sampling (decompression).
//!
//! Sampling uses Box-Muller on top of any [`rand::Rng`], so the workspace
//! needs no `rand_distr` dependency.

use crate::mat3::Mat3;
use crate::point::{Point3, Vec3};
use rand::Rng;

const LN_2PI: f64 = 1.837_877_066_409_345_5; // ln(2*pi)

/// Draws one standard-normal sample via the Box-Muller transform.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Draw u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A univariate Gaussian `N(mean, std^2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian1 {
    pub mean: f64,
    pub std: f64,
}

impl Gaussian1 {
    /// Creates a univariate Gaussian; `std` must be non-negative.
    #[inline]
    pub fn new(mean: f64, std: f64) -> Self {
        debug_assert!(std >= 0.0, "negative std {std}");
        Self { mean, std }
    }

    /// Draws one sample.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * standard_normal(rng)
    }

    /// Natural log of the density at `x`. For `std == 0` this returns
    /// `+inf` at the mean and `-inf` elsewhere (a point mass).
    pub fn log_pdf(&self, x: f64) -> f64 {
        if self.std == 0.0 {
            return if x == self.mean {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
        }
        let z = (x - self.mean) / self.std;
        -0.5 * z * z - self.std.ln() - 0.5 * LN_2PI
    }
}

/// A 3-D Gaussian with diagonal covariance — the reader motion and
/// location-sensing noise models of §III-A.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiagGaussian3 {
    pub mean: Vec3,
    /// Per-axis standard deviations.
    pub std: Vec3,
}

impl DiagGaussian3 {
    /// Creates a diagonal Gaussian from a mean vector and per-axis stds.
    #[inline]
    pub fn new(mean: Vec3, std: Vec3) -> Self {
        debug_assert!(std.x >= 0.0 && std.y >= 0.0 && std.z >= 0.0);
        Self { mean, std }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec3 {
        Vec3::new(
            self.mean.x + self.std.x * standard_normal(rng),
            self.mean.y + self.std.y * standard_normal(rng),
            self.mean.z + self.std.z * standard_normal(rng),
        )
    }

    /// Log density at `v`. Axes with zero std are treated as point
    /// masses: they contribute 0 when `v` matches the mean exactly and
    /// `-inf` otherwise, except that a *small tolerance* is applied so
    /// that planar models do not veto tiny z jitter. The tolerance is
    /// 1e-9 ft.
    pub fn log_pdf(&self, v: &Vec3) -> f64 {
        let mut lp = 0.0;
        for (x, m, s) in [
            (v.x, self.mean.x, self.std.x),
            (v.y, self.mean.y, self.std.y),
            (v.z, self.mean.z, self.std.z),
        ] {
            if s == 0.0 {
                if (x - m).abs() > 1e-9 {
                    return f64::NEG_INFINITY;
                }
                continue;
            }
            let z = (x - m) / s;
            lp += -0.5 * z * z - s.ln() - 0.5 * LN_2PI;
        }
        lp
    }
}

/// A full-covariance 3-D Gaussian, used by belief compression: fitted
/// to a particle cloud, sampled through its Cholesky factor when the
/// belief is decompressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian3 {
    pub mean: Point3,
    pub cov: Mat3,
    /// Cached Cholesky factor of `cov` (lower triangular).
    chol: Mat3,
}

impl Gaussian3 {
    /// Builds a Gaussian from mean and covariance; the covariance is
    /// ridge-regularized until it admits a Cholesky factorization, so
    /// degenerate particle clouds (all mass on a line or plane) still
    /// compress to a usable distribution. `cov` keeps the matrix that
    /// factored: built again from it, the Gaussian takes no ridge and
    /// has the same factor. `None` when no ridge below 1.0 makes the
    /// covariance factor (a negative variance, say).
    pub fn new(mean: Point3, cov: Mat3) -> Option<Self> {
        let mut c = cov;
        let mut ridge = 0.0;
        loop {
            if let Some(chol) = c.cholesky() {
                return Some(Self { mean, cov: c, chol });
            }
            ridge = if ridge == 0.0 { 1e-9 } else { ridge * 10.0 };
            if ridge >= 1.0 {
                return None;
            }
            c = cov.regularized(ridge);
        }
    }

    /// Weighted maximum-likelihood fit (the KL-optimal Gaussian of
    /// §IV-D): sample mean and empirical covariance of a weighted point
    /// set. Weights need not be normalized. Returns `None` when the
    /// total weight is not strictly positive or finite, and when the
    /// covariance cannot be regularized ([`Gaussian3::new`]).
    pub fn fit_weighted(points: &[(f64, Point3)]) -> Option<Self> {
        let wsum: f64 = points.iter().map(|(w, _)| *w).sum();
        if wsum <= 0.0 || !wsum.is_finite() {
            return None;
        }
        let mut mean = Vec3::zero();
        for (w, p) in points {
            mean += p.to_vec() * (*w / wsum);
        }
        let mut cov = Mat3::zero();
        for (w, p) in points {
            let d = p.to_vec() - mean;
            cov = cov.add(&Mat3::outer(&d, &d).scaled(*w / wsum));
        }
        Self::new(mean.to_point(), cov)
    }

    /// Draws one sample: `mean + L z` with `z ~ N(0, I)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point3 {
        let z = Vec3::new(
            standard_normal(rng),
            standard_normal(rng),
            standard_normal(rng),
        );
        self.mean + self.chol.mul_vec(&z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn gaussian1_log_pdf_peak_at_mean() {
        let g = Gaussian1::new(2.0, 0.5);
        assert!(g.log_pdf(2.0) > g.log_pdf(2.4));
        assert!(g.log_pdf(2.0) > g.log_pdf(1.6));
        // density integrates to one => at the mean, pdf = 1/(std*sqrt(2pi))
        let expect = -(0.5f64.ln()) - 0.5 * LN_2PI;
        assert!((g.log_pdf(2.0) - expect).abs() < 1e-12);
    }

    #[test]
    fn gaussian1_point_mass() {
        let g = Gaussian1::new(1.0, 0.0);
        assert_eq!(g.log_pdf(1.0), f64::INFINITY);
        assert_eq!(g.log_pdf(1.1), f64::NEG_INFINITY);
    }

    #[test]
    fn diag_gaussian_sample_moments() {
        let mut r = rng();
        let g = DiagGaussian3::new(Vec3::new(1.0, -2.0, 0.0), Vec3::new(0.5, 2.0, 0.0));
        let n = 20_000;
        let mut mean = Vec3::zero();
        for _ in 0..n {
            mean += g.sample(&mut r);
        }
        mean = mean / n as f64;
        assert!((mean.x - 1.0).abs() < 0.02);
        assert!((mean.y + 2.0).abs() < 0.06);
        assert_eq!(mean.z, 0.0); // zero std on z: exactly the mean
    }

    #[test]
    fn diag_planar_rejects_z_offsets() {
        let g = DiagGaussian3::new(Vec3::zero(), Vec3::new(0.1, 0.1, 0.0));
        assert!(g.log_pdf(&Vec3::new(0.0, 0.0, 0.5)).is_infinite());
        assert!(g.log_pdf(&Vec3::new(0.05, -0.05, 0.0)).is_finite());
    }

    #[test]
    fn gaussian3_sampling_respects_covariance() {
        let mut r = rng();
        let cov = Mat3::from_rows([1.0, 0.8, 0.0], [0.8, 1.0, 0.0], [0.0, 0.0, 0.01]);
        let g = Gaussian3::new(Point3::origin(), cov).unwrap();
        let n = 30_000;
        let mut sxy = 0.0;
        let mut sx = 0.0;
        let mut sy = 0.0;
        let samples: Vec<Point3> = (0..n).map(|_| g.sample(&mut r)).collect();
        for p in &samples {
            sx += p.x;
            sy += p.y;
        }
        let mx = sx / n as f64;
        let my = sy / n as f64;
        for p in &samples {
            sxy += (p.x - mx) * (p.y - my);
        }
        let cov_xy = sxy / n as f64;
        assert!((cov_xy - 0.8).abs() < 0.05, "cov_xy {cov_xy}");
    }

    #[test]
    fn fit_weighted_recovers_mean_and_cov() {
        let pts = vec![
            (1.0, Point3::new(-1.0, 0.0, 0.0)),
            (1.0, Point3::new(1.0, 0.0, 0.0)),
            (1.0, Point3::new(0.0, -1.0, 0.0)),
            (1.0, Point3::new(0.0, 1.0, 0.0)),
        ];
        let g = Gaussian3::fit_weighted(&pts).unwrap();
        assert!(g.mean.dist(&Point3::origin()) < 1e-9);
        assert!((g.cov.m[0][0] - 0.5).abs() < 1e-9);
        assert!((g.cov.m[1][1] - 0.5).abs() < 1e-9);
        assert!(g.cov.m[0][1].abs() < 1e-9);
    }

    #[test]
    fn fit_weighted_degenerate_cloud_is_regularized() {
        // All particles identical: covariance is exactly zero, must be
        // ridge-regularized instead of panicking.
        let pts = vec![(1.0, Point3::new(2.0, 2.0, 0.0)); 10];
        let g = Gaussian3::fit_weighted(&pts).unwrap();
        assert!(g.mean.dist(&Point3::new(2.0, 2.0, 0.0)) < 1e-9);
        assert!(g.cov.m[0][0] > 0.0);
    }

    #[test]
    fn new_keeps_the_matrix_that_factored() {
        // a rank-one covariance takes a ridge; built again from the
        // kept matrix it takes none and factors to the same bits
        let u = Vec3::new(1.0, 2.0, 0.5);
        let g = Gaussian3::new(Point3::origin(), Mat3::outer(&u, &u)).unwrap();
        assert_ne!(g.cov, Mat3::outer(&u, &u));
        let again = Gaussian3::new(g.mean, g.cov).unwrap();
        assert_eq!(again.cov, g.cov);
        assert_eq!(again.chol, g.chol);
    }

    #[test]
    fn new_refuses_a_covariance_no_ridge_factors() {
        let cov = Mat3::from_rows([-5.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]);
        assert!(Gaussian3::new(Point3::origin(), cov).is_none());
    }

    #[test]
    fn fit_weighted_zero_weight_is_none() {
        let pts = vec![(0.0, Point3::origin())];
        assert!(Gaussian3::fit_weighted(&pts).is_none());
        assert!(Gaussian3::fit_weighted(&[]).is_none());
    }

    #[test]
    fn decompression_roundtrip_preserves_moments() {
        // compress a cloud, sample from the Gaussian, refit: moments match.
        let mut r = rng();
        let src = Gaussian3::new(
            Point3::new(5.0, -3.0, 1.0),
            Mat3::from_rows([0.5, 0.1, 0.0], [0.1, 0.3, 0.0], [0.0, 0.0, 0.05]),
        )
        .unwrap();
        let cloud: Vec<(f64, Point3)> = (0..5000).map(|_| (1.0, src.sample(&mut r))).collect();
        let fit = Gaussian3::fit_weighted(&cloud).unwrap();
        assert!(fit.mean.dist(&src.mean) < 0.05);
        assert!((fit.cov.m[0][0] - 0.5).abs() < 0.05);
        assert!((fit.cov.m[0][1] - 0.1).abs() < 0.03);
    }
}
