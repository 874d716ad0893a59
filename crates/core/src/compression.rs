//! Belief compression (§IV-D).
//!
//! A stabilized object belief — a particle cloud that has settled into
//! a small region — is replaced by the KL-optimal Gaussian (weighted
//! sample mean and empirical covariance: the 3 numbers of the mean and
//! the 6 of the symmetric covariance instead of ~1000 particles). When
//! the object is encountered again, the Gaussian is *decompressed* by
//! drawing a small number of particles (10 in the paper), "because the
//! compressed representation tends to be well-behaved". If all objects
//! were compressed this would be the Boyen–Koller algorithm;
//! compressing selectively combines the Gaussian and particle
//! representations.
//!
//! A [`CompressedBelief`] holds those nine numbers and the epoch, 80
//! bytes, and nothing derived from them: the Cholesky factor the draws
//! need is computed again, on the stack, at decompression. The stored
//! covariance is the ridge-regularized matrix that factored when the
//! cloud was fitted, so it factors again as stored and every draw keeps
//! its bits.
//!
//! The fit is not scored. At the paper's operating point every object
//! that leaves the reader's scope is compressed, whatever its cloud
//! looks like, so nothing would read a measure of what the Gaussian
//! loses.

use crate::factored::ObjectFilter;
use crate::factored::ReaderTables;
use crate::particle::{ObjectParticle, ParticleSoa};
use rand::Rng;
use rfid_geom::{Gaussian3, Mat3, Point3};
use rfid_stream::Epoch;

/// A compressed object belief: a Gaussian's mean and covariance.
#[derive(Debug, Clone)]
pub struct CompressedBelief {
    /// The mean of the fitted Gaussian.
    pub mean: Point3,
    /// The lower triangle of the fitted, regularized covariance, row by
    /// row: `[c00, c10, c11, c20, c21, c22]`. The matrix is symmetric,
    /// and these are the only entries its Cholesky factorization
    /// reads. It factors as stored: [`CompressedBelief::compress`] and
    /// a checkpoint restore never leave one that does not.
    pub cov: [f64; 6],
    /// When the belief was compressed.
    pub compressed_at: Epoch,
}

impl CompressedBelief {
    /// Fits the KL-optimal Gaussian to a weighted cloud. `None` when
    /// the cloud carries no weight or no ridge makes its covariance
    /// factor ([`Gaussian3::fit_weighted`]).
    pub fn compress(cloud: &[(f64, Point3)], epoch: Epoch) -> Option<Self> {
        let g = Gaussian3::fit_weighted(cloud)?;
        Some(Self::from_matrix(g.mean, &g.cov, epoch))
    }

    /// Keeps the lower triangle of `cov`.
    pub(crate) fn from_matrix(mean: Point3, cov: &Mat3, compressed_at: Epoch) -> Self {
        let m = &cov.m;
        Self {
            mean,
            cov: [m[0][0], m[1][0], m[1][1], m[2][0], m[2][1], m[2][2]],
            compressed_at,
        }
    }

    /// The covariance as a full matrix, mirrored from the stored lower
    /// triangle.
    pub(crate) fn cov_matrix(&self) -> Mat3 {
        let [c00, c10, c11, c20, c21, c22] = self.cov;
        Mat3 {
            m: [[c00, c10, c20], [c10, c11, c21], [c20, c21, c22]],
        }
    }

    /// The Gaussian, its Cholesky factor derived again. Panics when the
    /// covariance does not factor, which no belief this crate builds
    /// holds.
    pub fn gaussian(&self) -> Gaussian3 {
        Gaussian3::new(self.mean, self.cov_matrix()).expect("a stored covariance factors")
    }

    /// The location estimate of the compressed belief (the Gaussian
    /// mean) with its per-axis variances.
    pub fn estimate(&self) -> (Point3, [f64; 3]) {
        (self.mean, [self.cov[0], self.cov[2], self.cov[5]])
    }

    /// Decompression: draws `n` particles from the Gaussian with
    /// uniform weights, pointing at reader particles sampled by weight
    /// through the reader's per-epoch `tables`. Each particle draws its
    /// location, then its reader index, straight into the columns.
    pub fn decompress<R: Rng + ?Sized>(
        &self,
        n: usize,
        tables: &ReaderTables,
        stamp: u64,
        rng: &mut R,
    ) -> ObjectFilter {
        assert!(n >= 1);
        let gaussian = self.gaussian();
        let uniform = 1.0 / n as f64;
        let mut soa = ParticleSoa::with_capacity(n);
        for _ in 0..n {
            let loc = gaussian.sample(rng);
            soa.push(ObjectParticle {
                loc,
                reader_idx: tables.sample_index(rng),
                w: uniform,
            });
        }
        ObjectFilter::from_soa(soa, stamp, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factored::ReaderFilter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfid_geom::Pose;

    fn tight_cloud(center: Point3, n: usize) -> Vec<(f64, Point3)> {
        (0..n)
            .map(|i| {
                let dx = ((i % 7) as f64 - 3.0) * 0.01;
                let dy = ((i % 5) as f64 - 2.0) * 0.01;
                (
                    1.0 / n as f64,
                    Point3::new(center.x + dx, center.y + dy, center.z),
                )
            })
            .collect()
    }

    #[test]
    fn compress_preserves_mean() {
        let center = Point3::new(3.0, 4.0, 0.0);
        let cloud = tight_cloud(center, 100);
        let c = CompressedBelief::compress(&cloud, Epoch(7)).unwrap();
        assert!(c.mean.dist(&center) < 0.05);
        assert_eq!(c.compressed_at, Epoch(7));
        let (est, var) = c.estimate();
        assert!(est.dist(&center) < 0.05);
        assert!(var[0] >= 0.0 && var[0] < 0.01);
    }

    #[test]
    fn compress_empty_cloud_is_none() {
        assert!(CompressedBelief::compress(&[], Epoch(0)).is_none());
        assert!(CompressedBelief::compress(&[(0.0, Point3::origin())], Epoch(0)).is_none());
    }

    #[test]
    fn decompress_recovers_location() {
        let mut rng = StdRng::seed_from_u64(1);
        let center = Point3::new(5.0, 5.0, 0.0);
        let cloud = tight_cloud(center, 200);
        let c = CompressedBelief::compress(&cloud, Epoch(0)).unwrap();
        let reader = ReaderFilter::new(10, Pose::identity());
        let f = c.decompress(10, &reader.tables(), 3, &mut rng);
        assert_eq!(f.len(), 10);
        let mut cloud = Vec::new();
        f.weighted_cloud_into(
            &reader,
            &mut crate::exec::StepScratch::default(),
            &mut cloud,
        );
        let est = cloud.iter().fold(Point3::origin(), |m, &(w, p)| {
            m + (p - Point3::origin()) * w
        });
        assert!(est.dist(&center) < 0.2, "decompressed estimate {est:?}");
    }

    #[test]
    fn roundtrip_compress_decompress_compress() {
        // compress -> decompress -> re-compress keeps the mean stable
        let mut rng = StdRng::seed_from_u64(2);
        let center = Point3::new(-2.0, 8.0, 0.0);
        let cloud = tight_cloud(center, 500);
        let c1 = CompressedBelief::compress(&cloud, Epoch(0)).unwrap();
        let reader = ReaderFilter::new(10, Pose::identity());
        let f = c1.decompress(50, &reader.tables(), 0, &mut rng);
        let mut cloud2 = Vec::new();
        f.weighted_cloud_into(
            &reader,
            &mut crate::exec::StepScratch::default(),
            &mut cloud2,
        );
        let c2 = CompressedBelief::compress(&cloud2, Epoch(1)).unwrap();
        assert!(c1.mean.dist(&c2.mean) < 0.1);
    }
}
