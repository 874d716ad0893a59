//! Belief compression (§IV-D).
//!
//! A stabilized object belief — a particle cloud that has settled into
//! a small region — is replaced by the KL-optimal Gaussian (weighted
//! sample mean and empirical covariance; 9 numbers instead of ~1000
//! particles). When the object is encountered again, the Gaussian is
//! *decompressed* by drawing a small number of particles (10 in the
//! paper), "because the compressed representation tends to be
//! well-behaved". If all objects were compressed this would be the
//! Boyen–Koller algorithm; compressing selectively combines the
//! Gaussian and particle representations.
//!
//! The fit is not scored. At the paper's operating point every object
//! that leaves the reader's scope is compressed, whatever its cloud
//! looks like, so nothing would read a measure of what the Gaussian
//! loses.

use crate::factored::ObjectFilter;
use crate::factored::ReaderTables;
use crate::particle::ObjectParticle;
use rand::Rng;
use rfid_geom::{Gaussian3, Point3};
use rfid_stream::Epoch;

/// A compressed object belief.
#[derive(Debug, Clone)]
pub struct CompressedBelief {
    /// The fitted Gaussian.
    pub gaussian: Gaussian3,
    /// When the belief was compressed.
    pub compressed_at: Epoch,
}

impl CompressedBelief {
    /// Fits the KL-optimal Gaussian to a weighted cloud. `None` when
    /// the cloud carries no weight.
    pub fn compress(cloud: &[(f64, Point3)], epoch: Epoch) -> Option<Self> {
        Some(Self {
            gaussian: Gaussian3::fit_weighted(cloud)?,
            compressed_at: epoch,
        })
    }

    /// The location estimate of the compressed belief (the Gaussian
    /// mean) with its per-axis variances.
    pub fn estimate(&self) -> (Point3, [f64; 3]) {
        (
            self.gaussian.mean,
            [
                self.gaussian.cov.m[0][0],
                self.gaussian.cov.m[1][1],
                self.gaussian.cov.m[2][2],
            ],
        )
    }

    /// Decompression: draws `n` particles from the Gaussian with
    /// uniform weights, pointing at reader particles sampled by weight
    /// through the reader's per-epoch `tables`.
    pub fn decompress<R: Rng + ?Sized>(
        &self,
        n: usize,
        tables: &ReaderTables,
        stamp: u64,
        rng: &mut R,
    ) -> ObjectFilter {
        assert!(n >= 1);
        let uniform = -(n as f64).ln();
        let particles: Vec<ObjectParticle> = (0..n)
            .map(|_| ObjectParticle {
                loc: self.gaussian.sample(rng),
                reader_idx: tables.sample_index(rng),
                log_w: uniform,
            })
            .collect();
        ObjectFilter::from_particles(particles, stamp)
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
        assert!(c.gaussian.mean.dist(&center) < 0.05);
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
        let (est, _) = f.estimate_with(&reader, &mut crate::exec::StepScratch::default());
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
        assert!(c1.gaussian.mean.dist(&c2.gaussian.mean) < 0.1);
    }
}
