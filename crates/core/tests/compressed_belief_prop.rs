//! The packed compressed belief against the plain Gaussian.
//!
//! `CompressedBelief` keeps the mean and the lower triangle of the
//! regularized covariance (80 bytes) and derives the Cholesky factor
//! again at every decompression. None of that may be visible, so over
//! random weighted clouds — collinear and one-point clouds included,
//! which take the ridge path — this file pins, bit for bit, against a
//! reference built from `Gaussian3::fit_weighted` and
//! `Gaussian3::sample`:
//!
//! * `estimate()`: the fitted mean and the covariance diagonal;
//! * the stored entries: the fitted matrix's lower triangle, row by row,
//!   and the fitted matrix is symmetric;
//! * `decompress`: every particle's location and reader index from the
//!   same seed, and the RNG state after the draws.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_core::{CompressedBelief, ReaderFilter, ReaderParticle};
use rfid_geom::{Gaussian3, Point3, Pose};
use rfid_stream::Epoch;

/// A reader filter with `n` particles of random weight.
fn reader(n: usize, rng: &mut StdRng) -> ReaderFilter {
    let mut log_w: Vec<f64> = (0..n).map(|_| rng.gen::<f64>().ln() * 4.0).collect();
    rfid_core::log_normalize(&mut log_w);
    let particles: Vec<ReaderParticle> = log_w
        .iter()
        .enumerate()
        .map(|(i, &log_w)| ReaderParticle {
            pose: Pose::new(Point3::new(i as f64, 0.0, 0.0), 0.0),
            log_w,
        })
        .collect();
    ReaderFilter::from_parts(particles, vec![0.0; n], 0)
}

/// A weighted cloud of one of four shapes: a spread cloud, a tight one,
/// points on a line (rank one) and one point repeated (rank zero).
fn cloud(shape: u8, n: usize, rng: &mut StdRng) -> Vec<(f64, Point3)> {
    let center = Point3::new(
        rng.gen_range(-20.0..20.0),
        rng.gen_range(-20.0..20.0),
        rng.gen_range(0.0..3.0),
    );
    let dir = [rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0), 0.0];
    (0..n)
        .map(|_| {
            let w = rng.gen::<f64>() * 3.0;
            let p = match shape {
                0 => Point3::new(
                    center.x + rng.gen_range(-2.0..2.0),
                    center.y + rng.gen_range(-2.0..2.0),
                    center.z + rng.gen_range(-0.5..0.5),
                ),
                1 => Point3::new(
                    center.x + rng.gen_range(-0.01..0.01),
                    center.y + rng.gen_range(-0.01..0.01),
                    center.z,
                ),
                2 => {
                    let t = rng.gen_range(-1.0..1.0);
                    Point3::new(center.x + t * dir[0], center.y + t * dir[1], center.z)
                }
                _ => center,
            };
            (w, p)
        })
        .collect()
}

fn assert_point_bits(got: Point3, want: Point3, what: &str) {
    assert_eq!(got.x.to_bits(), want.x.to_bits(), "{what}: x");
    assert_eq!(got.y.to_bits(), want.y.to_bits(), "{what}: y");
    assert_eq!(got.z.to_bits(), want.z.to_bits(), "{what}: z");
}

#[test]
fn a_compressed_belief_is_eighty_bytes() {
    assert_eq!(std::mem::size_of::<CompressedBelief>(), 80);
}

/// A one-point cloud has a zero covariance: the first ridge, 1e-9,
/// is what factors, and what the belief keeps.
#[test]
fn a_one_point_cloud_keeps_the_first_ridge() {
    let c = CompressedBelief::compress(&[(0.5, Point3::new(3.0, -1.0, 0.25))], Epoch(4))
        .expect("weighted cloud");
    assert_eq!(c.cov, [1e-9, 0.0, 1e-9, 0.0, 0.0, 1e-9]);
    assert_point_bits(c.mean, Point3::new(3.0, -1.0, 0.25), "mean");
}

proptest! {
    #[test]
    fn the_packed_belief_equals_the_fitted_gaussian(
        seed in any::<u64>(),
        shape in 0u8..4,
        n in 1usize..400,
        n_reader in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cloud = cloud(shape, n, &mut rng);
        let reader = reader(n_reader, &mut rng);
        let tables = reader.tables();
        let ctx = format!("seed {seed} shape {shape} n {n} readers {n_reader}");

        let reference = Gaussian3::fit_weighted(&cloud).expect("weighted cloud");
        let c = CompressedBelief::compress(&cloud, Epoch(seed)).expect("weighted cloud");
        prop_assert_eq!(c.compressed_at, Epoch(seed));

        let m = reference.cov.m;
        prop_assert_eq!(
            [m[1][0], m[2][0], m[2][1]].map(f64::to_bits),
            [m[0][1], m[0][2], m[1][2]].map(f64::to_bits),
            "{}: symmetric", ctx
        );
        let lower = [m[0][0], m[1][0], m[1][1], m[2][0], m[2][1], m[2][2]];
        prop_assert_eq!(c.cov.map(f64::to_bits), lower.map(f64::to_bits), "{}", ctx);
        assert_point_bits(c.mean, reference.mean, &ctx);

        let (loc, var) = c.estimate();
        assert_point_bits(loc, reference.mean, &ctx);
        prop_assert_eq!(
            var.map(f64::to_bits),
            [m[0][0], m[1][1], m[2][2]].map(f64::to_bits),
            "{}", ctx
        );

        let k = 1 + (seed % 16) as usize;
        let mut packed = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut plain = StdRng::seed_from_u64(seed ^ 0x5EED);
        let f = c.decompress(k, &tables, 3, &mut packed);
        prop_assert_eq!(f.len(), k);
        for (i, p) in f.iter_particles().enumerate() {
            let loc = reference.sample(&mut plain);
            let idx = tables.sample_index(&mut plain);
            assert_point_bits(p.loc, loc, &format!("{ctx} particle {i}"));
            prop_assert_eq!(p.reader_idx, idx, "{} particle {}", ctx, i);
        }
        prop_assert_eq!(packed.gen::<u64>(), plain.gen::<u64>(), "{}: rng state", ctx);
    }
}
