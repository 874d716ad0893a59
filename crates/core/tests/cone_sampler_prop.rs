//! Properties of the early-reject cone sampler.
//!
//! `sample_cone_in_prior` rejects a candidate on its `x` coordinate
//! alone when that already puts it outside the prior's
//! `support_bounds()`. Two things make that invisible to everything
//! downstream, and both are pinned here:
//!
//! * against the plain rejection loop (draw a cone point, ask
//!   `contains`, up to 30 times) it returns **bit-identical points and
//!   leaves the RNG in the identical state**, for every prior —
//!   including one that keeps the default unbounded box — and also
//!   where the polynomial bounds on `cos` that decide most rejections
//!   are at their limits: a reader a million feet out (the slack must
//!   scale), headings where the bounds are loose, a cone a millionth of
//!   a foot long, a face bitwise on a candidate;
//! * `contains(p)` implies `support_bounds().contains(p)`, probed on
//!   points around and across every face of the legal space.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_core::{sample_cone, sample_cone_in_prior};
use rfid_geom::{Aabb, Point3, Pose};
use rfid_model::{BoxPrior, LocationPrior};
use rfid_sim::WarehouseLayout;

/// A prior that leaves `support_bounds` at its default (the whole
/// space): the sampler must then behave exactly like the plain loop
/// because nothing can be rejected early.
struct DefaultBounds<P>(P);

impl<P: LocationPrior> LocationPrior for DefaultBounds<P> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point3 {
        self.0.sample(rng)
    }
    fn pdf(&self, p: &Point3) -> f64 {
        self.0.pdf(p)
    }
    fn bounds(&self) -> Aabb {
        self.0.bounds()
    }
}

/// The sampler as it was before early rejection.
fn plain_rejection<P: LocationPrior>(
    pose: &Pose,
    range: f64,
    half_angle: f64,
    prior: &P,
    rng: &mut StdRng,
) -> Point3 {
    for _ in 0..30 {
        let cand = sample_cone(pose, range, half_angle, rng);
        if prior.contains(&cand) {
            return cand;
        }
    }
    sample_cone(pose, range, half_angle, rng)
}

fn linear() -> WarehouseLayout {
    WarehouseLayout::linear(5, 8.0, 0.5, 2.0, 0.0)
}

fn rooms() -> WarehouseLayout {
    WarehouseLayout::rooms(&[(0.0, 6.0), (14.0, 9.0), (30.0, 4.0)], 0.5, 2.0, 0.25)
}

fn boxed() -> BoxPrior {
    BoxPrior::new(Aabb::new(
        Point3::new(1.0, -3.0, 0.0),
        Point3::new(4.0, 12.0, 0.0),
    ))
}

/// Draws from both samplers off the same seed and requires the same
/// points, bit for bit, and the same RNG state afterwards.
fn assert_same_stream<P: LocationPrior>(
    name: &str,
    prior: &P,
    pose: &Pose,
    range: f64,
    half_angle: f64,
    seed: u64,
) {
    let mut fast = StdRng::seed_from_u64(seed);
    let mut plain = StdRng::seed_from_u64(seed);
    for draw in 0..8 {
        let a = sample_cone_in_prior(pose, range, half_angle, Some(prior), &mut fast);
        let b = plain_rejection(pose, range, half_angle, prior, &mut plain);
        let ctx = format!(
            "{name} seed {seed} draw {draw} pose {pose:?} range {range} half-angle {half_angle}"
        );
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "x: {ctx}");
        assert_eq!(a.y.to_bits(), b.y.to_bits(), "y: {ctx}");
        assert_eq!(a.z.to_bits(), b.z.to_bits(), "z: {ctx}");
        assert_eq!(fast.gen::<u64>(), plain.gen::<u64>(), "rng state: {ctx}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn early_reject_sampler_matches_plain_rejection_loop(
        seed in any::<u64>(),
        x in -4.0..8.0f64,
        y in -6.0..46.0f64,
        z in -0.75..1.0f64,
        phi in -3.5..3.5f64,
        range in 0.25..12.0f64,
        half_angle in 0.02..std::f64::consts::PI,
    ) {
        // half the cases put the reader at tag height, where the z band
        // lets candidates through to the x and y tests
        let z = if seed % 2 == 0 { 0.0 } else { z };
        let pose = Pose::new(Point3::new(x, y, z), phi);
        assert_same_stream("linear", &linear(), &pose, range, half_angle, seed);
        assert_same_stream("rooms", &rooms(), &pose, range, half_angle, seed);
        assert_same_stream("box", &boxed(), &pose, range, half_angle, seed);
        assert_same_stream(
            "default bounds",
            &DefaultBounds(linear()),
            &pose,
            range,
            half_angle,
            seed,
        );
    }
}

/// A thin legal band across the cone in front of `pose`, so that the
/// rejection test has something to decide at every scale.
fn band_ahead(pose: &Pose, range: f64) -> BoxPrior {
    let p = pose.pos;
    BoxPrior::new(Aabb::new(
        Point3::new(p.x + 0.3 * range, p.y - 2.0 * range, p.z),
        Point3::new(p.x + 0.5 * range, p.y + 2.0 * range, p.z),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn cosine_bounds_never_flip_a_decision_at_the_extremes(
        seed in any::<u64>(),
        x_exp in 0.0..6.0f64,
        y in -6.0..46.0f64,
        quadrant in 0usize..4,
        off in -0.05..0.05f64,
        range_exp in -6.0..1.1f64,
        half_angle in 0.02..std::f64::consts::PI,
    ) {
        use std::f64::consts::{FRAC_PI_2, PI};
        // reader up to ±1e6 ft out, heading within 0.05 of ±π/2 or ±π,
        // range from 1e-6 ft
        let x = if seed % 2 == 0 { 1.0 } else { -1.0 } * 10f64.powf(x_exp);
        let phi = [FRAC_PI_2, -FRAC_PI_2, PI, -PI][quadrant] + off;
        let range = 10f64.powf(range_exp);
        let pose = Pose::new(Point3::new(x, y, 0.0), phi);
        assert_same_stream("band", &band_ahead(&pose, range), &pose, range, half_angle, seed);
        assert_same_stream("box", &boxed(), &pose, range, half_angle, seed);
        assert_same_stream("linear", &linear(), &pose, range, half_angle, seed);
        // the same extremes with the reader facing its band
        let facing = Pose::new(pose.pos, off);
        assert_same_stream("band, facing", &band_ahead(&facing, range), &facing, range, half_angle, seed);
    }
}

/// A face of the support box set bitwise onto a candidate's `x`, and
/// onto its two float neighbours: the bounds cannot tell, the exact
/// comparison must.
#[test]
fn a_face_bitwise_on_a_candidate_takes_the_exact_line() {
    let (range, half_angle) = (5.0, 0.6);
    for seed in 0..24u64 {
        let pose = Pose::new(
            Point3::new(0.3 * seed as f64 - 2.0, 1.0, 0.0),
            0.1 * seed as f64 - 1.0,
        );
        // the first candidates this seed produces
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<f64> = (0..4)
            .map(|_| sample_cone(&pose, range, half_angle, &mut rng).x)
            .collect();
        for x in xs {
            for face in [x, next_up(x), next_down(x)] {
                for (lo, hi) in [(face, face + 1.0), (face - 1.0, face)] {
                    let prior = BoxPrior::new(Aabb::new(
                        Point3::new(lo, -50.0, 0.0),
                        Point3::new(hi, 50.0, 0.0),
                    ));
                    assert_eq!(prior.support_bounds().min.x.to_bits(), lo.to_bits());
                    assert_eq!(prior.support_bounds().max.x.to_bits(), hi.to_bits());
                    assert_same_stream(
                        "face on a candidate",
                        &prior,
                        &pose,
                        range,
                        half_angle,
                        seed,
                    );
                }
            }
        }
    }
}

/// Values straddling `edge`: the edge itself, its float neighbours, and
/// steps on both sides of every tolerance the priors use.
fn around(edge: f64) -> Vec<f64> {
    let mut out = vec![edge];
    for step in [1e-6, 1e-9, 1e-12, 0.25, 0.5] {
        for base in [edge, edge - step, edge + step] {
            out.extend([base, next_up(base), next_down(base)]);
        }
    }
    out
}

fn next_up(v: f64) -> f64 {
    if v == 0.0 {
        return f64::MIN_POSITIVE;
    }
    let bits = v.to_bits();
    f64::from_bits(if v > 0.0 { bits + 1 } else { bits - 1 })
}

fn next_down(v: f64) -> f64 {
    -next_up(-v)
}

/// Checks the implication on the full grid of `xs × ys × zs`.
fn assert_support_covers<P: LocationPrior>(
    name: &str,
    prior: &P,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
) {
    let support = prior.support_bounds();
    let mut legal = 0usize;
    for &x in xs {
        for &y in ys {
            for &z in zs {
                let p = Point3::new(x, y, z);
                if prior.contains(&p) {
                    legal += 1;
                    assert!(
                        support.contains(&p),
                        "{name}: legal point {p:?} outside support {support:?}"
                    );
                }
            }
        }
    }
    assert!(
        legal > 0,
        "{name}: the probe grid never hit the legal space"
    );
}

#[test]
fn support_bounds_cover_every_legal_point_at_the_boundaries() {
    for (name, layout) in [("linear", linear()), ("rooms", rooms())] {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for s in layout.shelves() {
            xs.extend(around(s.face_x() - 0.5));
            xs.extend(around(s.face_x() + 0.5));
            ys.extend(around(s.bbox.min.y));
            ys.extend(around(s.bbox.max.y));
        }
        let mut zs = around(layout.tag_z() - 0.5);
        zs.extend(around(layout.tag_z() + 0.5));
        assert_support_covers(name, &layout, &xs, &ys, &zs);
    }

    let b = boxed();
    let bb = b.bounds();
    let mut xs = around(bb.min.x);
    xs.extend(around(bb.max.x));
    let mut ys = around(bb.min.y);
    ys.extend(around(bb.max.y));
    assert_support_covers("box", &b, &xs, &ys, &around(bb.min.z));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn support_bounds_cover_random_legal_points(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for layout in [linear(), rooms()] {
            let support = layout.support_bounds();
            for _ in 0..200 {
                // a legal point, nudged by up to the tolerance band
                let base = LocationPrior::sample(&layout, &mut rng);
                let p = Point3::new(
                    base.x + rng.gen_range(-0.6..0.6),
                    base.y + rng.gen_range(-0.1..0.1),
                    base.z + rng.gen_range(-0.6..0.6),
                );
                if layout.contains(&p) {
                    prop_assert!(
                        support.contains(&p),
                        "seed {seed}: legal point {p:?} outside support {support:?}"
                    );
                }
            }
        }
    }
}
