//! Properties of the cone sampler: rejection from the box that bounds
//! the cone ∩ the prior's support.
//!
//! * Against a plain statement of that law in this file (build the box
//!   from the sector's candidate extremes, draw two uniforms in it, keep
//!   a point in the sector that the prior `contains`, up to 30 times,
//!   else the raw cone point) `sample_cone_in_prior` and
//!   `ObjectFilter::init_from_cone` return **bit-identical points and
//!   leave the RNG in the identical state**, for every prior — one
//!   that keeps the default unbounded box included — and at the
//!   extremes: a reader a million feet out, a cone a millionth of a foot
//!   long, headings at the axes, half angles up to π.
//! * The law is the old one: on the legal part, the box sampler's
//!   points and those of the polar rejection loop (draw cone points
//!   until one is legal) pass a binned two-sample χ² test at α = 0.001,
//!   with fixed seeds.
//! * A point off the prior comes only from an empty box.
//! * `contains(p)` implies `support_bounds().contains(p)`, probed on
//!   points around and across every face of the legal space.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_core::{
    sample_cone, sample_cone_in_prior, ObjectFilter, ReaderFilter, ReaderParticle, StepScratch,
};
use rfid_geom::{Aabb, Point3, Pose};
use rfid_model::{BoxPrior, LocationPrior};
use rfid_sim::WarehouseLayout;

/// A prior that leaves `support_bounds` at its default (the whole
/// space): the box is then the sector's own.
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

/// `[x0, x1, y0, y1]` of the cone at `pose` within `prior`'s support
/// (`None` when empty): the bounding box of every candidate extreme of
/// the sector clipped to the support's x-slab that lies in the slab,
/// padded by 1e-9 of the magnitudes and cut to the support.
fn reference_box<P: LocationPrior>(
    pose: &Pose,
    range: f64,
    half_angle: f64,
    prior: &P,
) -> Option<[f64; 4]> {
    let sup = prior.support_bounds();
    let p = pose.pos;
    if !(sup.min.z <= p.z && p.z <= sup.max.z) {
        return None;
    }
    let (c, s) = (pose.phi.cos(), pose.phi.sin());
    let (ch, sh) = (half_angle.cos(), half_angle.sin());
    let r = range;
    let pad = 1e-9 * (p.x.abs() + p.y.abs() + r);
    let in_cone = |dx: f64, dy: f64| dx * c + dy * s + pad >= (dx * dx + dy * dy).sqrt() * ch;
    let mut pts = vec![(p.x, p.y)];
    let rays = [
        (c * ch + s * sh, s * ch - c * sh),
        (c * ch - s * sh, s * ch + c * sh),
    ];
    for (ca, sa) in rays {
        pts.push((p.x + r * ca, p.y + r * sa));
        for face in [sup.min.x, sup.max.x] {
            let t = (face - p.x) / ca;
            if t >= -pad && t <= r + pad {
                pts.push((face, p.y + t * sa));
            }
        }
    }
    for face in [sup.min.x, sup.max.x] {
        let dx = face - p.x;
        let dy = (r * r - dx * dx).max(0.0).sqrt();
        for dy in [dy, -dy] {
            if dx.abs() <= r + pad && in_cone(dx, dy) {
                pts.push((face, p.y + dy));
            }
        }
    }
    for (ex, ey) in [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)] {
        if in_cone(ex, ey) {
            pts.push((p.x + r * ex, p.y + r * ey));
        }
    }
    pts.retain(|&(x, _)| sup.min.x - pad <= x && x <= sup.max.x + pad);
    let lo_x = pts.iter().map(|q| q.0).fold(f64::INFINITY, f64::min);
    let hi_x = pts.iter().map(|q| q.0).fold(f64::NEG_INFINITY, f64::max);
    let lo_y = pts.iter().map(|q| q.1).fold(f64::INFINITY, f64::min);
    let hi_y = pts.iter().map(|q| q.1).fold(f64::NEG_INFINITY, f64::max);
    let b = [
        (lo_x - pad).max(sup.min.x),
        (hi_x + pad).min(sup.max.x),
        (lo_y - pad).max(sup.min.y),
        (hi_y + pad).min(sup.max.y),
    ];
    (b[0] <= b[1] && b[2] <= b[3]).then_some(b)
}

/// The box law, plainly: up to 30 uniform points in the box, the first
/// in the sector that the prior contains, else the raw cone point.
fn plain_box_loop<P: LocationPrior>(
    pose: &Pose,
    range: f64,
    half_angle: f64,
    prior: &P,
    rng: &mut StdRng,
) -> Point3 {
    if let Some([x0, x1, y0, y1]) = reference_box(pose, range, half_angle, prior) {
        let (c, s, ch) = (pose.phi.cos(), pose.phi.sin(), half_angle.cos());
        for _ in 0..30 {
            let x = x0 + (x1 - x0) * rng.gen::<f64>();
            let y = y0 + (y1 - y0) * rng.gen::<f64>();
            let (dx, dy) = (x - pose.pos.x, y - pose.pos.y);
            let d2 = dx * dx + dy * dy;
            let cand = Point3::new(x, y, pose.pos.z);
            if d2 <= range * range && dx * c + dy * s >= d2.sqrt() * ch && prior.contains(&cand) {
                return cand;
            }
        }
    }
    sample_cone(pose, range, half_angle, rng)
}

/// The sampler before the box: cone points until one is legal, up to 30.
fn polar_loop<P: LocationPrior>(
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

fn assert_same_point(a: Point3, b: Point3, ctx: &str) {
    assert_eq!(a.x.to_bits(), b.x.to_bits(), "x: {ctx}");
    assert_eq!(a.y.to_bits(), b.y.to_bits(), "y: {ctx}");
    assert_eq!(a.z.to_bits(), b.z.to_bits(), "z: {ctx}");
}

/// Draws from the sampler and the plain loop off the same seed and
/// requires the same points, bit for bit, and the same RNG state
/// afterwards.
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
        let b = plain_box_loop(pose, range, half_angle, prior, &mut plain);
        let ctx = format!(
            "{name} seed {seed} draw {draw} pose {pose:?} range {range} half-angle {half_angle}"
        );
        assert_same_point(a, b, &ctx);
        assert_eq!(fast.gen::<u64>(), plain.gen::<u64>(), "rng state: {ctx}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn box_sampler_matches_the_plain_box_loop(
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
/// box has something to clip at every scale.
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
    fn box_sampler_matches_the_plain_box_loop_at_the_extremes(
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Cone initialization over a reader cloud: each particle draws a
    /// reader index through the tables, then the plain loop at that
    /// reader particle's pose. One scratch serves every case, so a box
    /// the cache kept from another reader would show.
    #[test]
    fn cone_init_matches_the_plain_box_loop_per_reader_particle(
        seed in any::<u64>(),
        y in -6.0..46.0f64,
        range in 0.25..12.0f64,
        half_angle in 0.02..std::f64::consts::PI,
        readers in 1usize..40,
    ) {
        thread_local! {
            static SCRATCH: std::cell::RefCell<StepScratch> = Default::default();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let particles: Vec<ReaderParticle> = (0..readers)
            .map(|_| ReaderParticle {
                pose: Pose::new(
                    Point3::new(rng.gen_range(-1.0..1.5), y + rng.gen_range(-2.0..2.0), 0.0),
                    rng.gen_range(-3.5..3.5),
                ),
                log_w: rng.gen::<f64>().ln(),
            })
            .collect();
        let reader = ReaderFilter::from_parts(particles, vec![0.0; readers], 0);
        let tables = reader.tables();
        let prior = linear();
        let f = SCRATCH.with(|s| {
            ObjectFilter::init_from_cone(
                &reader,
                &tables,
                range,
                half_angle,
                200,
                0,
                Some(&prior),
                &mut s.borrow_mut(),
                &mut StdRng::seed_from_u64(seed),
            )
        });
        let mut plain = StdRng::seed_from_u64(seed);
        for (i, p) in f.iter_particles().enumerate() {
            let j = tables.sample_index(&mut plain);
            prop_assert_eq!(p.reader_idx, j);
            let pose = reader.pose_of(j);
            let want = plain_box_loop(pose, range, half_angle, &prior, &mut plain);
            assert_same_point(p.loc, want, &format!("seed {seed} particle {i}"));
        }
    }
}

/// Counts of `points` in a `k × k` grid over `[x0, x1] × [y0, y1]`.
fn histogram(points: &[Point3], [x0, x1, y0, y1]: [f64; 4], k: usize) -> Vec<f64> {
    let mut h = vec![0.0; k * k];
    let bin = |v: f64, lo: f64, hi: f64| (((v - lo) / (hi - lo) * k as f64) as usize).min(k - 1);
    for p in points {
        h[bin(p.x, x0, x1) * k + bin(p.y, y0, y1)] += 1.0;
    }
    h
}

/// The χ² critical values at α = 0.001 for 1..=15 degrees of freedom.
const CHI2_CRIT_001: [f64; 15] = [
    10.83, 13.82, 16.27, 18.47, 20.52, 22.46, 24.32, 26.12, 27.88, 29.59, 31.26, 32.91, 34.53,
    36.12, 37.70,
];

#[test]
fn the_box_law_is_the_polar_law_on_the_legal_part() {
    use std::f64::consts::PI;
    let micro = 1e-6;
    let far = Pose::new(Point3::new(1.0e6, 3.0, 0.0), 0.2);
    let facing = Pose::new(Point3::new(0.0, 11.0, 0.0), 0.1);
    let shelf = BoxPrior::new(Aabb::new(
        Point3::new(2.0, 0.0, 0.0),
        Point3::new(2.5, 40.0, 0.0),
    ));
    let tiny = Pose::new(Point3::new(4.0, 4.0, 0.0), -0.3);
    let wide = Pose::new(Point3::new(2.5, 4.0, 0.0), 2.0);
    let cases = [
        ("facing the shelf", shelf, facing, 7.5, 35f64.to_radians()),
        ("a million feet out", band_ahead(&far, 6.0), far, 6.0, 0.5),
        ("a micro-cone", band_ahead(&tiny, micro), tiny, micro, 0.6),
        ("half angle past π/2", boxed(), wide, 5.0, 0.8 * PI),
    ];
    for (name, prior, pose, range, half_angle) in cases {
        let area = reference_box(&pose, range, half_angle, &prior).expect("a non-empty box");
        let draw = |sampler: &dyn Fn(&mut StdRng) -> Point3, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::new();
            while out.len() < 20_000 {
                let p = sampler(&mut rng);
                if prior.contains(&p) {
                    out.push(p);
                }
            }
            out
        };
        let boxed_pts = draw(
            &|rng| sample_cone_in_prior(&pose, range, half_angle, Some(&prior), rng),
            11,
        );
        let polar_pts = draw(&|rng| polar_loop(&pose, range, half_angle, &prior, rng), 12);
        let (a, b) = (
            histogram(&boxed_pts, area, 4),
            histogram(&polar_pts, area, 4),
        );
        let (mut chi2, mut bins) = (0.0, 0usize);
        for (a, b) in a.iter().zip(&b) {
            if a + b > 0.0 {
                chi2 += (a - b) * (a - b) / (a + b);
                bins += 1;
            }
        }
        assert!(bins >= 2, "{name}: the grid saw {bins} bin(s)");
        let crit = CHI2_CRIT_001[bins - 2];
        assert!(
            chi2 < crit,
            "{name}: χ² {chi2:.2} over {} dof ≥ {crit}",
            bins - 1
        );
    }
}

/// A reader in the aisle facing the shelves: every point is legal
/// while the box is non-empty; an empty box (the reader facing away, or
/// outside the tag band) yields exactly the raw cone point.
#[test]
fn an_off_prior_point_only_when_the_box_is_empty() {
    let prior = linear();
    let (mut empty, mut full) = (0usize, 0usize);
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let facing = rng.gen_bool(0.8);
        let z = if rng.gen_bool(0.85) {
            0.0
        } else {
            rng.gen_range(0.6..2.0)
        };
        let pose = Pose::new(
            Point3::new(rng.gen_range(0.0..1.5), rng.gen_range(1.0..39.0), z),
            if facing {
                rng.gen_range(-0.3..0.3)
            } else {
                std::f64::consts::PI
            },
        );
        let range = rng.gen_range(2.5..10.0);
        let half_angle = 35f64.to_radians();
        let b = reference_box(&pose, range, half_angle, &prior);
        let (mut fast, mut raw) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        for _ in 0..50 {
            let p = sample_cone_in_prior(&pose, range, half_angle, Some(&prior), &mut fast);
            match b {
                Some(_) => assert!(prior.contains(&p), "seed {seed}: {p:?} off the prior"),
                None => {
                    assert_same_point(p, sample_cone(&pose, range, half_angle, &mut raw), "raw")
                }
            }
        }
        if b.is_some() {
            full += 1;
        } else {
            empty += 1;
        }
    }
    assert!(
        empty > 20 && full > 200,
        "{empty} empty boxes, {full} non-empty"
    );
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
