//! Pins the object step's column weight pass to the scalar sensor.
//!
//! `ObjectFilter::accumulate_weights` classifies a whole column first
//! (`ReadRateModel::classify_pose`: a constant, or "exact, with
//! `(d, c)`"), computes the exact line over the compacted list of
//! deferred particles, then multiplies by the weights. Every particle's
//! product must be, bit for bit, the scalar
//! `likelihood(pose_of(reader_idx), loc, read)` times its weight — the
//! route the naive reference in `tests/reference/` takes — and the
//! plain `range_bearing` → `likelihood_dt` arithmetic the classifier
//! shortcuts. Reads and misses, for
//! the cone sensors (which defer) and for the logistic and spherical
//! models (which never do), over:
//!
//! - the bearing cosine exactly on, and ulps around, `cos_major` and
//!   `cos_outer`, and the margin thresholds `± MARGIN` beside them;
//! - the distance exactly at `max_range` and its float neighbours, and
//!   below the 1e-12 "head-on" cut-off;
//! - NaN and ±∞ in tag and reader coordinates and in the heading;
//! - headings at and near ±π;
//! - a seeded random sweep of spread reader clouds (the failing case
//!   prints its seed and `PROPTEST_CASE` replays it).
//!
//! One scratch buffer serves every column, so a stale length or a
//! stale compaction entry from a longer column would show.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_core::{ObjectFilter, ObjectParticle, ReaderFilter, ReaderParticle, StepScratch};
use rfid_geom::{Point3, Pose, Vec3};
use rfid_model::{ConeSensor, LogisticSensorModel, ReadRateModel, SensorParams, SphericalSensor};
use std::f64::consts::PI;

/// `ConeSensor`'s classification margin in cosine space (private there;
/// the threshold values below are built with the sensor's own
/// expressions so that they land on its comparisons exactly).
const MARGIN: f64 = 1e-9;

/// A (reader pose, tag) pair to weigh, with the particle's prior
/// weight.
#[derive(Debug, Clone, Copy)]
struct Pair {
    pose: Pose,
    tag: Point3,
    w: f64,
}

/// Runs the column pass over `pairs` (one reader particle per pair, the
/// object particle pointing at it) and compares every weight with the
/// scalar route. Returns how many pairs the cone's classifier would
/// defer, so a caller can check that its edge cases reached the exact
/// line.
fn check<S: ReadRateModel>(
    sensor: &S,
    pairs: &[Pair],
    read: bool,
    scratch: &mut StepScratch,
    ctx: &str,
) -> usize {
    let reader = ReaderFilter::from_parts(
        pairs
            .iter()
            .map(|p| ReaderParticle {
                pose: p.pose,
                log_w: -(pairs.len() as f64).ln(),
            })
            .collect(),
        vec![0.0; pairs.len()],
        0,
    );
    let particles: Vec<ObjectParticle> = pairs
        .iter()
        .enumerate()
        .map(|(i, p)| ObjectParticle {
            loc: p.tag,
            reader_idx: i as u32,
            w: p.w,
        })
        .collect();
    let f = ObjectFilter::from_parts(particles, 0, 0);
    let products = f.accumulate_weights(sensor, &reader, &reader.tables(), read, scratch);
    assert_eq!(products.len(), pairs.len());
    let mut deferred = 0;
    for (i, (p, got)) in pairs.iter().zip(products).enumerate() {
        let want = sensor.likelihood(&p.pose, &p.tag, read) * p.w;
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{ctx}, read = {read}, pair {i} {p:?}: column {got} vs scalar {want}"
        );
        // and both are the plain `(d, θ)` arithmetic, classifier or not
        let (d, th) = p.pose.range_bearing(&p.tag);
        let plain = sensor.likelihood_dt(d, th, read) * p.w;
        assert_eq!(
            got.to_bits(),
            plain.to_bits(),
            "{ctx}, read = {read}, pair {i} {p:?}: column {got} vs (d, θ) {plain}"
        );
        let [c, s] = [p.pose.phi.cos(), p.pose.phi.sin()];
        deferred += usize::from(sensor.classify_pose(&p.pose.pos, c, s, &p.tag, read).exact);
    }
    deferred
}

/// Every sensor shape the engine can weigh with, both outcomes.
fn check_all(pairs: &[Pair], scratch: &mut StepScratch, ctx: &str) -> usize {
    let mut deferred = 0;
    for read in [true, false] {
        deferred += check(&ConeSensor::paper_default(), pairs, read, scratch, ctx);
        check(&ConeSensor::with_rr_major(0.7), pairs, read, scratch, ctx);
        // outer edge at π or beyond: no "outside" region at all
        check(
            &ConeSensor::new(0.9, 1.4, 1.8, 4.0),
            pairs,
            read,
            scratch,
            ctx,
        );
        let logistic = LogisticSensorModel::new(SensorParams::default_cone_like());
        assert_eq!(check(&logistic, pairs, read, scratch, ctx), 0, "{ctx}");
        let spherical = SphericalSensor::for_timeout_ms(500);
        assert_eq!(check(&spherical, pairs, read, scratch, ctx), 0, "{ctx}");
    }
    deferred
}

/// The next float above a finite `x` (`f64::next_up` is newer than the
/// workspace's minimum Rust version).
fn up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// The next float below a finite `x`.
fn down(x: f64) -> f64 {
    -up(-x)
}

fn pose(x: f64, y: f64, phi: f64) -> Pose {
    // a literal, not `Pose::new`: headings stay exactly as written
    Pose {
        pos: Point3::new(x, y, 0.0),
        phi,
    }
}

fn pair(pose: Pose, tag: Point3) -> Pair {
    Pair { pose, tag, w: 0.25 }
}

/// The bearing cosine the cone computes for a tag at `(dx, dy)` from a
/// reader at the origin facing +x (`cos φ = 1`, `sin φ = 0` exactly).
fn cosine(dx: f64, dy: f64) -> f64 {
    let d = Vec3::new(dx, dy, 0.0).norm();
    ((dx * 1.0 + dy * 0.0) / d).clamp(-1.0, 1.0)
}

/// Tags 2 ft out at a bearing whose computed cosine is `target`, found
/// by walking `dx` ulp by ulp, plus the 80 tags either side of the walk
/// (cosines a few ulps around `target`). Returns the tags and whether
/// the walk hit `target` exactly.
fn tags_at_cosine(target: f64) -> (Vec<Point3>, bool) {
    let dy = 2.0 * (1.0 - target * target).sqrt();
    let mut dx = 2.0 * target;
    // walk towards the target, at most a few thousand ulps
    for _ in 0..4096 {
        let c = cosine(dx, dy);
        if c == target {
            break;
        }
        dx = if c < target { up(dx) } else { down(dx) };
    }
    let hit = cosine(dx, dy) == target;
    let (mut lo, mut hi) = (dx, dx);
    let mut tags = vec![Point3::new(dx, dy, 0.0)];
    for _ in 0..80 {
        lo = down(lo);
        hi = up(hi);
        tags.push(Point3::new(lo, dy, 0.0));
        tags.push(Point3::new(hi, dy, 0.0));
    }
    (tags, hit)
}

#[test]
fn cosines_on_and_around_both_edges_and_their_margins() {
    let major = 15f64.to_radians();
    let cos_major = major.cos();
    let cos_outer = (major + 15f64.to_radians()).cos();
    let facing = pose(0.0, 0.0, 0.0);
    let mut scratch = StepScratch::default();
    for edge in [cos_major, cos_outer] {
        // the edge itself (the exact line decides), and the two values
        // the classifier compares against (`≥ edge + MARGIN` is the
        // constant inside, `≤ edge − MARGIN` the constant outside)
        for target in [edge, edge + MARGIN, edge - MARGIN] {
            let (tags, hit) = tags_at_cosine(target);
            assert!(hit, "no tag at cosine {target} exactly");
            let pairs: Vec<Pair> = tags.iter().map(|&t| pair(facing, t)).collect();
            let deferred = check_all(&pairs, &mut scratch, &format!("cosine {target}"));
            if target == edge {
                assert_eq!(deferred, 2 * pairs.len(), "the strip defers, both outcomes");
            }
        }
    }
}

#[test]
fn distances_at_the_range_edge_and_at_the_reader() {
    let mut scratch = StepScratch::default();
    let facing = pose(0.0, 0.0, 0.0);
    let mut pairs = Vec::new();
    // straight ahead: d is |x| exactly, so the walk needs no search
    let mut x = 4.0f64;
    for _ in 0..6 {
        x = down(x);
    }
    for _ in 0..13 {
        pairs.push(pair(facing, Point3::new(x, 0.0, 0.0)));
        x = up(x);
    }
    // the same distances in each of the other regions: minor band,
    // outside, behind (d = 4 exactly when the walk finds it)
    for bearing in [22.5f64.to_radians(), 40f64.to_radians(), 3.0] {
        let (c, s) = (bearing.cos(), bearing.sin());
        let mut r = 4.0f64;
        for _ in 0..64 {
            let d = Vec3::new(r * c, r * s, 0.0).norm();
            if d == 4.0 {
                break;
            }
            r = if d < 4.0 { up(r) } else { down(r) };
        }
        for k in -6i32..=6 {
            let mut rk = r;
            for _ in 0..k.unsigned_abs() {
                rk = if k < 0 { down(rk) } else { up(rk) };
            }
            pairs.push(pair(facing, Point3::new(rk * c, rk * s, 0.0)));
        }
    }
    // at the reader: exactly on it, under the 1e-12 cut-off in each
    // axis, at it, and just past it
    for tag in [
        Point3::new(0.0, 0.0, 0.0),
        Point3::new(1e-13, 0.0, 0.0),
        Point3::new(-3e-13, 2e-13, 0.0),
        Point3::new(0.0, 0.0, 5e-13),
        Point3::new(0.0, -9.9e-13, 0.0),
        Point3::new(1e-12, 0.0, 0.0),
        Point3::new(0.0, 1e-12, 0.0),
        Point3::new(-2e-12, 0.0, 0.0),
        Point3::new(5e-324, -5e-324, 0.0),
    ] {
        pairs.push(pair(facing, tag));
        // the same offset from a reader away from the origin
        let away = pose(12.5, -7.0, 1.0);
        let t = Point3::new(12.5 + tag.x, -7.0 + tag.y, tag.z);
        pairs.push(pair(away, t));
    }
    check_all(&pairs, &mut scratch, "range edge and reader");
}

#[test]
fn nan_and_infinite_coordinates_and_headings() {
    let mut scratch = StepScratch::default();
    let (nan, inf) = (f64::NAN, f64::INFINITY);
    let bad = [nan, inf, -inf];
    let facing = pose(0.0, 0.0, 0.3);
    let mut pairs = Vec::new();
    for &v in &bad {
        for tag in [
            Point3::new(v, 1.0, 0.0),
            Point3::new(1.0, v, 0.0),
            Point3::new(1.0, 0.5, v),
            Point3::new(v, v, 0.0),
        ] {
            pairs.push(pair(facing, tag));
        }
        let tag = Point3::new(1.0, 0.5, 0.0);
        pairs.push(pair(pose(v, 0.0, 0.3), tag));
        pairs.push(pair(pose(0.0, v, 0.3), tag));
        pairs.push(pair(pose(0.0, 0.0, v), tag));
        pairs.push(pair(pose(0.0, 0.0, v), Point3::new(0.0, 0.0, 0.0)));
    }
    // a finite particle weight meets every kind of increment; a dead
    // or NaN particle weight stays what it is
    for w in [0.0, nan, 1.0] {
        pairs.push(Pair {
            w,
            ..pair(facing, Point3::new(1.0, 0.4, 0.0))
        });
    }
    let deferred = check_all(&pairs, &mut scratch, "non-finite");
    assert!(deferred > 0, "NaN pairs take the exact line");
}

#[test]
fn headings_at_and_near_plus_minus_pi() {
    let mut scratch = StepScratch::default();
    let headings = [
        PI,
        -PI,
        down(PI),
        up(-PI),
        PI - 1e-9,
        -PI + 1e-9,
        PI - 0.2,
        -PI + 0.3,
    ];
    let mut pairs = Vec::new();
    for &phi in &headings {
        let reader = pose(3.0, -2.0, phi);
        // ahead, in the minor band either side, outside, behind, and
        // across the ±π seam of the bearing
        for bearing in [0.0, 0.2, -0.35, 0.45, -0.6, 1.5, PI, -PI + 0.01] {
            for r in [0.5, 2.0, 3.999, 4.5] {
                let a = phi + bearing;
                let tag = Point3::new(3.0 + r * a.cos(), -2.0 + r * a.sin(), 0.0);
                pairs.push(pair(reader, tag));
            }
        }
    }
    let deferred = check_all(&pairs, &mut scratch, "headings near ±π");
    assert!(deferred > 0, "the minor band is reached");
}

/// A spread reader cloud around a random point and a column of tags
/// around it: positions within ±`spread` ft, headings anywhere, prior
/// weights finite, `−inf` or at the maximum.
fn random_pairs(seed: u64, n: usize, spread: f64) -> Vec<Pair> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centre = Point3::new(rng.gen_range(-50.0..50.0), rng.gen_range(0.0..900.0), 0.0);
    let poses: Vec<Pose> = (0..1 + n / 8)
        .map(|_| {
            pose(
                centre.x + rng.gen_range(-spread..spread),
                centre.y + rng.gen_range(-spread..spread),
                rng.gen_range(-PI..PI),
            )
        })
        .collect();
    (0..n)
        .map(|_| Pair {
            pose: poses[rng.gen_range(0..poses.len())],
            tag: Point3::new(
                centre.x + rng.gen_range(-6.0..6.0),
                centre.y + rng.gen_range(-6.0..6.0),
                rng.gen_range(-0.5..0.5),
            ),
            w: match rng.gen_range(0..4u8) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen_range(-40.0..0.0f64).exp(),
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn column_equals_scalar_over_spread_reader_clouds(
        seed in any::<u64>(), n in 1usize..600, spread in 0.01..3.0f64) {
        let mut scratch = StepScratch::default();
        let pairs = random_pairs(seed, n, spread);
        check_all(&pairs, &mut scratch, &format!("seed {seed}"));
        // and again through a scratch a longer column left behind
        let longer = random_pairs(seed ^ 1, n + 37, spread);
        check_all(&longer, &mut scratch, &format!("seed {seed} longer"));
        check_all(&pairs, &mut scratch, &format!("seed {seed} after longer"));
    }
}
