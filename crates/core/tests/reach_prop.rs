//! Properties of the out-of-reach test for Case-2 misses
//! ([`rfid_core::Reach`]).
//!
//! The engine drops a not-read object from an epoch when the test says
//! no reader particle can see any of its particles, on the ground that
//! the step it skips would have added `+0.0` to every log weight. That
//! ground is pinned here for what it is — an exact statement about the
//! sensor, not an approximation: whenever the test answers "cannot
//! see", `log_likelihood_pose(.., read = false)` is the literal `0.0`
//! for **every** (reader particle, object particle) pair, evaluated
//! the way the object step evaluates it (heading trig from the reader
//! tables). The test may answer "can see" as often as it likes; the
//! named cases hold it to the answers that matter at its edges, and
//! the sweep checks it is not vacuous.
//!
//! One engine-level test: an engine restored from a checkpoint skips
//! the same objects on the following epochs as the engine that kept
//! running — the cached extent the test reads is never serialized, so
//! this is the test that it is never stale either.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_core::{
    FilterConfig, InferenceEngine, ObjectFilter, ObjectParticle, Reach, ReaderFilter, ReaderMode,
    ReaderParticle,
};
use rfid_geom::{Point3, Pose};
use rfid_model::{ConeSensor, JointModel, ModelParams, ReadRateModel};
use rfid_sim::scenario;
use rfid_stream::{Epoch, InferenceStage};
use std::f64::consts::PI;

fn reader_of(poses: &[Pose]) -> ReaderFilter {
    let w = -(poses.len() as f64).ln();
    let particles = poses
        .iter()
        .map(|&pose| ReaderParticle { pose, log_w: w })
        .collect();
    ReaderFilter::from_parts(particles, vec![0.0; poses.len()], 0)
}

fn object_of(points: &[Point3]) -> ObjectFilter {
    let particles = points
        .iter()
        .map(|&loc| ObjectParticle {
            loc,
            reader_idx: 0,
            log_w: -(points.len() as f64).ln(),
        })
        .collect();
    ObjectFilter::from_parts(particles, 0, 0)
}

/// The test's answer for this reader cloud and this object cloud; when
/// it is "cannot see", every pair's miss log likelihood must be `+0.0`
/// to the bit.
fn cannot_see(sensor: &ConeSensor, poses: &[Pose], points: &[Point3], ctx: &str) -> bool {
    let reader = reader_of(poses);
    let tables = reader.tables();
    let reach = Reach::new(&tables, sensor.hard_edge().expect("the cone has an edge"));
    let answer = reach.cannot_see(object_of(points).xy_bounds());
    if answer {
        for (pose, [c, s]) in poses.iter().zip(&tables.trig) {
            for tag in points {
                let ll = sensor.log_likelihood_pose(&pose.pos, *c, *s, tag, false);
                assert_eq!(
                    ll.to_bits(),
                    0f64.to_bits(),
                    "{ctx}: \"cannot see\", yet a miss from {pose:?} at {tag:?} weighs {ll}"
                );
            }
        }
    }
    answer
}

fn paper() -> ConeSensor {
    ConeSensor::paper_default()
}

fn at(x: f64, y: f64) -> Point3 {
    Point3::new(x, y, 0.0)
}

/// One random case: a reader cloud of `1 + seed % 24` particles around
/// a point of the warehouse, an object cloud of up to 40 particles
/// `offset` feet away at `bearing` from the mean heading, a cone sensor
/// of the given shape; everything else is drawn from `seed`.
#[allow(clippy::too_many_arguments)] // one per dimension swept
fn sweep_case(
    seed: u64,
    phi: f64,
    heading_spread: f64,
    reader_spread: f64,
    offset: f64,
    bearing: f64,
    object_spread: f64,
    sensor: &ConeSensor,
) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let origin = at(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..900.0));
    let mut jitter = |s: f64| if s > 0.0 { rng.gen_range(-s..s) } else { 0.0 };
    let poses: Vec<Pose> = (0..1 + seed % 24)
        .map(|_| {
            let pos = Point3::new(
                origin.x + jitter(reader_spread),
                origin.y + jitter(reader_spread),
                jitter(0.5),
            );
            Pose::new(pos, phi + jitter(heading_spread))
        })
        .collect();
    let centre = at(
        origin.x + offset * (phi + bearing).cos(),
        origin.y + offset * (phi + bearing).sin(),
    );
    let points: Vec<Point3> = (0..1 + (seed >> 8) % 40)
        .map(|_| {
            Point3::new(
                centre.x + jitter(object_spread),
                centre.y + jitter(object_spread),
                jitter(1.0),
            )
        })
        .collect();
    cannot_see(sensor, &poses, &points, "sweep")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn cannot_see_means_every_pair_weighs_exactly_zero(
        seed in any::<u64>(),
        phi in -3.5..3.5f64,
        heading_spread in 0.0..0.4f64,
        reader_spread in 0.0..0.6f64,
        offset in 0.0..9.0f64,
        bearing in -PI..PI,
        object_spread in 0.0..1.5f64,
        major in 0.05..0.7f64,
        minor in 0.01..0.7f64,
        range in 0.5..6.0f64,
    ) {
        let sensor = ConeSensor::new(if seed % 3 == 0 { 1.0 } else { 0.7 }, major, minor, range);
        sweep_case(
            seed, phi, heading_spread, reader_spread, offset, bearing, object_spread, &sensor,
        );
    }

    /// The same property where the answer flips: small clouds placed
    /// within a few hundredths of a radian of the wedge's edge and a
    /// few percent of the range, so that the pad and the heading spread
    /// are what decides.
    #[test]
    fn cannot_see_is_exact_along_the_edges(
        seed in any::<u64>(),
        phi in -3.5..3.5f64,
        heading_spread in 0.0..0.05f64,
        across in -0.04..0.04f64,
        along in 0.2..1.06f64,
        object_spread in 0.0..0.03f64,
        major in 0.05..0.7f64,
        minor in 0.01..0.7f64,
    ) {
        let sensor = ConeSensor::new(if seed % 3 == 0 { 1.0 } else { 0.7 }, major, minor, 4.0);
        let side = if seed % 2 == 0 { 1.0 } else { -1.0 };
        let bearing = side * (major + minor + heading_spread + across);
        sweep_case(
            seed, phi, heading_spread, 0.01, 4.0 * along, bearing, object_spread, &sensor,
        );
    }
}

#[test]
fn the_sweep_is_not_vacuous() {
    // a tight reader cloud, a tight object cloud: the test must see the
    // object dead ahead and must dismiss it behind, beside and beyond
    let poses: Vec<Pose> = (0..20)
        .map(|i| Pose::new(at(0.01 * i as f64, 500.0), 0.002 * i as f64))
        .collect();
    let cloud = |x: f64, y: f64| -> Vec<Point3> {
        (0..50)
            .map(|i| at(x + 0.01 * (i % 7) as f64, y + 0.01 * (i % 5) as f64))
            .collect()
    };
    assert!(!cannot_see(&paper(), &poses, &cloud(2.0, 500.0), "ahead"));
    assert!(cannot_see(&paper(), &poses, &cloud(-2.0, 500.0), "behind"));
    assert!(cannot_see(&paper(), &poses, &cloud(1.0, 503.0), "beside"));
    assert!(cannot_see(&paper(), &poses, &cloud(4.5, 500.0), "beyond"));
    // the shelf face two feet off, the reader 1.3 ft further down the
    // aisle: outside the 30° wedge (atan(1.3 / 2) = 33°), inside the
    // range — the miss the benchmark's cold scan is made of
    assert!(cannot_see(
        &paper(),
        &poses,
        &cloud(2.0, 501.45),
        "just passed"
    ));
}

#[test]
fn headings_straddling_pi() {
    // +3.1 and −3.1 are 0.08 rad apart, not 6.2: the mean faces −x
    let poses = [
        Pose::new(at(0.0, 0.0), 3.1),
        Pose::new(at(0.0, 0.1), -3.1),
        Pose::new(at(0.1, 0.0), PI),
        Pose::new(at(0.1, 0.1), -PI),
    ];
    assert!(!cannot_see(&paper(), &poses, &[at(-2.0, 0.0)], "faced"));
    assert!(cannot_see(&paper(), &poses, &[at(2.0, 0.0)], "at its back"));
    assert!(cannot_see(&paper(), &poses, &[at(-1.0, 2.0)], "abeam"));
}

#[test]
fn reader_box_containing_the_object_box() {
    // reader hypotheses all around the object: some of them are within
    // a hair of it, whichever way they face
    let poses = [
        Pose::new(at(-1.0, -1.0), 0.0),
        Pose::new(at(1.0, 1.0), 0.1),
        Pose::new(at(-1.0, 1.0), -0.1),
    ];
    let points = [at(0.2, 0.3), at(0.25, 0.28)];
    assert!(!cannot_see(&paper(), &poses, &points, "inside the cloud"));
    // ... and an object cloud that swallows the reader
    let wide = [at(-3.0, -3.0), at(3.0, 3.0)];
    assert!(!cannot_see(
        &paper(),
        &poses[..1],
        &wide,
        "around the reader"
    ));
}

#[test]
fn object_corner_exactly_on_an_edge() {
    let (range, half) = paper().hard_edge().unwrap();
    let pose = [Pose::new(at(0.0, 0.0), 0.0)];
    // on the edge ray, at max_range: the pad keeps it
    let corner = at(range * half.cos(), range * half.sin());
    assert!(!cannot_see(&paper(), &pose, &[corner], "on both edges"));
    assert!(!cannot_see(
        &paper(),
        &pose,
        &[at(range, 0.0)],
        "at the range"
    ));
    let on_ray = at(2.0 * half.cos(), 2.0 * half.sin());
    assert!(!cannot_see(&paper(), &pose, &[on_ray], "on the ray"));
    // a thousandth past either edge is past it
    let past_range = at(range * 1.001, 0.0);
    assert!(cannot_see(&paper(), &pose, &[past_range], "past the range"));
    let past_ray = at(2.0 * (half + 1e-3).cos(), 2.0 * (half + 1e-3).sin());
    assert!(cannot_see(&paper(), &pose, &[past_ray], "past the ray"));
    // the object's box has a corner inside the wedge although neither
    // of its two particles is: the answer is about the box
    let straddle = [at(3.0, -2.5), at(1.0, 2.5)];
    assert!(!cannot_see(
        &paper(),
        &pose,
        &straddle,
        "box across the wedge"
    ));
}

#[test]
fn heading_spread_pushing_the_wedge_past_a_right_angle() {
    // ±1.1 rad of heading spread plus the 30° half-angle is more than
    // 90°: no wedge test, only the range decides
    let poses = [Pose::new(at(0.0, 0.0), 1.1), Pose::new(at(0.0, 0.0), -1.1)];
    assert!(!cannot_see(
        &paper(),
        &poses,
        &[at(-2.0, 0.0)],
        "behind, near"
    ));
    assert!(cannot_see(
        &paper(),
        &poses,
        &[at(-6.0, 0.0)],
        "behind, far"
    ));
    // headings that cancel have no mean at all
    let opposed = [Pose::new(at(0.0, 0.0), 0.0), Pose::new(at(0.0, 0.0), PI)];
    assert!(!cannot_see(&paper(), &opposed, &[at(0.0, 2.0)], "no mean"));
    // a sensor that sees sideways has no wedge either
    let wide = ConeSensor::new(0.9, 1.0, 0.7, 4.0);
    let pose = [Pose::new(at(0.0, 0.0), 0.0)];
    assert!(!cannot_see(&wide, &pose, &[at(-0.5, 2.0)], "wide sensor"));
    assert!(cannot_see(
        &wide,
        &pose,
        &[at(-0.5, 5.0)],
        "wide sensor, far"
    ));
}

#[test]
fn a_nan_coordinate_decides_nothing() {
    let pose = [Pose::new(at(0.0, 0.0), 0.0)];
    let far = at(-20.0, 0.0);
    assert!(cannot_see(&paper(), &pose, &[far], "finite"));
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(!cannot_see(
            &paper(),
            &pose,
            &[far, at(bad, 0.0), far],
            "object x"
        ));
        assert!(!cannot_see(
            &paper(),
            &pose,
            &[far, at(0.0, bad)],
            "object y"
        ));
        let lost = [pose[0], Pose::new(at(bad, 0.0), 0.0)];
        assert!(!cannot_see(&paper(), &lost, &[far], "reader x"));
    }
    let spun = [pose[0], Pose::new(at(0.0, 0.0), f64::NAN)];
    // beyond the range a heading does not matter; within it, it does
    assert!(!cannot_see(&paper(), &spun, &[at(-2.0, 0.0)], "reader phi"));
}

#[test]
fn a_one_particle_reader() {
    // `ReaderMode::TrustReports`: the cloud is the reported pose
    let pose = [Pose::new(at(3.0, 700.0), 0.7)];
    let ahead = at(3.0 + 2.0 * 0.7f64.cos(), 700.0 + 2.0 * 0.7f64.sin());
    assert!(!cannot_see(&paper(), &pose, &[ahead], "ahead"));
    let off = 0.7 + 31f64.to_radians();
    let beside = at(3.0 + 2.0 * off.cos(), 700.0 + 2.0 * off.sin());
    assert!(cannot_see(&paper(), &pose, &[beside], "a degree outside"));
    let inside = 0.7 + 29f64.to_radians();
    let grazing = at(3.0 + 2.0 * inside.cos(), 700.0 + 2.0 * inside.sin());
    assert!(!cannot_see(&paper(), &pose, &[grazing], "a degree inside"));
}

fn out_of_reach_total() -> u64 {
    rfid_obs::global()
        .counter("engine_out_of_reach_total")
        .get()
}

/// The engine's step count and every active object's particle columns,
/// flattened: equal between two engines iff they have stepped the same
/// objects the same way.
fn state_of(e: &InferenceEngine<rfid_sim::WarehouseLayout, ConeSensor>) -> Vec<u64> {
    let mut tags: Vec<_> = e.tracked_objects().collect();
    tags.sort_unstable();
    let mut state = vec![e.stats().object_updates];
    for tag in tags {
        let Some(soa) = e.object_particles(tag) else {
            continue;
        };
        state.push(tag.0);
        let floats = soa.xs.iter().chain(&soa.ys).chain(&soa.log_w);
        state.extend(floats.map(|v| v.to_bits()));
        state.extend(soa.reader_idx.iter().map(|&r| u64::from(r)));
    }
    state
}

/// The only test of this binary that builds engines, so the registry
/// counter it reads moves for no one else.
#[test]
fn a_restored_engine_skips_what_the_uninterrupted_one_skips() {
    let sc = scenario::scalability_trace(40, 77);
    let batches = sc.trace.epoch_batches();
    for mode in [ReaderMode::Filter, ReaderMode::TrustReports] {
        let mut cfg = FilterConfig::full_default();
        cfg.particles_per_object = 80;
        cfg.reader_particles = 30;
        cfg.report_delay_epochs = 20;
        cfg.reader_mode = mode;
        let engine = || {
            let model = JointModel::with_sensor(paper(), ModelParams::default_warehouse());
            InferenceEngine::new(model, sc.layout.clone(), sc.trace.shelf_tags.clone(), cfg)
                .expect("valid config")
        };
        // cut in the first scan round, where clouds are fresh and wide
        let cut = batches.len() / 4;
        let mut first = engine();
        let mut sink = Vec::new();
        for b in &batches[..cut] {
            first.process_batch_into(b, &mut sink);
        }
        let blob = first.checkpoint_bytes(Epoch(cut as u64 - 1));
        let mut resumed = engine();
        resumed.restore_bytes(&blob).expect("own checkpoint");

        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut skipped = 0;
        for batch in &batches[cut..] {
            let t0 = out_of_reach_total();
            first.process_batch_into(batch, &mut a);
            let t1 = out_of_reach_total();
            resumed.process_batch_into(batch, &mut b);
            let t2 = out_of_reach_total();
            assert_eq!(
                t1 - t0,
                t2 - t1,
                "{mode:?}, epoch {:?}: objects dropped as out of reach",
                batch.epoch
            );
            assert!(
                state_of(&first) == state_of(&resumed),
                "{mode:?}, epoch {:?}: particle states differ",
                batch.epoch
            );
            skipped += t1 - t0;
        }
        assert_eq!(a, b, "{mode:?}: events");
        assert!(skipped > 0, "{mode:?}: the stretch skipped nothing");
    }
}
