//! Pins the production object step to the naive reference.
//!
//! `ObjectFilter::step_fused` runs weight → resample → estimate over
//! struct-of-arrays columns, caller-owned scratch, per-epoch reader
//! tables and an in-place reorder. `reference::ReferenceFilter` performs
//! the same arithmetic with array-of-structs particles, fresh buffers
//! and an ancestry vector, in three separate calls. This suite drives
//! both over multi-epoch read/miss sequences — and over the degenerate
//! weight configurations where the step changes route — and asserts
//! **bit-identical** particle states, estimates, resample decisions and
//! staged support from identical RNG streams.

mod reference;

use rand::rngs::StdRng;
use rand::SeedableRng;
use reference::ReferenceFilter;
use rfid_core::{ObjectFilter, ObjectParticle, ReaderFilter, ReaderParticle, StepScratch};
use rfid_geom::{Point3, Pose, Vec3};
use rfid_model::{BoxPrior, ConeSensor, JointModel, ModelParams, ReadRateModel};

const NO_PRIOR: Option<&BoxPrior> = None;

fn assert_particles_identical(a: &ReferenceFilter, b: &ObjectFilter, epoch: usize) {
    assert_eq!(a.particles.len(), b.len(), "epoch {epoch}: particle counts");
    for (i, (pa, pb)) in a.particles.iter().zip(b.iter_particles()).enumerate() {
        assert_eq!(
            pa.loc.x.to_bits(),
            pb.loc.x.to_bits(),
            "epoch {epoch} particle {i}: loc.x {} vs {}",
            pa.loc.x,
            pb.loc.x
        );
        assert_eq!(
            pa.loc.y.to_bits(),
            pb.loc.y.to_bits(),
            "epoch {epoch} particle {i}: loc.y"
        );
        assert_eq!(
            pa.loc.z.to_bits(),
            pb.loc.z.to_bits(),
            "epoch {epoch} particle {i}: loc.z"
        );
        assert_eq!(
            pa.reader_idx, pb.reader_idx,
            "epoch {epoch} particle {i}: pointer"
        );
        assert_eq!(
            pa.log_w.to_bits(),
            pb.log_w.to_bits(),
            "epoch {epoch} particle {i}: log weight {} vs {}",
            pa.log_w,
            pb.log_w
        );
    }
}

/// Steps the reference (three calls) and the production step side by
/// side from the same particle set, against the same reader, through
/// `epochs` steps under a read/miss schedule, asserting bit-identical
/// outcomes at every step. Returns the resample count and the last
/// step's staged support row.
fn drive_pair<S: ReadRateModel>(
    m: &JointModel<S>,
    start: ObjectFilter,
    reader: ReaderFilter,
    ess_frac: f64,
    read_at: fn(usize) -> bool,
    epochs: usize,
    seed: u64,
) -> (u64, Vec<f64>) {
    let mut reader_ref = reader.clone();
    let mut reader_fused = reader;
    let mut reference = ReferenceFilter::from_filter(&start);
    let mut fused = start;

    // identical RNG streams for the two paths
    let mut rng_ref = StdRng::seed_from_u64(seed ^ 0xABCD);
    let mut rng_fused = StdRng::seed_from_u64(seed ^ 0xABCD);
    let mut scratch = StepScratch::default();
    let mut support = vec![0.0f64; reader_ref.len()];
    // the production side reads the per-epoch tables the engine builds
    // (sampling weights, heading trig); the reference exponentiates and
    // recomputes sin/cos per particle — the bit-identity assertions
    // below pin the two as equivalent
    let tables = reader_fused.tables();

    let mut resamples = 0;
    for epoch in 0..epochs {
        let read = read_at(epoch);

        // --- reference: three calls, fresh buffers --------------------
        let probs = reference.weight(m, &mut reader_ref, read);
        // the support row the weighted set implies, slot by slot in
        // particle order (the reference deposits the same addends
        // straight into its reader's running totals)
        let mut row_ref = vec![0.0f64; support.len()];
        for (p, w) in reference.particles.iter().zip(&probs) {
            row_ref[p.reader_idx as usize] += w;
        }
        let resampled_probs = reference.maybe_resample(&reader_ref, &probs, ess_frac, &mut rng_ref);
        let est_ref = reference.estimate(resampled_probs.as_ref().unwrap_or(&probs));

        // --- production: one pass -------------------------------------
        support.fill(0.0);
        let out = fused.step_fused(
            m,
            &reader_fused,
            &tables,
            read,
            ess_frac,
            &mut scratch,
            &mut support,
            &mut rng_fused,
        );
        reader_fused.merge_support(&support);

        // --- identical results ----------------------------------------
        assert_eq!(
            resampled_probs.is_some(),
            out.resampled,
            "epoch {epoch}: resample decision"
        );
        resamples += u64::from(out.resampled);
        assert_particles_identical(&reference, &fused, epoch);
        assert_eq!(
            est_ref.0.x.to_bits(),
            out.estimate.0.x.to_bits(),
            "epoch {epoch}: estimate x {} vs {}",
            est_ref.0.x,
            out.estimate.0.x
        );
        assert_eq!(
            est_ref.0.y.to_bits(),
            out.estimate.0.y.to_bits(),
            "epoch {epoch}: estimate y"
        );
        assert_eq!(
            est_ref.0.z.to_bits(),
            out.estimate.0.z.to_bits(),
            "epoch {epoch}: estimate z"
        );
        for ax in 0..3 {
            assert_eq!(
                est_ref.1[ax].to_bits(),
                out.estimate.1[ax].to_bits(),
                "epoch {epoch}: variance[{ax}]"
            );
        }
        for (i, (a, b)) in row_ref.iter().zip(&support).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "epoch {epoch}: support[{i}]");
        }
        // neither path touches the reader's weights
        for (i, (a, b)) in reader_ref
            .particles()
            .iter()
            .zip(reader_fused.particles())
            .enumerate()
        {
            assert_eq!(
                a.log_w.to_bits(),
                b.log_w.to_bits(),
                "epoch {epoch}: reader weight {i}"
            );
        }
    }
    (resamples, support)
}

/// [`drive_pair`] from a cone-initialized particle set against a
/// uniform-weight reader.
fn drive(ess_frac: f64, read_at: fn(usize) -> bool, epochs: usize, seed: u64) -> u64 {
    let reader = ReaderFilter::new(30, Pose::new(Point3::new(0.0, 0.5, 0.0), 0.1));
    let mut init_rng = StdRng::seed_from_u64(seed);
    let start = ObjectFilter::init_from_cone(
        &reader,
        &reader.tables(),
        5.0,
        0.6,
        120,
        0,
        NO_PRIOR,
        &mut StepScratch::default(),
        &mut init_rng,
    );
    let m = JointModel::new(ModelParams::default_warehouse());
    drive_pair(&m, start, reader, ess_frac, read_at, epochs, seed).0
}

#[test]
fn fused_step_equals_seed_path_on_read_heavy_trace() {
    let resamples = drive(0.5, |e| e % 3 != 2, 25, 11);
    assert!(
        resamples >= 1,
        "trace should exercise the resampling branch"
    );
}

#[test]
fn fused_step_equals_seed_path_on_miss_heavy_trace() {
    drive(0.5, |e| e % 5 == 0, 25, 12);
}

#[test]
fn fused_step_equals_seed_path_resample_always() {
    // ess_frac = 1.0 resamples every step (the Ng et al. scheme):
    // maximal exercise of the in-place reorder path
    let resamples = drive(1.0, |e| e % 2 == 0, 20, 13);
    assert_eq!(resamples, 20);
}

// --- the cone sensor: the model every benchmark workload runs ---------
//
// The drives above weight with the logistic sensor, whose likelihood is
// one smooth expression. The paper's cone (Fig. 5(a)) is piecewise:
// beyond range, inside the major cone, in the minor band, outside the
// outer edge — and the step's cost and its `exp` shortcuts depend on
// which region each particle falls in. These drives spread the reader
// cloud so the pointed-to poses differ and every region is populated.

/// A reader cloud whose poses are spread: every particle starts at one
/// pose and is predicted five times with 0.3 ft of position noise and
/// 0.2 rad of heading noise per step.
fn spread_reader(n: usize, seed: u64) -> ReaderFilter {
    let mut params = ModelParams::default_warehouse();
    params.motion.sigma = Vec3::new(0.3, 0.3, 0.0);
    params.motion.heading_std = 0.2;
    let noisy = JointModel::new(params);
    let mut reader = ReaderFilter::new(n, Pose::new(Point3::new(0.0, 0.5, 0.0), 0.1));
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..5 {
        reader.predict(&noisy, Some(Vec3::zero()), Some(0.1), &mut rng);
    }
    reader
}

/// How many particles of `f` sit beyond range, in the major cone, in
/// the minor band and outside the outer edge of the paper's cone, each
/// seen from the reader particle it points at.
fn cone_regions(f: &ObjectFilter, reader: &ReaderFilter) -> [usize; 4] {
    let mut regions = [0usize; 4];
    for p in f.iter_particles() {
        let (d, th) = reader.pose_of(p.reader_idx).range_bearing(&p.loc);
        let region = if d > 4.0 {
            0
        } else if th <= 15f64.to_radians() {
            1
        } else if th <= 30f64.to_radians() {
            2
        } else {
            3
        };
        regions[region] += 1;
    }
    regions
}

/// [`drive_pair`] with the cone sensor, from a cone-initialized set
/// (5 ft, 0.6 rad: wider and longer than the sensor) pointing into a
/// spread reader cloud.
fn drive_cone(sensor: ConeSensor, read_at: fn(usize) -> bool, seed: u64) -> u64 {
    let reader = spread_reader(40, seed);
    let mut init_rng = StdRng::seed_from_u64(seed);
    let start = ObjectFilter::init_from_cone(
        &reader,
        &reader.tables(),
        5.0,
        0.6,
        400,
        0,
        NO_PRIOR,
        &mut StepScratch::default(),
        &mut init_rng,
    );
    let regions = cone_regions(&start, &reader);
    assert!(
        regions.iter().all(|&k| k >= 10),
        "every sensor region populated: {regions:?}"
    );
    let m = JointModel::with_sensor(sensor, ModelParams::default_warehouse());
    drive_pair(&m, start, reader, 0.5, read_at, 25, seed).0
}

#[test]
fn fused_step_equals_reference_with_cone_sensor_on_read_heavy_trace() {
    let resamples = drive_cone(ConeSensor::paper_default(), |e| e % 3 != 2, 31);
    assert!(
        resamples >= 1,
        "trace should exercise the resampling branch"
    );
}

#[test]
fn fused_step_equals_reference_with_cone_sensor_on_miss_heavy_trace() {
    drive_cone(ConeSensor::paper_default(), |e| e % 5 == 0, 32);
}

#[test]
fn fused_step_equals_reference_with_cone_sensor_below_full_read_rate() {
    // RR_major < 1: the major cone's constants are finite on both
    // outcomes, so neither a read nor a miss kills a particle there
    drive_cone(ConeSensor::with_rr_major(0.7), |e| e % 2 == 0, 33);
}

#[test]
fn fused_support_mass_matches_seed_deposits() {
    // one fused step's staged support row carries exactly the mass the
    // seed path deposits: total 1 (the joint weights are normalized)
    let m = JointModel::new(ModelParams::default_warehouse());
    let reader = ReaderFilter::new(20, Pose::identity());
    let mut rng = StdRng::seed_from_u64(7);
    let mut f = ObjectFilter::init_from_cone(
        &reader,
        &reader.tables(),
        4.0,
        0.5,
        200,
        0,
        NO_PRIOR,
        &mut StepScratch::default(),
        &mut rng,
    );
    let mut scratch = StepScratch::default();
    let mut support = vec![0.0f64; reader.len()];
    f.step_fused(
        &m,
        &reader,
        &reader.tables(),
        true,
        0.5,
        &mut scratch,
        &mut support,
        &mut rng,
    );
    let total: f64 = support.iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "staged support mass {total}");
}

// --- degenerate weights: where the step changes route ----------------
//
// Each case builds the particle set and the reader by hand, drives both
// paths through a few steps with and without resampling, and — beyond
// the bit-for-bit pin inside `drive_pair` — checks the staged support
// row is a probability distribution (finite, summing to one).

/// A fan of particles in front of the reader, pointers cycling over the
/// first `pointed` reader particles, object log weights from `log_w`.
fn fan(n: usize, pointed: u32, log_w: impl Fn(usize) -> f64) -> ObjectFilter {
    let particles: Vec<ObjectParticle> = (0..n)
        .map(|i| ObjectParticle {
            loc: Point3::new(
                1.0 + 0.03 * i as f64,
                0.5 + 0.02 * (i % 7) as f64 - 0.06,
                0.0,
            ),
            reader_idx: i as u32 % pointed,
            log_w: log_w(i),
        })
        .collect();
    ObjectFilter::from_parts(particles, 0, 0)
}

/// A reader of `n` co-located particles with the given log weights.
fn reader_with(n: usize, log_w: impl Fn(usize) -> f64) -> ReaderFilter {
    let pose = Pose::new(Point3::new(0.0, 0.5, 0.0), 0.1);
    let particles = (0..n)
        .map(|j| ReaderParticle {
            pose,
            log_w: log_w(j),
        })
        .collect();
    ReaderFilter::from_parts(particles, vec![0.0; n], 0)
}

fn assert_distribution(row: &[f64], what: &str) {
    assert!(
        row.iter().all(|p| p.is_finite() && *p >= 0.0),
        "{what}: support row {row:?}"
    );
    let total: f64 = row.iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "{what}: support mass {total}");
}

fn drive_edge_case(what: &str, start: &ObjectFilter, reader: &ReaderFilter) {
    for ess_frac in [0.0, 1.0] {
        let (resamples, row) = drive_pair(
            &JointModel::new(ModelParams::default_warehouse()),
            start.clone(),
            reader.clone(),
            ess_frac,
            |e| e % 2 == 0,
            4,
            17,
        );
        assert_distribution(&row, what);
        if ess_frac == 0.0 {
            assert_eq!(resamples, 0, "{what}: ess_frac 0 never resamples");
        }
    }
}

#[test]
fn edge_all_object_weights_impossible_resets_uniform() {
    let uniform = -(10f64).ln();
    let start = fan(60, 10, |_| f64::NEG_INFINITY);
    let reader = reader_with(10, |_| uniform);
    drive_edge_case("all -inf", &start, &reader);

    // the reset itself: one step leaves uniform object weights
    let mut f = start;
    let m = JointModel::new(ModelParams::default_warehouse());
    let mut support = vec![0.0f64; reader.len()];
    f.step_fused(
        &m,
        &reader,
        &reader.tables(),
        true,
        0.0,
        &mut StepScratch::default(),
        &mut support,
        &mut StdRng::seed_from_u64(1),
    );
    let want = -(60f64).ln();
    assert!(f.iter_particles().all(|p| p.log_w == want));
}

#[test]
fn edge_one_surviving_particle_takes_all_the_mass() {
    let uniform = -(10f64).ln();
    let start = fan(60, 10, |i| if i == 23 { -3.0 } else { f64::NEG_INFINITY });
    let reader = reader_with(10, |_| uniform);
    drive_edge_case("one survivor", &start, &reader);

    let mut f = start;
    let m = JointModel::new(ModelParams::default_warehouse());
    let mut support = vec![0.0f64; reader.len()];
    let out = f.step_fused(
        &m,
        &reader,
        &reader.tables(),
        true,
        0.0,
        &mut StepScratch::default(),
        &mut support,
        &mut StdRng::seed_from_u64(1),
    );
    // all support on the survivor's reader particle, estimate on it
    assert_eq!(support[23 % 10], 1.0);
    let survivor = f.iter_particles().nth(23).unwrap();
    assert_eq!(out.estimate.0.x, survivor.loc.x);
    assert_eq!(survivor.log_w, 0.0);
}

#[test]
fn edge_pointed_reader_weights_underflow_takes_log_space_route() {
    // the object particles point at reader particles 0..4 only; all the
    // reader's mass sits on particle 9, so every product
    // `exp(log_w - max) * exp(reader log_w)` is exactly zero and the
    // joint probabilities must come from the log-space pass
    let start = fan(48, 4, |i| -0.01 * i as f64);
    let underflow = reader_with(10, |j| if j == 9 { 0.0 } else { -800.0 - j as f64 });
    assert_eq!(underflow.weight_of(0), 0.0, "exp(-800) underflows");
    drive_edge_case("underflowing reader weights", &start, &underflow);

    // pointed-to reader particles outright impossible: the log-space
    // pass itself resets the joint weights to uniform
    let impossible = reader_with(10, |j| if j == 9 { 0.0 } else { f64::NEG_INFINITY });
    drive_edge_case("impossible reader particles", &start, &impossible);

    // a mix: some pointed-to reader particles live, some underflowed
    let mixed = reader_with(10, |j| match j {
        0 | 2 => -900.0,
        9 => (0.5f64).ln(),
        _ => (0.5f64 / 7.0).ln(),
    });
    drive_edge_case("mixed reader weights", &start, &mixed);
}

#[test]
fn edge_step_after_a_resample_matches() {
    // sharply peaked object weights force a resample on the first step
    // at the default threshold; the steps after it start from uniform
    // object weights and duplicated particles
    let start = fan(80, 10, |i| if i % 16 == 0 { -1.0 } else { -40.0 });
    let reader = reader_with(10, |j| ((j + 1) as f64 / 55.0).ln());
    let m = JointModel::new(ModelParams::default_warehouse());
    let (resamples, row) = drive_pair(&m, start, reader, 0.5, |_| true, 6, 29);
    assert!(resamples >= 1, "the peaked set must resample");
    assert_distribution(&row, "post-resample");
}
