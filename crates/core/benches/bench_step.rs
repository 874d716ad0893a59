//! Microbenchmark for the per-object hot path: the production step
//! (`ObjectFilter::step_fused`) against the naive AoS reference
//! sequence (`weight` → `maybe_resample` → `estimate`, shared with
//! `tests/fused_equivalence.rs`), per particle count, plus the
//! surrounding per-epoch components (`refresh_pointers`, `predict`,
//! first-sighting `init_from_cone`, the `log_normalize_exp` pass on the
//! two kinds of weight column, one belief compression and
//! decompression, the index's out-of-reach test and the extent scan
//! behind it) so a profile of the engine's infer and emit stages
//! can be cross-checked against isolated numbers.
//!
//! Three fixtures: the logistic sensor over a box prior, the
//! benchmark's operating point — `ConeSensor` over a `WarehouseLayout`
//! with the reader in the aisle facing the shelf — and the same point
//! with the reader cloud spread, so the cone's regions interleave
//! across the particles.

#[path = "../tests/reference/mod.rs"]
mod reference;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::ReferenceFilter;
use rfid_core::{
    log_normalize_exp, CompressedBelief, ObjectFilter, Reach, ReaderFilter, ReaderTables,
    StepScratch,
};
use rfid_geom::{Point3, Pose, Vec3};
use rfid_model::{BoxPrior, ConeSensor, JointModel, LocationPrior, ModelParams, ReadRateModel};
use rfid_sim::WarehouseLayout;
use rfid_stream::Epoch;

const READER_PARTICLES: usize = 100;
const COUNTS: [usize; 4] = [100, 200, 500, 1000];
/// `FilterConfig::full_default()`'s initialization cone over the paper
/// sensor: 4 ft range × 1.25 overestimate, 35° half angle.
const CONE_RANGE: f64 = 5.0;
const CONE_HALF_ANGLE: f64 = 0.6108652381980153;

struct Fixture<S: ReadRateModel, P: LocationPrior> {
    model: JointModel<S>,
    prior: P,
    reader: ReaderFilter,
    tables: ReaderTables,
    filter: ObjectFilter,
    scratch: StepScratch,
    support: Vec<f64>,
    rng: StdRng,
}

fn fixture<S: ReadRateModel, P: LocationPrior>(
    model: JointModel<S>,
    prior: P,
    reader: ReaderFilter,
    n: usize,
) -> Fixture<S, P> {
    let tables = reader.tables();
    let mut rng = StdRng::seed_from_u64(42);
    let filter = ObjectFilter::init_from_cone(
        &reader,
        &tables,
        CONE_RANGE,
        CONE_HALF_ANGLE,
        n,
        0,
        Some(&prior),
        &mut StepScratch::default(),
        &mut rng,
    );
    Fixture {
        model,
        prior,
        reader,
        tables,
        filter,
        scratch: StepScratch::default(),
        support: vec![0.0f64; READER_PARTICLES],
        rng,
    }
}

/// Logistic sensor, one big legal box.
fn logistic(n: usize) -> Fixture<rfid_model::LogisticSensorModel, BoxPrior> {
    fixture(
        JointModel::new(ModelParams::default_warehouse()),
        BoxPrior::new(rfid_geom::Aabb::new(
            Point3::new(-20.0, -20.0, 0.0),
            Point3::new(20.0, 20.0, 0.0),
        )),
        ReaderFilter::new(READER_PARTICLES, Pose::new(Point3::new(0.0, 0.5, 0.0), 0.1)),
        n,
    )
}

/// The benchmark's operating point: paper cone sensor, shelves with
/// faces at x = 2 ft, reader mid-aisle facing them.
fn warehouse(n: usize) -> Fixture<ConeSensor, WarehouseLayout> {
    warehouse_with(ReaderFilter::new(READER_PARTICLES, AISLE), n)
}

/// Mid-aisle, facing the shelf faces at x = 2 ft.
const AISLE: Pose = Pose {
    pos: Point3 {
        x: 0.0,
        y: 500.0,
        z: 0.0,
    },
    phi: 0.0,
};

fn warehouse_with(reader: ReaderFilter, n: usize) -> Fixture<ConeSensor, WarehouseLayout> {
    fixture(
        JointModel::with_sensor(
            ConeSensor::paper_default(),
            ModelParams::default_warehouse(),
        ),
        WarehouseLayout::for_objects(2000, 0.5),
        reader,
        n,
    )
}

/// [`warehouse`] with the reader cloud spread: five predicts with
/// 0.2 ft of position noise and 0.1 rad of heading noise each. The
/// particles of `warehouse` all point at one cloned pose, so whether a
/// particle's likelihood is a constant or the exact line hardly changes
/// from one particle to the next; here the pointed-to poses differ and
/// the sensor regions interleave, as they do in a tracked reader's
/// cloud.
fn warehouse_spread(n: usize) -> Fixture<ConeSensor, WarehouseLayout> {
    let mut params = ModelParams::default_warehouse();
    params.motion.sigma = Vec3::new(0.2, 0.2, 0.0);
    params.motion.heading_std = 0.1;
    let noisy = JointModel::new(params);
    let mut reader = ReaderFilter::new(READER_PARTICLES, AISLE);
    let mut rng = StdRng::seed_from_u64(43);
    for _ in 0..5 {
        reader.predict(&noisy, Some(Vec3::zero()), Some(AISLE.phi), &mut rng);
    }
    warehouse_with(reader, n)
}

/// Fused SoA single-pass step (weight + resample decision + estimate),
/// alternating read/miss epochs; resampling is exercised via ess_frac.
fn fused_rows<S: ReadRateModel, P: LocationPrior>(
    c: &mut Criterion,
    group: &str,
    make: fn(usize) -> Fixture<S, P>,
) {
    let mut g = c.benchmark_group(group);
    for &n in &COUNTS {
        let mut f = make(n);
        let mut epoch = 0u64;
        g.bench_function(format!("{n}"), |b| {
            b.iter(|| {
                epoch += 1;
                f.support.fill(0.0);
                let out = f.filter.step_fused(
                    &f.model,
                    &f.reader,
                    &f.tables,
                    epoch % 3 != 2,
                    0.5,
                    &mut f.scratch,
                    &mut f.support,
                    &mut f.rng,
                );
                out.estimate.0.x
            })
        });
    }
    g.finish();
}

fn bench_fused(c: &mut Criterion) {
    fused_rows(c, "step_fused_soa", logistic);
    fused_rows(c, "step_fused_soa_warehouse", warehouse);
    fused_rows(c, "step_fused_soa_warehouse_spread", warehouse_spread);
}

/// The naive AoS reference: the same arithmetic in three calls with
/// fresh buffers (what the production step is bit-pinned against).
fn bench_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("step_reference_aos");
    for &n in &COUNTS {
        let mut f = logistic(n);
        let mut reference = ReferenceFilter::from_filter(&f.filter);
        let mut reader = f.reader.clone();
        let mut epoch = 0u64;
        g.bench_function(format!("{n}"), |b| {
            b.iter(|| {
                epoch += 1;
                let probs = reference.weight(&f.model, &mut reader, epoch % 3 != 2);
                let resampled = reference.maybe_resample(&reader, &probs, 0.5, &mut f.rng);
                reference.estimate(resampled.as_ref().unwrap_or(&probs)).0.x
            })
        });
    }
    g.finish();
}

/// The weight column `log_normalize_exp` sees at the benchmark's
/// operating point: the cone sensor's likelihood is piecewise constant,
/// so after a read and then a miss from 2 ft further along the aisle
/// most weights sit at the maximum or at `−inf` and need no `exp`.
fn cone_miss_column(n: usize) -> Vec<f64> {
    let mut f = warehouse(n);
    let moved = ReaderFilter::new(
        READER_PARTICLES,
        Pose::new(Point3::new(0.0, 502.0, 0.0), 0.0),
    );
    for (reader, read) in [(&f.reader, true), (&moved, false)] {
        f.support.fill(0.0);
        f.filter.step_fused(
            &f.model,
            reader,
            &reader.tables(),
            read,
            0.0,
            &mut f.scratch,
            &mut f.support,
            &mut f.rng,
        );
    }
    f.filter.soa().log_w.clone()
}

/// A column with one maximum and no dead weight (what the logistic
/// sensor produces): every entry takes the `exp` call, so this row
/// prices the shortcut's branch where it never fires.
fn dense_column(n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..n).map(|_| rng.gen::<f64>().ln() * 3.0).collect()
}

/// The per-epoch steps surrounding the fused step in the engine:
/// pointer refresh (n reader draws), motion predict (n noise draws),
/// the first-sighting cone initialization at the operating point
/// (n reader draws + n rejection-sampled cone points), the one `exp`
/// pass of the step on its own, and the emit stage's belief
/// compression with the decompression a re-sighting pays.
fn bench_epoch_components(c: &mut Criterion) {
    let mut g = c.benchmark_group("step_components");
    for (name, column) in [
        ("cone_miss", cone_miss_column(1000)),
        ("dense", dense_column(1000)),
    ] {
        let mut work = column.clone();
        let (mut exps, mut pending) = (Vec::new(), Vec::new());
        g.bench_function(format!("log_normalize_exp/1000/{name}"), |b| {
            b.iter(|| {
                work.copy_from_slice(&column);
                log_normalize_exp(&mut work, &mut exps, &mut pending)
            })
        });
    }
    for n in [200usize, 1000] {
        let mut f = logistic(n);
        let mut stamp = 0u64;
        g.bench_function(format!("refresh_pointers/{n}"), |b| {
            b.iter(|| {
                stamp += 1;
                f.filter.refresh_pointers(&f.tables, stamp, &mut f.rng);
            })
        });
    }
    {
        // the index's out-of-reach decision for one candidate (the
        // per-epoch `Reach::new` is outside the loop, as in the engine:
        // the cost must not depend on either particle count), and what
        // a resampling step pays to keep the extent it reads equal to
        // the filter's columns
        let f = warehouse(1000);
        let edge = f.model.sensor.hard_edge().expect("the cone has an edge");
        let reach = Reach::new(&f.tables, edge);
        g.bench_function("reach_test", |b| {
            b.iter(|| black_box(&reach).cannot_see(black_box(f.filter.xy_bounds())))
        });
        g.bench_function("xy_bounds/1000", |b| {
            b.iter(|| black_box(f.filter.soa()).xy_bounds())
        });
    }
    {
        let mut f = logistic(200);
        g.bench_function("predict/200", |b| {
            b.iter(|| {
                f.filter.predict(&f.model, &f.prior, true, &mut f.rng);
            })
        });
    }
    {
        // one belief compression of a converged 1,000-particle cloud and
        // one 10-particle decompression (§IV-D)
        let mut rng = StdRng::seed_from_u64(1);
        let cloud: Vec<(f64, Point3)> = (0..1000)
            .map(|_| {
                let (dx, dy) = (rng.gen_range(-0.2..0.2), rng.gen_range(-0.3..0.3));
                (1e-3, Point3::new(2.0 + dx, 5.0 + dy, 0.0))
            })
            .collect();
        g.bench_function("compress/1000", |b| {
            b.iter(|| CompressedBelief::compress(black_box(&cloud), Epoch(0)).unwrap())
        });
        let compressed = CompressedBelief::compress(&cloud, Epoch(0)).unwrap();
        let tables = ReaderFilter::new(READER_PARTICLES, Pose::identity()).tables();
        g.bench_function("decompress/10", |b| {
            b.iter(|| compressed.decompress(10, black_box(&tables), 0, &mut rng))
        });
    }
    {
        let mut f = warehouse(1);
        g.bench_function("cold_init/1000", |b| {
            b.iter(|| {
                ObjectFilter::init_from_cone(
                    &f.reader,
                    &f.tables,
                    CONE_RANGE,
                    CONE_HALF_ANGLE,
                    1000,
                    0,
                    Some(&f.prior),
                    &mut f.scratch,
                    &mut f.rng,
                )
                .len()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_fused,
    bench_reference,
    bench_epoch_components
);
criterion_main!(benches);
