//! How much cheaper than inference are the baselines the accuracy
//! matrix compares against? Times SMURF and uniform sampling over one
//! whole trace — the only timing of `rfid-baselines`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rfid_baselines::{Smurf, SmurfConfig, UniformBaseline};
use rfid_geom::{Aabb, Point3};
use rfid_sim::scenario;
use rfid_stream::InferenceStage;

fn bench_smurf(c: &mut Criterion) {
    let sc = scenario::small_trace(16, 4, 123);
    let batches = sc.trace.epoch_batches();
    let shelf = Aabb::new(Point3::new(1.5, 0.0, 0.0), Point3::new(2.5, 10.0, 0.0));
    let mut g = c.benchmark_group("baselines");
    g.bench_function("smurf_full_trace", |b| {
        b.iter(|| {
            let mut s = Smurf::new(SmurfConfig::new(4.0, vec![shelf]), []);
            let mut n = 0;
            for batch in &batches {
                n += s.process_batch(black_box(batch)).len();
            }
            n
        })
    });
    g.bench_function("uniform_full_trace", |b| {
        b.iter(|| {
            let mut u = UniformBaseline::new(4.0, vec![shelf], [], 1);
            let mut n = 0;
            for batch in &batches {
                n += u.process_batch(black_box(batch)).len();
            }
            n
        })
    });
    g.finish();
}

criterion_group!(benches, bench_smurf);
criterion_main!(benches);
