//! Does offline calibration (§III-C) stay in seconds? Times the M-step
//! logistic fit and one full EM iteration — the only timing of
//! `rfid-learn`, which no `benchmark/` workload runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_learn::{calibrate, fit_logistic, EmConfig, SensorRow};
use rfid_model::{LogisticSensorModel, ModelParams, ReadRateModel, SensorParams};
use rfid_sim::scenario;

fn rows(n: usize, seed: u64) -> Vec<SensorRow> {
    let truth = LogisticSensorModel::new(SensorParams::default_cone_like());
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let d = rng.gen_range(0.0..8.0);
            let th = rng.gen_range(0.0..1.5);
            SensorRow::from_dt(d, th, rng.gen::<f64>() < truth.p_read_dt(d, th), 1.0)
        })
        .collect()
}

fn bench_learning(c: &mut Criterion) {
    let mut g = c.benchmark_group("learning");
    let data = rows(5_000, 1);
    g.bench_function("logistic_fit_5k_rows", |b| {
        let init = SensorParams {
            a: [0.0, 0.0, 0.0],
            b: [0.0, 0.0],
        };
        b.iter(|| fit_logistic(black_box(&data), init, 1e-3, 50).nll)
    });

    let sc = scenario::small_trace(12, 4, 2);
    let batches = sc.trace.epoch_batches();
    g.sample_size(10);
    g.bench_function("em_one_iteration", |b| {
        let cfg = EmConfig {
            iterations: 1,
            particles_per_object: 200,
            reader_particles: 40,
            ..EmConfig::default()
        };
        b.iter(|| {
            calibrate(
                black_box(&batches),
                &sc.trace.shelf_tags,
                &sc.layout,
                ModelParams::default_warehouse(),
                &cfg,
            )
            .final_rows
        })
    });
    g.finish();
}

criterion_group!(benches, bench_learning);
criterion_main!(benches);
