//! Microbenchmark: belief compression and decompression (§IV-D).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_core::compression::CompressedBelief;
use rfid_core::factored::ReaderFilter;
use rfid_geom::{Point3, Pose};
use rfid_stream::Epoch;

fn cloud(n: usize, seed: u64) -> Vec<(f64, Point3)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            (
                1.0 / n as f64,
                Point3::new(
                    2.0 + rng.gen_range(-0.2..0.2),
                    5.0 + rng.gen_range(-0.3..0.3),
                    0.0,
                ),
            )
        })
        .collect()
}

fn bench_compression(c: &mut Criterion) {
    let mut g = c.benchmark_group("compression");
    for &n in &[100usize, 1000] {
        let cl = cloud(n, 1);
        g.bench_function(format!("compress_{n}"), |b| {
            b.iter(|| CompressedBelief::compress(black_box(&cl), Epoch(0)).unwrap())
        });
    }
    let compressed = CompressedBelief::compress(&cloud(1000, 2), Epoch(0)).unwrap();
    let tables = ReaderFilter::new(100, Pose::identity()).tables();
    g.bench_function("decompress_10", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| compressed.decompress(10, black_box(&tables), 0, &mut rng))
    });
    g.finish();
}

criterion_group!(benches, bench_compression);
criterion_main!(benches);
