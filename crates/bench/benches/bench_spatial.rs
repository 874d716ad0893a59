//! What does one spatial-index operation (§IV-C) cost as the tree
//! grows? Times R*-tree query and insert at two sizes and the region
//! index probe an epoch pays — the only timing of `rfid-spatial` on its
//! own (`benchmark/` has no metric for the index alone).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_geom::{Aabb, Point3};
use rfid_spatial::{RTree, RegionIndex};
use rfid_stream::TagId;

fn build_tree(n: usize, seed: u64) -> RTree<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = RTree::new();
    for i in 0..n as u32 {
        let c = Point3::new(
            rng.gen_range(-500.0..500.0),
            rng.gen_range(-500.0..500.0),
            0.0,
        );
        t.insert(Aabb::cube(c, rng.gen_range(1.0..6.0)), i);
    }
    t
}

fn bench_spatial(c: &mut Criterion) {
    let mut g = c.benchmark_group("spatial");
    for &n in &[1_000usize, 10_000] {
        let tree = build_tree(n, 7);
        g.bench_function(format!("rtree_query_{n}"), |b| {
            let q = Aabb::cube(Point3::new(0.0, 0.0, 0.0), 8.0);
            b.iter(|| tree.query(black_box(&q)).len())
        });
        g.bench_function(format!("rtree_insert_{n}_th"), |b| {
            // amortized insert into a tree of size n
            b.iter_batched(
                || build_tree(n, 8),
                |mut t| {
                    t.insert(Aabb::cube(Point3::new(1.0, 1.0, 0.0), 2.0), 0);
                    t
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    // the region index probe that runs once per epoch
    let mut idx: RegionIndex<TagId> = RegionIndex::new();
    let mut rng = StdRng::seed_from_u64(9);
    for i in 0..5_000u64 {
        let c = Point3::new(0.0, rng.gen_range(0.0..2500.0), 0.0);
        idx.insert_region(Aabb::cube(c, 3.0), [TagId(i), TagId(i + 1)]);
    }
    g.bench_function("region_index_probe_5000", |b| {
        let q = Aabb::cube(Point3::new(0.0, 1250.0, 0.0), 3.0);
        b.iter(|| idx.query_objects(black_box(&q)).len())
    });
    g.finish();
}

criterion_group!(benches, bench_spatial);
criterion_main!(benches);
