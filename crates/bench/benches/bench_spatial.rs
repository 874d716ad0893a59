//! What does the sensing-region index (§IV-C) cost per epoch once a
//! patrol has filled it? Records one region per epoch along 20 passes of
//! one aisle — the cube the engine records, 4.4 ft on a side, half a foot
//! apart, about five objects each — then times the probe an epoch pays
//! (`query_objects_into`, mid-aisle) and the record it appends
//! (`insert_region`, onto a copy of that index that keeps growing by one
//! region per iteration, as the engine's does). The only timing of
//! `rfid-spatial` on its own (`benchmark/` has no metric for the index
//! alone).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rfid_geom::{Aabb, Point3};
use rfid_spatial::RegionIndex;
use rfid_stream::TagId;

/// Aisle length in feet; one object per foot.
const AISLE_FT: f64 = 100.0;
/// Passes along the aisle.
const PASSES: usize = 20;
/// Reader advance per epoch, in feet.
const STEP_FT: f64 = 0.5;
/// Half the edge of the recorded sensing cube.
const HALF_EDGE_FT: f64 = 2.2;

/// The sensing cube at aisle position `y`.
fn sensing_cube(y: f64) -> Aabb {
    Aabb::cube(Point3::new(0.0, y, 0.0), HALF_EDGE_FT)
}

/// An index holding every region of `PASSES` passes: one per epoch,
/// members the objects within the cube.
fn patrolled() -> RegionIndex<TagId> {
    let mut idx = RegionIndex::new();
    let epochs = (AISLE_FT / STEP_FT) as usize;
    for _ in 0..PASSES {
        for e in 0..epochs {
            let y = e as f64 * STEP_FT;
            let lo = (y - HALF_EDGE_FT).max(0.0).ceil() as u64;
            let hi = (y + HALF_EDGE_FT).min(AISLE_FT) as u64;
            idx.insert_region(sensing_cube(y), (lo..=hi).map(TagId));
        }
    }
    idx
}

fn bench_spatial(c: &mut Criterion) {
    let mut g = c.benchmark_group("spatial");
    let idx = patrolled();
    let q = sensing_cube(AISLE_FT / 2.0);
    g.bench_function("region_index_probe_patrol", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            idx.query_objects_into(black_box(&q), &mut out);
            out.len()
        })
    });
    let mut growing = idx.clone();
    g.bench_function("region_index_record_patrol", |b| {
        b.iter(|| growing.insert_region(black_box(q), (48..=52).map(TagId)))
    });
    g.finish();
}

criterion_group!(benches, bench_spatial);
criterion_main!(benches);
