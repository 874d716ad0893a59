//! The region index's contract: a probe returns, as a multiset, the
//! members of every recorded region that a linear `Aabb::intersects`
//! scan finds — each such region once, no other region — whatever the
//! boxes are: mixed cube sizes, shared faces, zero extent, coordinates
//! at ±1e6 and ±1e300, NaN and ±∞ corners. An index rebuilt by
//! re-recording its regions in id order, as checkpoint restore does,
//! answers the same.
//!
//! ```sh
//! cargo test --release -p rfid-spatial --test region_index_prop
//! ```

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_geom::{Aabb, Point3};
use rfid_spatial::RegionIndex;

/// Cube edges, zero included; 4.4 is a sensing box's edge at a 4 ft
/// range.
const EDGES: [f64; 5] = [0.0, 0.5, 1.0, 2.2, 4.4];

/// One axis of a box, `(min, max)` with `min <= max` unless a corner is
/// NaN. The min corner sits on a half-foot lattice around `origin`, so
/// boxes share faces; a `hostile` axis may get a NaN, infinite or
/// ±1e300 corner instead.
fn axis(rng: &mut StdRng, origin: f64, edge: f64, hostile: bool) -> (f64, f64) {
    let lo = origin + rng.gen_range(-40i32..40) as f64 * 0.5;
    let hi = lo + edge;
    if !hostile {
        return (lo, hi);
    }
    match rng.gen_range(0u32..8) {
        0 => (f64::NAN, hi),
        1 => (lo, f64::NAN),
        2 => (f64::NEG_INFINITY, hi),
        3 => (lo, f64::INFINITY),
        4 => (-1e300, 1e300),
        5 => (1e300, 1e300),
        6 => (-1e300, hi),
        _ => (lo, hi),
    }
}

/// A cube of one of [`EDGES`] (or, with probability `p_hostile`, a box
/// with one hostile axis). Built field by field: `Aabb::new` refuses a
/// NaN corner in debug builds.
fn random_box(rng: &mut StdRng, origin: f64, p_hostile: f64) -> Aabb {
    let edge = EDGES[rng.gen_range(0..EDGES.len())];
    let hostile_axis = rng.gen_bool(p_hostile).then(|| rng.gen_range(0usize..3));
    let [x, y, z] = [0, 1, 2].map(|a| axis(rng, origin, edge, hostile_axis == Some(a)));
    Aabb {
        min: Point3::new(x.0, y.0, z.0),
        max: Point3::new(x.1, y.1, z.1),
    }
}

/// The members of every region whose box intersects `q`, by linear scan,
/// sorted.
fn scan(regions: &[(Aabb, Vec<u32>)], q: &Aabb) -> Vec<u32> {
    let mut want: Vec<u32> = regions
        .iter()
        .filter(|(b, _)| b.intersects(q))
        .flat_map(|(_, m)| m.iter().copied())
        .collect();
    want.sort_unstable();
    want
}

/// What the index returns for `q`, sorted but not deduplicated.
fn probe(idx: &RegionIndex<u32>, q: &Aabb) -> Vec<u32> {
    let mut got = Vec::new();
    idx.query_objects_into(q, &mut got);
    got.sort_unstable();
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn probe_matches_linear_scan(seed in any::<u64>(), n in 0usize..300, mode in 0u32..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        // 0: near the origin; 1: at ±1e6; 2 and 3: near the origin with
        // 10 % and 50 % of the boxes hostile
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        let origin = if mode == 1 { 1e6 * sign } else { 0.0 };
        let p_hostile = [0.0, 0.0, 0.1, 0.5][mode as usize];

        let mut idx = RegionIndex::new();
        let mut regions = Vec::new();
        for id in 0..n as u32 {
            let b = random_box(&mut rng, origin, p_hostile);
            // members unique to the region, so a region reported twice
            // shows as a repeated id; some regions have none, and the
            // list handed in repeats one
            let members: Vec<u32> = (0..rng.gen_range(0u32..4)).map(|k| id * 4 + k).collect();
            let given = members.iter().chain(members.first()).copied();
            idx.insert_region(b, given);
            regions.push((b, members));
        }
        prop_assert_eq!(idx.num_regions(), n);

        // re-recorded in id order, as checkpoint restore does
        let mut replay = RegionIndex::new();
        for id in 0..n as u64 {
            prop_assert_eq!(idx.region_members(id), &regions[id as usize].1[..]);
            replay.insert_region(idx.region_box(id), idx.region_members(id).iter().copied());
        }

        let everything = Aabb {
            min: Point3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
            max: Point3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
        };
        let nan = Aabb {
            min: Point3::new(f64::NAN, 0.0, 0.0),
            max: Point3::new(1.0, 1.0, 1.0),
        };
        let mut queries: Vec<Aabb> =
            (0..24).map(|_| random_box(&mut rng, origin, p_hostile)).collect();
        queries.extend(regions.iter().take(8).map(|(b, _)| *b));
        queries.extend([everything, nan]);
        for q in &queries {
            let want = scan(&regions, q);
            prop_assert_eq!(probe(&idx, q), want.clone(), "query {:?}", q);
            prop_assert_eq!(probe(&replay, q), want, "replayed, query {:?}", q);
        }
    }
}
