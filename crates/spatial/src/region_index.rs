//! The sensing-region-to-objects index of Fig. 4 in the paper.
//!
//! Two components:
//!
//! 1. a map from each inserted sensing-region bounding box to the set of
//!    objects that had *at least one particle* inside that box when the
//!    region was recorded (Fig. 4(b)), and
//! 2. a spatial index (the simplified R\*-tree) over those boxes
//!    (Fig. 4(c)).
//!
//! Probing with the bounding box of the *current* sensing region returns
//! every object that was ever plausibly located where the reader is now
//! looking — exactly the Case 2 set ("not read at t but read before near
//! the current location"). The inference engine unions this with the set
//! of currently-read objects (Case 1) and processes only that union.

use crate::rtree::RTree;
use rfid_geom::Aabb;
use std::collections::BTreeSet;
use std::hash::Hash;

/// Identifier for a recorded sensing region.
pub(crate) type RegionId = u64;

/// Index from past sensing regions to the objects seen (or believed)
/// there. `K` is the object-id type (kept generic so this substrate does
/// not depend on the stream crate's tag-id type).
#[derive(Debug, Clone, Default)]
pub struct RegionIndex<K: Copy + Ord + Hash> {
    tree: RTree<RegionId>,
    /// Object sets, indexed by `RegionId`. A `Vec` because region ids
    /// are dense (assigned sequentially at insertion).
    members: Vec<Vec<K>>,
    /// Boxes by region id, retained so regions can be merged/inspected.
    boxes: Vec<Aabb>,
}

impl<K: Copy + Ord + Hash> RegionIndex<K> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self {
            tree: RTree::new(),
            members: Vec::new(),
            boxes: Vec::new(),
        }
    }

    /// Number of recorded regions.
    pub fn num_regions(&self) -> usize {
        self.boxes.len()
    }

    /// True when no region has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Records a sensing region with the objects having a particle
    /// inside it. Duplicate object ids are deduplicated. Returns the id
    /// assigned to the region.
    pub fn insert_region<I>(&mut self, bbox: Aabb, objects: I) -> RegionId
    where
        I: IntoIterator<Item = K>,
    {
        let id = self.boxes.len() as RegionId;
        let mut set: Vec<K> = objects.into_iter().collect();
        set.sort_unstable();
        set.dedup();
        self.members.push(set);
        self.boxes.push(bbox);
        self.tree.insert(bbox, id);
        id
    }

    /// All objects recorded in any region whose box intersects `query` —
    /// the Case 2 candidate set for the current sensing region.
    pub fn query_objects(&self, query: &Aabb) -> BTreeSet<K> {
        let mut out = BTreeSet::new();
        self.tree.for_each_intersecting(query, &mut |_, id| {
            for k in &self.members[*id as usize] {
                out.insert(*k);
            }
        });
        out
    }

    /// [`query_objects`](Self::query_objects) into a caller-owned
    /// buffer: appends the members of every intersecting region to
    /// `out` *without* deduplicating across regions. Hot-path variant —
    /// callers that probe every epoch sort/dedup a reused `Vec` once
    /// instead of building a fresh `BTreeSet` per probe.
    pub fn query_objects_into(&self, query: &Aabb, out: &mut Vec<K>) {
        self.tree.for_each_intersecting(query, &mut |_, id| {
            out.extend_from_slice(&self.members[*id as usize]);
        });
    }

    /// The bounding box of a recorded region.
    pub fn region_box(&self, region: RegionId) -> Aabb {
        self.boxes[region as usize]
    }

    /// The member set of a recorded region.
    pub fn region_members(&self, region: RegionId) -> &[K] {
        &self.members[region as usize]
    }

    /// Drops all recorded regions (e.g., between warehouse scan rounds if
    /// the application wants a bounded history).
    pub fn clear(&mut self) {
        self.tree.clear();
        self.members.clear();
        self.boxes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geom::Point3;

    fn cube(x: f64, y: f64, r: f64) -> Aabb {
        Aabb::cube(Point3::new(x, y, 0.0), r)
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx: RegionIndex<u32> = RegionIndex::new();
        assert!(idx.is_empty());
        assert!(idx.query_objects(&cube(0.0, 0.0, 10.0)).is_empty());
    }

    #[test]
    fn members_deduplicated_and_sorted() {
        let mut idx = RegionIndex::new();
        let id = idx.insert_region(cube(0.0, 0.0, 1.0), vec![3u32, 1, 3, 2, 1]);
        assert_eq!(idx.region_members(id), &[1, 2, 3]);
    }

    #[test]
    fn query_unions_overlapping_regions() {
        let mut idx = RegionIndex::new();
        idx.insert_region(cube(0.0, 0.0, 1.0), vec![1u32, 2]);
        idx.insert_region(cube(1.5, 0.0, 1.0), vec![2u32, 3]);
        idx.insert_region(cube(100.0, 0.0, 1.0), vec![9u32]);
        let got = idx.query_objects(&cube(0.75, 0.0, 0.5));
        assert_eq!(got.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn far_query_excludes_case4_objects() {
        // The whole point of the index: objects recorded far from the
        // current reader location are not returned.
        let mut idx = RegionIndex::new();
        for i in 0..100u32 {
            idx.insert_region(cube(i as f64 * 10.0, 0.0, 1.0), vec![i]);
        }
        let got = idx.query_objects(&cube(500.0, 0.0, 1.5));
        assert_eq!(got.into_iter().collect::<Vec<_>>(), vec![50]);
    }

    #[test]
    fn clear_empties_everything() {
        let mut idx = RegionIndex::new();
        idx.insert_region(cube(0.0, 0.0, 1.0), vec![1u32]);
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.num_regions(), 0);
        assert!(idx.query_objects(&cube(0.0, 0.0, 10.0)).is_empty());
    }

    #[test]
    fn many_regions_scale() {
        let mut idx = RegionIndex::new();
        for i in 0..2000u32 {
            let x = (i % 200) as f64;
            let y = (i / 200) as f64 * 5.0;
            idx.insert_region(cube(x, y, 0.6), vec![i, i + 1]);
        }
        assert_eq!(idx.num_regions(), 2000);
        // a local query touches only a handful of regions
        let got = idx.query_objects(&cube(100.0, 0.0, 0.5));
        assert!(got.len() <= 10, "local query got {} objects", got.len());
        assert!(got.contains(&100));
    }
}
