//! The sensing-region-to-objects index of Fig. 4 in the paper.
//!
//! Each recorded sensing-region bounding box carries the set of objects
//! that had *at least one particle* inside it when the region was
//! recorded (Fig. 4(b)). Probing with the bounding box of the *current*
//! sensing region returns every object that was ever plausibly located
//! where the reader is now looking — exactly the Case 2 set ("not read at
//! t but read before near the current location"). The inference engine
//! unions this with the set of currently-read objects (Case 1) and
//! processes only that union.
//!
//! The paper indexes the boxes with a simplified R\*-tree (Fig. 4(c)).
//! Every box the engine records is a cube of one edge, one per epoch,
//! never deleted: the case a uniform grid answers exactly, with no
//! subtree choice, split or rebalancing. Each region is registered once,
//! in the XY cell of its min corner; the cell pitch is the first box's
//! XY extent. A region that intersects a query has its min corner at or
//! below the query's max corner and its max corner at or above the
//! query's min corner, and `floor(x / pitch)` is monotone, so its cell
//! lies between the query's min cell, less the widest cell span of any
//! region, and the query's max cell. A probe scans that range and tests
//! each region found with [`Aabb::intersects`], which also settles the z
//! axis. When the range holds more cells than are occupied (a huge,
//! infinite or NaN box), the probe tests every region in id order
//! instead, so no box makes a probe visit more cells than are occupied.

use rfid_geom::{Aabb, Point3};
use std::collections::HashMap;

/// Identifier for a recorded sensing region.
pub(crate) type RegionId = u64;

/// Index from past sensing regions to the objects seen (or believed)
/// there. `K` is the object-id type (kept generic so this substrate does
/// not depend on the stream crate's tag-id type).
#[derive(Debug, Clone, Default)]
pub struct RegionIndex<K: Copy + Ord> {
    /// Region ids by the XY cell of their box's min corner, in id order.
    cells: HashMap<(i64, i64), Vec<RegionId>>,
    /// Cell edge: the first box's XY extent.
    pitch: f64,
    /// The widest cell span, on either axis, of any recorded box.
    span: i64,
    /// Object sets, indexed by `RegionId`. A `Vec` because region ids
    /// are dense (assigned sequentially at insertion).
    members: Vec<Vec<K>>,
    /// Boxes by region id.
    boxes: Vec<Aabb>,
}

impl<K: Copy + Ord> RegionIndex<K> {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self {
            cells: HashMap::new(),
            pitch: 0.0,
            span: 0,
            members: Vec::new(),
            boxes: Vec::new(),
        }
    }

    /// Number of recorded regions.
    pub fn num_regions(&self) -> usize {
        self.boxes.len()
    }

    /// Records a sensing region with the objects having a particle
    /// inside it. Duplicate object ids are deduplicated. Returns the id
    /// assigned to the region.
    pub fn insert_region<I>(&mut self, bbox: Aabb, objects: I) -> RegionId
    where
        I: IntoIterator<Item = K>,
    {
        if self.boxes.is_empty() {
            let extent = (bbox.max.x - bbox.min.x).max(bbox.max.y - bbox.min.y);
            // without a usable extent every finite box falls in one of
            // three cells, and the grid is a plain scan
            self.pitch = if extent > 0.0 && extent.is_finite() {
                extent
            } else {
                f64::MAX
            };
        }
        let id = self.boxes.len() as RegionId;
        let mut set: Vec<K> = objects.into_iter().collect();
        set.sort_unstable();
        set.dedup();
        let ((x0, y0), (x1, y1)) = (self.cell(&bbox.min), self.cell(&bbox.max));
        self.span = self
            .span
            .max(x1.saturating_sub(x0))
            .max(y1.saturating_sub(y0));
        self.cells.entry((x0, y0)).or_default().push(id);
        self.members.push(set);
        self.boxes.push(bbox);
        id
    }

    /// Appends to `out` the members of every recorded region whose box
    /// intersects `query` — the Case 2 candidates for the current
    /// sensing region — *without* deduplicating across regions: callers
    /// that probe every epoch sort/dedup a reused `Vec` once.
    pub fn query_objects_into(&self, query: &Aabb, out: &mut Vec<K>) {
        let ((x0, y0), (x1, y1)) = (self.cell(&query.min), self.cell(&query.max));
        let (x0, y0) = (x0.saturating_sub(self.span), y0.saturating_sub(self.span));
        let mut visit = |id: RegionId| {
            if self.boxes[id as usize].intersects(query) {
                out.extend_from_slice(&self.members[id as usize]);
            }
        };
        let width = |lo: i64, hi: i64| (i128::from(hi) - i128::from(lo) + 1).max(0) as u128;
        if width(x0, x1).saturating_mul(width(y0, y1)) > self.cells.len() as u128 {
            (0..self.boxes.len() as RegionId).for_each(&mut visit);
            return;
        }
        for x in x0..=x1 {
            for y in y0..=y1 {
                for &id in self.cells.get(&(x, y)).into_iter().flatten() {
                    visit(id);
                }
            }
        }
    }

    /// The bounding box of a recorded region.
    pub fn region_box(&self, region: RegionId) -> Aabb {
        self.boxes[region as usize]
    }

    /// The member set of a recorded region. Re-recording
    /// `(region_box(id), region_members(id))` for every id in order
    /// rebuilds the index exactly.
    pub fn region_members(&self, region: RegionId) -> &[K] {
        &self.members[region as usize]
    }

    /// The XY cell of `p`. Division by a positive pitch, `floor` and
    /// the saturating cast are all monotone (a NaN lands in cell 0, and
    /// a box with a NaN corner intersects nothing).
    fn cell(&self, p: &Point3) -> (i64, i64) {
        let to_cell = |v: f64| (v / self.pitch).floor() as i64;
        (to_cell(p.x), to_cell(p.y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(x: f64, y: f64, r: f64) -> Aabb {
        Aabb::cube(Point3::new(x, y, 0.0), r)
    }

    /// The probe's answer, sorted and deduplicated.
    fn query(idx: &RegionIndex<u32>, q: &Aabb) -> Vec<u32> {
        let mut out = Vec::new();
        idx.query_objects_into(q, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx: RegionIndex<u32> = RegionIndex::new();
        assert_eq!(idx.num_regions(), 0);
        assert!(query(&idx, &cube(0.0, 0.0, 10.0)).is_empty());
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
        assert_eq!(query(&idx, &cube(0.75, 0.0, 0.5)), vec![1, 2, 3]);
    }

    #[test]
    fn far_query_excludes_case4_objects() {
        // The whole point of the index: objects recorded far from the
        // current reader location are not returned.
        let mut idx = RegionIndex::new();
        for i in 0..100u32 {
            idx.insert_region(cube(i as f64 * 10.0, 0.0, 1.0), vec![i]);
        }
        assert_eq!(query(&idx, &cube(500.0, 0.0, 1.5)), vec![50]);
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
        let got = query(&idx, &cube(100.0, 0.0, 0.5));
        assert!(got.len() <= 10, "local query got {} objects", got.len());
        assert!(got.contains(&100));
    }

    #[test]
    fn the_pitch_is_the_first_box_extent() {
        // unit cubes on a line: unit cells, one region each, and each
        // cube spans one cell boundary per axis
        let mut idx = RegionIndex::new();
        for i in 0..1000u32 {
            idx.insert_region(cube(i as f64, 0.0, 0.5), vec![i]);
        }
        assert_eq!((idx.pitch, idx.span, idx.cells.len()), (1.0, 1, 1000));
        // touching faces count: regions 499, 500 and 501
        assert_eq!(query(&idx, &cube(500.0, 0.0, 0.5)), vec![499, 500, 501]);
    }

    #[test]
    fn hostile_boxes_fall_back_to_a_scan() {
        // a first box with no XY extent leaves one cell for every finite
        // box; a box spanning ±1e300 widens the span past every occupied
        // cell. Both still answer exactly, by scanning the regions.
        let mut idx = RegionIndex::new();
        idx.insert_region(cube(0.0, 0.0, 0.0), vec![0u32]);
        assert_eq!(idx.pitch, f64::MAX);
        idx.insert_region(cube(3.0, 0.0, 0.5), vec![1]);
        assert_eq!(query(&idx, &cube(3.0, 0.0, 0.1)), vec![1]);
        idx.insert_region(cube(0.0, 0.0, 1e300), vec![2]);
        assert_eq!(query(&idx, &cube(3.0, 0.0, 0.1)), vec![1, 2]);
        assert_eq!(query(&idx, &cube(0.0, 0.0, 0.0)), vec![0, 2]);
    }
}
