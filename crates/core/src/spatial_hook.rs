//! The spatial-indexing enhancement (§IV-C), wired for the engine.
//!
//! Per epoch the engine must process exactly the objects of Cases 1
//! and 2 of Fig. 4(a):
//!
//! * **Case 1** — objects read this epoch (wherever they are);
//! * **Case 2** — objects not read now but read before *near the
//!   current reader location*, so that their particles close to the
//!   reader can be down-weighted by the miss.
//!
//! Cases 3 (never read here) and 4 (far away and silent) are skipped —
//! the far-miss likelihood is rounded to one, "a good approximation".
//!
//! [`SpatialHook`] wraps the [`RegionIndex`] with the bounding-box
//! construction: each epoch's sensing region is approximated by a cube
//! of the (overestimated) sensor range around the reader estimate, and
//! recorded with the objects that had at least one particle inside it.

use rfid_geom::{Aabb, Pose};
use rfid_spatial::RegionIndex;
use rfid_stream::TagId;

/// The bounding box of the sensing region at `pose` for a sensor of
/// (overestimated) detection range `range`. The sensing region is a
/// forward cone, so the box is centered half a range ahead of the
/// reader along its heading, with a half-extent just over half the
/// range (10% pad for the cone's lateral spread and minor-range reads
/// slightly behind the boresight plane).
///
/// A free function — the box depends only on the range and the pose,
/// so the engine computes it without consulting (or rebuilding) a
/// [`SpatialHook`].
pub(crate) fn sensing_box(range: f64, pose: &Pose) -> Aabb {
    let ahead = rfid_geom::angles::heading_vec(pose.phi) * (0.5 * range);
    Aabb::cube(pose.pos + ahead, 0.55 * range)
}

/// Engine-facing wrapper around the region index.
#[derive(Debug, Clone)]
pub(crate) struct SpatialHook {
    index: RegionIndex<TagId>,
}

impl SpatialHook {
    /// Creates an empty hook.
    pub(crate) fn new() -> Self {
        Self {
            index: RegionIndex::new(),
        }
    }

    /// The Case 2 candidates for the current sensing box — objects
    /// recorded in any overlapping past region — appended into a
    /// caller-owned buffer (unsorted, may contain duplicates across
    /// regions): the engine sorts and dedups its active-set `Vec` once
    /// per epoch.
    pub(crate) fn candidates_into(&self, current: &Aabb, out: &mut Vec<TagId>) {
        self.index.query_objects_into(current, out);
    }

    /// Records this epoch's sensing region with its member objects
    /// (those with at least one particle inside the box).
    pub(crate) fn record<I: IntoIterator<Item = TagId>>(&mut self, bbox: Aabb, members: I) {
        self.index.insert_region(bbox, members);
    }

    /// Number of recorded regions (diagnostics).
    pub(crate) fn num_regions(&self) -> usize {
        self.index.num_regions()
    }

    /// The bounding box of recorded region `id` (region ids are dense:
    /// `0..num_regions()`, in insertion order) — checkpointing.
    pub(crate) fn region_box(&self, id: u64) -> Aabb {
        self.index.region_box(id)
    }

    /// The member set of recorded region `id` — checkpointing.
    /// Replaying `record(region_box(id), region_members(id))` for ids
    /// in order reproduces the hook exactly.
    pub(crate) fn region_members(&self, id: u64) -> &[TagId] {
        self.index.region_members(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geom::Point3;

    fn pose(x: f64, y: f64) -> Pose {
        Pose::new(Point3::new(x, y, 0.0), 0.0)
    }

    fn candidates(h: &SpatialHook, current: &Aabb) -> Vec<TagId> {
        let mut out = Vec::new();
        h.candidates_into(current, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn sensing_box_covers_forward_cone() {
        // heading +x: the box must cover the reader position through the
        // full range ahead, but not far behind or far beyond.
        let b = sensing_box(4.0, &pose(1.0, 2.0));
        assert!(b.contains(&Point3::new(1.0, 2.0, 0.0))); // reader itself
        assert!(b.contains(&Point3::new(4.9, 2.0, 0.0))); // near max range
        assert!(!b.contains(&Point3::new(5.5, 2.0, 0.0))); // beyond range+pad
        assert!(!b.contains(&Point3::new(-1.0, 2.0, 0.0))); // well behind
    }

    #[test]
    fn sensing_box_follows_heading() {
        let west = Pose::new(Point3::new(0.0, 0.0, 0.0), std::f64::consts::PI);
        let b = sensing_box(4.0, &west);
        assert!(b.contains(&Point3::new(-3.9, 0.0, 0.0)));
        assert!(!b.contains(&Point3::new(3.0, 0.0, 0.0)));
    }

    #[test]
    fn case2_returned_case4_skipped() {
        let mut h = SpatialHook::new();
        // object 1 recorded near y = 0, object 2 near y = 100
        h.record(sensing_box(2.0, &pose(0.0, 0.0)), [TagId(1)]);
        h.record(sensing_box(2.0, &pose(0.0, 100.0)), [TagId(2)]);
        let c = candidates(&h, &sensing_box(2.0, &pose(0.0, 1.0)));
        assert!(c.contains(&TagId(1)), "case-2 object missing");
        assert!(!c.contains(&TagId(2)), "case-4 object should be skipped");
    }

    #[test]
    fn overlapping_history_unions() {
        let mut h = SpatialHook::new();
        for i in 0..10u64 {
            h.record(sensing_box(2.0, &pose(0.0, i as f64)), [TagId(i)]);
        }
        assert_eq!(h.num_regions(), 10);
        let c = candidates(&h, &sensing_box(2.0, &pose(0.0, 5.0)));
        // regions centered at y in [1, 9] overlap a box around y = 5
        assert!(c.len() >= 5, "got {c:?}");
        assert!(c.contains(&TagId(5)));
        assert!(!c.contains(&TagId(0)) || c.contains(&TagId(1)));
    }
}
