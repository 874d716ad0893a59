//! The spatial-indexing enhancement (§IV-C), wired for the engine.
//!
//! Per epoch the engine must process exactly the objects of Cases 1
//! and 2 of Fig. 4(a):
//!
//! * **Case 1** — objects read this epoch (wherever they are);
//! * **Case 2** — objects not read now but read before *near the
//!   current reader location*, so that their particles close to the
//!   reader can be down-weighted by the miss. Here that is two tests:
//!   the object was **recorded nearby** (a member of a past sensing
//!   region that overlaps this epoch's) *and* it is **within some
//!   reader particle's reach** ([`Reach`]).
//!
//! Cases 3 (never read here) and 4 (far away and silent) are skipped —
//! the far-miss likelihood is rounded to one, "a good approximation".
//!
//! [`SpatialHook`] wraps the [`RegionIndex`] with the bounding-box
//! construction: each epoch's sensing region is approximated by a cube
//! of the (overestimated) sensor range around the reader estimate, and
//! recorded with the objects that were stepped this epoch and had at
//! least one particle inside it.
//!
//! The box is generous — it is what *finds* candidates — and with a
//! hard-edged sensor most of what it finds is a miss that cannot
//! down-weight anything: the reader has moved on, and no particle of
//! the object is inside any reader particle's cone. For such a sensor
//! the far-miss likelihood is not rounded to one, it **is** one, and
//! [`Reach`] decides that exactly, in O(1) per candidate, from the
//! reader cloud's envelope and the object's cached XY extent. An
//! object it dismisses is treated as Case 4: no pointer refresh, no
//! step, no support row, not a member of the recorded region. A sensor
//! without a hard edge (the logistic model, the spherical antenna)
//! gives no exact answer and gets none — there is no ε below which a
//! soft read rate "counts as" zero — and an engine without the index
//! steps every object, as the paper's un-enhanced filter does.

use crate::factored::ReaderTables;
use crate::particle::XyBounds;
use rfid_geom::{Aabb, Pose};
use rfid_spatial::RegionIndex;
use rfid_stream::TagId;
use std::f64::consts::FRAC_PI_2;

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

/// Slack of the reach test, in feet on lengths and in radians on the
/// wedge's half-angle: nine orders above the rounding of the sums it
/// stands in for, five below anything a sensor's geometry resolves.
const REACH_PAD: f64 = 1e-6;

/// One epoch's answer to "can any reader particle see any particle of
/// this object?", for a sensor with a hard edge
/// ([`rfid_model::ReadRateModel::hard_edge`]): the second half of
/// Case 2. Built once per epoch from the reader cloud's envelope; each
/// candidate then costs a fixed handful of multiplications, whatever
/// the particle counts.
///
/// [`cannot_see`](Self::cannot_see) answers `true` only when it is
/// certain, and it is certain only of exact statements: every offset
/// from a reader particle to an object particle lies in the difference
/// of the two XY boxes (floating-point subtraction is monotone, so that
/// holds for the *computed* offsets too); an offset whose XY length
/// exceeds the range is longer still in 3-D; and an offset whose XY
/// bearing from a heading exceeds a half-angle below 90° has a 3-D
/// cosine `dot / d₃` that is smaller still. A miss at such an offset
/// has log likelihood exactly `0.0`, so a step that applied it would
/// add `+0.0` to every log weight. Whatever is undecidable — a NaN
/// anywhere, headings that cancel, a wedge of 90° or more — is
/// "can see".
#[derive(Debug, Clone, Copy)]
pub struct Reach {
    /// XY box of the reader particles.
    reader: XyBounds,
    /// The sensor's range, padded.
    range: f64,
    /// Edge rays (unit vectors) of the wedge every reader particle's
    /// field of view lies in — the mean heading turned by ∓ and ± the
    /// sensor's half-angle plus the heading spread — when that wedge is
    /// narrower than a half-plane.
    rays: Option<[[f64; 2]; 2]>,
}

impl Reach {
    /// The reach of the reader cloud `tables` was built from, for a
    /// sensor whose hard edge is `(range, half_angle)`.
    pub fn new(tables: &ReaderTables, (range, half_angle): (f64, f64)) -> Self {
        let env = &tables.envelope;
        let wedge = half_angle + env.heading_spread + REACH_PAD;
        // negated, so that a NaN half-angle or spread means no wedge
        let rays = (wedge < FRAC_PI_2).then(|| {
            let ([ux, uy], (sw, cw)) = (env.heading, wedge.sin_cos());
            [
                [ux * cw + uy * sw, uy * cw - ux * sw],
                [ux * cw - uy * sw, uy * cw + ux * sw],
            ]
        });
        Self {
            reader: env.bounds,
            range: range + REACH_PAD,
            rays,
        }
    }

    /// Whether no reader particle can see any point of `object`: the
    /// padded difference box lies beyond the range, or clear of the
    /// wedge. No division, no branch on the particle counts.
    pub fn cannot_see(&self, object: &XyBounds) -> bool {
        let (x0, x1) = (
            object.min[0] - self.reader.max[0] - REACH_PAD,
            object.max[0] - self.reader.min[0] + REACH_PAD,
        );
        let (y0, y1) = (
            object.min[1] - self.reader.max[1] - REACH_PAD,
            object.max[1] - self.reader.min[1] + REACH_PAD,
        );
        // an empty or NaN box decides nothing
        if !(x0 <= x1 && y0 <= y1) {
            return false;
        }
        // the box's nearest point to the origin
        let (nx, ny) = (x0.max(0.0).min(x1), y0.max(0.0).min(y1));
        if nx * nx + ny * ny > self.range * self.range {
            return true;
        }
        let Some([right, left]) = self.rays else {
            return false;
        };
        // separating axes: the difference of a box and a wedge is a
        // convex polygon whose edges run along an edge of one of them,
        // so if the two are disjoint, one of those four directions
        // separates them. A linear form peaks at a corner of the box.
        let sup = |a: f64, b: f64| (a * x0).max(a * x1) + (b * y0).max(b * y1);
        // the whole box to the right of the right ray, or to the left
        // of the left one
        if sup(-right[1], right[0]) < 0.0 || sup(left[1], -left[0]) < 0.0 {
            return true;
        }
        // the wedge's shadow on an axis is a half-line from the origin
        // when both rays point the same way along it
        (right[0] >= 0.0 && left[0] >= 0.0 && x1 < 0.0)
            || (right[0] <= 0.0 && left[0] <= 0.0 && x0 > 0.0)
            || (right[1] >= 0.0 && left[1] >= 0.0 && y1 < 0.0)
            || (right[1] <= 0.0 && left[1] <= 0.0 && y0 > 0.0)
    }
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
