//! Shelf geometry and tag placement.
//!
//! The simulated warehouse "consists of consecutive shelves aligned on
//! the y axis, with objects evenly spaced on the shelves. Both shelves
//! and objects are affixed with RFID tags. For simplicity, we assume the
//! same height for all tags and hence ignore the z axis." (§V-A)
//!
//! The reader travels along the y axis at `x = 0` facing `+x`; shelf
//! faces sit at `x = standoff` (default 2 ft).

use rand::Rng;
use rfid_geom::{Aabb, Point3};
use rfid_model::LocationPrior;
use rfid_stream::TagId;

/// Tag ids at or above this value denote shelf (reference) tags;
/// object tags count up from zero.
pub(crate) const SHELF_TAG_BASE: u64 = 1_000_000;

/// One shelf: a box of storage space whose front face carries the tags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shelf {
    /// Storage region of the shelf.
    pub bbox: Aabb,
}

impl Shelf {
    /// Front-face x coordinate (where tags sit, closest to the aisle).
    pub fn face_x(&self) -> f64 {
        self.bbox.min.x
    }
}

/// The full warehouse: consecutive shelves along the y axis.
///
/// Both constructors produce shelves in ascending, non-overlapping `y`
/// order (consecutive runs in [`linear`](Self::linear), asserted in
/// [`rooms`](Self::rooms)); [`LocationPrior::pdf`] exploits that order
/// to answer point queries by binary search instead of a linear shelf
/// scan — the query sits inside the particle-respawn rejection loop,
/// which probes it up to 30 times per particle.
#[derive(Debug, Clone)]
pub struct WarehouseLayout {
    shelves: Vec<Shelf>,
    /// Distance from the aisle (x=0) to the shelf face.
    standoff: f64,
    /// Common tag height.
    tag_z: f64,
    /// Cached `Σ (max.y - min.y)`, summed in shelf order (so the float
    /// result is bit-identical to an on-the-fly summation).
    total_length: f64,
    /// Cached [`LocationPrior::support_bounds`]: the shelf faces widened
    /// by the tolerance bands [`LocationPrior::pdf`] accepts.
    support: Aabb,
}

/// Slack on the 0.5 ft x/z tolerance of the cached support box: `pdf`
/// compares a rounded difference against 0.5, so a point it accepts can
/// sit an ulp or so past `face ± 0.5`. Far wider than that rounding at
/// any warehouse-scale coordinate.
const SUPPORT_SLACK: f64 = 1e-6;

/// Shared constructor tail: caches the total run length and the support
/// box.
fn finish_layout(shelves: Vec<Shelf>, standoff: f64, tag_z: f64) -> WarehouseLayout {
    let total_length = shelves.iter().map(|s| s.bbox.max.y - s.bbox.min.y).sum();
    let band = 0.5 + SUPPORT_SLACK;
    let mut support = Aabb::empty();
    for s in &shelves {
        // the y band is `pdf`'s own expressions, so it needs no slack
        support.extend(Point3::new(
            s.face_x() - band,
            s.bbox.min.y - 1e-9,
            tag_z - band,
        ));
        support.extend(Point3::new(
            s.face_x() + band,
            s.bbox.max.y + 1e-9,
            tag_z + band,
        ));
    }
    WarehouseLayout {
        shelves,
        standoff,
        tag_z,
        total_length,
        support,
    }
}

impl WarehouseLayout {
    /// A run of `num_shelves` consecutive shelves, each `shelf_len` feet
    /// long (along y) and `depth` feet deep (along x), with faces at
    /// `x = standoff` and tags at height `tag_z`.
    pub fn linear(
        num_shelves: usize,
        shelf_len: f64,
        depth: f64,
        standoff: f64,
        tag_z: f64,
    ) -> Self {
        assert!(num_shelves > 0 && shelf_len > 0.0 && depth > 0.0);
        let shelves = (0..num_shelves)
            .map(|i| {
                let y0 = i as f64 * shelf_len;
                Shelf {
                    bbox: Aabb::new(
                        Point3::new(standoff, y0, tag_z),
                        Point3::new(standoff + depth, y0 + shelf_len, tag_z),
                    ),
                }
            })
            .collect();
        finish_layout(shelves, standoff, tag_z)
    }

    /// The paper's small-scale default: shelving long enough for the
    /// requested number of objects at the given spacing.
    pub fn for_objects(num_objects: usize, spacing: f64) -> Self {
        let total_len = (num_objects as f64 * spacing).max(4.0);
        // one shelf per ~8 feet of run
        let num_shelves = ((total_len / 8.0).ceil() as usize).max(1);
        let shelf_len = total_len / num_shelves as f64;
        Self::linear(num_shelves, shelf_len, 0.5, 2.0, 0.0)
    }

    /// A warehouse of disjoint *rooms*: one shelf per `(y_start, len)`
    /// entry, separated by shelf-free aisle stretches. Unlike
    /// [`WarehouseLayout::linear`], consecutive shelves need not touch —
    /// a reader scanning the full extent goes silent on the reading
    /// stream while it crosses a gap, which is exactly the adversarial
    /// condition the multi-room scenarios probe. Entries must be
    /// ascending and non-overlapping.
    pub fn rooms(rooms: &[(f64, f64)], depth: f64, standoff: f64, tag_z: f64) -> Self {
        assert!(!rooms.is_empty() && depth > 0.0);
        let shelves = rooms
            .iter()
            .map(|&(y0, len)| {
                assert!(len > 0.0);
                Shelf {
                    bbox: Aabb::new(
                        Point3::new(standoff, y0, tag_z),
                        Point3::new(standoff + depth, y0 + len, tag_z),
                    ),
                }
            })
            .collect::<Vec<_>>();
        for w in shelves.windows(2) {
            assert!(
                w[1].bbox.min.y >= w[0].bbox.max.y,
                "rooms must be ascending and non-overlapping"
            );
        }
        finish_layout(shelves, standoff, tag_z)
    }

    /// The shelves.
    pub fn shelves(&self) -> &[Shelf] {
        &self.shelves
    }

    /// Total run length along y (cached at construction).
    pub fn total_length(&self) -> f64 {
        self.total_length
    }

    /// Common tag height.
    pub fn tag_z(&self) -> f64 {
        self.tag_z
    }

    /// Evenly spaced object locations along the shelf faces: object `i`
    /// of `n` sits at the face, at `y = (i + 0.5) * total_len / n`.
    pub(crate) fn object_slots(&self, n: usize) -> Vec<Point3> {
        let len = self.total_length();
        let y0 = self.shelves[0].bbox.min.y;
        (0..n)
            .map(|i| {
                Point3::new(
                    self.standoff,
                    y0 + (i as f64 + 0.5) * len / n as f64,
                    self.tag_z,
                )
            })
            .collect()
    }

    /// `per_shelf` evenly spaced object locations on each shelf face.
    /// Unlike [`WarehouseLayout::object_slots`] this respects gaps
    /// between shelves (rooms), so no slot lands in an aisle stretch.
    pub(crate) fn object_slots_per_shelf(&self, per_shelf: usize) -> Vec<Point3> {
        let mut out = Vec::with_capacity(per_shelf * self.shelves.len());
        for s in &self.shelves {
            let y0 = s.bbox.min.y;
            let len = s.bbox.max.y - s.bbox.min.y;
            for i in 0..per_shelf {
                out.push(Point3::new(
                    s.face_x(),
                    y0 + (i as f64 + 0.5) * len / per_shelf as f64,
                    self.tag_z,
                ));
            }
        }
        out
    }

    /// `per_shelf` evenly spaced reference (shelf) tags on each shelf
    /// face, with their assigned [`TagId`]s starting at
    /// 1,000,000 (`SHELF_TAG_BASE`).
    pub fn shelf_tags(&self, per_shelf: usize) -> Vec<(TagId, Point3)> {
        let mut out = Vec::new();
        let mut id = SHELF_TAG_BASE;
        for s in &self.shelves {
            let y0 = s.bbox.min.y;
            let len = s.bbox.max.y - s.bbox.min.y;
            for i in 0..per_shelf {
                let y = y0 + (i as f64 + 0.5) * len / per_shelf as f64;
                out.push((TagId(id), Point3::new(s.face_x(), y, self.tag_z)));
                id += 1;
            }
        }
        out
    }
}

impl LocationPrior for WarehouseLayout {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point3 {
        let total = self.total_length();
        let mut pick = rng.gen_range(0.0..total);
        for s in &self.shelves {
            let len = s.bbox.max.y - s.bbox.min.y;
            if pick <= len {
                return Point3::new(s.face_x(), s.bbox.min.y + pick, self.tag_z);
            }
            pick -= len;
        }
        // numeric edge: fall back to the very end of the last shelf
        let s = self.shelves.last().expect("layout has shelves");
        Point3::new(s.face_x(), s.bbox.max.y, self.tag_z)
    }

    fn pdf(&self, p: &Point3) -> f64 {
        // Density along the 1-D face manifold, with a tolerance band of
        // 0.5 ft around the face in x and z so respawned particles near
        // the shelf count as legal. Equivalent to scanning every shelf
        // with `on_face_x && on_face_z && in_y`, but answered by binary
        // search: the z band is shelf-independent (gated once), and the
        // ascending non-overlapping y order means only the shelves
        // around the insertion point can pass the y band. The backward
        // walk enumerates a superset of matches (conservative 1e-6
        // cutoff vs the exact 1e-9 band) and re-checks the original
        // predicate verbatim, so accept/reject decisions — and thus
        // every downstream RNG draw — are bit-identical to the scan.
        let on_face_z = (p.z - self.tag_z).abs() <= 0.5;
        if !on_face_z {
            return 0.0;
        }
        let hi = self.shelves.partition_point(|s| s.bbox.min.y <= p.y + 1e-6);
        for s in self.shelves[..hi].iter().rev() {
            if s.bbox.max.y < p.y - 1e-6 {
                // every earlier shelf ends at or before this one starts,
                // so none can reach p.y either
                break;
            }
            let on_face_x = (p.x - s.face_x()).abs() <= 0.5;
            let in_y = p.y >= s.bbox.min.y - 1e-9 && p.y <= s.bbox.max.y + 1e-9;
            if on_face_x && in_y {
                return 1.0 / self.total_length;
            }
        }
        0.0
    }

    fn bounds(&self) -> Aabb {
        let mut b = Aabb::empty();
        for s in &self.shelves {
            b = b.union(&s.bbox);
        }
        b
    }

    fn support_bounds(&self) -> Aabb {
        self.support
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_layout_dimensions() {
        let w = WarehouseLayout::linear(3, 8.0, 0.5, 2.0, 0.0);
        assert_eq!(w.shelves().len(), 3);
        assert!((w.total_length() - 24.0).abs() < 1e-12);
        assert_eq!(w.standoff, 2.0);
        // consecutive: shelf i starts where i-1 ends
        assert!((w.shelves()[1].bbox.min.y - 8.0).abs() < 1e-12);
    }

    #[test]
    fn object_slots_evenly_spaced_on_face() {
        let w = WarehouseLayout::linear(1, 10.0, 0.5, 2.0, 0.0);
        let slots = w.object_slots(5);
        assert_eq!(slots.len(), 5);
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(s.x, 2.0);
            assert!((s.y - (i as f64 + 0.5) * 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn shelf_tags_get_reserved_ids() {
        let w = WarehouseLayout::linear(2, 8.0, 0.5, 2.0, 0.0);
        let tags = w.shelf_tags(4);
        assert_eq!(tags.len(), 8);
        assert!(tags.iter().all(|(id, _)| id.0 >= SHELF_TAG_BASE));
        // ids are unique
        let mut ids: Vec<u64> = tags.iter().map(|(id, _)| id.0).collect();
        ids.dedup();
        assert_eq!(ids.len(), 8);
    }

    #[test]
    fn prior_samples_on_faces() {
        let mut rng = StdRng::seed_from_u64(11);
        let w = WarehouseLayout::linear(3, 8.0, 0.5, 2.0, 0.0);
        for _ in 0..500 {
            let p = LocationPrior::sample(&w, &mut rng);
            assert!(w.pdf(&p) > 0.0, "sample off-face: {p:?}");
            assert_eq!(p.x, 2.0);
            assert!(p.y >= 0.0 && p.y <= 24.0);
        }
    }

    #[test]
    fn prior_pdf_zero_off_shelf() {
        let w = WarehouseLayout::linear(1, 8.0, 0.5, 2.0, 0.0);
        assert_eq!(w.pdf(&Point3::new(0.0, 4.0, 0.0)), 0.0); // in the aisle
        assert_eq!(w.pdf(&Point3::new(2.0, 9.0, 0.0)), 0.0); // past the end
        assert!(w.pdf(&Point3::new(2.2, 4.0, 0.0)) > 0.0); // tolerance band
    }

    #[test]
    fn for_objects_fits_spacing() {
        let w = WarehouseLayout::for_objects(100, 0.5);
        assert!((w.total_length() - 50.0).abs() < 1e-9);
        let slots = w.object_slots(100);
        assert!((slots[1].y - slots[0].y - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rooms_layout_keeps_gaps_shelf_free() {
        let w = WarehouseLayout::rooms(&[(0.0, 8.0), (20.0, 8.0)], 0.5, 2.0, 0.0);
        assert_eq!(w.shelves().len(), 2);
        // total_length counts shelf run only, not the gap
        assert!((w.total_length() - 16.0).abs() < 1e-12);
        // the prior is zero in the gap, positive in both rooms
        assert_eq!(w.pdf(&Point3::new(2.0, 14.0, 0.0)), 0.0);
        assert!(w.pdf(&Point3::new(2.0, 4.0, 0.0)) > 0.0);
        assert!(w.pdf(&Point3::new(2.0, 24.0, 0.0)) > 0.0);
        // per-shelf slots never land in the gap
        let slots = w.object_slots_per_shelf(4);
        assert_eq!(slots.len(), 8);
        assert!(slots.iter().all(|p| w.pdf(p) > 0.0));
        // shelf tags cover both rooms with distinct ids
        let tags = w.shelf_tags(2);
        assert_eq!(tags.len(), 4);
        assert!(tags.iter().any(|(_, p)| p.y > 20.0));
    }

    #[test]
    fn bounds_cover_shelves() {
        let w = WarehouseLayout::linear(2, 8.0, 0.5, 2.0, 0.0);
        let b = LocationPrior::bounds(&w);
        assert!(b.contains(&Point3::new(2.0, 0.0, 0.0)));
        assert!(b.contains(&Point3::new(2.5, 16.0, 0.0)));
    }
}
