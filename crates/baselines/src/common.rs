//! Shared machinery for the baselines: sampling a location over the
//! intersection of the reader's read range and the shelf area.
//!
//! Neither baseline models the reader's orientation, so the "read
//! range" is a disc of radius `range` around the *reported* reader
//! location (SMURF has no reader filter — "sampling of object location
//! is always performed from the reported reader location", which is
//! exactly why it cannot correct dead-reckoning drift).

use rand::Rng;
use rfid_geom::{Aabb, Point3, Pose};

/// Samples a point uniformly over `shelf ∩ disc(center, range)` in the
/// XY plane (z fixed to the shelf's z). Rejection-samples from the
/// intersection's bounding box; falls back to the disc-clamped shelf
/// point nearest `center` when the intersection is numerically empty.
pub(crate) fn sample_range_shelf<R: Rng + ?Sized>(
    center: &Point3,
    range: f64,
    shelf: &Aabb,
    rng: &mut R,
) -> Point3 {
    let z = shelf.min.z;
    // bounding box of the intersection
    let lo_x = shelf.min.x.max(center.x - range);
    let hi_x = shelf.max.x.min(center.x + range);
    let lo_y = shelf.min.y.max(center.y - range);
    let hi_y = shelf.max.y.min(center.y + range);
    if lo_x <= hi_x && lo_y <= hi_y {
        for _ in 0..64 {
            let x = if hi_x > lo_x {
                rng.gen_range(lo_x..=hi_x)
            } else {
                lo_x
            };
            let y = if hi_y > lo_y {
                rng.gen_range(lo_y..=hi_y)
            } else {
                lo_y
            };
            let p = Point3::new(x, y, z);
            if p.dist_xy(center) <= range {
                return p;
            }
        }
    }
    // fallback: project the center onto the shelf box
    Point3::new(
        center.x.clamp(shelf.min.x, shelf.max.x),
        center.y.clamp(shelf.min.y, shelf.max.y),
        z,
    )
}

/// Picks the shelf area the reader is *facing* — used when the
/// deployment has several candidate sampling areas (the lab's two
/// rows): a reading is attributed to the row in front of the antenna.
/// Among the shelves ahead of the reader (positive projection of the
/// center onto the heading), the nearest wins; if none is ahead, the
/// nearest overall wins.
pub(crate) fn nearest_shelf<'a>(shelves: &'a [Aabb], pose: &Pose) -> &'a Aabb {
    assert!(!shelves.is_empty(), "at least one shelf area required");
    let heading = rfid_geom::angles::heading_vec(pose.phi);
    let key = |b: &Aabb| -> (bool, f64) {
        let to_center = b.center() - pose.pos;
        let ahead = to_center.dot(&heading) > 0.0;
        (ahead, b.center().dist_xy(&pose.pos))
    };
    shelves
        .iter()
        .min_by(|a, b| {
            let (aa, da) = key(a);
            let (ba, db) = key(b);
            // facing shelves sort first, then by distance
            ba.cmp(&aa)
                .then(da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal))
        })
        .expect("non-empty")
}

/// Running mean of sampled points (the "average of all sampled
/// locations" step of the augmented SMURF).
#[derive(Debug, Clone, Default)]
pub(crate) struct LocationAccumulator {
    sum: (f64, f64, f64),
    n: usize,
}

impl LocationAccumulator {
    /// Empty accumulator.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub(crate) fn push(&mut self, p: Point3) {
        self.sum.0 += p.x;
        self.sum.1 += p.y;
        self.sum.2 += p.z;
        self.n += 1;
    }

    /// Number of samples so far.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// The mean, or `None` when empty.
    pub(crate) fn mean(&self) -> Option<Point3> {
        if self.n == 0 {
            return None;
        }
        let n = self.n as f64;
        Some(Point3::new(self.sum.0 / n, self.sum.1 / n, self.sum.2 / n))
    }

    /// Clears the accumulator (new scope pass).
    pub(crate) fn clear(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shelf() -> Aabb {
        Aabb::new(Point3::new(2.0, 0.0, 0.0), Point3::new(2.5, 20.0, 0.0))
    }

    #[test]
    fn samples_lie_in_intersection() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = Point3::new(0.0, 5.0, 0.0);
        for _ in 0..500 {
            let p = sample_range_shelf(&c, 4.0, &shelf(), &mut rng);
            assert!(shelf().contains(&p), "off shelf: {p:?}");
            assert!(p.dist_xy(&c) <= 4.0 + 1e-9, "out of range: {p:?}");
        }
    }

    #[test]
    fn empty_intersection_falls_back_to_projection() {
        let mut rng = StdRng::seed_from_u64(2);
        let c = Point3::new(0.0, 100.0, 0.0); // far beyond the shelf
        let p = sample_range_shelf(&c, 1.0, &shelf(), &mut rng);
        assert_eq!(p, Point3::new(2.0, 20.0, 0.0));
    }

    #[test]
    fn accumulator_averages() {
        let mut a = LocationAccumulator::new();
        assert!(a.mean().is_none());
        a.push(Point3::new(0.0, 0.0, 0.0));
        a.push(Point3::new(2.0, 4.0, 0.0));
        let m = a.mean().unwrap();
        assert_eq!(m, Point3::new(1.0, 2.0, 0.0));
        assert_eq!(a.len(), 2);
        a.clear();
        assert_eq!(a.len(), 0);
    }
}
