//! Axis-aligned bounding boxes.
//!
//! The spatial-indexing enhancement (§IV-C of the paper) approximates each
//! epoch's sensing region by its bounding box and records those boxes in
//! a region index. This module provides the box arithmetic that needs:
//! construction, union, and intersection and containment tests.

use crate::point::Point3;

/// An axis-aligned box in 3-D, in feet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    pub min: Point3,
    pub max: Point3,
}

impl Aabb {
    /// Creates a box from its corners; panics in debug builds if any
    /// max coordinate is below the corresponding min.
    #[inline]
    pub fn new(min: Point3, max: Point3) -> Self {
        debug_assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "degenerate AABB: min {min:?} max {max:?}"
        );
        Self { min, max }
    }

    /// A box containing a single point.
    #[inline]
    pub fn point(p: Point3) -> Self {
        Self { min: p, max: p }
    }

    /// A box centered on `c` extending `r` in every axis.
    #[inline]
    pub fn cube(c: Point3, r: f64) -> Self {
        debug_assert!(r >= 0.0);
        Self {
            min: Point3::new(c.x - r, c.y - r, c.z - r),
            max: Point3::new(c.x + r, c.y + r, c.z + r),
        }
    }

    /// The "empty" box: union identity. Contains nothing; unioning with
    /// any real box yields that box.
    #[inline]
    pub fn empty() -> Self {
        Self {
            min: Point3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
            max: Point3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// True for the union identity produced by [`Aabb::empty`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x
    }

    /// Smallest box containing both operands.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: Point3::new(
                self.min.x.min(other.min.x),
                self.min.y.min(other.min.y),
                self.min.z.min(other.min.z),
            ),
            max: Point3::new(
                self.max.x.max(other.max.x),
                self.max.y.max(other.max.y),
                self.max.z.max(other.max.z),
            ),
        }
    }

    /// Grows the box (in place) to contain `p`.
    #[inline]
    pub fn extend(&mut self, p: Point3) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.min.z = self.min.z.min(p.z);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
        self.max.z = self.max.z.max(p.z);
    }

    /// True when the boxes overlap (closed intervals: touching counts).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// True when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: &Point3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Area of the XY footprint (useful because the warehouse is
    /// effectively planar).
    #[inline]
    pub fn area_xy(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (self.max.x - self.min.x) * (self.max.y - self.min.y)
    }

    /// Geometric center of the box.
    #[inline]
    pub fn center(&self) -> Point3 {
        Point3::new(
            (self.min.x + self.max.x) * 0.5,
            (self.min.y + self.max.y) * 0.5,
            (self.min.z + self.max.z) * 0.5,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn b(ax: f64, ay: f64, bx: f64, by: f64) -> Aabb {
        Aabb::new(Point3::new(ax, ay, 0.0), Point3::new(bx, by, 1.0))
    }

    #[test]
    fn union_contains_both() {
        let a = b(0.0, 0.0, 1.0, 1.0);
        let c = b(2.0, 2.0, 3.0, 3.0);
        let u = a.union(&c);
        for corner in [a.min, a.max, c.min, c.max] {
            assert!(u.contains(&corner));
        }
    }

    #[test]
    fn empty_is_union_identity() {
        let a = b(0.0, 0.0, 1.0, 1.0);
        let e = Aabb::empty();
        assert!(e.is_empty());
        assert_eq!(e.union(&a), a);
        assert_eq!(a.union(&e), a);
    }

    #[test]
    fn touching_boxes_intersect() {
        let a = b(0.0, 0.0, 1.0, 1.0);
        let c = b(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&c));
    }

    #[test]
    fn disjoint_boxes_do_not_intersect() {
        let a = b(0.0, 0.0, 1.0, 1.0);
        let c = b(1.5, 0.0, 2.0, 1.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn cube_geometry() {
        let c = Aabb::cube(Point3::new(1.0, 1.0, 1.0), 0.5);
        assert_eq!(c.min, Point3::new(0.5, 0.5, 0.5));
        assert_eq!(c.max, Point3::new(1.5, 1.5, 1.5));
        assert!((c.area_xy() - 1.0).abs() < 1e-12);
        assert_eq!(c.center(), Point3::new(1.0, 1.0, 1.0));
    }

    #[test]
    fn extend_grows_to_point() {
        let mut a = Aabb::point(Point3::origin());
        a.extend(Point3::new(2.0, -1.0, 3.0));
        assert!(a.contains(&Point3::new(1.0, -0.5, 2.0)));
        assert!(!a.contains(&Point3::new(3.0, 0.0, 0.0)));
    }

    proptest! {
        #[test]
        fn prop_union_commutative(
            ax in -10.0..0.0f64, ay in -10.0..0.0f64,
            bx in 0.0..10.0f64, by in 0.0..10.0f64,
            cx in -10.0..0.0f64, cy in -10.0..0.0f64,
            dx in 0.0..10.0f64, dy in 0.0..10.0f64) {
            let a = b(ax, ay, bx, by);
            let c = b(cx, cy, dx, dy);
            prop_assert_eq!(a.union(&c), c.union(&a));
        }

        #[test]
        fn prop_contains_center(
            ax in -10.0..0.0f64, ay in -10.0..0.0f64,
            bx in 0.0..10.0f64, by in 0.0..10.0f64) {
            let a = b(ax, ay, bx, by);
            prop_assert!(a.contains(&a.center()));
        }

        #[test]
        fn prop_intersection_symmetric(
            ax in -10.0..0.0f64, bx in 0.0..10.0f64,
            cx in -10.0..10.0f64, w in 0.1..5.0f64) {
            let a = b(ax, -1.0, bx, 1.0);
            let c = b(cx, -1.0, cx + w, 1.0);
            prop_assert_eq!(a.intersects(&c), c.intersects(&a));
        }
    }
}
