//! Reader poses: a 3-D position plus a heading angle in the XY plane.
//!
//! The paper's reader state `R_t` is "a vector containing (x, y, z)
//! position and orientation"; the orientation that matters to the sensor
//! model is the planar heading `r_phi` (Eq. 1 uses `[cos r_phi, sin
//! r_phi]`), so a pose is a [`Point3`] plus one angle.

use crate::angles::{reader_tag_angle, wrap_pi};
use crate::point::Point3;

/// Reader pose: position in feet plus heading angle `phi` in radians.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Position of the reader antenna.
    pub pos: Point3,
    /// Heading angle in the XY plane, measured from the +x axis,
    /// normalized into `(-pi, pi]`.
    pub phi: f64,
}

impl Pose {
    /// Creates a pose, normalizing the heading into `(-pi, pi]`.
    #[inline]
    pub fn new(pos: Point3, phi: f64) -> Self {
        Self {
            pos,
            phi: wrap_pi(phi),
        }
    }

    /// A pose at the origin facing +x.
    #[inline]
    pub fn identity() -> Self {
        Self {
            pos: Point3::origin(),
            phi: 0.0,
        }
    }

    /// Distance from the reader to a tag (3-D, feet). The `d_ti` of Eq. 1.
    #[inline]
    pub(crate) fn dist_to(&self, tag: &Point3) -> f64 {
        self.pos.dist(tag)
    }

    /// Absolute angle between the reader heading and the direction to a
    /// tag, in `[0, pi]`. The `theta_ti` of Eq. 1.
    #[inline]
    pub(crate) fn angle_to(&self, tag: &Point3) -> f64 {
        reader_tag_angle(&self.pos, self.phi, tag)
    }

    /// Both `d_ti` and `theta_ti` in one call (the sensor model always
    /// needs the pair).
    #[inline]
    pub fn range_bearing(&self, tag: &Point3) -> (f64, f64) {
        (self.dist_to(tag), self.angle_to(tag))
    }

    /// True when position and heading are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.pos.is_finite() && self.phi.is_finite()
    }
}

impl Default for Pose {
    fn default() -> Self {
        Self::identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    #[test]
    fn pose_normalizes_heading() {
        let p = Pose::new(Point3::origin(), 3.0 * PI);
        assert!((p.phi - PI).abs() < 1e-12);
    }

    #[test]
    fn range_bearing_matches_parts() {
        let p = Pose::new(Point3::new(1.0, 1.0, 0.0), 0.5);
        let tag = Point3::new(4.0, 5.0, 0.0);
        let (d, th) = p.range_bearing(&tag);
        assert!((d - p.dist_to(&tag)).abs() < 1e-12);
        assert!((th - p.angle_to(&tag)).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_heading_always_wrapped(phi in -100.0..100.0f64, dphi in -100.0..100.0f64) {
            let p = Pose::new(Point3::origin(), phi + dphi);
            prop_assert!(p.phi > -PI - 1e-12 && p.phi <= PI + 1e-12);
        }

        #[test]
        fn prop_angle_to_in_range(
            phi in -5.0..5.0f64,
            tx in -10.0..10.0f64, ty in -10.0..10.0f64) {
            let p = Pose::new(Point3::origin(), phi);
            let th = p.angle_to(&Point3::new(tx, ty, 0.0));
            prop_assert!((0.0..=PI + 1e-12).contains(&th));
        }
    }
}
