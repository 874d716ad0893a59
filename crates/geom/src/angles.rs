//! Angle utilities for reader headings and tag bearings.
//!
//! The sensor model of the paper (Eq. 1) depends on the angle `theta`
//! between the reader's facing direction and the direction toward the tag;
//! this module provides the canonical computation plus wrapping helpers.

use crate::point::{Point3, Vec3};

/// Normalizes an angle into `(-pi, pi]`.
#[inline]
pub fn wrap_pi(a: f64) -> f64 {
    let mut a = a % (2.0 * std::f64::consts::PI);
    if a <= -std::f64::consts::PI {
        a += 2.0 * std::f64::consts::PI;
    } else if a > std::f64::consts::PI {
        a -= 2.0 * std::f64::consts::PI;
    }
    a
}

/// The absolute angle, in `[0, pi]`, between a heading `phi` (radians,
/// XY plane) at `reader` and the direction toward `tag`.
///
/// This is the `theta_ti` of the paper: with `delta = O_ti - r_t`,
/// `cos(theta) = delta . [cos phi, sin phi] / |delta|` (the projection is
/// planar; the z component contributes to distance but not to bearing,
/// matching the paper's 2-component heading vector).
#[inline]
pub(crate) fn reader_tag_angle(reader: &Point3, phi: f64, tag: &Point3) -> f64 {
    reader_tag_angle_trig(reader, phi.cos(), phi.sin(), tag)
}

/// The angle between the reader's heading and the direction to the
/// tag, with the heading's cosine and sine already computed — the pair
/// is loop-invariant per reader particle, so hot loops hoist it once
/// per pose instead of paying `sin`/`cos` per
/// object particle. Identical arithmetic (and therefore identical
/// bits) to the plain form.
#[inline]
pub fn reader_tag_angle_trig(reader: &Point3, cos_phi: f64, sin_phi: f64, tag: &Point3) -> f64 {
    let delta = *tag - *reader;
    let d = delta.norm();
    if d < 1e-12 {
        return 0.0; // tag coincides with reader; treat as head-on
    }
    let cos_theta = (delta.x * cos_phi + delta.y * sin_phi) / d;
    cos_theta.clamp(-1.0, 1.0).acos()
}

/// Unit heading vector in the XY plane for angle `phi`.
#[inline]
pub fn heading_vec(phi: f64) -> Vec3 {
    Vec3::new(phi.cos(), phi.sin(), 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    #[test]
    fn wrap_pi_range() {
        assert!((wrap_pi(3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_pi(-3.0 * PI) - PI).abs() < 1e-12);
        assert!((wrap_pi(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn head_on_tag_has_zero_angle() {
        let r = Point3::origin();
        let tag = Point3::new(5.0, 0.0, 0.0);
        assert!(reader_tag_angle(&r, 0.0, &tag).abs() < 1e-12);
    }

    #[test]
    fn perpendicular_tag_has_right_angle() {
        let r = Point3::origin();
        let tag = Point3::new(0.0, 5.0, 0.0);
        assert!((reader_tag_angle(&r, 0.0, &tag) - PI / 2.0).abs() < 1e-12);
    }

    #[test]
    fn behind_tag_has_pi_angle() {
        let r = Point3::origin();
        let tag = Point3::new(-3.0, 0.0, 0.0);
        assert!((reader_tag_angle(&r, 0.0, &tag) - PI).abs() < 1e-12);
    }

    #[test]
    fn coincident_tag_is_head_on() {
        let r = Point3::new(1.0, 2.0, 3.0);
        assert_eq!(reader_tag_angle(&r, 1.0, &r), 0.0);
    }

    #[test]
    fn elevated_tag_angle_uses_3d_distance() {
        // A tag straight ahead but above the reader: planar projection
        // shrinks cos(theta), so the angle is nonzero.
        let r = Point3::origin();
        let tag = Point3::new(1.0, 0.0, 1.0);
        let theta = reader_tag_angle(&r, 0.0, &tag);
        assert!((theta - PI / 4.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_wrap_pi_in_range(a in -100.0..100.0f64) {
            let w = wrap_pi(a);
            prop_assert!(w > -PI - 1e-12 && w <= PI + 1e-12);
        }

        #[test]
        fn prop_wrap_pi_preserves_angle(a in -100.0..100.0f64) {
            let w = wrap_pi(a);
            // sin/cos must agree with the original angle
            prop_assert!((w.sin() - a.sin()).abs() < 1e-9);
            prop_assert!((w.cos() - a.cos()).abs() < 1e-9);
        }

        #[test]
        fn prop_reader_tag_angle_range(
            rx in -10.0..10.0f64, ry in -10.0..10.0f64,
            phi in -10.0..10.0f64,
            tx in -10.0..10.0f64, ty in -10.0..10.0f64, tz in -10.0..10.0f64) {
            let theta = reader_tag_angle(&Point3::new(rx, ry, 0.0), phi,
                                         &Point3::new(tx, ty, tz));
            prop_assert!((0.0..=PI + 1e-12).contains(&theta));
        }

        #[test]
        fn prop_angle_invariant_under_rotation(rot in -3.0..3.0f64, bearing in -3.0..3.0f64) {
            // Rotating both the heading and the tag by the same angle
            // leaves theta unchanged.
            let r = Point3::origin();
            let tag = Point3::new(4.0 * bearing.cos(), 4.0 * bearing.sin(), 0.0);
            let theta1 = reader_tag_angle(&r, 0.0, &tag);
            let tag2 = Point3::new(4.0 * (bearing + rot).cos(), 4.0 * (bearing + rot).sin(), 0.0);
            let theta2 = reader_tag_angle(&r, rot, &tag2);
            prop_assert!((theta1 - theta2).abs() < 1e-9);
        }
    }
}
