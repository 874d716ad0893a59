//! Points and displacement vectors in 3-D space.
//!
//! The paper measures everything in feet; `z` is carried everywhere but the
//! warehouse simulator pins tags to a common height, so most distances are
//! effectively planar. [`Point3::dist_xy`] exists because the paper reports
//! inference error "in the XY plane".

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A position in 3-D space, in feet.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

/// A displacement between two [`Point3`]s, in feet.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

impl Point3 {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// The origin `(0, 0, 0)`.
    #[inline]
    pub const fn origin() -> Self {
        Self::new(0.0, 0.0, 0.0)
    }

    /// Euclidean distance to `other` in 3-D.
    #[inline]
    pub fn dist(&self, other: &Point3) -> f64 {
        (*self - *other).norm()
    }

    /// Euclidean distance to `other` projected onto the XY plane.
    ///
    /// This is the error metric of the paper's evaluation ("Inference
    /// Error in XY Plane (ft)").
    #[inline]
    pub fn dist_xy(&self, other: &Point3) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Returns the displacement vector from the origin to this point.
    #[inline]
    pub fn to_vec(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }

    /// Returns true if all coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Vec3 {
    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// The zero vector.
    #[inline]
    pub const fn zero() -> Self {
        Self::new(0.0, 0.0, 0.0)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared Euclidean norm.
    #[inline]
    pub(crate) fn norm_sq(&self) -> f64 {
        self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: &Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Returns the unit vector in the same direction, or `None` for the
    /// zero vector (and anything shorter than `1e-12`).
    #[inline]
    pub fn normalized(&self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(*self / n)
        }
    }

    /// Converts the vector to a point (origin + self).
    #[inline]
    pub fn to_point(self) -> Point3 {
        Point3::new(self.x, self.y, self.z)
    }
}

impl Add<Vec3> for Point3 {
    type Output = Point3;
    #[inline]
    fn add(self, rhs: Vec3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign<Vec3> for Point3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        self.x += rhs.x;
        self.y += rhs.y;
        self.z += rhs.z;
    }
}

impl Sub<Vec3> for Point3 {
    type Output = Point3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign<Vec3> for Point3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        self.x -= rhs.x;
        self.y -= rhs.y;
        self.z -= rhs.z;
    }
}

impl Sub<Point3> for Point3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Point3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Add<Vec3> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign<Vec3> for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        self.x += rhs.x;
        self.y += rhs.y;
        self.z += rhs.z;
    }
}

impl Sub<Vec3> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn point_sub_gives_displacement() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(4.0, 6.0, 3.0);
        let d = b - a;
        assert_eq!(d, Vec3::new(3.0, 4.0, 0.0));
        assert!((d.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn dist_xy_ignores_z() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(3.0, 4.0, 100.0);
        assert!((a.dist_xy(&b) - 5.0).abs() < 1e-12);
        assert!(a.dist(&b) > 100.0);
    }

    #[test]
    fn normalized_zero_vector_is_none() {
        assert!(Vec3::zero().normalized().is_none());
        let v = Vec3::new(0.0, 0.0, 2.0).normalized().unwrap();
        assert!((v.norm() - 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_dist_symmetry(ax in -100.0..100.0f64, ay in -100.0..100.0f64,
                              bx in -100.0..100.0f64, by in -100.0..100.0f64) {
            let a = Point3::new(ax, ay, 0.0);
            let b = Point3::new(bx, by, 0.0);
            prop_assert!((a.dist(&b) - b.dist(&a)).abs() < 1e-9);
            prop_assert!(a.dist(&b) >= 0.0);
        }

        #[test]
        fn prop_triangle_inequality(
            ax in -50.0..50.0f64, ay in -50.0..50.0f64, az in -50.0..50.0f64,
            bx in -50.0..50.0f64, by in -50.0..50.0f64, bz in -50.0..50.0f64,
            cx in -50.0..50.0f64, cy in -50.0..50.0f64, cz in -50.0..50.0f64) {
            let a = Point3::new(ax, ay, az);
            let b = Point3::new(bx, by, bz);
            let c = Point3::new(cx, cy, cz);
            prop_assert!(a.dist(&c) <= a.dist(&b) + b.dist(&c) + 1e-9);
        }

        #[test]
        fn prop_add_sub_roundtrip(
            px in -50.0..50.0f64, py in -50.0..50.0f64, pz in -50.0..50.0f64,
            vx in -50.0..50.0f64, vy in -50.0..50.0f64, vz in -50.0..50.0f64) {
            let p = Point3::new(px, py, pz);
            let v = Vec3::new(vx, vy, vz);
            let q = (p + v) - v;
            prop_assert!(p.dist(&q) < 1e-9);
        }
    }
}
