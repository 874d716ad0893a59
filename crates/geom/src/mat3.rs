//! 3x3 matrices with the factorizations Gaussian models need.
//!
//! Covariance matrices in this system are 3x3 symmetric positive
//! (semi-)definite, and sampling from them needs a Cholesky factor;
//! nothing inverts one. A hand-rolled type keeps the workspace
//! dependency-free and the hot paths branch-light.

use crate::point::Vec3;

/// A row-major 3x3 matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    pub m: [[f64; 3]; 3],
}

impl Mat3 {
    /// Builds a matrix from rows.
    #[inline]
    pub(crate) const fn from_rows(r0: [f64; 3], r1: [f64; 3], r2: [f64; 3]) -> Self {
        Self { m: [r0, r1, r2] }
    }

    /// The zero matrix.
    #[inline]
    pub const fn zero() -> Self {
        Self { m: [[0.0; 3]; 3] }
    }

    /// The identity matrix.
    #[inline]
    pub const fn identity() -> Self {
        Self::from_rows([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    }

    /// Diagonal matrix with entries `d`.
    #[inline]
    pub(crate) const fn diag(d: [f64; 3]) -> Self {
        Self::from_rows([d[0], 0.0, 0.0], [0.0, d[1], 0.0], [0.0, 0.0, d[2]])
    }

    /// Uniform scaling `s * I`.
    #[inline]
    pub const fn scale(s: f64) -> Self {
        Self::diag([s, s, s])
    }

    /// Matrix-vector product.
    #[inline]
    pub(crate) fn mul_vec(&self, v: &Vec3) -> Vec3 {
        Vec3::new(
            self.m[0][0] * v.x + self.m[0][1] * v.y + self.m[0][2] * v.z,
            self.m[1][0] * v.x + self.m[1][1] * v.y + self.m[1][2] * v.z,
            self.m[2][0] * v.x + self.m[2][1] * v.y + self.m[2][2] * v.z,
        )
    }

    /// Matrix sum.
    pub fn add(&self, o: &Mat3) -> Mat3 {
        let mut r = *self;
        for i in 0..3 {
            for j in 0..3 {
                r.m[i][j] += o.m[i][j];
            }
        }
        r
    }

    /// Scales every entry by `s`.
    pub(crate) fn scaled(&self, s: f64) -> Mat3 {
        let mut r = *self;
        for row in r.m.iter_mut() {
            for v in row.iter_mut() {
                *v *= s;
            }
        }
        r
    }

    /// Outer product `u v^T`.
    pub fn outer(u: &Vec3, v: &Vec3) -> Mat3 {
        Mat3::from_rows(
            [u.x * v.x, u.x * v.y, u.x * v.z],
            [u.y * v.x, u.y * v.y, u.y * v.z],
            [u.z * v.x, u.z * v.y, u.z * v.z],
        )
    }

    /// Determinant by cofactor expansion.
    pub fn det(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Lower-triangular Cholesky factor `L` with `L L^T = self`.
    ///
    /// Reads only the lower triangle (the diagonal and below). Returns
    /// `None` when the matrix is not (numerically) positive definite;
    /// `Gaussian3::new` ridge-regularizes a near-singular covariance
    /// until it factors.
    #[allow(clippy::needless_range_loop)] // textbook index form
    pub fn cholesky(&self) -> Option<Mat3> {
        let a = &self.m;
        let mut l = [[0.0f64; 3]; 3];
        for i in 0..3 {
            for j in 0..=i {
                let mut s = a[i][j];
                for k in 0..j {
                    s -= l[i][k] * l[j][k];
                }
                if i == j {
                    if s <= 0.0 {
                        return None;
                    }
                    l[i][j] = s.sqrt();
                } else {
                    l[i][j] = s / l[j][j];
                }
            }
        }
        Some(Mat3 { m: l })
    }

    /// Adds `eps` to the diagonal — a standard ridge to keep empirically
    /// estimated covariances positive definite (needed by belief
    /// compression when particles have collapsed to a near-plane).
    #[inline]
    pub(crate) fn regularized(&self, eps: f64) -> Mat3 {
        let mut r = *self;
        r.m[0][0] += eps;
        r.m[1][1] += eps;
        r.m[2][2] += eps;
        r
    }

    /// Trace of the matrix.
    #[inline]
    pub fn trace(&self) -> f64 {
        self.m[0][0] + self.m[1][1] + self.m[2][2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Matrix-matrix product (the properties below need it; the
    /// library does not).
    fn mul(a: &Mat3, b: &Mat3) -> Mat3 {
        let mut r = Mat3::zero();
        for i in 0..3 {
            for j in 0..3 {
                r.m[i][j] = (0..3).map(|k| a.m[i][k] * b.m[k][j]).sum();
            }
        }
        r
    }

    fn transpose(a: &Mat3) -> Mat3 {
        let mut r = Mat3::zero();
        for i in 0..3 {
            for j in 0..3 {
                r.m[i][j] = a.m[j][i];
            }
        }
        r
    }

    fn spd_sample(a: f64, b: f64, c: f64, d: f64, e: f64, f: f64) -> Mat3 {
        // Build SPD as A^T A + I for a random A.
        let m = Mat3::from_rows([a, b, c], [d, e, f], [b, f, a + 1.0]);
        mul(&transpose(&m), &m).add(&Mat3::identity())
    }

    #[test]
    fn identity_is_its_own_factor() {
        let i = Mat3::identity();
        assert_eq!(i.cholesky().unwrap(), i);
        assert!((i.det() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mul_vec_identity() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(Mat3::identity().mul_vec(&v), v);
    }

    #[test]
    fn diag_cholesky_is_sqrt() {
        let d = Mat3::diag([4.0, 9.0, 16.0]);
        let l = d.cholesky().unwrap();
        assert_eq!(l, Mat3::diag([2.0, 3.0, 4.0]));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let m = Mat3::diag([1.0, -1.0, 1.0]);
        assert!(m.cholesky().is_none());
    }

    #[test]
    fn outer_product_rank_one() {
        let u = Vec3::new(1.0, 2.0, 3.0);
        let v = Vec3::new(4.0, 5.0, 6.0);
        let o = Mat3::outer(&u, &v);
        assert!((o.det()).abs() < 1e-9); // rank 1 => singular
        assert!((o.m[1][2] - 12.0).abs() < 1e-12);
    }

    #[test]
    fn regularized_adds_ridge() {
        let m = Mat3::zero().regularized(0.5);
        assert_eq!(m, Mat3::scale(0.5));
    }

    proptest! {
        #[test]
        fn prop_cholesky_reconstructs(
            a in -2.0..2.0f64, b in -2.0..2.0f64, c in -2.0..2.0f64,
            d in -2.0..2.0f64, e in -2.0..2.0f64, f in -2.0..2.0f64) {
            let m = spd_sample(a, b, c, d, e, f);
            let l = m.cholesky().expect("SPD by construction");
            let r = mul(&l, &transpose(&l));
            for i in 0..3 {
                for j in 0..3 {
                    prop_assert!((r.m[i][j] - m.m[i][j]).abs() < 1e-6,
                        "mismatch at ({}, {}): {} vs {}", i, j, r.m[i][j], m.m[i][j]);
                }
            }
        }

        #[test]
        fn prop_det_of_product(
            a in -2.0..2.0f64, b in -2.0..2.0f64, c in -2.0..2.0f64,
            d in -2.0..2.0f64, e in -2.0..2.0f64, f in -2.0..2.0f64) {
            let m1 = spd_sample(a, b, c, d, e, f);
            let m2 = spd_sample(f, e, d, c, b, a);
            let lhs = mul(&m1, &m2).det();
            let rhs = m1.det() * m2.det();
            prop_assert!((lhs - rhs).abs() / rhs.abs().max(1.0) < 1e-6);
        }
    }
}
