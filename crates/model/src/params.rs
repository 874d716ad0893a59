//! Learnable parameters of the data-generation model.
//!
//! §III-C lists them: the sensor coefficients `{a_c} ∪ {b_c}`, the
//! average reader velocity `Δ`, its variance `Σ_m`, and the mean `µ_s`
//! and variance `Σ_s` of the reader location sensing noise. The EM
//! calibration in `rfid-learn` estimates exactly this struct.

use rfid_geom::Vec3;

/// Coefficients of the logistic sensor model (Eq. 1):
///
/// `p(read | d, θ) = σ(a0 + a1·d + a2·d² + b1·θ + b2·θ²)`
///
/// where `σ` is the sigmoid. `a1, a2, b1, b2` are expected to be
/// negative (read rate decays with distance and angle) and `a0` positive
/// (near-field read rate close to one), but nothing enforces the sign —
/// the data decides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorParams {
    /// Distance coefficients `[a0, a1, a2]` (constant, linear, quadratic).
    pub a: [f64; 3],
    /// Angle coefficients `[b1, b2]` (linear, quadratic).
    pub b: [f64; 2],
}

impl SensorParams {
    /// A generic mid-range reader: ~4 ft forward range with a roughly
    /// conical fall-off (read rate drops past ~30° off boresight).
    /// Used as an EM starting point and by examples.
    pub fn default_cone_like() -> Self {
        Self {
            a: [6.0, -0.5, -0.35],
            b: [-1.0, -12.0],
        }
    }

    /// The linear predictor `u(d, θ)` before the sigmoid.
    #[inline]
    pub(crate) fn linear_predictor(&self, d: f64, theta: f64) -> f64 {
        self.a[0]
            + self.a[1] * d
            + self.a[2] * d * d
            + self.b[0] * theta
            + self.b[1] * theta * theta
    }

    /// The five coefficients as a flat array `[a0, a1, a2, b1, b2]` —
    /// the parameter vector the logistic-regression learner optimizes.
    #[inline]
    pub fn as_flat(&self) -> [f64; 5] {
        [self.a[0], self.a[1], self.a[2], self.b[0], self.b[1]]
    }

    /// Rebuilds from the flat layout of [`SensorParams::as_flat`].
    #[inline]
    pub fn from_flat(w: [f64; 5]) -> Self {
        Self {
            a: [w[0], w[1], w[2]],
            b: [w[3], w[4]],
        }
    }

    /// The feature vector `[1, d, d², θ, θ²]` paired with the flat
    /// coefficient layout.
    #[inline]
    pub fn features(d: f64, theta: f64) -> [f64; 5] {
        [1.0, d, d * d, theta, theta * theta]
    }
}

/// Reader motion parameters: `R_t = R_{t-1} + Δ + ε`, `ε ~ N(0, Σ_m)`
/// with diagonal `Σ_m` (the paper's choice). Heading evolves as a
/// random walk with standard deviation `heading_std` per epoch (zero for
/// a reader that never turns between scans).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionParams {
    /// Average velocity per epoch, in feet.
    pub delta: Vec3,
    /// Per-axis standard deviation of the motion noise, in feet.
    pub sigma: Vec3,
    /// Std of the per-epoch heading random walk, in radians.
    pub heading_std: f64,
}

impl MotionParams {
    /// The paper's simulator default: 0.1 ft/epoch down the y axis with
    /// σ = .01 in x and y.
    pub fn default_warehouse() -> Self {
        Self {
            delta: Vec3::new(0.0, 0.1, 0.0),
            sigma: Vec3::new(0.01, 0.01, 0.0),
            heading_std: 0.0,
        }
    }
}

/// Reader location sensing parameters: `R̂_t = R_t + η`,
/// `η ~ N(µ_s, Σ_s)` with diagonal `Σ_s`. A nonzero `mu` models
/// systematic dead-reckoning drift (the robot in §V-C drifted up to a
/// foot). Heading reports get independent zero-mean noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensingParams {
    /// Systematic bias of the reported location, in feet.
    pub mu: Vec3,
    /// Per-axis standard deviation of the report noise, in feet.
    pub sigma: Vec3,
    /// Std of the heading report noise, in radians.
    pub heading_std: f64,
}

impl SensingParams {
    /// The paper's simulator default: unbiased with σ = .01 in x and y.
    pub fn default_warehouse() -> Self {
        Self {
            mu: Vec3::zero(),
            sigma: Vec3::new(0.01, 0.01, 0.0),
            heading_std: 0.0,
        }
    }
}

/// Object dynamics: move with probability `alpha` per epoch, to a
/// uniform location over the shelf space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectParams {
    /// Per-epoch probability that an object relocates.
    pub alpha: f64,
}

impl ObjectParams {
    /// Warehouse objects essentially never move on their own; the
    /// default matches "stationary but can occasionally change".
    pub fn default_warehouse() -> Self {
        Self { alpha: 1e-4 }
    }
}

/// Every learnable parameter of the model, bundled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    pub sensor: SensorParams,
    pub motion: MotionParams,
    pub sensing: SensingParams,
    pub object: ObjectParams,
}

impl ModelParams {
    /// Paper-default warehouse parameterization.
    pub fn default_warehouse() -> Self {
        Self {
            sensor: SensorParams::default_cone_like(),
            motion: MotionParams::default_warehouse(),
            sensing: SensingParams::default_warehouse(),
            object: ObjectParams::default_warehouse(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_roundtrip() {
        let p = SensorParams {
            a: [1.0, -2.0, -0.3],
            b: [-0.7, -1.5],
        };
        assert_eq!(SensorParams::from_flat(p.as_flat()), p);
    }

    #[test]
    fn linear_predictor_matches_features_dot_flat() {
        let p = SensorParams::default_cone_like();
        let (d, th) = (2.5, 0.3);
        let f = SensorParams::features(d, th);
        let w = p.as_flat();
        let dot: f64 = f.iter().zip(w.iter()).map(|(x, y)| x * y).sum();
        assert!((p.linear_predictor(d, th) - dot).abs() < 1e-12);
    }

    #[test]
    fn defaults_have_expected_signs() {
        let p = SensorParams::default_cone_like();
        assert!(p.a[0] > 0.0);
        assert!(p.a[1] < 0.0 && p.a[2] < 0.0);
        assert!(p.b[0] < 0.0 && p.b[1] < 0.0);
        let m = MotionParams::default_warehouse();
        assert!(m.delta.y > 0.0);
        let o = ObjectParams::default_warehouse();
        assert!(o.alpha > 0.0 && o.alpha < 0.01);
    }
}
