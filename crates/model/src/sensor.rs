//! RFID sensor models: the learnable logistic model of Eq. 1 plus the
//! ground-truth generative shapes the simulator uses (cone, spherical).
//!
//! All models implement [`ReadRateModel`]: the probability of a
//! successful read given the reader pose and the tag location. The
//! logistic model is the one the system *infers with*; the cone and
//! spherical models are what the *world does* in the simulator and the
//! simulated lab deployment (Fig. 5(a) and 5(d)).
//!
//! Every model answers in two spaces: log likelihoods
//! ([`ReadRateModel::log_likelihood_pose`]), which the reader filter
//! and the basic filter accumulate, and likelihoods — the probability
//! `p` of a read or `1 − p` of a miss
//! ([`ReadRateModel::likelihood_pose`]) — which the object step
//! multiplies its probability-space weights by.
//!
//! A piecewise model answers most (reader pose, tag) pairs with a
//! constant and a few with an exact `acos` line. It says which in one
//! place without branching on the answer — for the object step's weight
//! pass [`ReadRateModel::classify_pose`], which classifies every
//! particle and then pays the exact line on the compacted list of those
//! that need it — so the thresholds and the margin around them have one
//! write site.

use crate::params::SensorParams;
use rfid_geom::{Point3, Pose};

/// Numerically-stable sigmoid.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `ln(sigmoid(x))`, stable for large negative `x`.
#[inline]
pub(crate) fn log_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        -(-x).exp().ln_1p()
    } else {
        x - x.exp().ln_1p()
    }
}

/// What [`ReadRateModel::classify_pose`] says about one (reader pose,
/// tag) pair: the likelihood itself, or that it is the exact line
/// `likelihood_dt(d, c.acos(), read)` over the pair's distance `d` and
/// bearing cosine `c`, not yet computed.
#[derive(Debug, Clone, Copy)]
pub struct Classified {
    /// The likelihood (`p` on a read, `1 − p` on a miss); meaningless
    /// when `exact` is set.
    pub value: f64,
    /// Whether the answer is the exact line over `d` and `c`.
    pub exact: bool,
    /// Reader-to-tag distance (feet), when `exact` is set.
    pub d: f64,
    /// Cosine of the bearing, clamped to `[-1, 1]`, when `exact` is set.
    pub c: f64,
}

/// Anything that yields a read probability for a (reader pose, tag) pair.
// `Send + Sync` supertraits: sensor models are immutable model data,
// and the engine that owns one is moved onto pipeline, server and
// cluster-worker threads.
pub trait ReadRateModel: Send + Sync {
    /// Probability of reading a tag at distance `d` (feet) and bearing
    /// angle `theta` (radians, `[0, π]`) from the reader.
    fn p_read_dt(&self, d: f64, theta: f64) -> f64;

    /// Probability of reading a tag at `tag` from pose `reader`.
    fn p_read(&self, reader: &Pose, tag: &Point3) -> f64 {
        let (d, th) = reader.range_bearing(tag);
        self.p_read_dt(d, th)
    }

    /// Log likelihood of a binary reading outcome at distance `d` and
    /// bearing `theta` — the `(d, θ)`-space core every pose-based
    /// likelihood reduces to. Default goes through `p_read_dt` (exact
    /// zeros/ones produce `-inf`, which is correct for hard-edged
    /// ground-truth models: a particle inconsistent with the
    /// observation is impossible); implementations with an analytic
    /// form override for numerical stability.
    fn log_likelihood_dt(&self, d: f64, theta: f64, read: bool) -> f64 {
        let p = self.p_read_dt(d, theta);
        if read {
            p.ln()
        } else {
            (1.0 - p).ln()
        }
    }

    /// Log likelihood of a binary reading outcome for a (reader pose,
    /// tag) pair: `range_bearing` then
    /// [`log_likelihood_dt`](Self::log_likelihood_dt).
    fn log_likelihood(&self, reader: &Pose, tag: &Point3, read: bool) -> f64 {
        self.log_likelihood_pose(&reader.pos, reader.phi.cos(), reader.phi.sin(), tag, read)
    }

    /// [`log_likelihood`](Self::log_likelihood) with the reader
    /// heading's cosine/sine precomputed. The pair is loop-invariant
    /// per reader particle, so the particle-filter weight pass hoists
    /// it out of the per-object-particle loop instead of paying
    /// `sin`/`cos` on every evaluation. The default reproduces the
    /// exact `range_bearing` arithmetic bit for bit; hard-edged models
    /// whose likelihood is piecewise constant in the bearing override
    /// it to skip the `acos` altogether.
    fn log_likelihood_pose(
        &self,
        pos: &Point3,
        cos_phi: f64,
        sin_phi: f64,
        tag: &Point3,
        read: bool,
    ) -> f64 {
        let d = pos.dist(tag);
        let th = rfid_geom::angles::reader_tag_angle_trig(pos, cos_phi, sin_phi, tag);
        self.log_likelihood_dt(d, th, read)
    }

    /// Likelihood of a binary reading outcome at distance `d` and
    /// bearing `theta`: the read probability `p` on a read, `1 − p` on a
    /// miss — the probability-space twin of
    /// [`log_likelihood_dt`](Self::log_likelihood_dt), whose default is
    /// the `ln` of this one's. Implementations with an analytic form
    /// override for numerical stability.
    fn likelihood_dt(&self, d: f64, theta: f64, read: bool) -> f64 {
        let p = self.p_read_dt(d, theta);
        if read {
            p
        } else {
            1.0 - p
        }
    }

    /// Likelihood of a binary reading outcome for a (reader pose, tag)
    /// pair.
    fn likelihood(&self, reader: &Pose, tag: &Point3, read: bool) -> f64 {
        self.likelihood_pose(&reader.pos, reader.phi.cos(), reader.phi.sin(), tag, read)
    }

    /// [`likelihood`](Self::likelihood) with the reader heading's
    /// cosine/sine precomputed, by the arithmetic of
    /// [`log_likelihood_pose`](Self::log_likelihood_pose)'s default.
    fn likelihood_pose(
        &self,
        pos: &Point3,
        cos_phi: f64,
        sin_phi: f64,
        tag: &Point3,
        read: bool,
    ) -> f64 {
        let d = pos.dist(tag);
        let th = rfid_geom::angles::reader_tag_angle_trig(pos, cos_phi, sin_phi, tag);
        self.likelihood_dt(d, th, read)
    }

    /// [`likelihood_pose`](Self::likelihood_pose) in two halves, for a
    /// weight pass over many pairs that wants to pay for the expensive
    /// ones on their own: the [`Classified`] answer is either the
    /// likelihood or a deferral to `likelihood_dt(d, c.acos(), read)`,
    /// and completing it that way gives `likelihood_pose`'s bits. An
    /// override is meant to be cheap straight-line code, free of
    /// branches on the pair: the caller classifies a whole column
    /// before computing anything, and a column of such calls compiles
    /// to vector instructions. The default never defers: it is
    /// `likelihood_pose` itself.
    #[inline]
    fn classify_pose(
        &self,
        pos: &Point3,
        cos_phi: f64,
        sin_phi: f64,
        tag: &Point3,
        read: bool,
    ) -> Classified {
        Classified {
            value: self.likelihood_pose(pos, cos_phi, sin_phi, tag, read),
            exact: false,
            d: 0.0,
            c: 0.0,
        }
    }

    /// The sensor's hard edge, for a model that has one:
    /// `Some((range, half_angle))` promises that the read probability
    /// is **exactly** zero for a tag farther than `range` (feet) from
    /// the reader, and for one whose bearing exceeds `half_angle`
    /// (radians) — so that a miss there has log likelihood exactly
    /// `0.0` and carries no information. `None` (the default) promises
    /// nothing, and is the answer of any model whose read rate merely
    /// gets small: the engine skips work on the strength of this
    /// answer, and "close to zero" is not a reason to.
    fn hard_edge(&self) -> Option<(f64, f64)> {
        None
    }

    /// An overestimate of the detection range: the largest distance (at
    /// the most favorable angle) at which the read probability still
    /// exceeds `floor`. Used to size sensing-region bounding boxes and
    /// the particle-initialization cone.
    fn detection_range(&self, floor: f64) -> f64 {
        // Scan outward; read rates in this domain are monotone "enough"
        // in distance for a coarse scan + refinement to be reliable.
        let mut last_hit = 0.0f64;
        let mut d = 0.0f64;
        while d <= 60.0 {
            if self.p_read_dt(d, 0.0) >= floor {
                last_hit = d;
            }
            d += 0.25;
        }
        // Refine the boundary to ~0.01 ft.
        let mut lo = last_hit;
        let mut hi = last_hit + 0.25;
        for _ in 0..6 {
            let mid = 0.5 * (lo + hi);
            if self.p_read_dt(mid, 0.0) >= floor {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo.max(0.25)
    }
}

/// The flexible parametric sensor model of Eq. 1: logistic regression on
/// `[1, d, d², θ, θ²]`. The same model (and the same coefficients) is
/// used for object tags and shelf tags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogisticSensorModel {
    pub params: SensorParams,
}

impl LogisticSensorModel {
    /// Wraps a coefficient set.
    pub fn new(params: SensorParams) -> Self {
        Self { params }
    }

    /// Log probability of a read at `(d, θ)`.
    #[inline]
    pub(crate) fn log_p_read_dt(&self, d: f64, theta: f64) -> f64 {
        log_sigmoid(self.params.linear_predictor(d, theta))
    }

    /// Log probability of a miss at `(d, θ)`.
    #[inline]
    pub(crate) fn log_p_miss_dt(&self, d: f64, theta: f64) -> f64 {
        log_sigmoid(-self.params.linear_predictor(d, theta))
    }
}

impl ReadRateModel for LogisticSensorModel {
    #[inline]
    fn p_read_dt(&self, d: f64, theta: f64) -> f64 {
        sigmoid(self.params.linear_predictor(d, theta))
    }

    /// Stable override: works directly in log space, so extreme
    /// predictor values never round to exact 0/1 first. The pose-based
    /// `log_likelihood` default routes through this, keeping both
    /// entry points on the same arithmetic.
    #[inline]
    fn log_likelihood_dt(&self, d: f64, theta: f64, read: bool) -> f64 {
        if read {
            self.log_p_read_dt(d, theta)
        } else {
            self.log_p_miss_dt(d, theta)
        }
    }

    /// `sigmoid(η)` on a read and `sigmoid(−η)` on a miss, so a read
    /// rate near one leaves the miss likelihood its small value rather
    /// than rounding `1 − p` to zero.
    #[inline]
    fn likelihood_dt(&self, d: f64, theta: f64, read: bool) -> f64 {
        let eta = self.params.linear_predictor(d, theta);
        sigmoid(if read { eta } else { -eta })
    }
}

/// The cone-shaped ground-truth model of the paper's simulator
/// (Fig. 5(a)): a major detection range (a cone of `major_half_angle`)
/// with uniform read rate `rr_major`, plus a minor range extending
/// `minor_extra_angle` beyond it where the rate decays linearly from
/// `rr_major` to zero. Beyond `max_range`, or behind the reader, the
/// rate is zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConeSensor {
    /// Read rate inside the major detection range (paper default 100%).
    rr_major: f64,
    /// Half-angle of the major cone, radians (paper: 15° half = 30° full).
    major_half_angle: f64,
    /// Additional angle of the minor range, radians (paper: 15°).
    minor_extra_angle: f64,
    /// Maximum detection distance, feet.
    max_range: f64,
    // Fast-path constants derived once in `new`: the cone test runs in
    // cosine space (no `acos`) and the piecewise-constant regions
    // return precomputed likelihoods and log likelihoods (no `ln`).
    cos_major: f64,
    /// `cos(major + minor)`, or `-2.0` when the outer angle reaches π
    /// (no "outside" region exists — every bearing is within the cone).
    cos_outer: f64,
    /// `1 − rr_major`, the miss likelihood inside the major cone.
    miss_major: f64,
    ln_read_major: f64,
    ln_miss_major: f64,
}

impl ConeSensor {
    /// Builds a cone sensor, precomputing the cosine-space thresholds
    /// and constant-region log likelihoods the hot path uses.
    pub fn new(
        rr_major: f64,
        major_half_angle: f64,
        minor_extra_angle: f64,
        max_range: f64,
    ) -> Self {
        let outer = major_half_angle + minor_extra_angle;
        Self {
            rr_major,
            major_half_angle,
            minor_extra_angle,
            max_range,
            cos_major: major_half_angle.cos(),
            cos_outer: if outer < std::f64::consts::PI {
                outer.cos()
            } else {
                -2.0
            },
            miss_major: 1.0 - rr_major,
            ln_read_major: rr_major.ln(),
            ln_miss_major: (1.0 - rr_major).ln(),
        }
    }

    /// The paper's simulator defaults: 30° major cone (15° half-angle),
    /// 15° additional minor range, RR_major = 100%, 4 ft range.
    pub fn paper_default() -> Self {
        Self::new(1.0, 15f64.to_radians(), 15f64.to_radians(), 4.0)
    }

    /// Same shape with a different major-range read rate (the Fig. 5(f)
    /// sweep varies RR_major from 100% down to 50%).
    pub fn with_rr_major(rr: f64) -> Self {
        Self::new(rr, 15f64.to_radians(), 15f64.to_radians(), 4.0)
    }

    /// Read rate inside the major detection range.
    pub fn rr_major(&self) -> f64 {
        self.rr_major
    }
}

impl ReadRateModel for ConeSensor {
    /// Beyond `max_range`, or outside the minor range's outer edge,
    /// [`p_read_dt`](Self::p_read_dt) returns the literal `0.0`.
    fn hard_edge(&self) -> Option<(f64, f64)> {
        Some((
            self.max_range,
            self.major_half_angle + self.minor_extra_angle,
        ))
    }

    fn p_read_dt(&self, d: f64, theta: f64) -> f64 {
        if d > self.max_range {
            return 0.0;
        }
        if theta <= self.major_half_angle {
            self.rr_major
        } else if theta <= self.major_half_angle + self.minor_extra_angle {
            // linear decay from rr_major to 0 across the minor range
            let f = (theta - self.major_half_angle) / self.minor_extra_angle;
            self.rr_major * (1.0 - f)
        } else {
            0.0
        }
    }

    /// The scalar form of [`classify_pose`](Self::classify_pose) in log
    /// space: the log of the constant it picks, or the exact line it
    /// defers to. A pair beyond range returns before the classifier's
    /// bearing division — the reader update weighs every shelf tag this
    /// way, most of them out of range; the classifier picks the same
    /// constant there.
    fn log_likelihood_pose(
        &self,
        pos: &Point3,
        cos_phi: f64,
        sin_phi: f64,
        tag: &Point3,
        read: bool,
    ) -> f64 {
        if (*tag - *pos).norm() > self.max_range {
            return if read { f64::NEG_INFINITY } else { 0.0 };
        }
        let constants = if read {
            [f64::NEG_INFINITY, self.ln_read_major]
        } else {
            [0.0, self.ln_miss_major]
        };
        let k = self.classify_with(pos, cos_phi, sin_phi, tag, constants);
        if k.exact {
            self.log_likelihood_dt(k.d, k.c.acos(), read)
        } else {
            k.value
        }
    }

    /// Classifies the bearing in cosine space, so the common regions
    /// (beyond range, inside the major cone, outside the outer edge)
    /// cost no `acos`: their likelihoods are constants. Only the minor
    /// band, and a vanishing margin strip around its two edges, defer
    /// to the exact `acos` line. The constant is chosen by selects, not
    /// branches: which region a particle falls in changes from one
    /// particle to the next.
    ///
    /// Bit-exactness: for `θ` strictly inside a region, `cos θ`
    /// compared against the cached `cos(boundary)` decides identically
    /// to `acos(cos θ)` compared against the boundary angle — the two
    /// can only disagree within a few ulps of the boundary, and
    /// `MARGIN` (1e-9 in cosine space, ~10⁶× the true rounding window)
    /// defers that strip to the exact line, which computes the
    /// `acos`-based answer of the generic path. The constants are the
    /// `p` or `1 − p` the generic path takes of the same
    /// piecewise-constant probability. A NaN distance or cosine fails
    /// every comparison and defers, as the generic path would compute
    /// it.
    #[inline]
    fn classify_pose(
        &self,
        pos: &Point3,
        cos_phi: f64,
        sin_phi: f64,
        tag: &Point3,
        read: bool,
    ) -> Classified {
        // p = 0 beyond range and outside: 0 on a read, 1 − 0 on a miss
        let constants = if read {
            [0.0, self.rr_major]
        } else {
            [1.0, self.miss_major]
        };
        self.classify_with(pos, cos_phi, sin_phi, tag, constants)
    }
}

impl ConeSensor {
    /// The classifier behind both spaces: `[zero, inside]` are the
    /// answers where the read probability is 0 (beyond range, outside
    /// the outer edge) and inside the major cone.
    #[inline]
    fn classify_with(
        &self,
        pos: &Point3,
        cos_phi: f64,
        sin_phi: f64,
        tag: &Point3,
        [zero, inside]: [f64; 2],
    ) -> Classified {
        const MARGIN: f64 = 1e-9;
        let delta = *tag - *pos;
        let d = delta.norm();
        // divided for every pair, then selected: a branch here would
        // keep a column of classifications from compiling to vector code
        let q = ((delta.x * cos_phi + delta.y * sin_phi) / d).clamp(-1.0, 1.0);
        // head-on by convention (θ = 0) when the tag sits on the reader
        let c = if d < 1e-12 { 1.0 } else { q };
        let beyond = d > self.max_range;
        let major = c >= self.cos_major + MARGIN;
        let outside = c <= self.cos_outer - MARGIN;
        Classified {
            value: if major & !beyond { inside } else { zero },
            exact: !(beyond | major | outside),
            d,
            c,
        }
    }
}

/// The spherical ground-truth model matching the paper's lab antenna
/// (Fig. 5(d)): "read area is spherical with a wide minor range, whose
/// read rate is inversely related to an object's angle from the center
/// of the antenna". Read rate peaks at `rr_peak` head-on and decays
/// with angle (cosine-shaped) and with distance; `timeout_scale`
/// captures the reader-timeout setting of §V-C (larger timeout → higher
/// read rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SphericalSensor {
    /// Peak read rate head-on at zero distance.
    pub rr_peak: f64,
    /// Maximum detection distance, feet.
    pub max_range: f64,
    /// Fraction of the peak rate still available at 90° off boresight.
    pub side_fraction: f64,
}

impl SphericalSensor {
    /// Lab antenna profile for a given reader timeout in milliseconds
    /// (the §V-C sweep used 250/500/750 ms). Longer timeouts give tags
    /// more chances to respond, raising the read rate.
    pub fn for_timeout_ms(timeout_ms: u32) -> Self {
        // Map 250..750 ms onto peak read rates ~0.70..0.92; the exact
        // values are a substitution for the ThingMagic hardware (see
        // DESIGN.md §5), chosen so that longer timeouts read more.
        let t = (timeout_ms as f64 / 1000.0).clamp(0.1, 1.0);
        Self {
            rr_peak: (0.55 + 0.5 * t).min(0.95),
            max_range: 3.0,
            side_fraction: 0.35,
        }
    }
}

impl ReadRateModel for SphericalSensor {
    fn p_read_dt(&self, d: f64, theta: f64) -> f64 {
        if d > self.max_range {
            return 0.0;
        }
        // distance roll-off: quadratic to zero at max_range
        let dr = 1.0 - (d / self.max_range) * (d / self.max_range);
        // angular roll-off: 1 at boresight, side_fraction at 90°, and a
        // hard cutoff shortly behind the boresight plane — a bistatic
        // antenna has no usable back lobe
        let c = theta.cos(); // 1 .. -1
        let ar = if c >= 0.0 {
            self.side_fraction + (1.0 - self.side_fraction) * c
        } else {
            self.side_fraction * (1.0 + 5.0 * c).max(0.0)
        };
        (self.rr_peak * dr * ar).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rfid_geom::Point3;

    #[test]
    fn sigmoid_basics() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(30.0) > 0.999999);
        assert!(sigmoid(-30.0) < 1e-6);
        // stability at extremes
        assert!(sigmoid(-800.0) >= 0.0);
        assert!(sigmoid(800.0) <= 1.0);
    }

    #[test]
    fn log_sigmoid_consistency() {
        for x in [-5.0, -1.0, 0.0, 1.0, 5.0] {
            assert!((log_sigmoid(x) - sigmoid(x).ln()).abs() < 1e-10, "x={x}");
        }
        // no -inf for very negative arguments until truly underflowing
        assert!(log_sigmoid(-700.0).is_finite());
    }

    #[test]
    fn logistic_read_plus_miss_is_one() {
        let m = LogisticSensorModel::new(SensorParams::default_cone_like());
        for d in [0.0, 1.0, 3.0, 10.0] {
            for th in [0.0, 0.5, 1.5, 3.0] {
                let pr = m.p_read_dt(d, th);
                let pm = (m.log_p_miss_dt(d, th)).exp();
                assert!((pr + pm - 1.0).abs() < 1e-9, "d={d} th={th}");
            }
        }
    }

    #[test]
    fn logistic_decays_with_distance_and_angle() {
        let m = LogisticSensorModel::new(SensorParams::default_cone_like());
        assert!(m.p_read_dt(0.5, 0.0) > m.p_read_dt(3.0, 0.0));
        assert!(m.p_read_dt(3.0, 0.0) > m.p_read_dt(8.0, 0.0));
        assert!(m.p_read_dt(1.0, 0.1) > m.p_read_dt(1.0, 1.2));
    }

    #[test]
    fn logistic_pose_variant_matches_dt() {
        let m = LogisticSensorModel::new(SensorParams::default_cone_like());
        let pose = Pose::new(Point3::new(1.0, 2.0, 0.0), 0.7);
        let tag = Point3::new(3.0, 3.5, 0.0);
        let (d, th) = pose.range_bearing(&tag);
        assert!((m.p_read(&pose, &tag) - m.p_read_dt(d, th)).abs() < 1e-12);
        assert!((m.log_likelihood(&pose, &tag, true) - m.log_p_read_dt(d, th)).abs() < 1e-12);
    }

    #[test]
    fn cone_major_minor_zones() {
        let c = ConeSensor::paper_default();
        // inside major cone: full rate
        assert_eq!(c.p_read_dt(2.0, 10f64.to_radians()), 1.0);
        // middle of minor range: half rate
        let mid = 22.5f64.to_radians();
        assert!((c.p_read_dt(2.0, mid) - 0.5).abs() < 1e-9);
        // outside both: zero
        assert_eq!(c.p_read_dt(2.0, 40f64.to_radians()), 0.0);
        // beyond range: zero even head-on
        assert_eq!(c.p_read_dt(5.0, 0.0), 0.0);
    }

    #[test]
    fn only_the_cone_reports_a_hard_edge_and_misses_past_it_weigh_nothing() {
        let lm = LogisticSensorModel::new(SensorParams::default_cone_like());
        assert_eq!(lm.hard_edge(), None);
        assert_eq!(SphericalSensor::for_timeout_ms(500).hard_edge(), None);
        let c = ConeSensor::with_rr_major(0.8);
        let (range, half) = c.hard_edge().expect("the cone has one");
        assert_eq!((range, half), (4.0, 30f64.to_radians()));
        let pose = Pose::new(Point3::new(1.0, 1.0, 0.0), 0.4);
        for (d, th) in [(range + 1e-9, 0.0), (1.0, half + 1e-9), (9.0, 2.0)] {
            let tag = Point3::new(1.0 + d * (0.4 + th).cos(), 1.0 + d * (0.4 + th).sin(), 0.0);
            assert_eq!(c.p_read(&pose, &tag), 0.0, "d={d} th={th}");
            let ll = c.log_likelihood(&pose, &tag, false);
            assert_eq!(ll.to_bits(), 0f64.to_bits(), "d={d} th={th}");
        }
    }

    #[test]
    fn cone_rr_major_scales_uniformly() {
        let c = ConeSensor::with_rr_major(0.6);
        assert!((c.p_read_dt(1.0, 0.0) - 0.6).abs() < 1e-12);
        let mid = 22.5f64.to_radians();
        assert!((c.p_read_dt(1.0, mid) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn spherical_reads_sideways_and_slightly_behind() {
        let s = SphericalSensor::for_timeout_ms(500);
        assert!(s.p_read_dt(1.0, 0.0) > s.p_read_dt(1.0, 1.2));
        // still nonzero at 90 degrees — the "wide minor range"
        assert!(s.p_read_dt(1.0, std::f64::consts::FRAC_PI_2) > 0.0);
        // fully behind: essentially zero
        assert!(s.p_read_dt(1.0, std::f64::consts::PI) < 1e-9);
    }

    #[test]
    fn spherical_timeout_orders_read_rates() {
        let lo = SphericalSensor::for_timeout_ms(250);
        let hi = SphericalSensor::for_timeout_ms(750);
        assert!(hi.p_read_dt(1.0, 0.3) > lo.p_read_dt(1.0, 0.3));
    }

    #[test]
    fn detection_range_logistic_reasonable() {
        let m = LogisticSensorModel::new(SensorParams::default_cone_like());
        let r = m.detection_range(0.01);
        assert!(r > 1.0 && r < 20.0, "range {r}");
        // tighter floor gives shorter range
        assert!(m.detection_range(0.5) < r);
    }

    #[test]
    fn detection_range_cone_is_max_range() {
        let c = ConeSensor::paper_default();
        let r = c.detection_range(0.01);
        assert!((r - 4.0).abs() < 0.3, "range {r}");
    }

    proptest! {
        #[test]
        fn prop_probabilities_in_unit_interval(
            d in 0.0..30.0f64, th in 0.0..std::f64::consts::PI) {
            let lm = LogisticSensorModel::new(SensorParams::default_cone_like());
            let cm = ConeSensor::paper_default();
            let sm = SphericalSensor::for_timeout_ms(500);
            for p in [lm.p_read_dt(d, th), cm.p_read_dt(d, th), sm.p_read_dt(d, th)] {
                prop_assert!((0.0..=1.0).contains(&p));
            }
        }

        #[test]
        fn prop_logistic_monotone_decreasing_in_distance(
            d in 0.0..20.0f64, dd in 0.01..5.0f64, th in 0.0..1.5f64) {
            let lm = LogisticSensorModel::new(SensorParams::default_cone_like());
            prop_assert!(lm.p_read_dt(d, th) >= lm.p_read_dt(d + dd, th) - 1e-12);
        }

        #[test]
        fn prop_log_likelihood_finite_in_range(
            d in 0.0..50.0f64, th in 0.0..std::f64::consts::PI, read in any::<bool>()) {
            let lm = LogisticSensorModel::new(SensorParams::default_cone_like());
            let pose = Pose::identity();
            let tag = Point3::new(d * th.cos(), d * th.sin(), 0.0);
            let ll = lm.log_likelihood(&pose, &tag, read);
            prop_assert!(ll <= 0.0);
            prop_assert!(ll.is_finite() || !read, "read log-lik may underflow only far out");
        }

        /// The cone's cosine-space fast path must equal the generic
        /// `range_bearing` → `log_likelihood_dt` route *bit for bit* —
        /// including near the region boundaries (the sweep crosses
        /// both) and behind the reader.
        #[test]
        fn prop_cone_fast_path_is_bit_exact(
            x in -8.0..8.0f64, y in -8.0..8.0f64, z in -2.0..2.0f64,
            phi in -3.2..3.2f64, rr in 0.5..1.0f64, read in any::<bool>()) {
            let c = ConeSensor::with_rr_major(if rr > 0.95 { 1.0 } else { rr });
            let pose = Pose::new(Point3::new(0.3, -0.2, 0.1), phi);
            let tag = Point3::new(x, y, z);
            // the generic route the default trait method takes
            let (d, th) = pose.range_bearing(&tag);
            let generic = c.log_likelihood_dt(d, th, read);
            let fast = c.log_likelihood(&pose, &tag, read);
            prop_assert_eq!(generic.to_bits(), fast.to_bits(),
                "d={} th={} generic={} fast={}", d, th, generic, fast);
            // and in probability space: the classifier, completed, is
            // the generic `p` or `1 − p`, and its log the log path's
            let k = c.classify_pose(&pose.pos, phi.cos(), phi.sin(), &tag, read);
            let fast = if k.exact { c.likelihood_dt(k.d, k.c.acos(), read) } else { k.value };
            let generic = c.likelihood_dt(d, th, read);
            prop_assert_eq!(generic.to_bits(), fast.to_bits(),
                "d={} th={} generic={} fast={}", d, th, generic, fast);
            prop_assert_eq!(fast.to_bits(), c.likelihood(&pose, &tag, read).to_bits());
            prop_assert_eq!(fast.ln().to_bits(), c.log_likelihood(&pose, &tag, read).to_bits());
        }

        /// The logistic likelihood is the exponential of its log
        /// likelihood, to rounding, on both outcomes.
        #[test]
        fn prop_logistic_likelihood_is_the_exp_of_the_log(
            d in 0.0..30.0f64, th in 0.0..std::f64::consts::PI, read in any::<bool>()) {
            let lm = LogisticSensorModel::new(SensorParams::default_cone_like());
            let (p, lp) = (lm.likelihood_dt(d, th, read), lm.log_likelihood_dt(d, th, read));
            prop_assert!((p - lp.exp()).abs() <= 1e-12 * p.max(1e-300), "p={} exp(lp)={}", p, lp.exp());
        }
    }
}
