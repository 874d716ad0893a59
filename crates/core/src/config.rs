//! Filter configuration.

use crate::error::ConfigError;

/// How the engine treats reader location reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReaderMode {
    /// Maintain a reader particle filter (the paper's system; "motion
    /// model On" in Fig. 5(g)).
    Filter,
    /// Take the reported location as the true location ("motion model
    /// Off"); no reader particles, no correction from shelf tags.
    TrustReports,
}

/// Belief-compression policy (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionPolicy {
    /// Master switch.
    pub enabled: bool,
    /// Compress an object once its tag has been silent for this many
    /// epochs *and* it left the active (processed) set.
    pub idle_epochs: u64,
    /// Only compress when the cross-entropy of the fitted Gaussian
    /// under the particle cloud is below this threshold (nats); `inf`
    /// disables the check. Low values compress only well-behaved,
    /// tight clouds.
    pub max_cross_entropy: f64,
    /// Particles drawn when decompressing (the paper uses 10).
    pub decompressed_particles: usize,
}

impl CompressionPolicy {
    /// Compression off.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            idle_epochs: u64::MAX,
            max_cross_entropy: f64::INFINITY,
            decompressed_particles: 10,
        }
    }

    /// The paper's operating point: compress whenever an object leaves
    /// the reader's scope, decompress with 10 particles.
    pub fn paper_default() -> Self {
        Self {
            enabled: true,
            idle_epochs: 10,
            max_cross_entropy: f64::INFINITY,
            decompressed_particles: 10,
        }
    }
}

/// Full configuration of the inference engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterConfig {
    /// Particles per object (the paper's factored filter uses 1000).
    pub particles_per_object: usize,
    /// Reader particles.
    pub reader_particles: usize,
    /// Resample a particle set when its effective sample size falls
    /// below this fraction of the set size.
    pub resample_ess_frac: f64,
    /// Multiplier on the sensor detection range when initializing
    /// particles in a cone at the reader ("chosen to be an overestimate
    /// of the true range").
    pub init_range_overestimate: f64,
    /// Half-angle (radians) of the particle-initialization cone. Like
    /// the range, this should overestimate the sensor's angular width
    /// (paper cone: 15° major + 15° minor half-angle; default adds 5°).
    pub init_cone_half_angle: f64,
    /// Hard cap on the initialization range in feet, applied after the
    /// overestimate factor. Learned sensor models on geometries that
    /// cannot identify distance decay (tags all at one standoff) can
    /// report enormous detection ranges; the cap keeps the
    /// initialization cone physical.
    pub max_init_range: f64,
    /// A re-detection farther than this from the current estimate
    /// respawns half of the object's particles at the new location
    /// (§IV-A's "keep half of the old particles and move the other
    /// half"). In feet.
    pub respawn_distance: f64,
    /// Below this re-detection distance the existing particles are
    /// simply reweighted ("if the distance ... is very small, we just
    /// use the existing particles"). In feet.
    pub small_move_distance: f64,
    /// Reader handling mode.
    pub reader_mode: ReaderMode,
    /// Use the spatial index to restrict per-epoch work (§IV-C).
    pub use_spatial_index: bool,
    /// Belief compression policy (§IV-D).
    pub compression: CompressionPolicy,
    /// Epochs after first entering reader scope at which the object's
    /// location event is emitted (the paper reports 60 s after an
    /// object comes into scope).
    pub report_delay_epochs: u64,
    /// RNG seed for the engine.
    pub seed: u64,
}

impl FilterConfig {
    /// The factored filter at the paper's operating point, without
    /// spatial indexing or compression.
    pub fn factored_default() -> Self {
        Self {
            particles_per_object: 1000,
            reader_particles: 100,
            resample_ess_frac: 0.5,
            init_range_overestimate: 1.25,
            max_init_range: 10.0,
            init_cone_half_angle: 35f64.to_radians(),
            respawn_distance: 2.0,
            small_move_distance: 0.25,
            reader_mode: ReaderMode::Filter,
            use_spatial_index: false,
            compression: CompressionPolicy::disabled(),
            report_delay_epochs: 60,
            seed: 0x5eed,
        }
    }

    /// Factored + spatial index.
    pub fn indexed_default() -> Self {
        Self {
            use_spatial_index: true,
            ..Self::factored_default()
        }
    }

    /// Factored + spatial index + belief compression — the full system.
    pub fn full_default() -> Self {
        Self {
            use_spatial_index: true,
            compression: CompressionPolicy::paper_default(),
            ..Self::factored_default()
        }
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.particles_per_object == 0 {
            return Err(ConfigError::new("particles_per_object must be >= 1"));
        }
        if self.reader_particles == 0 {
            return Err(ConfigError::new("reader_particles must be >= 1"));
        }
        if !(0.0..=1.0).contains(&self.resample_ess_frac) {
            return Err(ConfigError::new("resample_ess_frac must lie in [0, 1]"));
        }
        // negated comparisons: NaN fails every one of them
        if !(self.init_range_overestimate >= 1.0 && self.init_range_overestimate.is_finite()) {
            return Err(ConfigError::new(
                "init_range_overestimate must be finite and >= 1 (an overestimate)",
            ));
        }
        if !(self.init_cone_half_angle > 0.0 && self.init_cone_half_angle <= std::f64::consts::PI) {
            return Err(ConfigError::new("init_cone_half_angle must lie in (0, pi]"));
        }
        if !(self.max_init_range > 0.0 && self.max_init_range.is_finite()) {
            return Err(ConfigError::new(
                "max_init_range must be positive and finite",
            ));
        }
        if !(self.respawn_distance.is_finite() && self.small_move_distance.is_finite()) {
            return Err(ConfigError::new(
                "respawn_distance and small_move_distance must be finite",
            ));
        }
        if self.respawn_distance < self.small_move_distance {
            return Err(ConfigError::new(
                "respawn_distance must be >= small_move_distance",
            ));
        }
        // +inf is the documented "no loss check"; only NaN is meaningless
        if self.compression.max_cross_entropy.is_nan() {
            return Err(ConfigError::new(
                "compression.max_cross_entropy must not be NaN",
            ));
        }
        if self.compression.enabled && self.compression.decompressed_particles == 0 {
            return Err(ConfigError::new(
                "decompressed_particles must be >= 1 when compression is on",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        FilterConfig::factored_default().validate().unwrap();
        FilterConfig::indexed_default().validate().unwrap();
        FilterConfig::full_default().validate().unwrap();
    }

    #[test]
    fn full_default_stacks_enhancements() {
        let c = FilterConfig::full_default();
        assert!(c.use_spatial_index);
        assert!(c.compression.enabled);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = FilterConfig::factored_default();
        c.particles_per_object = 0;
        assert!(c.validate().is_err());

        let mut c = FilterConfig::factored_default();
        c.resample_ess_frac = 1.5;
        assert!(c.validate().is_err());

        let mut c = FilterConfig::factored_default();
        c.init_range_overestimate = 0.5;
        assert!(c.validate().is_err());

        let mut c = FilterConfig::factored_default();
        c.respawn_distance = 0.1;
        c.small_move_distance = 0.5;
        assert!(c.validate().is_err());

        let mut c = FilterConfig::full_default();
        c.compression.decompressed_particles = 0;
        assert!(c.validate().is_err());

        // NaN compares false with everything, so `x < bound` checks let
        // it through; every f64 field must reject it explicitly
        let valid = |edit: fn(&mut FilterConfig, f64), v: f64| {
            let mut c = FilterConfig::full_default();
            edit(&mut c, v);
            c.validate().is_ok()
        };
        assert!(!valid(|c, v| c.resample_ess_frac = v, f64::NAN));
        assert!(!valid(|c, v| c.small_move_distance = v, f64::NAN));
        assert!(!valid(|c, v| c.compression.max_cross_entropy = v, f64::NAN));
        // an infinite loss threshold is the documented "always compress"
        assert!(valid(
            |c, v| c.compression.max_cross_entropy = v,
            f64::INFINITY
        ));
        for v in [f64::NAN, f64::INFINITY] {
            assert!(!valid(|c, v| c.init_range_overestimate = v, v), "{v}");
            assert!(!valid(|c, v| c.init_cone_half_angle = v, v), "{v}");
            assert!(!valid(|c, v| c.max_init_range = v, v), "{v}");
            assert!(!valid(|c, v| c.respawn_distance = v, v), "{v}");
        }
        for v in [0.0, -0.3, 3.2] {
            assert!(!valid(|c, v| c.init_cone_half_angle = v, v), "{v}");
        }
        assert!(valid(
            |c, v| c.init_cone_half_angle = v,
            std::f64::consts::PI
        ));
        assert!(!valid(|c, v| c.max_init_range = v, 0.0));
    }
}
