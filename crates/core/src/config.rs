//! Filter configuration: the ten values a figure, ablation, preset
//! or test sets ([`FilterConfig`], two of them in
//! [`CompressionPolicy`]), and the five the paper fixes in prose, which
//! are constants here. A checkpoint's config fingerprint still covers
//! the constants (at the byte offsets the fields had), so a blob
//! written by a build with another value is refused, not mis-decoded.

use crate::error::ConfigError;

/// Half-angle (radians) of the particle-initialization cone, 35°.
/// Like the range, it overestimates the sensor's angular width (§IV-A:
/// the paper's cone is 15° major + 15° minor half-angle; this adds 5°).
pub const INIT_CONE_HALF_ANGLE: f64 = 35.0 * (std::f64::consts::PI / 180.0);
/// Hard cap on the initialization range in feet, applied after
/// [`FilterConfig::init_range_overestimate`] (§IV-A). Learned sensor
/// models on geometries that cannot identify distance decay (tags all
/// at one standoff) can report enormous detection ranges; the cap keeps
/// the initialization cone physical.
pub const MAX_INIT_RANGE: f64 = 10.0;
/// A re-detection farther than this (feet) beyond the sensing range
/// from the current estimate discards the object's particles and
/// re-creates them at the new location; between
/// [`SMALL_MOVE_DISTANCE`] and this, §IV-A's "keep half of the old
/// particles and move the other half" applies.
pub const RESPAWN_DISTANCE: f64 = 2.0;
/// Below this re-detection distance (feet) the existing particles are
/// simply reweighted (§IV-A: "if the distance ... is very small, we
/// just use the existing particles").
pub const SMALL_MOVE_DISTANCE: f64 = 0.25;
/// Particles drawn when decompressing a belief (§IV-D: "with 10
/// particles").
pub const DECOMPRESSED_PARTICLES: usize = 10;

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
}

impl CompressionPolicy {
    /// Compression off.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            idle_epochs: u64::MAX,
        }
    }

    /// The paper's operating point: compress whenever an object leaves
    /// the reader's scope (decompression draws
    /// [`DECOMPRESSED_PARTICLES`]).
    pub fn paper_default() -> Self {
        Self {
            enabled: true,
            idle_epochs: 10,
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
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
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

        // NaN compares false with everything, so `x < bound` checks let
        // it through; every f64 field must reject it explicitly
        let valid = |edit: fn(&mut FilterConfig, f64), v: f64| {
            let mut c = FilterConfig::full_default();
            edit(&mut c, v);
            c.validate().is_ok()
        };
        assert!(!valid(|c, v| c.resample_ess_frac = v, f64::NAN));
        for v in [f64::NAN, f64::INFINITY] {
            assert!(!valid(|c, v| c.init_range_overestimate = v, v), "{v}");
        }
    }
}
