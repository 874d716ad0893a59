//! Drivers: run each system over a scenario and collect events, cost,
//! and memory.

use crate::metrics::ErrorStats;
use rfid_baselines::{Smurf, SmurfConfig, UniformBaseline};
use rfid_core::engine::run_engine;
use rfid_core::{BasicParticleFilter, FilterConfig, InferenceEngine, ReaderMode};
use rfid_geom::Aabb;
use rfid_model::{ConeSensor, JointModel, LocationPrior, ModelParams, ReadRateModel};
use rfid_sim::scenario::Scenario;
use rfid_stream::{EpochBatch, InferenceStage, LocationEvent};
use std::time::{Duration, Instant};

/// Which inference configuration to run (the four curves of
/// Fig. 5(i)/(j)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineVariant {
    /// Basic unfactorized joint filter with this many joint particles.
    Unfactored { particles: usize },
    /// Factored filter (§IV-B).
    Factored,
    /// Factored + spatial index (§IV-C).
    FactoredIndexed,
    /// Factored + index + belief compression (§IV-D).
    Full,
}

impl EngineVariant {
    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            EngineVariant::Unfactored { .. } => "Unfactorized",
            EngineVariant::Factored => "Factorized",
            EngineVariant::FactoredIndexed => "Factorized+Index",
            EngineVariant::Full => "Factorized+Index+Compression",
        }
    }
}

/// Which sensor model inference runs with.
#[derive(Debug, Clone, Copy)]
pub enum InferenceSensor {
    /// The simulator's ground-truth cone ("True Sensor Model").
    TrueCone(ConeSensor),
    /// A logistic model (learned or default).
    Logistic(rfid_model::SensorParams),
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub events: Vec<LocationEvent>,
    pub elapsed: Duration,
    pub readings: usize,
    pub memory_bytes: usize,
}

impl RunOutput {
    /// Milliseconds of processing per raw reading — the Fig. 5(j)
    /// metric. An empty run reports 0 (not NaN), so the value is always
    /// safe to put in a table or a JSON report.
    pub fn ms_per_reading(&self) -> f64 {
        if self.readings == 0 {
            return 0.0;
        }
        self.elapsed.as_secs_f64() * 1e3 / self.readings as f64
    }

    /// Readings processed per second. An empty or instantaneous run
    /// reports 0 (not NaN/inf): a zero-reading trace has no meaningful
    /// throughput, and a sub-nanosecond elapsed time means the clock
    /// did not resolve the run.
    pub fn readings_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if self.readings == 0 || secs <= 1e-9 {
            return 0.0;
        }
        self.readings as f64 / secs
    }

    /// Scores the events against a scenario's ground truth.
    pub fn score(&self, sc: &Scenario) -> ErrorStats {
        ErrorStats::score(&self.events, &sc.trace.truth)
    }
}

/// Drives any inference stage over prepared batches — every batch,
/// then the final flush — and times it. `memory_bytes` is left at 0
/// for the caller to fill in.
fn drive<S: InferenceStage>(stage: &mut S, batches: &[EpochBatch]) -> RunOutput {
    let start = Instant::now();
    let events = run_engine(stage, batches);
    RunOutput {
        events,
        elapsed: start.elapsed(),
        readings: batches.iter().map(|b| b.readings.len()).sum(),
        memory_bytes: 0,
    }
}

/// Runs an engine variant with a given sensor choice over prepared
/// batches. `params` supplies the motion/sensing/object components.
#[allow(clippy::too_many_arguments)] // flat experiment knobs
pub fn run_engine_variant<P: LocationPrior + Clone>(
    batches: &[EpochBatch],
    prior: &P,
    shelf_tags: &[(rfid_stream::TagId, rfid_geom::Point3)],
    variant: EngineVariant,
    sensor: InferenceSensor,
    params: ModelParams,
    particles_per_object: usize,
    report_delay: u64,
) -> RunOutput {
    let (mut cfg, joint_particles) = match variant {
        EngineVariant::Unfactored { particles } => {
            (FilterConfig::factored_default(), Some(particles))
        }
        EngineVariant::Factored => (FilterConfig::factored_default(), None),
        EngineVariant::FactoredIndexed => (FilterConfig::indexed_default(), None),
        EngineVariant::Full => (FilterConfig::full_default(), None),
    };
    cfg.particles_per_object = particles_per_object;
    cfg.report_delay_epochs = report_delay;
    run_config(
        batches,
        prior,
        shelf_tags,
        cfg,
        joint_particles,
        sensor,
        params,
    )
}

/// Builds the joint model the sensor choice selects (the two choices
/// are different model types) and runs `cfg` with it.
fn run_config<P: LocationPrior + Clone>(
    batches: &[EpochBatch],
    prior: &P,
    shelf_tags: &[(rfid_stream::TagId, rfid_geom::Point3)],
    cfg: FilterConfig,
    joint_particles: Option<usize>,
    sensor: InferenceSensor,
    mut params: ModelParams,
) -> RunOutput {
    let (prior, shelf_tags) = (prior.clone(), shelf_tags.to_vec());
    match sensor {
        InferenceSensor::TrueCone(c) => run_model(
            JointModel::with_sensor(c, params),
            prior,
            shelf_tags,
            cfg,
            joint_particles,
            batches,
        ),
        InferenceSensor::Logistic(sp) => {
            params.sensor = sp;
            run_model(
                JointModel::new(params),
                prior,
                shelf_tags,
                cfg,
                joint_particles,
                batches,
            )
        }
    }
}

/// Runs the basic joint filter when `joint_particles` is set, the
/// factored engine otherwise.
fn run_model<P: LocationPrior, S: ReadRateModel>(
    model: JointModel<S>,
    prior: P,
    shelf_tags: Vec<(rfid_stream::TagId, rfid_geom::Point3)>,
    cfg: FilterConfig,
    joint_particles: Option<usize>,
    batches: &[EpochBatch],
) -> RunOutput {
    match joint_particles {
        Some(particles) => {
            let mut filter = BasicParticleFilter::new(model, prior, shelf_tags, cfg, particles)
                .expect("valid config");
            let out = drive(&mut filter, batches);
            RunOutput {
                memory_bytes: particles
                    * filter.num_objects()
                    * std::mem::size_of::<rfid_geom::Point3>(),
                ..out
            }
        }
        None => {
            let mut engine =
                InferenceEngine::new(model, prior, shelf_tags, cfg).expect("valid config");
            let out = drive(&mut engine, batches);
            RunOutput {
                memory_bytes: engine.memory_bytes(),
                ..out
            }
        }
    }
}

/// Runs the engine in "motion model Off" mode (reports trusted as
/// truth) — the Fig. 5(g) comparison curve.
pub fn run_motion_off<P: LocationPrior + Clone>(
    batches: &[EpochBatch],
    prior: &P,
    shelf_tags: &[(rfid_stream::TagId, rfid_geom::Point3)],
    sensor: InferenceSensor,
    params: ModelParams,
    particles_per_object: usize,
    report_delay: u64,
) -> RunOutput {
    let mut cfg = FilterConfig::factored_default();
    cfg.reader_mode = ReaderMode::TrustReports;
    cfg.reader_particles = 1;
    cfg.particles_per_object = particles_per_object;
    cfg.report_delay_epochs = report_delay;
    run_config(batches, prior, shelf_tags, cfg, None, sensor, params)
}

/// Runs the SMURF baseline.
pub fn run_baseline_smurf(
    batches: &[EpochBatch],
    shelves: Vec<Aabb>,
    read_range: f64,
    ignored: &[(rfid_stream::TagId, rfid_geom::Point3)],
) -> RunOutput {
    let mut smurf = Smurf::new(
        SmurfConfig::new(read_range, shelves),
        ignored.iter().map(|(t, _)| *t),
    );
    drive(&mut smurf, batches)
}

/// Runs the uniform-sampling baseline.
pub fn run_baseline_uniform(
    batches: &[EpochBatch],
    shelves: Vec<Aabb>,
    read_range: f64,
    ignored: &[(rfid_stream::TagId, rfid_geom::Point3)],
    seed: u64,
) -> RunOutput {
    let mut uni = UniformBaseline::new(read_range, shelves, ignored.iter().map(|(t, _)| *t), seed);
    drive(&mut uni, batches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_sim::scenario;

    #[test]
    fn factored_run_produces_scored_events() {
        let sc = scenario::small_trace(8, 4, 77);
        let out = run_engine_variant(
            &sc.trace.epoch_batches(),
            &sc.layout,
            &sc.trace.shelf_tags,
            EngineVariant::Factored,
            InferenceSensor::TrueCone(ConeSensor::paper_default()),
            ModelParams::default_warehouse(),
            300,
            30,
        );
        assert_eq!(out.events.len(), 8);
        let score = out.score(&sc);
        assert_eq!(score.n, 8);
        assert!(score.mean_xy < 2.0, "error {}", score.mean_xy);
        assert!(out.ms_per_reading() > 0.0);
    }

    #[test]
    fn zero_reading_run_reports_zero_not_nan() {
        let out = RunOutput {
            events: Vec::new(),
            elapsed: Duration::ZERO,
            readings: 0,
            memory_bytes: 0,
        };
        assert_eq!(out.ms_per_reading(), 0.0);
        assert_eq!(out.readings_per_sec(), 0.0);
        assert!(out.ms_per_reading().is_finite());
        assert!(out.readings_per_sec().is_finite());
        // readings but an unresolvable clock: still finite
        let fast = RunOutput {
            readings: 10,
            ..out
        };
        assert_eq!(fast.readings_per_sec(), 0.0);
    }

    #[test]
    fn baselines_run_and_score() {
        let sc = scenario::small_trace(8, 4, 78);
        let shelf = rfid_model::LocationPrior::bounds(&sc.layout);
        let batches = sc.trace.epoch_batches();
        let s = run_baseline_smurf(&batches, vec![shelf], 4.0, &sc.trace.shelf_tags);
        let u = run_baseline_uniform(&batches, vec![shelf], 4.0, &sc.trace.shelf_tags, 1);
        assert!(!s.events.is_empty());
        assert!(!u.events.is_empty());
        assert!(s.score(&sc).mean_xy.is_finite());
        assert!(u.score(&sc).mean_xy.is_finite());
    }
}
