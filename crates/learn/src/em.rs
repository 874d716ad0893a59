//! The Monte-Carlo EM calibration loop (§III-C).
//!
//! Each iteration runs the particle-filter engine under the current
//! parameters (the E-step approximates the posterior over hidden reader
//! poses and object locations with particles), converts the filter
//! state into weighted logistic-regression rows and Gaussian residuals,
//! and refits all parameters (M-step).
//!
//! Shelf tags with known locations anchor the geometry: their rows use
//! exact tag positions, so distance/angle features are only as
//! uncertain as the reader pose. Object tags contribute rows through
//! their particle clouds. With zero shelf tags nothing pins the
//! geometry and EM converges to a local maximum — exactly the failure
//! the paper reports for the 0-shelf-tag point of Fig. 5(e).

use crate::dataset::SensorRow;
use crate::logistic::fit_logistic_signed;
use crate::motion_fit::{fit_motion, fit_sensing};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rfid_core::{FilterConfig, InferenceEngine};
use rfid_geom::{Point3, Vec3};
use rfid_model::{JointModel, LocationPrior, ModelParams};
use rfid_stream::{EpochBatch, InferenceStage, TagId};
use std::collections::BTreeSet;

/// Calibration configuration.
#[derive(Debug, Clone, Copy)]
pub struct EmConfig {
    /// EM iterations (the outer loop).
    pub iterations: usize,
    /// Particles per object during the E-step.
    pub particles_per_object: usize,
    /// Reader particles during the E-step.
    pub reader_particles: usize,
    /// Object particles subsampled into rows per (epoch, object).
    pub rows_per_object: usize,
    /// L2 ridge for the logistic fit.
    pub ridge: f64,
    /// Lower bound on fitted noise stds, feet.
    pub noise_floor: f64,
    /// Whether to refit motion/sensing Gaussians (sensor-only
    /// calibration keeps the initial ones).
    pub fit_motion_params: bool,
    /// E-step exploration floor on the sensing std (feet). During
    /// calibration the filter must not trust the location reports
    /// absolutely, or the posterior collapses onto the (possibly
    /// biased) reports and the bias can never be learned. The *fitted*
    /// parameters are not floored by this.
    pub estep_sensing_sigma_floor: f64,
    /// E-step exploration floor on the motion std (feet): reader
    /// particles need spread to discover a systematic report bias.
    pub estep_motion_sigma_floor: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EmConfig {
    fn default() -> Self {
        Self {
            iterations: 4,
            particles_per_object: 400,
            reader_particles: 60,
            rows_per_object: 25,
            ridge: 1e-3,
            noise_floor: 0.005,
            fit_motion_params: true,
            estep_sensing_sigma_floor: 0.25,
            estep_motion_sigma_floor: 0.05,
            seed: 0xca1b,
        }
    }
}

/// Calibration output.
#[derive(Debug, Clone)]
pub struct EmResult {
    /// The learned parameter bundle.
    pub params: ModelParams,
    /// Training-rows negative log-likelihood per iteration (should be
    /// non-increasing up to Monte-Carlo noise).
    pub nll_history: Vec<f64>,
    /// Rows collected in the final E-step (diagnostics).
    pub final_rows: usize,
}

/// Runs Monte-Carlo EM over a training trace.
///
/// * `batches` — the synchronized training trace;
/// * `shelf_tags` — reference tags with known locations (may be empty,
///   in which case expect a local maximum);
/// * `prior` — the legal object space (shelf layout);
/// * `init` — starting parameters (a generic cone-like model works).
pub fn calibrate<P: LocationPrior + Clone>(
    batches: &[EpochBatch],
    shelf_tags: &[(TagId, Point3)],
    prior: &P,
    init: ModelParams,
    cfg: &EmConfig,
) -> EmResult {
    let mut params = init;
    let mut nll_history = Vec::new();
    let mut final_rows = 0usize;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    for it in 0..cfg.iterations {
        // ---------------- E-step ----------------------------------
        let mut engine_cfg = FilterConfig::factored_default();
        engine_cfg.particles_per_object = cfg.particles_per_object;
        engine_cfg.reader_particles = cfg.reader_particles;
        engine_cfg.report_delay_epochs = u64::MAX; // no events needed
        engine_cfg.seed = cfg.seed ^ (it as u64) << 32;
        // E-step exploration: weaken report trust and widen motion
        // noise so reader particles can discover systematic report bias
        let mut estep_params = params;
        estep_params.sensing.sigma.x = estep_params
            .sensing
            .sigma
            .x
            .max(cfg.estep_sensing_sigma_floor);
        estep_params.sensing.sigma.y = estep_params
            .sensing
            .sigma
            .y
            .max(cfg.estep_sensing_sigma_floor);
        estep_params.motion.sigma.x = estep_params
            .motion
            .sigma
            .x
            .max(cfg.estep_motion_sigma_floor);
        estep_params.motion.sigma.y = estep_params
            .motion
            .sigma
            .y
            .max(cfg.estep_motion_sigma_floor);
        let model = JointModel::new(estep_params);
        let mut engine =
            InferenceEngine::new(model, prior.clone(), shelf_tags.to_vec(), engine_cfg)
                .expect("valid E-step config");

        let shelf_ids: BTreeSet<TagId> = shelf_tags.iter().map(|(t, _)| *t).collect();
        let mut rows: Vec<SensorRow> = Vec::new();
        let mut est_traj: Vec<Point3> = Vec::new();
        let mut reader_poses: Vec<Option<rfid_geom::Pose>> = Vec::new();
        let mut odometry: Vec<Option<Vec3>> = Vec::new();
        let mut sensing_residuals: Vec<Vec3> = Vec::new();
        let mut last_report: Option<Point3> = None;

        // --- pass 1: filter the whole trace --------------------------
        // Objects are (nearly) static, so the *final* particle cloud —
        // which has integrated every reading and miss — is the smoothed
        // posterior for every epoch. Collecting rows against the final
        // clouds instead of the filtered (time-t) clouds breaks the
        // positive feedback where a diffuse initial cloud teaches the
        // model that far-away reads are common.
        for batch in batches {
            engine.process_batch(batch);
            let reader_est = engine.reader_estimate();
            reader_poses.push(reader_est);
            let Some(reader_est) = reader_est else {
                odometry.push(None);
                continue;
            };
            if let Some(rep) = batch.reader_report {
                odometry.push(last_report.map(|prev| rep.pos - prev));
                last_report = Some(rep.pos);
                sensing_residuals.push(rep.pos - reader_est.pos);
            } else {
                odometry.push(None);
            }
            est_traj.push(reader_est.pos);
        }

        // final smoothed object clouds (subsampled)
        type Cloud = Vec<(f64, Point3)>;
        let mut clouds: Vec<(TagId, Point3, Cloud)> = Vec::new();
        for tag in engine.tracked_objects().collect::<Vec<_>>() {
            let Some((est, _)) = engine.object_estimate(tag) else {
                continue;
            };
            let Some(ps) = engine.object_particles(tag) else {
                continue;
            };
            let step = (ps.len() / cfg.rows_per_object).max(1);
            let sub: Vec<(f64, Point3)> = ps
                .iter()
                .step_by(step)
                .map(|p| (p.w * step as f64, p.loc))
                .filter(|(w, _)| *w > 1e-9)
                .collect();
            if !sub.is_empty() {
                clouds.push((tag, est, sub));
            }
        }

        // --- pass 2: rows against known tags and smoothed clouds -----
        for (batch, reader_est) in batches.iter().zip(&reader_poses) {
            let Some(reader_est) = reader_est else {
                continue;
            };
            let read_set: BTreeSet<TagId> = batch.readings.iter().copied().collect();

            // shelf-tag rows: known geometry (up to reader uncertainty)
            for (tag, loc) in shelf_tags {
                let read = read_set.contains(tag);
                // far-miss rows carry no information and drown the fit
                let d = reader_est.pos.dist(loc);
                if read || d < 10.0 {
                    rows.push(SensorRow::from_geometry(reader_est, loc, read, 1.0));
                }
            }

            // Object rows through the smoothed clouds. In the first
            // iteration the clouds were produced by the uncalibrated
            // model and would poison the fit, so they are gated out as
            // long as shelf tags provide anchored rows (with zero shelf
            // tags there is nothing better — the local maximum the
            // paper observes).
            let use_object_rows = it > 0 || shelf_tags.is_empty();
            if use_object_rows {
                for (tag, est, sub) in &clouds {
                    if shelf_ids.contains(tag) {
                        continue;
                    }
                    let read = read_set.contains(tag);
                    if !read && reader_est.pos.dist(est) > 8.0 {
                        continue; // far misses: no information
                    }
                    for (w, loc) in sub {
                        rows.push(SensorRow::from_geometry(reader_est, loc, read, *w));
                    }
                }
            }
        }

        if rows.is_empty() {
            // a trace with no readings at all: nothing to learn from
            nll_history.push(f64::NAN);
            break;
        }
        // Subsample overly large row sets for M-step tractability.
        if rows.len() > 200_000 {
            let keep = 200_000;
            let mut sub = Vec::with_capacity(keep);
            for _ in 0..keep {
                sub.push(rows[rng.gen_range(0..rows.len())]);
            }
            rows = sub;
        }
        final_rows = rows.len();

        // ---------------- M-step ----------------------------------
        let fit = fit_logistic_signed(&rows, params.sensor, cfg.ridge, 50);
        params.sensor = fit.params;
        nll_history.push(fit.nll / rows.len() as f64);

        if cfg.fit_motion_params {
            params.motion = fit_motion(
                &est_traj,
                &odometry,
                params.motion.heading_std,
                cfg.noise_floor,
            );
            params.sensing = fit_sensing(
                &sensing_residuals,
                params.sensing.heading_std,
                cfg.noise_floor,
            );
        }
    }

    EmResult {
        params,
        nll_history,
        final_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_model::{ConeSensor, LogisticSensorModel, ReadRateModel};
    use rfid_sim::scenario;

    /// Mean |p_learned - p_true| over the cone's operating region.
    fn model_gap(learned: &rfid_model::SensorParams, truth: &ConeSensor) -> f64 {
        let m = LogisticSensorModel::new(*learned);
        let mut gap = 0.0;
        let mut n = 0;
        for di in 1..=10 {
            for ti in 0..=8 {
                let d = di as f64 * 0.5;
                let th = ti as f64 * 0.1;
                gap += (m.p_read_dt(d, th) - truth.p_read_dt(d, th)).abs();
                n += 1;
            }
        }
        gap / n as f64
    }

    #[test]
    fn learns_cone_from_20_tag_trace() {
        // Fig. 5(b): the sensor model learned from a 20-tag trace with
        // known shelf tags approximates the true cone.
        let sc = scenario::small_trace(16, 4, 21);
        let batches = sc.trace.epoch_batches();
        let mut init = ModelParams::default_warehouse();
        // start from a deliberately wrong, weakly-informed model
        init.sensor = rfid_model::SensorParams {
            a: [2.0, -0.2, -0.05],
            b: [-0.1, -0.5],
        };
        let cfg = EmConfig {
            iterations: 3,
            ..EmConfig::default()
        };
        let result = calibrate(&batches, &sc.trace.shelf_tags, &sc.layout, init, &cfg);
        let truth = ConeSensor::paper_default();
        let gap_init = model_gap(&init.sensor, &truth);
        let gap_learned = model_gap(&result.params.sensor, &truth);
        assert!(
            gap_learned < gap_init,
            "learning should improve the model: {gap_init} -> {gap_learned}"
        );
        assert!(
            gap_learned < 0.25,
            "learned model too far off: {gap_learned}"
        );
        assert!(result.final_rows > 100);
    }

    #[test]
    fn learned_model_reads_near_not_far() {
        let sc = scenario::small_trace(16, 4, 22);
        let batches = sc.trace.epoch_batches();
        let init = ModelParams::default_warehouse();
        let cfg = EmConfig {
            iterations: 2,
            ..EmConfig::default()
        };
        let result = calibrate(&batches, &sc.trace.shelf_tags, &sc.layout, init, &cfg);
        let m = LogisticSensorModel::new(result.params.sensor);
        // assertions stay within the training data's geometric support:
        // tags sit ~2 ft off the aisle, so observed (d, θ) pairs range
        // from (2, 0) head-on to roughly (4.5, 1.1) down the shelf
        assert!(
            m.p_read_dt(2.1, 0.05) > 0.5,
            "head-on shelf-face read rate too low"
        );
        assert!(
            m.p_read_dt(3.5, 0.9) < m.p_read_dt(2.1, 0.05),
            "wide-angle rate should be below head-on rate"
        );
    }

    #[test]
    fn sensing_bias_learned_from_biased_trace() {
        // Fig. 5(g) "model On - learned": the systematic y bias of the
        // location reports is recovered by the sensing fit.
        let sc = scenario::location_noise_trace(0.6, 0.05, 23);
        let batches = sc.trace.epoch_batches();
        let init = ModelParams::default_warehouse();
        let cfg = EmConfig {
            iterations: 3,
            ..EmConfig::default()
        };
        let result = calibrate(&batches, &sc.trace.shelf_tags, &sc.layout, init, &cfg);
        let mu_y = result.params.sensing.mu.y;
        assert!(
            mu_y > 0.15,
            "learned sensing bias should be positive, got {mu_y}"
        );
    }
}
