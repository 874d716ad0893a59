//! The basic, unfactorized particle filter of §IV-A.
//!
//! Every particle is a *joint* hypothesis: one reader pose plus one
//! location per object (the `x_t^(j) = (R, O_1 ... O_n)` of the paper).
//! The weight update multiplies the location-report likelihood, the
//! shelf-tag likelihoods, and the sensor likelihood of every object —
//! so a particle that is good for most objects but bad for one is bad,
//! which is exactly the curse Fig. 3(a) illustrates and particle
//! factorization removes. The filter is retained as the baseline of the
//! scalability study (Fig. 5(i)/(j)); the paper could not push it past
//! 20 objects.

use crate::config::{FilterConfig, INIT_CONE_HALF_ANGLE, MAX_INIT_RANGE};
use crate::error::ConfigError;
use crate::factored::sample_cone_in_prior;
use crate::output::OutputPolicy;
use crate::particle::{effective_sample_size, log_normalize, systematic_resample};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_geom::{Point3, Pose, Vec3};
use rfid_model::{JointModel, LocationPrior, ReadRateModel};
use rfid_stream::{Epoch, EpochBatch, EventStats, InferenceStage, LocationEvent, TagId};
use std::collections::{BTreeSet, HashMap};

#[derive(Debug, Clone)]
struct JointParticle {
    reader: Pose,
    /// One location per registered object, indexed densely.
    objects: Vec<Point3>,
    log_w: f64,
}

/// Unfactorized joint particle filter, generic like the engine.
pub struct BasicParticleFilter<P: LocationPrior, S: ReadRateModel = rfid_model::LogisticSensorModel>
{
    model: JointModel<S>,
    prior: P,
    config: FilterConfig,
    shelf_tags: Vec<(TagId, Point3)>,
    shelf_ids: BTreeSet<TagId>,
    particles: Vec<JointParticle>,
    /// Dense registry of objects in the order first seen.
    tags: Vec<TagId>,
    index_of: HashMap<TagId, usize>,
    policy: OutputPolicy,
    rng: StdRng,
    range_over: f64,
    last_report: Option<Pose>,
    initialized: bool,
}

impl<P: LocationPrior, S: ReadRateModel> BasicParticleFilter<P, S> {
    /// Builds the filter with `num_particles` joint particles.
    /// `config.particles_per_object` is ignored; pass the joint count in
    /// `num_particles` (the paper needed 100,000 for 20 objects).
    pub fn new(
        model: JointModel<S>,
        prior: P,
        shelf_tags: Vec<(TagId, Point3)>,
        config: FilterConfig,
        num_particles: usize,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        if num_particles == 0 {
            return Err(ConfigError::new("num_particles must be >= 1"));
        }
        let range_over = (model.sensor.detection_range(0.02) * config.init_range_overestimate)
            .min(MAX_INIT_RANGE);
        let shelf_ids = shelf_tags.iter().map(|(t, _)| *t).collect();
        let uniform = -(num_particles as f64).ln();
        Ok(Self {
            model,
            prior,
            shelf_ids,
            shelf_tags,
            particles: vec![
                JointParticle {
                    reader: Pose::identity(),
                    objects: Vec::new(),
                    log_w: uniform,
                };
                num_particles
            ],
            tags: Vec::new(),
            index_of: HashMap::new(),
            policy: OutputPolicy::new(
                config.report_delay_epochs,
                config.report_delay_epochs.saturating_mul(2),
            ),
            rng: StdRng::seed_from_u64(config.seed),
            range_over,
            last_report: None,
            initialized: false,
            config,
        })
    }

    /// Number of registered objects.
    pub fn num_objects(&self) -> usize {
        self.tags.len()
    }

    /// Posterior-mean estimate for an object.
    pub fn object_estimate(&self, tag: TagId) -> Option<(Point3, [f64; 3])> {
        let idx = *self.index_of.get(&tag)?;
        let mut mean = Vec3::zero();
        for p in &self.particles {
            mean += p.objects[idx].to_vec() * p.log_w.exp();
        }
        let mean = mean.to_point();
        let mut var = [0.0; 3];
        for p in &self.particles {
            let w = p.log_w.exp();
            let l = &p.objects[idx];
            var[0] += w * (l.x - mean.x) * (l.x - mean.x);
            var[1] += w * (l.y - mean.y) * (l.y - mean.y);
            var[2] += w * (l.z - mean.z) * (l.z - mean.z);
        }
        Some((mean, var))
    }

    /// Posterior-mean reader pose.
    pub fn reader_estimate(&self) -> Pose {
        let mut pos = Vec3::zero();
        let (mut s, mut c) = (0.0, 0.0);
        for p in &self.particles {
            let w = p.log_w.exp();
            pos += p.reader.pos.to_vec() * w;
            s += w * p.reader.phi.sin();
            c += w * p.reader.phi.cos();
        }
        Pose::new(pos.to_point(), s.atan2(c))
    }

    /// The due event of `tag`, carrying the joint particle count as its
    /// support.
    fn event(&self, epoch: Epoch, tag: TagId) -> Option<LocationEvent> {
        let (loc, var) = self.object_estimate(tag)?;
        let support = self.particles.len() as f64;
        Some(LocationEvent::new(epoch, tag, loc).with_stats(EventStats { var, support }))
    }
}

impl<P: LocationPrior, S: ReadRateModel> InferenceStage for BasicParticleFilter<P, S> {
    /// Processes one epoch batch.
    fn process_batch_into(&mut self, batch: &EpochBatch, out: &mut Vec<LocationEvent>) {
        let epoch = batch.epoch;
        let report = batch.reader_report;

        // partition readings
        let mut shelf_read: BTreeSet<TagId> = BTreeSet::new();
        let mut object_read: Vec<TagId> = Vec::new();
        for tag in &batch.readings {
            if self.shelf_ids.contains(tag) {
                shelf_read.insert(*tag);
            } else {
                object_read.push(*tag);
            }
        }

        // objects read this epoch (computed early: the object-dynamics
        // proposal below relocates only read objects — see
        // ObjectFilter::predict for the rationale)
        let read_idx_early: std::collections::BTreeSet<usize> = batch
            .readings
            .iter()
            .filter_map(|t| self.index_of.get(t).copied())
            .collect();

        // ---- proposal ------------------------------------------------
        if !self.initialized {
            let start = report.unwrap_or_else(Pose::identity);
            for p in &mut self.particles {
                p.reader = start;
            }
            self.initialized = true;
        } else {
            let odom = match (self.last_report, report) {
                (Some(prev), Some(cur)) => Some(cur.pos - prev.pos),
                _ => None,
            };
            let params = *self.model.motion.params();
            let delta = odom.unwrap_or(params.delta);
            for p in &mut self.particles {
                let noise = Vec3::new(
                    params.sigma.x * rfid_geom::standard_normal(&mut self.rng),
                    params.sigma.y * rfid_geom::standard_normal(&mut self.rng),
                    params.sigma.z * rfid_geom::standard_normal(&mut self.rng),
                );
                let phi = report.map(|r| r.phi).unwrap_or(p.reader.phi);
                p.reader = Pose::new(p.reader.pos + delta + noise, phi);
                // object dynamics: relocation proposed only for read
                // objects (their read likelihood weights it immediately)
                for (idx, loc) in p.objects.iter_mut().enumerate() {
                    if read_idx_early.contains(&idx) {
                        *loc = self
                            .model
                            .object
                            .sample_next(loc, &self.prior, &mut self.rng);
                    }
                }
            }
        }
        if let Some(r) = report {
            self.last_report = Some(r);
        }

        // ---- register new objects ------------------------------------
        for tag in &object_read {
            if !self.index_of.contains_key(tag) {
                let idx = self.tags.len();
                self.tags.push(*tag);
                self.index_of.insert(*tag, idx);
                for pi in 0..self.particles.len() {
                    let pose = self.particles[pi].reader;
                    let loc = sample_cone_in_prior(
                        &pose,
                        self.range_over,
                        INIT_CONE_HALF_ANGLE,
                        Some(&self.prior),
                        &mut self.rng,
                    );
                    self.particles[pi].objects.push(loc);
                }
            }
            self.policy.on_read(*tag, epoch);
        }
        let read_idx: BTreeSet<usize> = object_read
            .iter()
            .filter_map(|t| self.index_of.get(t).copied())
            .collect();

        // ---- weighting (the full Eq. 3 product) ----------------------
        for p in &mut self.particles {
            let mut lw =
                self.model
                    .reader_log_weight(&p.reader, report.as_ref(), std::iter::empty());
            for (tag, loc) in &self.shelf_tags {
                // evaluate every shelf tag: the basic filter makes no
                // spatial approximations (that is the point)
                lw += self
                    .model
                    .sensor
                    .log_likelihood(&p.reader, loc, shelf_read.contains(tag));
            }
            for (idx, loc) in p.objects.iter().enumerate() {
                lw += self
                    .model
                    .object_log_weight(&p.reader, loc, read_idx.contains(&idx));
            }
            p.log_w += lw;
        }
        let mut w: Vec<f64> = self.particles.iter().map(|p| p.log_w).collect();
        log_normalize(&mut w);
        for (p, nw) in self.particles.iter_mut().zip(&w) {
            p.log_w = *nw;
        }

        // ---- resample -------------------------------------------------
        let n = self.particles.len();
        if effective_sample_size(&w) < self.config.resample_ess_frac * n as f64 {
            let probs: Vec<f64> = w.iter().map(|x| x.exp()).collect();
            let mut ancestry = Vec::with_capacity(n);
            systematic_resample(&probs, n, &mut ancestry, &mut self.rng);
            let uniform = -(n as f64).ln();
            let old = std::mem::take(&mut self.particles);
            self.particles = ancestry
                .into_iter()
                .map(|i| JointParticle {
                    log_w: uniform,
                    ..old[i as usize].clone()
                })
                .collect();
        }

        // ---- events ---------------------------------------------------
        for tag in self.policy.due(epoch) {
            out.extend(self.event(epoch, tag));
        }
    }

    /// Flushes pending reports at end of trace.
    fn finalize_into(&mut self, last_epoch: Epoch, out: &mut Vec<LocationEvent>) {
        for tag in self.policy.flush() {
            out.extend(self.event(last_epoch, tag));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_geom::Aabb;
    use rfid_model::{BoxPrior, ModelParams};

    fn prior() -> BoxPrior {
        BoxPrior::new(Aabb::new(
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(4.0, 40.0, 0.0),
        ))
    }

    fn filter(n: usize) -> BasicParticleFilter<BoxPrior> {
        let model = JointModel::new(ModelParams::default_warehouse());
        let mut cfg = FilterConfig::factored_default();
        cfg.report_delay_epochs = 10;
        BasicParticleFilter::new(model, prior(), vec![], cfg, n).unwrap()
    }

    fn batch(epoch: u64, reader_y: f64, tags: &[u64]) -> EpochBatch {
        EpochBatch {
            epoch: Epoch(epoch),
            readings: tags.iter().map(|t| TagId(*t)).collect(),
            reader_report: Some(Pose::new(Point3::new(0.0, reader_y, 0.0), 0.0)),
        }
    }

    #[test]
    fn rejects_zero_particles() {
        let model = JointModel::new(ModelParams::default_warehouse());
        assert!(BasicParticleFilter::new(
            model,
            prior(),
            vec![],
            FilterConfig::factored_default(),
            0
        )
        .is_err());
    }

    #[test]
    fn single_object_estimate_converges() {
        // reads generated from the same sensor model the filter uses
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let model = JointModel::new(ModelParams::default_warehouse());
        let mut f = filter(2000);
        let truth = Point3::new(2.0, 3.0, 0.0);
        let mut events = Vec::new();
        for t in 0..50u64 {
            let y = t as f64 * 0.1;
            let pose = Pose::new(Point3::new(0.0, y, 0.0), 0.0);
            let read = rng.gen::<f64>() < model.sensor.p_read(&pose, &truth);
            let tags: Vec<u64> = if read { vec![7] } else { vec![] };
            events.extend(f.process_batch(&batch(t, y, &tags)));
        }
        events.extend(f.finalize(Epoch(50)));
        let ev: Vec<_> = events.iter().filter(|e| e.tag == TagId(7)).collect();
        assert!(!ev.is_empty());
        let err = ev[0].location.dist_xy(&truth);
        assert!(err < 1.2, "error {err} at {:?}", ev[0].location);
    }

    #[test]
    fn registry_grows_with_new_tags() {
        let mut f = filter(100);
        f.process_batch(&batch(0, 0.0, &[1, 2, 3]));
        assert_eq!(f.num_objects(), 3);
        f.process_batch(&batch(1, 0.1, &[2, 4]));
        assert_eq!(f.num_objects(), 4);
        // every particle carries all four object hypotheses
        assert!(f.particles.iter().all(|p| p.objects.len() == 4));
    }

    #[test]
    fn more_particles_help_at_high_object_count() {
        // the motivating effect of §IV-B: the joint filter needs a large
        // particle count to stay accurate when many objects are tracked
        // (a particle good for most objects may be bad for one).
        use rand::{Rng, SeedableRng};
        let model = JointModel::new(ModelParams::default_warehouse());
        let run = |particles: usize, seed: u64| -> f64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut f = filter(particles);
            let num_objects = 12usize;
            let spacing = 2.0;
            let truths: Vec<Point3> = (0..num_objects)
                .map(|i| Point3::new(2.0, (i as f64 + 0.5) * spacing, 0.0))
                .collect();
            for t in 0..(num_objects as u64 * 20 + 20) {
                let y = t as f64 * 0.1;
                let pose = Pose::new(Point3::new(0.0, y, 0.0), 0.0);
                let tags: Vec<u64> = truths
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| rng.gen::<f64>() < model.sensor.p_read(&pose, p))
                    .map(|(i, _)| i as u64)
                    .collect();
                f.process_batch(&batch(t, y, &tags));
            }
            let mut err = 0.0;
            for (i, truth) in truths.iter().enumerate() {
                let (est, _) = f.object_estimate(TagId(i as u64)).unwrap();
                err += est.dist_xy(truth);
            }
            err / num_objects as f64
        };
        // average over seeds: the effect is statistical, not per-run
        let seeds = [11u64, 22, 33];
        let small: f64 = seeds.iter().map(|&s| run(60, s)).sum::<f64>() / 3.0;
        let large: f64 = seeds.iter().map(|&s| run(2000, s)).sum::<f64>() / 3.0;
        assert!(
            small > large,
            "a small joint-particle budget should hurt at 12 objects: {small} vs {large}"
        );
    }
}
