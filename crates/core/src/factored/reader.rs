//! The reader side of the factored filter.
//!
//! Reader particles are proposed from the motion model — conditioned on
//! the odometry increment between consecutive location reports when one
//! is available (the constant-velocity `Δ` is the fallback, matching
//! §III-A's "new location is the old location plus a noisy version of
//! the average velocity") — and weighted by the location report and the
//! shelf-tag readings (the `w_rt` factor of Eq. 5).
//!
//! Resampling is *instrumented to favor reader particles that are
//! associated with good object particles* (§IV-B): object filters
//! deposit per-reader support while weighting, and the resampling
//! distribution multiplies the reader weight by that support.

use crate::particle::{
    effective_sample_size_iter, log_normalize, log_normalize_by, systematic_resample,
    weighted_mean_pose, ReaderParticle, XyBounds,
};
use rand::Rng;
use rfid_geom::{Point3, Pose, Vec3};
use rfid_model::{JointModel, ReadRateModel};

/// The result of a reader resampling step: for each *old* particle
/// index, the index of its first surviving copy (if any). Object
/// filters use this to keep their pointers meaningful within an epoch.
#[derive(Debug, Clone)]
pub struct ReaderRemap {
    first_descendant: Vec<Option<u32>>,
    num_new: u32,
}

impl ReaderRemap {
    /// Maps an old particle index to a surviving slot, or `None` when
    /// the particle left no descendants.
    pub fn map(&self, old: u32) -> Option<u32> {
        self.first_descendant.get(old as usize).copied().flatten()
    }

    /// Number of particles after resampling.
    pub fn num_new(&self) -> u32 {
        self.num_new
    }

    /// The raw first-descendant table (one entry per *old* particle).
    /// Exposed so a cluster head can ship the remap over the wire.
    pub fn first_descendant(&self) -> &[Option<u32>] {
        &self.first_descendant
    }

    /// Rebuilds a remap from its wire representation (the inverse of
    /// [`ReaderRemap::first_descendant`] + [`ReaderRemap::num_new`]).
    pub fn from_parts(first_descendant: Vec<Option<u32>>, num_new: u32) -> Self {
        Self {
            first_descendant,
            num_new,
        }
    }
}

/// Per-epoch read-only tables derived from a [`ReaderFilter`], one
/// entry per reader particle (see [`ReaderFilter::tables`]). Valid
/// until the reader's weights or poses change.
#[derive(Debug, Clone, Default)]
pub struct ReaderTables {
    /// Cumulative particle weights (probability space). Private with
    /// `guide`: the two are only meaningful built together.
    cdf: Vec<f64>,
    /// Guide table over `cdf`: `guide[b]` is the first index whose
    /// cumulative weight reaches `b / guide.len()`, so a draw `u` in
    /// bucket `b` starts its scan there instead of searching the whole
    /// CDF.
    guide: Vec<u32>,
    /// Particle weights in probability space: `exp(log_w)`, the reader
    /// factor of every object particle's joint weight.
    pub probs: Vec<f64>,
    /// Heading `[cos φ, sin φ]`, hoisted out of the object weight
    /// passes.
    pub trig: Vec<[f64; 2]>,
    /// Particle positions as `x` and `y` columns, for the envelope.
    xy: [Vec<f64>; 2],
    /// Where the cloud is and which way it faces, whatever the
    /// weights — what the spatial index's reach test
    /// ([`crate::Reach`]) holds an object's extent against.
    pub(crate) envelope: ReaderEnvelope,
}

/// The reader cloud's envelope: every particle's position lies in
/// `bounds`, and every particle's heading within `heading_spread` of
/// `heading`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReaderEnvelope {
    /// XY extent of the particle positions.
    pub(crate) bounds: XyBounds,
    /// Unit vector of the mean heading.
    pub(crate) heading: [f64; 2],
    /// Largest angle (radians) between a particle's heading and the
    /// mean; NaN when the headings have no mean (they cancel, or one
    /// of them is NaN).
    pub(crate) heading_spread: f64,
}

impl Default for ReaderEnvelope {
    /// The envelope of no particles: an empty box, no heading.
    fn default() -> Self {
        Self::of([&[], &[]], &[])
    }
}

impl ReaderEnvelope {
    /// The envelope of particles at `(xs[i], ys[i])` whose heading
    /// trig is `trig[i]`.
    fn of([xs, ys]: [&[f64]; 2], trig: &[[f64; 2]]) -> Self {
        let sum = trig
            .iter()
            .fold([0.0f64; 2], |sum, [c, s]| [sum[0] + c, sum[1] + s]);
        let norm = sum[0].hypot(sum[1]);
        let heading = [sum[0] / norm, sum[1] / norm];
        // the smallest cosine is the largest angle
        let cos_spread = trig
            .iter()
            .map(|[c, s]| c * heading[0] + s * heading[1])
            .fold(1.0, f64::min);
        Self {
            bounds: XyBounds::of(xs, ys),
            heading,
            heading_spread: if norm > 0.0 && norm.is_finite() {
                cos_spread.clamp(-1.0, 1.0).acos()
            } else {
                f64::NAN
            },
        }
    }
}

/// Guide buckets per reader particle (rounded up to a power of two).
/// At 8 a draw's forward scan averages 0.05 CDF entries on the
/// benchmark's cold scan; 2 measured 4–10% slower there
/// (EXPERIMENTS.md PR 15).
const GUIDE_BUCKETS_PER_PARTICLE: usize = 8;

/// Upper limit of the guide size, so that the per-epoch build stays
/// within 4 KB of `fill` however many reader particles there are.
const MAX_GUIDE_BUCKETS: usize = 1024;

impl ReaderTables {
    /// Number of guide buckets for `n` reader particles: a power of
    /// two, which makes the bucket of a draw (`u · K`) and a bucket's
    /// lower edge (`b / K`) exact in floating point.
    pub fn guide_buckets(n: usize) -> usize {
        (n * GUIDE_BUCKETS_PER_PARTICLE)
            .next_power_of_two()
            .min(MAX_GUIDE_BUCKETS)
    }

    /// Draws a reader particle index according to the weights the
    /// tables were built from: one uniform `u`, then the first `i` with
    /// `cdf[i] >= u`, clamped to the last particle when floating-point
    /// shortfall leaves the total below `u` — the index a linear scan
    /// over the weights stops at, from the same single RNG draw
    /// (`tests/reader_draw_prop.rs`). Every reader-index draw of the
    /// engine (pointer refresh, cone initialization, half respawn,
    /// decompression) goes through here.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        let u: f64 = rng.gen();
        let last = self.cdf.len() - 1;
        // u < 1 and the scale is a power of two: the product is exact
        // and below the bucket count
        let mut i = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        while i < last && self.cdf[i] < u {
            i += 1;
        }
        i as u32
    }

    /// Rebuilds the guide from `cdf` by one contiguous `fill` per
    /// reader particle: particle `i` owns the buckets whose lower edge
    /// `b / K` lies in `(cdf[i-1], cdf[i]]`, i.e. `b` up to
    /// `floor(cdf[i] · K)`. Buckets above the CDF's total point at the
    /// last particle (the clamp).
    fn build_guide(&mut self) {
        let n = self.cdf.len();
        let buckets = Self::guide_buckets(n);
        self.guide.clear();
        self.guide.resize(buckets, (n - 1) as u32);
        let mut start = 0;
        for (i, c) in self.cdf.iter().enumerate() {
            // the clamp's lower end: a NaN weight must not turn into a
            // reversed range
            let end = ((c * buckets as f64) as usize)
                .saturating_add(1)
                .clamp(start, buckets);
            self.guide[start..end].fill(i as u32);
            start = end;
        }
    }
}

/// The reader particle filter.
#[derive(Debug, Clone)]
pub struct ReaderFilter {
    pub(crate) particles: Vec<ReaderParticle>,
    /// Per-particle support accumulated from object filters since the
    /// last resample (in probability space, not log).
    pub(crate) support: Vec<f64>,
    /// Number of resampling events (diagnostics).
    resample_count: u64,
}

impl ReaderFilter {
    /// Initializes all particles at `start` (the paper assumes "the
    /// initial reader location R_1 is known" — in practice, the first
    /// location report).
    pub fn new(n: usize, start: Pose) -> Self {
        debug_assert!(n >= 1, "reader filters are never empty");
        let w = -(n as f64).ln();
        Self {
            particles: vec![
                ReaderParticle {
                    pose: start,
                    log_w: w,
                };
                n
            ],
            support: vec![0.0; n],
            resample_count: 0,
        }
    }

    /// Rebuilds a filter from checkpointed parts, preserving the
    /// accumulated support and resample counter exactly.
    pub fn from_parts(particles: Vec<ReaderParticle>, support: Vec<f64>, resamples: u64) -> Self {
        debug_assert!(!particles.is_empty(), "reader filters are never empty");
        debug_assert_eq!(particles.len(), support.len());
        Self {
            particles,
            support,
            resample_count: resamples,
        }
    }

    /// The particles (log weights normalized).
    pub fn particles(&self) -> &[ReaderParticle] {
        &self.particles
    }

    /// The per-particle object support accumulated since the last
    /// resample (checkpointing).
    pub fn support(&self) -> &[f64] {
        &self.support
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.particles.len()
    }

    /// Whether the filter has no particles (never true in practice —
    /// construction `debug_assert!`s at least one).
    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    /// Number of resampling events so far.
    pub(crate) fn resample_count(&self) -> u64 {
        self.resample_count
    }

    /// Proposal step: moves every particle by the odometry increment
    /// (or the model's average velocity when no odometry is available)
    /// plus motion noise, and applies the heading change.
    pub fn predict<S: ReadRateModel, R: Rng + ?Sized>(
        &mut self,
        model: &JointModel<S>,
        odom_delta: Option<Vec3>,
        heading: Option<f64>,
        rng: &mut R,
    ) {
        let params = model.motion.params();
        let delta = odom_delta.unwrap_or(params.delta);
        for p in &mut self.particles {
            let noise = Vec3::new(
                params.sigma.x * rfid_geom::standard_normal(rng),
                params.sigma.y * rfid_geom::standard_normal(rng),
                params.sigma.z * rfid_geom::standard_normal(rng),
            );
            let phi = match heading {
                // Reported heading is adopted directly: robot odometry
                // tracks orientation well, and the sensor model's angle
                // term needs a usable heading (see DESIGN.md §5).
                Some(h) => {
                    if params.heading_std > 0.0 {
                        h + params.heading_std * rfid_geom::standard_normal(rng)
                    } else {
                        h
                    }
                }
                None => p.pose.phi,
            };
            p.pose = Pose::new(p.pose.pos + delta + noise, phi);
        }
    }

    /// Weighting step: multiplies in the location-report likelihood and
    /// the shelf-tag reading likelihoods, then renormalizes.
    pub fn weight<'a, S: ReadRateModel, I>(
        &mut self,
        model: &JointModel<S>,
        report: Option<&Pose>,
        shelf_obs: I,
    ) where
        I: IntoIterator<Item = (&'a Point3, bool)> + Clone,
    {
        for p in &mut self.particles {
            p.log_w += model.reader_log_weight(&p.pose, report, shelf_obs.clone());
        }
        self.normalize();
    }

    /// Records object-filter support for a reader particle: `w` is the
    /// summed normalized joint weight of the object particles pointing
    /// at `idx`. Consumed by the next resampling step.
    pub fn add_support(&mut self, idx: u32, w: f64) {
        self.support[idx as usize] += w;
    }

    /// Merges one object's staged support row (dense, `len()`-sized)
    /// into the accumulated support. Rows are merged in tag order —
    /// by the engine after each step, by the cluster head across all
    /// workers — so the floating-point sum is identical for every
    /// cluster size.
    pub fn merge_support(&mut self, staged: &[f64]) {
        debug_assert_eq!(staged.len(), self.support.len());
        for (s, d) in self.support.iter_mut().zip(staged) {
            *s += *d;
        }
    }

    /// Effective sample size of the current weights, computed in one
    /// streaming pass (weights are kept normalized by
    /// [`weight`](Self::weight)).
    pub fn ess(&self) -> f64 {
        effective_sample_size_iter(self.particles.iter().map(|p| p.log_w))
    }

    /// Whether [`maybe_resample`](Self::maybe_resample) resamples at
    /// `ess_frac`: unless the ESS is still at least `ess_frac * n`.
    /// Fixed once the weights are, so a cluster head can announce the
    /// decision before its workers step.
    pub(crate) fn resample_due(&self, ess_frac: f64) -> bool {
        let keep = self.ess() >= ess_frac * self.particles.len() as f64;
        !keep
    }

    /// Resamples when the ESS has dropped below `ess_frac * n`,
    /// blending the reader weights with accumulated object support.
    /// Returns the remap when resampling occurred.
    pub fn maybe_resample<R: Rng + ?Sized>(
        &mut self,
        ess_frac: f64,
        rng: &mut R,
    ) -> Option<ReaderRemap> {
        let n = self.particles.len();
        if !self.resample_due(ess_frac) {
            // decay support between resamples so stale evidence fades
            for s in &mut self.support {
                *s *= 0.5;
            }
            return None;
        }
        // resampling distribution: w_r * (epsilon + support)
        let total_support: f64 = self.support.iter().sum();
        let mut dist: Vec<f64> = if total_support > 0.0 {
            self.particles
                .iter()
                .zip(&self.support)
                .map(|(p, s)| p.log_w + (1e-3 + s).ln())
                .collect()
        } else {
            self.particles.iter().map(|p| p.log_w).collect()
        };
        log_normalize(&mut dist);
        for w in &mut dist {
            *w = w.exp();
        }
        let mut ancestry = Vec::with_capacity(n);
        systematic_resample(&dist, n, &mut ancestry, &mut Vec::new(), rng);

        let mut first_descendant = vec![None; n];
        let mut new_particles = Vec::with_capacity(n);
        let uniform = -(n as f64).ln();
        for (slot, &old) in ancestry.iter().enumerate() {
            if first_descendant[old as usize].is_none() {
                first_descendant[old as usize] = Some(slot as u32);
            }
            new_particles.push(ReaderParticle {
                pose: self.particles[old as usize].pose,
                log_w: uniform,
            });
        }
        self.particles = new_particles;
        self.support = vec![0.0; n];
        self.resample_count += 1;
        Some(ReaderRemap {
            first_descendant,
            num_new: n as u32,
        })
    }

    /// Posterior-mean pose estimate.
    pub fn estimate(&self) -> Pose {
        weighted_mean_pose(&self.particles).expect("reader filter is never empty")
    }

    /// Rebuilds `out` (cleared and reused) from the current particles:
    /// the sampling CDF (the running sum accumulates in particle
    /// order) with its guide table, the weights it accumulates, and the
    /// heading trig. The engine calls this once per epoch, after the
    /// reader update — the reader is frozen while objects step, so one
    /// build serves every pointer refresh, cone initialization, respawn,
    /// decompression and object step of the epoch, with one `exp` and
    /// one `sin`/`cos` per reader particle.
    pub(crate) fn tables_into(&self, out: &mut ReaderTables) {
        let n = self.particles.len();
        out.cdf.clear();
        out.cdf.reserve(n);
        out.probs.clear();
        out.probs.reserve(n);
        let mut cum = 0.0;
        for p in &self.particles {
            let w = p.log_w.exp();
            cum += w;
            out.probs.push(w);
            out.cdf.push(cum);
        }
        out.trig.clear();
        out.trig.reserve(n);
        out.trig.extend(
            self.particles
                .iter()
                .map(|p| [p.pose.phi.cos(), p.pose.phi.sin()]),
        );
        out.build_guide();
        let [xs, ys] = &mut out.xy;
        xs.clear();
        xs.extend(self.particles.iter().map(|p| p.pose.pos.x));
        ys.clear();
        ys.extend(self.particles.iter().map(|p| p.pose.pos.y));
        out.envelope = ReaderEnvelope::of([xs, ys], &out.trig);
    }

    /// The tables in a fresh allocation, for callers outside the
    /// engine's per-epoch loop (which reuses one set of buffers).
    pub fn tables(&self) -> ReaderTables {
        let mut out = ReaderTables::default();
        self.tables_into(&mut out);
        out
    }

    /// The normalized weight of particle `idx` (probability space).
    pub fn weight_of(&self, idx: u32) -> f64 {
        self.particles[idx as usize].log_w.exp()
    }

    /// The log weight of particle `idx`.
    pub fn log_weight_of(&self, idx: u32) -> f64 {
        self.particles[idx as usize].log_w
    }

    /// The pose of particle `idx`.
    pub fn pose_of(&self, idx: u32) -> &Pose {
        &self.particles[idx as usize].pose
    }

    /// In-place log-normalization (the shared [`log_normalize_by`],
    /// projected onto `log_w`).
    fn normalize(&mut self) {
        log_normalize_by(&mut self.particles, |p| p.log_w, |p, w| p.log_w = w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfid_model::ModelParams;

    fn model() -> JointModel {
        JointModel::new(ModelParams::default_warehouse())
    }

    #[test]
    fn predict_moves_particles_by_odometry() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = model();
        let mut f = ReaderFilter::new(200, Pose::identity());
        f.predict(&m, Some(Vec3::new(0.0, 0.5, 0.0)), None, &mut rng);
        let est = f.estimate();
        assert!((est.pos.y - 0.5).abs() < 0.01, "est y {}", est.pos.y);
    }

    #[test]
    fn predict_falls_back_to_model_delta() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = model(); // delta = (0, 0.1, 0)
        let mut f = ReaderFilter::new(200, Pose::identity());
        f.predict(&m, None, None, &mut rng);
        let est = f.estimate();
        assert!((est.pos.y - 0.1).abs() < 0.01);
    }

    #[test]
    fn weighting_pulls_estimate_toward_report() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = model();
        let mut f = ReaderFilter::new(500, Pose::identity());
        // spread the particles with a few noisy predicts
        for _ in 0..5 {
            f.predict(&m, Some(Vec3::zero()), None, &mut rng);
        }
        let report = Pose::new(Point3::new(0.02, 0.02, 0.0), 0.0);
        f.weight(&m, Some(&report), std::iter::empty());
        let est = f.estimate();
        assert!(est.pos.dist(&report.pos) < 0.02);
    }

    #[test]
    fn shelf_tag_corrects_biased_reports() {
        // Systematic report bias + an observed shelf tag: the particles
        // near the shelf tag must win over the ones at the biased report.
        let mut rng = StdRng::seed_from_u64(4);
        let mut params = ModelParams::default_warehouse();
        params.sensing.sigma = Vec3::new(0.3, 0.3, 0.0); // weak trust in reports
        let m = JointModel::new(params);
        let mut f = ReaderFilter::new(2000, Pose::identity());
        for _ in 0..20 {
            f.predict(&m, Some(Vec3::zero()), None, &mut rng);
        }
        // true pose ~ origin; report is biased 1 ft along y
        let report = Pose::new(Point3::new(0.0, 1.0, 0.0), 0.0);
        let shelf = Point3::new(2.0, 0.0, 0.0); // readable only from near origin
        f.weight(&m, Some(&report), [(&shelf, true)]);
        let est = f.estimate();
        assert!(
            est.pos.y < 0.9,
            "estimate should be pulled back toward the shelf tag; y = {}",
            est.pos.y
        );
    }

    #[test]
    fn resample_triggers_on_degenerate_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = model();
        let mut f = ReaderFilter::new(100, Pose::identity());
        for _ in 0..10 {
            f.predict(&m, Some(Vec3::zero()), None, &mut rng);
        }
        // an extremely precise report degenerates the weights
        let mut params = ModelParams::default_warehouse();
        params.sensing.sigma = Vec3::new(0.0001, 0.0001, 0.0);
        let sharp = JointModel::new(params);
        let report = Pose::new(Point3::new(0.001, 0.001, 0.0), 0.0);
        f.weight(&sharp, Some(&report), std::iter::empty());
        let remap = f.maybe_resample(0.5, &mut rng);
        assert!(remap.is_some());
        assert_eq!(f.resample_count(), 1);
        // weights are uniform afterwards
        let ess = f.ess();
        assert!((ess - 100.0).abs() < 1e-6, "post-resample ESS {ess}");
    }

    #[test]
    fn remap_points_to_descendants() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = model();
        let mut f = ReaderFilter::new(50, Pose::identity());
        f.predict(&m, Some(Vec3::zero()), None, &mut rng);
        // make one particle dominant
        let mut params = ModelParams::default_warehouse();
        params.sensing.sigma = Vec3::new(0.001, 0.001, 0.0);
        let sharp = JointModel::new(params);
        let winner_pose = *f.pose_of(7);
        f.weight(&sharp, Some(&winner_pose), std::iter::empty());
        if let Some(remap) = f.maybe_resample(0.9, &mut rng) {
            // surviving index maps to a slot holding the same pose
            if let Some(new_idx) = remap.map(7) {
                assert!(f.pose_of(new_idx).pos.dist(&winner_pose.pos) < 1e-9);
            }
            assert_eq!(remap.num_new(), 50);
        } else {
            panic!("expected resample");
        }
    }

    #[test]
    fn support_biases_resampling() {
        // two groups of particles with equal observation weights; object
        // support only on group A => group A dominates after resampling.
        let mut f = ReaderFilter::new(100, Pose::identity());
        // manually move half the particles elsewhere
        for i in 50..100 {
            f.particles[i].pose = Pose::new(Point3::new(10.0, 0.0, 0.0), 0.0);
        }
        for i in 0..50 {
            f.add_support(i as u32, 1.0);
        }
        // force resample by setting unequal-but-finite weights with low ESS:
        // concentrate weight on two particles, one in each group
        for p in f.particles.iter_mut() {
            p.log_w = f64::NEG_INFINITY;
        }
        f.particles[0].log_w = (0.5f64).ln();
        f.particles[99].log_w = (0.5f64).ln();
        let mut rng = StdRng::seed_from_u64(7);
        let remap = f.maybe_resample(0.5, &mut rng);
        assert!(remap.is_some());
        let near_origin = f
            .particles()
            .iter()
            .filter(|p| p.pose.pos.x.abs() < 1.0)
            .count();
        assert!(
            near_origin > 90,
            "supported group should dominate, got {near_origin}/100"
        );
    }

    #[test]
    fn sample_index_follows_weights() {
        let mut f = ReaderFilter::new(10, Pose::identity());
        for p in f.particles.iter_mut() {
            p.log_w = f64::NEG_INFINITY;
        }
        f.particles[4].log_w = 0.0;
        let tables = f.tables();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..50 {
            assert_eq!(tables.sample_index(&mut rng), 4);
        }
    }
}
