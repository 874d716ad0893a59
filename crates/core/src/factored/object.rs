//! The per-object side of the factored filter.
//!
//! Each object owns a small particle set; every particle carries a
//! pointer to a reader particle (Fig. 3(b)/(c)). The object's factored
//! weight `w_ti` is kept per particle; estimates and resampling use the
//! *joint* weight — object weight times the pointed-to reader weight —
//! which is exactly what expanding the factorization (Eq. 5) would give.
//!
//! Pointers are only meaningful while the reader particle list is
//! unchanged; the engine refreshes them (by sampling reader indices
//! proportionally to the current reader weights) the first time an
//! object is processed in an epoch. This keeps inactive objects free of
//! bookkeeping — the point of spatial indexing is that they are not
//! touched at all.
//!
//! The object weights are probabilities, kept sum-normalized: a step
//! multiplies each by its particle's read or miss likelihood and
//! divides by the sum, with no `exp` or `ln` per particle. Log space is
//! the fallback for a sum that underflows
//! ([`ObjectFilter::step_fused`]).
//!
//! The weight pass is written for a piecewise sensor, whose cheap and
//! expensive particles interleave in no predictable order: it
//! classifies the whole column first, without a branch on the outcome,
//! compacts the indices that need the expensive line into a list, and
//! pays for that line over the list only
//! ([`ObjectFilter::accumulate_weights`]). Every result keeps the bits
//! of the one-particle-at-a-time computation.

use crate::exec::StepScratch;
use crate::factored::reader::{ReaderFilter, ReaderTables};
use crate::particle::{
    effective_sample_size, log_normalize, systematic_resample, ObjectParticle, ParticleSoa,
    XyBounds,
};
use rand::Rng;
use rfid_geom::{Aabb, Point3, Pose};
use rfid_model::{JointModel, LocationPrior, ReadRateModel};

/// A per-object particle filter.
///
/// Particles live in struct-of-arrays layout ([`ParticleSoa`]): the
/// weight, support, ESS, resample, and moment loops of the step each
/// stream over one or two contiguous `f64` columns, which is what
/// lets them autovectorize. Consumers that want whole particles
/// (checkpointing, the test reference) go through
/// [`iter_particles`](Self::iter_particles) /
/// [`soa`](Self::soa).
#[derive(Debug, Clone)]
pub struct ObjectFilter {
    soa: ParticleSoa,
    /// XY extent of the location columns, recomputed by every method
    /// that changes them (the constructors, `predict`, `respawn_half`,
    /// a resampling step) and never serialized: always
    /// `soa.xy_bounds()`, so a restored filter and the uninterrupted
    /// one hold the same value. Cached because the engine consults it
    /// per candidate per epoch, and scanning the columns there costs as
    /// much as the steps it saves.
    bounds: XyBounds,
    /// Epoch stamp of the last pointer refresh (engine-managed).
    pointer_stamp: u64,
    resample_count: u64,
}

/// What one fused weight/resample/estimate step produced.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// Whether the joint ESS dropped below the threshold and the
    /// particle set was resampled.
    pub resampled: bool,
    /// Posterior mean and per-axis variance under the joint weights.
    pub estimate: (Point3, [f64; 3]),
}

/// Samples a point uniformly over a cone originating at `pose`
/// (§IV-A's sensor-model-based initialization): distance up to `range`,
/// bearing within `± half_angle` of the heading. Area-uniform in the
/// XY plane; `z` is kept at the reader's height (tags share a height in
/// the paper's scenarios).
pub fn sample_cone<R: Rng + ?Sized>(
    pose: &Pose,
    range: f64,
    half_angle: f64,
    rng: &mut R,
) -> Point3 {
    let d = range * rng.gen::<f64>().sqrt();
    let ang = pose.phi + half_angle * (2.0 * rng.gen::<f64>() - 1.0);
    Point3::new(
        pose.pos.x + d * ang.cos(),
        pose.pos.y + d * ang.sin(),
        pose.pos.z,
    )
}

/// Draws a cone sample restricted to the legal object space when a
/// prior is supplied (§V: "shelf information helps restrict the area
/// for location sampling"): uniform over the cone ∩ the legal space,
/// falling back to the raw cone point when the intersection is empty
/// or too small to hit.
pub fn sample_cone_in_prior<P: LocationPrior + ?Sized, R: Rng + ?Sized>(
    pose: &Pose,
    range: f64,
    half_angle: f64,
    prior: Option<&P>,
    rng: &mut R,
) -> Point3 {
    let cone = ConeSampler::new(range, half_angle, prior);
    let trig = [pose.phi.cos(), pose.phi.sin()];
    cone.sample(pose, trig, &cone.legal_box(&pose.pos, trig), rng)
}

/// The one cone sampler behind [`sample_cone_in_prior`], cone
/// initialization and respawn: uniform over the cone ∩ the prior's
/// legal space, by rejection from a box (Devroye 1986, §II.3).
///
/// The box ([`legal_box`](Self::legal_box)) bounds the sector clipped
/// to the x-slab of the prior's
/// [`support_bounds`](LocationPrior::support_bounds), intersected with
/// its y range; in a warehouse that is the strip of shelf the reader
/// faces, so most candidates land (1.2–1.5 per point at the accuracy
/// library's first sightings). A candidate is two
/// uniform draws in the box, kept when it lies in the sector (distance
/// and bearing) and the prior [`contains`](LocationPrior::contains)
/// it. After [`REJECTION_TRIES`] misses — or at once when the box is
/// empty: the reader faces away from the slab, or stands outside the
/// support's z band — the raw [`sample_cone`] point is kept.
struct ConeSampler<'a, P: ?Sized> {
    range: f64,
    half_angle: f64,
    /// `[cos h, sin h]` of the half angle `h`.
    half_trig: [f64; 2],
    prior: Option<(&'a P, Aabb)>,
}

/// Candidates tried before giving up on the prior and keeping the raw
/// cone point.
const REJECTION_TRIES: usize = 30;

impl<'a, P: LocationPrior + ?Sized> ConeSampler<'a, P> {
    fn new(range: f64, half_angle: f64, prior: Option<&'a P>) -> Self {
        Self {
            range,
            half_angle,
            half_trig: [half_angle.cos(), half_angle.sin()],
            prior: prior.map(|p| (p, p.support_bounds())),
        }
    }

    /// `[x0, x1, y0, y1]` bounding the cone at `pos` heading `[cos φ,
    /// sin φ]` within the support (empty: `x0 > x1` or `y0 > y1`). The
    /// extremes of the sector clipped to the x-slab lie among its apex,
    /// its arc ends, where the rays and the arc cross the slab's faces,
    /// and the arc's axis-direction points; the box is padded far above
    /// rounding, so it always covers the exact region.
    fn legal_box(&self, pos: &Point3, [c, s]: [f64; 2]) -> [f64; 4] {
        let in_band = |(_, sup): &&(_, Aabb)| sup.min.z <= pos.z && pos.z <= sup.max.z;
        let Some((_, sup)) = self.prior.as_ref().filter(in_band) else {
            return [1.0, 0.0, 1.0, 0.0];
        };
        let (r, [ch, sh]) = (self.range, self.half_trig);
        // every test below gives way by `pad`: a candidate that rounding
        // puts just outside still counts, so the box only grows
        let pad = 1e-9 * (pos.x.abs() + pos.y.abs() + r);
        let in_cone = |dx: f64, dy: f64| dx * c + dy * s + pad >= (dx * dx + dy * dy).sqrt() * ch;
        let (mut lo, mut hi) = ([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]);
        let mut take = |x: f64, y: f64| {
            if sup.min.x - pad <= x && x <= sup.max.x + pad {
                (lo[0], hi[0]) = (lo[0].min(x), hi[0].max(x));
                (lo[1], hi[1]) = (lo[1].min(y), hi[1].max(y));
            }
        };
        take(pos.x, pos.y);
        // the two rays, at φ ∓ h by angle addition
        for (ca, sa) in [
            (c * ch + s * sh, s * ch - c * sh),
            (c * ch - s * sh, s * ch + c * sh),
        ] {
            take(pos.x + r * ca, pos.y + r * sa);
            for face in [sup.min.x, sup.max.x] {
                let t = (face - pos.x) / ca;
                if (-pad..=r + pad).contains(&t) {
                    take(face, pos.y + t * sa);
                }
            }
        }
        for face in [sup.min.x, sup.max.x] {
            let dx = face - pos.x;
            let dy = (r * r - dx * dx).max(0.0).sqrt();
            for dy in [dy, -dy] {
                if dx.abs() <= r + pad && in_cone(dx, dy) {
                    take(face, pos.y + dy);
                }
            }
        }
        for (ex, ey) in [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)] {
            if in_cone(ex, ey) {
                take(pos.x + r * ex, pos.y + r * ey);
            }
        }
        [
            (lo[0] - pad).max(sup.min.x),
            (hi[0] + pad).min(sup.max.x),
            (lo[1] - pad).max(sup.min.y),
            (hi[1] + pad).min(sup.max.y),
        ]
    }

    fn sample<R: Rng + ?Sized>(
        &self,
        pose: &Pose,
        [c, s]: [f64; 2],
        &[x0, x1, y0, y1]: &[f64; 4],
        rng: &mut R,
    ) -> Point3 {
        if let Some((prior, _)) = self.prior.filter(|_| x0 <= x1 && y0 <= y1) {
            for _ in 0..REJECTION_TRIES {
                let x = x0 + (x1 - x0) * rng.gen::<f64>();
                let y = y0 + (y1 - y0) * rng.gen::<f64>();
                let (dx, dy) = (x - pose.pos.x, y - pose.pos.y);
                let d2 = dx * dx + dy * dy;
                let cand = Point3::new(x, y, pose.pos.z);
                if d2 <= self.range * self.range
                    && dx * c + dy * s >= d2.sqrt() * self.half_trig[0]
                    && prior.contains(&cand)
                {
                    return cand;
                }
            }
        }
        sample_cone(pose, self.range, self.half_angle, rng)
    }

    /// `scratch`'s box cache, one empty slot per reader particle.
    fn fresh_boxes(scratch: &mut StepScratch, n: usize) -> &mut [Option<[f64; 4]>] {
        scratch.cone_boxes.clear();
        scratch.cone_boxes.resize(n, None);
        &mut scratch.cone_boxes
    }

    /// A cone point at reader particle `j`, its box built on first use
    /// into `boxes` ([`fresh_boxes`](Self::fresh_boxes)).
    fn sample_at<R: Rng + ?Sized>(
        &self,
        reader: &ReaderFilter,
        tables: &ReaderTables,
        j: u32,
        boxes: &mut [Option<[f64; 4]>],
        rng: &mut R,
    ) -> Point3 {
        let (pose, trig) = (reader.pose_of(j), tables.trig[j as usize]);
        let bx = boxes[j as usize].get_or_insert_with(|| self.legal_box(&pose.pos, trig));
        self.sample(pose, trig, bx, rng)
    }
}

impl ObjectFilter {
    /// Sensor-model-based initialization: `n` particles sampled from
    /// cones at reader particles (reader particle drawn per-object
    /// particle, proportionally to reader weights), restricted to the
    /// legal object space when `prior` is supplied. `tables` must have
    /// been built from `reader` in its current state; `scratch` holds
    /// the cone's box per reader particle drawn.
    #[allow(clippy::too_many_arguments)] // the cone, the reader and its tables
    pub fn init_from_cone<P: LocationPrior + ?Sized, R: Rng + ?Sized>(
        reader: &ReaderFilter,
        tables: &ReaderTables,
        range: f64,
        half_angle: f64,
        n: usize,
        stamp: u64,
        prior: Option<&P>,
        scratch: &mut StepScratch,
        rng: &mut R,
    ) -> Self {
        debug_assert!(n >= 1, "object filters are never empty");
        let uniform = 1.0 / n as f64;
        let cone = ConeSampler::new(range, half_angle, prior);
        let boxes = ConeSampler::<P>::fresh_boxes(scratch, reader.len());
        let mut soa = ParticleSoa::with_capacity(n);
        for _ in 0..n {
            let j = tables.sample_index(rng);
            soa.push(ObjectParticle {
                loc: cone.sample_at(reader, tables, j, boxes, rng),
                reader_idx: j,
                w: uniform,
            });
        }
        Self::from_soa(soa, stamp, 0)
    }

    /// Builds a filter around particle columns (cone initialization,
    /// decompression, checkpoint restore).
    pub(crate) fn from_soa(soa: ParticleSoa, pointer_stamp: u64, resample_count: u64) -> Self {
        Self {
            bounds: soa.xy_bounds(),
            soa,
            pointer_stamp,
            resample_count,
        }
    }

    /// Rebuilds a filter from checkpointed parts, preserving the
    /// pointer stamp and resample counter exactly — unlike
    /// decompression, which is a fresh start.
    pub fn from_parts(particles: Vec<ObjectParticle>, pointer_stamp: u64, resamples: u64) -> Self {
        debug_assert!(!particles.is_empty(), "object filters are never empty");
        Self::from_soa(ParticleSoa::from_aos(&particles), pointer_stamp, resamples)
    }

    /// The particle columns (struct-of-arrays layout).
    pub fn soa(&self) -> &ParticleSoa {
        &self.soa
    }

    /// The particles, materialized one at a time from the columns —
    /// for consumers (checkpointing, diagnostics, tests) that want
    /// whole `ObjectParticle` values.
    pub fn iter_particles(&self) -> impl Iterator<Item = ObjectParticle> + '_ {
        self.soa.iter()
    }

    /// XY extent of the particle locations (cached; see the field).
    pub fn xy_bounds(&self) -> &XyBounds {
        &self.bounds
    }

    /// Whether any particle lies inside `region` (boundary included,
    /// as [`Aabb::contains`]). A cloud whose XY extent misses the
    /// region is answered from the cached bounds; the rest scan the
    /// coordinate columns.
    pub(crate) fn any_particle_in(&self, region: &Aabb) -> bool {
        let b = &self.bounds;
        // NaN bounds fail all four tests and take the scan
        if b.max[0] < region.min.x
            || b.min[0] > region.max.x
            || b.max[1] < region.min.y
            || b.min[1] > region.max.y
        {
            return false;
        }
        (0..self.soa.len()).any(|i| region.contains(&self.soa.loc(i)))
    }

    /// Epoch stamp of the last pointer refresh (checkpointing).
    pub(crate) fn pointer_stamp(&self) -> u64 {
        self.pointer_stamp
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.soa.len()
    }

    /// Whether the filter has no particles. Never true in practice —
    /// every construction site `debug_assert!`s non-emptiness — but the
    /// answer comes from the particle set, not a hardcoded constant.
    pub fn is_empty(&self) -> bool {
        self.soa.is_empty()
    }

    /// Number of resampling events (diagnostics).
    pub(crate) fn resample_count(&self) -> u64 {
        self.resample_count
    }

    /// Refreshes reader pointers if they are older than `stamp`:
    /// each particle re-draws a reader index proportionally to the
    /// current reader weights. Allocation-free: one `tables` build per
    /// epoch serves every active object, since the reader weights are
    /// frozen while objects step.
    pub fn refresh_pointers<R: Rng + ?Sized>(
        &mut self,
        tables: &ReaderTables,
        stamp: u64,
        rng: &mut R,
    ) {
        if self.pointer_stamp == stamp {
            return;
        }
        for r in &mut self.soa.reader_idx {
            *r = tables.sample_index(rng);
        }
        self.pointer_stamp = stamp;
    }

    /// Applies a reader remap after reader resampling within the same
    /// epoch (pointers stay aligned without a full refresh). A pointer
    /// whose ancestor died takes `replacement()`, called in particle
    /// order: the single-process engine draws it from its RNG, and a
    /// cluster worker returns the values its head drew from the same
    /// stream, so remote remaps stay bit-identical.
    pub(crate) fn apply_reader_remap_with(
        &mut self,
        remap: &crate::factored::reader::ReaderRemap,
        mut replacement: impl FnMut() -> u32,
    ) {
        for r in &mut self.soa.reader_idx {
            *r = match remap.map(*r) {
                Some(new) => new,
                // ancestor died out: re-point uniformly (post-resample
                // reader weights are uniform anyway)
                None => replacement(),
            };
        }
    }

    /// Proposal step: each particle moves per the object location model
    /// (stays with probability `1 - α`, otherwise relocates uniformly
    /// under the prior).
    ///
    /// Relocation is only proposed on epochs where the object's tag was
    /// *read*: the paper's model carries no information about where a
    /// moved object went ("the new object location will be eventually
    /// inferred from the readings from that location"), so relocated
    /// particles are useful exactly when a reading is available to
    /// weight them — a relocation hypothesis far from the reader is
    /// killed by the read likelihood immediately. Proposing relocations
    /// on miss epochs would inject particles that a (near-)zero far
    /// -field read rate can never cull, and in a large warehouse a
    /// single such stray drags the posterior mean by feet.
    pub fn predict<S: ReadRateModel, P: LocationPrior + ?Sized, R: Rng + ?Sized>(
        &mut self,
        model: &JointModel<S>,
        prior: &P,
        read: bool,
        rng: &mut R,
    ) {
        let alpha = model.object.alpha();
        if alpha <= 0.0 || !read {
            return;
        }
        for i in 0..self.soa.len() {
            let loc = self.soa.loc(i);
            let next = model.object.sample_next(&loc, prior, rng);
            self.soa.set_loc(i, next);
        }
        self.bounds = self.soa.xy_bounds();
    }

    /// The object step of the hot path: weight → (maybe) resample →
    /// estimate over one set of joint probabilities, with every buffer
    /// supplied by the caller and **zero heap allocations** once
    /// `scratch` has warmed up.
    ///
    /// No `exp` or `ln` per particle: each weight times its likelihood
    /// ([`accumulate_weights`](Self::accumulate_weights)), divided by
    /// the sum, is the new object factor; that times the reader weights
    /// `tables.probs`, divided by the sum, is the joint probability of
    /// Eq. 5's expansion, shared by the support staging, the ESS
    /// decision, the resampler and the moment estimate. Resampling
    /// carries reader pointers along with the survivors — the factored
    /// analogue of joint resampling — and leaves uniform object weights.
    /// A sum that is zero or not finite (every product underflowed, or
    /// a read no particle can see) sends its product to log space
    /// (`reweigh_in_log_space`, `fill_joint`): the step's only `exp`
    /// and `ln`.
    ///
    /// `tests/fused_equivalence.rs` pins the particle states, resample
    /// decisions and estimates bit-for-bit against a naive allocating
    /// implementation of the same arithmetic.
    ///
    /// `tables` must have been built from `reader` in its current state
    /// ([`ReaderFilter::tables`]). Reader support is *staged* into
    /// `support` (a zeroed, `reader.len()`-sized slice) rather than
    /// deposited into the reader directly, so the caller merges it —
    /// locally, or in global tag order across cluster workers.
    #[allow(clippy::too_many_arguments)] // the step's full input set
    pub fn step_fused<S: ReadRateModel, R: Rng + ?Sized>(
        &mut self,
        model: &JointModel<S>,
        reader: &ReaderFilter,
        tables: &ReaderTables,
        read: bool,
        ess_frac: f64,
        scratch: &mut StepScratch,
        support: &mut [f64],
        rng: &mut R,
    ) -> StepOutcome {
        debug_assert_eq!(support.len(), reader.len());
        debug_assert_eq!(tables.probs.len(), reader.len());
        let n = self.soa.len();

        // -- weight (w_ti of Eq. 5) and normalize ----------------------
        self.accumulate_weights(&model.sensor, reader, tables, read, scratch);
        let sum: f64 = scratch.incr[..n].iter().sum();
        if sum > 0.0 && sum.is_finite() {
            for (w, &q) in self.soa.w.iter_mut().zip(&scratch.incr) {
                *w = q / sum;
            }
        } else {
            self.reweigh_in_log_space(&model.sensor, reader, tables, read, scratch);
        }

        // -- joint probabilities: object factor × reader factor ---------
        Self::joint_into(&self.soa, &tables.probs, reader, &mut scratch.probs);

        // stage per-reader support (probability space)
        for (&r, &p) in self.soa.reader_idx.iter().zip(scratch.probs.iter()) {
            support[r as usize] += p;
        }

        // -- resample on low joint ESS, in place -----------------------
        let resampled = effective_sample_size(&scratch.probs) < ess_frac * n as f64;
        if resampled {
            systematic_resample(
                &scratch.probs,
                n,
                &mut scratch.ancestors,
                &mut scratch.incr,
                rng,
            );
            self.soa.gather(
                &scratch.ancestors,
                1.0 / n as f64,
                &mut scratch.incr,
                &mut scratch.pending,
            );
            self.resample_count += 1;
            // survivors only: the extent may have shrunk
            self.bounds = self.soa.xy_bounds();
            Self::joint_into(&self.soa, &tables.probs, reader, &mut scratch.probs);
        }

        // -- estimate under the current joint weights ------------------
        let estimate = Self::moments(&self.soa, &scratch.probs);
        StepOutcome {
            resampled,
            estimate,
        }
    }

    /// The joint probabilities into `probs`: each object weight times
    /// its reader particle's weight in `reader_probs`, divided by their
    /// sum, or by [`fill_joint`](Self::fill_joint) when that sum is zero
    /// or not finite.
    fn joint_into(
        soa: &ParticleSoa,
        reader_probs: &[f64],
        reader: &ReaderFilter,
        probs: &mut Vec<f64>,
    ) {
        probs.clear();
        probs.extend(
            soa.w
                .iter()
                .zip(&soa.reader_idx)
                .map(|(&w, &r)| w * reader_probs[r as usize]),
        );
        let sum: f64 = probs.iter().sum();
        if sum > 0.0 && sum.is_finite() {
            for p in probs.iter_mut() {
                *p /= sum;
            }
        } else {
            Self::fill_joint(soa, reader, probs);
        }
    }

    /// The weights when their products with the likelihoods sum to zero
    /// or not finite: `ln w` plus the sensor's log likelihood,
    /// log-normalized and exponentiated; uniform if every one is `−inf`
    /// (the observation rules out every particle).
    fn reweigh_in_log_space<S: ReadRateModel>(
        &mut self,
        sensor: &S,
        reader: &ReaderFilter,
        tables: &ReaderTables,
        read: bool,
        scratch: &mut StepScratch,
    ) {
        let (soa, joint) = (&mut self.soa, &mut scratch.incr);
        joint.clear();
        joint.extend((0..soa.len()).map(|i| {
            let r = soa.reader_idx[i];
            let [c, s] = tables.trig[r as usize];
            let ll = sensor.log_likelihood_pose(&reader.pose_of(r).pos, c, s, &soa.loc(i), read);
            soa.w[i].ln() + ll
        }));
        if log_normalize(joint).is_some() {
            for (w, &lw) in soa.w.iter_mut().zip(joint.iter()) {
                *w = lw.exp();
            }
        } else {
            soa.w.fill(1.0 / joint.len() as f64);
        }
    }

    /// The weight pass: returns (in `scratch.incr`) every particle's
    /// likelihood of the reading outcome seen from the reader particle
    /// it points at — the bits of `sensor.likelihood_pose(pose_of(r),
    /// trig, loc, read)` — times its weight, which it leaves alone.
    ///
    /// Under a piecewise sensor the expensive particles sit in
    /// unpredictable order among cheap ones, so the pass branches on no
    /// classification:
    ///
    /// 1. *gather* each particle's reader position and heading trig
    ///    into columns;
    /// 2. *classify* every particle ([`ReadRateModel::classify_pose`])
    ///    from columns alone — straight-line arithmetic the compiler
    ///    vectorizes — writing its constant, its distance and bearing
    ///    cosine, and whether the classifier deferred it;
    /// 3. *compact* the deferred indices into a list: every index is
    ///    written at the list's end, which then grows by the verdict;
    /// 4. compute the *exact line* over that list only;
    /// 5. *multiply* by the weights.
    ///
    /// A model that keeps [`ReadRateModel::classify_pose`]'s default
    /// never defers: its classify pass is the whole computation and the
    /// list stays empty.
    pub fn accumulate_weights<'s, S: ReadRateModel>(
        &self,
        sensor: &S,
        reader: &ReaderFilter,
        tables: &ReaderTables,
        read: bool,
        scratch: &'s mut StepScratch,
    ) -> &'s [f64] {
        let n = self.soa.len();
        let StepScratch {
            incr,
            pending,
            cols,
            ..
        } = scratch;
        incr.resize(n, 0.0);
        pending.resize(n, 0);
        for col in cols.iter_mut() {
            col.resize(n, 0.0);
        }
        let [px, py, pz, cph, sph, ds, cs] = cols;
        for (i, &r) in self.soa.reader_idx.iter().enumerate() {
            let p = reader.pose_of(r).pos;
            let [c, s] = tables.trig[r as usize];
            (px[i], py[i], pz[i], cph[i], sph[i]) = (p.x, p.y, p.z, c, s);
        }
        // every column sliced to `n`: no bounds check left in the loop
        let (xs, ys, zs) = (&self.soa.xs[..n], &self.soa.ys[..n], &self.soa.zs[..n]);
        let (px, py, pz, cph, sph) = (&px[..n], &py[..n], &pz[..n], &cph[..n], &sph[..n]);
        let (incr, ds, cs, verdict) = (
            &mut incr[..n],
            &mut ds[..n],
            &mut cs[..n],
            &mut pending[..n],
        );
        for i in 0..n {
            let pos = Point3::new(px[i], py[i], pz[i]);
            let loc = Point3::new(xs[i], ys[i], zs[i]);
            let k = sensor.classify_pose(&pos, cph[i], sph[i], &loc, read);
            incr[i] = k.value;
            ds[i] = k.d;
            cs[i] = k.c;
            verdict[i] = u32::from(k.exact);
        }
        // in place: the list's end never passes the verdict being read
        let mut m = 0;
        for i in 0..n {
            let exact = verdict[i];
            verdict[m] = i as u32;
            m += exact as usize;
        }
        for &i in &verdict[..m] {
            let i = i as usize;
            incr[i] = sensor.likelihood_dt(ds[i], cs[i].acos(), read);
        }
        for (q, &w) in incr.iter_mut().zip(&self.soa.w) {
            *q *= w;
        }
        incr
    }

    /// Posterior mean and per-axis variance given probability-space
    /// joint weights aligned with the particle columns: one sweep for
    /// the three means, one for the three variances. Each axis still
    /// sums only its own products, in index order, so the result bits
    /// match a separate pass per axis.
    fn moments(soa: &ParticleSoa, w: &[f64]) -> (Point3, [f64; 3]) {
        let n = w.len();
        let (xs, ys, zs) = (&soa.xs[..n], &soa.ys[..n], &soa.zs[..n]);
        let mut mean = Point3::origin();
        for i in 0..n {
            mean.x += w[i] * xs[i];
            mean.y += w[i] * ys[i];
            mean.z += w[i] * zs[i];
        }
        let mut var = [0.0f64; 3];
        for i in 0..n {
            var[0] += w[i] * (xs[i] - mean.x) * (xs[i] - mean.x);
            var[1] += w[i] * (ys[i] - mean.y) * (ys[i] - mean.y);
            var[2] += w[i] * (zs[i] - mean.z) * (zs[i] - mean.z);
        }
        (mean, var)
    }

    /// Effective sample size of the (normalized) object-factor
    /// weights, `1 / Σ w²`.
    pub(crate) fn object_ess(&self) -> f64 {
        effective_sample_size(&self.soa.w)
    }

    /// The joint (object factor × reader factor) weights by the
    /// log-space route, in `probs`: `ln w` plus the reader's log weight,
    /// normalized with log-sum-exp, exponentiated. No product can
    /// underflow here — the fallback of [`joint_into`](Self::joint_into).
    fn fill_joint(soa: &ParticleSoa, reader: &ReaderFilter, probs: &mut Vec<f64>) {
        probs.clear();
        probs.extend(
            soa.w
                .iter()
                .zip(soa.reader_idx.iter())
                .map(|(&w, &r)| w.ln() + reader.log_weight_of(r)),
        );
        log_normalize(probs);
        for p in probs.iter_mut() {
            *p = p.exp();
        }
    }

    /// The particle cloud as `(weight, location)` pairs under joint
    /// weights — the input to belief compression — built into
    /// caller-owned buffers (`out` is cleared first; no allocation once
    /// they are warm). The reader's weights are exponentiated here, one
    /// `exp` per reader particle: the sweep that compresses runs after
    /// the reader has moved on from the epoch's tables.
    pub fn weighted_cloud_into(
        &self,
        reader: &ReaderFilter,
        scratch: &mut StepScratch,
        out: &mut Vec<(f64, Point3)>,
    ) {
        let StepScratch {
            reader_probs,
            probs,
            ..
        } = scratch;
        reader_probs.clear();
        reader_probs.extend(reader.particles().iter().map(|p| p.log_w.exp()));
        Self::joint_into(&self.soa, reader_probs, reader, probs);
        out.clear();
        out.extend(
            scratch
                .probs
                .iter()
                .zip(self.soa.iter())
                .map(|(&w, p)| (w, p.loc)),
        );
    }

    /// §IV-A re-detection handling: keeps the better half of the
    /// particles and re-initializes the other half in a cone at the
    /// current reader, then resets weights to uniform so "over time
    /// weighting and resampling will favor the particles close to the
    /// object's true location".
    #[allow(clippy::too_many_arguments)] // the cone, the reader and its tables
    pub(crate) fn respawn_half<P: LocationPrior + ?Sized, R: Rng + ?Sized>(
        &mut self,
        reader: &ReaderFilter,
        tables: &ReaderTables,
        range: f64,
        half_angle: f64,
        prior: Option<&P>,
        scratch: &mut StepScratch,
        rng: &mut R,
    ) {
        let n = self.soa.len();
        Self::joint_into(&self.soa, &tables.probs, reader, &mut scratch.probs);
        let joint = &scratch.probs;
        // order particle indices by joint weight, worst first
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            joint[a]
                .partial_cmp(&joint[b])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let uniform = 1.0 / n as f64;
        let cone = ConeSampler::new(range, half_angle, prior);
        let boxes = ConeSampler::<P>::fresh_boxes(scratch, reader.len());
        for &i in order.iter().take(n / 2) {
            let j = tables.sample_index(rng);
            self.soa.set(
                i,
                ObjectParticle {
                    loc: cone.sample_at(reader, tables, j, boxes, rng),
                    reader_idx: j,
                    w: uniform,
                },
            );
        }
        for &i in order.iter().skip(n / 2) {
            self.soa.w[i] = uniform;
        }
        self.bounds = self.soa.xy_bounds();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No prior restriction (tests exercise the raw cone).
    const NO_PRIOR: Option<&BoxPrior> = None;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rfid_geom::{Aabb, Vec3};
    use rfid_model::{BoxPrior, JointModel, ModelParams};

    fn model() -> JointModel {
        JointModel::new(ModelParams::default_warehouse())
    }

    fn reader_at(pose: Pose, n: usize) -> ReaderFilter {
        ReaderFilter::new(n, pose)
    }

    fn prior() -> BoxPrior {
        BoxPrior::new(Aabb::new(
            Point3::new(-10.0, -10.0, 0.0),
            Point3::new(10.0, 10.0, 0.0),
        ))
    }

    /// Cone initialization without a prior, tables built on the spot.
    fn init(
        reader: &ReaderFilter,
        range: f64,
        half_angle: f64,
        n: usize,
        rng: &mut StdRng,
    ) -> ObjectFilter {
        ObjectFilter::init_from_cone(
            reader,
            &reader.tables(),
            range,
            half_angle,
            n,
            0,
            NO_PRIOR,
            &mut StepScratch::default(),
            rng,
        )
    }

    /// One object step the way the engine runs it: tables built from
    /// the current reader, staged support merged back into it.
    fn step(
        f: &mut ObjectFilter,
        m: &JointModel,
        reader: &mut ReaderFilter,
        read: bool,
        ess_frac: f64,
        rng: &mut StdRng,
    ) -> StepOutcome {
        let mut support = vec![0.0; reader.len()];
        let out = f.step_fused(
            m,
            reader,
            &reader.tables(),
            read,
            ess_frac,
            &mut StepScratch::default(),
            &mut support,
            rng,
        );
        reader.merge_support(&support);
        out
    }

    #[test]
    fn cone_samples_inside_cone() {
        let mut rng = StdRng::seed_from_u64(1);
        let pose = Pose::new(Point3::new(1.0, 2.0, 0.0), 0.3);
        for _ in 0..500 {
            let p = sample_cone(&pose, 4.0, 0.5, &mut rng);
            let (d, th) = pose.range_bearing(&p);
            assert!(d <= 4.0 + 1e-9);
            assert!(th <= 0.5 + 1e-9, "theta {th}");
        }
    }

    #[test]
    fn init_spreads_particles_in_front_of_reader() {
        let mut rng = StdRng::seed_from_u64(2);
        let reader = reader_at(Pose::identity(), 20);
        let f = init(&reader, 4.0, 0.6, 1000, &mut rng);
        assert_eq!(f.len(), 1000);
        // all particles forward of the reader
        for p in f.iter_particles() {
            assert!(p.loc.x >= -1e-9, "behind the reader: {:?}", p.loc);
        }
    }

    #[test]
    fn repeated_reads_from_two_poses_triangulate() {
        // Fig. 2(b): an object read from two reader positions gets its
        // particles concentrated in the intersection of the two cones.
        let mut rng = StdRng::seed_from_u64(3);
        let m = model();
        let truth = Point3::new(2.0, 1.0, 0.0);
        let pose1 = Pose::new(Point3::new(0.0, 0.0, 0.0), 0.0);
        let pose2 = Pose::new(Point3::new(0.0, 2.0, 0.0), 0.0);

        let mut reader = reader_at(pose1, 50);
        let mut f = init(&reader, 6.0, 1.0, 2000, &mut rng);
        let (e1, _) = step(&mut f, &m, &mut reader, true, 0.0, &mut rng).estimate;
        let err1 = e1.dist_xy(&truth);

        // second reading from pose2
        let mut reader2 = reader_at(pose2, 50);
        f.refresh_pointers(&reader2.tables(), 1, &mut rng);
        let (e2, _) = step(&mut f, &m, &mut reader2, true, 0.9, &mut rng).estimate;
        let err2 = e2.dist_xy(&truth);
        assert!(
            err2 < err1 + 0.15,
            "second reading should help or hold: {err1} -> {err2}"
        );
        // and the cloud tightened along y (the second pose disambiguates y)
        assert!(e2.dist_xy(&truth) < 1.5, "err after two reads {err2}");
    }

    #[test]
    fn misses_push_particles_away_from_reader() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = model();
        let mut reader = reader_at(Pose::identity(), 20);
        let mut f = init(&reader, 6.0, 1.0, 2000, &mut rng);
        let mut cloud = Vec::new();
        f.weighted_cloud_into(&reader, &mut StepScratch::default(), &mut cloud);
        let before = cloud.iter().fold(Point3::origin(), |m, &(w, p)| {
            m + (p - Point3::origin()) * w
        });
        let mut after = before;
        for _ in 0..5 {
            (after, _) = step(&mut f, &m, &mut reader, false, 0.0, &mut rng).estimate;
        }
        assert!(
            after.dist(&Point3::origin()) > before.dist(&Point3::origin()),
            "misses should push the estimate outward: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn resample_concentrates_on_heavy_particles() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut reader = reader_at(Pose::identity(), 10);
        let particles: Vec<ObjectParticle> = (0..100)
            .map(|i| ObjectParticle {
                loc: Point3::new(i as f64, 0.0, 0.0),
                reader_idx: 0,
                w: if i == 42 { 1.0 } else { (-60f64).exp() },
            })
            .collect();
        let mut f = ObjectFilter::from_parts(particles, 0, 0);
        // a miss barely moves weights this far from the reader, so the
        // step resamples on the degeneracy it was handed
        assert!(step(&mut f, &model(), &mut reader, false, 0.5, &mut rng).resampled);
        assert_eq!(f.resample_count(), 1);
        let at_42 = f
            .iter_particles()
            .filter(|p| (p.loc.x - 42.0).abs() < 1e-9)
            .count();
        assert!(
            at_42 > 95,
            "resample should clone the heavy particle, got {at_42}"
        );
    }

    #[test]
    fn respawn_half_moves_low_weight_half() {
        let mut rng = StdRng::seed_from_u64(6);
        let reader = reader_at(Pose::new(Point3::new(100.0, 100.0, 0.0), 0.0), 10);
        let particles: Vec<ObjectParticle> = (0..100)
            .map(|i| ObjectParticle {
                loc: Point3::new(0.0, i as f64 * 0.01, 0.0),
                reader_idx: 0,
                w: if i < 50 {
                    (-0.1f64).exp()
                } else {
                    (-30f64).exp()
                },
            })
            .collect();
        let mut f = ObjectFilter::from_parts(particles, 0, 0);
        f.respawn_half(
            &reader,
            &reader.tables(),
            4.0,
            0.6,
            NO_PRIOR,
            &mut StepScratch::default(),
            &mut rng,
        );
        // half the particles moved near the (distant) reader
        let near_reader = f
            .iter_particles()
            .filter(|p| p.loc.dist(&Point3::new(100.0, 100.0, 0.0)) < 6.0)
            .count();
        assert_eq!(near_reader, 50);
        // the surviving half is the previously-heavy half
        let near_origin = f
            .iter_particles()
            .filter(|p| p.loc.x.abs() < 1.0 && p.loc.y < 0.6)
            .count();
        assert_eq!(near_origin, 50);
    }

    #[test]
    fn bounds_follow_the_columns_through_every_mutation() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = model();
        let mut reader = reader_at(Pose::identity(), 10);
        let mut f = init(&reader, 6.0, 1.0, 300, &mut rng);
        assert_eq!(*f.xy_bounds(), f.soa().xy_bounds());
        f.predict(&m, &prior(), true, &mut rng);
        assert_eq!(*f.xy_bounds(), f.soa().xy_bounds());
        let far = reader_at(Pose::new(Point3::new(50.0, 50.0, 0.0), 0.0), 10);
        f.respawn_half(
            &far,
            &far.tables(),
            4.0,
            0.6,
            NO_PRIOR,
            &mut StepScratch::default(),
            &mut rng,
        );
        assert_eq!(*f.xy_bounds(), f.soa().xy_bounds());
        assert!(f.xy_bounds().max[0] > 40.0, "half the cloud moved");
        // a resampling step keeps survivors only
        assert!(step(&mut f, &m, &mut reader, true, 1.0, &mut rng).resampled);
        assert_eq!(*f.xy_bounds(), f.soa().xy_bounds());
        let again = ObjectFilter::from_parts(f.iter_particles().collect(), 3, 1);
        assert_eq!(again.xy_bounds(), f.xy_bounds(), "a restored filter agrees");
    }

    #[test]
    fn any_particle_in_equals_the_particle_scan() {
        let mut rng = StdRng::seed_from_u64(12);
        let reader = reader_at(Pose::identity(), 10);
        let f = init(&reader, 4.0, 0.6, 200, &mut rng);
        let b = *f.xy_bounds();
        let boxed = |x0: f64, y0: f64, x1: f64, y1: f64| {
            Aabb::new(Point3::new(x0, y0, -1.0), Point3::new(x1, y1, 1.0))
        };
        let regions = [
            boxed(-9.0, -9.0, 9.0, 9.0),
            boxed(b.max[0] + 0.1, -9.0, b.max[0] + 1.0, 9.0),
            // touching the extent exactly: the boundary counts
            boxed(b.max[0], -9.0, b.max[0] + 1.0, 9.0),
            boxed(-9.0, b.min[1] - 1.0, 9.0, b.min[1]),
            // overlapping the extent's corner, where the cone is empty
            boxed(b.min[0], b.max[1] - 1e-3, b.min[0] + 1e-3, b.max[1]),
            // right XY, wrong height
            Aabb::new(Point3::new(-9.0, -9.0, 5.0), Point3::new(9.0, 9.0, 6.0)),
        ];
        for r in &regions {
            let scan = f.iter_particles().any(|p| r.contains(&p.loc));
            assert_eq!(f.any_particle_in(r), scan, "{r:?}");
        }
        // a NaN coordinate poisons the bounds; the scan still answers
        let mut particles: Vec<ObjectParticle> = f.iter_particles().collect();
        particles[7].loc.x = f64::NAN;
        let g = ObjectFilter::from_parts(particles, 0, 0);
        assert!(g.xy_bounds().min[0].is_nan() && g.xy_bounds().max[1].is_nan());
        assert!(g.any_particle_in(&regions[0]));
        assert!(!g.any_particle_in(&regions[1]));
    }

    #[test]
    fn pointer_refresh_is_idempotent_per_stamp() {
        let mut rng = StdRng::seed_from_u64(7);
        let reader = reader_at(Pose::identity(), 10);
        let mut f = init(&reader, 4.0, 0.5, 100, &mut rng);
        f.refresh_pointers(&reader.tables(), 5, &mut rng);
        let ptrs: Vec<u32> = f.iter_particles().map(|p| p.reader_idx).collect();
        f.refresh_pointers(&reader.tables(), 5, &mut rng); // same stamp: no-op
        let ptrs2: Vec<u32> = f.iter_particles().map(|p| p.reader_idx).collect();
        assert_eq!(ptrs, ptrs2);
    }

    #[test]
    fn predict_with_zero_alpha_is_noop() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut params = ModelParams::default_warehouse();
        params.object.alpha = 0.0;
        let m = JointModel::new(params);
        let reader = reader_at(Pose::identity(), 5);
        let mut f = init(&reader, 4.0, 0.5, 50, &mut rng);
        let before: Vec<Point3> = f.iter_particles().map(|p| p.loc).collect();
        f.predict(&m, &prior(), true, &mut rng);
        let after: Vec<Point3> = f.iter_particles().map(|p| p.loc).collect();
        assert_eq!(before.len(), after.len());
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b, a);
        }
    }

    #[test]
    fn weight_deposits_support_on_reader() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = model();
        let mut reader = reader_at(Pose::identity(), 10);
        let mut f = init(&reader, 4.0, 0.5, 100, &mut rng);
        step(&mut f, &m, &mut reader, true, 0.0, &mut rng);
        let total: f64 = reader.support.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "support mass {total}");
    }

    #[test]
    fn remap_reassigns_dead_pointers() {
        let mut rng = StdRng::seed_from_u64(10);
        let m = model();
        let mut reader = reader_at(Pose::identity(), 20);
        let mut f = init(&reader, 4.0, 0.5, 200, &mut rng);
        // degenerate reader weights to force a resample
        reader.predict(&m, Some(Vec3::zero()), None, &mut rng);
        for p in reader.particles.iter_mut() {
            p.log_w = -60.0;
        }
        reader.particles[3].log_w = 0.0;
        let remap = reader.maybe_resample(0.5, &mut rng).expect("resample");
        f.apply_reader_remap_with(&remap, || rng.gen_range(0..remap.num_new()));
        for p in f.iter_particles() {
            assert!(p.reader_idx < remap.num_new());
        }
    }
}
