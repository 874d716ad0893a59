//! Particle types and weight arithmetic shared by every filter variant.
//!
//! Reader particles (and the basic filter's joint particles) carry log
//! weights: the reader update multiplies a location-report likelihood
//! and many shelf-tag likelihoods, and log-sum-exp normalizes them.
//! Object particles carry sum-normalized probabilities — the factor
//! `w_ti` of Eq. 5 itself — because the object step multiplies in one
//! likelihood per epoch and normalizes at once: it pays no `exp` or
//! `ln` per particle, and falls back to log space only when a product
//! underflows. Resampling is *systematic* (one uniform draw, `n` evenly
//! spaced pointers), the standard low-variance scheme.

use rand::Rng;
use rfid_geom::{Point3, Pose};

/// A hypothesis about the reader pose, with a factored log weight
/// (`w_rt` in Eq. 5).
#[derive(Debug, Clone, Copy)]
pub struct ReaderParticle {
    pub pose: Pose,
    pub log_w: f64,
}

/// A hypothesis about one object's location, with a pointer to the
/// reader particle it was weighted against (Fig. 3(b)) and a factored
/// weight (`w_ti` in Eq. 5).
#[derive(Debug, Clone, Copy)]
pub struct ObjectParticle {
    pub loc: Point3,
    /// Index into the reader particle list.
    pub reader_idx: u32,
    /// The factored weight in probability space; an object's weights
    /// sum to one.
    pub w: f64,
}

/// Normalizes log weights in place so that `sum(exp(w)) == 1`.
/// Returns the log normalizer (useful as an incremental evidence
/// estimate). All `-inf` weights (impossible particles) stay `-inf`;
/// if *every* weight is `-inf` the weights are reset to uniform and
/// `None` is returned (total particle depletion).
pub fn log_normalize(log_w: &mut [f64]) -> Option<f64> {
    let max = log_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        let u = -(log_w.len() as f64).ln();
        for w in log_w.iter_mut() {
            *w = u;
        }
        return None;
    }
    let sum: f64 = log_w.iter().map(|w| (w - max).exp()).sum();
    let log_z = max + sum.ln();
    for w in log_w.iter_mut() {
        *w -= log_z;
    }
    Some(log_z)
}

/// Effective sample size of normalized probability-space weights:
/// `1 / sum(w_i^2)`. Ranges from 1 (degenerate) to `n` (uniform).
///
/// # Contract
///
/// The input **must** be normalized (`sum(w) == 1`); on unnormalized
/// input the result is meaningless — it silently scales with the square
/// of the stray normalizer. The contract is checked with a
/// `debug_assert!` so debug/test builds catch violations while release
/// builds pay nothing.
pub(crate) fn effective_sample_size(probs: &[f64]) -> f64 {
    debug_assert!(
        probs.is_empty() || (probs.iter().sum::<f64>() - 1.0).abs() < 1e-6,
        "effective_sample_size requires normalized weights"
    );
    let sum_sq: f64 = probs.iter().map(|p| p * p).sum();
    if sum_sq > 0.0 {
        1.0 / sum_sq
    } else {
        0.0
    }
}

/// Systematic resampling: writes into `ancestors` (resized to `n`) the
/// `n` ancestor indices drawn from the categorical distribution given
/// by normalized probability-space weights — one uniform draw, `n`
/// evenly spaced pointers, so the indices come out ascending. `sums`
/// is the caller's scratch; nothing allocates once both are warm.
///
/// The plain loop advances `i` while `cum + probs[i] < u` (and a later
/// index exists), then takes `i`; where that stops depends on the
/// weights, so its inner `while` mispredicts about once per pointer.
/// Here the running sums and the pointers are accumulated first, in
/// the plain loop's order and bits, and each pointer advances by the
/// leading run of passes among the next `PROBE` tests, made at once:
/// only a run of `PROBE` or more takes the branch again
/// (`step_components/systematic_resample/1000`: 13.2 µs plain, 10.4 µs
/// here; one test per round, with no branch at all, 13.7 µs, because
/// its rounds form one load-compare chain). `tests/resampler_prop.rs`
/// pins the ancestors and the RNG state to the plain loop.
pub fn systematic_resample<R: Rng + ?Sized>(
    probs: &[f64],
    n: usize,
    ancestors: &mut Vec<u32>,
    sums: &mut Vec<f64>,
    rng: &mut R,
) {
    debug_assert!(!probs.is_empty());
    let last = probs.len() - 1;
    let step = 1.0 / n as f64;
    let mut u = rng.gen::<f64>() * step;
    let mut cum = 0.0;
    // `cums[j] < u` is the plain loop's test for advancing past `j`:
    // its `cum + probs[j]` below the last index, and +inf (never
    // advance) from the last index on, padded for the widest probe
    sums.clear();
    sums.extend(probs[..last].iter().map(|p| {
        cum += p;
        cum
    }));
    sums.extend([f64::INFINITY; PROBE]);
    sums.extend((0..n).map(|_| {
        let at = u;
        u += step;
        at
    }));
    let (cums, pointers) = sums.split_at(last + PROBE);
    ancestors.clear();
    ancestors.resize(n, 0);
    let mut i = 0usize;
    for (a, &u) in ancestors.iter_mut().zip(pointers) {
        loop {
            // the next `PROBE` tests at once; the leading run of passes
            // is how far the plain loop advances
            let c = &cums[i..i + PROBE];
            let mut run = true;
            let mut adv = 0;
            for &s in c {
                run &= s < u;
                adv += usize::from(run);
            }
            i += adv;
            if !run {
                break;
            }
        }
        *a = i as u32;
    }
}

/// Advance tests [`systematic_resample`] makes per probe (on the same
/// row 2 measured no faster, 8 slower).
const PROBE: usize = 4;

/// [`effective_sample_size`] over an iterator of normalized log
/// weights (the reader filter's), as `1 / sum(exp(2 w_i))` — same
/// `debug_assert!`-checked normalization contract, without
/// materializing a buffer.
pub(crate) fn effective_sample_size_iter<I: Iterator<Item = f64> + Clone>(log_w: I) -> f64 {
    debug_assert!(
        {
            let mut probe = log_w.clone().map(f64::exp).peekable();
            probe.peek().is_none() || (probe.sum::<f64>() - 1.0).abs() < 1e-6
        },
        "effective_sample_size_iter requires normalized log weights"
    );
    let sum_sq: f64 = log_w.map(|w| (2.0 * w).exp()).sum();
    if sum_sq > 0.0 {
        1.0 / sum_sq
    } else {
        0.0
    }
}

/// In-place [`log_normalize`] over a projected weight field — identical
/// arithmetic (including the total-depletion uniform reset) applied
/// directly to a particle array instead of a collected buffer. The one
/// implementation both filters' hot paths normalize through.
pub(crate) fn log_normalize_by<T>(
    items: &mut [T],
    get: impl Fn(&T) -> f64,
    mut set: impl FnMut(&mut T, f64),
) {
    let max = items.iter().map(&get).fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        let u = -(items.len() as f64).ln();
        for it in items.iter_mut() {
            set(it, u);
        }
        return;
    }
    let sum: f64 = items.iter().map(|it| (get(it) - max).exp()).sum();
    let log_z = max + sum.ln();
    for it in items.iter_mut() {
        let w = get(it) - log_z;
        set(it, w);
    }
}

/// The XY extent of a particle cloud — an object's
/// ([`ParticleSoa::xy_bounds`]) or the reader's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XyBounds {
    /// Smallest `[x, y]`.
    pub min: [f64; 2],
    /// Largest `[x, y]`.
    pub max: [f64; 2],
}

impl XyBounds {
    /// The extent of the points `(xs[i], ys[i])`. A NaN or infinite
    /// coordinate anywhere makes all four bounds NaN (`f64::min`/`max`
    /// would skip it), and a NaN bound fails every comparison made
    /// against it: whoever asks "is the cloud clear of this region?" is
    /// told no.
    pub(crate) fn of(xs: &[f64], ys: &[f64]) -> Self {
        let ([x0, x1], [y0, y1]) = (column_extent(xs), column_extent(ys));
        // one poisoned axis poisons the other
        let poison = (x0 + y0) * 0.0;
        Self {
            min: [x0 + poison, y0 + poison],
            max: [x1 + poison, y1 + poison],
        }
    }
}

/// `[min, max]` of a column, both NaN when an entry is NaN or infinite.
/// Four running minima and maxima side by side: one of each would
/// wait out the latency of `min`/`max` a thousand times in a row
/// (`step_components/xy_bounds/1000`: 2.1 µs that way, 1.0 µs this
/// way).
fn column_extent(col: &[f64]) -> [f64; 2] {
    const LANES: usize = 4;
    let (mut lo, mut hi) = ([f64::INFINITY; LANES], [f64::NEG_INFINITY; LANES]);
    let mut finite = true;
    let mut take = |l: usize, v: f64| {
        // a comparison, not `f64::min`: one instruction, and a NaN is
        // skipped either way (`finite` is what notices it)
        lo[l] = if v < lo[l] { v } else { lo[l] };
        hi[l] = if v > hi[l] { v } else { hi[l] };
        finite &= v.abs() < f64::INFINITY;
    };
    let chunks = col.chunks_exact(LANES);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (l, &v) in chunk.iter().enumerate() {
            take(l, v);
        }
    }
    for (l, &v) in rest.iter().enumerate() {
        take(l, v);
    }
    if !finite {
        return [f64::NAN; 2];
    }
    [
        lo.into_iter().fold(f64::INFINITY, f64::min),
        hi.into_iter().fold(f64::NEG_INFINITY, f64::max),
    ]
}

/// Struct-of-arrays storage for an object's particle set: parallel
/// coordinate, pointer, and weight columns instead of a
/// `Vec<ObjectParticle>`.
///
/// The fused step's hot loops (weight accumulation, normalization,
/// support staging, moments) each touch only a subset of the particle
/// fields; with AoS storage every loop drags the full 40-byte particle
/// through the cache and the stride defeats autovectorization. The
/// columnar layout keeps each loop on contiguous `f64` slices. The
/// logical particle sequence is unchanged — `get`/`iter` reconstruct
/// [`ObjectParticle`] values bit-identical to the AoS representation,
/// and the resampling gather applies one ancestor list to every
/// column (pinned against the AoS gather in this module's tests).
#[derive(Debug, Clone, Default)]
pub struct ParticleSoa {
    /// Particle x coordinates.
    pub xs: Vec<f64>,
    /// Particle y coordinates.
    pub ys: Vec<f64>,
    /// Particle z coordinates.
    pub zs: Vec<f64>,
    /// Indices into the reader particle list (Fig. 3(b)).
    pub reader_idx: Vec<u32>,
    /// Factored weights (`w_ti` in Eq. 5), probabilities that sum to
    /// one.
    pub w: Vec<f64>,
}

impl ParticleSoa {
    /// An empty set with per-column capacity for `n` particles.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
            zs: Vec::with_capacity(n),
            reader_idx: Vec::with_capacity(n),
            w: Vec::with_capacity(n),
        }
    }

    /// Columnar copy of an AoS particle vector, preserving order.
    pub(crate) fn from_aos(particles: &[ObjectParticle]) -> Self {
        let mut soa = Self::with_capacity(particles.len());
        for p in particles {
            soa.push(*p);
        }
        soa
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Appends one particle to every column.
    pub fn push(&mut self, p: ObjectParticle) {
        self.xs.push(p.loc.x);
        self.ys.push(p.loc.y);
        self.zs.push(p.loc.z);
        self.reader_idx.push(p.reader_idx);
        self.w.push(p.w);
    }

    /// Particle `i` reassembled as an [`ObjectParticle`] value.
    pub fn get(&self, i: usize) -> ObjectParticle {
        ObjectParticle {
            loc: Point3::new(self.xs[i], self.ys[i], self.zs[i]),
            reader_idx: self.reader_idx[i],
            w: self.w[i],
        }
    }

    /// Overwrites particle `i` across every column.
    pub fn set(&mut self, i: usize, p: ObjectParticle) {
        self.xs[i] = p.loc.x;
        self.ys[i] = p.loc.y;
        self.zs[i] = p.loc.z;
        self.reader_idx[i] = p.reader_idx;
        self.w[i] = p.w;
    }

    /// The location of particle `i`.
    pub fn loc(&self, i: usize) -> Point3 {
        Point3::new(self.xs[i], self.ys[i], self.zs[i])
    }

    /// Overwrites the location of particle `i`.
    pub(crate) fn set_loc(&mut self, i: usize, loc: Point3) {
        self.xs[i] = loc.x;
        self.ys[i] = loc.y;
        self.zs[i] = loc.z;
    }

    /// Iterates the particles as [`ObjectParticle`] values, in order.
    pub fn iter(&self) -> impl Iterator<Item = ObjectParticle> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The XY extent of the location columns — a pure function of
    /// them, so a filter rebuilt from a checkpoint holds the bounds the
    /// uninterrupted one does.
    pub fn xy_bounds(&self) -> XyBounds {
        XyBounds::of(&self.xs, &self.ys)
    }

    /// Approximate heap footprint of the live particle data, in bytes
    /// (three coordinate columns + weight column + pointer column).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.len() * (4 * std::mem::size_of::<f64>() + std::mem::size_of::<u32>())
    }

    /// Replaces the set by the particles `ancestors` names, in that
    /// order — the resampled set — with every weight set to `w`.
    /// Each location and pointer column is gathered into `spare` /
    /// `spare_idx` and copied back, so the columns keep their buffers
    /// and nothing allocates once the spares are warm.
    pub(crate) fn gather(
        &mut self,
        ancestors: &[u32],
        w: f64,
        spare: &mut Vec<f64>,
        spare_idx: &mut Vec<u32>,
    ) {
        debug_assert_eq!(ancestors.len(), self.len());
        for col in [&mut self.xs, &mut self.ys, &mut self.zs] {
            gather_column(col, ancestors, spare);
        }
        gather_column(&mut self.reader_idx, ancestors, spare_idx);
        self.w.fill(w);
    }
}

/// `col[i] = old col[ancestors[i]]`, through `spare`.
fn gather_column<T: Copy>(col: &mut [T], ancestors: &[u32], spare: &mut Vec<T>) {
    spare.clear();
    spare.extend(ancestors.iter().map(|&a| col[a as usize]));
    col.copy_from_slice(spare);
}

/// Weighted mean pose of reader particles: mean position plus circular
/// mean heading.
pub(crate) fn weighted_mean_pose(particles: &[ReaderParticle]) -> Option<Pose> {
    let mut wsum = 0.0;
    let (mut x, mut y, mut z) = (0.0, 0.0, 0.0);
    let (mut s, mut c) = (0.0, 0.0);
    for p in particles {
        let w = p.log_w.exp();
        wsum += w;
        x += w * p.pose.pos.x;
        y += w * p.pose.pos.y;
        z += w * p.pose.pos.z;
        s += w * p.pose.phi.sin();
        c += w * p.pose.phi.cos();
    }
    if wsum <= 0.0 {
        return None;
    }
    Some(Pose::new(
        Point3::new(x / wsum, y / wsum, z / wsum),
        s.atan2(c),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xy_bounds_are_the_plain_extent_and_poisoned_by_one_bad_entry() {
        // every length around the lane width, the extremes in every slot
        for n in 1..=13usize {
            for (at_min, at_max) in [(0, n - 1), (n - 1, 0), (n / 2, n / 3)] {
                let mut xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
                let ys: Vec<f64> = xs.iter().map(|x| 500.0 - x).collect();
                xs[at_max] = 7.5;
                xs[at_min] = -3.25;
                let b = XyBounds::of(&xs, &ys);
                let plain = |c: &[f64]| {
                    c.iter()
                        .fold([f64::INFINITY, f64::NEG_INFINITY], |[lo, hi], &v| {
                            [lo.min(v), hi.max(v)]
                        })
                };
                assert_eq!([b.min[0], b.max[0]], plain(&xs), "n = {n}");
                assert_eq!([b.min[1], b.max[1]], plain(&ys), "n = {n}");
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut poisoned = ys.clone();
                    poisoned[n - 1] = bad;
                    let b = XyBounds::of(&xs, &poisoned);
                    let all = [b.min[0], b.min[1], b.max[0], b.max[1]];
                    assert!(all.iter().all(|v| v.is_nan()), "n = {n}, {bad}: {b:?}");
                }
            }
        }
    }

    #[test]
    fn log_normalize_sums_to_one() {
        let mut w = vec![-1.0, -2.0, -3.0];
        let z = log_normalize(&mut w).unwrap();
        let sum: f64 = w.iter().map(|x| x.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(z.is_finite());
    }

    #[test]
    fn log_normalize_handles_extreme_magnitudes() {
        let mut w = vec![-1000.0, -1001.0, -2000.0];
        log_normalize(&mut w).unwrap();
        let sum: f64 = w.iter().map(|x| x.exp()).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(w[0] > w[1]);
        assert!(w[2] < -600.0); // vanishingly small but well-defined
    }

    #[test]
    fn log_normalize_total_depletion_resets_uniform() {
        let mut w = vec![f64::NEG_INFINITY; 4];
        assert!(log_normalize(&mut w).is_none());
        for x in &w {
            assert!((x.exp() - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn ess_bounds() {
        assert!((effective_sample_size(&[0.1; 10]) - 10.0).abs() < 1e-9);
        let mut degen = vec![0.0; 10];
        degen[3] = 1.0;
        assert_eq!(effective_sample_size(&degen), 1.0);
    }

    #[test]
    fn systematic_resample_matches_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut w = vec![(0.7f64).ln(), (0.2f64).ln(), (0.1f64).ln()];
        log_normalize(&mut w).unwrap();
        let n = 10_000;
        let probs: Vec<f64> = w.iter().map(|x| x.exp()).collect();
        let mut idx = Vec::new();
        systematic_resample(&probs, n, &mut idx, &mut Vec::new(), &mut rng);
        let c0 = idx.iter().filter(|&&i| i == 0).count() as f64 / n as f64;
        let c1 = idx.iter().filter(|&&i| i == 1).count() as f64 / n as f64;
        assert!((c0 - 0.7).abs() < 0.02, "c0 {c0}");
        assert!((c1 - 0.2).abs() < 0.02, "c1 {c1}");
    }

    #[test]
    fn systematic_resample_deterministic_for_point_mass() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut w = vec![f64::NEG_INFINITY, 0.0, f64::NEG_INFINITY];
        log_normalize(&mut w).unwrap();
        let probs: Vec<f64> = w.iter().map(|x| x.exp()).collect();
        let mut idx = Vec::new();
        systematic_resample(&probs, 100, &mut idx, &mut Vec::new(), &mut rng);
        assert!(idx.iter().all(|&i| i == 1));
    }

    /// The resampler as it was written over log weights, exponentiating
    /// each weight as the scan reaches it — the form the reader and the
    /// basic filter resampled with.
    fn log_space_resample(log_w: &[f64], n: usize, rng: &mut StdRng) -> Vec<u32> {
        let mut out = Vec::with_capacity(n);
        let step = 1.0 / n as f64;
        let mut u = rng.gen::<f64>() * step;
        let mut cum = 0.0;
        let mut i = 0usize;
        let mut w_i = log_w[0].exp();
        for _ in 0..n {
            while cum + w_i < u && i + 1 < log_w.len() {
                cum += w_i;
                i += 1;
                w_i = log_w[i].exp();
            }
            out.push(i as u32);
            u += step;
        }
        out
    }

    #[test]
    fn ancestors_match_the_log_space_resampler() {
        // the same ancestors from the same RNG draw, ascending, and the
        // RNG left in the same state; one buffer across every call
        let mut ancestors = Vec::new();
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let len = 1 + (seed as usize * 7) % 40;
            let mut w: Vec<f64> = (0..len).map(|_| rng.gen::<f64>().ln() * 6.0).collect();
            if seed % 3 == 0 && len > 1 {
                w[len / 2] = f64::NEG_INFINITY;
            }
            log_normalize(&mut w).unwrap();
            let probs: Vec<f64> = w.iter().map(|x| x.exp()).collect();
            for n in [len, 2 * len + 1] {
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let plain = log_space_resample(&w, n, &mut a);
                systematic_resample(&probs, n, &mut ancestors, &mut Vec::new(), &mut b);
                assert_eq!(ancestors, plain, "seed {seed} n {n}");
                assert!(ancestors.windows(2).all(|p| p[0] <= p[1]));
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "seed {seed} n {n}");
            }
        }
    }

    /// Particles `0..n` with distinct fields, so a gather shows where
    /// every column entry came from.
    fn numbered(n: usize) -> ParticleSoa {
        ParticleSoa::from_aos(
            &(0..n)
                .map(|i| ObjectParticle {
                    loc: Point3::new(i as f64, 100.0 + i as f64, -(i as f64)),
                    reader_idx: 7 * i as u32,
                    w: 0.5 * i as f64,
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn reorder_handles_point_mass_and_identity() {
        let (mut spare, mut spare_idx) = (Vec::new(), Vec::new());
        let xs = |soa: &ParticleSoa| soa.xs.clone();
        // all mass on the last particle
        let mut soa = numbered(4);
        soa.gather(&[3, 3, 3, 3], 0.25, &mut spare, &mut spare_idx);
        assert_eq!(xs(&soa), vec![3.0; 4]);
        assert_eq!(soa.reader_idx, vec![21; 4]);
        assert_eq!(soa.w, vec![0.25; 4]);
        // identity ancestors leave the particles in place
        let mut soa = numbered(3);
        soa.gather(&[0, 1, 2], 0.5, &mut spare, &mut spare_idx);
        assert_eq!(xs(&soa), vec![0.0, 1.0, 2.0]);
        // a middle survivor whose copies land on a later survivor's slot
        let mut soa = numbered(4);
        soa.gather(&[1, 1, 1, 2], 0.25, &mut spare, &mut spare_idx);
        assert_eq!(xs(&soa), vec![1.0, 1.0, 1.0, 2.0]);
        assert_eq!(soa.zs, vec![-1.0, -1.0, -1.0, -2.0]);
    }
    #[test]
    fn soa_roundtrips_and_reorders_like_aos() {
        let mut rng = StdRng::seed_from_u64(77);
        for n in [1usize, 5, 64] {
            let aos: Vec<ObjectParticle> = (0..n)
                .map(|i| ObjectParticle {
                    loc: Point3::new(rng.gen(), rng.gen(), rng.gen()),
                    reader_idx: i as u32 % 7,
                    w: rng.gen::<f64>() + 0.1,
                })
                .collect();
            let soa = ParticleSoa::from_aos(&aos);
            assert_eq!(soa.len(), n);
            for (i, p) in soa.iter().enumerate() {
                assert_eq!(p.loc.x.to_bits(), aos[i].loc.x.to_bits());
                assert_eq!(p.reader_idx, aos[i].reader_idx);
                assert_eq!(p.w.to_bits(), aos[i].w.to_bits());
            }

            // the columnar gather must equal the AoS gather
            let total: f64 = aos.iter().map(|p| p.w).sum();
            let probs: Vec<f64> = aos.iter().map(|p| p.w / total).collect();
            let mut ancestors = Vec::new();
            systematic_resample(
                &probs,
                n,
                &mut ancestors,
                &mut Vec::new(),
                &mut StdRng::seed_from_u64(n as u64),
            );
            let aos_gathered: Vec<ObjectParticle> =
                ancestors.iter().map(|&a| aos[a as usize]).collect();
            let mut soa_gathered = soa.clone();
            soa_gathered.gather(&ancestors, 0.125, &mut Vec::new(), &mut Vec::new());
            for (i, p) in soa_gathered.iter().enumerate() {
                assert_eq!(p.loc.x.to_bits(), aos_gathered[i].loc.x.to_bits());
                assert_eq!(p.loc.y.to_bits(), aos_gathered[i].loc.y.to_bits());
                assert_eq!(p.loc.z.to_bits(), aos_gathered[i].loc.z.to_bits());
                assert_eq!(p.reader_idx, aos_gathered[i].reader_idx);
                assert_eq!(p.w, 0.125);
            }
        }
    }

    #[test]
    fn mean_pose_circular_heading() {
        let mk = |phi: f64| ReaderParticle {
            pose: Pose::new(Point3::origin(), phi),
            log_w: (0.5f64).ln(),
        };
        let ps = vec![mk(170f64.to_radians()), mk(-170f64.to_radians())];
        let m = weighted_mean_pose(&ps).unwrap();
        assert!((m.phi.abs() - std::f64::consts::PI).abs() < 1e-9);
    }
}
