//! Particle types and weight arithmetic shared by every filter variant.
//!
//! Weights live in log space while being accumulated (sensor and
//! sensing likelihoods multiply many small numbers) and are normalized
//! with log-sum-exp. Resampling is *systematic* (one uniform draw, `n`
//! evenly spaced pointers), the standard low-variance scheme.
//!
//! The object step's normalization ([`log_normalize_exp`]) classifies
//! before it computes: entries whose exponential IEEE 754 fixes exactly
//! (`exp(0) = 1`, `exp(−inf) = 0`) are written by a branch-free pass
//! that compacts the others into a list, and `exp` runs over that list
//! alone — the same shape as the weight pass in front of it.

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
/// log weight (`w_ti` in Eq. 5).
#[derive(Debug, Clone, Copy)]
pub struct ObjectParticle {
    pub loc: Point3,
    /// Index into the reader particle list.
    pub reader_idx: u32,
    pub log_w: f64,
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

/// [`log_normalize`] that keeps the exponentials it computes: on return
/// `exps[i]` is `exp(w_i - max)` of the *incoming* weights — the object
/// step multiplies them by the reader factor instead of exponentiating
/// a second and a third time. The weights themselves end up with the
/// same bits as under [`log_normalize`]. On total depletion they reset
/// to uniform and `exps` is all ones (equal weights, same scale-free
/// meaning).
///
/// A weight at the maximum and a dead one skip the `exp` call: IEEE 754
/// fixes `exp(±0) = 1` and `exp(−inf) = +0` exactly, so the shortcut
/// returns what the call would. A piecewise-constant sensor (the cone
/// model) leaves most of a column at one of the two, in no predictable
/// order, so the column is classified first — `1.0` or `0.0` written,
/// every other index (a finite difference, a NaN) appended to
/// `pending` without a branch on which — and `exp` then runs over
/// that list alone. `pending` is scratch; its contents on return mean
/// nothing.
pub fn log_normalize_exp(
    log_w: &mut [f64],
    exps: &mut Vec<f64>,
    pending: &mut Vec<u32>,
) -> Option<f64> {
    let n = log_w.len();
    let max = log_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        let u = -(n as f64).ln();
        for w in log_w.iter_mut() {
            *w = u;
        }
        exps.clear();
        exps.resize(n, 1.0);
        return None;
    }
    exps.resize(n, 0.0);
    pending.resize(n, 0);
    let mut m = 0;
    for (i, (&w, e)) in log_w.iter().zip(exps.iter_mut()).enumerate() {
        // d lies in [−inf, 0] or is NaN
        let d = w - max;
        *e = if d == 0.0 { 1.0 } else { 0.0 };
        pending[m] = i as u32;
        m += usize::from(d != 0.0 && d != f64::NEG_INFINITY);
    }
    for &i in &pending[..m] {
        exps[i as usize] = (log_w[i as usize] - max).exp();
    }
    let sum: f64 = exps.iter().sum();
    let log_z = max + sum.ln();
    for w in log_w.iter_mut() {
        *w -= log_z;
    }
    Some(log_z)
}

/// Effective sample size of normalized log weights:
/// `1 / sum(w_i^2)`. Ranges from 1 (degenerate) to `n` (uniform).
///
/// # Contract
///
/// The input **must** be normalized (`sum(exp(w)) == 1`, e.g. via
/// [`log_normalize`]); on unnormalized input the result is meaningless
/// — it silently scales with the square of the stray normalizer. The
/// contract is checked with a `debug_assert!` so debug/test builds
/// catch violations while release builds pay nothing.
///
/// Each squared weight is computed as `exp(w) * exp(w)` — not
/// `exp(2w)` — so the result is bit-identical to
/// [`effective_sample_size_probs`] over the exponentiated weights,
/// the form the object step applies to its probability buffer.
pub(crate) fn effective_sample_size(log_w: &[f64]) -> f64 {
    debug_assert!(
        log_w.is_empty() || {
            let total: f64 = log_w.iter().map(|w| w.exp()).sum();
            (total - 1.0).abs() < 1e-6
        },
        "effective_sample_size requires normalized log weights"
    );
    let sum_sq: f64 = log_w
        .iter()
        .map(|w| {
            let p = w.exp();
            p * p
        })
        .sum();
    if sum_sq > 0.0 {
        1.0 / sum_sq
    } else {
        0.0
    }
}

/// [`effective_sample_size`] over probability-space weights that were
/// already exponentiated (`probs[i] == log_w[i].exp()`): a pure
/// multiply-add reduction the hot path runs against its reusable
/// probability buffer. Same normalization contract, same result bits
/// as the log-space version over the corresponding log weights.
pub(crate) fn effective_sample_size_probs(probs: &[f64]) -> f64 {
    debug_assert!(
        probs.is_empty() || (probs.iter().sum::<f64>() - 1.0).abs() < 1e-6,
        "effective_sample_size_probs requires normalized weights"
    );
    let sum_sq: f64 = probs.iter().map(|p| p * p).sum();
    if sum_sq > 0.0 {
        1.0 / sum_sq
    } else {
        0.0
    }
}

/// Systematic resampling: writes into `ancestors` (cleared first) the
/// `n` ancestor indices drawn from the categorical distribution given
/// by normalized probability-space weights — one uniform draw, `n`
/// evenly spaced pointers, so the indices come out ascending. The
/// caller owns the buffer: the object step's is scratch and allocates
/// nothing once warm. For `probs[i] == log_w[i].exp()` the ancestors
/// are those of the same loop run over log weights, exponentiating as
/// it scans.
pub(crate) fn systematic_resample<R: Rng + ?Sized>(
    probs: &[f64],
    n: usize,
    ancestors: &mut Vec<u32>,
    rng: &mut R,
) {
    debug_assert!(!probs.is_empty());
    ancestors.clear();
    let step = 1.0 / n as f64;
    let mut u = rng.gen::<f64>() * step;
    let mut cum = 0.0;
    let mut i = 0usize;
    for _ in 0..n {
        while cum + probs[i] < u && i + 1 < probs.len() {
            cum += probs[i];
            i += 1;
        }
        ancestors.push(i as u32);
        u += step;
    }
}

/// Streaming variant of [`effective_sample_size`] over an iterator of
/// normalized log weights — same `debug_assert!`-checked normalization
/// contract, without materializing a buffer. Keeps the original
/// `exp(2w)` form: its results land in emitted event statistics
/// (`ObjectFilter::object_ess`) pinned by the golden traces, so its
/// bit pattern must not change with the hot path's `exp(w)²`
/// restructuring (the two differ by at most an ulp per term).
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
    /// Factored log weights (`w_ti` in Eq. 5).
    pub log_w: Vec<f64>,
}

impl ParticleSoa {
    /// An empty set with per-column capacity for `n` particles.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
            zs: Vec::with_capacity(n),
            reader_idx: Vec::with_capacity(n),
            log_w: Vec::with_capacity(n),
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
        self.log_w.push(p.log_w);
    }

    /// Particle `i` reassembled as an [`ObjectParticle`] value.
    pub fn get(&self, i: usize) -> ObjectParticle {
        ObjectParticle {
            loc: Point3::new(self.xs[i], self.ys[i], self.zs[i]),
            reader_idx: self.reader_idx[i],
            log_w: self.log_w[i],
        }
    }

    /// Overwrites particle `i` across every column.
    pub fn set(&mut self, i: usize, p: ObjectParticle) {
        self.xs[i] = p.loc.x;
        self.ys[i] = p.loc.y;
        self.zs[i] = p.loc.z;
        self.reader_idx[i] = p.reader_idx;
        self.log_w[i] = p.log_w;
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
    /// order — the resampled set — with every weight set to `log_w`.
    /// Each location and pointer column is gathered into `spare` /
    /// `spare_idx` and copied back, so the columns keep their buffers
    /// and nothing allocates once the spares are warm.
    pub(crate) fn gather(
        &mut self,
        ancestors: &[u32],
        log_w: f64,
        spare: &mut Vec<f64>,
        spare_idx: &mut Vec<u32>,
    ) {
        debug_assert_eq!(ancestors.len(), self.len());
        for col in [&mut self.xs, &mut self.ys, &mut self.zs] {
            gather_column(col, ancestors, spare);
        }
        gather_column(&mut self.reader_idx, ancestors, spare_idx);
        self.log_w.fill(log_w);
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
    fn log_normalize_exp_matches_log_normalize_bitwise() {
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut w: Vec<f64> = (0..41).map(|_| rng.gen::<f64>().ln() * 40.0).collect();
            w[7] = f64::NEG_INFINITY;
            let raw = w.clone();
            let mut plain = w.clone();
            let mut exps = Vec::new();
            let z = log_normalize_exp(&mut w, &mut exps, &mut Vec::new()).unwrap();
            assert_eq!(log_normalize(&mut plain).unwrap().to_bits(), z.to_bits());
            let max = raw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for i in 0..w.len() {
                assert_eq!(w[i].to_bits(), plain[i].to_bits(), "seed {seed} weight {i}");
                assert_eq!(exps[i].to_bits(), (raw[i] - max).exp().to_bits());
            }
        }
        // the columns the shortcut exists for, and the ones that could
        // trip it: every `exps[i]` is what `exp` returns, bit for bit
        let inf = f64::NEG_INFINITY;
        let columns: [&[f64]; 9] = [
            &[-3.25; 5],                          // all equal
            &[-1.5, -0.5, -7.0, -0.5, -0.5, inf], // several maxima
            &[-0.0, 0.0, -0.0, -2.0],             // signed zeros at the maximum
            &[0.0, -0.0],                         // +0 first
            &[-4.0, -0.0, inf, -0.0],             // the maximum is −0
            &[inf, inf, -745.2, inf],             // one survivor
            &[-1.0, f64::NAN, -2.0, inf, -1.0],   // a NaN member
            &[5e-324, 0.0, -5e-324],              // differences that are not zero
            &[1e308, -1e308, 1e308],              // w − max overflows to −inf
        ];
        for raw in columns {
            let mut w = raw.to_vec();
            let mut plain = raw.to_vec();
            let mut exps = Vec::new();
            let z = log_normalize_exp(&mut w, &mut exps, &mut Vec::new()).unwrap();
            assert_eq!(log_normalize(&mut plain).unwrap().to_bits(), z.to_bits());
            let max = raw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for i in 0..raw.len() {
                assert_eq!(w[i].to_bits(), plain[i].to_bits(), "{raw:?} weight {i}");
                assert_eq!(
                    exps[i].to_bits(),
                    (raw[i] - max).exp().to_bits(),
                    "{raw:?} exp {i}"
                );
            }
        }
        // mixed columns, the classify pass's whole input space in random
        // order: at the maximum (±0 after subtracting it), dead, finite,
        // NaN; one pair of buffers across every length, so an entry a
        // longer column left behind would show
        let (mut exps, mut pending) = (Vec::new(), Vec::new());
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 1 + (seed as usize * 37) % 90;
            let top = -rng.gen::<f64>() * 5.0;
            let raw: Vec<f64> = (0..n)
                .map(|i| match (i == n / 2, rng.gen_range(0..5u8)) {
                    (true, _) | (_, 0) => top,
                    (_, 1) => f64::NEG_INFINITY,
                    (_, 2) if seed % 4 == 0 => f64::NAN,
                    _ => top - rng.gen::<f64>() * 50.0,
                })
                .collect();
            let mut w = raw.clone();
            let mut plain = raw.clone();
            let z = log_normalize_exp(&mut w, &mut exps, &mut pending).unwrap();
            assert_eq!(log_normalize(&mut plain).unwrap().to_bits(), z.to_bits());
            assert_eq!(exps.len(), n);
            for i in 0..n {
                assert_eq!(w[i].to_bits(), plain[i].to_bits(), "seed {seed} weight {i}");
                assert_eq!(
                    exps[i].to_bits(),
                    (raw[i] - top).exp().to_bits(),
                    "seed {seed} exp {i}"
                );
            }
        }
        // total depletion: uniform weights, equal exponentials
        let mut w = vec![f64::NEG_INFINITY; 4];
        let mut exps = vec![9.0];
        assert!(log_normalize_exp(&mut w, &mut exps, &mut Vec::new()).is_none());
        assert_eq!(exps, vec![1.0; 4]);
        assert!(w.iter().all(|x| (x.exp() - 0.25).abs() < 1e-12));
    }

    #[test]
    fn ess_bounds() {
        let mut uniform = vec![0.0f64; 10];
        log_normalize(&mut uniform).unwrap();
        assert!((effective_sample_size(&uniform) - 10.0).abs() < 1e-9);

        let mut degen = vec![f64::NEG_INFINITY; 10];
        degen[3] = 0.0;
        log_normalize(&mut degen).unwrap();
        assert!((effective_sample_size(&degen) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn systematic_resample_matches_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut w = vec![(0.7f64).ln(), (0.2f64).ln(), (0.1f64).ln()];
        log_normalize(&mut w).unwrap();
        let n = 10_000;
        let probs: Vec<f64> = w.iter().map(|x| x.exp()).collect();
        let mut idx = Vec::new();
        systematic_resample(&probs, n, &mut idx, &mut rng);
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
        systematic_resample(&probs, 100, &mut idx, &mut rng);
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
                systematic_resample(&probs, n, &mut ancestors, &mut b);
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
                    log_w: -0.5 * i as f64,
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
        soa.gather(&[3, 3, 3, 3], -1.0, &mut spare, &mut spare_idx);
        assert_eq!(xs(&soa), vec![3.0; 4]);
        assert_eq!(soa.reader_idx, vec![21; 4]);
        assert_eq!(soa.log_w, vec![-1.0; 4]);
        // identity ancestors leave the particles in place
        let mut soa = numbered(3);
        soa.gather(&[0, 1, 2], -1.0, &mut spare, &mut spare_idx);
        assert_eq!(xs(&soa), vec![0.0, 1.0, 2.0]);
        // a middle survivor whose copies land on a later survivor's slot
        let mut soa = numbered(4);
        soa.gather(&[1, 1, 1, 2], -1.0, &mut spare, &mut spare_idx);
        assert_eq!(xs(&soa), vec![1.0, 1.0, 1.0, 2.0]);
        assert_eq!(soa.zs, vec![-1.0, -1.0, -1.0, -2.0]);
    }
    #[test]
    fn ess_probs_matches_log_space_bitwise() {
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut w: Vec<f64> = (0..37).map(|_| rng.gen::<f64>().ln() * 3.0).collect();
            log_normalize(&mut w).unwrap();
            let probs: Vec<f64> = w.iter().map(|x| x.exp()).collect();
            assert_eq!(
                effective_sample_size(&w).to_bits(),
                effective_sample_size_probs(&probs).to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn soa_roundtrips_and_reorders_like_aos() {
        let mut rng = StdRng::seed_from_u64(77);
        for n in [1usize, 5, 64] {
            let aos: Vec<ObjectParticle> = (0..n)
                .map(|i| ObjectParticle {
                    loc: Point3::new(rng.gen(), rng.gen(), rng.gen()),
                    reader_idx: i as u32 % 7,
                    log_w: -(rng.gen::<f64>() + 0.1),
                })
                .collect();
            let soa = ParticleSoa::from_aos(&aos);
            assert_eq!(soa.len(), n);
            for (i, p) in soa.iter().enumerate() {
                assert_eq!(p.loc.x.to_bits(), aos[i].loc.x.to_bits());
                assert_eq!(p.reader_idx, aos[i].reader_idx);
                assert_eq!(p.log_w.to_bits(), aos[i].log_w.to_bits());
            }

            // the columnar gather must equal the AoS gather
            let mut w: Vec<f64> = aos.iter().map(|p| p.log_w).collect();
            log_normalize(&mut w).unwrap();
            let probs: Vec<f64> = w.iter().map(|x| x.exp()).collect();
            let mut ancestors = Vec::new();
            systematic_resample(
                &probs,
                n,
                &mut ancestors,
                &mut StdRng::seed_from_u64(n as u64),
            );
            let aos_gathered: Vec<ObjectParticle> =
                ancestors.iter().map(|&a| aos[a as usize]).collect();
            let mut soa_gathered = soa.clone();
            soa_gathered.gather(&ancestors, -2.5, &mut Vec::new(), &mut Vec::new());
            for (i, p) in soa_gathered.iter().enumerate() {
                assert_eq!(p.loc.x.to_bits(), aos_gathered[i].loc.x.to_bits());
                assert_eq!(p.loc.y.to_bits(), aos_gathered[i].loc.y.to_bits());
                assert_eq!(p.loc.z.to_bits(), aos_gathered[i].loc.z.to_bits());
                assert_eq!(p.reader_idx, aos_gathered[i].reader_idx);
                assert_eq!(p.log_w, -2.5);
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
