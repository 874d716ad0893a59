//! Quantized likelihood table: amortizing `exp()` across particles.
//!
//! Every sensor in this crate depends on the reader pose and tag
//! location only through the pair `(d, θ)` produced by
//! `Pose::range_bearing` — distance in feet and bearing in `[0, π]`.
//! [`LikelihoodTable`] exploits that: it tabulates
//! [`ReadRateModel::log_likelihood_dt`] over a uniform `(d, θ)` grid,
//! once, so the hot weight loop replaces two transcendental calls
//! (`exp` inside the sigmoid, `ln`/`ln_1p` on the way out) with a pair
//! of index computations and a load.
//!
//! The table is deliberately **not** keyed by reader or epoch: `(d, θ)`
//! already abstracts the reader pose away, so a single immutable table
//! serves every reader, every object, and every epoch — build it once
//! when inference starts and share it by reference across worker
//! threads (it is `Send + Sync` plain data).
//!
//! Accuracy: each cell stores the *exact* log-likelihood at the cell
//! center, so the lookup error is bounded by the model's Lipschitz
//! constants times half a cell: `|err| ≤ (L_d·d_step + L_θ·θ_step)/2`.
//! For the logistic model (Eq. 1) the log-sigmoid has derivative
//! magnitude < 1 in its argument, so `L_d ≤ |a1| + 2|a2|·d_max` and
//! `L_θ ≤ |b1| + 2|b2|·π` — a property the proptest below sweeps.
//! Hard-edged ground-truth models (cone, sphere) are *not* good table
//! candidates: the discontinuity at the cone boundary makes the
//! mid-cell value wrong by `±∞` for particles in the boundary cell,
//! which is why the engine leaves the table off by default and enables
//! it only for smooth (logistic) sensors.
//!
//! Distances at or beyond `d_max` fall outside the grid;
//! [`LikelihoodTable::lookup`] returns `None` there and the
//! caller falls back to the exact model. Choosing
//! `d_max ≥ detection_range` makes the fallback rare (far particles of
//! a *miss* observation, whose weight is ~0 anyway).

use crate::sensor::ReadRateModel;
use std::f64::consts::PI;

/// Immutable log-likelihood grid over `(distance, bearing)`, one value
/// per outcome (`read` / `miss`). Built once; lookups are pure.
#[derive(Debug, Clone)]
pub struct LikelihoodTable {
    d_max: f64,
    d_step: f64,
    theta_step: f64,
    inv_d_step: f64,
    inv_theta_step: f64,
    nd: usize,
    ntheta: usize,
    /// Row-major `[d_bin][theta_bin]`, outcome `read = true`.
    log_read: Vec<f64>,
    /// Row-major `[d_bin][theta_bin]`, outcome `read = false`.
    log_miss: Vec<f64>,
}

impl LikelihoodTable {
    /// Tabulates `model.log_likelihood_dt` over `d ∈ [0, d_max)` with
    /// bin width `d_step` and `θ ∈ [0, π]` with bin width `theta_step`.
    /// Cell values are the exact log-likelihood at the cell center.
    ///
    /// Panics if `d_max`, `d_step`, or `theta_step` is not positive and
    /// finite — validated config should make that unreachable.
    pub fn build<M: ReadRateModel + ?Sized>(
        model: &M,
        d_max: f64,
        d_step: f64,
        theta_step: f64,
    ) -> Self {
        assert!(
            d_max > 0.0 && d_max.is_finite(),
            "likelihood table d_max must be positive"
        );
        assert!(
            d_step > 0.0 && d_step.is_finite(),
            "likelihood table d_step must be positive"
        );
        assert!(
            theta_step > 0.0 && theta_step.is_finite(),
            "likelihood table theta_step must be positive"
        );
        let nd = ((d_max / d_step).ceil() as usize).max(1);
        let ntheta = ((PI / theta_step).ceil() as usize).max(1);
        let mut log_read = Vec::with_capacity(nd * ntheta);
        let mut log_miss = Vec::with_capacity(nd * ntheta);
        for di in 0..nd {
            let d = (di as f64 + 0.5) * d_step;
            for ti in 0..ntheta {
                // cap the last cell's center inside the valid bearing
                // domain [0, π]
                let th = ((ti as f64 + 0.5) * theta_step).min(PI);
                log_read.push(model.log_likelihood_dt(d, th, true));
                log_miss.push(model.log_likelihood_dt(d, th, false));
            }
        }
        Self {
            d_max,
            d_step,
            theta_step,
            inv_d_step: 1.0 / d_step,
            inv_theta_step: 1.0 / theta_step,
            nd,
            ntheta,
            log_read,
            log_miss,
        }
    }

    /// Quantized log-likelihood of outcome `read` at `(d, theta)`, or
    /// `None` when `d` falls outside the grid (caller evaluates the
    /// exact model there). `theta` is clamped into `[0, π]` the same
    /// way `range_bearing` guarantees it.
    #[inline]
    pub fn lookup(&self, d: f64, theta: f64, read: bool) -> Option<f64> {
        // negated comparison also routes NaN distances to the exact path
        if !(d >= 0.0 && d < self.d_max) {
            return None;
        }
        let di = ((d * self.inv_d_step) as usize).min(self.nd - 1);
        let ti = ((theta.max(0.0) * self.inv_theta_step) as usize).min(self.ntheta - 1);
        let idx = di * self.ntheta + ti;
        let cell = if read {
            self.log_read[idx]
        } else {
            self.log_miss[idx]
        };
        Some(cell)
    }

    /// Largest tabulated distance: lookups at `d ≥ d_max` return `None`.
    #[inline]
    pub fn d_max(&self) -> f64 {
        self.d_max
    }

    /// Distance bin width, feet.
    #[inline]
    pub fn d_step(&self) -> f64 {
        self.d_step
    }

    /// Bearing bin width, radians.
    #[inline]
    pub fn theta_step(&self) -> f64 {
        self.theta_step
    }

    /// Grid shape `(distance_bins, bearing_bins)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nd, self.ntheta)
    }

    /// Approximate heap footprint of the grid, in bytes.
    pub fn approx_bytes(&self) -> usize {
        (self.log_read.capacity() + self.log_miss.capacity()) * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SensorParams;
    use crate::sensor::LogisticSensorModel;
    use proptest::prelude::*;

    fn logistic() -> LogisticSensorModel {
        LogisticSensorModel::new(SensorParams::default_cone_like())
    }

    #[test]
    fn cell_centers_are_exact() {
        let m = logistic();
        let t = LikelihoodTable::build(&m, 8.0, 0.05, 0.02);
        for &(di, ti) in &[(0usize, 0usize), (20, 22), (159, 156)] {
            // centers computed exactly as the builder computes them
            let d = (di as f64 + 0.5) * 0.05;
            let th = ((ti as f64 + 0.5) * 0.02).min(PI);
            for read in [true, false] {
                let got = t.lookup(d, th, read).expect("in range");
                let exact = m.log_likelihood_dt(d, th, read);
                assert_eq!(
                    got.to_bits(),
                    exact.to_bits(),
                    "cell center must be the exact value (d={d}, th={th}, read={read})"
                );
            }
        }
    }

    #[test]
    fn out_of_range_distances_fall_back() {
        let t = LikelihoodTable::build(&logistic(), 8.0, 0.05, 0.02);
        assert!(t.lookup(8.0, 0.1, true).is_none());
        assert!(t.lookup(123.0, 0.1, false).is_none());
        assert!(t.lookup(f64::NAN, 0.1, true).is_none());
        assert!(t.lookup(7.999, 0.1, true).is_some());
        assert!(t.lookup(0.0, 0.0, true).is_some());
    }

    #[test]
    fn bearing_domain_edges_stay_in_grid() {
        let t = LikelihoodTable::build(&logistic(), 8.0, 0.05, 0.02);
        // θ = π lands exactly on the top edge; θ slightly past π (float
        // slop out of range_bearing) must clamp, not panic
        assert!(t.lookup(1.0, PI, true).is_some());
        assert!(t.lookup(1.0, PI + 1e-12, false).is_some());
        assert!(t.lookup(1.0, -1e-15, true).is_some());
    }

    proptest! {
        /// Sweeps bin widths and query points: the lookup error against
        /// the exact `exp()` path stays within the Lipschitz half-cell
        /// bound `(L_d·d_step + L_θ·θ_step)/2` documented above.
        #[test]
        fn quantization_error_is_bounded(
            d_step_i in 0usize..4,
            theta_step_i in 0usize..3,
            d in 0.0f64..8.0,
            theta in 0.0f64..PI,
            read in any::<bool>(),
        ) {
            let d_step = [0.01f64, 0.05, 0.1, 0.25][d_step_i];
            let theta_step = [0.005f64, 0.02, 0.1][theta_step_i];
            let m = logistic();
            let d_max = 8.0;
            let t = LikelihoodTable::build(&m, d_max, d_step, theta_step);
            let got = t.lookup(d, theta, read).expect("d < d_max");
            let exact = m.log_likelihood_dt(d, theta, read);
            // |d log σ / dx| < 1, so the (d, θ) Lipschitz constants are
            // those of the linear predictor u(d, θ)
            let p = SensorParams::default_cone_like();
            let l_d = p.a[1].abs() + 2.0 * p.a[2].abs() * d_max;
            let l_th = p.b[0].abs() + 2.0 * p.b[1].abs() * PI;
            let bound = 0.5 * (l_d * d_step + l_th * theta_step);
            prop_assert!(
                (got - exact).abs() <= bound * (1.0 + 1e-9) + 1e-12,
                "lookup {got} vs exact {exact}: err {} > bound {bound} \
                 (d={d}, θ={theta}, read={read}, steps=({d_step},{theta_step}))",
                (got - exact).abs()
            );
        }
    }
}
