//! Weighted logistic regression by IRLS (Newton's method).
//!
//! The M-step of the calibration fits the five sensor coefficients to
//! weighted (features, read?) rows. Iteratively reweighted least
//! squares converges in a handful of iterations on this small, convex
//! problem; a small L2 ridge keeps the Hessian invertible when the
//! data does not identify every coefficient (e.g. traces with almost
//! no angle variation).

use crate::dataset::SensorRow;
use rfid_model::{sigmoid, SensorParams};

/// Result of a logistic fit.
#[derive(Debug, Clone, Copy)]
pub struct FitReport {
    pub params: SensorParams,
    /// Final weighted negative log-likelihood (without the ridge term).
    pub nll: f64,
    /// Newton iterations taken.
    pub iterations: usize,
}

/// Solves the 5x5 system `A x = b` by Gaussian elimination with partial
/// pivoting. Returns `None` for (numerically) singular systems.
#[allow(clippy::needless_range_loop)] // textbook index form
fn solve5(mut a: [[f64; 5]; 5], mut b: [f64; 5]) -> Option<[f64; 5]> {
    for col in 0..5 {
        // pivot
        let mut piv = col;
        for row in col + 1..5 {
            if a[row][col].abs() > a[piv][col].abs() {
                piv = row;
            }
        }
        if a[piv][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, piv);
        b.swap(col, piv);
        // eliminate
        for row in col + 1..5 {
            let f = a[row][col] / a[col][col];
            for k in col..5 {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    // back substitution
    let mut x = [0.0; 5];
    for col in (0..5).rev() {
        let mut s = b[col];
        for k in col + 1..5 {
            s -= a[col][k] * x[k];
        }
        x[col] = s / a[col][col];
    }
    Some(x)
}

/// Weighted negative log-likelihood of the rows under `w`.
pub(crate) fn nll(rows: &[SensorRow], params: &SensorParams) -> f64 {
    let w = params.as_flat();
    let mut total = 0.0;
    for r in rows {
        let u: f64 = r.features.iter().zip(&w).map(|(x, c)| x * c).sum();
        let lp = if r.read {
            // log sigmoid(u)
            if u >= 0.0 {
                -(-u).exp().ln_1p()
            } else {
                u - u.exp().ln_1p()
            }
        } else if u >= 0.0 {
            -u - (-u).exp().ln_1p()
        } else {
            -u.exp().ln_1p()
        };
        total -= r.weight * lp;
    }
    total
}

/// Fits the logistic sensor model by IRLS, warm-started at `init`.
///
/// `ridge` is the L2 regularization strength (0.0 disables it; the EM
/// loop uses a small positive value). Stops when the coefficient change
/// drops below `1e-8` or after `max_iter` iterations, with step
/// halving when a Newton step fails to decrease the objective.
#[allow(clippy::needless_range_loop)] // textbook index form
pub fn fit_logistic(
    rows: &[SensorRow],
    init: SensorParams,
    ridge: f64,
    max_iter: usize,
) -> FitReport {
    assert!(!rows.is_empty(), "cannot fit on an empty dataset");
    let mut w = init.as_flat();
    let mut best_nll = nll(rows, &SensorParams::from_flat(w)) + 0.5 * ridge * l2(&w);
    let mut iterations = 0;
    for it in 0..max_iter {
        iterations = it + 1;
        // gradient and Hessian of the regularized NLL
        let mut g = [0.0f64; 5];
        let mut h = [[0.0f64; 5]; 5];
        for r in rows {
            let u: f64 = r.features.iter().zip(&w).map(|(x, c)| x * c).sum();
            let p = sigmoid(u);
            let y = if r.read { 1.0 } else { 0.0 };
            let err = p - y; // d(NLL)/du
            let s = (p * (1.0 - p)).max(1e-9);
            for i in 0..5 {
                g[i] += r.weight * err * r.features[i];
                for j in 0..5 {
                    h[i][j] += r.weight * s * r.features[i] * r.features[j];
                }
            }
        }
        for i in 0..5 {
            g[i] += ridge * w[i];
            h[i][i] += ridge + 1e-9;
        }
        let Some(step) = solve5(h, g) else { break };
        // step halving line search
        let mut alpha = 1.0;
        let mut improved = false;
        for _ in 0..20 {
            let mut cand = w;
            for i in 0..5 {
                cand[i] -= alpha * step[i];
            }
            let cand_nll = nll(rows, &SensorParams::from_flat(cand)) + 0.5 * ridge * l2(&cand);
            if cand_nll <= best_nll {
                let delta: f64 = step.iter().map(|s| (alpha * s).abs()).sum();
                w = cand;
                best_nll = cand_nll;
                improved = true;
                if delta < 1e-8 {
                    return FitReport {
                        params: SensorParams::from_flat(w),
                        nll: nll(rows, &SensorParams::from_flat(w)),
                        iterations,
                    };
                }
                break;
            }
            alpha *= 0.5;
        }
        if !improved {
            break;
        }
    }
    FitReport {
        params: SensorParams::from_flat(w),
        nll: nll(rows, &SensorParams::from_flat(w)),
        iterations,
    }
}

fn l2(w: &[f64; 5]) -> f64 {
    w.iter().map(|x| x * x).sum()
}

/// Sign-constrained fit: like [`fit_logistic`] but with the decay
/// coefficients `a1, a2, b1, b2` constrained non-positive (the paper:
/// "coefficients that we expect to be negative" — read rate must not
/// *increase* with distance or angle).
///
/// This matters because calibration traces have strongly correlated
/// `(d, θ)` geometry (far tags are always seen at wide angles), which
/// leaves the distance direction under-identified; the unconstrained
/// MLE can then turn the distance coefficient positive and predict
/// reads at 50+ feet. Projected gradient descent from the projected
/// IRLS solution enforces the physical prior.
#[allow(clippy::needless_range_loop)] // textbook index form
pub(crate) fn fit_logistic_signed(
    rows: &[SensorRow],
    init: SensorParams,
    ridge: f64,
    max_iter: usize,
) -> FitReport {
    let unconstrained = fit_logistic(rows, init, ridge, max_iter);
    let w = unconstrained.params.as_flat();
    if w[1] <= 0.0 && w[2] <= 0.0 && w[3] <= 0.0 && w[4] <= 0.0 {
        return unconstrained;
    }
    // project and polish with backtracking projected gradient descent
    let project = |w: &mut [f64; 5]| {
        for wi in w.iter_mut().skip(1) {
            *wi = wi.min(0.0);
        }
    };
    let obj =
        |w: &[f64; 5]| -> f64 { nll(rows, &SensorParams::from_flat(*w)) + 0.5 * ridge * l2(w) };
    let mut w = {
        let mut p = unconstrained.params.as_flat();
        project(&mut p);
        p
    };
    let mut best = obj(&w);
    let mut step = 1.0;
    let mut iterations = 0usize;
    for it in 0..500 {
        iterations = it + 1;
        // gradient of the regularized NLL
        let mut g = [0.0f64; 5];
        for r in rows {
            let u: f64 = r.features.iter().zip(&w).map(|(x, c)| x * c).sum();
            let p = sigmoid(u);
            let y = if r.read { 1.0 } else { 0.0 };
            for i in 0..5 {
                g[i] += r.weight * (p - y) * r.features[i];
            }
        }
        let wsum: f64 = rows.iter().map(|r| r.weight).sum();
        for i in 0..5 {
            g[i] = g[i] / wsum.max(1.0) + ridge * w[i];
        }
        // backtracking projected step
        let mut improved = false;
        for _ in 0..30 {
            let mut cand = w;
            for i in 0..5 {
                cand[i] -= step * g[i];
            }
            project(&mut cand);
            let c = obj(&cand);
            if c < best - 1e-12 {
                let delta: f64 = cand.iter().zip(&w).map(|(a, b)| (a - b).abs()).sum();
                w = cand;
                best = c;
                improved = true;
                step *= 1.5;
                if delta < 1e-9 {
                    improved = false; // converged
                }
                break;
            }
            step *= 0.5;
        }
        if !improved {
            break;
        }
    }
    FitReport {
        params: SensorParams::from_flat(w),
        nll: nll(rows, &SensorParams::from_flat(w)),
        iterations: unconstrained.iterations + iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rfid_model::{LogisticSensorModel, ReadRateModel};

    /// Synthesizes rows from known coefficients over a (d, θ) grid.
    fn synthesize(truth: &SensorParams, n_per_cell: usize, seed: u64) -> Vec<SensorRow> {
        let model = LogisticSensorModel::new(*truth);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        for di in 0..20 {
            for ti in 0..10 {
                let d = di as f64 * 0.4;
                let th = ti as f64 * 0.15;
                let p = model.p_read_dt(d, th);
                for _ in 0..n_per_cell {
                    rows.push(SensorRow::from_dt(d, th, rng.gen::<f64>() < p, 1.0));
                }
            }
        }
        rows
    }

    fn max_prob_gap(a: &SensorParams, b: &SensorParams) -> f64 {
        let ma = LogisticSensorModel::new(*a);
        let mb = LogisticSensorModel::new(*b);
        let mut worst = 0.0f64;
        for di in 0..30 {
            for ti in 0..15 {
                let d = di as f64 * 0.25;
                let th = ti as f64 * 0.1;
                worst = worst.max((ma.p_read_dt(d, th) - mb.p_read_dt(d, th)).abs());
            }
        }
        worst
    }

    #[test]
    fn solve5_identity() {
        let mut a = [[0.0; 5]; 5];
        for (i, row) in a.iter_mut().enumerate() {
            row[i] = 2.0;
        }
        let x = solve5(a, [2.0, 4.0, 6.0, 8.0, 10.0]).unwrap();
        assert_eq!(x, [1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn solve5_singular_is_none() {
        let a = [[1.0; 5]; 5];
        assert!(solve5(a, [1.0; 5]).is_none());
    }

    #[test]
    fn recovers_known_model_from_clean_data() {
        let truth = SensorParams::default_cone_like();
        let rows = synthesize(&truth, 60, 1);
        let init = SensorParams {
            a: [1.0, 0.0, 0.0],
            b: [0.0, 0.0],
        };
        let fit = fit_logistic(&rows, init, 1e-4, 100);
        let gap = max_prob_gap(&fit.params, &truth);
        assert!(gap < 0.08, "max probability gap {gap}");
    }

    #[test]
    fn warm_start_converges_faster() {
        let truth = SensorParams::default_cone_like();
        let rows = synthesize(&truth, 30, 2);
        let cold = fit_logistic(
            &rows,
            SensorParams {
                a: [0.0, 0.0, 0.0],
                b: [0.0, 0.0],
            },
            1e-4,
            100,
        );
        let warm = fit_logistic(&rows, truth, 1e-4, 100);
        assert!(warm.iterations <= cold.iterations);
        assert!(warm.nll <= cold.nll + 1e-6);
    }

    #[test]
    fn weighted_rows_dominate() {
        // two contradictory observations at the same geometry; the one
        // with overwhelming weight wins
        let mut rows = vec![
            SensorRow::from_dt(1.0, 0.0, true, 100.0),
            SensorRow::from_dt(1.0, 0.0, false, 1.0),
        ];
        // anchor the far field so the problem is identified
        rows.push(SensorRow::from_dt(10.0, 0.0, false, 10.0));
        let fit = fit_logistic(
            &rows,
            SensorParams {
                a: [0.0, 0.0, 0.0],
                b: [0.0, 0.0],
            },
            1e-3,
            100,
        );
        let m = LogisticSensorModel::new(fit.params);
        assert!(m.p_read_dt(1.0, 0.0) > 0.8, "p {}", m.p_read_dt(1.0, 0.0));
    }

    #[test]
    fn ridge_keeps_degenerate_data_finite() {
        // all rows identical: without a ridge the separator diverges
        let rows = vec![SensorRow::from_dt(1.0, 0.0, true, 1.0); 50];
        let fit = fit_logistic(
            &rows,
            SensorParams {
                a: [0.0, 0.0, 0.0],
                b: [0.0, 0.0],
            },
            1e-2,
            200,
        );
        for c in fit.params.as_flat() {
            assert!(c.is_finite());
            assert!(c.abs() < 100.0, "coefficient blew up: {c}");
        }
    }

    #[test]
    fn nll_lower_for_true_model() {
        let truth = SensorParams::default_cone_like();
        let rows = synthesize(&truth, 40, 3);
        let wrong = SensorParams {
            a: [0.0, -1.0, 0.0],
            b: [0.0, 0.0],
        };
        assert!(nll(&rows, &truth) < nll(&rows, &wrong));
    }
}
