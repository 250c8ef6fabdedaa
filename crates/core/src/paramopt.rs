//! Section 4.3: choosing FedProxVR's parameters to minimise training time.
//!
//! Problem (23) minimises
//!
//! ```text
//! f(β, μ) = (1/Θ) (1 + γ (5β² − 4β)/8)
//! ```
//!
//! over β > 3 and μ with Θ > 0, where θ² is eliminated via eq. (22) and
//! `γ = d_cmp / d_com` is the compute/communication weight factor. The
//! problem is non-convex but two-dimensional, so (as the paper notes) a
//! numerical method finds the global optimum: a dense log-grid scan
//! followed by Nelder–Mead refinement in an unconstrained
//! reparameterisation `(log(β − 3), log(μ − λ))`.

use crate::theory::{federated_factor, Lemma1, TheoryParams};
use serde::{Deserialize, Serialize};

/// The optimum of problem (23) for one γ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimalParams {
    /// Weight factor γ = d_cmp / d_com this solution corresponds to.
    pub gamma: f64,
    /// Optimal step-size parameter β*.
    pub beta: f64,
    /// Optimal proximal penalty μ*.
    pub mu: f64,
    /// Implied local accuracy θ (eq. (22)).
    pub theta: f64,
    /// Implied local iterations τ (eq. (16)).
    pub tau: f64,
    /// The federated factor Θ at the optimum.
    pub capital_theta: f64,
    /// Objective value (relative training time, up to the Δ/ε scale).
    pub objective: f64,
}

/// Evaluate the objective of problem (23); `None` when infeasible
/// (β ≤ 3, μ̃ ≤ 0, θ ∉ (0,1), or Θ ≤ 0).
pub fn objective(
    base: &TheoryParams,
    gamma: f64,
    beta: f64,
    mu: f64,
) -> Option<(f64, f64, f64)> {
    let p = TheoryParams { mu, ..*base };
    let theta_sq = Lemma1::theta_sq_at_upper(&p, beta)?;
    if !(0.0..1.0).contains(&theta_sq) {
        return None;
    }
    let theta = theta_sq.sqrt();
    let cap = federated_factor(&p, theta);
    if cap <= 0.0 {
        return None;
    }
    let tau_term = (5.0 * beta * beta - 4.0 * beta) / 8.0;
    Some(((1.0 + gamma * tau_term) / cap, theta, cap))
}

/// Solve problem (23) for one γ. `base.mu` is ignored (μ is a decision
/// variable); `base.lambda`, `base.smoothness`, `base.sigma_bar_sq` are
/// the problem constants.
pub fn solve(base: &TheoryParams, gamma: f64) -> Option<OptimalParams> {
    // Coarse log-grid scan.
    let beta_grid = log_grid(3.0 + 1e-3, 3.0, 2000.0, 80);
    let mu_grid = log_grid(base.lambda + 1e-3, base.lambda, 500.0, 80);
    let mut best: Option<(f64, f64, f64)> = None; // (obj, beta, mu)
    for &beta in &beta_grid {
        for &mu in &mu_grid {
            if let Some((obj, _, _)) = objective(base, gamma, beta, mu) {
                if best.is_none_or(|(b, _, _)| obj < b) {
                    best = Some((obj, beta, mu));
                }
            }
        }
    }
    let (_, b0, m0) = best?;

    // Nelder–Mead in (x, y) = (ln(β−3), ln(μ−λ)).
    let f = |x: f64, y: f64| -> f64 {
        let beta = 3.0 + x.exp();
        let mu = base.lambda + y.exp();
        objective(base, gamma, beta, mu).map_or(f64::INFINITY, |(o, _, _)| o)
    };
    let (x, y) = nelder_mead_2d(f, (b0 - 3.0).ln(), (m0 - base.lambda).ln(), 0.3, 400);
    let beta = 3.0 + x.exp();
    let mu = base.lambda + y.exp();
    let (obj, theta, cap) = objective(base, gamma, beta, mu)?;
    Some(OptimalParams {
        gamma,
        beta,
        mu,
        theta,
        tau: Lemma1::tau_upper_sarah(beta),
        capital_theta: cap,
        objective: obj,
    })
}

/// Log-spaced grid of offsets above `anchor`, from `lo` to `anchor + span`.
fn log_grid(lo: f64, anchor: f64, span: f64, points: usize) -> Vec<f64> {
    let start = (lo - anchor).max(1e-9).ln();
    let end = span.ln();
    (0..points)
        .map(|i| {
            let t = i as f64 / (points - 1) as f64;
            anchor + (start + t * (end - start)).exp()
        })
        .collect()
}

/// Minimal 2-D Nelder–Mead; returns the best vertex after `iters`
/// iterations. `scale` sets the initial simplex edge.
fn nelder_mead_2d(
    f: impl Fn(f64, f64) -> f64,
    x0: f64,
    y0: f64,
    scale: f64,
    iters: usize,
) -> (f64, f64) {
    let mut simplex = [
        (x0, y0, f(x0, y0)),
        (x0 + scale, y0, f(x0 + scale, y0)),
        (x0, y0 + scale, f(x0, y0 + scale)),
    ];
    for _ in 0..iters {
        simplex.sort_by(|a, b| a.2.total_cmp(&b.2));
        // Destructure the sorted 3-simplex: best, second, worst.
        let [best, second, worst] = &mut simplex;
        let (bx, by, bf) = *best;
        let (sx, sy, sf) = *second;
        let (wx, wy, wf) = *worst;
        // Centroid of the two best.
        let cx = 0.5 * (bx + sx);
        let cy = 0.5 * (by + sy);
        // Reflection.
        let rx = cx + (cx - wx);
        let ry = cy + (cy - wy);
        let rf = f(rx, ry);
        if rf < bf {
            // Expansion.
            let ex = cx + 2.0 * (cx - wx);
            let ey = cy + 2.0 * (cy - wy);
            let ef = f(ex, ey);
            *worst = if ef < rf { (ex, ey, ef) } else { (rx, ry, rf) };
        } else if rf < sf {
            *worst = (rx, ry, rf);
        } else {
            // Contraction.
            let kx = cx + 0.5 * (wx - cx);
            let ky = cy + 0.5 * (wy - cy);
            let kf = f(kx, ky);
            if kf < wf {
                *worst = (kx, ky, kf);
            } else {
                // Shrink toward the best.
                for v in [&mut *second, &mut *worst] {
                    v.0 = bx + 0.5 * (v.0 - bx);
                    v.1 = by + 0.5 * (v.1 - by);
                    v.2 = f(v.0, v.1);
                }
            }
        }
        // Converged?
        let spread = (worst.2 - best.2).abs();
        if spread < 1e-12 * (1.0 + best.2.abs()) {
            break;
        }
    }
    simplex.sort_by(|a, b| a.2.total_cmp(&b.2));
    let [(x, y, _), _, _] = simplex;
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(sigma_sq: f64) -> TheoryParams {
        TheoryParams { smoothness: 1.0, lambda: 0.5, mu: f64::NAN, sigma_bar_sq: sigma_sq }
    }

    #[test]
    fn objective_infeasible_cases() {
        let b = base(1.0);
        assert!(objective(&b, 0.01, 2.0, 5.0).is_none()); // β ≤ 3
        assert!(objective(&b, 0.01, 10.0, 0.4).is_none()); // μ̃ ≤ 0
    }

    #[test]
    fn solve_finds_feasible_optimum() {
        let o = solve(&base(1.0), 1e-3).expect("optimum exists");
        assert!(o.beta > 3.0);
        assert!(o.mu > 0.5);
        assert!(o.capital_theta > 0.0);
        assert!((0.0..1.0).contains(&o.theta));
        assert!(o.objective.is_finite() && o.objective > 0.0);
        // τ matches eq. (16).
        assert!((o.tau - Lemma1::tau_upper_sarah(o.beta)).abs() < 1e-9);
    }

    #[test]
    fn small_gamma_prefers_large_beta() {
        // Fig. 1 observation: expensive communication (small γ) ⇒ large
        // optimal β and τ; cheap communication ⇒ small β.
        let cheap_comm = solve(&base(1.0), 1.0).unwrap();
        let dear_comm = solve(&base(1.0), 1e-4).unwrap();
        assert!(
            dear_comm.beta > 2.0 * cheap_comm.beta,
            "γ=1e-4 β={} vs γ=1 β={}",
            dear_comm.beta,
            cheap_comm.beta
        );
        assert!(dear_comm.tau > cheap_comm.tau);
    }

    #[test]
    fn heterogeneity_decreases_theta_and_factor() {
        // Fig. 1 observation: larger σ̄² ⇒ smaller θ* and smaller Θ*.
        let lo = solve(&base(0.1), 1e-2).unwrap();
        let hi = solve(&base(10.0), 1e-2).unwrap();
        assert!(hi.theta < lo.theta, "θ: {} vs {}", hi.theta, lo.theta);
        assert!(hi.capital_theta < lo.capital_theta);
    }

    #[test]
    fn refinement_not_worse_than_grid() {
        // The Nelder–Mead step must never return something worse than a
        // fresh grid scan at moderate resolution.
        let b = base(1.0);
        let gamma = 5e-3;
        let o = solve(&b, gamma).unwrap();
        let mut best_grid = f64::INFINITY;
        for i in 0..60 {
            for j in 0..60 {
                let beta = 3.0 + 0.2 * ((i as f64 / 59.0) * 8.0).exp();
                let mu = 0.5 + 0.05 * ((j as f64 / 59.0) * 8.0).exp();
                if let Some((v, _, _)) = objective(&b, gamma, beta, mu) {
                    best_grid = best_grid.min(v);
                }
            }
        }
        assert!(o.objective <= best_grid * 1.01, "{} vs grid {}", o.objective, best_grid);
    }

    #[test]
    fn nelder_mead_minimises_quadratic() {
        let (x, y) = nelder_mead_2d(|x, y| (x - 2.0).powi(2) + (y + 1.0).powi(2), 0.0, 0.0, 0.5, 300);
        assert!((x - 2.0).abs() < 1e-4);
        assert!((y + 1.0).abs() < 1e-4);
    }
}
