//! The paper's convergence theory, executable.
//!
//! * **Lemma 1** — conditions on the step-size parameter β and local
//!   iteration count τ under which a device reaches a θ-accurate local
//!   solution (eq. (11)): lower bound (55), SARAH upper bound (13),
//!   SVRG upper bound (14) with its auxiliary constant `a` (65),
//! * **eq. (15)/(16)** — the smallest feasible β (and the τ it implies)
//!   found by root-solving lower = upper,
//! * **eq. (22)** — θ² as a function of (β, μ) once τ is pinned to its
//!   upper bound,
//! * **Theorem 1** — the federated factor Θ and the `O(Δ/(ΘT))`
//!   stationarity bound.

use serde::{Deserialize, Serialize};

/// Problem constants of Assumption 1 plus the control knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TheoryParams {
    /// Per-sample smoothness L.
    pub smoothness: f64,
    /// Bounded non-convexity λ (−λ-strong convexity of F_n).
    pub lambda: f64,
    /// Proximal penalty μ.
    pub mu: f64,
    /// Data heterogeneity σ̄².
    pub sigma_bar_sq: f64,
}

impl TheoryParams {
    /// The paper's Fig. 1 constants: L = 1, λ = 0.5.
    pub fn fig1(mu: f64, sigma_bar_sq: f64) -> Self {
        TheoryParams { smoothness: 1.0, lambda: 0.5, mu, sigma_bar_sq }
    }

    /// Effective strong convexity μ̃ = μ − λ of the surrogate J_n.
    pub fn mu_tilde(&self) -> f64 {
        self.mu - self.lambda
    }

    /// Whether the surrogate is strongly convex (`μ̃ > 0`), required by
    /// every bound below.
    pub fn valid(&self) -> bool {
        self.mu_tilde() > 0.0 && self.smoothness > 0.0
    }
}

/// Lemma 1: local-convergence conditions.
#[derive(Debug, Clone, Copy)]
pub struct Lemma1;

impl Lemma1 {
    /// Lower bound on τ (eq. (55)):
    /// `τ ≥ 3 (β²L² + μ²) / (θ² μ̃ L (β − 3))`. Requires β > 3 and μ̃ > 0;
    /// returns `None` otherwise.
    pub fn tau_lower(p: &TheoryParams, beta: f64, theta: f64) -> Option<f64> {
        if beta <= 3.0 || !p.valid() || theta <= 0.0 {
            return None;
        }
        let l = p.smoothness;
        Some(3.0 * (beta * beta * l * l + p.mu * p.mu)
            / (theta * theta * p.mu_tilde() * l * (beta - 3.0)))
    }

    /// SARAH upper bound on τ (eq. (13)): `τ ≤ (5β² − 4β)/8`.
    pub fn tau_upper_sarah(beta: f64) -> f64 {
        (5.0 * beta * beta - 4.0 * beta) / 8.0
    }

    /// The smallest SVRG auxiliary constant `a` satisfying
    /// `a − 4 ≥ 4 √(a (τ+1))` (eq. (65)). Substituting `x = √a` gives
    /// `x² − 4√(τ+1) x − 4 ≥ 0`, whose positive root is
    /// `x* = 2√(τ+1) + 2√(τ+2)`.
    pub fn svrg_a_min(tau: usize) -> f64 {
        let t1 = (tau as f64 + 1.0).sqrt();
        let t2 = (tau as f64 + 2.0).sqrt();
        let x = 2.0 * t1 + 2.0 * t2;
        x * x
    }

    /// SVRG upper bound on τ (eq. (14)): the largest τ with
    /// `τ ≤ (5β² − 4β)/(8 a_min(τ)) − 2` (the bound is self-referential
    /// through `a`, so we scan downward from the SARAH bound).
    pub fn tau_upper_svrg(beta: f64) -> f64 {
        let cap = Self::tau_upper_sarah(beta).floor();
        if cap < 0.0 {
            return -1.0;
        }
        let mut tau = cap as i64;
        while tau >= 0 {
            let rhs = (5.0 * beta * beta - 4.0 * beta) / (8.0 * Self::svrg_a_min(tau as usize))
                - 2.0;
            if (tau as f64) <= rhs {
                return tau as f64;
            }
            tau -= 1;
        }
        -1.0
    }

    /// Solve eq. (15): the smallest β > 3 with
    /// `tau_lower(β, θ) = tau_upper_sarah(β)`; eq. (16)'s τ follows.
    /// Returns `None` when no crossing exists below `beta_cap`.
    pub fn beta_min_sarah(p: &TheoryParams, theta: f64, beta_cap: f64) -> Option<BetaStar> {
        if !p.valid() || theta <= 0.0 {
            return None;
        }
        // g(β) = upper − lower: negative just above 3 (lower → ∞), and
        // grows ~ β² − O(β) for large β, so a unique sign change exists
        // whenever g(beta_cap) > 0. Bisection.
        let g = |beta: f64| -> f64 {
            Self::tau_upper_sarah(beta) - Self::tau_lower(p, beta, theta).unwrap_or(f64::MAX)
        };
        let mut lo = 3.0 + 1e-9;
        let mut hi = beta_cap;
        if g(hi) < 0.0 {
            return None;
        }
        // Find a definitely-negative starting point near 3.
        if g(lo) > 0.0 {
            // Already feasible arbitrarily close to 3 — extremely large θ.
            let beta = lo;
            let tau = Self::tau_upper_sarah(beta);
            return Some(BetaStar { beta, tau });
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if g(mid) >= 0.0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let beta = hi;
        Some(BetaStar { beta, tau: Self::tau_upper_sarah(beta) })
    }

    /// Inverse of eq. (55): the smallest local accuracy θ a device can
    /// certify with `tau` local iterations,
    /// `θ_min = √(3 (β²L² + μ²) / (τ μ̃ L (β − 3)))`. Solving eq. (55)
    /// for θ instead of τ gives the health monitor a *lower* edge for the measured
    /// accuracy ratio: a θ below this was not earned by Lemma 1's
    /// budget. Requires β > 3, μ̃ > 0, τ ≥ 1; returns `None` otherwise.
    pub fn theta_min_for_tau(p: &TheoryParams, beta: f64, tau: usize) -> Option<f64> {
        if beta <= 3.0 || !p.valid() || tau == 0 {
            return None;
        }
        let l = p.smoothness;
        Some(
            (3.0 * (beta * beta * l * l + p.mu * p.mu)
                / (tau as f64 * p.mu_tilde() * l * (beta - 3.0)))
                .sqrt(),
        )
    }

    /// eq. (22): θ² when τ is pinned to the SARAH upper bound:
    /// `θ² = 24 (β²L² + μ²) / (μ̃ L (5β² − 4β)(β − 3))`.
    pub fn theta_sq_at_upper(p: &TheoryParams, beta: f64) -> Option<f64> {
        if beta <= 3.0 || !p.valid() {
            return None;
        }
        let l = p.smoothness;
        Some(
            24.0 * (beta * beta * l * l + p.mu * p.mu)
                / (p.mu_tilde() * l * (5.0 * beta * beta - 4.0 * beta) * (beta - 3.0)),
        )
    }
}

/// Output of the eq. (15)/(16) solve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BetaStar {
    /// The smallest feasible β.
    pub beta: f64,
    /// The matching τ (eq. (16)).
    pub tau: f64,
}

/// Theorem 1's federated factor Θ:
/// `Θ = (1/μ)(1 − θ√(2(1+σ̄²)) − (2L/μ̃)√((1+θ²)(1+σ̄²))
///        − (2Lμ/μ̃²)(1+θ²)(1+σ̄²))`.
///
/// ```
/// use fedprox_core::theory::{federated_factor, theta_max, TheoryParams};
/// let p = TheoryParams { smoothness: 1.0, lambda: 0.5, mu: 60.0, sigma_bar_sq: 0.1 };
/// // A tiny local accuracy keeps Θ positive…
/// assert!(federated_factor(&p, 0.01) > 0.0);
/// // …while θ beyond Remark 2(1)'s cap can only hurt.
/// let t = theta_max(0.1);
/// assert!(federated_factor(&p, t * 1.5) < federated_factor(&p, 0.01));
/// ```
pub fn federated_factor(p: &TheoryParams, theta: f64) -> f64 {
    let l = p.smoothness;
    let mt = p.mu_tilde();
    let s = 1.0 + p.sigma_bar_sq;
    let t2 = 1.0 + theta * theta;
    (1.0 - theta * (2.0 * s).sqrt()
        - 2.0 * l / mt * (t2 * s).sqrt()
        - 2.0 * l * p.mu / (mt * mt) * t2 * s)
        / p.mu
}

/// Remark 2(1): the largest θ compatible with Θ > 0 from the first
/// negative term alone: `θ < (2(1+σ̄²))^{−1/2}`.
pub fn theta_max(sigma_bar_sq: f64) -> f64 {
    1.0 / (2.0 * (1.0 + sigma_bar_sq)).sqrt()
}

/// eq. (17): the bound on the averaged stationarity gap after `t` rounds.
pub fn stationarity_bound(delta0: f64, capital_theta: f64, t: usize) -> Option<f64> {
    if capital_theta <= 0.0 || t == 0 {
        return None;
    }
    Some(delta0 / (capital_theta * t as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(mu: f64) -> TheoryParams {
        TheoryParams::fig1(mu, 1.0)
    }

    #[test]
    fn mu_tilde_and_validity() {
        assert_eq!(p(2.0).mu_tilde(), 1.5);
        assert!(p(2.0).valid());
        assert!(!p(0.4).valid()); // μ < λ
    }

    #[test]
    fn tau_lower_requires_beta_above_3() {
        assert!(Lemma1::tau_lower(&p(2.0), 3.0, 0.5).is_none());
        assert!(Lemma1::tau_lower(&p(2.0), 2.0, 0.5).is_none());
        assert!(Lemma1::tau_lower(&p(2.0), 5.0, 0.5).is_some());
    }

    #[test]
    fn tau_lower_scales_as_inverse_theta_sq() {
        // Remark 1(2): τ = Ω(1/θ²).
        let a = Lemma1::tau_lower(&p(2.0), 10.0, 0.4).unwrap();
        let b = Lemma1::tau_lower(&p(2.0), 10.0, 0.2).unwrap();
        assert!((b / a - 4.0).abs() < 1e-9);
    }

    #[test]
    fn tau_lower_increases_with_mu_asymptotically() {
        // Remark 1(4): the lower bound is Ω(μ). The bound is
        // non-monotone for small μ (μ̃ = μ − λ grows from zero faster
        // than μ²), but in the large-μ regime μ²/μ̃ ≈ μ dominates.
        let a = Lemma1::tau_lower(&p(20.0), 10.0, 0.5).unwrap();
        let b = Lemma1::tau_lower(&p(200.0), 10.0, 0.5).unwrap();
        let c = Lemma1::tau_lower(&p(2000.0), 10.0, 0.5).unwrap();
        assert!(b > a, "{b} <= {a}");
        assert!(c > b, "{c} <= {b}");
        // And roughly linearly: ×10 in μ ⇒ ~×10 in the bound.
        assert!((c / b) > 5.0 && (c / b) < 20.0, "ratio {}", c / b);
    }

    #[test]
    fn upper_bounds_grow_quadratically() {
        assert_eq!(Lemma1::tau_upper_sarah(4.0), (5.0 * 16.0 - 16.0) / 8.0);
        let r = Lemma1::tau_upper_sarah(100.0) / Lemma1::tau_upper_sarah(10.0);
        assert!(r > 90.0 && r < 110.0); // ~β² scaling
    }

    #[test]
    fn svrg_a_min_satisfies_inequality() {
        for tau in [0usize, 1, 5, 20, 100] {
            let a = Lemma1::svrg_a_min(tau);
            assert!(
                a - 4.0 >= 4.0 * (a * (tau as f64 + 1.0)).sqrt() - 1e-9,
                "tau={tau} a={a}"
            );
            // And it is tight: slightly smaller a fails.
            let a2 = a * 0.99;
            assert!(a2 - 4.0 < 4.0 * (a2 * (tau as f64 + 1.0)).sqrt());
        }
    }

    #[test]
    fn svrg_upper_bound_stricter_than_sarah() {
        // Remark 1(5): SVRG admits fewer local iterations at equal β.
        for beta in [10.0, 20.0, 50.0] {
            let svrg = Lemma1::tau_upper_svrg(beta);
            let sarah = Lemma1::tau_upper_sarah(beta);
            assert!(svrg < sarah, "beta={beta}: svrg {svrg} vs sarah {sarah}");
        }
    }

    #[test]
    fn svrg_upper_consistent_with_its_a() {
        let beta = 30.0;
        let tau = Lemma1::tau_upper_svrg(beta);
        assert!(tau >= 0.0);
        let a = Lemma1::svrg_a_min(tau as usize);
        assert!(tau <= (5.0 * beta * beta - 4.0 * beta) / (8.0 * a) - 2.0 + 1e-9);
    }

    #[test]
    fn beta_min_solves_eq15() {
        let pp = p(2.0);
        let theta = 0.3;
        let bs = Lemma1::beta_min_sarah(&pp, theta, 1e4).expect("solution");
        assert!(bs.beta > 3.0);
        let lo = Lemma1::tau_lower(&pp, bs.beta, theta).unwrap();
        let hi = Lemma1::tau_upper_sarah(bs.beta);
        assert!((lo - hi).abs() / hi < 1e-6, "lower {lo} vs upper {hi}");
        assert!((bs.tau - hi).abs() < 1e-9);
        // Past β*, a feasible τ window opens: pick τ inside
        // [lower(β*+1), upper(β*+1)].
        let beta2 = bs.beta + 1.0;
        let lo2 = Lemma1::tau_lower(&pp, beta2, theta).unwrap();
        let hi2 = Lemma1::tau_upper_sarah(beta2);
        assert!(lo2 < hi2, "window did not open: [{lo2}, {hi2}]");
        let tau2 = lo2.ceil() as usize;
        assert!(tau2 as f64 <= hi2, "τ = {tau2} outside the window");
    }

    #[test]
    fn smaller_theta_needs_larger_beta_min() {
        let pp = p(2.0);
        let b1 = Lemma1::beta_min_sarah(&pp, 0.5, 1e5).unwrap().beta;
        let b2 = Lemma1::beta_min_sarah(&pp, 0.1, 1e5).unwrap().beta;
        assert!(b2 > b1, "{b2} <= {b1}");
    }

    #[test]
    fn theta_min_inverts_tau_lower() {
        let pp = p(2.0);
        let beta = 10.0;
        // θ_min(τ_lower(θ)) = θ for any admissible θ (exact inverse).
        for theta in [0.1, 0.3, 0.5] {
            let tau = Lemma1::tau_lower(&pp, beta, theta).unwrap().ceil() as usize;
            let back = Lemma1::theta_min_for_tau(&pp, beta, tau).unwrap();
            // τ was rounded up, so the recovered θ is at most the original.
            assert!(back <= theta + 1e-12, "theta={theta} back={back}");
            // And with the un-rounded τ it matches to fp precision.
            let tau_exact = Lemma1::tau_lower(&pp, beta, theta).unwrap();
            let exact = (3.0 * (beta * beta + 4.0) / (tau_exact * 1.5 * (beta - 3.0))).sqrt();
            assert!((exact - theta).abs() < 1e-9);
        }
        // More local work certifies a tighter (smaller) θ.
        let a = Lemma1::theta_min_for_tau(&pp, beta, 10).unwrap();
        let b = Lemma1::theta_min_for_tau(&pp, beta, 40).unwrap();
        assert!((a / b - 2.0).abs() < 1e-9, "Ω(1/√τ) scaling: {a} vs {b}");
        // Guard rails.
        assert!(Lemma1::theta_min_for_tau(&pp, 3.0, 10).is_none());
        assert!(Lemma1::theta_min_for_tau(&pp, 10.0, 0).is_none());
        assert!(Lemma1::theta_min_for_tau(&TheoryParams::fig1(0.4, 1.0), 10.0, 10).is_none());
    }

    #[test]
    fn theta_sq_at_upper_matches_manual_eq22() {
        let pp = p(2.0);
        let beta = 8.0;
        let got = Lemma1::theta_sq_at_upper(&pp, beta).unwrap();
        let want = 24.0 * (64.0 + 4.0) / (1.5 * 1.0 * (5.0 * 64.0 - 32.0) * 5.0);
        assert!((got - want).abs() < 1e-12);
        // Consistency: plugging θ from (22) back into the lemma makes the
        // bounds coincide.
        let theta = got.sqrt();
        let lo = Lemma1::tau_lower(&pp, beta, theta).unwrap();
        let hi = Lemma1::tau_upper_sarah(beta);
        assert!((lo - hi).abs() / hi < 1e-9);
    }

    #[test]
    fn federated_factor_positive_for_good_params_negative_for_bad() {
        // Large μ and tiny θ ⇒ Θ > 0.
        let good = TheoryParams::fig1(60.0, 0.1);
        assert!(federated_factor(&good, 0.01) > 0.0);
        // θ beyond θ_max kills the factor.
        let t = theta_max(0.1) * 1.5;
        assert!(federated_factor(&good, t) < federated_factor(&good, 0.01));
        // μ barely above λ ⇒ μ̃ tiny ⇒ Θ < 0.
        let bad = TheoryParams::fig1(0.6, 0.1);
        assert!(federated_factor(&bad, 0.01) < 0.0);
    }

    #[test]
    fn theta_max_decreases_with_heterogeneity() {
        // Remark 2(1): more heterogeneity ⇒ smaller admissible θ.
        assert!(theta_max(10.0) < theta_max(1.0));
        assert!(theta_max(1.0) < theta_max(0.0));
        assert!((theta_max(0.0) - 1.0 / 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stationarity_bound_decays_as_one_over_t() {
        let b10 = stationarity_bound(1.0, 0.2, 10).unwrap();
        let b100 = stationarity_bound(1.0, 0.2, 100).unwrap();
        assert!((b10 / b100 - 10.0).abs() < 1e-12);
        assert!(stationarity_bound(1.0, 0.2, 0).is_none());
    }

}
