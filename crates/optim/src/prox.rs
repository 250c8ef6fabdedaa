//! Proximal operators.
//!
//! The paper's surrogate objective (6) is `J_n(w) = F_n(w) + h_s(w)` with
//! `h_s(w) = μ/2 ‖w − w̄^{(s−1)}‖²` (eq. (7)); its proximal update (line 8
//! of Algorithm 1) uses `prox_{η h_s}`, which for this quadratic has the
//! closed form of eq. (10):
//!
//! ```text
//! prox_{η h_s}(x) = (η / (1 + ημ)) (μ w̄ + x/η) = (x + ημ w̄) / (1 + ημ)
//! ```

use fedprox_tensor::vecops;

/// A proximable regulariser `h` with value, gradient and prox.
pub trait Proximal: Send + Sync {
    /// `prox_{η h}(x)` written into `out` (`out` may alias `x` in length
    /// only; the buffers must be distinct slices).
    fn prox(&self, eta: f64, x: &[f64], out: &mut [f64]);

    /// `h(w)`.
    fn value(&self, w: &[f64]) -> f64;

    /// `out += scale · ∇h(w)`.
    fn grad_accum(&self, w: &[f64], scale: f64, out: &mut [f64]);
}

/// The zero regulariser: `prox` is the identity. Using it in the inner
/// solver turns the proximal step into a plain (variance-reduced) SGD
/// step — this is how the FedAvg baseline is expressed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroProx;

impl Proximal for ZeroProx {
    fn prox(&self, _eta: f64, x: &[f64], out: &mut [f64]) {
        out.copy_from_slice(x);
    }
    fn value(&self, _w: &[f64]) -> f64 {
        0.0
    }
    fn grad_accum(&self, _w: &[f64], _scale: f64, _out: &mut [f64]) {}
}

/// The paper's quadratic penalty `h_s(w) = μ/2 ‖w − anchor‖²` with its
/// closed-form prox (eq. (10)).
///
/// The anchor is any `AsRef<[f64]>`: an owned `Vec<f64>` (the default)
/// or a borrowed `&[f64]`, which lets the device update anchor at the
/// received global model without copying it every solve.
///
/// ```
/// use fedprox_optim::{Proximal, QuadraticProx};
/// let prox = QuadraticProx::new(2.0, vec![1.0, -1.0]);
/// let mut out = vec![0.0; 2];
/// prox.prox(0.25, &[3.0, 5.0], &mut out);
/// // eq. (10): prox(x) = (x + ημ·anchor) / (1 + ημ)
/// assert!((out[0] - (3.0 + 0.5) / 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct QuadraticProx<A = Vec<f64>> {
    /// Proximal penalty coefficient μ.
    pub mu: f64,
    /// The anchor `w̄^{(s−1)}` (the current global model).
    pub anchor: A,
}

impl<A: AsRef<[f64]>> QuadraticProx<A> {
    /// Build with penalty `mu` around `anchor`.
    pub fn new(mu: f64, anchor: A) -> Self {
        assert!(mu >= 0.0, "mu must be non-negative");
        QuadraticProx { mu, anchor }
    }
}

impl<A: AsRef<[f64]> + Send + Sync> Proximal for QuadraticProx<A> {
    fn prox(&self, eta: f64, x: &[f64], out: &mut [f64]) {
        let anchor = self.anchor.as_ref();
        debug_assert_eq!(x.len(), anchor.len());
        debug_assert_eq!(out.len(), x.len());
        let denom = 1.0 + eta * self.mu;
        let coef = eta * self.mu / denom;
        for ((o, &xi), &ai) in out.iter_mut().zip(x).zip(anchor) {
            *o = xi / denom + coef * ai;
        }
    }

    fn value(&self, w: &[f64]) -> f64 {
        self.mu / 2.0 * vecops::dist_sq(w, self.anchor.as_ref())
    }

    fn grad_accum(&self, w: &[f64], scale: f64, out: &mut [f64]) {
        let s = scale * self.mu;
        for ((o, &wi), &ai) in out.iter_mut().zip(w).zip(self.anchor.as_ref()) {
            *o += s * (wi - ai);
        }
    }
}

/// L1 regulariser `h(w) = strength · ‖w‖₁` with the soft-threshold prox.
///
/// The paper's machinery comes from ProxSVRG / ProxSARAH, whose canonical
/// *non-smooth* instance is exactly this: the inner solver works
/// unchanged with it, giving sparse federated models (see the
/// `sparse_regression` example). Note `grad_accum` uses the subgradient
/// `sign(w)` — fine for the θ-measurement diagnostics, not for smooth
/// optimisation of `h` itself.
#[derive(Debug, Clone, Copy)]
pub struct L1Prox {
    /// Regularisation strength.
    pub strength: f64,
}

impl L1Prox {
    /// Build with the given strength.
    pub fn new(strength: f64) -> Self {
        assert!(strength >= 0.0);
        L1Prox { strength }
    }
}

impl Proximal for L1Prox {
    fn prox(&self, eta: f64, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), x.len());
        let t = eta * self.strength;
        for (o, &xi) in out.iter_mut().zip(x) {
            *o = soft_threshold(xi, t);
        }
    }
    fn value(&self, w: &[f64]) -> f64 {
        self.strength * w.iter().map(|v| v.abs()).sum::<f64>()
    }
    fn grad_accum(&self, w: &[f64], scale: f64, out: &mut [f64]) {
        for (o, &wi) in out.iter_mut().zip(w) {
            *o += scale * self.strength * wi.signum();
        }
    }
}

/// Elastic-net regulariser `h(w) = l1 ‖w‖₁ + l2/2 ‖w‖²`, prox in closed
/// form (soft threshold then shrink).
#[derive(Debug, Clone, Copy)]
pub struct ElasticNetProx {
    /// L1 strength.
    pub l1: f64,
    /// L2 strength.
    pub l2: f64,
}

impl ElasticNetProx {
    /// Build with the given strengths.
    pub fn new(l1: f64, l2: f64) -> Self {
        assert!(l1 >= 0.0 && l2 >= 0.0);
        ElasticNetProx { l1, l2 }
    }
}

impl Proximal for ElasticNetProx {
    fn prox(&self, eta: f64, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(out.len(), x.len());
        let t = eta * self.l1;
        let shrink = 1.0 / (1.0 + eta * self.l2);
        for (o, &xi) in out.iter_mut().zip(x) {
            *o = soft_threshold(xi, t) * shrink;
        }
    }
    fn value(&self, w: &[f64]) -> f64 {
        self.l1 * w.iter().map(|v| v.abs()).sum::<f64>()
            + self.l2 / 2.0 * vecops::norm_sq(w)
    }
    fn grad_accum(&self, w: &[f64], scale: f64, out: &mut [f64]) {
        for (o, &wi) in out.iter_mut().zip(w) {
            *o += scale * (self.l1 * wi.signum() + self.l2 * wi);
        }
    }
}

/// Composite of the paper's quadratic anchor penalty and an L1 term:
/// `h(w) = μ/2 ‖w − w̄‖² + l1 ‖w‖₁`. The prox remains closed-form: the
/// quadratic part shifts/shrinks, then soft-threshold — giving *sparse
/// FedProxVR* local updates (a natural extension the paper's framework
/// admits because h only needs to be proximable). The anchor is owned
/// or borrowed, as for [`QuadraticProx`].
#[derive(Debug, Clone)]
pub struct SparseQuadraticProx<A = Vec<f64>> {
    /// Proximal penalty μ.
    pub mu: f64,
    /// L1 strength.
    pub l1: f64,
    /// The anchor `w̄^{(s−1)}`.
    pub anchor: A,
}

impl<A: AsRef<[f64]>> SparseQuadraticProx<A> {
    /// Build with penalty `mu`, sparsity `l1`, around `anchor`.
    pub fn new(mu: f64, l1: f64, anchor: A) -> Self {
        assert!(mu >= 0.0 && l1 >= 0.0);
        SparseQuadraticProx { mu, l1, anchor }
    }
}

impl<A: AsRef<[f64]> + Send + Sync> Proximal for SparseQuadraticProx<A> {
    fn prox(&self, eta: f64, x: &[f64], out: &mut [f64]) {
        // argmin_w  μ/2‖w−a‖² + l1‖w‖₁ + ‖w−x‖²/(2η)
        // = soft_threshold((x + ημ a)/(1+ημ), η l1/(1+ημ)).
        let anchor = self.anchor.as_ref();
        debug_assert_eq!(x.len(), anchor.len());
        let denom = 1.0 + eta * self.mu;
        let t = eta * self.l1 / denom;
        for ((o, &xi), &ai) in out.iter_mut().zip(x).zip(anchor) {
            let centred = (xi + eta * self.mu * ai) / denom;
            *o = soft_threshold(centred, t);
        }
    }
    fn value(&self, w: &[f64]) -> f64 {
        self.mu / 2.0 * vecops::dist_sq(w, self.anchor.as_ref())
            + self.l1 * w.iter().map(|v| v.abs()).sum::<f64>()
    }
    fn grad_accum(&self, w: &[f64], scale: f64, out: &mut [f64]) {
        for ((o, &wi), &ai) in out.iter_mut().zip(w).zip(self.anchor.as_ref()) {
            *o += scale * (self.mu * (wi - ai) + self.l1 * wi.signum());
        }
    }
}

/// Scalar soft-threshold `sign(x) · max(|x| − t, 0)`.
#[inline]
pub fn soft_threshold(x: f64, t: f64) -> f64 {
    if x > t {
        x - t
    } else if x < -t {
        x + t
    } else {
        0.0
    }
}

/// Generic iterative prox that solves the defining minimisation (eq. (9))
/// `argmin_w h(w) + ‖w − x‖²/(2η)` by gradient descent. Only used to
/// cross-validate closed forms in tests and the ablation bench — the
/// training loop always uses the closed form.
#[derive(Debug, Clone)]
pub struct IterativeProx<P> {
    inner: P,
    /// Gradient-descent iterations.
    pub iters: usize,
    /// Gradient-descent step size.
    pub lr: f64,
}

impl<P: Proximal> IterativeProx<P> {
    /// Wrap `inner`, solving its prox numerically.
    pub fn new(inner: P, iters: usize, lr: f64) -> Self {
        IterativeProx { inner, iters, lr }
    }
}

impl<P: Proximal> Proximal for IterativeProx<P> {
    fn prox(&self, eta: f64, x: &[f64], out: &mut [f64]) {
        out.copy_from_slice(x);
        let mut grad = vec![0.0; x.len()];
        for _ in 0..self.iters {
            grad.fill(0.0);
            self.inner.grad_accum(out, 1.0, &mut grad);
            // + (w − x)/η
            for ((g, &wi), &xi) in grad.iter_mut().zip(out.iter()).zip(x) {
                *g += (wi - xi) / eta;
            }
            vecops::axpy(-self.lr, &grad, out);
        }
    }

    fn value(&self, w: &[f64]) -> f64 {
        self.inner.value(w)
    }

    fn grad_accum(&self, w: &[f64], scale: f64, out: &mut [f64]) {
        self.inner.grad_accum(w, scale, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_prox_is_identity() {
        let p = ZeroProx;
        let x = vec![1.0, -2.0, 3.0];
        let mut out = vec![0.0; 3];
        p.prox(0.5, &x, &mut out);
        assert_eq!(out, x);
        assert_eq!(p.value(&x), 0.0);
        let mut g = vec![0.0; 3];
        p.grad_accum(&x, 1.0, &mut g);
        assert_eq!(g, vec![0.0; 3]);
    }

    #[test]
    fn quadratic_prox_closed_form_matches_eq10() {
        // eq. (10): prox(x) = η/(1+ημ) (μ w̄ + x/η).
        let anchor = vec![1.0, -1.0];
        let p = QuadraticProx::new(2.0, anchor.clone());
        let x = vec![3.0, 5.0];
        let eta = 0.25;
        let mut out = vec![0.0; 2];
        p.prox(eta, &x, &mut out);
        for i in 0..2 {
            let want = eta / (1.0 + eta * 2.0) * (2.0 * anchor[i] + x[i] / eta);
            assert!((out[i] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn quadratic_prox_fixed_point_is_anchor() {
        // prox of the anchor itself is the anchor (gradient of h is 0).
        let anchor = vec![0.5, 2.0, -3.0];
        let p = QuadraticProx::new(1.7, anchor.clone());
        let mut out = vec![0.0; 3];
        p.prox(0.3, &anchor, &mut out);
        for (o, a) in out.iter().zip(&anchor) {
            assert!((o - a).abs() < 1e-12);
        }
    }

    #[test]
    fn quadratic_prox_nonexpansive() {
        let p = QuadraticProx::new(3.0, vec![0.0; 4]);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = vec![-1.0, 0.5, 2.0, 8.0];
        let mut px = vec![0.0; 4];
        let mut py = vec![0.0; 4];
        p.prox(0.4, &x, &mut px);
        p.prox(0.4, &y, &mut py);
        assert!(vecops::dist(&px, &py) <= vecops::dist(&x, &y) + 1e-12);
    }

    #[test]
    fn mu_zero_reduces_to_identity() {
        let p = QuadraticProx::new(0.0, vec![9.0; 3]);
        let x = vec![1.0, 2.0, 3.0];
        let mut out = vec![0.0; 3];
        p.prox(0.7, &x, &mut out);
        assert_eq!(out, x);
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(2.0, 0.0), 2.0);
    }

    #[test]
    fn l1_prox_sparsifies() {
        let p = L1Prox::new(2.0);
        let x = vec![3.0, -0.1, 0.4, -5.0];
        let mut out = vec![0.0; 4];
        p.prox(0.5, &x, &mut out); // threshold = 1.0
        assert_eq!(out, vec![2.0, 0.0, 0.0, -4.0]);
        assert_eq!(p.value(&[1.0, -2.0]), 6.0);
    }

    #[test]
    fn l1_prox_minimises_objective() {
        let p = L1Prox::new(1.5);
        let x = vec![2.0, -0.3, 0.9];
        let eta = 0.4;
        let mut star = vec![0.0; 3];
        p.prox(eta, &x, &mut star);
        let obj = |w: &[f64]| p.value(w) + vecops::dist_sq(w, &x) / (2.0 * eta);
        // Probe random perturbations.
        for k in 0..50 {
            let probe: Vec<f64> = star
                .iter()
                .enumerate()
                .map(|(i, &s)| s + 0.1 * (((k * 7 + i * 13) % 11) as f64 - 5.0) / 5.0)
                .collect();
            assert!(obj(&star) <= obj(&probe) + 1e-12);
        }
    }

    #[test]
    fn elastic_net_prox_combines_threshold_and_shrink() {
        let p = ElasticNetProx::new(1.0, 2.0);
        let x = vec![3.0];
        let mut out = vec![0.0];
        let eta = 0.5;
        p.prox(eta, &x, &mut out);
        // soft(3, 0.5) = 2.5; shrink by 1/(1+1) = 0.5 → 1.25.
        assert!((out[0] - 1.25).abs() < 1e-12);
        // Value matches manual.
        assert!((p.value(&[2.0]) - (2.0 + 4.0)).abs() < 1e-12);
        // l1 = 0 reduces to pure shrink.
        let q = ElasticNetProx::new(0.0, 2.0);
        q.prox(eta, &x, &mut out);
        assert!((out[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sparse_quadratic_prox_special_cases() {
        let anchor = vec![1.0, -1.0];
        // l1 = 0 reduces to QuadraticProx.
        let sparse0 = SparseQuadraticProx::new(2.0, 0.0, anchor.clone());
        let quad = QuadraticProx::new(2.0, anchor.clone());
        let x = vec![4.0, -3.0];
        let mut a = vec![0.0; 2];
        let mut b = vec![0.0; 2];
        sparse0.prox(0.3, &x, &mut a);
        quad.prox(0.3, &x, &mut b);
        // Same map, different evaluation order — equal within rounding.
        for (u, v) in a.iter().zip(&b) {
            assert!((u - v).abs() < 1e-12);
        }
        // mu = 0 reduces to L1Prox.
        let sparse1 = SparseQuadraticProx::new(0.0, 2.0, anchor.clone());
        let l1 = L1Prox::new(2.0);
        sparse1.prox(0.3, &x, &mut a);
        l1.prox(0.3, &x, &mut b);
        assert_eq!(a, b);
        // Full composite minimises its objective (FD probe).
        let p = SparseQuadraticProx::new(1.5, 0.8, anchor);
        let eta = 0.4;
        let mut star = vec![0.0; 2];
        p.prox(eta, &x, &mut star);
        let obj = |w: &[f64]| p.value(w) + vecops::dist_sq(w, &x) / (2.0 * eta);
        for k in 0..40 {
            let probe: Vec<f64> = star
                .iter()
                .enumerate()
                .map(|(i, &s)| s + 0.05 * (((k * 3 + i * 17) % 9) as f64 - 4.0))
                .collect();
            assert!(obj(&star) <= obj(&probe) + 1e-12);
        }
    }

    #[test]
    fn iterative_prox_agrees_with_closed_form() {
        let anchor = vec![1.0, -2.0, 0.0];
        let closed = QuadraticProx::new(1.5, anchor.clone());
        let iterative = IterativeProx::new(QuadraticProx::new(1.5, anchor), 500, 0.05);
        let x = vec![4.0, 4.0, 4.0];
        let mut a = vec![0.0; 3];
        let mut b = vec![0.0; 3];
        closed.prox(0.2, &x, &mut a);
        iterative.prox(0.2, &x, &mut b);
        assert!(vecops::dist(&a, &b) < 1e-6, "closed {a:?} vs iterative {b:?}");
    }

    #[test]
    fn value_and_grad_consistent() {
        let p = QuadraticProx::new(2.0, vec![1.0, 1.0]);
        let w = vec![2.0, 0.0];
        // h = 1.0 * (1 + 1) = 2
        assert!((p.value(&w) - 2.0).abs() < 1e-12);
        let mut g = vec![0.0; 2];
        p.grad_accum(&w, 1.0, &mut g);
        assert_eq!(g, vec![2.0, -2.0]);
        // FD check.
        let h = 1e-6;
        for i in 0..2 {
            let mut wp = w.clone();
            let mut wm = w.clone();
            wp[i] += h;
            wm[i] -= h;
            let fd = (p.value(&wp) - p.value(&wm)) / (2.0 * h);
            assert!((fd - g[i]).abs() < 1e-5);
        }
    }
}
