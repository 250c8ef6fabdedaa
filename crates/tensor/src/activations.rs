//! Activation functions and their derivatives.
//!
//! Only what the paper's models need: ReLU for the CNN/MLP hidden layers,
//! numerically-stable softmax / log-softmax for the multinomial outputs,
//! and the smoothed hinge used by the SVM loss (the paper's Assumption 1
//! requires L-smooth per-sample losses, which the plain hinge is not).

/// ReLU applied in place.
#[inline]
pub fn relu_inplace(x: &mut [f64]) {
    for v in x.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Derivative mask of ReLU evaluated at the *pre*-activation values:
/// `grad[i] ← grad[i] * (pre[i] > 0)`.
#[inline]
pub fn relu_backward_inplace(grad: &mut [f64], pre: &[f64]) {
    debug_assert_eq!(grad.len(), pre.len());
    for (g, &p) in grad.iter_mut().zip(pre) {
        if p <= 0.0 {
            *g = 0.0;
        }
    }
}

/// Numerically-stable softmax in place (subtracts the max before
/// exponentiating).
pub fn softmax_inplace(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    fedprox_telemetry::span!("tensor", "softmax", "len" => x.len());
    let m = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in x.iter_mut() {
        *v = (*v - m).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in x.iter_mut() {
        *v *= inv;
    }
    crate::guard::check_finite("softmax", x);
}

/// Stable log-sum-exp of a slice.
pub fn log_sum_exp(x: &[f64]) -> f64 {
    let m = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m;
    }
    m + x.iter().map(|v| (v - m).exp()).sum::<f64>().ln()
}

/// Cross-entropy loss `-log softmax(logits)[target]` computed stably from
/// raw logits.
pub fn cross_entropy_from_logits(logits: &[f64], target: usize) -> f64 {
    debug_assert!(target < logits.len());
    log_sum_exp(logits) - logits[target]
}

/// Gradient of [`cross_entropy_from_logits`] w.r.t. the logits:
/// `softmax(logits) - e_target`, written into `out`.
pub fn cross_entropy_grad_from_logits(logits: &[f64], target: usize, out: &mut [f64]) {
    debug_assert_eq!(logits.len(), out.len());
    out.copy_from_slice(logits);
    softmax_inplace(out);
    out[target] -= 1.0;
}

/// Smoothed (quadratically-huberised) hinge loss with smoothing width
/// `gamma`: equals the plain hinge for margins below `1 - gamma`, zero above
/// `1`, and a quadratic blend between. Its gradient is `1/gamma`-Lipschitz,
/// satisfying the paper's L-smoothness assumption.
pub fn smooth_hinge(margin: f64, gamma: f64) -> f64 {
    debug_assert!(gamma > 0.0);
    if margin >= 1.0 {
        0.0
    } else if margin <= 1.0 - gamma {
        1.0 - margin - gamma / 2.0
    } else {
        (1.0 - margin) * (1.0 - margin) / (2.0 * gamma)
    }
}

/// Derivative of [`smooth_hinge`] with respect to the margin.
pub fn smooth_hinge_deriv(margin: f64, gamma: f64) -> f64 {
    debug_assert!(gamma > 0.0);
    if margin >= 1.0 {
        0.0
    } else if margin <= 1.0 - gamma {
        -1.0
    } else {
        -(1.0 - margin) / gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut x = vec![-1.0, 0.0, 2.5];
        relu_inplace(&mut x);
        assert_eq!(x, vec![0.0, 0.0, 2.5]);
    }

    #[test]
    fn relu_backward_masks() {
        let pre = [-1.0, 0.0, 3.0];
        let mut g = [5.0, 5.0, 5.0];
        relu_backward_inplace(&mut g, &pre);
        assert_eq!(g, [0.0, 0.0, 5.0]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let mut a = vec![1.0, 2.0, 3.0];
        let mut b = vec![1001.0, 1002.0, 1003.0];
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        let sum: f64 = a.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
        assert!(a[2] > a[1] && a[1] > a[0]);
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let mut x = vec![-1e308, 0.0, 1e3];
        softmax_inplace(&mut x);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let logits = [0.2, -1.0, 0.5];
        let ce = cross_entropy_from_logits(&logits, 2);
        let mut probs = logits.to_vec();
        softmax_inplace(&mut probs);
        assert!((ce - (-probs[2].ln())).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_grad_sums_to_zero() {
        let logits = [0.3, 0.7, -0.2, 1.5];
        let mut g = [0.0; 4];
        cross_entropy_grad_from_logits(&logits, 1, &mut g);
        assert!(g.iter().sum::<f64>().abs() < 1e-12);
        assert!(g[1] < 0.0);
    }

    #[test]
    fn cross_entropy_grad_is_finite_difference_of_loss() {
        let logits = [0.1, -0.4, 0.9];
        let mut g = [0.0; 3];
        cross_entropy_grad_from_logits(&logits, 0, &mut g);
        let h = 1e-6;
        for i in 0..3 {
            let mut lp = logits;
            let mut lm = logits;
            lp[i] += h;
            lm[i] -= h;
            let fd = (cross_entropy_from_logits(&lp, 0) - cross_entropy_from_logits(&lm, 0))
                / (2.0 * h);
            assert!((fd - g[i]).abs() < 1e-6, "coord {i}: fd={fd} g={}", g[i]);
        }
    }

    #[test]
    fn smooth_hinge_regions() {
        let gamma = 0.5;
        assert_eq!(smooth_hinge(2.0, gamma), 0.0);
        assert_eq!(smooth_hinge_deriv(2.0, gamma), 0.0);
        // Linear region.
        assert!((smooth_hinge(-1.0, gamma) - (2.0 - 0.25)).abs() < 1e-12);
        assert_eq!(smooth_hinge_deriv(-1.0, gamma), -1.0);
        // Quadratic region is C1 at both joints.
        let h = 1e-7;
        for m in [1.0 - gamma, 1.0] {
            let d_left = (smooth_hinge(m, gamma) - smooth_hinge(m - h, gamma)) / h;
            let d_right = (smooth_hinge(m + h, gamma) - smooth_hinge(m, gamma)) / h;
            assert!((d_left - d_right).abs() < 1e-5);
        }
    }

    #[test]
    fn smooth_hinge_deriv_is_fd() {
        let gamma = 0.3;
        let h = 1e-7;
        for &m in &[-2.0, 0.5, 0.8, 0.95, 1.5] {
            let fd = (smooth_hinge(m + h, gamma) - smooth_hinge(m - h, gamma)) / (2.0 * h);
            assert!((fd - smooth_hinge_deriv(m, gamma)).abs() < 1e-5);
        }
    }

    #[test]
    fn log_sum_exp_stable() {
        let v = [1000.0, 1000.0];
        assert!((log_sum_exp(&v) - (1000.0 + 2.0_f64.ln())).abs() < 1e-9);
    }
}
