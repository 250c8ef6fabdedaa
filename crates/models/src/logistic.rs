//! Multinomial logistic regression — the paper's convex model
//! (used on Synthetic, MNIST and Fashion-MNIST with 100 devices).
//!
//! Parameters are a `classes x features` weight matrix plus a bias vector,
//! flattened row-major as `[W; b]`. The per-sample loss is cross-entropy
//! over the softmax of the logits, optionally with an L2 term.

use crate::{GradScratch, LossModel};
use fedprox_data::Dataset;
use fedprox_tensor::activations::{cross_entropy_from_logits, cross_entropy_grad_from_logits};
use fedprox_tensor::{kernel, vecops};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Multinomial (softmax) logistic regression.
#[derive(Debug, Clone)]
pub struct MultinomialLogistic {
    features: usize,
    classes: usize,
    /// L2 penalty coefficient (applied to weights only, not biases).
    pub l2: f64,
}

impl MultinomialLogistic {
    /// Model over `features` inputs and `classes` outputs.
    pub fn new(features: usize, classes: usize) -> Self {
        assert!(classes >= 2, "need at least two classes");
        MultinomialLogistic { features, classes, l2: 0.0 }
    }

    /// Add L2 regularisation on the weights.
    pub fn with_l2(mut self, l2: f64) -> Self {
        assert!(l2 >= 0.0);
        self.l2 = l2;
        self
    }

    /// Number of input features.
    pub fn features(&self) -> usize {
        self.features
    }

    #[inline]
    fn weights_len(&self) -> usize {
        self.classes * self.features
    }

    /// Compute the logits `W x + b` into `out` (len = classes).
    pub fn logits(&self, w: &[f64], x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(w.len(), self.dim());
        debug_assert_eq!(x.len(), self.features);
        debug_assert_eq!(out.len(), self.classes);
        let wl = self.weights_len();
        kernel::matvec_into(&w[..wl], self.classes, self.features, x, out);
        for (o, &b) in out.iter_mut().zip(&w[wl..]) {
            *o += b;
        }
    }

    /// Core of [`LossModel::sample_grad_accum`] with caller-held buffers
    /// (`logits`/`dlogits`, len = classes). Runs the exact operations of
    /// the allocating path in the same order — only buffer provenance
    /// differs.
    #[allow(clippy::too_many_arguments)]
    fn grad_into(
        &self,
        w: &[f64],
        x: &[f64],
        class: usize,
        scale: f64,
        out: &mut [f64],
        logits: &mut [f64],
        dlogits: &mut [f64],
    ) {
        self.logits(w, x, logits);
        cross_entropy_grad_from_logits(logits, class, dlogits);
        let wl = self.weights_len();
        let (dw, db) = out.split_at_mut(wl);
        for c in 0..self.classes {
            let g = scale * dlogits[c];
            if g != 0.0 {
                vecops::axpy(g, x, &mut dw[c * self.features..(c + 1) * self.features]);
            }
            db[c] += g;
        }
        if self.l2 > 0.0 {
            vecops::axpy(scale * self.l2, &w[..wl], dw);
        }
    }
}

/// Reusable forward/backward buffers for [`MultinomialLogistic`].
struct LogisticWs {
    logits: Vec<f64>,
    dlogits: Vec<f64>,
    /// Chunk accumulator for the fixed-chunk batch reduction.
    acc: Vec<f64>,
}

impl LossModel for MultinomialLogistic {
    fn dim(&self) -> usize {
        self.classes * (self.features + 1)
    }

    fn init_params(&self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = vec![0.0; self.dim()];
        let wl = self.weights_len();
        fedprox_tensor::init::xavier_uniform(&mut rng, &mut w[..wl], self.features, self.classes);
        // Biases start at zero.
        w
    }

    fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64 {
        let mut logits = vec![0.0; self.classes];
        self.logits(w, data.x(i), &mut logits);
        let ce = cross_entropy_from_logits(&logits, data.class_of(i));
        if self.l2 > 0.0 {
            ce + self.l2 / 2.0 * vecops::norm_sq(&w[..self.weights_len()])
        } else {
            ce
        }
    }

    fn sample_grad_accum(&self, w: &[f64], data: &Dataset, i: usize, scale: f64, out: &mut [f64]) {
        let mut logits = vec![0.0; self.classes];
        let mut dlogits = vec![0.0; self.classes];
        self.grad_into(w, data.x(i), data.class_of(i), scale, out, &mut logits, &mut dlogits);
    }

    fn batch_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        indices: &[usize],
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) {
        assert_eq!(out.len(), self.dim(), "batch_grad_in: out length");
        let (classes, dim) = (self.classes, self.dim());
        let ws = scratch.model_ws::<LogisticWs, _, _>(
            || LogisticWs {
                logits: vec![0.0; classes],
                dlogits: vec![0.0; classes],
                acc: vec![0.0; dim],
            },
            |ws| ws.logits.len() == classes && ws.acc.len() == dim,
        );
        out.fill(0.0);
        if indices.is_empty() {
            return;
        }
        let scale = 1.0 / indices.len() as f64;
        if indices.len() >= crate::BATCH_CHUNK_THRESHOLD {
            for chunk in indices.chunks(crate::BATCH_CHUNK) {
                ws.acc.fill(0.0);
                for &i in chunk {
                    self.grad_into(
                        w,
                        data.x(i),
                        data.class_of(i),
                        scale,
                        &mut ws.acc,
                        &mut ws.logits,
                        &mut ws.dlogits,
                    );
                }
                vecops::add_assign(out, &ws.acc);
            }
        } else {
            for &i in indices {
                self.grad_into(
                    w,
                    data.x(i),
                    data.class_of(i),
                    scale,
                    out,
                    &mut ws.logits,
                    &mut ws.dlogits,
                );
            }
        }
    }

    fn predict(&self, w: &[f64], x: &[f64]) -> f64 {
        let mut logits = vec![0.0; self.classes];
        self.logits(w, x, &mut logits);
        let mut best = 0;
        for (c, &v) in logits.iter().enumerate() {
            if v > logits[best] {
                best = c;
            }
        }
        best as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::assert_grad_ok;
    use fedprox_tensor::Matrix;

    /// Three well-separated Gaussian-ish clusters in 2-D.
    fn clusters() -> Dataset {
        let centers = [[4.0, 0.0], [-2.0, 3.5], [-2.0, -3.5]];
        let mut f = Matrix::zeros(30, 2);
        let mut y = Vec::new();
        for i in 0..30 {
            let c = i % 3;
            let jitter = [((i * 7 % 5) as f64 - 2.0) * 0.2, ((i * 13 % 5) as f64 - 2.0) * 0.2];
            f.row_mut(i)[0] = centers[c][0] + jitter[0];
            f.row_mut(i)[1] = centers[c][1] + jitter[1];
            y.push(c as f64);
        }
        Dataset::new(f, y, 3)
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let d = clusters();
        for l2 in [0.0, 0.1] {
            let model = MultinomialLogistic::new(2, 3).with_l2(l2);
            let w = model.init_params(7);
            assert_grad_ok(&model, &w, &d, &[0, 1, 2, 5, 10], 1e-4);
        }
    }

    #[test]
    fn dim_layout() {
        let m = MultinomialLogistic::new(5, 3);
        assert_eq!(m.dim(), 3 * 6);
        assert_eq!(m.classes, 3);
        assert_eq!(m.features(), 5);
    }

    #[test]
    fn learns_clusters() {
        let d = clusters();
        let model = MultinomialLogistic::new(2, 3);
        let mut w = model.init_params(1);
        let mut g = vec![0.0; model.dim()];
        for _ in 0..800 {
            model.full_grad(&w, &d, &mut g);
            vecops::axpy(-0.5, &g, &mut w);
        }
        assert_eq!(model.accuracy(&w, &d), 1.0);
        assert!(model.full_loss(&w, &d) < 0.2);
    }

    #[test]
    fn loss_at_zero_params_is_log_classes() {
        let d = clusters();
        let model = MultinomialLogistic::new(2, 3);
        let w = vec![0.0; model.dim()];
        assert!((model.full_loss(&w, &d) - 3.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn grad_bias_components_sum_to_zero_per_sample() {
        // Softmax gradient over logits sums to zero, so bias grads do too.
        let d = clusters();
        let model = MultinomialLogistic::new(2, 3);
        let w = model.init_params(3);
        let mut g = vec![0.0; model.dim()];
        model.sample_grad_accum(&w, &d, 0, 1.0, &mut g);
        let bias_sum: f64 = g[model.weights_len()..].iter().sum();
        assert!(bias_sum.abs() < 1e-12);
    }

    #[test]
    fn predict_returns_valid_class() {
        let d = clusters();
        let model = MultinomialLogistic::new(2, 3);
        let w = model.init_params(5);
        for i in 0..d.len() {
            let p = model.predict(&w, d.x(i));
            assert!((0.0..3.0).contains(&p) && p.fract() == 0.0);
        }
    }
}
