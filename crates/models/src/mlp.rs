//! One-hidden-layer perceptron with ReLU — a light non-convex model used
//! by tests and examples where the full CNN would be overkill.
//!
//! Parameter layout (flat): `[W1 (hidden x input); b1; W2 (classes x hidden); b2]`.

use crate::{GradScratch, LossModel};
use fedprox_data::Dataset;
use fedprox_tensor::activations::{
    cross_entropy_from_logits, cross_entropy_grad_from_logits, relu_backward_inplace,
    relu_inplace,
};
use fedprox_tensor::{kernel, vecops};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Multilayer perceptron: input → hidden(ReLU) → classes(softmax).
#[derive(Debug, Clone)]
pub struct Mlp {
    input: usize,
    hidden: usize,
    classes: usize,
    /// L2 penalty on both weight matrices (not biases).
    pub l2: f64,
}

impl Mlp {
    /// Build an MLP with the given layer sizes.
    pub fn new(input: usize, hidden: usize, classes: usize) -> Self {
        assert!(hidden >= 1 && classes >= 2);
        Mlp { input, hidden, classes, l2: 0.0 }
    }

    /// Add L2 regularisation.
    pub fn with_l2(mut self, l2: f64) -> Self {
        assert!(l2 >= 0.0);
        self.l2 = l2;
        self
    }

    // Offsets into the flat parameter vector.
    fn w1_end(&self) -> usize {
        self.hidden * self.input
    }
    fn b1_end(&self) -> usize {
        self.w1_end() + self.hidden
    }
    fn w2_end(&self) -> usize {
        self.b1_end() + self.classes * self.hidden
    }

    /// Forward pass; fills `pre_hidden` (before ReLU), `act_hidden`
    /// (after), and `logits`.
    fn forward(
        &self,
        w: &[f64],
        x: &[f64],
        pre_hidden: &mut [f64],
        act_hidden: &mut [f64],
        logits: &mut [f64],
    ) {
        let w1 = &w[..self.w1_end()];
        let b1 = &w[self.w1_end()..self.b1_end()];
        let w2 = &w[self.b1_end()..self.w2_end()];
        let b2 = &w[self.w2_end()..];
        kernel::matvec_into(w1, self.hidden, self.input, x, pre_hidden);
        for (p, &b) in pre_hidden.iter_mut().zip(b1) {
            *p += b;
        }
        act_hidden.copy_from_slice(pre_hidden);
        relu_inplace(act_hidden);
        kernel::matvec_into(w2, self.classes, self.hidden, act_hidden, logits);
        for (l, &b) in logits.iter_mut().zip(b2) {
            *l += b;
        }
    }

    /// Core of [`LossModel::sample_grad_accum`] with caller-held buffers.
    /// Runs the exact operations of the allocating path in the same order.
    #[allow(clippy::too_many_arguments)]
    fn grad_into(
        &self,
        w: &[f64],
        x: &[f64],
        class: usize,
        scale: f64,
        out: &mut [f64],
        ws: &mut MlpWs,
    ) {
        self.forward(w, x, &mut ws.pre, &mut ws.act, &mut ws.logits);
        cross_entropy_grad_from_logits(&ws.logits, class, &mut ws.dlogits);

        let (w1e, b1e, w2e) = (self.w1_end(), self.b1_end(), self.w2_end());
        let w2 = &w[b1e..w2e];

        // Output layer grads.
        {
            let (dw2, db2) = out[b1e..].split_at_mut(w2e - b1e);
            for c in 0..self.classes {
                let g = scale * ws.dlogits[c];
                if g != 0.0 {
                    vecops::axpy(g, &ws.act, &mut dw2[c * self.hidden..(c + 1) * self.hidden]);
                }
                db2[c] += g;
            }
        }

        // Backprop into hidden: dact[h] = Σ_c dlogits[c] * w2[c,h].
        kernel::matvec_t_into(w2, self.classes, self.hidden, &ws.dlogits, &mut ws.dact);
        relu_backward_inplace(&mut ws.dact, &ws.pre);

        // Input layer grads.
        {
            let (dw1, db1) = out[..b1e].split_at_mut(w1e);
            for h in 0..self.hidden {
                let g = scale * ws.dact[h];
                if g != 0.0 {
                    vecops::axpy(g, x, &mut dw1[h * self.input..(h + 1) * self.input]);
                }
                db1[h] += g;
            }
        }

        if self.l2 > 0.0 {
            let s = scale * self.l2;
            let w1 = &w[..w1e];
            vecops::axpy(s, w1, &mut out[..w1e]);
            // Need disjoint borrows for w and out ranges: copy values.
            for j in b1e..w2e {
                out[j] += s * w[j];
            }
        }
    }
}

/// Reusable forward/backward buffers for [`Mlp`].
struct MlpWs {
    pre: Vec<f64>,
    act: Vec<f64>,
    logits: Vec<f64>,
    dlogits: Vec<f64>,
    dact: Vec<f64>,
    /// Chunk accumulator for the fixed-chunk batch reduction.
    acc: Vec<f64>,
}

impl MlpWs {
    fn new(hidden: usize, classes: usize, dim: usize) -> Self {
        MlpWs {
            pre: vec![0.0; hidden],
            act: vec![0.0; hidden],
            logits: vec![0.0; classes],
            dlogits: vec![0.0; classes],
            dact: vec![0.0; hidden],
            acc: vec![0.0; dim],
        }
    }

    fn fits(&self, hidden: usize, classes: usize, dim: usize) -> bool {
        self.pre.len() == hidden && self.logits.len() == classes && self.acc.len() == dim
    }
}

impl LossModel for Mlp {
    fn dim(&self) -> usize {
        self.w2_end() + self.classes
    }

    fn init_params(&self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = vec![0.0; self.dim()];
        let (w1e, b1e, w2e) = (self.w1_end(), self.b1_end(), self.w2_end());
        fedprox_tensor::init::he_normal(&mut rng, &mut w[..w1e], self.input);
        fedprox_tensor::init::xavier_uniform(
            &mut rng,
            &mut w[b1e..w2e],
            self.hidden,
            self.classes,
        );
        let _ = b1e;
        w
    }

    fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64 {
        let mut pre = vec![0.0; self.hidden];
        let mut act = vec![0.0; self.hidden];
        let mut logits = vec![0.0; self.classes];
        self.forward(w, data.x(i), &mut pre, &mut act, &mut logits);
        let ce = cross_entropy_from_logits(&logits, data.class_of(i));
        if self.l2 > 0.0 {
            let w1 = &w[..self.w1_end()];
            let w2 = &w[self.b1_end()..self.w2_end()];
            ce + self.l2 / 2.0 * (vecops::norm_sq(w1) + vecops::norm_sq(w2))
        } else {
            ce
        }
    }

    fn sample_grad_accum(&self, w: &[f64], data: &Dataset, i: usize, scale: f64, out: &mut [f64]) {
        let mut ws = MlpWs::new(self.hidden, self.classes, self.dim());
        self.grad_into(w, data.x(i), data.class_of(i), scale, out, &mut ws);
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
        let (hidden, classes, dim) = (self.hidden, self.classes, self.dim());
        let ws = scratch.model_ws::<MlpWs, _, _>(
            || MlpWs::new(hidden, classes, dim),
            |ws| ws.fits(hidden, classes, dim),
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
                    // Split the borrow: the chunk accumulator is disjoint
                    // from the forward/backward buffers.
                    let mut acc = std::mem::take(&mut ws.acc);
                    self.grad_into(w, data.x(i), data.class_of(i), scale, &mut acc, ws);
                    ws.acc = acc;
                }
                vecops::add_assign(out, &ws.acc);
            }
        } else {
            for &i in indices {
                self.grad_into(w, data.x(i), data.class_of(i), scale, out, ws);
            }
        }
    }

    fn predict(&self, w: &[f64], x: &[f64]) -> f64 {
        let mut pre = vec![0.0; self.hidden];
        let mut act = vec![0.0; self.hidden];
        let mut logits = vec![0.0; self.classes];
        self.forward(w, x, &mut pre, &mut act, &mut logits);
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
    use crate::gradcheck::check_batch_grad;
    use fedprox_tensor::Matrix;

    /// XOR-style data no linear model can fit.
    fn xor() -> Dataset {
        let pts =
            [([0.0, 0.0], 0.0), ([1.0, 1.0], 0.0), ([0.0, 1.0], 1.0), ([1.0, 0.0], 1.0)];
        let mut f = Matrix::zeros(4, 2);
        let mut y = Vec::new();
        for (i, (x, lab)) in pts.iter().enumerate() {
            f.row_mut(i).copy_from_slice(x);
            y.push(*lab);
        }
        Dataset::new(f, y, 2)
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let d = xor();
        let model = Mlp::new(2, 8, 2).with_l2(0.01);
        let mut w = model.init_params(11);
        // Perturb all parameters (including the zero-initialised biases)
        // away from ReLU kinks: the XOR input (0,0) with b1 = 0 puts the
        // pre-activation exactly at 0, where FD and the subgradient choice
        // legitimately disagree.
        for (j, v) in w.iter_mut().enumerate() {
            *v += 0.05 + 1e-3 * (j as f64).sin();
        }
        let r = check_batch_grad(&model, &w, &d, &[0, 1, 2, 3], 1e-6, 1);
        assert!(r.max_rel_err < 1e-4, "rel err {}", r.max_rel_err);
    }

    #[test]
    fn learns_xor() {
        let d = xor();
        let model = Mlp::new(2, 16, 2);
        let mut w = model.init_params(3);
        let mut g = vec![0.0; model.dim()];
        for _ in 0..4000 {
            model.full_grad(&w, &d, &mut g);
            vecops::axpy(-0.3, &g, &mut w);
        }
        assert_eq!(model.accuracy(&w, &d), 1.0, "loss={}", model.full_loss(&w, &d));
    }

    #[test]
    fn dim_layout() {
        let m = Mlp::new(3, 5, 2);
        assert_eq!(m.dim(), 5 * 3 + 5 + 2 * 5 + 2);
    }

    #[test]
    fn deterministic_init() {
        let m = Mlp::new(4, 6, 3);
        assert_eq!(m.init_params(9), m.init_params(9));
        assert_ne!(m.init_params(9), m.init_params(10));
    }
}
