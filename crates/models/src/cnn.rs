//! The paper's two-layer CNN (Section 5): two 5x5 "same" convolutions
//! (32 then 64 channels), each followed by ReLU and 2x2 max-pooling, then
//! a final softmax (fully-connected) layer — the architecture of McMahan
//! et al.'s FedAvg paper. Forward and backward passes are hand-written on
//! top of `fedprox_tensor::conv`.
//!
//! The layer sizes are configurable so tests and benchmarks can run a
//! scaled-down instance ([`CnnSpec::tiny`]) with identical code paths.

use crate::{GradScratch, LossModel};
use fedprox_data::Dataset;
use fedprox_tensor::activations::{
    cross_entropy_from_logits, cross_entropy_grad_from_logits, relu_backward_inplace,
    relu_inplace,
};
use fedprox_tensor::conv::{
    conv2d_backward, conv2d_forward, maxpool2d_backward, maxpool2d_forward, Conv2dSpec,
    ConvScratch, Pool2dSpec,
};
use fedprox_tensor::{kernel, vecops};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Static architecture description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CnnSpec {
    /// Input channels (1 for grayscale).
    pub in_ch: usize,
    /// Input image side length (must be divisible by 4).
    pub side: usize,
    /// Channels of the first convolution.
    pub conv1_ch: usize,
    /// Channels of the second convolution.
    pub conv2_ch: usize,
    /// Square kernel edge (odd; the paper uses 5).
    pub kernel: usize,
    /// Output classes.
    pub classes: usize,
    /// Optional dense hidden layer (ReLU) between the flattened pooled
    /// features and the softmax — McMahan et al.'s original CNN uses 512.
    /// `None` matches the paper's minimal description ("a softmax layer
    /// at the end").
    pub fc_hidden: Option<usize>,
}

impl CnnSpec {
    /// A preset by name: `paper`, `mcmahan`, `small`, `tiny` or
    /// `tiny-hidden`.
    pub fn preset(name: &str) -> Option<Self> {
        Some(match name {
            "paper" => Self::paper(),
            "mcmahan" => Self::paper_mcmahan(),
            "small" => Self::small(),
            "tiny" => Self::tiny(),
            "tiny-hidden" => Self::tiny_hidden(),
            _ => return None,
        })
    }

    /// The paper's architecture: 28x28x1 → 5x5x32 → pool → 5x5x64 → pool
    /// → softmax(10).
    pub fn paper() -> Self {
        CnnSpec {
            in_ch: 1,
            side: 28,
            conv1_ch: 32,
            conv2_ch: 64,
            kernel: 5,
            classes: 10,
            fc_hidden: None,
        }
    }

    /// McMahan et al.'s FedAvg CNN verbatim: like [`Self::paper`] plus a
    /// 512-unit ReLU dense layer before the softmax.
    pub fn paper_mcmahan() -> Self {
        CnnSpec { fc_hidden: Some(512), ..Self::paper() }
    }

    /// A scaled-down instance for fast tests (identical code paths).
    pub fn tiny() -> Self {
        CnnSpec {
            in_ch: 1,
            side: 8,
            conv1_ch: 4,
            conv2_ch: 6,
            kernel: 3,
            classes: 3,
            fc_hidden: None,
        }
    }

    /// Tiny instance *with* the dense hidden layer (tests both paths).
    pub fn tiny_hidden() -> Self {
        CnnSpec { fc_hidden: Some(10), ..Self::tiny() }
    }

    /// Moderate instance (28x28, 8 then 16 channels): the `small` spec preset.
    pub fn small() -> Self {
        CnnSpec {
            in_ch: 1,
            side: 28,
            conv1_ch: 8,
            conv2_ch: 16,
            kernel: 5,
            classes: 10,
            fc_hidden: None,
        }
    }

    fn validate(&self) {
        assert!(self.side.is_multiple_of(4), "side must be divisible by 4 (two 2x2 pools)");
        assert!(!self.kernel.is_multiple_of(2), "kernel must be odd for same-padding");
        assert!(self.classes >= 2);
    }
}

/// The two-conv-layer CNN model.
#[derive(Debug, Clone)]
pub struct Cnn {
    spec: CnnSpec,
    conv1: Conv2dSpec,
    pool1: Pool2dSpec,
    conv2: Conv2dSpec,
    pool2: Pool2dSpec,
    fc_in: usize,
    /// Hidden dense width (0 = direct softmax head).
    hidden: usize,
}

/// [`GradScratch`]-resident workspace: the per-model buffers plus the
/// chunk accumulator, tagged with the spec they were sized for.
struct CnnWs {
    spec: CnnSpec,
    ws: Workspace,
    acc: Vec<f64>,
}

/// Reusable forward/backward buffers; one per worker thread in batch mode.
struct Workspace {
    s1: ConvScratch,
    s2: ConvScratch,
    conv1_out: Vec<f64>,
    conv1_pre: Vec<f64>,
    pool1_out: Vec<f64>,
    pool1_arg: Vec<usize>,
    conv2_out: Vec<f64>,
    conv2_pre: Vec<f64>,
    pool2_out: Vec<f64>,
    pool2_arg: Vec<usize>,
    logits: Vec<f64>,
    dlogits: Vec<f64>,
    pre_h: Vec<f64>,
    act_h: Vec<f64>,
    dact_h: Vec<f64>,
    dpool2: Vec<f64>,
    dconv2: Vec<f64>,
    dpool1: Vec<f64>,
    dconv1: Vec<f64>,
    dinput: Vec<f64>,
}

impl Cnn {
    /// Build a CNN from its spec.
    pub fn new(spec: CnnSpec) -> Self {
        spec.validate();
        let conv1 = Conv2dSpec::same(spec.in_ch, spec.conv1_ch, spec.kernel, spec.side, spec.side);
        let pool1 =
            Pool2dSpec { channels: spec.conv1_ch, height: spec.side, width: spec.side, size: 2 };
        let half = spec.side / 2;
        let conv2 = Conv2dSpec::same(spec.conv1_ch, spec.conv2_ch, spec.kernel, half, half);
        let pool2 = Pool2dSpec { channels: spec.conv2_ch, height: half, width: half, size: 2 };
        let quarter = spec.side / 4;
        let fc_in = spec.conv2_ch * quarter * quarter;
        let hidden = spec.fc_hidden.unwrap_or(0);
        Cnn { spec, conv1, pool1, conv2, pool2, fc_in, hidden }
    }

    /// The architecture spec.
    pub fn spec(&self) -> &CnnSpec {
        &self.spec
    }

    // Parameter layout offsets:
    // [w1 | b1 | w2 | b2 | (wh | bh when hidden > 0) | wo | bo].
    fn w1_end(&self) -> usize {
        self.conv1.weight_len()
    }
    fn b1_end(&self) -> usize {
        self.w1_end() + self.spec.conv1_ch
    }
    fn w2_end(&self) -> usize {
        self.b1_end() + self.conv2.weight_len()
    }
    fn b2_end(&self) -> usize {
        self.w2_end() + self.spec.conv2_ch
    }
    fn wh_end(&self) -> usize {
        self.b2_end() + self.hidden * self.fc_in
    }
    fn bh_end(&self) -> usize {
        self.wh_end() + self.hidden
    }
    /// Input width of the softmax head (hidden width, or the flattened
    /// pooled features when no hidden layer).
    fn head_in(&self) -> usize {
        if self.hidden > 0 {
            self.hidden
        } else {
            self.fc_in
        }
    }
    fn wfc_end(&self) -> usize {
        self.bh_end() + self.spec.classes * self.head_in()
    }

    fn workspace(&self) -> Workspace {
        Workspace {
            s1: ConvScratch::new(&self.conv1),
            s2: ConvScratch::new(&self.conv2),
            conv1_out: vec![0.0; self.conv1.output_len()],
            conv1_pre: vec![0.0; self.conv1.output_len()],
            pool1_out: vec![0.0; self.pool1.output_len()],
            pool1_arg: vec![0; self.pool1.output_len()],
            conv2_out: vec![0.0; self.conv2.output_len()],
            conv2_pre: vec![0.0; self.conv2.output_len()],
            pool2_out: vec![0.0; self.pool2.output_len()],
            pool2_arg: vec![0; self.pool2.output_len()],
            logits: vec![0.0; self.spec.classes],
            dlogits: vec![0.0; self.spec.classes],
            pre_h: vec![0.0; self.hidden],
            act_h: vec![0.0; self.hidden],
            dact_h: vec![0.0; self.hidden],
            dpool2: vec![0.0; self.pool2.output_len()],
            dconv2: vec![0.0; self.conv2.output_len()],
            dpool1: vec![0.0; self.pool1.output_len()],
            dconv1: vec![0.0; self.conv1.output_len()],
            dinput: vec![0.0; self.conv1.input_len()],
        }
    }

    /// Forward pass; leaves intermediates in `ws` for the backward pass.
    fn forward(&self, w: &[f64], x: &[f64], ws: &mut Workspace) {
        debug_assert_eq!(x.len(), self.conv1.input_len(), "cnn: input length");
        let w1 = &w[..self.w1_end()];
        let b1 = &w[self.w1_end()..self.b1_end()];
        let w2 = &w[self.b1_end()..self.w2_end()];
        let b2 = &w[self.w2_end()..self.b2_end()];
        let wh = &w[self.b2_end()..self.wh_end()];
        let bh = &w[self.wh_end()..self.bh_end()];
        let wo = &w[self.bh_end()..self.wfc_end()];
        let bo = &w[self.wfc_end()..];

        conv2d_forward(&self.conv1, x, w1, b1, &mut ws.conv1_out, &mut ws.s1);
        ws.conv1_pre.copy_from_slice(&ws.conv1_out);
        relu_inplace(&mut ws.conv1_out);
        maxpool2d_forward(&self.pool1, &ws.conv1_out, &mut ws.pool1_out, &mut ws.pool1_arg);

        conv2d_forward(&self.conv2, &ws.pool1_out, w2, b2, &mut ws.conv2_out, &mut ws.s2);
        ws.conv2_pre.copy_from_slice(&ws.conv2_out);
        relu_inplace(&mut ws.conv2_out);
        maxpool2d_forward(&self.pool2, &ws.conv2_out, &mut ws.pool2_out, &mut ws.pool2_arg);

        let head_in = self.head_in();
        let head_src: &[f64] = if self.hidden > 0 {
            kernel::matvec_into(wh, self.hidden, self.fc_in, &ws.pool2_out, &mut ws.pre_h);
            for (p, &b) in ws.pre_h.iter_mut().zip(bh) {
                *p += b;
            }
            ws.act_h.copy_from_slice(&ws.pre_h);
            relu_inplace(&mut ws.act_h);
            &ws.act_h
        } else {
            &ws.pool2_out
        };
        kernel::matvec_into(wo, self.spec.classes, head_in, head_src, &mut ws.logits);
        for (l, &b) in ws.logits.iter_mut().zip(bo) {
            *l += b;
        }
    }

    /// Backward pass for the sample whose forward intermediates are in
    /// `ws` (`x` is the same input the forward saw); accumulates
    /// `scale * ∇f_i` into `out`.
    fn backward(
        &self,
        w: &[f64],
        x: &[f64],
        target: usize,
        scale: f64,
        out: &mut [f64],
        ws: &mut Workspace,
    ) {
        cross_entropy_grad_from_logits(&ws.logits, target, &mut ws.dlogits);
        vecops::scale(scale, &mut ws.dlogits);

        let w2 = &w[self.b1_end()..self.w2_end()];
        let wh = &w[self.b2_end()..self.wh_end()];
        let wo = &w[self.bh_end()..self.wfc_end()];
        let head_in = self.head_in();

        // Dense head (optionally through the hidden ReLU layer).
        if self.hidden > 0 {
            // Output layer grads + backprop into the hidden activations.
            {
                let (_, rest) = out.split_at_mut(self.bh_end());
                let (dwo, dbo) = rest.split_at_mut(self.wfc_end() - self.bh_end());
                for c in 0..self.spec.classes {
                    let g = ws.dlogits[c];
                    dbo[c] += g;
                    if g != 0.0 {
                        vecops::axpy(g, &ws.act_h, &mut dwo[c * head_in..(c + 1) * head_in]);
                    }
                }
            }
            // dact_h[h] = Σ_c dlogits[c] * wo[c, h].
            kernel::matvec_t_into(wo, self.spec.classes, head_in, &ws.dlogits, &mut ws.dact_h);
            relu_backward_inplace(&mut ws.dact_h, &ws.pre_h);
            // Hidden layer grads + backprop into the pooled features.
            {
                let (front, rest) = out.split_at_mut(self.wh_end());
                let (_, dwh) = front.split_at_mut(self.b2_end());
                let dbh = &mut rest[..self.hidden];
                for (j, &g) in ws.dact_h.iter().enumerate() {
                    dbh[j] += g;
                    if g != 0.0 {
                        vecops::axpy(
                            g,
                            &ws.pool2_out,
                            &mut dwh[j * self.fc_in..(j + 1) * self.fc_in],
                        );
                    }
                }
            }
            kernel::matvec_t_into(wh, self.hidden, self.fc_in, &ws.dact_h, &mut ws.dpool2);
        } else {
            {
                let (_, rest) = out.split_at_mut(self.bh_end());
                let (dwo, dbo) = rest.split_at_mut(self.wfc_end() - self.bh_end());
                for c in 0..self.spec.classes {
                    let g = ws.dlogits[c];
                    dbo[c] += g;
                    if g != 0.0 {
                        vecops::axpy(g, &ws.pool2_out, &mut dwo[c * head_in..(c + 1) * head_in]);
                    }
                }
            }
            kernel::matvec_t_into(wo, self.spec.classes, head_in, &ws.dlogits, &mut ws.dpool2);
        }

        // Pool2 → ReLU → Conv2.
        maxpool2d_backward(&self.pool2, &ws.dpool2, &ws.pool2_arg, &mut ws.dconv2);
        relu_backward_inplace(&mut ws.dconv2, &ws.conv2_pre);
        {
            let (front, _) = out.split_at_mut(self.b2_end());
            let (front1, dw2b2) = front.split_at_mut(self.b1_end());
            let _ = front1;
            let (dw2, db2) = dw2b2.split_at_mut(self.conv2.weight_len());
            conv2d_backward(
                &self.conv2,
                &ws.pool1_out,
                &ws.dconv2,
                w2,
                dw2,
                db2,
                &mut ws.dpool1,
                &mut ws.s2,
            );
        }

        // Pool1 → ReLU → Conv1.
        maxpool2d_backward(&self.pool1, &ws.dpool1, &ws.pool1_arg, &mut ws.dconv1);
        relu_backward_inplace(&mut ws.dconv1, &ws.conv1_pre);
        {
            let w1 = &w[..self.w1_end()];
            let (dw1b1, _) = out.split_at_mut(self.b1_end());
            let (dw1, db1) = dw1b1.split_at_mut(self.conv1.weight_len());
            conv2d_backward(
                &self.conv1,
                x,
                &ws.dconv1,
                w1,
                dw1,
                db1,
                &mut ws.dinput,
                &mut ws.s1,
            );
        }
    }
}

impl LossModel for Cnn {
    fn dim(&self) -> usize {
        self.wfc_end() + self.spec.classes
    }

    fn init_params(&self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = vec![0.0; self.dim()];
        let k2 = self.spec.kernel * self.spec.kernel;
        let (w1e, b1e, w2e, b2e) =
            (self.w1_end(), self.b1_end(), self.w2_end(), self.b2_end());
        fedprox_tensor::init::he_normal(&mut rng, &mut w[..w1e], self.spec.in_ch * k2);
        fedprox_tensor::init::he_normal(&mut rng, &mut w[b1e..w2e], self.spec.conv1_ch * k2);
        if self.hidden > 0 {
            let whe = self.wh_end();
            fedprox_tensor::init::he_normal(&mut rng, &mut w[b2e..whe], self.fc_in);
        }
        let (bhe, wfce) = (self.bh_end(), self.wfc_end());
        fedprox_tensor::init::xavier_uniform(
            &mut rng,
            &mut w[bhe..wfce],
            self.head_in(),
            self.spec.classes,
        );
        w
    }

    fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64 {
        let mut ws = self.workspace();
        self.forward(w, data.x(i), &mut ws);
        cross_entropy_from_logits(&ws.logits, data.class_of(i))
    }

    fn sample_grad_accum(&self, w: &[f64], data: &Dataset, i: usize, scale: f64, out: &mut [f64]) {
        let mut ws = self.workspace();
        self.forward(w, data.x(i), &mut ws);
        self.backward(w, data.x(i), data.class_of(i), scale, out, &mut ws);
    }

    /// The batch gradient, holding the conv workspace and the chunk
    /// accumulator in `scratch` across calls: a local solve of τ steps
    /// builds the (large) workspace once. From 4 samples on, chunks of 8
    /// accumulate separately and are added to `out` in index order.
    fn batch_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        indices: &[usize],
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) {
        assert_eq!(out.len(), self.dim(), "batch_grad_in: out length");
        let spec = self.spec;
        let dim = self.dim();
        let cws = scratch.model_ws::<CnnWs, _, _>(
            || CnnWs { spec, ws: self.workspace(), acc: vec![0.0; dim] },
            |cws| cws.spec == spec,
        );
        out.fill(0.0);
        if indices.is_empty() {
            return;
        }
        let scale = 1.0 / indices.len() as f64;
        if indices.len() >= 4 {
            for chunk_idx in indices.chunks(8) {
                cws.acc.fill(0.0);
                for &i in chunk_idx {
                    self.forward(w, data.x(i), &mut cws.ws);
                    self.backward(
                        w,
                        data.x(i),
                        data.class_of(i),
                        scale,
                        &mut cws.acc,
                        &mut cws.ws,
                    );
                }
                vecops::add_assign(out, &cws.acc);
            }
        } else {
            for &i in indices {
                self.forward(w, data.x(i), &mut cws.ws);
                self.backward(w, data.x(i), data.class_of(i), scale, out, &mut cws.ws);
            }
        }
    }

    fn predict(&self, w: &[f64], x: &[f64]) -> f64 {
        let mut ws = self.workspace();
        self.forward(w, x, &mut ws);
        let mut best = 0;
        for (c, &v) in ws.logits.iter().enumerate() {
            if v > ws.logits[best] {
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

    fn tiny_data(n: usize, spec: &CnnSpec, seed: u64) -> Dataset {
        let dim = spec.in_ch * spec.side * spec.side;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64).abs()
        };
        let mut f = Matrix::zeros(n, dim);
        let mut y = Vec::new();
        for i in 0..n {
            for j in 0..dim {
                f.row_mut(i)[j] = next();
            }
            y.push((i % spec.classes) as f64);
        }
        Dataset::new(f, y, spec.classes)
    }

    #[test]
    fn paper_spec_dim_matches_hand_count() {
        let cnn = Cnn::new(CnnSpec::paper());
        // conv1: 32*1*25 + 32; conv2: 64*32*25 + 64; fc: 10*(64*7*7) + 10.
        let want = 32 * 25 + 32 + 64 * 32 * 25 + 64 + 10 * 64 * 49 + 10;
        assert_eq!(cnn.dim(), want);
    }

    #[test]
    fn gradient_matches_finite_difference_tiny() {
        let spec = CnnSpec::tiny();
        let cnn = Cnn::new(spec);
        let data = tiny_data(3, &spec, 5);
        let w = cnn.init_params(2);
        // Stride through coordinates to keep runtime reasonable; covers
        // every parameter block (conv1 w/b, conv2 w/b, fc w/b).
        let r = check_batch_grad(&cnn, &w, &data, &[0, 1, 2], 1e-5, 7);
        assert!(r.max_rel_err < 1e-3, "rel err {} at {}", r.max_rel_err, r.worst_coord);
    }

    #[test]
    fn gradient_matches_finite_difference_under_every_kernel() {
        // The fused im2col-GEMM conv path (and the tiled head matvecs) get
        // their own finite-difference check: the FD loss probes and the
        // analytic gradient both run through the selected kernel, so this
        // validates the fused forward *and* backward, not just the
        // reference implementation.
        use fedprox_tensor::kernel::{with_kernel, Kernel};
        let spec = CnnSpec::tiny();
        let cnn = Cnn::new(spec);
        let data = tiny_data(3, &spec, 5);
        let w = cnn.init_params(2);
        for k in [Kernel::Reference, Kernel::Tiled] {
            let r = with_kernel(k, || check_batch_grad(&cnn, &w, &data, &[0, 1, 2], 1e-5, 7));
            assert!(
                r.max_rel_err < 1e-3,
                "{k:?}: rel err {} at {}",
                r.max_rel_err,
                r.worst_coord
            );
        }
    }

    #[test]
    fn batch_grad_is_kernel_invariant_bitwise() {
        // Stronger than the FD check: the whole CNN batch gradient must be
        // *bitwise* identical whichever kernel computed it.
        use fedprox_tensor::kernel::{with_kernel, Kernel};
        let spec = CnnSpec::tiny_hidden();
        let cnn = Cnn::new(spec);
        let data = tiny_data(6, &spec, 11);
        let w = cnn.init_params(3);
        let idx: Vec<usize> = (0..6).collect();
        let grad_under = |k: Kernel| {
            with_kernel(k, || {
                let mut g = vec![0.0; cnn.dim()];
                cnn.batch_grad(&w, &data, &idx, &mut g);
                g
            })
        };
        let reference = grad_under(Kernel::Reference);
        let got = grad_under(Kernel::Tiled);
        let same = got.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "tiled batch gradient diverged from reference bitwise");
    }

    #[test]
    fn mcmahan_spec_dim_matches_hand_count() {
        let cnn = Cnn::new(CnnSpec::paper_mcmahan());
        // paper() conv blocks + hidden 512: wh 512*3136 + bh 512,
        // head 10*512 + 10 instead of 10*3136 + 10.
        let want = 32 * 25 + 32 + 64 * 32 * 25 + 64 + 512 * 3136 + 512 + 10 * 512 + 10;
        assert_eq!(cnn.dim(), want);
    }

    #[test]
    fn gradient_matches_finite_difference_tiny_hidden() {
        // The dense-hidden path gets its own FD check.
        let spec = CnnSpec::tiny_hidden();
        let cnn = Cnn::new(spec);
        let data = tiny_data(3, &spec, 6);
        let mut w = cnn.init_params(2);
        // Nudge off ReLU kinks.
        for (j, v) in w.iter_mut().enumerate() {
            *v += 1e-3 * ((j % 13) as f64 - 6.0) / 6.0;
        }
        let r = check_batch_grad(&cnn, &w, &data, &[0, 1, 2], 1e-5, 7);
        assert!(r.max_rel_err < 1e-3, "rel err {} at {}", r.max_rel_err, r.worst_coord);
    }

    #[test]
    fn hidden_cnn_descends() {
        let spec = CnnSpec::tiny_hidden();
        let cnn = Cnn::new(spec);
        let data = tiny_data(9, &spec, 8);
        let mut w = cnn.init_params(1);
        let mut g = vec![0.0; cnn.dim()];
        let l0 = cnn.full_loss(&w, &data);
        for _ in 0..40 {
            cnn.full_grad(&w, &data, &mut g);
            vecops::axpy(-0.3, &g, &mut w);
        }
        assert!(cnn.full_loss(&w, &data) < l0, "hidden CNN failed to descend");
    }

    #[test]
    fn batch_grad_chunked_matches_sequential_samples() {
        let spec = CnnSpec::tiny();
        let cnn = Cnn::new(spec);
        let data = tiny_data(12, &spec, 9);
        let w = cnn.init_params(4);
        let idx: Vec<usize> = (0..12).collect();
        let mut chunked = vec![0.0; cnn.dim()];
        cnn.batch_grad(&w, &data, &idx, &mut chunked);
        let mut seq = vec![0.0; cnn.dim()];
        for &i in &idx {
            cnn.sample_grad_accum(&w, &data, i, 1.0 / 12.0, &mut seq);
        }
        let num = vecops::dist(&chunked, &seq);
        let den = vecops::norm(&seq).max(1e-12);
        assert!(num / den < 1e-10, "rel diff {}", num / den);
    }

    #[test]
    fn learns_to_separate_two_fixed_patterns() {
        // Two constant images (all-0.9 vs all-0.1) must be trivially
        // separable; a few GD steps should reach 100% accuracy.
        let spec = CnnSpec::tiny();
        let cnn = Cnn::new(spec);
        let dim = spec.in_ch * spec.side * spec.side;
        let mut f = Matrix::zeros(6, dim);
        let mut y = Vec::new();
        for i in 0..6 {
            let v = if i % 2 == 0 { 0.9 } else { 0.1 };
            for j in 0..dim {
                f.row_mut(i)[j] = v + 0.01 * ((i + j) % 3) as f64;
            }
            y.push((i % 2) as f64);
        }
        let data = Dataset::new(f, y, spec.classes);
        let mut w = cnn.init_params(1);
        let mut g = vec![0.0; cnn.dim()];
        for _ in 0..60 {
            cnn.full_grad(&w, &data, &mut g);
            vecops::axpy(-0.5, &g, &mut w);
        }
        assert_eq!(cnn.accuracy(&w, &data), 1.0, "loss={}", cnn.full_loss(&w, &data));
    }

    #[test]
    fn loss_at_init_close_to_log_classes() {
        let spec = CnnSpec::tiny();
        let cnn = Cnn::new(spec);
        let data = tiny_data(10, &spec, 3);
        let w = cnn.init_params(8);
        let l = cnn.full_loss(&w, &data);
        assert!((l - (spec.classes as f64).ln()).abs() < 1.0, "loss {l}");
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn rejects_bad_side() {
        let _ = Cnn::new(CnnSpec { side: 10, ..CnnSpec::tiny() });
    }
}
