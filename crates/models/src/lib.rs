//! Loss models with hand-written gradients.
//!
//! The paper's experiments use a **multinomial logistic regression** for
//! the convex task and a **two-layer CNN** (McMahan et al.'s architecture)
//! for the non-convex task; its System Model section also names linear
//! regression and SVM losses as examples. All of them are implemented here
//! against the [`LossModel`] trait, which exposes exactly what Algorithm 1
//! consumes: per-sample losses `f_i(w)` and gradients `∇f_i(w)` over a
//! flat parameter vector `w ∈ R^l`.
//!
//! Gradients are verified against central finite differences in each
//! model's tests (`gradcheck`).

// fedlint: allow(clippy-allow-sync) — crate-wide: model construction is R1-exempt; shape mismatches are programming errors caught at build time
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod cnn;
pub mod estimate;
pub mod gradcheck;
pub mod linreg;
pub mod logistic;
pub mod mlp;
pub mod svm;

use fedprox_data::Dataset;
use std::any::Any;

pub use cnn::{Cnn, CnnSpec};
pub use linreg::LinearRegression;
pub use logistic::MultinomialLogistic;
pub use mlp::Mlp;
pub use svm::SmoothedSvm;

/// Reusable workspace for repeated gradient evaluations.
///
/// The inner loop of Algorithm 1 evaluates `O(τ)` batch gradients per
/// local solve; without a workspace each evaluation allocates its chunk
/// accumulators and per-sample forward/backward buffers from scratch.
/// Callers that loop (the optim estimator, the local solver) hold one
/// `GradScratch` and pass it to [`LossModel::batch_grad_in`] /
/// [`LossModel::full_grad_in`], making the loop O(1) allocations.
///
/// The buffer-reusing paths are **bit-identical** to the allocating ones:
/// they run the same floating-point operations in the same order, only
/// the buffers' provenance changes (verified by the differential tests in
/// `crates/optim/tests/differential.rs` and the workspace-reuse tests).
#[derive(Default)]
pub struct GradScratch {
    /// Index buffer reused by full-gradient evaluations.
    all_indices: Vec<usize>,
    /// Per-chunk accumulator for the default chunked batch reduction.
    chunk_acc: Vec<f64>,
    /// Model-specific forward/backward workspace (downcast on use).
    model_ws: Option<Box<dyn Any + Send>>,
}

impl GradScratch {
    /// Fresh, empty scratch. Buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        GradScratch::default()
    }

    /// Borrow the model-specific workspace, (re)building it when absent,
    /// of a different type (scratch reused across models), or rejected by
    /// `valid` (e.g. sized for different model dimensions).
    pub fn model_ws<T, B, V>(&mut self, build: B, valid: V) -> &mut T
    where
        T: Any + Send,
        B: FnOnce() -> T,
        V: Fn(&T) -> bool,
    {
        let rebuild = match self.model_ws.as_ref().and_then(|b| b.downcast_ref::<T>()) {
            Some(ws) => !valid(ws),
            None => true,
        };
        if rebuild {
            self.model_ws = Some(Box::new(build()));
        }
        match self.model_ws.as_mut().and_then(|b| b.downcast_mut::<T>()) {
            Some(ws) => ws,
            // A value of type T was installed on the line above.
            None => unreachable!("GradScratch::model_ws: workspace just installed"),
        }
    }
}

impl std::fmt::Debug for GradScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GradScratch")
            .field("all_indices", &self.all_indices.len())
            .field("chunk_acc", &self.chunk_acc.len())
            .field("model_ws", &self.model_ws.is_some())
            .finish()
    }
}

/// Cloning yields a *fresh* scratch: the buffers are pure caches, and the
/// model workspace is not itself cloneable (`Box<dyn Any>`).
impl Clone for GradScratch {
    fn clone(&self) -> Self {
        GradScratch::new()
    }
}

// `Box<dyn Any>` is not structurally unwind-safe, but a scratch observed
// after a panic cannot leak broken invariants: every buffer is overwritten
// before use and `model_ws` is validated (and rebuilt if stale) on every
// access, so asserting unwind safety is sound. Without these impls no
// holder of a scratch (e.g. `Estimator`) could cross `catch_unwind`,
// which the numeric-guard tests rely on.
impl std::panic::UnwindSafe for GradScratch {}
impl std::panic::RefUnwindSafe for GradScratch {}

/// Default seed used by examples/tests when initialising model parameters.
pub const MODEL_SEED: u64 = 0xF3D;

/// Batch size from which batch reductions sum fixed-size chunks.
const BATCH_CHUNK_THRESHOLD: usize = 32;

/// Chunk size of the batch reductions. Partial sums are taken per chunk
/// and combined in index order; both sizes fix the floating-point result,
/// which every training backend reproduces bit for bit.
const BATCH_CHUNK: usize = 32;

/// A differentiable finite-sum loss `F_n(w) = (1/D_n) Σ_i f_i(w)` over a
/// [`Dataset`], exposed per sample as Algorithm 1 requires.
///
/// Implementations must be `Send + Sync`: devices evaluate gradients in
/// parallel during a federated round.
pub trait LossModel: Send + Sync {
    /// Length of the flat parameter vector `l`.
    fn dim(&self) -> usize;

    /// Initialise a parameter vector from `seed` (deterministic).
    fn init_params(&self, seed: u64) -> Vec<f64>;

    /// Loss of sample `i`: `f_i(w)`.
    fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64;

    /// Gradient of sample `i` **accumulated** into `out` scaled by
    /// `scale`: `out += scale · ∇f_i(w)`. Accumulation lets batch and
    /// full gradients avoid temporary buffers.
    fn sample_grad_accum(&self, w: &[f64], data: &Dataset, i: usize, scale: f64, out: &mut [f64]);

    /// Prediction for a raw feature vector: class index (as `f64`) for
    /// classifiers, value for regressors.
    fn predict(&self, w: &[f64], x: &[f64]) -> f64;

    /// Mean loss over the samples at `indices`.
    ///
    /// From 32 samples on, per-chunk partial sums are combined in index
    /// order: floating-point addition is not associative, so the chunk
    /// size is part of the result.
    fn batch_loss(&self, w: &[f64], data: &Dataset, indices: &[usize]) -> f64 {
        if indices.is_empty() {
            return 0.0;
        }
        let sum: f64 = if indices.len() >= BATCH_CHUNK_THRESHOLD {
            let partials: Vec<f64> = indices
                .chunks(BATCH_CHUNK)
                .map(|chunk| chunk.iter().map(|&i| self.sample_loss(w, data, i)).sum())
                .collect();
            partials.iter().sum()
        } else {
            indices.iter().map(|&i| self.sample_loss(w, data, i)).sum()
        };
        sum / indices.len() as f64
    }

    /// Mean gradient over the samples at `indices`, written into `out`
    /// (overwritten): [`Self::batch_grad_in`] with a fresh scratch.
    fn batch_grad(&self, w: &[f64], data: &Dataset, indices: &[usize], out: &mut [f64]) {
        self.batch_grad_in(w, data, indices, out, &mut GradScratch::new());
    }

    /// Mean gradient over the samples at `indices`, written into `out`
    /// (overwritten), reusing buffers from `scratch` so a loop of
    /// evaluations does O(1) allocations. From 32 samples on, each chunk
    /// accumulates into one reused buffer and the chunks are added to
    /// `out` in index order (see [`Self::batch_loss`] on why the order is
    /// pinned). Overrides must keep their own fixed chunking.
    fn batch_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        indices: &[usize],
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) {
        assert_eq!(out.len(), self.dim(), "batch_grad_in: out length");
        out.fill(0.0);
        if indices.is_empty() {
            return;
        }
        let scale = 1.0 / indices.len() as f64;
        if indices.len() >= BATCH_CHUNK_THRESHOLD {
            scratch.chunk_acc.resize(self.dim(), 0.0);
            for chunk in indices.chunks(BATCH_CHUNK) {
                scratch.chunk_acc.fill(0.0);
                for &i in chunk {
                    self.sample_grad_accum(w, data, i, scale, &mut scratch.chunk_acc);
                }
                fedprox_tensor::vecops::add_assign(out, &scratch.chunk_acc);
            }
        } else {
            for &i in indices {
                self.sample_grad_accum(w, data, i, scale, out);
            }
        }
    }

    /// Like [`Self::full_grad`], but reusing `scratch` (index buffer and
    /// model workspace). Bit-identical to `full_grad`.
    fn full_grad_in(&self, w: &[f64], data: &Dataset, out: &mut [f64], scratch: &mut GradScratch) {
        // Take the index buffer out so `scratch` can be passed down.
        let mut idx = std::mem::take(&mut scratch.all_indices);
        idx.clear();
        idx.extend(0..data.len());
        self.batch_grad_in(w, data, &idx, out, scratch);
        scratch.all_indices = idx;
    }

    /// Mean loss over the whole dataset: `F_n(w)`.
    fn full_loss(&self, w: &[f64], data: &Dataset) -> f64 {
        let idx: Vec<usize> = (0..data.len()).collect();
        self.batch_loss(w, data, &idx)
    }

    /// Full gradient `∇F_n(w)` into `out`.
    fn full_grad(&self, w: &[f64], data: &Dataset, out: &mut [f64]) {
        let idx: Vec<usize> = (0..data.len()).collect();
        self.batch_grad(w, data, &idx, out);
    }

    /// Classification accuracy over `data` (fraction of samples whose
    /// [`Self::predict`] matches the label). For regressors this compares
    /// rounded predictions and is rarely meaningful.
    fn accuracy(&self, w: &[f64], data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = (0..data.len()).filter(|&i| self.predict(w, data.x(i)) == data.y(i)).count();
        correct as f64 / data.len() as f64
    }
}

/// Boxed models (e.g. `Box<dyn LossModel>` from a config file) are
/// themselves models.
impl<M: LossModel + ?Sized> LossModel for Box<M> {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn init_params(&self, seed: u64) -> Vec<f64> {
        (**self).init_params(seed)
    }
    fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64 {
        (**self).sample_loss(w, data, i)
    }
    fn sample_grad_accum(&self, w: &[f64], data: &Dataset, i: usize, scale: f64, out: &mut [f64]) {
        (**self).sample_grad_accum(w, data, i, scale, out)
    }
    fn batch_loss(&self, w: &[f64], data: &Dataset, indices: &[usize]) -> f64 {
        (**self).batch_loss(w, data, indices)
    }
    fn batch_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        indices: &[usize],
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) {
        (**self).batch_grad_in(w, data, indices, out, scratch)
    }
    fn full_grad_in(&self, w: &[f64], data: &Dataset, out: &mut [f64], scratch: &mut GradScratch) {
        (**self).full_grad_in(w, data, out, scratch)
    }
    fn predict(&self, w: &[f64], x: &[f64]) -> f64 {
        (**self).predict(w, x)
    }
}

/// Blanket impl so `&M` satisfies [`LossModel`] call sites that take
/// generics.
impl<M: LossModel + ?Sized> LossModel for &M {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn init_params(&self, seed: u64) -> Vec<f64> {
        (**self).init_params(seed)
    }
    fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64 {
        (**self).sample_loss(w, data, i)
    }
    fn sample_grad_accum(&self, w: &[f64], data: &Dataset, i: usize, scale: f64, out: &mut [f64]) {
        (**self).sample_grad_accum(w, data, i, scale, out)
    }
    fn batch_grad_in(
        &self,
        w: &[f64],
        data: &Dataset,
        indices: &[usize],
        out: &mut [f64],
        scratch: &mut GradScratch,
    ) {
        (**self).batch_grad_in(w, data, indices, out, scratch)
    }
    fn full_grad_in(&self, w: &[f64], data: &Dataset, out: &mut [f64], scratch: &mut GradScratch) {
        (**self).full_grad_in(w, data, out, scratch)
    }
    fn predict(&self, w: &[f64], x: &[f64]) -> f64 {
        (**self).predict(w, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_tensor::Matrix;

    /// Trivial quadratic model for exercising the provided methods:
    /// f_i(w) = ½‖w − x_i‖².
    struct Quad {
        dim: usize,
    }

    impl LossModel for Quad {
        fn dim(&self) -> usize {
            self.dim
        }
        fn init_params(&self, _seed: u64) -> Vec<f64> {
            vec![0.0; self.dim]
        }
        fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64 {
            fedprox_tensor::vecops::dist_sq(w, data.x(i)) / 2.0
        }
        fn sample_grad_accum(
            &self,
            w: &[f64],
            data: &Dataset,
            i: usize,
            scale: f64,
            out: &mut [f64],
        ) {
            for ((o, &wv), &xv) in out.iter_mut().zip(w).zip(data.x(i)) {
                *o += scale * (wv - xv);
            }
        }
        fn predict(&self, _w: &[f64], _x: &[f64]) -> f64 {
            0.0
        }
    }

    fn toy_data(n: usize, dim: usize) -> Dataset {
        let mut f = Matrix::zeros(n, dim);
        for i in 0..n {
            for j in 0..dim {
                f.row_mut(i)[j] = (i * dim + j) as f64 * 0.1;
            }
        }
        Dataset::new(f, vec![0.0; n], 1)
    }

    #[test]
    fn batch_grad_is_mean_of_sample_grads() {
        let m = Quad { dim: 3 };
        let d = toy_data(5, 3);
        let w = vec![1.0, -1.0, 0.5];
        let idx = [0, 2, 4];
        let mut got = vec![0.0; 3];
        m.batch_grad(&w, &d, &idx, &mut got);
        let mut want = vec![0.0; 3];
        for &i in &idx {
            m.sample_grad_accum(&w, &d, i, 1.0 / 3.0, &mut want);
        }
        for (g, wv) in got.iter().zip(&want) {
            assert!((g - wv).abs() < 1e-12);
        }
    }

    #[test]
    fn chunked_batch_matches_sequential() {
        let m = Quad { dim: 4 };
        let d = toy_data(200, 4);
        let w = vec![0.3; 4];
        let big: Vec<usize> = (0..200).collect();
        let mut chunked = vec![0.0; 4];
        m.batch_grad(&w, &d, &big, &mut chunked);
        let mut seq = vec![0.0; 4];
        for &i in &big {
            m.sample_grad_accum(&w, &d, i, 1.0 / 200.0, &mut seq);
        }
        for (a, b) in chunked.iter().zip(&seq) {
            assert!((a - b).abs() < 1e-10);
        }
        // Loss too.
        let lp = m.batch_loss(&w, &d, &big);
        let ls: f64 =
            big.iter().map(|&i| m.sample_loss(&w, &d, i)).sum::<f64>() / big.len() as f64;
        assert!((lp - ls).abs() < 1e-10);
    }

    #[test]
    fn empty_batch_is_zero() {
        let m = Quad { dim: 2 };
        let d = toy_data(3, 2);
        let mut g = vec![9.0; 2];
        m.batch_grad(&[0.0, 0.0], &d, &[], &mut g);
        assert_eq!(g, vec![0.0, 0.0]);
        assert_eq!(m.batch_loss(&[0.0, 0.0], &d, &[]), 0.0);
    }

    #[test]
    fn full_grad_zero_at_minimizer() {
        let m = Quad { dim: 2 };
        let d = toy_data(4, 2);
        // Minimizer of Σ½‖w−x_i‖² is the mean of x_i.
        let mean = fedprox_data::stats::feature_mean(&d);
        let mut g = vec![0.0; 2];
        m.full_grad(&mean, &d, &mut g);
        assert!(fedprox_tensor::vecops::norm(&g) < 1e-12);
    }
}
