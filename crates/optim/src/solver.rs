//! The inner loop of Algorithm 1 (lines 3–10): a device's local model
//! update by proximal variance-reduced stochastic steps.
//!
//! ```text
//! w^{(0)} = w̄^{(s−1)};  v^{(0)} = ∇F_n(w^{(0)});  w^{(1)} = prox_{ηh}(w^{(0)} − η v^{(0)})
//! for t = 1..τ:
//!     draw mini-batch I_t;  update v^{(t)} per (8a)/(8b)
//!     w^{(t+1)} = prox_{ηh}(w^{(t)} − η v^{(t)})
//! return w^{(t')} with t' ~ U{0..τ}          (line 10)
//! ```
//!
//! The random-iterate selection is done by *pre-drawing* `t'`, so only one
//! candidate iterate is ever kept — O(dim) memory instead of O(τ·dim),
//! which matters for the 135k-parameter CNN.

use crate::estimator::{Estimator, EstimatorKind};
use crate::prox::Proximal;
use crate::step::StepSize;
use fedprox_data::Dataset;
use fedprox_models::LossModel;
use fedprox_tensor::vecops;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which iterate the solver returns as the local model (line 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IterateChoice {
    /// The paper's uniformly-random iterate from `{w^{(0)}, …, w^{(τ)}}`.
    UniformRandom,
    /// The final iterate `w^{(τ+1)}` (what FedAvg uses in practice).
    Last,
}

/// Configuration of one local solve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalSolverConfig {
    /// Gradient estimator (line 7).
    pub kind: EstimatorKind,
    /// Step-size schedule (the paper: `η = 1/(βL)`).
    pub step: StepSize,
    /// Number of local iterations τ.
    pub tau: usize,
    /// Mini-batch size B (the paper's experiments use 16–64).
    pub batch_size: usize,
    /// Iterate selection rule.
    pub choice: IterateChoice,
}

/// Result of a local solve.
#[derive(Debug, Clone)]
pub struct LocalOutcome {
    /// The returned local model `w_n^{(s)}`.
    pub w: Vec<f64>,
    /// Which `t'` was returned (τ+1 denotes the final iterate).
    pub chosen_t: usize,
    /// Total per-sample gradient evaluations (compute-cost model input).
    pub grad_evals: usize,
    /// Direction-norm probe for the health layer; all-zero unless the
    /// `telemetry` feature is on and the collector was armed.
    pub dir_stats: crate::estimator::DirectionStats,
}

/// Reusable buffers for repeated local solves (the per-round hot path):
/// the estimator with its model gradient workspace, the mini-batch index
/// buffers, and the iterate/intermediate vectors. One `SolveScratch` held
/// across `R` solves turns `O(R·τ)` allocations into `O(R)` (one output
/// clone per solve).
#[derive(Debug, Default)]
pub struct SolveScratch {
    est: Option<Estimator>,
    batch: Vec<usize>,
    /// Index pool for `sample_batch`'s shuffle branch.
    pool: Vec<usize>,
    w_t: Vec<f64>,
    x: Vec<f64>,
    w_next: Vec<f64>,
}

impl SolveScratch {
    /// Fresh, empty scratch; buffers grow on first use.
    pub const fn new() -> Self {
        SolveScratch {
            est: None,
            batch: Vec::new(),
            pool: Vec::new(),
            w_t: Vec::new(),
            x: Vec::new(),
            w_next: Vec::new(),
        }
    }
}

/// Runs local solves; stateless apart from scratch reuse.
#[derive(Debug, Default)]
pub struct LocalSolver;

impl LocalSolver {
    /// Execute the inner loop on `data` starting at the global model `w0`.
    ///
    /// `prox` carries the surrogate's regulariser `h_s`; pass
    /// [`crate::prox::ZeroProx`] for FedAvg-style unregularised steps.
    pub fn solve<M: LossModel, P: Proximal, R: Rng>(
        &self,
        model: &M,
        data: &Dataset,
        prox: &P,
        w0: &[f64],
        cfg: &LocalSolverConfig,
        rng: &mut R,
    ) -> LocalOutcome {
        self.solve_with(model, data, prox, w0, cfg, rng, &mut SolveScratch::new())
    }

    /// Like [`Self::solve`], reusing `scratch` across calls — the hot
    /// path of the round runners. Bit-identical to `solve`: the RNG draw
    /// sequence and every floating-point operation are unchanged, only
    /// buffer provenance differs.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_with<M: LossModel, P: Proximal, R: Rng>(
        &self,
        model: &M,
        data: &Dataset,
        prox: &P,
        w0: &[f64],
        cfg: &LocalSolverConfig,
        rng: &mut R,
        scratch: &mut SolveScratch,
    ) -> LocalOutcome {
        self.solve_anchored_with(model, data, prox, w0, cfg, rng, None, scratch)
    }

    /// [`Self::solve_with`] with an optional externally-supplied anchor
    /// gradient for VR estimators (the FSVRG pattern: the server ships
    /// `∇F̄(w̄)` alongside the model and devices anchor there instead of
    /// computing their own full gradient).
    #[allow(clippy::too_many_arguments)]
    pub fn solve_anchored_with<M: LossModel, P: Proximal, R: Rng>(
        &self,
        model: &M,
        data: &Dataset,
        prox: &P,
        w0: &[f64],
        cfg: &LocalSolverConfig,
        rng: &mut R,
        anchor_grad: Option<&[f64]>,
        scratch: &mut SolveScratch,
    ) -> LocalOutcome {
        assert!(!data.is_empty(), "local solve on an empty device");
        assert!(cfg.batch_size >= 1, "batch size must be >= 1");
        let dim = model.dim();
        assert_eq!(w0.len(), dim, "w0 length");
        fedprox_telemetry::span!("optim", "local_solve", "tau" => cfg.tau, "n" => data.len());

        // Pre-draw the returned iterate index (line 10).
        let chosen_t = match cfg.choice {
            IterateChoice::UniformRandom => rng.gen_range(0..=cfg.tau),
            IterateChoice::Last => cfg.tau + 1,
        };
        let mut kept: Option<Vec<f64>> = if chosen_t == 0 { Some(w0.to_vec()) } else { None };

        // Lines 3–4: anchor gradient and first proximal step. For the
        // variance-reduced kinds this is the full gradient the paper
        // prescribes; for plain SGD (FedAvg baseline) the first step uses
        // a mini-batch like every other step.
        // Grows to the largest batch this thread has met (shards smaller
        // than the batch size shrink it): kept out of span alloc columns.
        let batch = cfg.batch_size.min(data.len());
        fedprox_telemetry::untracked(|| scratch.batch.resize(batch, 0));
        if anchor_grad.is_none() && cfg.kind == EstimatorKind::Sgd {
            sample_batch(rng, data.len(), &mut scratch.batch, &mut scratch.pool);
        }
        // Restart a dimension-compatible estimator in place; otherwise
        // (first use, or scratch shared across differently-sized models)
        // build a fresh one.
        match &mut scratch.est {
            Some(est) if est.dim() == dim => {
                if let Some(ag) = anchor_grad {
                    est.restart_with_anchor_grad(cfg.kind, model, w0, ag);
                } else if cfg.kind == EstimatorKind::Sgd {
                    est.restart_sgd(model, data, w0, &scratch.batch);
                } else {
                    est.restart(cfg.kind, model, data, w0);
                }
            }
            slot => {
                *slot = Some(if let Some(ag) = anchor_grad {
                    Estimator::begin_with_anchor_grad(cfg.kind, model, w0, ag)
                } else if cfg.kind == EstimatorKind::Sgd {
                    Estimator::begin_sgd(model, data, w0, &scratch.batch)
                } else {
                    Estimator::begin(cfg.kind, model, data, w0)
                });
            }
        }
        let Some(est) = scratch.est.as_mut() else {
            // Installed by the match above.
            unreachable!("solve: estimator just installed")
        };
        scratch.w_t.clear();
        scratch.w_t.extend_from_slice(w0);
        scratch.x.resize(dim, 0.0); // gradient-step intermediate
        scratch.w_next.resize(dim, 0.0);

        let eta0 = cfg.step.at(0);
        scratch.x.copy_from_slice(&scratch.w_t);
        vecops::axpy(-eta0, est.direction(), &mut scratch.x);
        fedprox_telemetry::counter!("optim.prox_apply", 1u32);
        prox.prox(eta0, &scratch.x, &mut scratch.w_next);
        std::mem::swap(&mut scratch.w_t, &mut scratch.w_next); // w_t = w^{(1)}
        if chosen_t == 1 {
            kept = Some(scratch.w_t.clone());
        }

        // Lines 5–9.
        for t in 1..=cfg.tau {
            sample_batch(rng, data.len(), &mut scratch.batch, &mut scratch.pool);
            est.step(model, data, &scratch.batch, &scratch.w_t);
            let eta = cfg.step.at(t);
            scratch.x.copy_from_slice(&scratch.w_t);
            vecops::axpy(-eta, est.direction(), &mut scratch.x);
            fedprox_telemetry::counter!("optim.prox_apply", 1u32);
            prox.prox(eta, &scratch.x, &mut scratch.w_next);
            std::mem::swap(&mut scratch.w_t, &mut scratch.w_next); // w_t = w^{(t+1)}
            if chosen_t == t + 1 {
                kept = Some(scratch.w_t.clone());
            }
        }

        // `chosen_t` ∈ [0, τ+1] by construction (τ+1 for `Last`), so
        // `kept` already holds the returned iterate, cloned once; the
        // fallback is the last iterate.
        let w = kept.unwrap_or_else(|| scratch.w_t.clone());
        LocalOutcome {
            w,
            chosen_t,
            grad_evals: est.grad_evals(),
            dir_stats: est.direction_stats(),
        }
    }

    /// `‖∇J_n(w)‖` where `J_n = F_n + h` — the quantity the local accuracy
    /// criterion (11) bounds.
    pub fn surrogate_grad_norm<M: LossModel, P: Proximal>(
        &self,
        model: &M,
        data: &Dataset,
        prox: &P,
        w: &[f64],
    ) -> f64 {
        let mut g = vec![0.0; model.dim()];
        model.full_grad(w, data, &mut g);
        prox.grad_accum(w, 1.0, &mut g);
        vecops::norm(&g)
    }
}

/// Fill `batch` with indices drawn uniformly without replacement (falls
/// back to with-replacement when the batch is most of the dataset, which
/// is cheaper than a full shuffle). `pool` is caller-held scratch for the
/// shuffle branch, reused across calls; the RNG draw sequence is
/// identical to an allocating implementation.
fn sample_batch<R: Rng>(rng: &mut R, n: usize, batch: &mut [usize], pool: &mut Vec<usize>) {
    debug_assert!(n >= 1);
    if batch.len() * 4 <= n {
        // Rejection sampling without replacement.
        let mut filled = 0;
        while filled < batch.len() {
            let candidate = rng.gen_range(0..n);
            if !batch[..filled].contains(&candidate) {
                batch[filled] = candidate;
                filled += 1;
            }
        }
    } else {
        pool.clear();
        // Grows to the largest shard this thread has met: schedule-
        // dependent, so kept out of span alloc columns.
        fedprox_telemetry::untracked(|| pool.reserve(n));
        pool.extend(0..n);
        pool.shuffle(rng);
        batch.copy_from_slice(&pool[..batch.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prox::{QuadraticProx, ZeroProx};
    use fedprox_models::LinearRegression;
    use fedprox_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_data(n: usize) -> Dataset {
        let mut f = Matrix::zeros(n, 2);
        let mut y = Vec::new();
        for i in 0..n {
            let x0 = (i as f64 * 0.37).sin();
            let x1 = (i as f64 * 0.73).cos();
            f.row_mut(i).copy_from_slice(&[x0, x1]);
            y.push(2.0 * x0 - x1);
        }
        Dataset::new(f, y, 0)
    }

    fn cfg(kind: EstimatorKind, tau: usize) -> LocalSolverConfig {
        LocalSolverConfig {
            kind,
            step: StepSize::Constant(0.1),
            tau,
            batch_size: 4,
            choice: IterateChoice::Last,
        }
    }

    #[test]
    fn local_solve_reduces_surrogate_objective() {
        let d = toy_data(30);
        let m = LinearRegression::new(2);
        let w0 = vec![3.0, -3.0];
        let prox = QuadraticProx::new(0.1, w0.clone());
        let solver = LocalSolver;
        for kind in [EstimatorKind::Sgd, EstimatorKind::Svrg, EstimatorKind::Sarah] {
            let mut rng = StdRng::seed_from_u64(1);
            let out = solver.solve(&m, &d, &prox, &w0, &cfg(kind, 30), &mut rng);
            let j0 = m.full_loss(&w0, &d) + prox.value(&w0);
            let j1 = m.full_loss(&out.w, &d) + prox.value(&out.w);
            assert!(j1 < j0, "{kind:?}: J went {j0} -> {j1}");
        }
    }

    #[test]
    fn tau_zero_with_random_choice_returns_anchor() {
        // τ = 0 means θ = 1: "no progress for local problem".
        let d = toy_data(10);
        let m = LinearRegression::new(2);
        let w0 = vec![1.0, 1.0];
        let prox = ZeroProx;
        let mut rng = StdRng::seed_from_u64(2);
        let mut c = cfg(EstimatorKind::Svrg, 0);
        c.choice = IterateChoice::UniformRandom;
        let out = LocalSolver.solve(&m, &d, &prox, &w0, &c, &mut rng);
        assert_eq!(out.chosen_t, 0);
        assert_eq!(out.w, w0);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = toy_data(20);
        let m = LinearRegression::new(2);
        let w0 = vec![0.5, 0.5];
        let prox = QuadraticProx::new(0.5, w0.clone());
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            LocalSolver.solve(&m, &d, &prox, &w0, &cfg(EstimatorKind::Sarah, 15), &mut rng).w
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn uniform_choice_records_correct_iterate() {
        // With τ=0 and UniformRandom, chosen_t is always 0; with Last it
        // is τ+1 and w equals the post-anchor step.
        let d = toy_data(10);
        let m = LinearRegression::new(2);
        let w0 = vec![2.0, 2.0];
        let prox = ZeroProx;
        let mut rng = StdRng::seed_from_u64(3);
        let out = LocalSolver.solve(&m, &d, &prox, &w0, &cfg(EstimatorKind::FullGd, 0), &mut rng);
        assert_eq!(out.chosen_t, 1); // Last with tau=0 → index 1
        // One full-GD prox step from w0.
        let mut g = vec![0.0; 2];
        m.full_grad(&w0, &d, &mut g);
        let want: Vec<f64> = (0..2).map(|i| w0[i] - 0.1 * g[i]).collect();
        for (a, b) in out.w.iter().zip(&want) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn grad_eval_accounting_full_gd() {
        let d = toy_data(10);
        let m = LinearRegression::new(2);
        let w0 = vec![0.0; 2];
        let mut rng = StdRng::seed_from_u64(4);
        let out =
            LocalSolver.solve(&m, &d, &ZeroProx, &w0, &cfg(EstimatorKind::FullGd, 3), &mut rng);
        // begin: 10, plus 3 steps × 10.
        assert_eq!(out.grad_evals, 40);
    }

    #[test]
    fn surrogate_grad_norm_zero_at_unconstrained_minimum() {
        let d = toy_data(25);
        let m = LinearRegression::new(2);
        // Drive near the minimum with many full-GD steps.
        let mut w = vec![0.0; 2];
        let mut g = vec![0.0; 2];
        for _ in 0..5000 {
            m.full_grad(&w, &d, &mut g);
            vecops::axpy(-0.3, &g, &mut w);
        }
        let norm = LocalSolver.surrogate_grad_norm(&m, &d, &ZeroProx, &w);
        assert!(norm < 1e-8, "norm {norm}");
    }

    #[test]
    fn proximal_term_keeps_iterates_near_anchor() {
        let d = toy_data(30);
        let m = LinearRegression::new(2);
        let w0 = vec![5.0, 5.0]; // far from the optimum
        let solver = LocalSolver;
        let run = |mu: f64| {
            let prox = QuadraticProx::new(mu, w0.clone());
            let mut rng = StdRng::seed_from_u64(5);
            let out =
                solver.solve(&m, &d, &prox, &w0, &cfg(EstimatorKind::Svrg, 50), &mut rng);
            vecops::dist(&out.w, &w0)
        };
        // Larger μ ⇒ the local model stays closer to the anchor
        // (Remark 1(4) of the paper).
        assert!(run(10.0) < run(0.1));
    }

    #[test]
    fn batch_sampling_without_replacement_when_possible() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut batch = vec![0usize; 5];
        let mut pool = Vec::new();
        for _ in 0..20 {
            sample_batch(&mut rng, 100, &mut batch, &mut pool);
            let mut sorted = batch.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "duplicates in {batch:?}");
            assert!(batch.iter().all(|&i| i < 100));
        }
        // Large batch relative to n: still valid indices, still unique.
        let mut big = vec![0usize; 9];
        sample_batch(&mut rng, 10, &mut big, &mut pool);
        let mut sorted = big.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 9);
    }

    use fedprox_tensor::vecops;
}
