//! The stochastic gradient estimators of eq. (8).
//!
//! At global iteration `s`, device `n` starts from the anchor
//! `w^{(0)} = w̄^{(s−1)}` with a full gradient `v^{(0)} = ∇F_n(w^{(0)})`,
//! then at each local step `t ≥ 1` draws a mini-batch `I_t` and forms:
//!
//! * **SARAH** (8a): `v^{(t)} = ∇f_{I_t}(w^{(t)}) − ∇f_{I_t}(w^{(t−1)}) + v^{(t−1)}`
//! * **SVRG** (8b):  `v^{(t)} = ∇f_{I_t}(w^{(t)}) − ∇f_{I_t}(w^{(0)}) + v^{(0)}`
//! * **SGD**:        `v^{(t)} = ∇f_{I_t}(w^{(t)})` (the vanilla baseline)
//! * **FullGd**:     `v^{(t)} = ∇F_n(w^{(t)})` (deterministic reference)
//!
//! The estimator owns all recursion state (`v`, the previous iterate for
//! SARAH, the anchor for SVRG) so the solver's loop body is estimator
//! agnostic — mirroring how line 7 of Algorithm 1 swaps (8a)/(8b).

use fedprox_data::Dataset;
use fedprox_models::{GradScratch, LossModel};
use fedprox_tensor::vecops;
use serde::{Deserialize, Serialize};

/// Which estimator drives the local update (line 7 of Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EstimatorKind {
    /// Vanilla stochastic gradient (the FedAvg baseline).
    Sgd,
    /// Stochastic variance reduced gradient, eq. (8b).
    Svrg,
    /// Stochastic recursive gradient, eq. (8a).
    Sarah,
    /// Deterministic full gradient (reference / debugging).
    FullGd,
}

impl EstimatorKind {
    /// Short lowercase name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            EstimatorKind::Sgd => "sgd",
            EstimatorKind::Svrg => "svrg",
            EstimatorKind::Sarah => "sarah",
            EstimatorKind::FullGd => "gd",
        }
    }

    /// Whether the estimator needs the anchor full gradient `v^{(0)}`.
    pub fn needs_anchor(&self) -> bool {
        matches!(self, EstimatorKind::Svrg | EstimatorKind::Sarah)
    }
}

/// Running statistics of squared estimator direction norms `‖v^{(t)}‖²`
/// over the inner steps of one or more local solves — the raw material
/// for the health layer's variance-reduction-effectiveness rule.
///
/// Filled only when the `telemetry` feature is compiled in **and** the
/// collector is armed at runtime; otherwise every field stays zero and
/// the probe costs nothing. The probe reads the direction, never writes
/// it, so armed and disarmed runs stay bitwise identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DirectionStats {
    /// Local solves contributing (1 per armed restart; summed by merge).
    pub solves: u64,
    /// Inner steps observed across those solves.
    pub steps: u64,
    /// Running mean of `‖v^{(t)}‖²` over the observed steps.
    pub mean_sq: f64,
    /// Welford M2 of `‖v^{(t)}‖²` (population variance × `steps`).
    pub m2_sq: f64,
    /// Summed anchor norms `‖v^{(0)}‖²`, one term per solve (divide by
    /// `solves` for the mean anchor second moment).
    pub anchor_sq: f64,
}

impl DirectionStats {
    /// Begin one solve's observation with its anchor `‖v^{(0)}‖²`.
    pub fn start(&mut self, anchor_norm_sq: f64) {
        self.solves += 1;
        self.anchor_sq += anchor_norm_sq;
    }

    /// Record one inner step's `‖v^{(t)}‖²` (Welford update).
    pub fn push(&mut self, norm_sq: f64) {
        self.steps += 1;
        let delta = norm_sq - self.mean_sq;
        self.mean_sq += delta / self.steps as f64;
        self.m2_sq += delta * (norm_sq - self.mean_sq);
    }

    /// Merge another solve's statistics into this accumulator
    /// (Chan et al. parallel Welford combination).
    pub fn merge(&mut self, other: &DirectionStats) {
        if other.steps > 0 {
            let (na, nb) = (self.steps as f64, other.steps as f64);
            let delta = other.mean_sq - self.mean_sq;
            let n = na + nb;
            self.mean_sq += delta * nb / n;
            self.m2_sq += other.m2_sq + delta * delta * na * nb / n;
            self.steps += other.steps;
        }
        self.solves += other.solves;
        self.anchor_sq += other.anchor_sq;
    }
}

/// Stateful gradient estimator for one device within one global iteration.
///
/// ```
/// use fedprox_data::Dataset;
/// use fedprox_models::{LinearRegression, LossModel};
/// use fedprox_optim::estimator::{Estimator, EstimatorKind};
/// use fedprox_tensor::Matrix;
///
/// let data = Dataset::new(Matrix::from_rows(&[&[1.0], &[2.0]]), vec![2.0, 4.0], 0);
/// let model = LinearRegression::new(1);
/// let w0 = vec![0.0];
/// // Lines 3–4 of Algorithm 1: the anchor full gradient.
/// let mut est = Estimator::begin(EstimatorKind::Svrg, &model, &data, &w0);
/// assert_eq!(est.grad_evals(), data.len());
/// // One SVRG step at the anchor with any batch leaves v unchanged.
/// let v0 = est.direction().to_vec();
/// est.step(&model, &data, &[1], &w0);
/// assert_eq!(est.direction(), &v0[..]);
/// ```
#[derive(Debug, Clone)]
pub struct Estimator {
    kind: EstimatorKind,
    dim: usize,
    /// Current direction `v^{(t)}`.
    v: Vec<f64>,
    /// SARAH's previous iterate `w^{(t−1)}`.
    w_prev: Vec<f64>,
    /// SVRG's anchor `w^{(0)}`.
    anchor: Vec<f64>,
    /// Anchor full gradient `v^{(0)} = ∇F_n(w^{(0)})`.
    anchor_grad: Vec<f64>,
    /// Scratch for the two batch gradients of a VR step.
    scratch_a: Vec<f64>,
    scratch_b: Vec<f64>,
    /// Model gradient workspace, reused across every evaluation this
    /// estimator makes (chunk accumulators, forward/backward buffers).
    scratch: GradScratch,
    /// Count of per-sample gradient evaluations (for the cost model).
    grad_evals: usize,
    /// Direction-norm probe for the health layer; stays zero unless the
    /// `telemetry` feature is on and the collector is armed.
    probe: DirectionStats,
}

/// True when the direction probe should record: telemetry compiled in
/// and the collector armed. Constant `false` in default builds.
#[inline]
fn probe_armed() -> bool {
    #[cfg(feature = "telemetry")]
    {
        fedprox_telemetry::collector::is_armed()
    }
    #[cfg(not(feature = "telemetry"))]
    {
        false
    }
}

impl Estimator {
    /// Allocate an estimator's buffers without computing anything; the
    /// `restart_*` methods bring it into a started state.
    fn with_capacity(kind: EstimatorKind, dim: usize) -> Self {
        Estimator {
            kind,
            dim,
            v: vec![0.0; dim],
            w_prev: vec![0.0; dim],
            anchor: vec![0.0; dim],
            anchor_grad: vec![0.0; dim],
            scratch_a: vec![0.0; dim],
            scratch_b: vec![0.0; dim],
            scratch: GradScratch::new(),
            grad_evals: 0,
            probe: DirectionStats::default(),
        }
    }

    /// Start an epoch at the anchor `w0` (computes the full gradient once,
    /// as lines 3–4 of Algorithm 1 prescribe).
    pub fn begin<M: LossModel>(kind: EstimatorKind, model: &M, data: &Dataset, w0: &[f64]) -> Self {
        let dim = model.dim();
        let mut est = Self::with_capacity(kind, dim);
        est.restart(kind, model, data, w0);
        est
    }

    /// Re-run the [`Self::begin`] initialisation **in place**, reusing
    /// every buffer (including the model's gradient workspace). Requires
    /// a model of the same dimension.
    pub fn restart<M: LossModel>(
        &mut self,
        kind: EstimatorKind,
        model: &M,
        data: &Dataset,
        w0: &[f64],
    ) {
        assert_eq!(model.dim(), self.dim, "estimator restart: model dim");
        assert_eq!(w0.len(), self.dim, "estimator: w0 length");
        self.kind = kind;
        fedprox_telemetry::counter!("optim.anchor_full_grad", 1u32);
        fedprox_telemetry::counter!("optim.grad_evals", data.len());
        model.full_grad_in(w0, data, &mut self.anchor_grad, &mut self.scratch);
        fedprox_tensor::guard::check_finite(
            "anchor full gradient (Algorithm 1 line 3)",
            &self.anchor_grad,
        );
        self.v.copy_from_slice(&self.anchor_grad);
        self.w_prev.copy_from_slice(w0);
        self.anchor.copy_from_slice(w0);
        self.grad_evals = data.len();
        self.probe = DirectionStats::default();
        if probe_armed() {
            self.probe.start(vecops::norm_sq(&self.v));
        }
    }

    /// Start an epoch with an *externally supplied* anchor gradient
    /// instead of the device's own full gradient. This is how FSVRG
    /// (Konečný et al.) anchors its variance reduction at the **global**
    /// gradient `∇F̄(w̄)` that the server distributed — the device itself
    /// spends no gradient evaluations on the anchor.
    pub fn begin_with_anchor_grad<M: LossModel>(
        kind: EstimatorKind,
        model: &M,
        w0: &[f64],
        anchor_grad: &[f64],
    ) -> Self {
        let mut est = Self::with_capacity(kind, model.dim());
        est.restart_with_anchor_grad(kind, model, w0, anchor_grad);
        est
    }

    /// In-place, buffer-reusing variant of [`Self::begin_with_anchor_grad`].
    pub fn restart_with_anchor_grad<M: LossModel>(
        &mut self,
        kind: EstimatorKind,
        model: &M,
        w0: &[f64],
        anchor_grad: &[f64],
    ) {
        assert_eq!(model.dim(), self.dim, "estimator restart: model dim");
        assert_eq!(w0.len(), self.dim, "estimator: w0 length");
        assert_eq!(anchor_grad.len(), self.dim, "estimator: anchor_grad length");
        assert!(kind.needs_anchor(), "anchor injection only applies to VR estimators");
        self.kind = kind;
        self.v.copy_from_slice(anchor_grad);
        self.w_prev.copy_from_slice(w0);
        self.anchor.copy_from_slice(w0);
        self.anchor_grad.copy_from_slice(anchor_grad);
        self.grad_evals = 0;
        self.probe = DirectionStats::default();
        if probe_armed() {
            self.probe.start(vecops::norm_sq(&self.v));
        }
    }

    /// Start an SGD epoch *without* the anchor full gradient: the first
    /// direction is a plain mini-batch gradient. This is the FedAvg local
    /// update, which never touches the full dataset. Panics for
    /// variance-reduced kinds (they are defined by their anchor).
    pub fn begin_sgd<M: LossModel>(model: &M, data: &Dataset, w0: &[f64], batch: &[usize]) -> Self {
        let mut est = Self::with_capacity(EstimatorKind::Sgd, model.dim());
        est.restart_sgd(model, data, w0, batch);
        est
    }

    /// In-place, buffer-reusing variant of [`Self::begin_sgd`].
    pub fn restart_sgd<M: LossModel>(
        &mut self,
        model: &M,
        data: &Dataset,
        w0: &[f64],
        batch: &[usize],
    ) {
        assert_eq!(model.dim(), self.dim, "estimator restart: model dim");
        assert_eq!(w0.len(), self.dim, "estimator: w0 length");
        self.kind = EstimatorKind::Sgd;
        fedprox_telemetry::counter!("optim.grad_evals", batch.len());
        model.batch_grad_in(w0, data, batch, &mut self.v, &mut self.scratch);
        fedprox_tensor::guard::check_finite("initial mini-batch gradient", &self.v);
        self.w_prev.copy_from_slice(w0);
        self.anchor.copy_from_slice(w0);
        self.anchor_grad.fill(0.0);
        self.grad_evals = batch.len();
        self.probe = DirectionStats::default();
        if probe_armed() {
            self.probe.start(vecops::norm_sq(&self.v));
        }
    }

    /// The estimator kind.
    pub fn kind(&self) -> EstimatorKind {
        self.kind
    }

    /// The parameter dimension this estimator's buffers are sized for.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The current direction `v^{(t)}` (after [`Self::begin`] this is the
    /// anchor full gradient `v^{(0)}`).
    pub fn direction(&self) -> &[f64] {
        &self.v
    }

    /// Total per-sample gradient evaluations so far.
    pub fn grad_evals(&self) -> usize {
        self.grad_evals
    }

    /// The direction-norm probe accumulated since the last restart.
    /// All-zero unless the `telemetry` feature is compiled in and the
    /// collector was armed when the solve ran.
    pub fn direction_stats(&self) -> DirectionStats {
        self.probe
    }

    /// Advance to local step `t` at the new iterate `w_t` using mini-batch
    /// `batch`; updates the internal direction per eq. (8a)/(8b).
    pub fn step<M: LossModel>(&mut self, model: &M, data: &Dataset, batch: &[usize], w_t: &[f64]) {
        assert_eq!(w_t.len(), self.dim, "estimator: w_t length");
        fedprox_telemetry::counter!("optim.inner_step", 1u32);
        let evals_before = self.grad_evals;
        match self.kind {
            EstimatorKind::Sgd => {
                model.batch_grad_in(w_t, data, batch, &mut self.v, &mut self.scratch);
                self.grad_evals += batch.len();
            }
            EstimatorKind::FullGd => {
                model.full_grad_in(w_t, data, &mut self.v, &mut self.scratch);
                self.grad_evals += data.len();
            }
            EstimatorKind::Svrg => {
                // v = ∇f_B(w_t) − ∇f_B(anchor) + v0.
                model.batch_grad_in(w_t, data, batch, &mut self.scratch_a, &mut self.scratch);
                model.batch_grad_in(&self.anchor, data, batch, &mut self.scratch_b, &mut self.scratch);
                for i in 0..self.dim {
                    self.v[i] = self.scratch_a[i] - self.scratch_b[i] + self.anchor_grad[i];
                }
                self.grad_evals += 2 * batch.len();
            }
            EstimatorKind::Sarah => {
                // v = ∇f_B(w_t) − ∇f_B(w_prev) + v_prev (recursion in place).
                model.batch_grad_in(w_t, data, batch, &mut self.scratch_a, &mut self.scratch);
                model.batch_grad_in(&self.w_prev, data, batch, &mut self.scratch_b, &mut self.scratch);
                for i in 0..self.dim {
                    self.v[i] += self.scratch_a[i] - self.scratch_b[i];
                }
                self.w_prev.copy_from_slice(w_t);
                self.grad_evals += 2 * batch.len();
            }
        }
        fedprox_telemetry::counter!("optim.grad_evals", self.grad_evals - evals_before);
        let op = match self.kind {
            EstimatorKind::Sgd => "SGD direction",
            EstimatorKind::FullGd => "full-gradient direction",
            EstimatorKind::Svrg => "SVRG direction (8a)",
            EstimatorKind::Sarah => "SARAH direction (8b)",
        };
        fedprox_tensor::guard::check_finite(op, &self.v);
        if probe_armed() {
            self.probe.push(vecops::norm_sq(&self.v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_models::LinearRegression;
    use fedprox_tensor::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn begin_sets_full_gradient_direction() {
        let d = toy_data(10);
        let m = LinearRegression::new(2);
        let w0 = vec![0.5, -0.5];
        let est = Estimator::begin(EstimatorKind::Svrg, &m, &d, &w0);
        let mut full = vec![0.0; 2];
        m.full_grad(&w0, &d, &mut full);
        assert_eq!(est.direction(), &full[..]);
        assert_eq!(est.grad_evals(), 10);
    }

    #[test]
    fn svrg_direction_at_anchor_with_same_batch_is_full_grad() {
        // At w_t == anchor, the correction cancels: v = v0 exactly.
        let d = toy_data(10);
        let m = LinearRegression::new(2);
        let w0 = vec![0.1, 0.9];
        let mut est = Estimator::begin(EstimatorKind::Svrg, &m, &d, &w0);
        let v0 = est.direction().to_vec();
        est.step(&m, &d, &[3, 7], &w0);
        for (a, b) in est.direction().iter().zip(&v0) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn sarah_recursion_matches_manual_computation() {
        let d = toy_data(8);
        let m = LinearRegression::new(2);
        let w0 = vec![0.0, 0.0];
        let w1 = vec![0.1, -0.1];
        let w2 = vec![0.15, -0.2];
        let mut est = Estimator::begin(EstimatorKind::Sarah, &m, &d, &w0);
        let v0 = est.direction().to_vec();
        est.step(&m, &d, &[2], &w1);
        let mut g1 = vec![0.0; 2];
        let mut g0 = vec![0.0; 2];
        m.batch_grad(&w1, &d, &[2], &mut g1);
        m.batch_grad(&w0, &d, &[2], &mut g0);
        let v1: Vec<f64> = (0..2).map(|i| g1[i] - g0[i] + v0[i]).collect();
        assert_eq!(est.direction(), &v1[..]);

        est.step(&m, &d, &[5], &w2);
        let mut h2 = vec![0.0; 2];
        let mut h1 = vec![0.0; 2];
        m.batch_grad(&w2, &d, &[5], &mut h2);
        m.batch_grad(&w1, &d, &[5], &mut h1);
        let v2: Vec<f64> = (0..2).map(|i| h2[i] - h1[i] + v1[i]).collect();
        for (a, b) in est.direction().iter().zip(&v2) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn sgd_direction_is_plain_batch_gradient() {
        let d = toy_data(6);
        let m = LinearRegression::new(2);
        let w = vec![0.3, 0.3];
        let mut est = Estimator::begin(EstimatorKind::Sgd, &m, &d, &w);
        let wt = vec![0.5, -0.4];
        est.step(&m, &d, &[1, 4], &wt);
        let mut g = vec![0.0; 2];
        m.batch_grad(&wt, &d, &[1, 4], &mut g);
        assert_eq!(est.direction(), &g[..]);
    }

    #[test]
    fn full_gd_tracks_full_gradient() {
        let d = toy_data(6);
        let m = LinearRegression::new(2);
        let mut est = Estimator::begin(EstimatorKind::FullGd, &m, &d, &[0.0, 0.0]);
        let wt = vec![1.0, 1.0];
        est.step(&m, &d, &[0], &wt); // batch ignored
        let mut g = vec![0.0; 2];
        m.full_grad(&wt, &d, &mut g);
        assert_eq!(est.direction(), &g[..]);
    }

    #[test]
    fn svrg_estimator_is_unbiased_over_batches() {
        // E_B[v] = ∇F(w_t): average the SVRG direction over all singleton
        // batches and compare with the full gradient.
        let d = toy_data(12);
        let m = LinearRegression::new(2);
        let w0 = vec![0.2, -0.3];
        let wt = vec![0.5, 0.1];
        let mut mean = vec![0.0; 2];
        for i in 0..12 {
            let mut est = Estimator::begin(EstimatorKind::Svrg, &m, &d, &w0);
            est.step(&m, &d, &[i], &wt);
            vecops::axpy(1.0 / 12.0, est.direction(), &mut mean);
        }
        let mut full = vec![0.0; 2];
        m.full_grad(&wt, &d, &mut full);
        assert!(vecops::dist(&mean, &full) < 1e-12);
    }

    #[test]
    fn variance_reduction_beats_sgd_near_anchor() {
        // Close to the anchor, SVRG/SARAH error vs full gradient should be
        // (on average) much smaller than plain SGD's.
        let d = toy_data(40);
        let m = LinearRegression::new(2);
        let w0 = vec![1.0, -1.0];
        let wt = vec![1.02, -0.98]; // near the anchor
        let mut rng = StdRng::seed_from_u64(5);
        let mut full = vec![0.0; 2];
        m.full_grad(&wt, &d, &mut full);
        let mut err = |kind: EstimatorKind| -> f64 {
            let mut total = 0.0;
            for _ in 0..50 {
                let mut est = Estimator::begin(kind, &m, &d, &w0);
                let b = [rng.gen_range(0..40)];
                est.step(&m, &d, &b, &wt);
                total += vecops::dist(est.direction(), &full);
            }
            total / 50.0
        };
        let e_svrg = err(EstimatorKind::Svrg);
        let e_sarah = err(EstimatorKind::Sarah);
        let e_sgd = err(EstimatorKind::Sgd);
        assert!(e_svrg < e_sgd / 5.0, "svrg {e_svrg} vs sgd {e_sgd}");
        assert!(e_sarah < e_sgd / 5.0, "sarah {e_sarah} vs sgd {e_sgd}");
    }

    #[test]
    fn grad_eval_accounting() {
        let d = toy_data(10);
        let m = LinearRegression::new(2);
        let w = vec![0.0; 2];
        let mut est = Estimator::begin(EstimatorKind::Svrg, &m, &d, &w);
        assert_eq!(est.grad_evals(), 10); // anchor full gradient
        est.step(&m, &d, &[0, 1, 2], &w);
        assert_eq!(est.grad_evals(), 16); // +2×3 for the VR step
        let mut sgd = Estimator::begin(EstimatorKind::Sgd, &m, &d, &w);
        sgd.step(&m, &d, &[0, 1], &w);
        assert_eq!(sgd.grad_evals(), 12);
    }

    #[test]
    fn direction_stats_welford_matches_direct() {
        let xs = [4.0, 1.0, 9.0, 2.0, 2.0];
        let mut st = DirectionStats::default();
        st.start(3.0);
        for x in xs {
            st.push(x);
        }
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let m2: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
        assert!((st.mean_sq - mean).abs() < 1e-12);
        assert!((st.m2_sq - m2).abs() < 1e-12);
        assert_eq!(st.steps, 5);
        assert_eq!(st.solves, 1);
        assert!((st.anchor_sq - 3.0).abs() < 1e-12);
    }

    #[test]
    fn direction_stats_merge_equals_pooled() {
        let xs = [4.0, 1.0, 9.0, 2.0, 2.0, 7.5, 0.25];
        let mut pooled = DirectionStats::default();
        pooled.start(1.0);
        let (mut a, mut b) = (DirectionStats::default(), DirectionStats::default());
        a.start(0.25);
        b.start(0.75);
        for (i, x) in xs.iter().enumerate() {
            pooled.push(*x);
            if i < 3 {
                a.push(*x);
            } else {
                b.push(*x);
            }
        }
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.steps, pooled.steps);
        assert_eq!(merged.solves, 2);
        assert!((merged.mean_sq - pooled.mean_sq).abs() < 1e-12);
        assert!((merged.m2_sq - pooled.m2_sq).abs() < 1e-12);
        assert!((merged.anchor_sq - 1.0).abs() < 1e-12);
        // Merging into an empty accumulator copies the other side.
        let mut empty = DirectionStats::default();
        empty.merge(&pooled);
        assert!((empty.mean_sq - pooled.mean_sq).abs() < 1e-12);
    }

    #[test]
    fn probe_is_zero_when_disarmed() {
        // Without the telemetry feature, or with it compiled but the
        // collector disarmed, the probe must never record.
        let d = toy_data(6);
        let m = LinearRegression::new(2);
        let mut est = Estimator::begin(EstimatorKind::Svrg, &m, &d, &[0.1, 0.2]);
        est.step(&m, &d, &[0, 1], &[0.2, 0.1]);
        #[cfg(not(feature = "telemetry"))]
        assert_eq!(est.direction_stats(), DirectionStats::default());
        #[cfg(feature = "telemetry")]
        if !fedprox_telemetry::collector::is_armed() {
            assert_eq!(est.direction_stats(), DirectionStats::default());
        }
    }

    #[test]
    fn kind_names() {
        assert_eq!(EstimatorKind::Sarah.name(), "sarah");
        assert!(EstimatorKind::Svrg.needs_anchor());
        assert!(!EstimatorKind::Sgd.needs_anchor());
    }

    use fedprox_tensor::vecops;
}
