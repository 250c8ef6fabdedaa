//! Execution backends for one round of local updates.
//!
//! Devices within a round are independent (Algorithm 1 runs them "in
//! parallel"), so the parallel backend is a straight `par_iter` over
//! devices: the rayon shim splits them into static contiguous partitions,
//! one per available core, and returns the updates in device order.
//! Because each device draws from its own `(seed, round, id)` RNG stream,
//! the parallel backend produces *bit-identical* results to the
//! sequential one (the tests below plant a thread-dependent model to
//! show the comparison can fail).
//!
//! Every backend returns `Result`: the only failure today is driving
//! FSVRG without its server-distributed anchor gradient
//! ([`FedError::MissingGlobalGradient`]), surfaced as a value instead of
//! a panic so the trainer's public API stays panic-free.

use crate::config::FedConfig;
use crate::device::{Device, LocalUpdate};
use crate::error::FedError;
use fedprox_models::LossModel;
use rayon::prelude::*;

/// Run the local updates of one global iteration sequentially.
pub fn run_round_sequential<M: LossModel>(
    model: &M,
    devices: &[Device],
    global: &[f64],
    cfg: &FedConfig,
    round: usize,
) -> Result<Vec<LocalUpdate>, FedError> {
    devices.iter().map(|d| d.local_update(model, global, cfg, round)).collect()
}

/// Run the local updates of one global iteration across rayon.
pub fn run_round_parallel<M: LossModel>(
    model: &M,
    devices: &[Device],
    global: &[f64],
    cfg: &FedConfig,
    round: usize,
) -> Result<Vec<LocalUpdate>, FedError> {
    devices.par_iter().map(|d| d.local_update(model, global, cfg, round)).collect()
}

/// Run the local updates for a *subset* of devices (partial
/// participation). Results are in `indices` order. `global_grad` is the
/// server-distributed global gradient FSVRG anchors at (None otherwise).
#[allow(clippy::too_many_arguments)]
pub fn run_round_subset<M: LossModel>(
    model: &M,
    devices: &[Device],
    indices: &[usize],
    global: &[f64],
    cfg: &FedConfig,
    round: usize,
    parallel: bool,
    global_grad: Option<&[f64]>,
) -> Result<Vec<LocalUpdate>, FedError> {
    let update_one = |i: usize| {
        fedprox_telemetry::span!("core", "device_update", "device" => i, "round" => round);
        devices[i].local_update_anchored(model, global, cfg, round, global_grad)
    };
    if parallel {
        indices.par_iter().map(|&i| update_one(i)).collect()
    } else {
        indices.iter().map(|&i| update_one(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::Algorithm;
    use fedprox_data::synthetic::{generate, SyntheticConfig};
    use fedprox_data::Dataset;
    use fedprox_models::MultinomialLogistic;
    use fedprox_optim::estimator::EstimatorKind;

    fn small_federation() -> (Vec<Device>, MultinomialLogistic) {
        let shards = generate(&SyntheticConfig { seed: 3, ..Default::default() }, &[25, 40, 15]);
        let devices: Vec<Device> =
            shards.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();
        (devices, MultinomialLogistic::new(60, 10))
    }

    /// The backend comparison: the first (round, device) whose parallel
    /// update differs from the sequential one in any bit, if any.
    fn first_backend_mismatch<M: LossModel>(model: &M, devices: &[Device]) -> Option<String> {
        let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Sarah))
            .with_tau(8)
            .with_batch_size(8)
            .with_seed(11);
        let w0 = model.init_params(1);
        for round in 0..3 {
            let seq = run_round_sequential(model, devices, &w0, &cfg, round).expect("seq");
            let par = run_round_parallel(model, devices, &w0, &cfg, round).expect("par");
            assert_eq!(seq.len(), par.len());
            for (d, (a, b)) in seq.iter().zip(&par).enumerate() {
                if a.w != b.w || a.grad_evals != b.grad_evals {
                    return Some(format!("round {round}, device {d}"));
                }
            }
        }
        None
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let (devices, model) = small_federation();
        if let Some(at) = first_backend_mismatch(&model, &devices) {
            panic!("parallel diverged from sequential at {at}");
        }
    }

    /// A model whose gradients carry a 1e-12 bias off the thread that
    /// built it: exactly the thread-dependence the fan-out must never
    /// introduce, planted on purpose.
    struct ThreadBiased {
        inner: MultinomialLogistic,
        home: std::thread::ThreadId,
    }

    impl LossModel for ThreadBiased {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn init_params(&self, seed: u64) -> Vec<f64> {
            self.inner.init_params(seed)
        }
        fn sample_loss(&self, w: &[f64], data: &Dataset, i: usize) -> f64 {
            self.inner.sample_loss(w, data, i)
        }
        fn sample_grad_accum(&self, w: &[f64], data: &Dataset, i: usize, scale: f64, out: &mut [f64]) {
            self.inner.sample_grad_accum(w, data, i, scale, out);
            if std::thread::current().id() != self.home {
                out[0] += scale * 1e-12;
            }
        }
        fn predict(&self, w: &[f64], x: &[f64]) -> f64 {
            self.inner.predict(w, x)
        }
    }

    #[test]
    fn backend_comparison_catches_a_thread_dependent_model() {
        let threads = rayon::current_num_threads();
        if threads < 2 {
            eprintln!("single-threaded host: Parallel cannot differ from Sequential; skipping");
            return;
        }
        let (devices, inner) = small_federation();
        let model = ThreadBiased { inner, home: std::thread::current().id() };
        let at = first_backend_mismatch(&model, &devices);
        // The caller runs the first partition itself, so the mismatch
        // shows on the first device of the second partition.
        let first_on_worker = devices.len().div_ceil(threads.min(devices.len()));
        assert_eq!(
            at,
            Some(format!("round 0, device {first_on_worker}")),
            "comparison missed the planted bias"
        );
    }

    #[test]
    fn anchorless_fsvrg_round_fails_typed_on_both_backends() {
        let (devices, model) = small_federation();
        let cfg = FedConfig::new(Algorithm::Fsvrg).with_tau(2).with_batch_size(8);
        let w0 = model.init_params(1);
        for parallel in [false, true] {
            let err =
                run_round_subset(&model, &devices, &[0, 1, 2], &w0, &cfg, 0, parallel, None)
                    .expect_err("FSVRG without anchor must fail");
            assert!(matches!(err, FedError::MissingGlobalGradient { round: 0 }));
        }
    }
}
