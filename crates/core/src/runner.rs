//! Execution backends for one round of local updates.
//!
//! Devices within a round are independent (Algorithm 1 runs them "in
//! parallel"), so the parallel backend is a straight `par_iter` over
//! devices ([`fan_out`]): the rayon shim splits them into static
//! contiguous partitions, one per available core, and returns the
//! updates in device order. This is the workspace's only level of
//! parallelism; the kernels and batch reductions below it run on the
//! device's thread. Because each device draws from its own
//! `(seed, round, id)` RNG stream, the parallel backend produces
//! *bit-identical* results to the sequential one (the tests below plant
//! a thread-dependent model to show the comparison can fail).
//!
//! Every backend returns `Result`: driving FSVRG without its
//! server-distributed anchor gradient
//! ([`FedError::MissingGlobalGradient`]) or naming a device that does
//! not exist ([`FedError::UnknownDevice`]) is surfaced as a value
//! instead of a panic so the trainer's public API stays panic-free.

use crate::config::FedConfig;
use crate::device::{Device, LocalUpdate};
use crate::error::FedError;
use fedprox_models::LossModel;
use fedprox_telemetry::SpanPath;
use rayon::prelude::*;

/// Map `f` over `items` across the device fan-out, collecting the
/// results in input order. Worker threads nest their telemetry spans
/// under the caller's open span path.
pub fn fan_out<'a, T, R, C, F>(items: &'a [T], f: F) -> C
where
    T: Sync,
    R: Send,
    C: FromIterator<R>,
    F: Fn(&'a T) -> R + Sync,
{
    let path = SpanPath::capture();
    items.par_iter().map(|item| path.enter(|| f(item))).collect()
}

/// Run the local updates for the devices at `indices` (all of them for
/// full participation, a sample for partial participation). Results are
/// in `indices` order. `global_grad` is the server-distributed global
/// gradient FSVRG anchors at (None otherwise).
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
    let update_one = |&i: &usize| {
        let device = devices
            .get(i)
            .ok_or(FedError::UnknownDevice { index: i, devices: devices.len() })?;
        fedprox_telemetry::span!("core", "device_update", "device" => i, "round" => round);
        device.local_update_anchored(model, global, cfg, round, global_grad)
    };
    if parallel {
        fan_out(indices, update_one)
    } else {
        indices.iter().map(update_one).collect()
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
        let all: Vec<usize> = (0..devices.len()).collect();
        let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Sarah))
            .with_tau(8)
            .with_batch_size(8)
            .with_seed(11);
        let w0 = model.init_params(1);
        for round in 0..3 {
            let run = |parallel| {
                run_round_subset(model, devices, &all, &w0, &cfg, round, parallel, None)
            };
            let seq = run(false).expect("seq");
            let par = run(true).expect("par");
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

    #[test]
    fn out_of_range_index_fails_typed_on_both_backends() {
        let (devices, model) = small_federation();
        let cfg = FedConfig::new(Algorithm::FedAvg).with_tau(2).with_batch_size(8);
        let w0 = model.init_params(1);
        for parallel in [false, true] {
            let err = run_round_subset(&model, &devices, &[0, 3, 1], &w0, &cfg, 0, parallel, None)
                .expect_err("device 3 of 3 must be rejected");
            assert_eq!(err, FedError::UnknownDevice { index: 3, devices: 3 });
        }
    }
}
