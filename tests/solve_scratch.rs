//! The device update's per-thread solve scratch (DESIGN.md §12).
//!
//! `Device::local_update_anchored` solves through buffers kept in a
//! thread-local and reused by every update on that thread. Reuse must
//! be invisible: one thread driven through every solve variant, across
//! model dimensions, must produce the bits a fresh thread (fresh
//! buffers) produces for each update. And once warm, an update must
//! allocate little beyond the model it returns.

// Module-level helpers below sit outside #[test] fns, where
// clippy.toml's allow-expect-in-tests does not reach.
#![allow(clippy::expect_used)]

use fedprox::core::device::LocalUpdate;
use fedprox::data::images::{self, ImageConfig};
use fedprox::data::synthetic::{generate, SyntheticConfig};
use fedprox::models::{Cnn, CnnSpec, MultinomialLogistic};
use fedprox::prelude::*;
use fedprox::tensor::Matrix;

fn bits(u: &LocalUpdate) -> (Vec<u64>, usize) {
    (u.w.iter().map(|x| x.to_bits()).collect(), u.grad_evals)
}

fn base(alg: Algorithm) -> FedConfig {
    FedConfig::new(alg)
        .with_beta(5.0)
        .with_smoothness(3.0)
        .with_tau(6)
        .with_mu(0.3)
        .with_batch_size(6)
        .with_seed(19)
}

/// Synthetic(1, 1) shard on the 60-feature problem (a 610-parameter
/// logistic model).
fn synthetic_device(id: usize, n: usize) -> Device {
    let shards = generate(&SyntheticConfig { seed: 19 + id as u64, ..Default::default() }, &[n]);
    Device::new(id, shards.into_iter().next().expect("one shard"))
}

/// 28×28 image shard (a 7,850-parameter logistic model).
fn image_device(id: usize, n: usize) -> Device {
    Device::new(id, images::generate(&ImageConfig::fashion(23 + id as u64), n))
}

/// Class-banded 8×8 shard for the tiny CNN with a hidden dense layer.
fn cnn_device(id: usize, n: usize) -> Device {
    let spec = CnnSpec::tiny_hidden();
    let pixels = spec.side * spec.side;
    let mut f = Matrix::zeros(n, pixels);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let cls = i % spec.classes;
        for (j, v) in f.row_mut(i).iter_mut().enumerate() {
            let h = (((i * 31 + j * 7 + id * 13) % 17) as f64) / 17.0;
            *v = (0.2 + 0.3 * cls as f64 + 0.2 * h).min(1.0);
        }
        y.push(cls as f64);
    }
    Device::new(id, Dataset::new(f, y, spec.classes))
}

/// One device update, by model, so a list of them can run in any order
/// on any thread.
enum Job<'a> {
    Logistic(&'a MultinomialLogistic, &'a Device, FedConfig, Option<Vec<f64>>),
    Cnn(&'a Cnn, &'a Device, FedConfig),
}

impl Job<'_> {
    fn run(&self, round: usize) -> LocalUpdate {
        match self {
            Job::Logistic(m, d, cfg, grad) => {
                let w = m.init_params(cfg.seed);
                d.local_update_anchored(*m, &w, cfg, round, grad.as_deref()).expect("update")
            }
            Job::Cnn(m, d, cfg) => {
                let w = m.init_params(cfg.seed);
                d.local_update(*m, &w, cfg, round).expect("update")
            }
        }
    }
}

#[test]
fn one_threads_scratch_through_every_variant_matches_fresh_solves_bitwise() {
    let small = MultinomialLogistic::new(60, 10);
    let large = MultinomialLogistic::new(784, 10);
    let cnn = Cnn::new(CnnSpec::tiny_hidden());
    let syn = synthetic_device(0, 70);
    let img = image_device(1, 40);
    let conv = cnn_device(2, 24);
    let grad610 = vec![0.01; small.dim()];
    let grad7850 = vec![-0.002; large.dim()];
    let sparse = base(Algorithm::FedProxVr(EstimatorKind::Sarah)).with_l1(0.02);
    // Dimensions move 610 → 7,850 → CNN → 610 → 7,850, and every
    // variant of the update runs at least once: FedAvg's mini-batch
    // start, FedProx, SVRG, SARAH, the l1 prox and FSVRG's anchor.
    let jobs = [
        Job::Logistic(&small, &syn, base(Algorithm::FedAvg), None),
        Job::Logistic(&small, &syn, base(Algorithm::FedProx), None),
        Job::Logistic(&small, &syn, base(Algorithm::FedProxVr(EstimatorKind::Svrg)), None),
        Job::Logistic(&large, &img, base(Algorithm::FedProxVr(EstimatorKind::Svrg)), None),
        Job::Logistic(&large, &img, base(Algorithm::FedAvg).with_batch_size(64), None),
        Job::Logistic(&large, &img, base(Algorithm::Fsvrg), Some(grad7850)),
        Job::Cnn(&cnn, &conv, base(Algorithm::FedProxVr(EstimatorKind::Svrg)).with_tau(2)),
        Job::Cnn(&cnn, &conv, base(Algorithm::FedProx).with_tau(2)),
        Job::Logistic(&small, &syn, base(Algorithm::FedProxVr(EstimatorKind::Sarah)), None),
        Job::Logistic(&small, &syn, sparse, None),
        Job::Logistic(&small, &syn, base(Algorithm::Fsvrg), Some(grad610)),
        Job::Logistic(&large, &img, base(Algorithm::FedProxVr(EstimatorKind::Sarah)), None),
        Job::Logistic(&small, &syn, base(Algorithm::FedAvg).with_batch_size(70), None),
    ];
    let reused: Vec<LocalUpdate> = std::thread::scope(|s| {
        s.spawn(|| jobs.iter().enumerate().map(|(i, j)| j.run(i)).collect())
            .join()
            .expect("reusing thread")
    });
    for (i, (job, got)) in jobs.iter().zip(&reused).enumerate() {
        let fresh = std::thread::scope(|s| s.spawn(|| job.run(i)).join().expect("fresh thread"));
        assert_eq!(bits(got), bits(&fresh), "job {i} differs from a fresh-scratch solve");
    }
}

#[test]
fn warm_updates_allocate_little_beyond_the_returned_model() {
    if !fedprox_perfbench::alloc::counting_enabled() {
        eprintln!("counting allocator disabled; skipping the allocation bound");
        return;
    }
    let large = MultinomialLogistic::new(784, 10);
    let img = image_device(1, 40);
    let w = large.init_params(7);
    let dim = large.dim();
    for alg in [
        Algorithm::FedProxVr(EstimatorKind::Svrg),
        Algorithm::FedProxVr(EstimatorKind::Sarah),
        Algorithm::FedProx,
        Algorithm::FedAvg,
    ] {
        let cfg = base(alg);
        // Warm this thread's scratch, then measure one more update.
        for round in 0..2 {
            img.local_update(&large, &w, &cfg, round).expect("warm-up");
        }
        let before = fedprox_perfbench::alloc::thread_stats();
        let upd = img.local_update(&large, &w, &cfg, 2).expect("update");
        let spent = fedprox_perfbench::alloc::thread_stats().since(&before);
        assert_eq!(upd.w.len(), dim);
        eprintln!("{}: {} bytes in {} calls", alg.name(), spent.bytes, spent.calls);
        // The returned model is 8·dim bytes; a fresh scratch would add
        // about a dozen more model-sized buffers.
        assert!(
            spent.bytes <= 8 * dim as u64 + 1024,
            "{}: a warm update allocated {} bytes ({} calls) against a {}-byte model",
            alg.name(),
            spent.bytes,
            spent.calls,
            8 * dim
        );
    }
}
