//! Meso-benchmarks: one full federated round for each figure's workload
//! shape, plus the sequential-vs-parallel runner ablation (DESIGN.md) and
//! the server aggregation step.
//!
//! `bench_fig2_round` / `bench_fig3_round` / `bench_fig4_round` are the
//! `cargo bench` counterparts of the figure binaries: same model, same
//! data protocol, one global iteration.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fedprox_bench::{fashion_federation, mnist_federation, synthetic_federation};
use fedprox_core::device::LocalUpdate;
use fedprox_core::{runner, server, Algorithm, Device, FedConfig, FedError};
use fedprox_models::{Cnn, CnnSpec, LossModel, MultinomialLogistic};
use fedprox_optim::estimator::EstimatorKind;

fn cfg() -> FedConfig {
    FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
        .with_beta(5.0)
        .with_smoothness(5.0)
        .with_tau(5)
        .with_mu(0.1)
        .with_batch_size(4)
        .with_seed(1)
}

/// One full-participation round over every device.
fn round<M: LossModel>(
    model: &M,
    devices: &[Device],
    w0: &[f64],
    cfg: &FedConfig,
    parallel: bool,
) -> Result<Vec<LocalUpdate>, FedError> {
    let all: Vec<usize> = (0..devices.len()).collect();
    runner::run_round_subset(model, devices, &all, w0, cfg, 0, parallel, None)
}

fn bench_fig2_round(c: &mut Criterion) {
    let fed = fashion_federation(8, 40, 100, 1);
    let model = MultinomialLogistic::new(784, 10);
    let w0 = model.init_params(1);
    let cfg = cfg();
    let mut g = c.benchmark_group("fig2_round");
    g.sample_size(10);
    g.bench_function("logistic_8dev", |bch| {
        bch.iter(|| round(&model, &fed.devices, black_box(&w0), &cfg, true))
    });
    g.finish();
}

fn bench_fig3_round(c: &mut Criterion) {
    let fed = mnist_federation(4, 30, 60, 1);
    let model = Cnn::new(CnnSpec::tiny());
    // Downsample the 784-dim images to the tiny spec's 8x8 inputs.
    let devices: Vec<Device> = fed
        .devices
        .iter()
        .map(|d| {
            let side = 8;
            let feats: Vec<f64> = (0..d.data.len())
                .flat_map(|i| {
                    let x = d.data.x(i);
                    (0..side * side).map(move |j| {
                        let (r, c) = (j / side, j % side);
                        x[(r * 3) * 28 + c * 3]
                    })
                })
                .collect();
            let labels: Vec<f64> =
                (0..d.data.len()).map(|i| (d.data.class_of(i) % 3) as f64).collect();
            Device::new(
                d.id,
                fedprox_data::Dataset::new(
                    fedprox_tensor::Matrix::from_vec(d.data.len(), side * side, feats),
                    labels,
                    3,
                ),
            )
        })
        .collect();
    let w0 = model.init_params(1);
    let cfg = cfg();
    let mut g = c.benchmark_group("fig3_round");
    g.sample_size(10);
    g.bench_function("cnn_tiny_4dev", |bch| {
        bch.iter(|| round(&model, &devices, black_box(&w0), &cfg, true))
    });
    g.finish();
}

fn bench_fig4_round(c: &mut Criterion) {
    let fed = synthetic_federation(1.0, 1.0, 8, 40, 120, 1);
    let model = MultinomialLogistic::new(60, 10);
    let w0 = model.init_params(1);
    let cfg = cfg();
    let mut g = c.benchmark_group("fig4_round");
    g.sample_size(20);
    g.bench_function("synthetic_8dev", |bch| {
        bch.iter(|| round(&model, &fed.devices, black_box(&w0), &cfg, true))
    });
    g.finish();
}

fn bench_runner_ablation(c: &mut Criterion) {
    // Ablation: sequential vs parallel device execution.
    let fed = synthetic_federation(1.0, 1.0, 16, 80, 160, 2);
    let model = MultinomialLogistic::new(60, 10);
    let w0 = model.init_params(2);
    let cfg = cfg().with_tau(10);
    let mut g = c.benchmark_group("runner_ablation");
    g.sample_size(10);
    g.bench_function("sequential_16dev", |bch| {
        bch.iter(|| round(&model, &fed.devices, black_box(&w0), &cfg, false))
    });
    g.bench_function("parallel_16dev", |bch| {
        bch.iter(|| round(&model, &fed.devices, black_box(&w0), &cfg, true))
    });
    g.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    // Server-side cost (Algorithm 1 line 12) at CNN scale.
    let dim = 135_000;
    let n = 100;
    let locals_data: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64; dim]).collect();
    let weights = vec![1.0 / n as f64; n];
    let mut out = vec![0.0; dim];
    c.bench_function("aggregate_100dev_135k", |bch| {
        bch.iter(|| {
            let locals: Vec<(&[f64], f64)> = locals_data
                .iter()
                .zip(&weights)
                .map(|(w, &p)| (w.as_slice(), p))
                .collect();
            server::aggregate(black_box(&locals), &mut out)
        })
    });
}

fn bench_design_ablations(c: &mut Criterion) {
    // Per-round cost of the design knobs DESIGN.md calls out: iterate
    // rule (uniform-random keeps one extra candidate copy), partial
    // participation (less work per round), and the sparse composite prox.
    use fedprox_optim::solver::IterateChoice;
    let fed = synthetic_federation(1.0, 1.0, 12, 60, 140, 3);
    let model = MultinomialLogistic::new(60, 10);
    let w0 = model.init_params(3);
    let mut g = c.benchmark_group("design_ablations");
    g.sample_size(10);

    let base = cfg().with_tau(10);
    let all: Vec<usize> = (0..fed.devices.len()).collect();
    g.bench_function("iterate_last", |bch| {
        bch.iter(|| {
            runner::run_round_subset(&model, &fed.devices, &all, black_box(&w0), &base, 0, true, None)
        })
    });
    let random_iter = base.clone().with_iterate_choice(IterateChoice::UniformRandom);
    g.bench_function("iterate_uniform_random", |bch| {
        bch.iter(|| {
            runner::run_round_subset(
                &model, &fed.devices, &all, black_box(&w0), &random_iter, 0, true, None,
            )
        })
    });
    let half: Vec<usize> = (0..fed.devices.len() / 2).collect();
    g.bench_function("participation_half", |bch| {
        bch.iter(|| {
            runner::run_round_subset(&model, &fed.devices, &half, black_box(&w0), &base, 0, true, None)
        })
    });
    let sparse = base.clone().with_l1(0.01);
    g.bench_function("sparse_l1_prox", |bch| {
        bch.iter(|| {
            runner::run_round_subset(
                &model, &fed.devices, &all, black_box(&w0), &sparse, 0, true, None,
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fig2_round,
    bench_fig3_round,
    bench_fig4_round,
    bench_runner_ablation,
    bench_aggregation,
    bench_design_ablations
);
criterion_main!(benches);
