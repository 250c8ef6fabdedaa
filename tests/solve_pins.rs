//! Bitwise pins of whole training runs through the device update.
//!
//! Every digest below was recorded before the tiled matvec learned to
//! interleave all rows of a block and before the device update started
//! solving through a reused per-thread scratch. Both changes keep each
//! floating-point operation and every RNG draw in its old order, so the
//! pins must hold exactly: a drift means a kernel, solver or runtime
//! change moved a trajectory.
//!
//! A digest covers every bit of a `History`: its `Debug` rendering (the
//! config summary, divergence cause and participation records) plus the
//! raw bits of every float in the round records, the total simulated
//! time and the final model.
//!
//! Release builds (`target-cpu=native`) must reproduce the same digests
//! as debug builds; ci.sh runs this suite in `--release` next to the
//! kernel differential suite.

// Module-level helpers below sit outside #[test] fns, where
// clippy.toml's allow-expect-in-tests does not reach.
#![allow(clippy::expect_used)]

use fedprox::data::images::{self, ImageConfig};
use fedprox::data::partition::ZipfPopulation;
use fedprox::data::split::split_federation;
use fedprox::data::synthetic::{generate, SyntheticConfig, SyntheticPool};
use fedprox::faults::FaultRates;
use fedprox::models::{Cnn, CnnSpec, LossModel, Mlp, MultinomialLogistic};
use fedprox::net::NetOptions;
use fedprox::prelude::*;
use fedprox::tensor::Matrix;

/// FNV-1a over a byte stream.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of every bit of a run's history.
fn digest(h: &History) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for r in &h.records {
        words.extend([
            r.round as u64,
            r.train_loss.to_bits(),
            r.test_accuracy.to_bits(),
            r.grad_norm_sq.to_bits(),
            r.theta_measured.map_or(u64::MAX, f64::to_bits),
            r.sim_time.to_bits(),
            r.bytes,
            r.grad_evals,
        ]);
    }
    words.push(h.rounds_run as u64);
    words.push(h.total_sim_time.to_bits());
    words.extend(h.final_model.iter().map(|x| x.to_bits()));
    let text = format!("{h:?}");
    fnv(text.bytes().chain(words.iter().flat_map(|w| w.to_le_bytes())))
}

/// Synthetic(1, 1) devices on the 60-feature, 10-class problem.
fn synthetic_federation(seed: u64, sizes: &[usize]) -> (Vec<Device>, Dataset) {
    let shards = generate(&SyntheticConfig { seed, ..Default::default() }, sizes);
    let (train, test) = split_federation(&shards, seed);
    (train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect(), test)
}

/// Synthetic 28×28 images dealt two labels per device.
fn image_federation(seed: u64, sizes: Vec<usize>) -> (Vec<Device>, Dataset) {
    let total: usize = sizes.iter().sum();
    let pool = images::generate(&ImageConfig::fashion(seed), 2 * total);
    let shards = Partitioner::new(PartitionSpec::LabelShards { sizes, labels_per_device: 2 }, seed)
        .partition(&pool);
    let (train, test) = split_federation(&shards, seed ^ 0x75);
    (train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect(), test)
}

fn base(alg: Algorithm, seed: u64) -> FedConfig {
    FedConfig::new(alg)
        .with_beta(5.0)
        .with_smoothness(3.0)
        .with_tau(5)
        .with_mu(0.5)
        .with_batch_size(8)
        .with_rounds(6)
        .with_eval_every(2)
        .with_seed(seed)
}

fn train<M: LossModel>(model: &M, fed: &(Vec<Device>, Dataset), cfg: FedConfig) -> History {
    FederatedTrainer::new(model, &fed.0, &fed.1, cfg).run().expect("run")
}

#[test]
fn networked_svrg_under_random_faults_drops_and_quorum_is_pinned() {
    let fed = synthetic_federation(11, &[70, 90, 50, 110, 60, 80]);
    let model = MultinomialLogistic::new(60, 10);
    let rounds = 8;
    let rates = FaultRates {
        crash_prob: 0.25,
        offline_prob: 0.4,
        slow_prob: 0.3,
        flaky_prob: 0.3,
        max_slow_mult: 8.0,
        max_drop_prob: 0.3,
    };
    let plan = FaultPlan::random(2, fed.0.len(), rounds, &rates);
    let resil = Resilience::with_plan(plan).with_quorum(QuorumPolicy::weight_fraction(0.7));
    let net = NetOptions { drop_prob: 0.05, seed: 11, ..NetOptions::default() };
    let cfg = base(Algorithm::FedProxVr(EstimatorKind::Svrg), 11)
        .with_rounds(rounds)
        .with_resilience(resil)
        .with_runner(RunnerKind::Network(fedprox::core::config::NetRunnerOptions {
            net,
            sec_per_grad_eval: 1e-4,
        }));
    let h = train(&model, &fed, cfg);
    assert_eq!(h.participation.len(), rounds);
    // The plan must bite: devices drop out and the quorum skips rounds.
    assert!(h.participation.iter().any(|p| p.skipped));
    assert!(h.participation.iter().any(|p| p.responders() < fed.0.len()));
    // Re-recorded when `bytes` began counting each round's own traffic
    // instead of the run's average; the digest with every `bytes` zeroed
    // (7_126_977_498_422_058_863) did not move.
    assert_eq!(digest(&h), 2_472_528_003_316_586_605);
}

#[test]
fn lazy_event_driven_run_is_pinned() {
    let model = MultinomialLogistic::new(60, 10);
    let zipf = ZipfPopulation::new(3_000, 40, 120, 1.5, 4.0, 17);
    let pool = SyntheticPool::new(SyntheticConfig { seed: 17, ..Default::default() });
    let pop = Population::Lazy(LazyPopulation::new(zipf, pool));
    let cfg = base(Algorithm::FedProxVr(EstimatorKind::Svrg), 17)
        .with_tau(3)
        .with_rounds(4)
        .with_runner(RunnerKind::EventDriven(
            SimRunnerOptions::default().with_sampler(SamplerSpec::UniformK(10)).with_shards(4),
        ));
    let h = SimEngine::new(&model, pop, None, cfg).run().expect("sim");
    assert_eq!(digest(&h), 10_233_511_061_604_552_563);
}

#[test]
fn parallel_sarah_on_the_784x10_model_is_pinned() {
    let fed = image_federation(23, vec![30, 45, 25, 40]);
    let model = MultinomialLogistic::new(784, 10);
    let cfg = base(Algorithm::FedProxVr(EstimatorKind::Sarah), 23)
        .with_mu(0.1)
        .with_batch_size(4)
        .with_rounds(4)
        .with_measure_theta(true)
        .with_runner(RunnerKind::Parallel);
    let h = train(&model, &fed, cfg);
    assert_eq!(digest(&h), 6_981_623_613_893_378_663);
}

#[test]
fn fedavg_and_fedprox_are_pinned() {
    let fed = synthetic_federation(29, &[60, 90, 40, 80]);
    let model = MultinomialLogistic::new(60, 10);
    let avg = train(&model, &fed, base(Algorithm::FedAvg, 29));
    let prox = train(&model, &fed, base(Algorithm::FedProx, 29).with_runner(RunnerKind::Parallel));
    assert_eq!(
        [digest(&avg), digest(&prox)],
        [8_705_190_637_791_986_960, 9_767_698_559_219_282_556]
    );
}

#[test]
fn fsvrg_and_sparse_fedproxvr_are_pinned() {
    let fed = synthetic_federation(31, &[60, 90, 40, 80]);
    let model = MultinomialLogistic::new(60, 10);
    let fsvrg = train(&model, &fed, base(Algorithm::Fsvrg, 31));
    let sparse =
        train(&model, &fed, base(Algorithm::FedProxVr(EstimatorKind::Sarah), 31).with_l1(0.01));
    assert_eq!(
        [digest(&fsvrg), digest(&sparse)],
        [3_900_460_021_883_629_491, 2_674_161_422_551_559_065]
    );
}

#[test]
fn mlp_run_is_pinned() {
    let fed = synthetic_federation(37, &[60, 90, 40]);
    let model = Mlp::new(60, 24, 10);
    let cfg = base(Algorithm::FedProxVr(EstimatorKind::Svrg), 37)
        .with_rounds(4)
        .with_runner(RunnerKind::Parallel);
    let h = train(&model, &fed, cfg);
    assert_eq!(digest(&h), 10_176_319_137_409_274_519);
}

#[test]
fn small_cnn_run_is_pinned() {
    // The tiny CNN with its dense hidden layer: both heads run through
    // `matvec_into`. Class-banded 8×8 intensities, as in the model suite.
    let spec = CnnSpec::tiny_hidden();
    let pixels = spec.side * spec.side;
    let make = |id: usize, n: usize| -> Dataset {
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
        Dataset::new(f, y, spec.classes)
    };
    let fed: (Vec<Device>, Dataset) =
        ((0..3).map(|id| Device::new(id, make(id, 20 + 4 * id))).collect(), make(9, 18));
    let model = Cnn::new(spec);
    let cfg = base(Algorithm::FedProxVr(EstimatorKind::Svrg), 41)
        .with_smoothness(2.0)
        .with_tau(3)
        .with_rounds(3)
        .with_runner(RunnerKind::Parallel);
    let h = train(&model, &fed, cfg);
    assert_eq!(digest(&h), 16_512_400_165_239_356_541);
}
