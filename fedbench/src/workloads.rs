//! The four workloads: how each is set up from a seed, how its training
//! call is timed through the public entry point, and the correctness
//! checks every run must pass.

use fedprox_core::metrics::History;
use fedprox_core::{
    eval, Algorithm, Device, FedConfig, FederatedTrainer, RunnerKind, SamplerSpec, SimRunnerOptions,
};
use fedprox_data::images::{self, ImageConfig};
use fedprox_data::partition::{power_law_sizes, PartitionSpec, Partitioner, ZipfPopulation};
use fedprox_data::split::split_federation;
use fedprox_data::synthetic::{SyntheticConfig, SyntheticPool};
use fedprox_data::Dataset;
use fedprox_faults::{DeviceOutcome, FaultPlan, FaultRates, QuorumPolicy, Resilience};
use fedprox_models::{Cnn, CnnSpec, LossModel, MultinomialLogistic};
use fedprox_net::NetOptions;
use fedprox_optim::EstimatorKind;
use fedprox_sim::{LazyPopulation, Population, SimEngine};
use std::time::Instant;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 2 convex task: logistic regression on a fashion-like
    /// federation, in-process `Parallel` runner.
    ConvexFig2,
    /// Fig. 3 non-convex task: the small CNN on an MNIST-like federation.
    CnnFig3,
    /// K = 64 of a lazily synthesized million-device population on the
    /// event-driven engine.
    Sim1m,
    /// The networked actor runtime under a seeded random fault plan,
    /// message drops and a quorum policy.
    NetFaulty,
}

/// Sampled devices per `sim-1m` round.
pub const SIM_K: usize = 64;
/// Devices in the `sim-1m` population.
pub const SIM_DEVICES: usize = 1_000_000;
/// Device actors in `net-faulty`.
pub const NET_DEVICES: usize = 8;
/// Synthesized devices whose pooled loss is the `sim-1m` target.
const SIM_PROBE_DEVICES: usize = 32;

impl Workload {
    /// Every workload the command line accepts.
    pub const ALL: [Workload; 4] = [
        Workload::ConvexFig2,
        Workload::CnnFig3,
        Workload::Sim1m,
        Workload::NetFaulty,
    ];

    /// The workloads BENCHMARK.json lists, in the order the steadiness
    /// mode cycles them. `convex-fig2` and `cnn-fig3` stay runnable but
    /// are left out: their run-to-run spread on a 2-core host was wider
    /// than the bounds (see README.md).
    pub const BENCHMARKED: [Workload; 2] = [Workload::Sim1m, Workload::NetFaulty];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ConvexFig2 => "convex-fig2",
            Workload::CnnFig3 => "cnn-fig3",
            Workload::Sim1m => "sim-1m",
            Workload::NetFaulty => "net-faulty",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Round budget of one training call.
    pub fn rounds(self) -> usize {
        match self {
            Workload::ConvexFig2 => 60,
            Workload::CnnFig3 => 5,
            Workload::Sim1m => 120,
            Workload::NetFaulty => 300,
        }
    }

    /// Loss the budget must reach: the global training loss for the
    /// in-process and networked workloads, the probe-set loss relative
    /// to the initial model's for `sim-1m`.
    pub fn target(self) -> f64 {
        match self {
            Workload::ConvexFig2 => 0.9,
            Workload::CnnFig3 => 1.5,
            Workload::Sim1m => 0.9,
            Workload::NetFaulty => 1.0,
        }
    }

    /// Whether the workload reports eq. (19) virtual time.
    pub fn has_virtual_time(self) -> bool {
        matches!(self, Workload::Sim1m | Workload::NetFaulty)
    }
}

/// An in-process or networked federation with its model and config.
pub struct Fed<M> {
    /// The model.
    pub model: M,
    /// Devices with their shards.
    pub devices: Vec<Device>,
    /// Pooled test set.
    pub test: Dataset,
    /// Run configuration (runner included).
    pub cfg: FedConfig,
}

/// The lazily synthesized `sim-1m` population and its probe devices.
pub struct SimSetup {
    /// The 60×10 logistic model.
    pub model: MultinomialLogistic,
    /// Per-device sizes and compute factors.
    pub zipf: ZipfPopulation,
    /// Per-device shard synthesis.
    pub pool: SyntheticPool,
    /// Devices whose pooled loss the target is measured on.
    pub probe: Vec<Device>,
    /// Run configuration (event-driven runner).
    pub cfg: FedConfig,
}

impl SimSetup {
    /// The population handed to the engine (cheap: two small clones).
    pub fn population(&self) -> Population<'static> {
        Population::Lazy(LazyPopulation::new(self.zipf.clone(), self.pool.clone()))
    }

    /// Pooled loss of `w` over the probe devices.
    pub fn probe_loss(&self, w: &[f64]) -> f64 {
        eval::global_loss(&self.model, &self.probe, w)
    }
}

/// A workload's inputs, built from the seed.
pub enum Setup {
    /// `convex-fig2`.
    Convex(Fed<MultinomialLogistic>),
    /// `cnn-fig3`.
    Cnn(Fed<Cnn>),
    /// `sim-1m`.
    Sim(SimSetup),
    /// `net-faulty`.
    Net(Fed<MultinomialLogistic>),
}

/// Fig. 2's empirical smoothness scale for the image logistic tasks.
const FIG2_SMOOTHNESS: f64 = 5.0;

/// Seed of the workload *shape*: the power-law shard sizes (and, through
/// [`FAULT_SEED`], the `net-faulty` fault plan) are one fixed instance,
/// so the amount of work a run does (and its memory) does not change
/// with `--seed`; the sample contents, label assignment, initial model,
/// solver streams and link drops all come from `--seed`.
const SHAPE_SEED: u64 = 0x5EED;

/// Seed of the fixed `net-faulty` fault plan, chosen so the 70% quorum
/// skips about a third of the rounds (111 of 300) and crashes, offline
/// windows, slow devices and flaky links all occur.
const FAULT_SEED: u64 = 2;

/// The fashion/MNIST-like federation protocol of
/// `fedprox_bench::datasets` (power-law sizes, two labels per device, a
/// 75/25 split with pooled test parts) with the sizes drawn from
/// [`SHAPE_SEED`], and always on synthetic images.
fn image_federation(
    img: ImageConfig,
    devices: usize,
    min_size: usize,
    max_size: usize,
    seed: u64,
) -> (Vec<Device>, Dataset) {
    let sizes = power_law_sizes(devices, min_size, max_size, 1.5, SHAPE_SEED);
    let total: usize = sizes.iter().sum();
    // A pool ~2x the demand so two-label sharding has headroom.
    let pool = images::generate(&img, (2 * total).max(200));
    let shards = Partitioner::new(
        PartitionSpec::LabelShards {
            sizes,
            labels_per_device: 2,
        },
        seed,
    )
    .partition(&pool);
    let (train, test) = split_federation(&shards, seed ^ 0x75);
    (
        train
            .into_iter()
            .enumerate()
            .map(|(i, s)| Device::new(i, s))
            .collect(),
        test,
    )
}

fn net_config(seed: u64, rounds: usize) -> FedConfig {
    let rates = FaultRates {
        crash_prob: 0.25,
        offline_prob: 0.4,
        slow_prob: 0.3,
        flaky_prob: 0.3,
        max_slow_mult: 8.0,
        max_drop_prob: 0.3,
    };
    let plan = FaultPlan::random(FAULT_SEED, NET_DEVICES, rounds, &rates);
    let resilience = Resilience::with_plan(plan).with_quorum(QuorumPolicy::weight_fraction(0.7));
    let net = NetOptions {
        drop_prob: 0.05,
        seed,
        ..NetOptions::default()
    };
    FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
        .with_beta(5.0)
        .with_tau(4)
        .with_mu(0.1)
        .with_batch_size(4)
        .with_smoothness(FIG2_SMOOTHNESS)
        .with_rounds(rounds)
        .with_seed(seed)
        .with_eval_every(10)
        .with_resilience(resilience)
        .with_runner(RunnerKind::Network(
            fedprox_core::config::NetRunnerOptions {
                net,
                sec_per_grad_eval: 1e-4,
            },
        ))
}

impl Setup {
    /// Build the workload's inputs from `seed`. Everything the training
    /// call needs is built here, so the timed call does only training.
    pub fn build(w: Workload, seed: u64) -> Setup {
        let rounds = w.rounds();
        match w {
            Workload::ConvexFig2 => {
                let (devices, test) =
                    image_federation(ImageConfig::fashion(seed), 20, 40, 150, seed);
                let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Sarah))
                    .with_beta(5.0)
                    .with_tau(10)
                    .with_mu(0.1)
                    .with_batch_size(4)
                    .with_smoothness(FIG2_SMOOTHNESS)
                    .with_rounds(rounds)
                    .with_seed(seed)
                    .with_eval_every(5)
                    .with_runner(RunnerKind::Parallel);
                Setup::Convex(Fed {
                    model: MultinomialLogistic::new(784, 10),
                    devices,
                    test,
                    cfg,
                })
            }
            Workload::CnnFig3 => {
                let (devices, test) = image_federation(ImageConfig::mnist(seed), 5, 40, 100, seed);
                let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
                    .with_beta(5.0)
                    .with_tau(5)
                    .with_mu(0.01)
                    .with_batch_size(8)
                    .with_smoothness(4.0)
                    .with_rounds(rounds)
                    .with_seed(seed)
                    .with_eval_every(5)
                    .with_runner(RunnerKind::Parallel);
                Setup::Cnn(Fed {
                    model: Cnn::new(CnnSpec::small()),
                    devices,
                    test,
                    cfg,
                })
            }
            Workload::Sim1m => {
                let zipf = ZipfPopulation::new(SIM_DEVICES, 40, 120, 1.5, 4.0, seed);
                let syn = SyntheticConfig {
                    alpha: 0.5,
                    beta: 0.5,
                    seed,
                    ..Default::default()
                };
                let model = MultinomialLogistic::new(syn.dim, syn.num_classes);
                let pool = SyntheticPool::new(syn);
                // Probe devices spread over the id range, synthesized
                // exactly as the engine would synthesize them.
                let stride = SIM_DEVICES / SIM_PROBE_DEVICES;
                let probe = (0..SIM_PROBE_DEVICES)
                    .map(|j| {
                        let d = j * stride + 7;
                        Device::new(j, pool.device_shard(d, zipf.size_of(d)))
                    })
                    .collect();
                let opts = SimRunnerOptions::default()
                    .with_sampler(SamplerSpec::UniformK(SIM_K))
                    .with_shards(8);
                let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
                    .with_beta(5.0)
                    .with_tau(4)
                    .with_mu(0.1)
                    .with_batch_size(8)
                    .with_rounds(rounds)
                    .with_seed(seed)
                    .with_runner(RunnerKind::EventDriven(opts));
                Setup::Sim(SimSetup {
                    model,
                    zipf,
                    pool,
                    probe,
                    cfg,
                })
            }
            Workload::NetFaulty => {
                let (devices, test) =
                    image_federation(ImageConfig::fashion(seed), NET_DEVICES, 20, 60, seed);
                Setup::Net(Fed {
                    model: MultinomialLogistic::new(784, 10),
                    devices,
                    test,
                    cfg: net_config(seed, rounds),
                })
            }
        }
    }

    /// The run configuration.
    pub fn cfg(&self) -> &FedConfig {
        match self {
            Setup::Convex(f) | Setup::Net(f) => &f.cfg,
            Setup::Cnn(f) => &f.cfg,
            Setup::Sim(s) => &s.cfg,
        }
    }

    /// Materialized devices (0 for the lazy `sim-1m` population).
    pub fn devices(&self) -> usize {
        match self {
            Setup::Convex(f) | Setup::Net(f) => f.devices.len(),
            Setup::Cnn(f) => f.devices.len(),
            Setup::Sim(_) => 0,
        }
    }

    /// Model dimension.
    pub fn dim(&self) -> usize {
        match self {
            Setup::Convex(f) | Setup::Net(f) => f.model.dim(),
            Setup::Cnn(f) => f.model.dim(),
            Setup::Sim(s) => s.model.dim(),
        }
    }
}

/// One timed training call through the public entry point.
pub struct Outcome {
    /// The run's history.
    pub history: History,
    /// Wall seconds of the training call.
    pub train_s: f64,
    /// Device updates that entered an aggregation.
    pub updates: u64,
    /// Wall milliseconds of each round (`sim-1m` only: the engine's
    /// per-round callback is the only hook that exposes them).
    pub round_ms: Vec<f64>,
}

/// Updates aggregated by an in-process or networked run.
fn aggregated_updates(h: &History, devices: usize) -> u64 {
    if h.participation.is_empty() {
        return (h.rounds_run * devices) as u64;
    }
    h.participation
        .iter()
        .filter(|p| !p.skipped)
        .map(|p| p.responders() as u64)
        .sum()
}

/// Time one training call. Errors are typed run failures.
pub fn train(setup: &Setup) -> Result<Outcome, String> {
    fn fed_run<M: LossModel>(f: &Fed<M>) -> Result<Outcome, String> {
        let t0 = Instant::now();
        let history = FederatedTrainer::new(&f.model, &f.devices, &f.test, f.cfg.clone())
            .run()
            .map_err(|e| format!("training call failed: {e}"))?;
        let train_s = t0.elapsed().as_secs_f64();
        let updates = aggregated_updates(&history, f.devices.len());
        Ok(Outcome {
            history,
            train_s,
            updates,
            round_ms: Vec::new(),
        })
    }
    match setup {
        Setup::Convex(f) | Setup::Net(f) => fed_run(f),
        Setup::Cnn(f) => fed_run(f),
        Setup::Sim(s) => {
            let mut round_ms = Vec::with_capacity(s.cfg.rounds);
            let mut updates = 0u64;
            let t0 = Instant::now();
            let engine = SimEngine::new(&s.model, s.population(), None, s.cfg.clone());
            let mut last = Instant::now();
            let history = engine
                .run_with(|st| {
                    let now = Instant::now();
                    round_ms.push(now.duration_since(last).as_secs_f64() * 1e3);
                    last = now;
                    updates += st.active as u64;
                })
                .map_err(|e| format!("training call failed: {e}"))?;
            let train_s = t0.elapsed().as_secs_f64();
            Ok(Outcome {
                history,
                train_s,
                updates,
                round_ms,
            })
        }
    }
}

/// Correctness checks on one training call; each failure is a message.
pub fn check(w: Workload, setup: &Setup, out: &Outcome) -> Vec<String> {
    let h = &out.history;
    let mut bad = Vec::new();
    if h.diverged() {
        bad.push(format!("{}: diverged ({:?})", w.name(), h.divergence));
    }
    if h.rounds_run != w.rounds() {
        bad.push(format!(
            "{}: ran {} of {} rounds",
            w.name(),
            h.rounds_run,
            w.rounds()
        ));
    }
    if !h.final_model.iter().all(|x| x.is_finite()) {
        bad.push(format!("{}: non-finite final model", w.name()));
    }
    match setup {
        Setup::Sim(s) => {
            for p in &h.participation {
                let ids = p.sampled.as_deref().unwrap_or(&[]);
                let mut sorted = ids.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                if ids.len() != SIM_K || sorted.len() != SIM_K {
                    bad.push(format!(
                        "sim-1m: round {} drew {} ids ({} distinct), expected {SIM_K}",
                        p.round,
                        ids.len(),
                        sorted.len()
                    ));
                }
            }
            if h.participation.len() != h.rounds_run {
                bad.push(format!(
                    "sim-1m: {} participation records for {} rounds",
                    h.participation.len(),
                    h.rounds_run
                ));
            }
            let ratio = sim_loss_ratio(s, &h.final_model);
            if ratio.is_nan() || ratio > w.target() {
                bad.push(format!(
                    "sim-1m: probe loss ratio {ratio:.4} above target {}",
                    w.target()
                ));
            }
        }
        _ => {
            match h.final_loss() {
                Some(l) if l <= w.target() => {}
                other => bad.push(format!(
                    "{}: final loss {other:?} above target {}",
                    w.name(),
                    w.target()
                )),
            }
            if let Setup::Net(_) = setup {
                bad.extend(crashed_never_return(h));
            }
        }
    }
    bad
}

/// Probe-set loss of `w` over that of the initial model.
fn sim_loss_ratio(s: &SimSetup, w: &[f64]) -> f64 {
    let init = s.model.init_params(s.cfg.seed);
    s.probe_loss(w) / s.probe_loss(&init)
}

/// A crashed device never responds (or is even scheduled) again.
fn crashed_never_return(h: &History) -> Vec<String> {
    let mut bad = Vec::new();
    let mut crashed_at: Vec<Option<usize>> = Vec::new();
    for p in &h.participation {
        if crashed_at.len() < p.outcomes.len() {
            crashed_at.resize(p.outcomes.len(), None);
        }
        for (d, o) in p.outcomes.iter().enumerate() {
            match (crashed_at[d], *o) {
                (None, DeviceOutcome::Crashed) => crashed_at[d] = Some(p.round),
                (Some(_), DeviceOutcome::Crashed) => {}
                (Some(r), other) => bad.push(format!(
                    "net-faulty: device {d} crashed in round {r} but is {} in round {}",
                    other.name(),
                    p.round
                )),
                (None, _) => {}
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_faults::RoundParticipation;

    #[test]
    fn a_crashed_device_that_responds_again_is_flagged() {
        use DeviceOutcome::{Crashed, Offline, Responded};
        let round = |s: usize, outcomes: Vec<DeviceOutcome>| RoundParticipation {
            round: s,
            outcomes,
            responder_weight: 0.5,
            skipped: false,
            sampled: None,
        };
        let mut h = History {
            config: FedConfig::new(Algorithm::FedAvg).summary(),
            records: Vec::new(),
            divergence: Default::default(),
            rounds_run: 3,
            total_sim_time: 0.0,
            final_model: Vec::new(),
            participation: vec![
                round(1, vec![Responded, Offline]),
                round(2, vec![Crashed, Responded]),
                round(3, vec![Crashed, Responded]),
            ],
        };
        assert!(crashed_never_return(&h).is_empty());
        h.participation[2].outcomes[0] = Responded;
        let bad = crashed_never_return(&h);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("device 0 crashed in round 2"), "{bad:?}");
    }
}
