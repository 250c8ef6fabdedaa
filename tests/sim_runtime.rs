//! The event-driven backend's correctness contract (DESIGN.md §13):
//! trajectory inheritance from the sequential backend, sampling
//! determinism, 1/p aggregation reweighting, stable-id fault addressing
//! on sampled rounds, and the active-set memory bound.
//!
//! Everything here serializes on one lock: the allocation-traffic tests
//! read the process-wide counting allocator (pulled in via the
//! `fedprox-perfbench` dev-dependency), which must see the engine's own
//! fan-out threads, so concurrent test threads would pollute the
//! per-round deltas.

// Module-level helpers below sit outside #[test] fns, where
// clippy.toml's allow-expect-in-tests does not reach.
#![allow(clippy::expect_used)]

use fedprox::data::split::split_federation;
use fedprox::data::synthetic::{generate, SyntheticConfig, SyntheticPool};
use fedprox::data::partition::ZipfPopulation;
use fedprox::data::Dataset;
use fedprox::models::MultinomialLogistic;
use fedprox::prelude::*;
use fedprox::sim::sampler::bernoulli_reweight;
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A test panicking while holding the lock must not wedge the rest.
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn federation(seed: u64) -> (Vec<Device>, Dataset) {
    let shards =
        generate(&SyntheticConfig { seed, ..Default::default() }, &[60, 90, 40, 80]);
    let (train, test) = split_federation(&shards, seed);
    (train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect(), test)
}

fn base_cfg() -> FedConfig {
    FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
        .with_beta(5.0)
        .with_tau(5)
        .with_mu(0.5)
        .with_batch_size(8)
        .with_rounds(8)
        .with_seed(7)
}

/// A round record's trajectory content — every field except the
/// sim-time/byte columns, which the sequential backend leaves at zero
/// and the engine fills from the virtual clock.
fn record_bits(r: &RoundRecord) -> (usize, u64, u64, u64, Option<u64>, u64) {
    (
        r.round,
        r.train_loss.to_bits(),
        r.test_accuracy.to_bits(),
        r.grad_norm_sq.to_bits(),
        r.theta_measured.map(f64::to_bits),
        r.grad_evals,
    )
}

fn model_bits(h: &History) -> Vec<u64> {
    h.final_model.iter().map(|x| x.to_bits()).collect()
}

fn assert_trajectories_match(seq: &History, sim: &History, what: &str) {
    assert_eq!(seq.records.len(), sim.records.len(), "{what}: record counts");
    for (a, b) in seq.records.iter().zip(&sim.records) {
        assert_eq!(record_bits(a), record_bits(b), "{what}: round {}", a.round);
    }
    assert_eq!(model_bits(seq), model_bits(sim), "{what}: final model");
    assert_eq!(seq.rounds_run, sim.rounds_run, "{what}: rounds_run");
    assert_eq!(seq.divergence, sim.divergence, "{what}: divergence");
}

#[test]
fn full_sampling_reproduces_the_sequential_trajectory_bitwise() {
    let _g = lock();
    let (devices, test) = federation(3);
    let model = MultinomialLogistic::new(60, 10);
    let seq = FederatedTrainer::new(&model, &devices, &test, base_cfg())
        .run()
        .expect("sequential");
    let cfg = base_cfg().with_runner(RunnerKind::EventDriven(SimRunnerOptions::default()));
    let sim = SimEngine::new(&model, Population::Materialized(&devices), Some(&test), cfg)
        .run()
        .expect("sim");
    assert_trajectories_match(&seq, &sim, "p=1");
    // The engine additionally reports virtual time the sequential
    // backend has no notion of.
    assert!(sim.total_sim_time > 0.0 && seq.total_sim_time == 0.0);
}

#[test]
fn uniform_k_reproduces_sequential_partial_participation_bitwise() {
    let _g = lock();
    let (devices, test) = federation(5);
    let model = MultinomialLogistic::new(60, 10);
    let p = 0.5;
    let seq = FederatedTrainer::new(&model, &devices, &test, base_cfg().with_participation(p))
        .run()
        .expect("sequential");
    // K = ⌈pN⌉ consumes the identical (seed, round) sampling stream.
    let k = ((p * devices.len() as f64).ceil() as usize).clamp(1, devices.len());
    let cfg = base_cfg().with_runner(RunnerKind::EventDriven(
        SimRunnerOptions::default().with_sampler(SamplerSpec::UniformK(k)),
    ));
    let sim = SimEngine::new(&model, Population::Materialized(&devices), Some(&test), cfg)
        .run()
        .expect("sim");
    assert_trajectories_match(&seq, &sim, "uniform-k");
}

#[test]
fn faulted_full_sampling_matches_sequential_including_participation() {
    let _g = lock();
    let (devices, test) = federation(11);
    let model = MultinomialLogistic::new(60, 10);
    // Device 1 crashes at round 3, device 2 sits out rounds 2–4; a
    // 3-responder quorum then skips rounds 3 and 4.
    let resilience = Resilience::with_plan(FaultPlan::new().crash(1, 3).offline(2, 2, 4))
        .with_quorum(QuorumPolicy { min_responders: 3, ..QuorumPolicy::default() });
    let seq = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        base_cfg().with_resilience(resilience.clone()),
    )
    .run()
    .expect("sequential");
    let cfg = base_cfg()
        .with_resilience(resilience)
        .with_runner(RunnerKind::EventDriven(SimRunnerOptions::default()));
    let sim = SimEngine::new(&model, Population::Materialized(&devices), Some(&test), cfg)
        .run()
        .expect("sim");
    assert_trajectories_match(&seq, &sim, "faulted p=1");
    // Dense participation records (materialized population) are the
    // sequential backend's exact layout, so whole-record equality holds.
    assert_eq!(seq.participation, sim.participation);
    assert!(seq.participation.iter().any(|r| r.skipped), "fixture should skip rounds");
}

#[test]
fn trainer_event_driven_is_the_engine_over_its_devices() {
    let _g = lock();
    let (devices, test) = federation(13);
    let model = MultinomialLogistic::new(60, 10);
    // Device 1 crashes at round 3, device 2 sits out rounds 2–4 and
    // device 3 runs 6x slow, past the 0.5 s deadline; a 3-responder
    // quorum then skips rounds 3 and 4. Jitter draws its own stream.
    let resilience = Resilience::with_plan(
        FaultPlan::new().crash(1, 3).offline(2, 2, 4).slow(3, 6.0, 1, 8),
    )
    .with_deadline(0.5)
    .with_quorum(QuorumPolicy { min_responders: 3, ..QuorumPolicy::default() });
    let opts = SimRunnerOptions::default().with_sec_per_grad_eval(1e-3).with_jitter(0.2);
    let cfg = base_cfg()
        .with_measure_theta(true)
        .with_resilience(resilience)
        .with_runner(RunnerKind::EventDriven(opts));
    let trainer = FederatedTrainer::new(&model, &devices, &test, cfg.clone())
        .run()
        .expect("trainer");
    let engine = SimEngine::new(&model, Population::Materialized(&devices), Some(&test), cfg)
        .run()
        .expect("engine");

    assert_trajectories_match(&trainer, &engine, "event-driven");
    for (a, b) in trainer.records.iter().zip(&engine.records) {
        assert_eq!(a.sim_time.to_bits(), b.sim_time.to_bits(), "round {} sim_time", a.round);
        assert_eq!(a.bytes, b.bytes, "round {} bytes", a.round);
    }
    assert_eq!(trainer.total_sim_time.to_bits(), engine.total_sim_time.to_bits());
    assert_eq!(trainer.participation, engine.participation);
    assert_eq!(trainer.config, engine.config);
    // The fixture exercises what it claims to.
    assert!(trainer.total_sim_time > 0.0);
    assert!(trainer.records.last().is_some_and(|r| r.bytes > 0 && r.sim_time > 0.0));
    let misses: usize =
        trainer.participation.iter().map(|p| p.count(DeviceOutcome::DeadlineMiss)).sum();
    assert!(misses > 0, "fixture should miss the deadline");
    assert!(trainer.participation.iter().any(|p| p.skipped), "fixture should skip rounds");
}

fn lazy_population(devices: usize, seed: u64) -> LazyPopulation {
    let zipf = ZipfPopulation::new(devices, 40, 120, 1.5, 4.0, seed);
    let pool = SyntheticPool::new(SyntheticConfig { seed, ..Default::default() });
    LazyPopulation::new(zipf, pool)
}

fn lazy_cfg(sampler: SamplerSpec, shards: usize, seed: u64) -> FedConfig {
    FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
        .with_beta(5.0)
        .with_tau(3)
        .with_mu(0.5)
        .with_batch_size(8)
        .with_rounds(4)
        .with_seed(seed)
        .with_runner(RunnerKind::EventDriven(
            SimRunnerOptions::default().with_sampler(sampler).with_shards(shards),
        ))
}

#[test]
fn sampled_runs_are_bitwise_stable_and_shard_count_invariant() {
    let _g = lock();
    let model = MultinomialLogistic::new(60, 10);
    let run = |shards: usize| {
        let pop = Population::Lazy(lazy_population(2_000, 5));
        SimEngine::new(&model, pop, None, lazy_cfg(SamplerSpec::UniformK(12), shards, 5))
            .run()
            .expect("sim")
    };
    let (a, b) = (run(8), run(8));
    assert_eq!(model_bits(&a), model_bits(&b), "same seed, same shards");
    assert_eq!(a.participation, b.participation);
    // Sharding is a memory/locality knob: 1 shard and 64 shards replay
    // the identical schedule, trajectory and virtual time.
    let c = run(1);
    let d = run(64);
    assert_eq!(model_bits(&a), model_bits(&c), "shards=1");
    assert_eq!(model_bits(&a), model_bits(&d), "shards=64");
    assert_eq!(a.total_sim_time.to_bits(), c.total_sim_time.to_bits());
    assert_eq!(a.total_sim_time.to_bits(), d.total_sim_time.to_bits());
    assert_eq!(a.participation, c.participation);
}

#[test]
fn bernoulli_reweighting_restores_the_full_participation_weight_total() {
    let _g = lock();
    // Unit level: Σ w_i/p + residual == Σ w_i == 1 for any active set.
    let weights = [0.12, 0.3, 0.08, 0.25];
    for p in [0.05, 0.25, 0.8] {
        let (scaled, residual) = bernoulli_reweight(&weights, p);
        let total = scaled.iter().sum::<f64>() + residual;
        assert!((total - 1.0).abs() < 1e-12, "p={p}: total {total}");
    }
    // p = 1 short-circuits to the raw weights, so the engine's
    // Bernoulli(1.0) run is bitwise its Full run.
    let model = MultinomialLogistic::new(60, 10);
    let run = |sampler: SamplerSpec| {
        let pop = Population::Lazy(lazy_population(300, 17));
        SimEngine::new(&model, pop, None, lazy_cfg(sampler, 8, 17)).run().expect("sim")
    };
    let full = run(SamplerSpec::Full);
    let bern = run(SamplerSpec::Bernoulli(1.0));
    assert_eq!(model_bits(&full), model_bits(&bern));
}

#[test]
fn fault_plans_address_sampled_devices_by_stable_id() {
    let _g = lock();
    let model = MultinomialLogistic::new(60, 10);
    let seed = 23;
    // Find a device the round-1 sample actually contains, then crash it
    // from round 1. The compact participation record must blame exactly
    // that stable id, wherever it lands in the sampled set.
    let pop = Population::Lazy(lazy_population(5_000, seed));
    let probe = SimEngine::new(&model, pop, None, lazy_cfg(SamplerSpec::UniformK(10), 8, seed))
        .run()
        .expect("probe");
    let round1 = &probe.participation[0];
    let sampled = round1.sampled.as_ref().expect("lazy records are compact");
    let victim = sampled[sampled.len() / 2] as usize;

    let resilience = Resilience::with_plan(FaultPlan::new().crash(victim, 1));
    let pop = Population::Lazy(lazy_population(5_000, seed));
    let faulted = SimEngine::new(
        &model,
        pop,
        None,
        lazy_cfg(SamplerSpec::UniformK(10), 8, seed).with_resilience(resilience),
    )
    .run()
    .expect("faulted");
    let rec = &faulted.participation[0];
    assert_eq!(rec.outcome_of(victim), DeviceOutcome::Crashed);
    for &d in faulted.participation[0].sampled.as_ref().expect("compact") {
        if d as usize != victim {
            assert_eq!(rec.outcome_of(d as usize), DeviceOutcome::Responded, "device {d}");
        }
    }
    // A never-sampled device reports NotSelected, not a positional alias.
    let unsampled = (0..5_000).find(|d| !sampled.contains(&(*d as u32))).expect("exists");
    assert_eq!(rec.outcome_of(unsampled), DeviceOutcome::NotSelected);
}

/// Peak per-round allocation traffic (every thread) of a sampled run
/// over `devices` equal-sized devices, in bytes, ignoring round 1
/// (one-off warmup: aggregation buffers, heaps).
fn peak_round_alloc(devices: usize, k: usize, seed: u64) -> u64 {
    let model = MultinomialLogistic::new(60, 10);
    // Equal shard sizes make the active set's work identical at every N,
    // so any per-round difference between populations is a population
    // term.
    let zipf = ZipfPopulation::new(devices, 80, 80, 1.5, 4.0, seed);
    let pool = SyntheticPool::new(SyntheticConfig { seed, ..Default::default() });
    let pop = Population::Lazy(LazyPopulation::new(zipf, pool));
    let engine =
        SimEngine::new(&model, pop, None, lazy_cfg(SamplerSpec::UniformK(k), 8, seed));
    let mut last = fedprox_perfbench::alloc::stats();
    let mut peak = 0u64;
    engine
        .run_with(|stats| {
            let now = fedprox_perfbench::alloc::stats();
            let delta = now.since(&last).bytes;
            last = now;
            if stats.round > 1 {
                peak = peak.max(delta);
            }
        })
        .expect("sim");
    peak
}

#[test]
fn round_memory_is_bounded_by_the_active_set_not_the_population() {
    let _g = lock();
    if !fedprox_perfbench::alloc::counting_enabled() {
        eprintln!("counting allocator disabled; skipping the memory-bound check");
        return;
    }
    // 16 sampled devices per round. The active set's working memory is
    // a fixed ~1.8 MiB per round (measured; equal within a few hundred
    // bytes across N); a single O(N) term, say an 8-byte index per
    // device, would add 80 KiB at N = 10⁴ and 8 MiB at N = 10⁶.
    let peaks: Vec<(usize, u64)> = [10_000, 100_000, 1_000_000]
        .into_iter()
        .map(|n| (n, peak_round_alloc(n, 16, 31)))
        .collect();
    eprintln!("peak per-round alloc traffic by population: {peaks:?}");
    for &(n, peak) in &peaks {
        assert!(peak < 4 * 1024 * 1024, "N = {n}: per-round alloc traffic {peak} bytes");
    }
    let lo = peaks.iter().map(|p| p.1).min().unwrap_or(0);
    let hi = peaks.iter().map(|p| p.1).max().unwrap_or(0);
    assert!(
        hi - lo < 16 * 1024,
        "per-round alloc traffic moves with the population: {peaks:?}"
    );
}

#[test]
fn compute_heterogeneity_changes_time_but_never_the_trajectory() {
    let _g = lock();
    let model = MultinomialLogistic::new(60, 10);
    let run = |spread: f64| {
        let zipf = ZipfPopulation::new(800, 40, 120, 1.5, spread, 13);
        let pool = SyntheticPool::new(SyntheticConfig { seed: 13, ..Default::default() });
        let pop = Population::Lazy(LazyPopulation::new(zipf, pool));
        SimEngine::new(&model, pop, None, lazy_cfg(SamplerSpec::UniformK(10), 8, 13))
            .run()
            .expect("sim")
    };
    let uniform = run(1.0);
    let spread = run(8.0);
    assert_eq!(model_bits(&uniform), model_bits(&spread), "timing fed back into training");
    assert!(
        spread.total_sim_time > uniform.total_sim_time,
        "hardware spread should stretch the virtual clock: {} vs {}",
        spread.total_sim_time,
        uniform.total_sim_time
    );
}
