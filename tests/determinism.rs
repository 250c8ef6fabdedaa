//! Determinism regression: the whole stack (synthetic data → partition →
//! FedProxVR-SVRG training) is seeded, so two runs with the same seed must
//! produce *bitwise-identical* round metrics — not merely close. Any drift
//! here means an unseeded RNG, iteration-order nondeterminism, or a
//! platform-dependent reduction crept in. A third run with a different
//! seed must differ, proving the comparison is not vacuous.

// Module-level helpers below sit outside #[test] fns, where
// clippy.toml's allow-expect-in-tests does not reach.
#![allow(clippy::expect_used)]

use fedprox::data::split::split_federation;
use fedprox::data::synthetic::{generate, SyntheticConfig};
use fedprox::prelude::*;

fn run(data_seed: u64, cfg_seed: u64) -> History {
    // Synthetic(α = 1, β = 1) — the paper's heterogeneous setting and the
    // SyntheticConfig default.
    let shards = generate(
        &SyntheticConfig { seed: data_seed, ..Default::default() },
        &[80, 120, 60],
    );
    let (train, test) = split_federation(&shards, data_seed);
    let devices: Vec<Device> =
        train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();
    let model = fedprox::models::MultinomialLogistic::new(60, 10);
    let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
        .with_beta(5.0)
        .with_smoothness(3.0)
        .with_tau(8)
        .with_mu(0.5)
        .with_batch_size(8)
        .with_rounds(10)
        .with_eval_every(2)
        .with_seed(cfg_seed);
    FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run")
}

/// Every float in a record, as raw bits, so NaN-safe exact equality and
/// "close but not equal" drift both show up.
fn fingerprint(h: &History) -> Vec<(usize, u64, u64, u64, u64)> {
    h.records
        .iter()
        .map(|r| {
            (
                r.round,
                r.train_loss.to_bits(),
                r.test_accuracy.to_bits(),
                r.grad_norm_sq.to_bits(),
                r.grad_evals,
            )
        })
        .collect()
}

/// The collector is process-global, and an armed window captures Health
/// events from *any* trainer in this process — so every trainer-running
/// test in this binary takes the lock, not just the armed ones.
static COLLECTOR_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn same_seed_runs_are_bitwise_identical() {
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let a = run(1, 42);
    let b = run(1, 42);
    assert!(!a.diverged() && !b.diverged());
    assert!(!a.records.is_empty());
    assert_eq!(fingerprint(&a), fingerprint(&b), "same-seed runs drifted");
}

#[test]
fn different_seed_runs_differ() {
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let a = run(1, 42);
    let c = run(1, 43);
    assert_ne!(
        fingerprint(&a),
        fingerprint(&c),
        "different seeds produced identical trajectories — seeding is inert"
    );
}

/// The kernel layer is part of the determinism contract twice over:
/// (a) a full networked run under the tiled kernels, executed
/// twice with the same seed, must be bitwise-identical — trajectory and
/// final model — and (b) the tiled kernels must reproduce the scalar
/// cpu-reference trajectory at strict tolerance zero, so kernel choice
/// is observationally invisible to training.
#[test]
fn tiled_kernel_networked_runs_are_bitwise_identical_and_match_reference() {
    use fedprox_tensor::kernel::{with_kernel, Kernel};
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let networked = |kernel: Kernel| {
        with_kernel(kernel, || {
            let shards =
                generate(&SyntheticConfig { seed: 5, ..Default::default() }, &[80, 120, 60]);
            let (train, test) = split_federation(&shards, 5);
            let devices: Vec<Device> =
                train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();
            let model = fedprox::models::MultinomialLogistic::new(60, 10);
            let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
                .with_beta(5.0)
                .with_smoothness(3.0)
                .with_tau(8)
                .with_mu(0.5)
                .with_batch_size(8)
                .with_rounds(10)
                .with_eval_every(2)
                .with_seed(21)
                .with_runner(RunnerKind::Network(
                    fedprox::core::config::NetRunnerOptions::default(),
                ));
            FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run")
        })
    };
    let a = networked(Kernel::Tiled);
    let b = networked(Kernel::Tiled);
    assert!(!a.diverged() && !b.diverged());
    assert!(!a.records.is_empty());
    assert_eq!(fingerprint(&a), fingerprint(&b), "tiled same-seed runs drifted");
    for (x, y) in a.final_model.iter().zip(&b.final_model) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    // Tiled vs cpu-reference: trajectory agreement at tolerance 0.
    let r = networked(Kernel::Reference);
    assert_eq!(
        fingerprint(&a),
        fingerprint(&r),
        "tiled kernels changed the trajectory relative to the cpu reference"
    );
    for (x, y) in a.final_model.iter().zip(&r.final_model) {
        assert_eq!(x.to_bits(), y.to_bits(), "tiled final model diverged from reference");
    }
}

/// A networked run under a fault plan: device 1 crashes at round 3 and
/// device 2's link drops 20% of attempts over the whole horizon.
fn run_faulted(cfg_seed: u64) -> History {
    let shards = generate(&SyntheticConfig { seed: 2, ..Default::default() }, &[80, 120, 60]);
    let (train, test) = split_federation(&shards, 2);
    let devices: Vec<Device> =
        train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();
    let model = fedprox::models::MultinomialLogistic::new(60, 10);
    let resil =
        Resilience::with_plan(FaultPlan::new().crash(1, 3).flaky(2, 0.2, 1, 10));
    let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
        .with_beta(5.0)
        .with_smoothness(3.0)
        .with_tau(8)
        .with_mu(0.5)
        .with_batch_size(8)
        .with_rounds(10)
        .with_eval_every(2)
        .with_seed(cfg_seed)
        .with_resilience(resil)
        .with_runner(RunnerKind::Network(
            fedprox::core::config::NetRunnerOptions::default(),
        ));
    FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run")
}

/// The fault-injection machinery is part of the determinism contract:
/// a faulted run re-executed with the same seed must reproduce the model
/// trajectory, the simulated clock, and every participation record
/// bit-for-bit.
#[test]
fn faulted_networked_runs_are_bitwise_identical() {
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let a = run_faulted(9);
    let b = run_faulted(9);
    assert!(!a.diverged() && !b.diverged());
    assert_eq!(a.participation.len(), 10);
    assert!(
        a.participation.iter().skip(2).all(|p| p.outcomes[1] == DeviceOutcome::Crashed),
        "device 1 must stay crashed from round 3 on"
    );
    assert_eq!(fingerprint(&a), fingerprint(&b), "faulted same-seed runs drifted");
    assert_eq!(a.participation, b.participation);
    assert_eq!(a.total_sim_time.to_bits(), b.total_sim_time.to_bits());
    assert_eq!(a.final_model.len(), b.final_model.len());
    for (x, y) in a.final_model.iter().zip(&b.final_model) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    // And a different seed still changes the trajectory.
    let c = run_faulted(10);
    assert_ne!(fingerprint(&a), fingerprint(&c));
}

/// A zero-fault resilience policy must leave the *model* trajectory
/// bitwise-identical to a strict run: every device responds every round
/// and the renormalization weight sum is exactly 1. (Simulated time may
/// differ — the resilient runtime draws its delays from per-(round,
/// device) streams rather than the strict mode's single sequential
/// stream — so only the math is compared.)
#[test]
fn zero_fault_resilience_keeps_the_strict_trajectory() {
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let strict = run(1, 42);
    let shards = generate(&SyntheticConfig { seed: 1, ..Default::default() }, &[80, 120, 60]);
    let (train, test) = split_federation(&shards, 1);
    let devices: Vec<Device> =
        train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();
    let model = fedprox::models::MultinomialLogistic::new(60, 10);
    let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
        .with_beta(5.0)
        .with_smoothness(3.0)
        .with_tau(8)
        .with_mu(0.5)
        .with_batch_size(8)
        .with_rounds(10)
        .with_eval_every(2)
        .with_seed(42)
        .with_resilience(Resilience::default());
    let resilient = FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run");
    assert_eq!(
        fingerprint(&strict),
        fingerprint(&resilient),
        "an empty fault plan changed the training math"
    );
    for (x, y) in strict.final_model.iter().zip(&resilient.final_model) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(resilient.participation.len(), 10);
    assert!(resilient.participation.iter().all(|p| p.responders() == 3 && !p.skipped));
    assert!(strict.participation.is_empty());
}

/// Telemetry is observation, never perturbation: arming the collector
/// mid-process must leave the training math bitwise-untouched. (The
/// telemetry-off build is covered by the tests above being byte-for-byte
/// identical across `--features telemetry` on and off.)
#[cfg(feature = "telemetry")]
#[test]
fn armed_telemetry_does_not_perturb_the_trajectory() {
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plain = run(1, 42);
    fedprox_telemetry::collector::reset();
    fedprox_telemetry::collector::arm();
    let traced = run(1, 42);
    let events = fedprox_telemetry::collector::drain();
    fedprox_telemetry::collector::disarm();
    assert!(!events.is_empty(), "armed run recorded no events");
    assert_eq!(
        fingerprint(&plain),
        fingerprint(&traced),
        "recording telemetry changed the training trajectory"
    );
}

/// Profiling is part of the determinism contract: an armed collector
/// building span trees (scope-stack pushes, path aggregation, self-time
/// accounting) must leave the training math bitwise-untouched, and the
/// deterministic columns of the profile itself — per-path activation
/// counts — must be identical across same-seed runs. (Wall-clock and,
/// in facade tests, allocation columns are zero/noise respectively;
/// the alloc-column gate runs in CI on the bench binaries, where the
/// counting-allocator probe is installed.)
#[cfg(feature = "telemetry")]
#[test]
fn armed_profiling_is_bitwise_deterministic() {
    use fedprox_telemetry::event::Event;
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plain = run(1, 42);
    let profiled = || {
        fedprox_telemetry::collector::reset();
        fedprox_telemetry::collector::arm();
        let h = run(1, 42);
        let events = fedprox_telemetry::collector::drain();
        fedprox_telemetry::collector::disarm();
        let paths: Vec<(String, u64)> = events
            .into_iter()
            .filter_map(|e| match e {
                Event::PathStat { path, count, .. } => Some((path, count)),
                _ => None,
            })
            .collect();
        (h, paths)
    };
    let (ha, pa) = profiled();
    let (hb, pb) = profiled();
    assert!(!ha.diverged() && !hb.diverged());
    assert!(
        pa.iter().any(|(p, _)| p.split('/').count() >= 4),
        "profiled run built no ≥4-level span tree: {pa:?}"
    );
    assert_eq!(
        fingerprint(&plain),
        fingerprint(&ha),
        "building span trees changed the training trajectory"
    );
    assert_eq!(pa, pb, "same-seed profiles recorded different span trees");
}

/// The observability pipeline is pure observation: arming the collector
/// and streaming the obs event feed to disk — run-ledger header first,
/// exactly as the bench binaries' `--obs PATH` wiring does — must leave
/// the trajectory, the simulated clock, and the final model bitwise
/// identical to the unarmed run.
#[cfg(feature = "telemetry")]
#[test]
fn armed_obs_stream_is_invisible_to_trajectory_and_model() {
    use fedprox_telemetry::{collector, event::Event};
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let networked = || {
        let shards = generate(&SyntheticConfig { seed: 3, ..Default::default() }, &[80, 120, 60]);
        let (train, test) = split_federation(&shards, 3);
        let devices: Vec<Device> =
            train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();
        let model = fedprox::models::MultinomialLogistic::new(60, 10);
        let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
            .with_beta(5.0)
            .with_smoothness(3.0)
            .with_tau(8)
            .with_mu(0.5)
            .with_batch_size(8)
            .with_rounds(10)
            .with_eval_every(2)
            .with_seed(42)
            .with_runner(RunnerKind::Network(
                fedprox::core::config::NetRunnerOptions::default(),
            ));
        FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run")
    };
    let plain = networked();
    let path = std::env::temp_dir().join("fedprox_test_obs_determinism.jsonl");
    collector::reset();
    collector::arm();
    collector::stream_to(path.to_str().expect("utf8 temp path")).expect("attach obs sink");
    collector::record_event(Event::RunMeta {
        version: 1,
        config: "deadbeefdeadbeef".into(),
        seed: 42,
        kernel: "reference".into(),
        faults: String::new(),
        features: "telemetry".into(),
        crates: String::new(),
    });
    let traced = networked();
    let _tail = collector::drain();
    collector::disarm();
    let text = std::fs::read_to_string(&path).expect("read obs stream");
    std::fs::remove_file(&path).ok();
    // The stream is real: ledger header first, then the round feed.
    assert!(
        text.lines().next().is_some_and(|l| l.contains("\"t\":\"run_meta\"")),
        "obs stream must open with the run-ledger header"
    );
    assert!(
        text.contains("\"t\":\"device_round\""),
        "obs stream must carry the per-device round feed"
    );
    // And invisible: trajectory, clock, and model are bit-identical.
    assert!(!plain.diverged() && !traced.diverged());
    assert_eq!(
        fingerprint(&plain),
        fingerprint(&traced),
        "streaming the obs feed changed the training trajectory"
    );
    assert_eq!(plain.total_sim_time.to_bits(), traced.total_sim_time.to_bits());
    assert_eq!(plain.final_model.len(), traced.final_model.len());
    for (x, y) in plain.final_model.iter().zip(&traced.final_model) {
        assert_eq!(x.to_bits(), y.to_bits(), "obs streaming perturbed the final model");
    }
}

/// The fedscope health stream is part of the determinism contract:
/// health samples and anomalies derive only from the seeded trajectory
/// (never from wall clocks), so two armed same-seed runs must serialize
/// to byte-identical `--health` JSONL.
#[cfg(feature = "telemetry")]
#[test]
fn armed_health_stream_is_bitwise_reproducible() {
    use fedprox_telemetry::event::Event;
    let _guard = COLLECTOR_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let health_jsonl = || {
        fedprox_telemetry::collector::reset();
        fedprox_telemetry::collector::arm();
        let h = run(1, 42);
        let events = fedprox_telemetry::collector::drain();
        fedprox_telemetry::collector::disarm();
        let health: Vec<Event> = events
            .into_iter()
            .filter(|e| matches!(e, Event::Health { .. } | Event::Anomaly { .. }))
            .collect();
        (h, fedprox_telemetry::jsonl::to_jsonl(&health))
    };
    let (ha, a) = health_jsonl();
    let (hb, b) = health_jsonl();
    assert!(!ha.diverged() && !hb.diverged());
    assert!(!a.is_empty(), "armed run produced no health samples");
    assert_eq!(a, b, "same-seed health streams serialized differently");
}
