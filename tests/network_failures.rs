//! Failure-injection tests for the networked backend: message drops,
//! stragglers, and bandwidth-limited links must change *timing*, never
//! *math*.

use fedprox::core::config::NetRunnerOptions;
use fedprox::data::split::split_federation;
use fedprox::data::synthetic::{generate, SyntheticConfig};
use fedprox::data::Dataset;
use fedprox::models::MultinomialLogistic;
use fedprox::net::runtime::FnWorker;
use fedprox::net::{DeviceReply, NetError, NetOptions, NetworkRuntime};
use fedprox::net::{DelayModel, LinkSpec};
use fedprox::prelude::*;

fn federation(seed: u64) -> (Vec<Device>, Dataset) {
    let shards = generate(&SyntheticConfig { seed, ..Default::default() }, &[60, 80, 50]);
    let (train, test) = split_federation(&shards, seed);
    (train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect(), test)
}

fn cfg(runner: RunnerKind) -> FedConfig {
    FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
        .with_beta(5.0)
        .with_smoothness(3.0)
        .with_tau(6)
        .with_mu(0.5)
        .with_batch_size(8)
        .with_rounds(5)
        .with_seed(77)
        .with_runner(runner)
}

#[test]
fn message_drops_do_not_change_the_trajectory() {
    let (devices, test) = federation(1);
    let model = MultinomialLogistic::new(60, 10);
    let clean = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(RunnerKind::Network(NetRunnerOptions::default())),
    )
    .run().expect("run");
    let lossy_opts = NetRunnerOptions {
        net: NetOptions { drop_prob: 0.4, seed: 3, ..Default::default() },
        ..Default::default()
    };
    let lossy = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(RunnerKind::Network(lossy_opts)),
    )
    .run().expect("run");
    // Identical math...
    for (a, b) in clean.records.iter().zip(&lossy.records) {
        assert_eq!(a.train_loss, b.train_loss);
    }
    // ...but retransmissions make the lossy run slower in simulated time.
    assert!(lossy.total_sim_time > clean.total_sim_time);
}

#[test]
fn history_bytes_count_each_rounds_own_traffic() {
    let (devices, test) = federation(1);
    let model = MultinomialLogistic::new(60, 10);
    let net = NetOptions { drop_prob: 0.4, seed: 3, ..Default::default() };
    let runner = RunnerKind::Network(NetRunnerOptions { net: net.clone(), ..Default::default() });
    let h = FederatedTrainer::new(&model, &devices, &test, cfg(runner)).run().expect("run");
    // Link draws come from per-(round, device) streams and see only frame
    // sizes, so echo workers sending a model of the same size over the
    // same links pay exactly the trainer's traffic, round by round: the
    // clock total after `r` rounds is the trainer's traffic up to `r`.
    let dim = fedprox::models::LossModel::init_params(&model, 0).len();
    let mut retransmissions = 0;
    let mut clock_totals = vec![0u64];
    for rounds in 1..=5 {
        let workers: Vec<_> = (0..devices.len())
            .map(|_| {
                FnWorker(|_: u32, global: &[f64]| DeviceReply {
                    params: global.to_vec(),
                    weight: 1.0 / 3.0,
                    grad_evals: 1,
                    compute_time: 0.01,
                })
            })
            .collect();
        let wire =
            NetworkRuntime.run(workers, vec![0.0; dim], rounds, &net, |_, _| true).expect("run");
        retransmissions = wire.retransmissions;
        clock_totals.push(wire.clock.bytes_up() + wire.clock.bytes_down());
    }
    assert!(retransmissions > 0, "drops at p=0.4 must retransmit");
    // Records are cumulative: each grows by its own round's traffic, and
    // the last one holds the clock total.
    let bytes: Vec<u64> = h.records.iter().map(|r| r.bytes).collect();
    assert_eq!(bytes, clock_totals);
}

#[test]
fn straggler_slows_time_not_accuracy() {
    let (devices, test) = federation(2);
    let model = MultinomialLogistic::new(60, 10);
    // Compute must dominate link latency for the straggler to matter:
    // use a visible per-gradient cost in both runs.
    let base_opts = NetRunnerOptions { sec_per_grad_eval: 1e-3, ..Default::default() };
    let base = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(RunnerKind::Network(base_opts)),
    )
    .run().expect("run");
    let straggler_opts = NetRunnerOptions {
        net: NetOptions::default().with_straggler(1, 25.0),
        sec_per_grad_eval: 1e-3,
    };
    let slow = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(RunnerKind::Network(straggler_opts)),
    )
    .run().expect("run");
    assert_eq!(
        base.records.last().unwrap().test_accuracy,
        slow.records.last().unwrap().test_accuracy
    );
    assert!(slow.total_sim_time > 2.0 * base.total_sim_time);
}

#[test]
fn bandwidth_limits_scale_time_with_model_size() {
    let (devices, test) = federation(3);
    let model = MultinomialLogistic::new(60, 10);
    let narrow = NetRunnerOptions {
        net: NetOptions {
            downlink: LinkSpec {
                latency: DelayModel::Constant(0.001),
                bytes_per_sec: 50_000.0,
            },
            uplink: LinkSpec {
                latency: DelayModel::Constant(0.001),
                bytes_per_sec: 50_000.0,
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let h = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(RunnerKind::Network(narrow)),
    )
    .run().expect("run");
    // Model = 610 params ≈ 4.9 KB ⇒ ~0.1 s per direction per round at
    // 50 kB/s; five rounds of down+up must exceed 0.9 s of pure transfer.
    assert!(h.total_sim_time > 0.9, "sim time {}", h.total_sim_time);
    assert!(h.records.last().unwrap().bytes > 5 * 2 * 4_000);
}

/// The panic hook is process-global; serialize the tests that silence it
/// so a concurrent test never observes (or restores) the wrong hook.
static PANIC_HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `f` with panic backtraces suppressed (the injected worker failures
/// are expected; their default backtrace spam would drown real output).
fn run_quietly<T>(f: impl FnOnce() -> T) -> T {
    let _guard = PANIC_HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// Three well-behaved echo workers, except device `bad` panics on `round`.
fn panicking_workers(bad: u32, bad_round: u32) -> Vec<FnWorker<impl FnMut(u32, &[f64]) -> DeviceReply + Send>> {
    (0..3u32)
        .map(|id| {
            FnWorker(move |round: u32, global: &[f64]| {
                assert!(
                    id != bad || round != bad_round,
                    "injected device failure (test fixture)"
                );
                DeviceReply {
                    params: global.to_vec(),
                    weight: 1.0 / 3.0,
                    grad_evals: 10,
                    compute_time: 0.01,
                }
            })
        })
        .collect()
}

#[test]
fn worker_panic_surfaces_the_failing_device_id() {
    // The runtime catches the injected panic and must convert it into a
    // typed error naming the device, not tear down the whole process.
    let result = run_quietly(|| {
        NetworkRuntime.run(
            panicking_workers(1, 2),
            vec![0.0; 4],
            5,
            &NetOptions::default(),
            |_, _| true,
        )
    });
    assert_eq!(result.unwrap_err(), NetError::WorkerPanic { device: Some(1) });
}

#[test]
fn worker_panic_error_message_names_the_device() {
    let result = run_quietly(|| {
        NetworkRuntime.run(
            panicking_workers(2, 0),
            vec![0.0; 4],
            3,
            &NetOptions::default(),
            |_, _| true,
        )
    });
    let err = result.unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("device 2"), "unhelpful message: {msg}");
    assert!(msg.contains("panic"), "unhelpful message: {msg}");
}

/// Telemetry must survive an early shutdown: a run that dies mid-flight
/// still leaves the collector drainable and the summary renderable.
#[cfg(feature = "telemetry")]
#[test]
fn telemetry_finalizes_after_worker_panic() {
    use fedprox_telemetry::{collector, summary::TelemetryReport};
    collector::arm();
    let result = run_quietly(|| {
        NetworkRuntime.run(
            panicking_workers(0, 1),
            vec![0.0; 4],
            4,
            &NetOptions::default(),
            |_, _| true,
        )
    });
    assert!(matches!(result, Err(NetError::WorkerPanic { .. })));
    let events = collector::drain();
    collector::disarm();
    assert!(!events.is_empty(), "armed run recorded nothing before the failure");
    // The summary pipeline must not choke on a truncated trace.
    let rendered = TelemetryReport::from_events(&events).render(5);
    assert!(rendered.contains("fedobs summary:"), "summary did not render: {rendered}");
}

#[test]
fn planned_crash_at_round_degrades_gracefully() {
    let (devices, test) = federation(5);
    let model = MultinomialLogistic::new(60, 10);
    let c = cfg(RunnerKind::Network(NetRunnerOptions::default()))
        .with_resilience(Resilience::with_plan(FaultPlan::new().crash(1, 3)));
    let h = FederatedTrainer::new(&model, &devices, &test, c).run().expect("run");
    assert!(!h.diverged(), "crash-tolerant run must complete");
    assert_eq!(h.rounds_run, 5);
    assert_eq!(h.participation.len(), 5);
    for p in &h.participation {
        assert!(!p.skipped);
        if p.round >= 3 {
            assert_eq!(p.outcomes[1], DeviceOutcome::Crashed);
            assert_eq!(p.responders(), 2);
            assert!(
                p.responder_weight > 0.0 && p.responder_weight < 1.0,
                "weight {} not renormalizable",
                p.responder_weight
            );
        } else {
            assert_eq!(p.responders(), 3);
            assert!((p.responder_weight - 1.0).abs() < 1e-12);
        }
    }
}

#[test]
fn offline_window_rejoins() {
    let (devices, test) = federation(6);
    let model = MultinomialLogistic::new(60, 10);
    let c = cfg(RunnerKind::Network(NetRunnerOptions::default()))
        .with_resilience(Resilience::with_plan(FaultPlan::new().offline(0, 2, 3)));
    let h = FederatedTrainer::new(&model, &devices, &test, c).run().expect("run");
    assert!(!h.diverged());
    let outcomes: Vec<DeviceOutcome> =
        h.participation.iter().map(|p| p.outcomes[0]).collect();
    assert_eq!(
        outcomes,
        vec![
            DeviceOutcome::Responded,
            DeviceOutcome::Offline,
            DeviceOutcome::Offline,
            DeviceOutcome::Responded,
            DeviceOutcome::Responded,
        ],
        "device 0 must sit out exactly rounds 2–3 and rejoin"
    );
}

#[test]
fn quorum_shortfall_skips_rounds_and_keeps_the_model() {
    let (devices, test) = federation(7);
    let model = MultinomialLogistic::new(60, 10);
    // Device 1 holds the largest shard; with it offline the remaining
    // weight (~0.58) misses a 0.7 quorum, so rounds 2–3 are skipped —
    // counted, never fatal — and the global model is left untouched.
    let resil = Resilience::with_plan(FaultPlan::new().offline(1, 2, 3))
        .with_quorum(QuorumPolicy::weight_fraction(0.7));
    let c = cfg(RunnerKind::Network(NetRunnerOptions::default())).with_resilience(resil);
    let h = FederatedTrainer::new(&model, &devices, &test, c).run().expect("run");
    assert!(!h.diverged());
    assert_eq!(h.rounds_run, 5);
    let skipped: Vec<usize> =
        h.participation.iter().filter(|p| p.skipped).map(|p| p.round).collect();
    assert_eq!(skipped, vec![2, 3]);
    // eval_every = 1: the evaluated loss is bitwise frozen across the
    // skipped rounds and moves again once quorum is restored.
    assert_eq!(h.records[1].round, 1);
    assert_eq!(h.records[2].train_loss.to_bits(), h.records[1].train_loss.to_bits());
    assert_eq!(h.records[3].train_loss.to_bits(), h.records[1].train_loss.to_bits());
    assert_ne!(h.records[4].train_loss.to_bits(), h.records[3].train_loss.to_bits());
}

#[test]
fn lognormal_jitter_changes_time_deterministically_per_seed() {
    let (devices, test) = federation(4);
    let model = MultinomialLogistic::new(60, 10);
    let jittery = |seed: u64| NetRunnerOptions {
        net: NetOptions {
            downlink: LinkSpec {
                latency: DelayModel::LogNormal { mu: -3.0, sigma: 1.0 },
                bytes_per_sec: f64::INFINITY,
            },
            seed,
            ..Default::default()
        },
        ..Default::default()
    };
    let a = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(RunnerKind::Network(jittery(5))),
    )
    .run().expect("run");
    let b = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(RunnerKind::Network(jittery(5))),
    )
    .run().expect("run");
    let c = FederatedTrainer::new(
        &model,
        &devices,
        &test,
        cfg(RunnerKind::Network(jittery(6))),
    )
    .run().expect("run");
    assert_eq!(a.total_sim_time, b.total_sim_time);
    assert_ne!(a.total_sim_time, c.total_sim_time);
    // Math identical regardless of delay seed.
    for (x, y) in a.records.iter().zip(&c.records) {
        assert_eq!(x.train_loss, y.train_loss);
    }
}
