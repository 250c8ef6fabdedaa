//! The traced replay: each workload's training call re-driven from the
//! benchmark by calling every layer's public functions in the round loop's
//! order, with a span around each call. The replay must reproduce the
//! untraced run bitwise; `measure` checks that it does.

use crate::tracer::Tracer;
use crate::workloads::{Fed, Setup, SimSetup};
use fedprox_core::{eval, runner, server, Device, FedConfig, RunnerKind, SimRunnerOptions};
use fedprox_faults::RoundParticipation;
use fedprox_models::{LossModel, MultinomialLogistic};
use fedprox_net::runtime::TryFnWorker;
use fedprox_net::{DeviceReply, NetworkRuntime, VirtualClock, WorkerError};
use fedprox_sim::{DeviceTiming, LazyPopulation, Sampler, ShardedEventLoop};
use fedprox_tensor::vecops;
use std::sync::Mutex;
use std::time::Instant;

/// Span names, one per layer; time outside them is the round loop's own.
pub mod layer {
    /// The whole replayed training call.
    pub const TRAIN: &str = "train";
    /// One global round.
    pub const ROUND: &str = "round";
    /// Local solves (`run_round_subset`, `Device::local_update`).
    pub const OPTIM: &str = "optim";
    /// `server::aggregate`.
    pub const AGGREGATE: &str = "core.aggregate";
    /// The `eval::*` functions.
    pub const EVAL: &str = "core.eval";
    /// `Sampler::sample`.
    pub const SAMPLE: &str = "sim.sample";
    /// `LazyPopulation::device`.
    pub const SYNTH: &str = "data.synth";
    /// `ShardedEventLoop::run_round` and the virtual clock.
    pub const EVENTS: &str = "sim.events";
    /// The actor runtime's share of a round beyond its slowest worker.
    pub const NET: &str = "net.runtime";
}

/// What one replay produced.
#[derive(Debug, Default)]
pub struct Replay {
    /// Spans of the replay.
    pub tracer: Tracer,
    /// Final global model.
    pub final_model: Vec<f64>,
    /// Rounds run.
    pub rounds: usize,
    /// Local solves run.
    pub solves: u64,
    /// Wall seconds inside local solves, summed over solves.
    pub solve_secs: f64,
    /// Per-sample gradient evaluations across all solves.
    pub grad_evals: u64,
    /// First evaluated round whose loss met the workload's target.
    pub rounds_to_target: Option<usize>,
    /// The slowest local solve of each round, seconds.
    pub slowest_solve_s: Vec<f64>,
    /// Wire bytes, both directions (virtual for `sim-1m`).
    pub wire_bytes: u64,
    /// Retransmitted messages.
    pub retransmissions: u64,
    /// Participation records (`net-faulty`).
    pub participation: Vec<RoundParticipation>,
    /// Sampled ids per round (`sim-1m`).
    pub sampled: Vec<Vec<usize>>,
    /// Virtual clock at the end.
    pub sim_time: f64,
    /// Checks that only the replay can make (model per round).
    pub failures: Vec<String>,
}

/// Replay `setup`'s training call. `target` is the loss the workload
/// must reach (probe-loss ratio for `sim-1m`).
pub fn replay(setup: &Setup, target: f64) -> Result<Replay, String> {
    match setup {
        Setup::Convex(f) => replay_fed(f, target),
        Setup::Cnn(f) => replay_fed(f, target),
        Setup::Sim(s) => replay_sim(s, target),
        Setup::Net(f) => replay_net(f, target),
    }
}

/// The `eval::*` calls of one evaluated round; returns the training loss.
fn evaluate<M: LossModel>(tr: &mut Tracer, f: &Fed<M>, w: &[f64]) -> f64 {
    tr.span(layer::EVAL, || {
        let loss = eval::global_loss(&f.model, &f.devices, w);
        std::hint::black_box(eval::test_accuracy(&f.model, &f.test, w));
        std::hint::black_box(eval::stationarity_gap(&f.model, &f.devices, w));
        loss
    })
}

fn is_eval_round(cfg: &FedConfig, s: usize) -> bool {
    s.is_multiple_of(cfg.eval_every) || s == cfg.rounds
}

fn weights(devices: &[Device]) -> Vec<f64> {
    server::weights_from_sizes(&devices.iter().map(Device::samples).collect::<Vec<_>>())
}

/// In-process round loop: full participation, `run_round_subset` fan-out,
/// ordered aggregation, evaluation on the cadence.
fn replay_fed<M: LossModel>(f: &Fed<M>, target: f64) -> Result<Replay, String> {
    let cfg = &f.cfg;
    let parallel = matches!(cfg.runner, RunnerKind::Parallel);
    let mut out = Replay::default();
    let mut tr = Tracer::new();
    let root = tr.enter(layer::TRAIN);
    let weights = weights(&f.devices);
    let participants: Vec<usize> = (0..f.devices.len()).collect();
    let mut global = f.model.init_params(cfg.seed);
    let mut agg = vec![0.0; global.len()];
    evaluate(&mut tr, f, &global);
    for s in 1..=cfg.rounds {
        let r = tr.enter(layer::ROUND);
        let updates = tr
            .span(layer::OPTIM, || {
                runner::run_round_subset(
                    &f.model,
                    &f.devices,
                    &participants,
                    &global,
                    cfg,
                    s - 1,
                    parallel,
                    None,
                )
            })
            .map_err(|e| format!("replay round {s}: {e}"))?;
        out.solves += updates.len() as u64;
        out.grad_evals += updates.iter().map(|u| u.grad_evals as u64).sum::<u64>();
        out.solve_secs += tr.spans().last().map_or(0.0, |sp| sp.secs());
        let locals: Vec<(&[f64], f64)> = updates
            .iter()
            .zip(&participants)
            .map(|(u, &i)| (u.w.as_slice(), weights[i]))
            .collect();
        tr.span(layer::AGGREGATE, || server::aggregate(&locals, &mut agg));
        std::mem::swap(&mut global, &mut agg);
        out.rounds = s;
        let mut stop = !vecops::all_finite(&global);
        if !stop && is_eval_round(cfg, s) {
            let loss = evaluate(&mut tr, f, &global);
            if out.rounds_to_target.is_none() && loss <= target {
                out.rounds_to_target = Some(s);
            }
            stop = !loss.is_finite() || loss > cfg.loss_guard;
        }
        tr.exit(r);
        if stop {
            break;
        }
    }
    tr.exit(root);
    out.tracer = tr;
    out.final_model = global;
    Ok(out)
}

/// Event-driven round loop over the lazy population: sample, synthesize,
/// solve, order the round on the event loop, aggregate.
fn replay_sim(s: &SimSetup, target: f64) -> Result<Replay, String> {
    let cfg = &s.cfg;
    let opts = match &cfg.runner {
        RunnerKind::EventDriven(o) => *o,
        _ => SimRunnerOptions::default(),
    };
    let sampler = Sampler::new(opts.sampler);
    let lazy = LazyPopulation::new(s.zipf.clone(), s.pool.clone());
    let n = s.zipf.len();
    let total = s.zipf.total_samples() as f64;
    let mut out = Replay::default();
    let mut tr = Tracer::new();
    let root = tr.enter(layer::TRAIN);
    let mut global = s.model.init_params(cfg.seed);
    let dim = global.len();
    let mut agg = vec![0.0; dim];
    let mut clock = VirtualClock::default();
    let mut events = ShardedEventLoop::new(opts.shards);
    let init_loss = tr.span(layer::EVAL, || s.probe_loss(&global));
    for r in 1..=cfg.rounds {
        let rid = tr.enter(layer::ROUND);
        let sampled = tr.span(layer::SAMPLE, || {
            sampler.sample(n, r, cfg.seed, |d| s.zipf.size_of(d))
        });
        let mut updates = Vec::with_capacity(sampled.len());
        let mut slowest = 0.0f64;
        for &d in &sampled {
            let dev = tr.span(layer::SYNTH, || lazy.device(d));
            let t = Instant::now();
            let u = tr
                .span(layer::OPTIM, || {
                    dev.local_update(&s.model, &global, cfg, r - 1)
                })
                .map_err(|e| format!("replay round {r}: {e}"))?;
            let secs = t.elapsed().as_secs_f64();
            slowest = slowest.max(secs);
            out.solve_secs += secs;
            updates.push(u);
        }
        out.slowest_solve_s.push(slowest);
        out.solves += updates.len() as u64;
        out.grad_evals += updates.iter().map(|u| u.grad_evals as u64).sum::<u64>();
        let timings: Vec<DeviceTiming> = sampled
            .iter()
            .zip(&updates)
            .map(|(&d, u)| DeviceTiming {
                device: d,
                download: opts.downlink_s,
                compute: u.grad_evals as f64 * opts.sec_per_grad_eval * s.zipf.compute_factor_of(d),
                upload: opts.uplink_s,
            })
            .collect();
        tr.span(layer::EVENTS, || {
            let finishes = events.run_round(clock.now(), &timings);
            std::hint::black_box(finishes);
            let candidates: Vec<f64> = timings
                .iter()
                .map(|t| t.download + t.compute + t.upload)
                .collect();
            let leg = (sampled.len() * dim * 8) as u64;
            clock.record_traffic(leg, leg);
            clock.advance_partial_round(&candidates);
        });
        let locals: Vec<(&[f64], f64)> = updates
            .iter()
            .zip(&sampled)
            .map(|(u, &d)| (u.w.as_slice(), s.zipf.size_of(d) as f64 / total))
            .collect();
        tr.span(layer::AGGREGATE, || server::aggregate(&locals, &mut agg));
        std::mem::swap(&mut global, &mut agg);
        out.sampled.push(sampled);
        out.rounds = r;
        let stop = !vecops::all_finite(&global);
        if !stop && (r.is_multiple_of(10) || r == cfg.rounds) {
            let ratio = tr.span(layer::EVAL, || s.probe_loss(&global)) / init_loss;
            if out.rounds_to_target.is_none() && ratio <= target {
                out.rounds_to_target = Some(r);
            }
        }
        tr.exit(rid);
        if stop {
            break;
        }
    }
    tr.exit(root);
    out.wire_bytes = clock.bytes_down() + clock.bytes_up();
    out.sim_time = clock.now();
    out.tracer = tr;
    out.final_model = global;
    Ok(out)
}

/// One server-side round as seen from the `on_round` callback.
struct NetRound {
    start: f64,
    callback: f64,
    eval: Option<(f64, f64)>,
    end: f64,
}

/// Networked round loop: `NetworkRuntime::run` over benchmark-built workers
/// around `Device::local_update`, evaluating from the round callback.
fn replay_net(f: &Fed<MultinomialLogistic>, target: f64) -> Result<Replay, String> {
    let cfg = &f.cfg;
    let RunnerKind::Network(opts) = &cfg.runner else {
        return Err("net replay needs the networked runner".into());
    };
    let weights = weights(&f.devices);
    // (round, seconds, grad evals) of every local update.
    let busy: Mutex<Vec<(u32, f64, u64)>> = Mutex::new(Vec::new());
    let mut out = Replay::default();
    let mut tr = Tracer::new();
    let root = tr.enter(layer::TRAIN);
    let w0 = f.model.init_params(cfg.seed);
    evaluate(&mut tr, f, &w0);
    let workers: Vec<_> = f
        .devices
        .iter()
        .map(|d| {
            let (busy, model, weight) = (&busy, &f.model, weights[d.id]);
            let sec_per = opts.sec_per_grad_eval;
            TryFnWorker(move |round: u32, global: &[f64]| {
                let t = Instant::now();
                let upd = d
                    .local_update(model, global, cfg, round as usize)
                    .map_err(WorkerError::new)?;
                let secs = t.elapsed().as_secs_f64();
                busy.lock()
                    .map_err(|_| WorkerError::new("busy log poisoned"))?
                    .push((round, secs, upd.grad_evals as u64));
                Ok(DeviceReply {
                    params: upd.w,
                    weight,
                    grad_evals: upd.grad_evals as u64,
                    compute_time: upd.grad_evals as f64 * sec_per,
                })
            })
        })
        .collect();
    let mut net_opts = opts.net.clone();
    if net_opts.resilience.is_none() {
        net_opts.resilience = cfg.resilience.clone();
    }
    let mut rounds: Vec<NetRound> = Vec::new();
    let mut unchanged: Vec<bool> = Vec::new();
    let mut prev: Vec<u64> = w0.iter().map(|x| x.to_bits()).collect();
    let mut rounds_to_target = None;
    let origin = Instant::now();
    let base = tr.at(origin);
    let mut last_end = base;
    let report = NetworkRuntime.run(
        workers,
        w0,
        cfg.rounds as u32,
        &net_opts,
        |round, global| {
            let s = round as usize + 1;
            let callback = base + origin.elapsed().as_secs_f64();
            let bits: Vec<u64> = global.iter().map(|x| x.to_bits()).collect();
            unchanged.push(bits == prev);
            prev = bits;
            let mut keep = vecops::all_finite(global);
            let mut ev = None;
            if keep && is_eval_round(cfg, s) {
                let e0 = base + origin.elapsed().as_secs_f64();
                let loss = eval::global_loss(&f.model, &f.devices, global);
                std::hint::black_box(eval::test_accuracy(&f.model, &f.test, global));
                std::hint::black_box(eval::stationarity_gap(&f.model, &f.devices, global));
                ev = Some((e0, base + origin.elapsed().as_secs_f64()));
                if rounds_to_target.is_none() && loss <= target {
                    rounds_to_target = Some(s);
                }
                keep = loss.is_finite() && loss <= cfg.loss_guard;
            }
            let end = base + origin.elapsed().as_secs_f64();
            rounds.push(NetRound {
                start: last_end,
                callback,
                eval: ev,
                end,
            });
            last_end = end;
            keep
        },
    );
    let report = report.map_err(|e| format!("replay: {e}"))?;
    let busy = busy
        .into_inner()
        .map_err(|_| "busy log poisoned".to_string())?;
    for (i, r) in rounds.iter().enumerate() {
        let slowest = busy
            .iter()
            .filter(|b| b.0 as usize == i)
            .map(|b| b.1)
            .fold(0.0, f64::max)
            .min(r.callback - r.start);
        out.slowest_solve_s.push(slowest);
        let rid = tr.record(layer::ROUND, r.start, r.end, Some(root));
        tr.record(layer::OPTIM, r.start, r.start + slowest, Some(rid));
        tr.record(layer::NET, r.start + slowest, r.callback, Some(rid));
        if let Some((e0, e1)) = r.eval {
            tr.record(layer::EVAL, e0, e1, Some(rid));
        }
    }
    tr.exit(root);
    for p in &report.participation {
        if p.skipped && !unchanged.get(p.round - 1).copied().unwrap_or(false) {
            out.failures.push(format!(
                "net-faulty: round {} was skipped for quorum but changed the model",
                p.round
            ));
        }
    }
    out.solves = busy.len() as u64;
    out.solve_secs = busy.iter().map(|b| b.1).sum();
    out.grad_evals = busy.iter().map(|b| b.2).sum();
    out.rounds = report.rounds_run as usize;
    out.rounds_to_target = rounds_to_target;
    out.wire_bytes = report.clock.bytes_down() + report.clock.bytes_up();
    out.retransmissions = report.retransmissions;
    out.sim_time = report.clock.now();
    out.participation = report.participation;
    out.final_model = report.final_model;
    out.tracer = tr;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{train, SimSetup};
    use fedprox_core::config::NetRunnerOptions;
    use fedprox_core::{Algorithm, SamplerSpec};
    use fedprox_data::partition::ZipfPopulation;
    use fedprox_data::synthetic::{generate, SyntheticConfig, SyntheticPool};
    use fedprox_faults::{FaultPlan, QuorumPolicy, Resilience};
    use fedprox_net::NetOptions;
    use fedprox_optim::EstimatorKind;

    fn bits(w: &[f64]) -> Vec<u64> {
        w.iter().map(|x| x.to_bits()).collect()
    }

    fn small_fed(runner: RunnerKind) -> Fed<MultinomialLogistic> {
        let syn = SyntheticConfig {
            seed: 5,
            ..Default::default()
        };
        let shards = generate(&syn, &[30, 45, 20, 38]);
        let devices: Vec<Device> = shards
            .into_iter()
            .enumerate()
            .map(|(i, s)| Device::new(i, s))
            .collect();
        let test = devices[0].data.clone();
        let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
            .with_tau(3)
            .with_batch_size(4)
            .with_rounds(6)
            .with_eval_every(2)
            .with_seed(9)
            .with_runner(runner);
        Fed {
            model: MultinomialLogistic::new(60, 10),
            devices,
            test,
            cfg,
        }
    }

    #[test]
    fn in_process_replay_is_bitwise_equal() {
        let setup = Setup::Convex(small_fed(RunnerKind::Parallel));
        let h = train(&setup).unwrap().history;
        let r = replay(&setup, 1e9).unwrap();
        assert_eq!(bits(&r.final_model), bits(&h.final_model));
        assert_eq!((r.rounds, r.solves), (6, 24));
        assert_eq!(r.rounds_to_target, Some(2));
        let sum: f64 = r.tracer.self_times().iter().map(|(_, s)| s).sum();
        assert!((sum - r.tracer.root_secs()).abs() < 1e-9);
    }

    #[test]
    fn networked_replay_matches_with_faults_and_skips() {
        let mut fed = small_fed(RunnerKind::Sequential);
        let plan = FaultPlan::new().crash(1, 2).offline(2, 3, 4);
        fed.cfg = fed
            .cfg
            .clone()
            .with_resilience(
                Resilience::with_plan(plan).with_quorum(QuorumPolicy::weight_fraction(0.6)),
            )
            .with_runner(RunnerKind::Network(NetRunnerOptions {
                net: NetOptions {
                    drop_prob: 0.1,
                    seed: 3,
                    ..NetOptions::default()
                },
                sec_per_grad_eval: 1e-4,
            }));
        let setup = Setup::Net(fed);
        let h = train(&setup).unwrap().history;
        assert!(
            h.participation.iter().any(|p| p.skipped),
            "plan should force a skip"
        );
        let r = replay(&setup, 1e9).unwrap();
        assert!(r.failures.is_empty(), "{:?}", r.failures);
        assert_eq!(bits(&r.final_model), bits(&h.final_model));
        assert_eq!(r.participation, h.participation);
        assert_eq!(r.sim_time.to_bits(), h.total_sim_time.to_bits());
    }

    #[test]
    fn sim_replay_matches_engine_and_sampling() {
        let zipf = ZipfPopulation::new(5_000, 10, 30, 1.5, 4.0, 4);
        let syn = SyntheticConfig {
            seed: 4,
            ..Default::default()
        };
        let pool = SyntheticPool::new(syn);
        let probe = vec![Device::new(0, pool.device_shard(17, zipf.size_of(17)))];
        let opts = SimRunnerOptions::default().with_sampler(SamplerSpec::UniformK(8));
        let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
            .with_tau(2)
            .with_batch_size(4)
            .with_rounds(5)
            .with_seed(4)
            .with_runner(RunnerKind::EventDriven(opts));
        let model = MultinomialLogistic::new(60, 10);
        let setup = Setup::Sim(SimSetup {
            model,
            zipf,
            pool,
            probe,
            cfg,
        });
        let h = train(&setup).unwrap().history;
        let r = replay(&setup, 1e9).unwrap();
        assert_eq!(bits(&r.final_model), bits(&h.final_model));
        assert_eq!(r.sim_time.to_bits(), h.total_sim_time.to_bits());
        let recorded: Vec<Vec<usize>> = h
            .participation
            .iter()
            .map(|p| p.sampled.iter().flatten().map(|&d| d as usize).collect())
            .collect();
        assert_eq!(recorded, r.sampled);
    }
}
