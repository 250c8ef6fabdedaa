//! The top-level training loop: FedProxVR (Algorithm 1) and the FedAvg
//! baseline, over any execution backend.

use crate::config::{FedConfig, NetRunnerOptions, RunnerKind};
use crate::device::Device;
use crate::error::FedError;
use crate::metrics::{DivergenceCause, History, RoundRecord, RunningTotal};
use crate::{eval, runner, server};
use fedprox_data::Dataset;
use fedprox_faults::{DeviceOutcome, RoundParticipation};
use fedprox_models::LossModel;
use fedprox_net::runtime::TryFnWorker;
use fedprox_net::{DeviceReply, NetworkRuntime, WorkerError};
use fedprox_tensor::vecops;

/// Which federated algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// McMahan et al.'s FedAvg: τ plain SGD steps per device, last
    /// iterate, plain averaging.
    FedAvg,
    /// Li et al.'s FedProx: the proximal surrogate of eq. (6) solved with
    /// plain SGD (no variance reduction) — the paper's closest prior.
    FedProx,
    /// Konečný et al.'s FSVRG: SVRG anchored at the **global** gradient
    /// `∇F̄(w̄)` distributed by the server (one extra aggregation per
    /// round), no proximal term.
    Fsvrg,
    /// The paper's FedProxVR with the given variance-reduced estimator.
    FedProxVr(fedprox_optim::EstimatorKind),
}

impl Algorithm {
    /// Canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::FedAvg => "fedavg",
            Algorithm::FedProx => "fedprox",
            Algorithm::Fsvrg => "fsvrg",
            Algorithm::FedProxVr(k) => match k {
                fedprox_optim::EstimatorKind::Svrg => "fedproxvr-svrg",
                fedprox_optim::EstimatorKind::Sarah => "fedproxvr-sarah",
                fedprox_optim::EstimatorKind::Sgd => "fedproxvr-sgd",
                fedprox_optim::EstimatorKind::FullGd => "fedproxvr-gd",
            },
        }
    }

    /// Whether the server must distribute the global gradient `∇F̄(w̄)`
    /// alongside the model each round (FSVRG only).
    pub fn needs_global_gradient(&self) -> bool {
        matches!(self, Algorithm::Fsvrg)
    }
}

/// Drives global iterations of the configured algorithm over a federation.
pub struct FederatedTrainer<'a, M: LossModel> {
    model: &'a M,
    devices: &'a [Device],
    test: &'a Dataset,
    cfg: FedConfig,
}

impl<'a, M: LossModel> FederatedTrainer<'a, M> {
    /// Build a trainer. `devices` must be non-empty and indexed to match
    /// their `id` fields (aggregation weights come from shard sizes).
    pub fn new(model: &'a M, devices: &'a [Device], test: &'a Dataset, cfg: FedConfig) -> Self {
        assert!(!devices.is_empty(), "trainer needs at least one device");
        for (i, d) in devices.iter().enumerate() {
            assert_eq!(d.id, i, "device ids must match their position");
            assert!(!d.data.is_empty(), "device {i} has no data");
        }
        FederatedTrainer { model, devices, test, cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &FedConfig {
        &self.cfg
    }

    /// Run from the model's seeded initialisation.
    ///
    /// Training dynamics (divergence, loss guards) are recorded in the
    /// returned [`History`], never surfaced as errors; `Err` means the
    /// run itself could not proceed (see [`FedError`]).
    pub fn run(&self) -> Result<History, FedError> {
        let w0 = self.model.init_params(self.cfg.seed);
        self.run_from(w0)
    }

    /// Run from an explicit initial global model.
    pub fn run_from(&self, w0: Vec<f64>) -> Result<History, FedError> {
        match self.cfg.runner.clone() {
            RunnerKind::Sequential => self.run_local_loop(w0, false),
            RunnerKind::Parallel => self.run_local_loop(w0, true),
            RunnerKind::Network(opts) => self.run_networked(w0, &opts),
            // The event-driven engine lives above this crate (it can
            // synthesize its population lazily); `fedprox_sim::SimEngine`
            // consumes the same config, including these options.
            RunnerKind::EventDriven(_) => Err(FedError::EventDrivenBackend),
        }
    }

    /// Sequential / rayon-parallel backends share this loop.
    fn run_local_loop(&self, w0: Vec<f64>, parallel: bool) -> Result<History, FedError> {
        let weights = server::weights_from_sizes(
            &self.devices.iter().map(Device::samples).collect::<Vec<_>>(),
        );
        let mut global = w0;
        let mut agg = vec![0.0; global.len()];
        let mut records = Vec::new();
        let mut divergence = DivergenceCause::None;
        let mut total_grad_evals = RunningTotal::new();
        let mut rounds_run = 0;

        // Round 0: the initial global model, so every curve starts from
        // the same baseline (and divergence is visible as an *increase*).
        records.push(self.evaluate(0, &global, None, 0, 0.0, 0));

        #[cfg(feature = "telemetry")]
        let mut monitor = self.health_monitor(&global);
        #[cfg(feature = "telemetry")]
        if let Some(m) = monitor.as_mut() {
            let r = &records[0];
            m.observe_eval(0, r.train_loss, r.grad_norm_sq, None);
        }

        let n = self.devices.len();
        let resil = self.cfg.resilience.as_ref();
        let mut participation: Vec<RoundParticipation> = Vec::new();
        let mut dead = vec![false; n];
        for s in 1..=self.cfg.rounds {
            fedprox_telemetry::span!("core", "round", "s" => s);
            // Partial participation: sample ⌈pN⌉ devices for this round
            // from a stream derived from (seed, round) only, so the
            // selection is identical across backends.
            let participants: Vec<usize> = if self.cfg.participation >= 1.0 {
                (0..n).collect()
            } else {
                let k = ((self.cfg.participation * n as f64).ceil() as usize).clamp(1, n);
                let mut rng = fedprox_data::synthetic::device_rng(
                    self.cfg.seed ^ 0x9A87,
                    s as u64,
                );
                rand::seq::index::sample(&mut rng, n, k).into_vec()
            };
            // Resilience: apply the fault plan to the round's sample —
            // crashed devices drop out for good, offline windows sit the
            // round out — then gate on quorum before any local work. A
            // round without enough responding weight is skipped (global
            // model unchanged) and counted, never fatal.
            let participants = if let Some(r) = resil {
                let mut outcomes = vec![DeviceOutcome::NotSelected; n];
                let mut active = Vec::with_capacity(participants.len());
                for &i in &participants {
                    if dead[i] || r.plan.is_crashed(i, s) {
                        dead[i] = true;
                        outcomes[i] = DeviceOutcome::Crashed;
                    } else if r.plan.is_offline(i, s) {
                        outcomes[i] = DeviceOutcome::Offline;
                    } else {
                        outcomes[i] = DeviceOutcome::Responded;
                        active.push(i);
                    }
                }
                let weight_sum: f64 = active.iter().map(|&i| weights[i]).sum();
                let quorum_ok = r.quorum.met(weight_sum, active.len());
                participation.push(RoundParticipation {
                    round: s,
                    outcomes,
                    responder_weight: weight_sum,
                    skipped: !quorum_ok,
                    sampled: None,
                });
                #[cfg(feature = "telemetry")]
                if let Some(m) = monitor.as_mut() {
                    // `participation` is non-empty: pushed just above.
                    if let Some(p) = participation.last() {
                        m.note_participation(s, p.responder_fraction());
                    }
                }
                if !quorum_ok {
                    // Quorum skip fires the flight recorder, blamed on
                    // the first crashed device when any crashed this
                    // round, else the first non-responder.
                    #[cfg(feature = "telemetry")]
                    if let Some(p) = participation.last() {
                        let device = p
                            .outcomes
                            .iter()
                            .position(|o| *o == DeviceOutcome::Crashed)
                            .or_else(|| {
                                p.outcomes.iter().position(|o| {
                                    !matches!(
                                        o,
                                        DeviceOutcome::Responded | DeviceOutcome::NotSelected
                                    )
                                })
                            })
                            .map(|d| d as u32);
                        fedprox_telemetry::collector::trigger_postmortem(
                            "quorum_skip",
                            s as u32,
                            device,
                        );
                    }
                    rounds_run = s;
                    if s.is_multiple_of(self.cfg.eval_every) || s == self.cfg.rounds {
                        let rec =
                            self.evaluate(s, &global, None, total_grad_evals.get(), 0.0, 0);
                        #[cfg(feature = "telemetry")]
                        if let Some(m) = monitor.as_mut() {
                            m.observe_eval(s, rec.train_loss, rec.grad_norm_sq, None);
                        }
                        records.push(rec);
                    }
                    continue;
                }
                active
            } else {
                participants
            };
            // FSVRG: the server aggregates and re-distributes the global
            // gradient before the local updates (one extra exchange).
            let global_grad = if self.cfg.algorithm.needs_global_gradient() {
                let mut g = vec![0.0; global.len()];
                eval::global_grad(self.model, self.devices, &global, &mut g);
                // Every device spent a full local gradient pass for it.
                for d in self.devices {
                    total_grad_evals.add(d.samples() as u64);
                }
                Some(g)
            } else {
                None
            };
            let updates = runner::run_round_subset(
                self.model,
                self.devices,
                &participants,
                &global,
                &self.cfg,
                s - 1,
                parallel,
                global_grad.as_deref(),
            )?;
            for u in &updates {
                total_grad_evals.add(u.grad_evals as u64);
            }
            #[cfg(feature = "telemetry")]
            if let Some(m) = monitor.as_mut() {
                let mut dir = fedprox_optim::DirectionStats::default();
                let mut work: Vec<(usize, u64)> = Vec::with_capacity(updates.len());
                for (&i, u) in participants.iter().zip(&updates) {
                    dir.merge(&u.dir_stats);
                    work.push((i, u.grad_evals as u64));
                }
                m.note_round(s, &dir, &work);
            }

            // Optional θ measurement against the pre-aggregation global.
            let theta = if self.cfg.measure_theta {
                let mut sum = 0.0;
                let mut wsum = 0.0;
                for (&i, u) in participants.iter().zip(&updates) {
                    let d = &self.devices[i];
                    sum += weights[i] * d.theta_measured(self.model, &global, &u.w, self.cfg.mu);
                    wsum += weights[i];
                }
                Some(sum / wsum)
            } else {
                None
            };

            let locals: Vec<(&[f64], f64)> = updates
                .iter()
                .zip(&participants)
                .map(|(u, &i)| (u.w.as_slice(), weights[i]))
                .collect();
            server::aggregate(&locals, &mut agg);
            std::mem::swap(&mut global, &mut agg);
            rounds_run = s;

            if !vecops::all_finite(&global) {
                // Attribute the blowup to the first participating device
                // whose local model was itself non-finite, when any was
                // (aggregation-only blowups report no device).
                let device = participants
                    .iter()
                    .zip(&updates)
                    .find(|(_, u)| !vecops::all_finite(&u.w))
                    .map(|(&i, _)| i);
                divergence = DivergenceCause::NonFinite { round: s, device };
                #[cfg(feature = "telemetry")]
                {
                    if let Some(m) = monitor.as_mut() {
                        m.observe_non_finite(s, device);
                    }
                    fedprox_telemetry::collector::trigger_postmortem(
                        "non_finite",
                        s as u32,
                        device.map(|d| d as u32),
                    );
                }
                records.push(self.divergence_record(s, theta, total_grad_evals.get()));
                break;
            }
            if s.is_multiple_of(self.cfg.eval_every) || s == self.cfg.rounds {
                let rec = self.evaluate(s, &global, theta, total_grad_evals.get(), 0.0, 0);
                let bad = !rec.train_loss.is_finite() || rec.train_loss > self.cfg.loss_guard;
                #[cfg(feature = "telemetry")]
                if let Some(m) = monitor.as_mut() {
                    if bad {
                        m.observe_loss_guard(s, rec.train_loss, self.cfg.loss_guard);
                    } else {
                        m.observe_eval(s, rec.train_loss, rec.grad_norm_sq, rec.theta_measured);
                    }
                }
                records.push(rec);
                if bad {
                    divergence = DivergenceCause::LossGuard { round: s };
                    #[cfg(feature = "telemetry")]
                    fedprox_telemetry::collector::trigger_postmortem("loss_guard", s as u32, None);
                    break;
                }
            }
        }

        #[cfg(feature = "telemetry")]
        Self::flush_monitor(monitor);

        Ok(History {
            config: self.cfg.summary(),
            records,
            divergence,
            rounds_run,
            total_sim_time: 0.0,
            final_model: global,
            participation,
        })
    }

    /// Build the fedscope health monitor for an armed-telemetry run;
    /// `None` (zero cost) otherwise. The σ̄² measurement it performs is
    /// read-only on model and data — it draws from no RNG stream — so
    /// arming cannot perturb the training trajectory.
    #[cfg(feature = "telemetry")]
    fn health_monitor(&self, w0: &[f64]) -> Option<crate::health::HealthMonitor> {
        if !fedprox_telemetry::collector::is_armed() {
            return None;
        }
        // A named root for the measurement's kernel spans, which would
        // otherwise record as bare root-level `matvec`/`softmax` paths.
        fedprox_telemetry::span!("core", "health_monitor");
        let sigma = eval::empirical_sigma_bar_sq(self.model, self.devices, w0);
        Some(crate::health::HealthMonitor::new(crate::health::HealthConfig::from_run(
            &self.cfg, sigma,
        )))
    }

    /// Hand a monitor's accumulated samples and anomalies to the armed
    /// collector at the end of a run.
    #[cfg(feature = "telemetry")]
    fn flush_monitor(monitor: Option<crate::health::HealthMonitor>) {
        if let Some(m) = monitor {
            for e in m.into_events() {
                fedprox_telemetry::collector::record_event(e);
            }
        }
    }

    /// Networked backend: the actor runtime owns the loop; metrics are
    /// recorded from its per-round callback and timing is patched in from
    /// the virtual clock afterwards.
    fn run_networked(&self, w0: Vec<f64>, opts: &NetRunnerOptions) -> Result<History, FedError> {
        if self.cfg.participation < 1.0 {
            return Err(FedError::NetworkPartialParticipation);
        }
        if self.cfg.algorithm.needs_global_gradient() {
            return Err(FedError::NetworkGlobalGradient);
        }
        let weights = server::weights_from_sizes(
            &self.devices.iter().map(Device::samples).collect::<Vec<_>>(),
        );
        let workers: Vec<_> = self
            .devices
            .iter()
            .map(|d| {
                let model = self.model;
                let cfg = &self.cfg;
                let weight = weights[d.id];
                let sec_per = opts.sec_per_grad_eval;
                // Fallible worker: a local-update failure crosses the
                // simulated wire as a typed `WorkerFailed` transport
                // error instead of a panic. (Unreachable today — FSVRG,
                // the only failing algorithm, is rejected above.)
                TryFnWorker(move |round: u32, global: &[f64]| {
                    let upd = d
                        .local_update(model, global, cfg, round as usize)
                        .map_err(WorkerError::new)?;
                    Ok(DeviceReply {
                        params: upd.w,
                        weight,
                        grad_evals: upd.grad_evals as u64,
                        compute_time: upd.grad_evals as f64 * sec_per,
                    })
                })
            })
            .collect();

        let mut records = Vec::new();
        let mut divergence = DivergenceCause::None;
        let cfg = &self.cfg;
        records.push(self.evaluate(0, &w0, None, 0, 0.0, 0));
        // Device-level direction probes never cross the simulated wire
        // (the frame format must not depend on telemetry state), so the
        // networked monitor carries zero direction statistics and gets
        // its straggler skew backfilled from the clock afterwards.
        #[cfg(feature = "telemetry")]
        let mut monitor = self.health_monitor(&w0);
        #[cfg(feature = "telemetry")]
        if let Some(m) = monitor.as_mut() {
            let r = &records[0];
            m.observe_eval(0, r.train_loss, r.grad_norm_sq, None);
        }
        // The runtime's own resilience option wins when both are set;
        // otherwise the trainer-level policy is handed down.
        let mut net_opts = opts.net.clone();
        if net_opts.resilience.is_none() {
            net_opts.resilience = self.cfg.resilience.clone();
        }
        let report = NetworkRuntime.run(
            workers,
            w0,
            cfg.rounds as u32,
            &net_opts,
            |round, global| {
                let s = round as usize + 1;
                if !vecops::all_finite(global) {
                    divergence = DivergenceCause::NonFinite { round: s, device: None };
                    #[cfg(feature = "telemetry")]
                    {
                        if let Some(m) = monitor.as_mut() {
                            m.observe_non_finite(s, None);
                        }
                        fedprox_telemetry::collector::trigger_postmortem(
                            "non_finite",
                            s as u32,
                            None,
                        );
                    }
                    records.push(self.divergence_record(s, None, 0));
                    return false;
                }
                if s.is_multiple_of(cfg.eval_every) || s == cfg.rounds {
                    let rec = self.evaluate(s, global, None, 0, 0.0, 0);
                    let bad = !rec.train_loss.is_finite() || rec.train_loss > cfg.loss_guard;
                    #[cfg(feature = "telemetry")]
                    if let Some(m) = monitor.as_mut() {
                        if bad {
                            m.observe_loss_guard(s, rec.train_loss, cfg.loss_guard);
                        } else {
                            m.observe_eval(s, rec.train_loss, rec.grad_norm_sq, None);
                        }
                    }
                    records.push(rec);
                    if bad {
                        divergence = DivergenceCause::LossGuard { round: s };
                        #[cfg(feature = "telemetry")]
                        fedprox_telemetry::collector::trigger_postmortem(
                            "loss_guard",
                            s as u32,
                            None,
                        );
                        return false;
                    }
                }
                true
            },
        );
        // Transport errors are protocol/configuration bugs in the
        // in-process simulation, never training dynamics; there is no
        // meaningful History for them, so they propagate typed.
        let report = report.map_err(FedError::Net)?;

        #[cfg(feature = "telemetry")]
        {
            if let Some(m) = monitor.as_mut() {
                m.set_skews(&report.round_skews);
                for p in &report.participation {
                    m.note_participation(p.round, p.responder_fraction());
                }
            }
            Self::flush_monitor(monitor);
        }

        // Patch per-round simulated time, traffic and gradient work into
        // the records (the callback saw none of them).
        let mut cumulative = Vec::with_capacity(report.round_durations.len());
        let mut acc = 0.0;
        for d in &report.round_durations {
            acc += d;
            cumulative.push(acc);
        }
        let mut evals = RunningTotal::new();
        let cumulative_evals: Vec<u64> = report
            .round_grad_evals
            .iter()
            .map(|&e| {
                evals.add(e);
                evals.get()
            })
            .collect();
        let total_bytes = report.clock.bytes_up().saturating_add(report.clock.bytes_down());
        let per_round_bytes = if report.rounds_run > 0 {
            total_bytes / report.rounds_run as u64
        } else {
            0
        };
        for rec in records.iter_mut() {
            if rec.round >= 1 && rec.round <= cumulative.len() {
                rec.sim_time = cumulative[rec.round - 1];
                rec.bytes = per_round_bytes.saturating_mul(rec.round as u64);
            }
            let upto = rec.round.checked_sub(1).and_then(|r| cumulative_evals.get(r));
            if let Some(&evals) = upto {
                rec.grad_evals = evals;
            }
        }

        Ok(History {
            config: self.cfg.summary(),
            records,
            divergence,
            rounds_run: report.rounds_run as usize,
            total_sim_time: report.clock.now(),
            final_model: report.final_model,
            participation: report.participation,
        })
    }

    fn evaluate(
        &self,
        round: usize,
        global: &[f64],
        theta: Option<f64>,
        grad_evals: u64,
        sim_time: f64,
        bytes: u64,
    ) -> RoundRecord {
        fedprox_telemetry::span!("core", "evaluate", "round" => round);
        RoundRecord {
            round,
            train_loss: eval::global_loss(self.model, self.devices, global),
            test_accuracy: eval::test_accuracy(self.model, self.test, global),
            grad_norm_sq: eval::stationarity_gap(self.model, self.devices, global),
            theta_measured: theta,
            sim_time,
            bytes,
            grad_evals,
        }
    }

    fn divergence_record(&self, round: usize, theta: Option<f64>, grad_evals: u64) -> RoundRecord {
        RoundRecord {
            round,
            train_loss: f64::INFINITY,
            test_accuracy: 0.0,
            grad_norm_sq: f64::INFINITY,
            theta_measured: theta,
            sim_time: 0.0,
            bytes: 0,
            grad_evals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunnerKind;
    use fedprox_data::split::split_federation;
    use fedprox_data::synthetic::{generate, SyntheticConfig};
    use fedprox_models::MultinomialLogistic;
    use fedprox_optim::estimator::EstimatorKind;

    fn federation(seed: u64) -> (Vec<Device>, Dataset, MultinomialLogistic) {
        let shards =
            generate(&SyntheticConfig { seed, ..Default::default() }, &[60, 90, 40, 80]);
        let (train, test) = split_federation(&shards, seed);
        let devices: Vec<Device> =
            train.into_iter().enumerate().map(|(i, s)| Device::new(i, s)).collect();
        (devices, test, MultinomialLogistic::new(60, 10))
    }

    fn base_cfg(alg: Algorithm) -> FedConfig {
        FedConfig::new(alg)
            .with_beta(5.0)
            .with_tau(5)
            .with_mu(0.5)
            .with_batch_size(8)
            .with_rounds(10)
            .with_seed(7)
    }

    #[test]
    fn training_reduces_loss_all_algorithms() {
        let (devices, test, model) = federation(1);
        for alg in [
            Algorithm::FedAvg,
            Algorithm::FedProxVr(EstimatorKind::Svrg),
            Algorithm::FedProxVr(EstimatorKind::Sarah),
        ] {
            let trainer = FederatedTrainer::new(&model, &devices, &test, base_cfg(alg));
            let h = trainer.run().expect("run");
            assert!(!h.diverged(), "{} diverged", alg.name());
            assert_eq!(h.rounds_run, 10);
            let first = h.records.first().unwrap().train_loss;
            let last = h.final_loss().unwrap();
            assert!(last < first, "{}: {first} -> {last}", alg.name());
        }
    }

    #[test]
    fn sequential_and_parallel_identical() {
        let (devices, test, model) = federation(2);
        let cfg = base_cfg(Algorithm::FedProxVr(EstimatorKind::Sarah));
        let h_seq = FederatedTrainer::new(&model, &devices, &test, cfg.clone()).run().expect("run");
        let h_par = FederatedTrainer::new(
            &model,
            &devices,
            &test,
            cfg.with_runner(RunnerKind::Parallel),
        )
        .run().expect("run");
        assert_eq!(h_seq.records.len(), h_par.records.len());
        for (a, b) in h_seq.records.iter().zip(&h_par.records) {
            assert_eq!(a.train_loss, b.train_loss, "round {}", a.round);
            assert_eq!(a.test_accuracy, b.test_accuracy);
        }
    }

    #[test]
    fn network_matches_sequential_trajectory() {
        let (devices, test, model) = federation(3);
        let cfg = base_cfg(Algorithm::FedProxVr(EstimatorKind::Svrg)).with_rounds(5);
        let h_seq = FederatedTrainer::new(&model, &devices, &test, cfg.clone()).run().expect("run");
        let h_net = FederatedTrainer::new(
            &model,
            &devices,
            &test,
            cfg.with_runner(RunnerKind::Network(NetRunnerOptions::default())),
        )
        .run().expect("run");
        assert_eq!(h_seq.records.len(), h_net.records.len());
        for (a, b) in h_seq.records.iter().zip(&h_net.records) {
            assert_eq!(a.train_loss, b.train_loss, "round {}", a.round);
        }
        // Network run reports simulated time.
        assert!(h_net.total_sim_time > 0.0);
        assert!(h_net.records.last().unwrap().sim_time > 0.0);
        assert!(h_net.records.last().unwrap().bytes > 0);
    }

    #[test]
    fn measure_theta_records_values() {
        let (devices, test, model) = federation(4);
        let cfg = base_cfg(Algorithm::FedProxVr(EstimatorKind::Sarah))
            .with_rounds(3)
            .with_measure_theta(true);
        let h = FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run");
        assert!(h.records[0].theta_measured.is_none(), "no theta before any local solve");
        for r in h.records.iter().skip(1) {
            let t = r.theta_measured.expect("theta missing");
            assert!(t.is_finite() && t >= 0.0);
        }
    }

    #[test]
    fn eval_every_thins_records() {
        let (devices, test, model) = federation(5);
        let cfg = base_cfg(Algorithm::FedAvg).with_rounds(10).with_eval_every(4);
        let h = FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run");
        let rounds: Vec<usize> = h.records.iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![0, 4, 8, 10]); // baseline, every 4th, final
    }

    #[test]
    fn fedprox_and_fsvrg_baselines_learn() {
        let (devices, test, model) = federation(9);
        for alg in [Algorithm::FedProx, Algorithm::Fsvrg] {
            let h = FederatedTrainer::new(&model, &devices, &test, base_cfg(alg)).run().expect("run");
            assert!(!h.diverged(), "{} diverged", alg.name());
            assert!(
                h.final_loss().unwrap() < h.records[0].train_loss,
                "{} failed to learn",
                alg.name()
            );
        }
    }

    #[test]
    fn fsvrg_accounts_for_global_gradient_cost() {
        let (devices, test, model) = federation(10);
        let total_samples: u64 = devices.iter().map(|d| d.samples() as u64).sum();
        let rounds = 3;
        let h = FederatedTrainer::new(
            &model,
            &devices,
            &test,
            base_cfg(Algorithm::Fsvrg).with_rounds(rounds).with_eval_every(1),
        )
        .run().expect("run");
        let evals = h.records.last().unwrap().grad_evals;
        // At least one full pass per round just for the global gradient.
        assert!(evals >= rounds as u64 * total_samples, "evals {evals}");
    }

    #[test]
    fn networked_grad_evals_match_sequential() {
        let (devices, test, model) = federation(13);
        let cfg = base_cfg(Algorithm::FedProxVr(EstimatorKind::Svrg))
            .with_rounds(4)
            .with_eval_every(1);
        let run = |cfg: FedConfig| {
            let h = FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run");
            h.records.iter().map(|r| (r.round, r.grad_evals)).collect::<Vec<_>>()
        };
        let seq = run(cfg.clone());
        let net = run(cfg.with_runner(RunnerKind::Network(NetRunnerOptions::default())));
        assert_eq!(seq, net, "networked History.grad_evals drifted from Sequential");
        assert!(net.last().is_some_and(|&(_, e)| e > 0));
    }

    #[test]
    fn networked_rejects_fsvrg() {
        let (devices, test, model) = federation(11);
        let cfg = base_cfg(Algorithm::Fsvrg)
            .with_runner(RunnerKind::Network(NetRunnerOptions::default()));
        let err = FederatedTrainer::new(&model, &devices, &test, cfg)
            .run()
            .expect_err("FSVRG must be refused by the networked backend");
        assert_eq!(err, FedError::NetworkGlobalGradient);
        assert!(err.to_string().contains("not modelled by the networked backend"));
    }

    #[test]
    fn partial_participation_trains_and_differs_from_full() {
        let (devices, test, model) = federation(7);
        let full = FederatedTrainer::new(
            &model,
            &devices,
            &test,
            base_cfg(Algorithm::FedAvg).with_rounds(6),
        )
        .run().expect("run");
        let half = FederatedTrainer::new(
            &model,
            &devices,
            &test,
            base_cfg(Algorithm::FedAvg).with_rounds(6).with_participation(0.5),
        )
        .run().expect("run");
        assert!(!half.diverged());
        // Different device subsets ⇒ different trajectory.
        assert_ne!(
            full.final_loss().unwrap(),
            half.final_loss().unwrap(),
            "sampling half the devices should change the trajectory"
        );
        // Still learns.
        assert!(half.final_loss().unwrap() < half.records[0].train_loss);
        // Reproducible.
        let half2 = FederatedTrainer::new(
            &model,
            &devices,
            &test,
            base_cfg(Algorithm::FedAvg).with_rounds(6).with_participation(0.5),
        )
        .run().expect("run");
        assert_eq!(half.records, half2.records);
    }

    #[test]
    fn networked_rejects_partial_participation() {
        let (devices, test, model) = federation(8);
        let cfg = base_cfg(Algorithm::FedAvg)
            .with_participation(0.5)
            .with_runner(RunnerKind::Network(NetRunnerOptions::default()));
        let err = FederatedTrainer::new(&model, &devices, &test, cfg)
            .run()
            .expect_err("partial participation must be refused by the networked backend");
        assert_eq!(err, FedError::NetworkPartialParticipation);
        assert!(err.to_string().contains("full participation"));
    }

    #[test]
    fn local_crash_excludes_device_and_records_participation() {
        use fedprox_faults::{FaultPlan, Resilience};
        let (devices, test, model) = federation(12);
        let cfg = base_cfg(Algorithm::FedProxVr(EstimatorKind::Svrg)).with_rounds(6);
        let faulted = cfg
            .clone()
            .with_resilience(Resilience::with_plan(FaultPlan::new().crash(2, 3)));
        let h = FederatedTrainer::new(&model, &devices, &test, faulted.clone()).run().expect("run");
        assert!(!h.diverged());
        assert_eq!(h.rounds_run, 6);
        assert_eq!(h.participation.len(), 6);
        for p in &h.participation {
            assert!(!p.skipped);
            if p.round >= 3 {
                assert_eq!(p.outcomes[2], DeviceOutcome::Crashed);
                assert_eq!(p.responders(), 3);
                assert!(p.responder_weight < 1.0);
            } else {
                assert_eq!(p.responders(), 4);
                assert!((p.responder_weight - 1.0).abs() < 1e-12);
            }
        }
        // The faulted trajectory differs from the clean one…
        let clean = FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run");
        assert!(clean.participation.is_empty());
        assert_ne!(clean.final_loss(), h.final_loss());
        // …and is reproducible bit-for-bit.
        let h2 = FederatedTrainer::new(&model, &devices, &test, faulted).run().expect("run");
        assert_eq!(h.records, h2.records);
        assert_eq!(h.participation, h2.participation);
    }

    #[test]
    fn local_quorum_shortfall_skips_rounds_without_error() {
        use fedprox_faults::{FaultPlan, QuorumPolicy, Resilience};
        let (devices, test, model) = federation(13);
        // Device 1 holds 90 of 270 training samples; while it is offline
        // the responding weight 2/3 misses a 0.9 quorum and the round is
        // skipped with the global model untouched.
        let resil = Resilience::with_plan(FaultPlan::new().offline(1, 2, 3))
            .with_quorum(QuorumPolicy::weight_fraction(0.9));
        let cfg = base_cfg(Algorithm::FedAvg).with_rounds(5).with_resilience(resil);
        let h = FederatedTrainer::new(&model, &devices, &test, cfg).run().expect("run");
        assert!(!h.diverged());
        assert_eq!(h.rounds_run, 5);
        let skipped: Vec<usize> =
            h.participation.iter().filter(|p| p.skipped).map(|p| p.round).collect();
        assert_eq!(skipped, vec![2, 3]);
        // eval_every = 1: skipped rounds leave the evaluated loss
        // bitwise unchanged.
        assert_eq!(h.records[1].round, 1);
        assert_eq!(h.records[2].train_loss.to_bits(), h.records[1].train_loss.to_bits());
        assert_eq!(h.records[3].train_loss.to_bits(), h.records[1].train_loss.to_bits());
        assert_ne!(h.records[4].train_loss.to_bits(), h.records[3].train_loss.to_bits());
    }

    #[test]
    fn local_zero_fault_resilience_matches_strict_run() {
        use fedprox_faults::Resilience;
        let (devices, test, model) = federation(14);
        let cfg = base_cfg(Algorithm::FedProxVr(EstimatorKind::Sarah));
        let strict = FederatedTrainer::new(&model, &devices, &test, cfg.clone()).run().expect("run");
        let resilient = FederatedTrainer::new(
            &model,
            &devices,
            &test,
            cfg.with_resilience(Resilience::default()),
        )
        .run().expect("run");
        assert_eq!(strict.records, resilient.records);
        for (a, b) in strict.final_model.iter().zip(&resilient.final_model) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(resilient.participation.len(), 10);
        assert!(resilient.participation.iter().all(|p| p.responders() == 4 && !p.skipped));
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::FedAvg.name(), "fedavg");
        assert_eq!(Algorithm::FedProxVr(EstimatorKind::Svrg).name(), "fedproxvr-svrg");
        assert_eq!(Algorithm::FedProxVr(EstimatorKind::Sarah).name(), "fedproxvr-sarah");
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_federation_rejected() {
        let (_, test, model) = federation(6);
        let _ = FederatedTrainer::new(&model, &[], &test, base_cfg(Algorithm::FedAvg));
    }
}
