//! [`SimEngine`] — Algorithm 1 on the event-driven backend.
//!
//! The engine drives the same global iteration the sequential backend
//! runs — sample, fault-filter, quorum-gate, local solves, aggregate,
//! evaluate — but devices are passive state machines: a sampled device
//! is (lazily) materialized, runs its τ-step proximal solve, surrenders
//! its delta, and is dropped before the next round. Round timing comes
//! from the sharded virtual-time event loop instead of per-worker
//! charging, and the fedresil fault/delay streams are queried by stable
//! device id at the loop level rather than inside an actor.
//!
//! **Trajectory inheritance.** On a materialized population the engine
//! consumes exactly the sequential backend's streams: the same per-round
//! sampling stream ([`SamplerSpec::UniformK`] with `K = ⌈pN⌉`, or
//! [`SamplerSpec::Full`] for p = 1), the same per-(round, device) local
//! solver streams, the same aggregation order and the same
//! [`server::aggregate`] renormalisation — so its `History` agrees
//! bitwise with `RunnerKind::Sequential` (metric fields; the sim-time
//! and byte columns report the virtual clock, which the sequential
//! backend leaves at zero). `tests/sim_runtime.rs` locks this.

use crate::events::{DeviceTiming, ShardedEventLoop};
use crate::population::Population;
use crate::sampler::{bernoulli_reweight, Sampler};
use fedprox_core::metrics::{DivergenceCause, History, RoundRecord, RunningTotal};
use fedprox_core::{eval, runner, server};
use fedprox_core::{Device, FedConfig, FedError, RunnerKind, SamplerSpec, SimRunnerOptions};
use fedprox_core::device::LocalUpdate;
use fedprox_data::Dataset;
use fedprox_faults::{DeviceOutcome, RoundParticipation};
use fedprox_models::LossModel;
use fedprox_net::VirtualClock;
use fedprox_tensor::vecops;
use rand::Rng;
use rayon::prelude::*;

/// Seed-domain tag for the optional compute-jitter stream (disjoint from
/// the sampling, fault and solver stream families).
const JITTER_TAG: u64 = 0x51D0_77E1;

/// Per-round progress handed to [`SimEngine::run_with`] callbacks (the
/// `fedsim` CLI measures per-round allocation traffic from here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Global round `s` (1-based).
    pub round: usize,
    /// Devices whose local models entered this round's aggregation
    /// (0 for a quorum-skipped round).
    pub active: usize,
    /// Virtual clock after the round.
    pub sim_time: f64,
}

/// The event-driven execution engine.
///
/// Unlike [`fedprox_core::FederatedTrainer`] it accepts a [`Population`]
/// instead of a device slice (so million-device populations never
/// materialize) and an optional test set (lazy populations skip
/// evaluation entirely; their `History.records` only ever carries a
/// divergence marker).
pub struct SimEngine<'a, M: LossModel> {
    model: &'a M,
    population: Population<'a>,
    test: Option<&'a Dataset>,
    cfg: FedConfig,
    opts: SimRunnerOptions,
}

impl<'a, M: LossModel> SimEngine<'a, M> {
    /// Build an engine. Options come from the config's
    /// [`RunnerKind::EventDriven`] when selected, defaults otherwise
    /// (so a config built for another backend still runs, full-sampled).
    ///
    /// FSVRG is rejected: its server-distributed global gradient needs a
    /// full-population pass every round, which contradicts sampling.
    pub fn new(
        model: &'a M,
        population: Population<'a>,
        test: Option<&'a Dataset>,
        cfg: FedConfig,
    ) -> Self {
        assert!(!population.is_empty(), "engine needs at least one device");
        assert!(
            !cfg.algorithm.needs_global_gradient(),
            "FSVRG needs a full-population gradient exchange; the event-driven backend samples"
        );
        if let Population::Materialized(devs) = &population {
            for (i, d) in devs.iter().enumerate() {
                assert_eq!(d.id, i, "device ids must match their position");
            }
        }
        let opts = match &cfg.runner {
            RunnerKind::EventDriven(o) => *o,
            _ => SimRunnerOptions::default(),
        };
        SimEngine { model, population, test, cfg, opts }
    }

    /// The resolved runner options.
    pub fn options(&self) -> &SimRunnerOptions {
        &self.opts
    }

    /// Run from the model's seeded initialisation.
    pub fn run(&self) -> Result<History, FedError> {
        self.run_from(self.model.init_params(self.cfg.seed))
    }

    /// Run from an explicit initial global model.
    pub fn run_from(&self, w0: Vec<f64>) -> Result<History, FedError> {
        self.run_loop(w0, &mut |_| {})
    }

    /// Run from the seeded initialisation with a per-round observer.
    pub fn run_with(&self, mut on_round: impl FnMut(&RoundStats)) -> Result<History, FedError> {
        self.run_loop(self.model.init_params(self.cfg.seed), &mut on_round)
    }

    fn run_loop(
        &self,
        w0: Vec<f64>,
        on_round: &mut dyn FnMut(&RoundStats),
    ) -> Result<History, FedError> {
        let n = self.population.len();
        let dim = w0.len();
        let sampler = Sampler::new(self.opts.sampler);
        let compact = matches!(self.population, Population::Lazy(_));
        // Materialized populations reuse the sequential backend's weight
        // vector bitwise; lazy ones resolve D_d / D per sampled device.
        let dense_weights = match &self.population {
            Population::Materialized(devs) => Some(server::weights_from_sizes(
                &devs.iter().map(|d| d.samples()).collect::<Vec<_>>(),
            )),
            Population::Lazy(_) => None,
        };
        let total_samples = self.population.total_samples() as f64;
        let weight_of = |d: usize| match &dense_weights {
            Some(w) => w[d],
            None => self.population.size_of(d) as f64 / total_samples,
        };

        let mut global = w0;
        let mut agg = vec![0.0; dim];
        let mut records = Vec::new();
        let mut divergence = DivergenceCause::None;
        let mut total_grad_evals = RunningTotal::new();
        let mut rounds_run = 0;
        let mut clock = VirtualClock::default();
        let mut event_loop = ShardedEventLoop::new(self.opts.shards);
        let resil = self.cfg.resilience.as_ref();
        let mut participation: Vec<RoundParticipation> = Vec::new();
        // Participation ledger: resilient runs (as in the other
        // backends) and every lazy run (sampled rounds are the story a
        // million-device run tells; compact records keep them O(K)).
        let record_participation = resil.is_some() || compact;

        if let (Population::Materialized(devs), Some(test)) = (&self.population, self.test) {
            records.push(evaluate(self.model, devs, test, 0, &global, None, 0, 0.0, 0));
        }

        for s in 1..=self.cfg.rounds {
            fedprox_telemetry::span!("sim", "round", "s" => s);
            let sampled = sampler.sample(n, s, self.cfg.seed, |d| self.population.size_of(d));

            // Fault filtering on the sampled set, addressed by stable
            // device id (see `fedprox_faults::PlannedFault::device`).
            // Compact rounds keep outcomes aligned with `sampled`; dense
            // rounds use the sequential backend's full-width layout.
            let mut outcomes =
                vec![DeviceOutcome::NotSelected; if compact { sampled.len() } else { n }];
            let mut active: Vec<usize> = Vec::with_capacity(sampled.len());
            for (j, &d) in sampled.iter().enumerate() {
                let slot = if compact { j } else { d };
                outcomes[slot] = match resil {
                    Some(r) if r.plan.is_crashed(d, s) => DeviceOutcome::Crashed,
                    Some(r) if r.plan.is_offline(d, s) => DeviceOutcome::Offline,
                    _ => {
                        active.push(d);
                        DeviceOutcome::Responded
                    }
                };
            }
            let weight_sum: f64 = active.iter().map(|&d| weight_of(d)).sum();
            let quorum_ok = resil.is_none_or(|r| r.quorum.met(weight_sum, active.len()));
            if !quorum_ok {
                let rec = RoundParticipation {
                    round: s,
                    outcomes,
                    responder_weight: weight_sum,
                    skipped: true,
                    sampled: compact_ids(compact, &sampled),
                };
                #[cfg(feature = "telemetry")]
                {
                    record_participation_telemetry(&rec);
                    fedprox_telemetry::collector::trigger_postmortem(
                        "quorum_skip",
                        s as u32,
                        attribute_skip(&rec),
                    );
                }
                if record_participation {
                    participation.push(rec);
                }
                rounds_run = s;
                if s.is_multiple_of(self.cfg.eval_every) || s == self.cfg.rounds {
                    if let (Population::Materialized(devs), Some(test)) =
                        (&self.population, self.test)
                    {
                        records.push(evaluate(
                            self.model,
                            devs,
                            test,
                            s,
                            &global,
                            None,
                            total_grad_evals.get(),
                            clock.now(),
                            clock.bytes_down() + clock.bytes_up(),
                        ));
                    }
                }
                on_round(&RoundStats { round: s, active: 0, sim_time: clock.now() });
                continue;
            }

            // Local solves, fanned out across threads (shard synthesis
            // included) and returned in `active` order. The per-(round,
            // device) solver streams are keyed identically to the other
            // backends, so a lazily synthesized device produces the same
            // delta it would as a resident actor, on whichever thread.
            let updates: Vec<LocalUpdate> = match &self.population {
                Population::Materialized(devs) => runner::run_round_subset(
                    self.model,
                    devs,
                    &active,
                    &global,
                    &self.cfg,
                    s - 1,
                    true,
                    None,
                )?,
                Population::Lazy(lazy) => active
                    .par_iter()
                    .map(|&d| {
                        fedprox_telemetry::span!("sim", "device_update", "device" => d, "round" => s - 1);
                        lazy.device(d).local_update_anchored(
                            self.model,
                            &global,
                            &self.cfg,
                            s - 1,
                            None,
                        )
                    })
                    .collect::<Result<_, _>>()?,
            };
            for u in &updates {
                total_grad_evals.add(u.grad_evals as u64);
            }

            // Optional θ measurement against the pre-aggregation global
            // (materialized populations only; mirrors the sequential
            // backend's accumulation order bitwise).
            let theta = match (&self.population, self.cfg.measure_theta) {
                (Population::Materialized(devs), true) => {
                    let mut sum = 0.0;
                    let mut wsum = 0.0;
                    for (&i, u) in active.iter().zip(&updates) {
                        let d = &devs[i];
                        sum += weight_of(i)
                            * d.theta_measured(self.model, &global, &u.w, self.cfg.mu);
                        wsum += weight_of(i);
                    }
                    Some(sum / wsum)
                }
                _ => None,
            };

            // Timing layer: charge each active device's legs and let the
            // sharded event loop order the round. Compute time scales
            // with the solve's measured gradient evaluations, the fault
            // plan's slow factor and the population's hardware spread.
            let timings: Vec<DeviceTiming> = active
                .iter()
                .zip(&updates)
                .map(|(&d, u)| {
                    let mut compute = u.grad_evals as f64
                        * self.opts.sec_per_grad_eval
                        * self.population.compute_factor_of(d);
                    if let Some(r) = resil {
                        compute *= r.plan.slow_factor(d, s);
                    }
                    if self.opts.jitter > 0.0 {
                        let mut rng = fedprox_faults::stream_rng(
                            self.cfg.seed ^ JITTER_TAG,
                            s as u64,
                            d as u64,
                        );
                        let u01: f64 = rng.gen_range(0.0..1.0);
                        compute *= 1.0 + self.opts.jitter * (2.0 * u01 - 1.0);
                    }
                    DeviceTiming {
                        device: d,
                        download: self.opts.downlink_s,
                        compute,
                        upload: self.opts.uplink_s,
                    }
                })
                .collect();
            let t0 = clock.now();
            let finishes = event_loop.run_round(t0, &timings);

            // Deadline: devices finishing past it drop out of the
            // aggregation (their compute still happened and is charged).
            let mut responded = vec![true; active.len()];
            if let Some(deadline) = resil.and_then(|r| r.deadline_s) {
                for &(d, t) in &finishes {
                    if t - t0 > deadline {
                        if let Some(j) = active.iter().position(|&a| a == d) {
                            responded[j] = false;
                        }
                        let slot = if compact {
                            sampled.iter().position(|&sd| sd == d)
                        } else {
                            Some(d)
                        };
                        if let Some(slot) = slot {
                            outcomes[slot] = DeviceOutcome::DeadlineMiss;
                        }
                    }
                }
            }

            // Clock: responders contribute their finish, deadline misses
            // the deadline itself (the server stops waiting there). The
            // model crosses the link once per direction per active
            // device.
            let mut candidates: Vec<f64> = Vec::with_capacity(active.len());
            for (j, t) in timings.iter().enumerate() {
                if responded[j] {
                    candidates.push(t.download + t.compute + t.upload);
                } else if let Some(deadline) = resil.and_then(|r| r.deadline_s) {
                    candidates.push(deadline);
                }
            }
            let leg_bytes = (active.len() * dim * 8) as u64;
            clock.record_traffic(leg_bytes, leg_bytes);
            clock.advance_partial_round(&candidates);

            let responders: Vec<usize> = (0..active.len()).filter(|&j| responded[j]).collect();
            let responder_weight: f64 =
                responders.iter().map(|&j| weight_of(active[j])).sum();
            let rec = RoundParticipation {
                round: s,
                outcomes,
                responder_weight,
                skipped: false,
                sampled: compact_ids(compact, &sampled),
            };
            #[cfg(feature = "telemetry")]
            {
                let responder_timings: Vec<(usize, DeviceTiming)> = responders
                    .iter()
                    .map(|&j| (timings[j].device, timings[j]))
                    .collect();
                record_round_telemetry(
                    (s - 1) as u32,
                    &responder_timings,
                    leg_bytes,
                    leg_bytes,
                    clock.now(),
                );
                if record_participation {
                    record_participation_telemetry(&rec);
                }
            }
            if record_participation {
                participation.push(rec);
            }

            // Aggregation, in the sampler's participant order (never the
            // event loop's completion order — the trajectory must not
            // depend on the virtual schedule). An all-missed round
            // leaves the global model unchanged.
            if !responders.is_empty() {
                match self.opts.sampler {
                    SamplerSpec::Bernoulli(p) if p < 1.0 => {
                        // 1/p reweighting with the residual weight on
                        // the previous global model (see
                        // `sampler::bernoulli_reweight`); the residual
                        // can be negative, so this bypasses
                        // `server::aggregate`'s weight assertions.
                        let w: Vec<f64> =
                            responders.iter().map(|&j| weight_of(active[j])).collect();
                        let (scaled, residual) = bernoulli_reweight(&w, p);
                        for a in agg.iter_mut() {
                            *a = 0.0;
                        }
                        vecops::axpy(residual, &global, &mut agg);
                        for (&j, &sw) in responders.iter().zip(&scaled) {
                            vecops::axpy(sw, &updates[j].w, &mut agg);
                        }
                    }
                    SamplerSpec::WeightedK(_) => {
                        // Inclusion probability carried the n_k bias;
                        // the aggregate is a plain 1/K average.
                        let w = 1.0 / responders.len() as f64;
                        let locals: Vec<(&[f64], f64)> =
                            responders.iter().map(|&j| (updates[j].w.as_slice(), w)).collect();
                        server::aggregate(&locals, &mut agg);
                    }
                    _ => {
                        // Raw D_d/D weights; `server::aggregate`
                        // renormalises by the responding weight exactly
                        // as the sequential backend does.
                        let locals: Vec<(&[f64], f64)> = responders
                            .iter()
                            .map(|&j| (updates[j].w.as_slice(), weight_of(active[j])))
                            .collect();
                        server::aggregate(&locals, &mut agg);
                    }
                }
                std::mem::swap(&mut global, &mut agg);
            }
            rounds_run = s;

            if !vecops::all_finite(&global) {
                let device = active
                    .iter()
                    .zip(&updates)
                    .find(|(_, u)| !vecops::all_finite(&u.w))
                    .map(|(&d, _)| d);
                divergence = DivergenceCause::NonFinite { round: s, device };
                #[cfg(feature = "telemetry")]
                fedprox_telemetry::collector::trigger_postmortem(
                    "non_finite",
                    s as u32,
                    device.map(|d| d as u32),
                );
                records.push(divergence_record(s, theta, total_grad_evals.get()));
                on_round(&RoundStats {
                    round: s,
                    active: responders.len(),
                    sim_time: clock.now(),
                });
                break;
            }
            let mut stop = false;
            if s.is_multiple_of(self.cfg.eval_every) || s == self.cfg.rounds {
                if let (Population::Materialized(devs), Some(test)) =
                    (&self.population, self.test)
                {
                    let rec = evaluate(
                        self.model,
                        devs,
                        test,
                        s,
                        &global,
                        theta,
                        total_grad_evals.get(),
                        clock.now(),
                        clock.bytes_down() + clock.bytes_up(),
                    );
                    let bad =
                        !rec.train_loss.is_finite() || rec.train_loss > self.cfg.loss_guard;
                    records.push(rec);
                    if bad {
                        divergence = DivergenceCause::LossGuard { round: s };
                        #[cfg(feature = "telemetry")]
                        fedprox_telemetry::collector::trigger_postmortem(
                            "loss_guard",
                            s as u32,
                            None,
                        );
                        stop = true;
                    }
                }
            }
            on_round(&RoundStats { round: s, active: responders.len(), sim_time: clock.now() });
            if stop {
                break;
            }
        }

        Ok(History {
            config: self.cfg.summary(),
            records,
            divergence,
            rounds_run,
            total_sim_time: clock.now(),
            final_model: global,
            participation,
        })
    }
}

/// The compact record's id column (lazy populations only): `sampled[j]`
/// names the stable device `outcomes[j]` describes.
fn compact_ids(compact: bool, sampled: &[usize]) -> Option<Vec<u32>> {
    compact.then(|| sampled.iter().map(|&d| d as u32).collect())
}

/// One evaluated round (same metric set as the sequential backend; the
/// sim-time and byte columns carry the virtual clock).
#[allow(clippy::too_many_arguments)] // mirrors the trainer's private evaluate signature
fn evaluate<M: LossModel>(
    model: &M,
    devices: &[Device],
    test: &Dataset,
    round: usize,
    global: &[f64],
    theta: Option<f64>,
    grad_evals: u64,
    sim_time: f64,
    bytes: u64,
) -> RoundRecord {
    fedprox_telemetry::span!("sim", "evaluate", "round" => round);
    RoundRecord {
        round,
        train_loss: eval::global_loss(model, devices, global),
        test_accuracy: eval::test_accuracy(model, test, global),
        grad_norm_sq: eval::stationarity_gap(model, devices, global),
        theta_measured: theta,
        sim_time,
        bytes,
        grad_evals,
    }
}

/// The sentinel record marking a non-finite aggregate.
fn divergence_record(round: usize, theta: Option<f64>, grad_evals: u64) -> RoundRecord {
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

/// Emit one round's simulation observations — [`DeviceRound`] legs for
/// the round's responders (stable device ids, so `fedobs` gating and
/// critical-path attribution see exactly the sampled set), the two
/// [`Bytes`] totals and the closing [`RoundEnd`]. Mirrors the networked
/// backend's emission; `round` is 0-based on the wire there, so here too.
///
/// [`DeviceRound`]: fedprox_telemetry::event::Event::DeviceRound
/// [`Bytes`]: fedprox_telemetry::event::Event::Bytes
/// [`RoundEnd`]: fedprox_telemetry::event::Event::RoundEnd
#[cfg(feature = "telemetry")]
fn record_round_telemetry(
    round: u32,
    timings: &[(usize, DeviceTiming)],
    down_bytes: u64,
    up_bytes: u64,
    sim_now: f64,
) {
    use fedprox_telemetry::collector;
    use fedprox_telemetry::event::Event;
    if !collector::is_armed() {
        return;
    }
    let finishes: Vec<f64> =
        timings.iter().map(|(_, t)| t.download + t.compute + t.upload).collect();
    let mut sorted = finishes.clone();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    if m > 0 {
        let median = if m % 2 == 1 {
            sorted[m / 2]
        } else {
            0.5 * (sorted[m / 2 - 1] + sorted[m / 2])
        };
        for ((d, t), finish) in timings.iter().zip(&finishes) {
            let lag = finish - median;
            collector::record_event(Event::DeviceRound {
                round,
                device: *d as u32,
                download_s: t.download,
                compute_s: t.compute,
                upload_s: t.upload,
                finish_s: *finish,
                lag_s: lag,
            });
            fedprox_telemetry::histogram!("net.straggler_lag_s", lag.max(0.0));
        }
    }
    collector::record_event(Event::Bytes {
        round,
        kind: "global_model".into(),
        direction: "down".into(),
        bytes: down_bytes,
    });
    collector::record_event(Event::Bytes {
        round,
        kind: "local_model".into(),
        direction: "up".into(),
        bytes: up_bytes,
    });
    collector::record_event(Event::RoundEnd { round, sim_time_s: sim_now });
}

/// Emit one round's participation observations (counters plus the
/// structured [`Participation`] event), mirroring the networked backend.
///
/// [`Participation`]: fedprox_telemetry::event::Event::Participation
#[cfg(feature = "telemetry")]
fn record_participation_telemetry(rec: &RoundParticipation) {
    use fedprox_telemetry::collector;
    use fedprox_telemetry::event::Event;
    if !collector::is_armed() {
        return;
    }
    let responded = rec.responders();
    let crashed = rec.count(DeviceOutcome::Crashed);
    let offline = rec.count(DeviceOutcome::Offline);
    let deadline_miss = rec.count(DeviceOutcome::DeadlineMiss);
    let link_failed = rec.count(DeviceOutcome::LinkFailed);
    fedprox_telemetry::counter!("net.participation.responded", responded as u64);
    fedprox_telemetry::counter!("net.participation.crashed", crashed as u64);
    fedprox_telemetry::counter!("net.participation.offline", offline as u64);
    fedprox_telemetry::counter!("net.participation.link_failed", link_failed as u64);
    fedprox_telemetry::counter!("net.round.deadline_miss", deadline_miss as u64);
    if rec.skipped {
        fedprox_telemetry::counter!("net.round.skipped", 1u64);
    }
    collector::record_event(Event::Participation {
        round: rec.round as u32,
        responded: responded as u32,
        crashed: crashed as u32,
        offline: offline as u32,
        deadline_miss: deadline_miss as u32,
        link_failed: link_failed as u32,
        weight: rec.responder_weight,
        skipped: u32::from(rec.skipped),
    });
}

/// The device a quorum skip is blamed on, by **stable id**: compact
/// records translate the outcome position through the record's sampled
/// column; dense records use the position directly (it is the id there).
#[cfg(feature = "telemetry")]
fn attribute_skip(rec: &RoundParticipation) -> Option<u32> {
    let pos = rec
        .outcomes
        .iter()
        .position(|o| *o == DeviceOutcome::Crashed)
        .or_else(|| {
            rec.outcomes.iter().position(|o| {
                !matches!(o, DeviceOutcome::Responded | DeviceOutcome::NotSelected)
            })
        })?;
    Some(match &rec.sampled {
        Some(ids) => ids[pos],
        None => pos as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_core::Algorithm;
    use fedprox_data::partition::ZipfPopulation;
    use fedprox_data::synthetic::{SyntheticConfig, SyntheticPool};
    use fedprox_models::MultinomialLogistic;
    use fedprox_optim::estimator::EstimatorKind;

    fn lazy_population(devices: usize, seed: u64) -> crate::population::LazyPopulation {
        let zipf = ZipfPopulation::new(devices, 30, 90, 1.5, 4.0, seed);
        let pool = SyntheticPool::new(SyntheticConfig { seed, ..Default::default() });
        crate::population::LazyPopulation::new(zipf, pool)
    }

    fn cfg(sampler: SamplerSpec, seed: u64) -> FedConfig {
        FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
            .with_beta(5.0)
            .with_tau(3)
            .with_mu(0.5)
            .with_batch_size(8)
            .with_rounds(4)
            .with_seed(seed)
            .with_runner(RunnerKind::EventDriven(
                SimRunnerOptions::default().with_sampler(sampler),
            ))
    }

    fn model_bits(h: &History) -> Vec<u64> {
        h.final_model.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn lazy_sampled_run_is_deterministic_and_compact() {
        let model = MultinomialLogistic::new(60, 10);
        let run = |seed: u64| {
            let pop = Population::Lazy(lazy_population(500, seed));
            SimEngine::new(&model, pop, None, cfg(SamplerSpec::UniformK(8), seed))
                .run()
                .unwrap()
        };
        let (a, b) = (run(9), run(9));
        assert_eq!(model_bits(&a), model_bits(&b), "same seed must be bitwise stable");
        // A different seed takes a different trajectory.
        assert_ne!(model_bits(&a), model_bits(&run(10)));
    }

    #[test]
    fn lazy_run_records_compact_participation() {
        let model = MultinomialLogistic::new(60, 10);
        let pop = Population::Lazy(lazy_population(300, 5));
        let engine = SimEngine::new(&model, pop, None, cfg(SamplerSpec::UniformK(6), 5));
        let history = match engine.run() {
            Ok(h) => h,
            Err(e) => panic!("run failed: {e}"),
        };
        assert_eq!(history.participation.len(), 4);
        for rec in &history.participation {
            let ids = match &rec.sampled {
                Some(ids) => ids,
                None => panic!("lazy participation must be compact"),
            };
            assert_eq!(ids.len(), 6);
            assert_eq!(rec.outcomes.len(), 6);
            assert!(!rec.skipped);
        }
        assert!(history.records.is_empty(), "lazy runs never evaluate");
        assert!(history.total_sim_time > 0.0);
    }

    #[test]
    fn weighted_and_bernoulli_schemes_run_end_to_end() {
        let model = MultinomialLogistic::new(60, 10);
        for spec in [SamplerSpec::WeightedK(6), SamplerSpec::Bernoulli(0.02)] {
            let pop = Population::Lazy(lazy_population(400, 13));
            let engine = SimEngine::new(&model, pop, None, cfg(spec, 13));
            let history = match engine.run() {
                Ok(h) => h,
                Err(e) => panic!("{spec:?} run failed: {e}"),
            };
            assert_eq!(history.rounds_run, 4, "{spec:?}");
            assert!(history.final_model.iter().all(|x| x.is_finite()), "{spec:?}");
        }
    }

    #[test]
    #[should_panic(expected = "FSVRG")]
    fn fsvrg_is_rejected() {
        let model = MultinomialLogistic::new(60, 10);
        let pop = Population::Lazy(lazy_population(10, 1));
        let cfg = FedConfig::new(Algorithm::Fsvrg).with_seed(1);
        let _ = SimEngine::new(&model, pop, None, cfg);
    }
}
