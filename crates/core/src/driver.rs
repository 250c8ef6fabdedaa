//! The round driver: Algorithm 1's global iteration, written once.
//!
//! Every backend runs the same round policy: sample, fault-filter,
//! quorum-gate, solve locally (in parallel), aggregate, then evaluate and
//! guard. [`run`] owns all of it for the in-process backends
//! (`Sequential`, `Parallel`) and for the event-driven one, which adds
//! a timing model ([`SimRunnerOptions`]): per-device legs, a round
//! deadline and the [`VirtualClock`]. The networked backend keeps its
//! actor transport loop (link failures and deadline misses count against
//! quorum there, after collection) and hands each aggregated model to
//! [`RoundEnd::end_round`], the step every round below ends with.
//!
//! **One trajectory.** Sampling, fault queries and local-solver streams
//! are keyed by `(seed, round, stable id)` only, and aggregation sums in
//! sampled order, never in virtual completion order. A materialized
//! population therefore yields the same `History` on every backend: the
//! event-driven one adds only the virtual-clock columns.

use crate::config::{FedConfig, RunnerKind, SamplerSpec, SimRunnerOptions};
use crate::device::{Device, LocalUpdate};
use crate::error::FedError;
use crate::metrics::{DivergenceCause, History, RoundRecord, RunningTotal};
use crate::population::Population;
use crate::sampler::{bernoulli_reweight, Sampler};
use crate::{eval, runner, server};
use fedprox_data::Dataset;
use fedprox_faults::{DeviceOutcome, RoundParticipation};
use fedprox_models::LossModel;
use fedprox_net::clock::DeviceRoundTiming;
use fedprox_net::VirtualClock;
use fedprox_tensor::vecops;
use rand::Rng;

/// Seed-domain tag for the optional compute-jitter stream (disjoint from
/// the sampling, fault and solver stream families).
const JITTER_TAG: u64 = 0x51D0_77E1;

/// Per-round progress handed to a run's observer (`fedrun`'s event-driven runs and
/// fedbench measure per-round cost from here).
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

/// The counters an evaluated record reports.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    pub grad_evals: u64,
    pub sim_time: f64,
    pub bytes: u64,
}

impl Counters {
    fn now(grad_evals: &RunningTotal, clock: &VirtualClock) -> Self {
        Counters {
            grad_evals: grad_evals.get(),
            sim_time: clock.now(),
            bytes: clock.bytes_down() + clock.bytes_up(),
        }
    }
}

/// Run `cfg.rounds` global iterations over `population` from `w0`.
///
/// `timing` selects the event-driven backend: its sampler picks each
/// round's set, and each device's legs charge the virtual clock and
/// face the resilience deadline. Without it the in-process backends run:
/// `cfg.participation` samples ([`Sampler::participation`]) and the
/// clock stays at zero. Devices fan out across threads for
/// `RunnerKind::Parallel` and every event-driven run. Rounds are
/// evaluated only when the population is materialized and `test` is
/// given. `on_round` observes every executed round.
pub fn run<M: LossModel>(
    model: &M,
    population: &Population<'_>,
    test: Option<&Dataset>,
    cfg: &FedConfig,
    timing: Option<&SimRunnerOptions>,
    w0: Vec<f64>,
    on_round: &mut dyn FnMut(&RoundStats),
) -> Result<History, FedError> {
    population.validate()?;
    let devices = population.materialized();
    let fsvrg = cfg.algorithm.needs_global_gradient();
    if fsvrg && (timing.is_some() || devices.is_none()) {
        return Err(FedError::EventDrivenGlobalGradient);
    }
    let n = population.len();
    let dim = w0.len();
    let sampler = match timing {
        Some(o) => Sampler::try_new(o.sampler)?,
        None => Sampler::participation(cfg.participation, n),
    };
    let parallel = timing.is_some() || matches!(cfg.runner, RunnerKind::Parallel);
    // Lazy populations write compact participation records (O(K)) and
    // resolve D_d / D per sampled device; materialized ones use the
    // dense id-indexed layout and one weight vector.
    let compact = devices.is_none();
    let dense_weights = devices.map(|devs| {
        server::weights_from_sizes(&devs.iter().map(Device::samples).collect::<Vec<_>>())
    });
    let total_samples = population.total_samples() as f64;
    let weight_of = |d: usize| match &dense_weights {
        Some(w) => w.get(d).copied().ok_or(FedError::UnknownDevice { index: d, devices: n }),
        None => Ok(population.size_of(d) as f64 / total_samples),
    };
    let resil = cfg.resilience.as_ref();
    // Resilient runs record every round; lazy runs do too (sampled
    // rounds are the story a million-device run tells).
    let record_participation = resil.is_some() || compact;
    let deadline = timing.and(resil).and_then(|r| r.deadline_s);

    let mut end = RoundEnd::start(model, cfg, devices, test, &w0);
    let mut global = w0;
    let mut agg = vec![0.0; dim];
    let mut clock = VirtualClock::default();
    let mut grad_evals = RunningTotal::new();
    let mut rounds_run = 0;
    let mut participation: Vec<RoundParticipation> = Vec::new();

    for s in 1..=cfg.rounds {
        fedprox_telemetry::span!("core", "round", "s" => s);
        let sampled = sampler.sample(n, s, cfg.seed, |d| population.size_of(d));

        // Fault filtering by stable id before any local work: crashed
        // devices stay out for good (crashes are monotone in the plan),
        // offline windows sit the round out. Active device j has stable
        // id `active[j]`, aggregation weight `weights[j]` and its outcome
        // at `slots[j]` in the record.
        let mut outcomes =
            vec![DeviceOutcome::NotSelected; if compact { sampled.len() } else { n }];
        let mut active: Vec<usize> = Vec::with_capacity(sampled.len());
        let mut slots: Vec<usize> = Vec::with_capacity(sampled.len());
        let mut weights: Vec<f64> = Vec::with_capacity(sampled.len());
        for (j, &d) in sampled.iter().enumerate() {
            let slot = if compact { j } else { d };
            let outcome = match resil {
                Some(r) if r.plan.is_crashed(d, s) => DeviceOutcome::Crashed,
                Some(r) if r.plan.is_offline(d, s) => DeviceOutcome::Offline,
                _ => {
                    active.push(d);
                    slots.push(slot);
                    weights.push(weight_of(d)?);
                    DeviceOutcome::Responded
                }
            };
            if let Some(o) = outcomes.get_mut(slot) {
                *o = outcome;
            }
        }
        let weight_sum: f64 = weights.iter().sum();
        let quorum_ok = resil.is_none_or(|r| r.quorum.met(weight_sum, active.len()));
        let mut rec = RoundParticipation {
            round: s,
            outcomes,
            responder_weight: weight_sum,
            skipped: !quorum_ok,
            sampled: compact.then(|| sampled.iter().map(|&d| d as u32).collect()),
        };
        if !quorum_ok {
            // Skipped and counted, never fatal: the global model stays.
            end.note_participation(&rec);
            #[cfg(feature = "telemetry")]
            fedprox_telemetry::collector::trigger_postmortem(
                "quorum_skip",
                s as u32,
                rec.attribute_skip(),
            );
            participation.push(rec);
            rounds_run = s;
            #[cfg(feature = "telemetry")]
            record_round_end(s, clock.now());
            end.skipped(s, &global, Counters::now(&grad_evals, &clock));
            on_round(&RoundStats { round: s, active: 0, sim_time: clock.now() });
            continue;
        }

        // FSVRG: the server aggregates and re-distributes the global
        // gradient before the local updates; every device spends a full
        // local gradient pass on it.
        let global_grad = match devices.filter(|_| fsvrg) {
            Some(devs) => {
                let mut g = vec![0.0; dim];
                eval::global_grad(model, devs, &global, &mut g);
                for d in devs {
                    grad_evals.add(d.samples() as u64);
                }
                Some(g)
            }
            None => None,
        };
        // Local solves, returned in `active` order. Lazy devices are
        // synthesized on the worker that solves them.
        let updates: Vec<LocalUpdate> = match population {
            Population::Materialized(devs) => runner::run_round_subset(
                model,
                devs,
                &active,
                &global,
                cfg,
                s - 1,
                parallel,
                global_grad.as_deref(),
            )?,
            Population::Lazy(lazy) => runner::fan_out::<_, _, Result<Vec<_>, _>, _>(&active, |&d| {
                fedprox_telemetry::span!("core", "device_update", "device" => d, "round" => s - 1);
                lazy.device(d).local_update_anchored(model, &global, cfg, s - 1, None)
            })?,
        };
        for u in &updates {
            grad_evals.add(u.grad_evals as u64);
        }

        // Optional θ measurement against the pre-aggregation global.
        let theta = match devices {
            Some(devs) if cfg.measure_theta => {
                let mut sum = 0.0;
                let mut wsum = 0.0;
                for ((&i, &w), u) in active.iter().zip(&weights).zip(&updates) {
                    let dev = devs.get(i).ok_or(FedError::UnknownDevice { index: i, devices: n })?;
                    sum += w * dev.theta_measured(model, &global, &u.w, cfg.mu);
                    wsum += w;
                }
                Some(sum / wsum)
            }
            _ => None,
        };

        // Timing: each active device's download, compute and upload legs.
        // Compute scales with the solve's gradient evaluations, the
        // fault plan's slow factor and the population's hardware spread.
        // A device finishing past the deadline drops out of the
        // aggregation (its compute is still charged) and holds the round
        // open until the deadline. Both directions move the model once.
        let mut responded = vec![true; active.len()];
        if let Some(opts) = timing {
            let legs: Vec<DeviceRoundTiming> = active
                .iter()
                .zip(&updates)
                .map(|(&d, u)| {
                    let mut compute = u.grad_evals as f64
                        * opts.sec_per_grad_eval
                        * population.compute_factor_of(d);
                    if let Some(r) = resil {
                        compute *= r.plan.slow_factor(d, s);
                    }
                    if opts.jitter > 0.0 {
                        let mut rng =
                            fedprox_faults::stream_rng(cfg.seed ^ JITTER_TAG, s as u64, d as u64);
                        let u01: f64 = rng.gen_range(0.0..1.0);
                        compute *= 1.0 + opts.jitter * (2.0 * u01 - 1.0);
                    }
                    DeviceRoundTiming { download: opts.downlink_s, compute, upload: opts.uplink_s }
                })
                .collect();
            let t0 = clock.now();
            let mut candidates: Vec<f64> = Vec::with_capacity(legs.len());
            for ((t, ok), &slot) in legs.iter().zip(responded.iter_mut()).zip(&slots) {
                // The virtual finish: the legs added onto t0 in order.
                let finish = t0 + t.download + t.compute + t.upload;
                match deadline {
                    Some(limit) if finish - t0 > limit => {
                        *ok = false;
                        if let Some(o) = rec.outcomes.get_mut(slot) {
                            *o = DeviceOutcome::DeadlineMiss;
                        }
                        candidates.push(limit);
                    }
                    _ => candidates.push(t.download + t.compute + t.upload),
                }
            }
            let leg_bytes = (active.len() * dim * 8) as u64;
            clock.record_traffic(leg_bytes, leg_bytes);
            clock.advance_partial_round(&candidates);
            #[cfg(feature = "telemetry")]
            {
                let responder_legs: Vec<(usize, DeviceRoundTiming)> = active
                    .iter()
                    .zip(&legs)
                    .zip(&responded)
                    .filter(|(_, ok)| **ok)
                    .map(|((&d, &t), _)| (d, t))
                    .collect();
                fedprox_net::observe::record_round_telemetry(
                    (s - 1) as u32,
                    &responder_legs,
                    leg_bytes,
                    leg_bytes,
                    clock.now(),
                );
            }
        } else {
            #[cfg(feature = "telemetry")]
            record_round_end(s, clock.now());
        }
        // (local model, weight) of every device that made the round.
        let responders: Vec<(&[f64], f64)> = updates
            .iter()
            .zip(&weights)
            .zip(&responded)
            .filter(|(_, ok)| **ok)
            .map(|((u, &w), _)| (u.w.as_slice(), w))
            .collect();
        rec.responder_weight = responders.iter().map(|&(_, w)| w).sum();

        if record_participation {
            end.note_participation(&rec);
            participation.push(rec);
        }
        #[cfg(feature = "telemetry")]
        end.note_round(s, &active, &updates);

        // Aggregation in sampled order. An all-missed round leaves the
        // global model unchanged.
        if !responders.is_empty() {
            match sampler.spec() {
                SamplerSpec::Bernoulli(p) if p < 1.0 => {
                    // 1/p reweighting with the residual weight on the
                    // previous global model (see `bernoulli_reweight`);
                    // the residual can be negative, so this bypasses
                    // `server::aggregate`'s weight assertions.
                    let w: Vec<f64> = responders.iter().map(|&(_, w)| w).collect();
                    let (scaled, residual) = bernoulli_reweight(&w, p);
                    agg.fill(0.0);
                    vecops::axpy(residual, &global, &mut agg);
                    for (&(local, _), &sw) in responders.iter().zip(&scaled) {
                        vecops::axpy(sw, local, &mut agg);
                    }
                }
                SamplerSpec::WeightedK(_) => {
                    // Inclusion probability carried the n_k bias; the
                    // aggregate is a plain 1/K average.
                    let w = 1.0 / responders.len() as f64;
                    let locals: Vec<(&[f64], f64)> =
                        responders.iter().map(|&(local, _)| (local, w)).collect();
                    server::aggregate(&locals, &mut agg);
                }
                // Raw D_d/D weights; `server::aggregate` renormalises by
                // the responding weight.
                _ => server::aggregate(&responders, &mut agg),
            }
            std::mem::swap(&mut global, &mut agg);
        }
        rounds_run = s;

        // A non-finite aggregate is blamed on the first active device
        // whose own local model was non-finite, when any was.
        let go = end.end_round(s, &global, theta, Counters::now(&grad_evals, &clock), || {
            active.iter().zip(&updates).find(|(_, u)| !vecops::all_finite(&u.w)).map(|(&d, _)| d)
        });
        on_round(&RoundStats { round: s, active: responders.len(), sim_time: clock.now() });
        if !go {
            break;
        }
    }

    Ok(end.finish(rounds_run, clock.now(), global, participation))
}

/// Close round `s` (1-based) in the telemetry stream, for the rounds no
/// timing observation closes: every in-process round and every
/// quorum-skipped one. `RoundEnd` flushes the streaming sink.
#[cfg(feature = "telemetry")]
fn record_round_end(s: usize, sim_time_s: f64) {
    use fedprox_telemetry::event::Event;
    fedprox_telemetry::collector::record_event(Event::RoundEnd { round: (s - 1) as u32, sim_time_s });
}

/// The round-end policy every backend shares: divergence detection, the
/// evaluation cadence, the loss guard, the health monitor and the
/// post-mortem triggers, plus the `History` they accumulate.
pub(crate) struct RoundEnd<'a, M: LossModel> {
    model: &'a M,
    cfg: &'a FedConfig,
    devices: Option<&'a [Device]>,
    test: Option<&'a Dataset>,
    pub(crate) records: Vec<RoundRecord>,
    divergence: DivergenceCause,
    /// The health monitor (read by `fedobs health`): armed runs over materialized
    /// devices only (σ̄² needs every device).
    #[cfg(feature = "telemetry")]
    pub(crate) monitor: Option<crate::health::HealthMonitor>,
}

impl<'a, M: LossModel> RoundEnd<'a, M> {
    /// Record round 0 (the initial model, so every curve starts from
    /// the same baseline and divergence shows as an increase) and arm
    /// the health monitor.
    pub(crate) fn start(
        model: &'a M,
        cfg: &'a FedConfig,
        devices: Option<&'a [Device]>,
        test: Option<&'a Dataset>,
        w0: &[f64],
    ) -> Self {
        let mut end = RoundEnd {
            model,
            cfg,
            devices,
            test,
            records: Vec::new(),
            divergence: DivergenceCause::None,
            #[cfg(feature = "telemetry")]
            monitor: None,
        };
        if let Some(rec) = end.evaluate(0, w0, None, Counters::default()) {
            end.records.push(rec);
        }
        #[cfg(feature = "telemetry")]
        {
            end.monitor = end.health_monitor(w0);
            if let (Some(m), Some(r)) = (end.monitor.as_mut(), end.records.first()) {
                m.observe_eval(0, r.train_loss, r.grad_norm_sq, None);
            }
        }
        end
    }

    /// Build the health monitor for an armed run over materialized
    /// devices; `None` (zero cost) otherwise. The σ̄² measurement is
    /// read-only on model and data and draws from no RNG stream, so
    /// arming cannot perturb the trajectory.
    #[cfg(feature = "telemetry")]
    fn health_monitor(&self, w0: &[f64]) -> Option<crate::health::HealthMonitor> {
        let devices = self.devices?;
        if !fedprox_telemetry::collector::is_armed() {
            return None;
        }
        // A named root for the measurement's kernel spans, which would
        // otherwise record as bare root-level `matvec`/`softmax` paths.
        fedprox_telemetry::span!("core", "health_monitor");
        let sigma = eval::empirical_sigma_bar_sq(self.model, devices, w0);
        Some(crate::health::HealthMonitor::new(crate::health::HealthConfig::from_run(
            self.cfg, sigma,
        )))
    }

    fn due(&self, s: usize) -> bool {
        s.is_multiple_of(self.cfg.eval_every) || s == self.cfg.rounds
    }

    /// One evaluated round, when there is something to evaluate on.
    fn evaluate(
        &self,
        round: usize,
        global: &[f64],
        theta: Option<f64>,
        c: Counters,
    ) -> Option<RoundRecord> {
        let (devices, test) = (self.devices?, self.test?);
        fedprox_telemetry::span!("core", "evaluate", "round" => round);
        Some(RoundRecord {
            round,
            train_loss: eval::global_loss(self.model, devices, global),
            test_accuracy: eval::test_accuracy(self.model, test, global),
            grad_norm_sq: eval::stationarity_gap(self.model, devices, global),
            theta_measured: theta,
            sim_time: c.sim_time,
            bytes: c.bytes,
            grad_evals: c.grad_evals,
        })
    }

    /// Observe a recorded round's participation (telemetry and the
    /// monitor's participation-gap rule).
    fn note_participation(&mut self, rec: &RoundParticipation) {
        #[cfg(feature = "telemetry")]
        {
            fedprox_net::observe::record_participation_telemetry(rec);
            if let Some(m) = self.monitor.as_mut() {
                m.note_participation(rec.round, rec.responder_fraction());
            }
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = rec;
    }

    /// Feed the monitor a round's direction statistics and per-device work.
    #[cfg(feature = "telemetry")]
    fn note_round(&mut self, s: usize, active: &[usize], updates: &[LocalUpdate]) {
        if let Some(m) = self.monitor.as_mut() {
            let mut dir = fedprox_optim::DirectionStats::default();
            let mut work: Vec<(usize, u64)> = Vec::with_capacity(updates.len());
            for (&i, u) in active.iter().zip(updates) {
                dir.merge(&u.dir_stats);
                work.push((i, u.grad_evals as u64));
            }
            m.note_round(s, &dir, &work);
        }
    }

    /// A quorum-skipped round: the model is unchanged, so it is
    /// evaluated on cadence without the loss guard.
    fn skipped(&mut self, s: usize, global: &[f64], c: Counters) {
        if !self.due(s) {
            return;
        }
        if let Some(rec) = self.evaluate(s, global, None, c) {
            #[cfg(feature = "telemetry")]
            if let Some(m) = self.monitor.as_mut() {
                m.observe_eval(s, rec.train_loss, rec.grad_norm_sq, None);
            }
            self.records.push(rec);
        }
    }

    /// The round-end step after aggregation: stop on a non-finite model
    /// (blamed on `blame()`'s device), evaluate on cadence, stop when the
    /// loss guard trips. Returns whether the run continues.
    pub(crate) fn end_round(
        &mut self,
        s: usize,
        global: &[f64],
        theta: Option<f64>,
        c: Counters,
        blame: impl FnOnce() -> Option<usize>,
    ) -> bool {
        if !vecops::all_finite(global) {
            let device = blame();
            self.divergence = DivergenceCause::NonFinite { round: s, device };
            #[cfg(feature = "telemetry")]
            {
                if let Some(m) = self.monitor.as_mut() {
                    m.observe_non_finite(s, device);
                }
                fedprox_telemetry::collector::trigger_postmortem(
                    "non_finite",
                    s as u32,
                    device.map(|d| d as u32),
                );
            }
            self.records.push(divergence_record(s, theta, c.grad_evals));
            return false;
        }
        if !self.due(s) {
            return true;
        }
        let Some(rec) = self.evaluate(s, global, theta, c) else {
            return true;
        };
        let bad = !rec.train_loss.is_finite() || rec.train_loss > self.cfg.loss_guard;
        #[cfg(feature = "telemetry")]
        if let Some(m) = self.monitor.as_mut() {
            if bad {
                m.observe_loss_guard(s, rec.train_loss, self.cfg.loss_guard);
            } else {
                m.observe_eval(s, rec.train_loss, rec.grad_norm_sq, rec.theta_measured);
            }
        }
        self.records.push(rec);
        if bad {
            self.divergence = DivergenceCause::LossGuard { round: s };
            #[cfg(feature = "telemetry")]
            fedprox_telemetry::collector::trigger_postmortem("loss_guard", s as u32, None);
        }
        !bad
    }

    /// Close the run: hand the monitor's samples and anomalies to the
    /// armed collector and assemble the `History`.
    pub(crate) fn finish(
        self,
        rounds_run: usize,
        total_sim_time: f64,
        final_model: Vec<f64>,
        participation: Vec<RoundParticipation>,
    ) -> History {
        #[cfg(feature = "telemetry")]
        if let Some(m) = self.monitor {
            for e in m.into_events() {
                fedprox_telemetry::collector::record_event(e);
            }
        }
        History {
            config: self.cfg.summary(),
            records: self.records,
            divergence: self.divergence,
            rounds_run,
            total_sim_time,
            final_model,
            participation,
        }
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
