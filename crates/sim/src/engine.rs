//! [`SimEngine`] — Algorithm 1 on the event-driven backend.
//!
//! The engine runs the shared round driver ([`fedprox_core::driver`])
//! with the event-driven timing model: each round's sampler draws the
//! active set, a sampled device is (lazily) materialized, runs its τ-step
//! proximal solve, surrenders its delta and is dropped, and its
//! download, compute and upload legs charge the virtual clock and face
//! the resilience deadline. No event queue is involved: the legs are
//! independent (no contention is modeled), so each device's finish is
//! `((t0 + download) + compute) + upload`, and the round lasts until the
//! slowest finish (or the deadline).
//!
//! **Trajectory inheritance.** The driver is the one every backend runs,
//! so on a materialized population the engine's `History` agrees bitwise
//! with `RunnerKind::Sequential` under the [`SamplerSpec::Full`] sampler
//! and with sequential partial participation under
//! [`SamplerSpec::UniformK`]`(⌈pN⌉)` (metric fields; the sim-time and
//! byte columns report the virtual clock, which the sequential backend
//! leaves at zero). `tests/sim_runtime.rs` locks this.
//!
//! [`SamplerSpec::Full`]: fedprox_core::SamplerSpec::Full
//! [`SamplerSpec::UniformK`]: fedprox_core::SamplerSpec::UniformK

use fedprox_core::driver::{self, RoundStats};
use fedprox_core::metrics::History;
use fedprox_core::{FedConfig, FedError, Population, RunnerKind, SimRunnerOptions};
use fedprox_data::Dataset;
use fedprox_models::LossModel;

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
    /// A run rejects an empty or mis-indexed population and FSVRG (its
    /// server-distributed global gradient needs a full-population pass
    /// every round, which contradicts sampling) with a typed
    /// [`FedError`].
    pub fn new(
        model: &'a M,
        population: Population<'a>,
        test: Option<&'a Dataset>,
        cfg: FedConfig,
    ) -> Self {
        let opts = match &cfg.runner {
            RunnerKind::EventDriven(o) => *o,
            _ => SimRunnerOptions::default(),
        };
        SimEngine { model, population, test, cfg, opts }
    }

    /// Run from the model's seeded initialisation.
    pub fn run(&self) -> Result<History, FedError> {
        self.run_from(self.model.init_params(self.cfg.seed))
    }

    /// Run from an explicit initial global model.
    pub fn run_from(&self, w0: Vec<f64>) -> Result<History, FedError> {
        self.drive(w0, &mut |_| {})
    }

    /// Run from the seeded initialisation with a per-round observer.
    pub fn run_with(&self, mut on_round: impl FnMut(&RoundStats)) -> Result<History, FedError> {
        self.drive(self.model.init_params(self.cfg.seed), &mut on_round)
    }

    fn drive(
        &self,
        w0: Vec<f64>,
        on_round: &mut dyn FnMut(&RoundStats),
    ) -> Result<History, FedError> {
        let (model, test, cfg) = (self.model, self.test, &self.cfg);
        driver::run(model, &self.population, test, cfg, Some(&self.opts), w0, on_round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_core::{Algorithm, LazyPopulation, SamplerSpec};
    use fedprox_data::partition::ZipfPopulation;
    use fedprox_data::synthetic::{SyntheticConfig, SyntheticPool};
    use fedprox_models::MultinomialLogistic;
    use fedprox_optim::estimator::EstimatorKind;

    fn lazy_population(devices: usize, seed: u64) -> LazyPopulation {
        let zipf = ZipfPopulation::new(devices, 30, 90, 1.5, 4.0, seed);
        let pool = SyntheticPool::new(SyntheticConfig { seed, ..Default::default() });
        LazyPopulation::new(zipf, pool)
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
    fn fsvrg_is_rejected() {
        let model = MultinomialLogistic::new(60, 10);
        let pop = Population::Lazy(lazy_population(10, 1));
        let cfg = FedConfig::new(Algorithm::Fsvrg).with_seed(1);
        let err = SimEngine::new(&model, pop, None, cfg).run().expect_err("FSVRG must be refused");
        assert_eq!(err, FedError::EventDrivenGlobalGradient);
        assert!(err.to_string().contains("FSVRG"));
    }

    #[test]
    fn invalid_bernoulli_sampler_is_a_typed_error_before_round_one() {
        let model = MultinomialLogistic::new(60, 10);
        for p in [0.0, 1.5, f64::NAN] {
            let pop = Population::Lazy(lazy_population(10, 1));
            let mut rounds = 0;
            let err = SimEngine::new(&model, pop, None, cfg(SamplerSpec::Bernoulli(p), 1))
                .run_with(|_| rounds += 1)
                .expect_err("an invalid activation probability must be refused");
            assert!(matches!(err, FedError::InvalidBernoulli { .. }), "p = {p}: {err:?}");
            assert_eq!(rounds, 0, "p = {p}: refused after a round ran");
        }
    }

    #[test]
    fn empty_population_is_rejected() {
        let model = MultinomialLogistic::new(60, 10);
        let cfg = FedConfig::new(Algorithm::FedAvg).with_seed(1);
        let err = SimEngine::new(&model, Population::Materialized(&[]), None, cfg)
            .run()
            .expect_err("an empty population cannot run");
        assert_eq!(err, FedError::EmptyFederation);
    }
}
