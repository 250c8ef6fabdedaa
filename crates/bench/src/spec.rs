//! Declarative run specification for the `fedrun` CLI: one JSON document
//! per figure, table or scenario (the committed ones live under
//! `specs/`). A spec is either an [`ExperimentSpec`] — training runs over
//! (β, τ, μ) settings, seeds and algorithms, or Tables 1–2's random
//! search — or Fig. 1's [`ParamOptSpec`]. [`Spec::resolve`] applies the
//! CLI overrides, validates every value with a typed [`SpecError`] before
//! anything runs, and expands a random fault plan, so the resolved spec is
//! the run's whole configuration: its canonical JSON is what the run
//! ledger digests.

use crate::datasets::{fashion_federation, mnist_federation, synthetic_federation, Federation};
use crate::plot::Metric;
use fedprox_core::config::NetRunnerOptions;
use fedprox_core::search::SearchSpace;
use fedprox_core::theory::Lemma1;
use fedprox_core::{Algorithm, Device, FedConfig, RunnerKind, SamplerSpec, SimRunnerOptions};
use fedprox_data::partition::ZipfPopulation;
use fedprox_data::synthetic::{SyntheticConfig, SyntheticPool};
use fedprox_data::Dataset;
use fedprox_faults::{FaultPlan, FaultRates, QuorumPolicy, Resilience, RetryPolicy};
use fedprox_models::{Cnn, CnnSpec, LossModel, Mlp, MultinomialLogistic};
use fedprox_net::NetOptions;
use fedprox_optim::solver::IterateChoice;
use fedprox_sim::LazyPopulation;
use fedprox_tensor::kernel::Kernel;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Which dataset to build.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum DatasetSpec {
    /// Synthetic(α, β).
    Synthetic {
        /// Model-heterogeneity α.
        alpha: f64,
        /// Feature-heterogeneity β.
        beta: f64,
    },
    /// MNIST-like images (or real files from `data/mnist`).
    Mnist,
    /// Fashion-MNIST-like images.
    Fashion,
}

/// Which model to train.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ModelSpec {
    /// Multinomial logistic regression (dim inferred from the dataset).
    Logistic,
    /// One-hidden-layer MLP.
    Mlp {
        /// Hidden-layer width.
        hidden: usize,
    },
    /// The two-layer CNN; see [`CnnSpec::preset`] for the names.
    Cnn {
        /// Architecture preset name.
        preset: String,
    },
}

/// One (β, τ, μ) setting of a figure; unset values fall back to the
/// spec's own. Every algorithm runs once per setting and seed.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Setting {
    /// `{label}` in templates; `{tag}` is its file-safe form.
    #[serde(default)]
    pub label: String,
    /// Step-size parameter β.
    #[serde(default)]
    pub beta: Option<f64>,
    /// Local iterations τ.
    #[serde(default)]
    pub tau: Option<usize>,
    /// τ this far above Lemma 1's SARAH bound ⌊τ_max(β)⌋ (Fig. 2).
    #[serde(default)]
    pub tau_above_bound: Option<usize>,
    /// Proximal penalty μ.
    #[serde(default)]
    pub mu: Option<f64>,
}

/// A chart written beside the JSON series. A `file` naming `{tag}` or
/// `{label}` draws one chart per setting over its algorithms; otherwise
/// one chart draws every setting. Charts show the master seed's runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlotSpec {
    /// File stem template (`.svg` is appended).
    pub file: String,
    /// Title template.
    pub title: String,
    /// Plotted metric.
    pub metric: Metric,
}

/// Tables 1–2: a random search of `trials` configurations per algorithm.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchSpec {
    /// Trials per algorithm.
    pub trials: usize,
    /// Candidate values.
    pub space: SearchSpace,
}

/// Table 2's tiny-CNN input: 28×28 images downsampled to `side`×`side`
/// by strided picking, labels remapped modulo `classes`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ImageSpec {
    /// Output image side.
    pub side: usize,
    /// Output class count.
    pub classes: usize,
}

/// The execution backend.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum BackendSpec {
    /// One device after another on the calling thread.
    Sequential,
    /// Devices fan out across threads (the default).
    Parallel,
    /// The simulated-network actor runtime.
    Net {
        /// Per-attempt link drop probability.
        #[serde(default)]
        drop_prob: f64,
        /// Retry/backoff policy.
        #[serde(default)]
        retry: RetryPolicy,
        /// Compute-cost model: seconds per gradient evaluation.
        #[serde(default = "default_sec_per_grad_eval")]
        sec_per_grad_eval: f64,
    },
    /// The event-driven backend with per-round client sampling.
    EventDriven {
        /// See [`SamplerSpec::parse`].
        #[serde(default = "default_sampler")]
        sampler: String,
        /// Per-(round, device) compute jitter half-width in `[0, 1)`.
        #[serde(default)]
        jitter: f64,
        /// Compute-cost model: seconds per gradient evaluation.
        #[serde(default = "default_sec_per_grad_eval")]
        sec_per_grad_eval: f64,
    },
}

/// Where the devices come from.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum PopulationSpec {
    /// Build the dataset's federation up front (the default).
    Materialized,
    /// Lazy power-law Synthetic(α, β) shards, each synthesized only while
    /// its device is sampled (event-driven backend; no test set).
    Zipf {
        /// Power-law exponent of the shard sizes.
        zipf_alpha: f64,
        /// Compute-speed factors are log-uniform in `[1, compute_spread]`.
        compute_spread: f64,
    },
}

/// Fault injection; present means the run is resilient (non-responders
/// are excluded and per-round participation is recorded).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultsSpec {
    /// Faults by stable device id and 1-based round.
    #[serde(default)]
    pub plan: FaultPlan,
    /// Replace the (empty) plan by a seeded random plan.
    #[serde(default)]
    pub random: bool,
    /// When a partial round still aggregates.
    #[serde(default)]
    pub quorum: QuorumPolicy,
    /// Round deadline in simulated seconds.
    #[serde(default)]
    pub deadline: Option<f64>,
}

/// Self-checks: a run that breaks one (or diverges) makes `fedrun` exit 1.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExpectSpec {
    /// Crashed devices per run.
    #[serde(default)]
    pub crashed: Option<usize>,
    /// Skipped rounds per run.
    #[serde(default)]
    pub skipped: Option<usize>,
    /// Devices sampled in every round.
    #[serde(default)]
    pub sampled: Option<usize>,
    /// Allocation cap of every round after the first, in MiB (needs the
    /// event-driven backend and the counting allocator of a telemetry build).
    #[serde(default)]
    pub max_round_alloc_mib: Option<f64>,
}

/// A training or search experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Dataset to build.
    pub dataset: DatasetSpec,
    /// Model to train.
    pub model: ModelSpec,
    /// Algorithm names (see [`Algorithm::name`]).
    pub algorithms: Vec<String>,
    /// Number of devices.
    pub devices: usize,
    /// Smallest shard.
    pub min_size: usize,
    /// Largest shard.
    pub max_size: usize,
    /// Step-size parameter β.
    #[serde(default = "default_beta")]
    pub beta: f64,
    /// Smoothness estimate L.
    #[serde(default = "default_smoothness")]
    pub smoothness: f64,
    /// Local iterations τ.
    #[serde(default = "default_tau")]
    pub tau: usize,
    /// Proximal penalty μ.
    #[serde(default = "default_mu")]
    pub mu: f64,
    /// Mini-batch size B.
    #[serde(default = "default_batch")]
    pub batch: usize,
    /// Global rounds T.
    #[serde(default = "default_rounds")]
    pub rounds: usize,
    /// Master seed.
    #[serde(default)]
    pub seed: u64,
    /// Evaluation cadence.
    #[serde(default = "default_eval_every")]
    pub eval_every: usize,
    /// Device participation fraction (sequential/parallel backends).
    #[serde(default = "default_participation")]
    pub participation: f64,
    /// Local iterate a device returns: `Last` or Algorithm 1's `UniformRandom`.
    #[serde(default = "default_iterate")]
    pub iterate: IterateChoice,
    /// File stem template of each run's history JSON (`{alg}`, `{seed}`,
    /// `{label}`, `{tag}`); a search writes one file.
    #[serde(default = "default_out")]
    pub out: String,
    /// Series-name template (table columns, chart legends).
    #[serde(default = "default_series")]
    pub series: String,
    /// (β, τ, μ) settings; none = one setting of the spec's own values.
    #[serde(default)]
    pub settings: Vec<Setting>,
    /// Run every setting at this many consecutive seeds from the master
    /// seed; above 1, print Fig. 4's verdict per setting.
    #[serde(default = "one")]
    pub seeds: usize,
    /// Charts to write beside the JSON series.
    #[serde(default)]
    pub plots: Vec<PlotSpec>,
    /// Run a random search instead of the settings.
    #[serde(default)]
    pub search: Option<SearchSpec>,
    /// Downsample and remap image data.
    #[serde(default)]
    pub image: Option<ImageSpec>,
    /// Execution backend.
    #[serde(default = "default_backend")]
    pub backend: BackendSpec,
    /// Device population.
    #[serde(default = "default_population")]
    pub population: PopulationSpec,
    /// Fault injection and degradation policy.
    #[serde(default)]
    pub faults: Option<FaultsSpec>,
    /// Self-checks.
    #[serde(default)]
    pub expect: Option<ExpectSpec>,
}

/// Fig. 1: the optimum of problem (23) over the γ axis, per σ̄².
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamOptSpec {
    /// The σ̄² values, one panel each.
    pub sigma_bar_sq: Vec<f64>,
}

/// A spec file: `{"paramopt": {...}}` or an experiment.
// A process holds one spec, so the variant size gap never multiplies and
// boxing would only add a deref at every use.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Spec {
    /// Training runs or a random search.
    Experiment(ExperimentSpec),
    /// Fig. 1's parameter optimisation (trains nothing).
    ParamOpt(ParamOptSpec),
}

impl Serialize for Spec {
    fn write_json(&self, out: &mut String) {
        match self {
            Spec::Experiment(e) => e.write_json(out),
            Spec::ParamOpt(p) => {
                out.push('{');
                serde::json::write_key(out, true, "paramopt");
                p.write_json(out);
                out.push('}');
            }
        }
    }
}

impl Deserialize for Spec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.get("paramopt") {
            Some(p) => ParamOptSpec::from_value(p).map(Spec::ParamOpt),
            None => ExperimentSpec::from_value(v).map(Spec::Experiment),
        }
    }
}

fn default_beta() -> f64 { 5.0 }
fn default_smoothness() -> f64 { 5.0 }
fn default_tau() -> usize { 10 }
fn default_mu() -> f64 { 0.1 }
fn default_batch() -> usize { 8 }
fn default_rounds() -> usize { 50 }
fn default_eval_every() -> usize { 5 }
fn default_participation() -> f64 { 1.0 }
fn default_iterate() -> IterateChoice { IterateChoice::Last }
fn default_out() -> String { "fedrun_{alg}".into() }
fn default_series() -> String { "{alg}".into() }
fn one() -> usize { 1 }
fn default_sec_per_grad_eval() -> f64 { 1e-6 }
fn default_sampler() -> String { "full".into() }
fn default_backend() -> BackendSpec { BackendSpec::Parallel }
fn default_population() -> PopulationSpec { PopulationSpec::Materialized }

/// Why a spec cannot run.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// Not JSON, not a spec's shape, or a key no field reads (a typo
    /// would otherwise be ignored).
    Parse(String),
    /// An algorithm name [`Algorithm::from_name`] does not know.
    UnknownAlgorithm(String),
    /// A name [`CnnSpec::preset`] does not know.
    UnknownPreset(String),
    /// The CNN preset's (inputs, classes) differ from the dataset's.
    ShapeMismatch {
        /// Preset name.
        preset: String,
        /// (inputs, classes) the preset expects.
        expects: (usize, usize),
        /// (inputs, classes) the dataset has.
        dataset: (usize, usize),
    },
    /// `devices` or `rounds` is zero.
    Zero(&'static str),
    /// `min_size` is zero or above `max_size`.
    SizeRange(usize, usize),
    /// A key repeated within one JSON object (the parser would keep the
    /// first value and silently drop the rest); the dotted path names it.
    DuplicateKey(String),
    /// A CLI flag this spec kind never reads.
    UnusedOverride(&'static str, &'static str),
    /// Any other out-of-range value or inconsistent combination.
    Invalid(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(msg) | SpecError::Invalid(msg) => write!(f, "{msg}"),
            SpecError::UnknownAlgorithm(a) => write!(f, "unknown algorithm '{a}'"),
            SpecError::UnknownPreset(p) => write!(f, "unknown CNN preset '{p}'"),
            SpecError::ShapeMismatch { preset, expects: (i, c), dataset: (di, dc) } => write!(
                f,
                "CNN preset '{preset}' expects {i} inputs and {c} classes, the dataset has {di} and {dc}"
            ),
            SpecError::Zero(what) => write!(f, "`{what}` must be positive"),
            SpecError::SizeRange(lo, hi) => write!(f, "need 1 <= min_size <= max_size, got {lo}..{hi}"),
            SpecError::DuplicateKey(key) => write!(f, "duplicate field `{key}`"),
            SpecError::UnusedOverride(flag, kind) => write!(f, "{flag} does not apply to a {kind} spec"),
        }
    }
}

impl std::error::Error for SpecError {}

/// CLI overrides applied on top of a spec file.
#[derive(Debug, Clone, Default)]
pub struct Overrides {
    /// `--seed`: the master seed.
    pub seed: Option<u64>,
    /// `--rounds`: the global round count.
    pub rounds: Option<usize>,
    /// `--kernel`: the tensor kernel (applied by the caller).
    pub kernel: Option<Kernel>,
}

/// The file-safe form of a label (`{tag}` in templates).
pub(crate) fn tag(label: &str) -> String {
    label.replace(['(', ')', '=', ',', ' ', '.', '/'], "_")
}

/// First key of `raw` that deserializing into `known`'s type dropped.
fn unknown_key(raw: &Value, known: &Value, path: &str) -> Option<String> {
    let join = |key: &str| if path.is_empty() { key.to_string() } else { format!("{path}.{key}") };
    match (raw, known) {
        (Value::Object(r), Value::Object(k)) => r.iter().find_map(|(key, v)| {
            match serde::obj_get(k, key) {
                Some(kv) => unknown_key(v, kv, &join(key)),
                None => Some(join(key)),
            }
        }),
        (Value::Array(r), Value::Array(k)) => r
            .iter()
            .zip(k)
            .enumerate()
            .find_map(|(i, (a, b))| unknown_key(a, b, &format!("{path}[{i}]"))),
        _ => None,
    }
}

/// First key of `raw` that repeats within one object, at any depth.
fn duplicate_key(raw: &Value, path: &str) -> Option<String> {
    let join = |key: &str| if path.is_empty() { key.to_string() } else { format!("{path}.{key}") };
    match raw {
        Value::Object(fields) => fields.iter().enumerate().find_map(|(i, (key, v))| {
            if fields.iter().take(i).any(|(k, _)| k == key) {
                Some(join(key))
            } else {
                duplicate_key(v, &join(key))
            }
        }),
        Value::Array(items) => items
            .iter()
            .enumerate()
            .find_map(|(i, v)| duplicate_key(v, &format!("{path}[{i}]"))),
        _ => None,
    }
}

impl Spec {
    /// Parse a spec file's text; a repeated key or a key no field reads
    /// is refused.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let parse = |e: &dyn fmt::Display| SpecError::Parse(e.to_string());
        let raw: Value = serde_json::from_str(text).map_err(|e| parse(&e))?;
        if let Some(key) = duplicate_key(&raw, "") {
            return Err(SpecError::DuplicateKey(key));
        }
        let spec = Spec::from_value(&raw).map_err(|e| parse(&e))?;
        match unknown_key(&raw, &spec.to_value(), "") {
            Some(key) => Err(SpecError::Parse(format!("unknown field `{key}`"))),
            None => Ok(spec),
        }
    }

    /// The spec kind, as error messages name it.
    pub fn kind(&self) -> &'static str {
        match self {
            Spec::ParamOpt(_) => "paramopt",
            Spec::Experiment(e) if e.search.is_some() => "search",
            Spec::Experiment(_) => "training",
        }
    }

    /// Apply `o`, refusing an override this kind never reads, validate,
    /// and expand a random fault plan.
    pub fn resolve(self, o: &Overrides) -> Result<Self, SpecError> {
        let kind = self.kind();
        let unread = [
            ("--seed", o.seed.is_some() && kind == "paramopt"),
            ("--rounds", o.rounds.is_some() && kind != "training"),
            ("--kernel", o.kernel.is_some() && kind == "paramopt"),
        ];
        if let Some(&(flag, _)) = unread.iter().find(|(_, hit)| *hit) {
            return Err(SpecError::UnusedOverride(flag, kind));
        }
        let mut e = match self {
            Spec::ParamOpt(p) if p.sigma_bar_sq.is_empty() => {
                return Err(SpecError::Invalid("`paramopt.sigma_bar_sq` is empty".into()))
            }
            Spec::ParamOpt(p) => return Ok(Spec::ParamOpt(p)),
            Spec::Experiment(e) => e,
        };
        e.seed = o.seed.unwrap_or(e.seed);
        e.rounds = o.rounds.unwrap_or(e.rounds);
        e.validate()?;
        if let Some(f) = e.faults.as_mut().filter(|f| f.random) {
            f.plan = FaultPlan::random(e.seed, e.devices, e.rounds, &FaultRates::default());
            f.random = false;
        }
        Ok(Spec::Experiment(e))
    }

    /// Canonical JSON: the run ledger's config digest input.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }
}

impl ExperimentSpec {
    /// Check everything a run would otherwise assert on or ignore.
    pub(crate) fn validate(&self) -> Result<(), SpecError> {
        self.algorithms()?;
        if self.devices == 0 || self.rounds == 0 {
            return Err(SpecError::Zero(if self.devices == 0 { "devices" } else { "rounds" }));
        }
        if self.min_size == 0 || self.min_size > self.max_size {
            return Err(SpecError::SizeRange(self.min_size, self.max_size));
        }
        self.build_model()?;
        let (net, sampled) = match &self.backend {
            BackendSpec::Net { drop_prob, sec_per_grad_eval: s, .. } => ((*drop_prob, *s), None),
            BackendSpec::EventDriven { sampler, jitter, sec_per_grad_eval: s } => {
                self.sampler(sampler)?;
                ((0.0, *s), Some(*jitter))
            }
            _ => ((0.0, 0.0), None),
        };
        let synthetic = matches!(self.dataset, DatasetSpec::Synthetic { .. });
        let bad_variance = match self.dataset {
            DatasetSpec::Synthetic { alpha, beta } => {
                [alpha, beta].iter().any(|v| !(v.is_finite() && *v >= 0.0))
            }
            _ => false,
        };
        let (settings, search) = (&self.settings, &self.search);
        // A search writes one file; each training run writes its own.
        let apart = |n: usize, ph: &[&str]| {
            n > 1 && search.is_none() && !ph.iter().any(|p| self.out.contains(p))
        };
        let zipf = match self.population {
            PopulationSpec::Zipf { zipf_alpha: a, compute_spread: c } => Some(a <= 0.0 || c < 1.0),
            PopulationSpec::Materialized => None,
        };
        let space_empty = |s: &SearchSpace| {
            let (lo, hi) = s.rounds;
            [s.taus.len(), s.betas.len(), s.mus.len(), s.batches.len()].contains(&0) || lo == 0 || lo > hi
        };
        let unread_by_search = !settings.is_empty()
            || self.seeds != 1
            || !self.plots.is_empty()
            || self.faults.is_some()
            || self.expect.is_some()
            || zipf.is_some()
            || !matches!(self.backend, BackendSpec::Parallel);
        let any = |f: fn(&Setting) -> bool| settings.iter().any(f);
        let local = matches!(self.backend, BackendSpec::Sequential | BackendSpec::Parallel);
        let rules = [
            (self.beta <= 0.0 || any(|x| x.beta.is_some_and(|b| b <= 0.0)), "`beta` must be positive"),
            (self.mu < 0.0 || any(|x| x.mu.is_some_and(|m| m < 0.0)), "`mu` must be non-negative"),
            (any(|x| x.tau.is_some() && x.tau_above_bound.is_some()), "give `tau` or `tau_above_bound`"),
            (self.smoothness <= 0.0 || self.batch == 0 || self.eval_every == 0 || self.seeds == 0,
                "`smoothness`, `batch`, `eval_every` and `seeds` must be positive"),
            (!(self.participation > 0.0 && self.participation <= 1.0), "`participation` must be in (0, 1]"),
            (self.participation < 1.0 && !local, "`participation` below 1 needs a sequential/parallel backend"),
            (apart(self.algorithms.len(), &["{alg}"]), "`out` must name {alg}: several algorithms"),
            (apart(settings.len(), &["{tag}", "{label}"]),
                "`out` must name {tag} or {label}: several settings"),
            (apart(self.seeds, &["{seed}"]), "`out` must name {seed}: several seeds"),
            (bad_variance, "synthetic `alpha` and `beta` must be finite and >= 0"),
            (self.image.is_some() && synthetic, "`image` applies to image datasets only"),
            (self.image.as_ref().is_some_and(|i| !(1..=28).contains(&i.side) || i.classes == 0),
                "`image` needs side in 1..=28 and classes >= 1"),
            (!(0.0..1.0).contains(&net.0) || net.1 < 0.0,
                "the backend needs drop_prob in [0, 1) and sec_per_grad_eval >= 0"),
            (sampled.is_some_and(|j| !(0.0..1.0).contains(&j)), "`jitter` must be in [0, 1)"),
            (zipf.is_some() && (!synthetic || sampled.is_none()),
                "a zipf population needs a synthetic dataset and the event_driven backend"),
            (zipf == Some(true), "a zipf population needs zipf_alpha > 0 and compute_spread >= 1"),
            (self.expect.as_ref().is_some_and(|x| x.max_round_alloc_mib.is_some()) && sampled.is_none(),
                "`expect.max_round_alloc_mib` needs the event_driven backend"),
            (search.as_ref().is_some_and(|s| s.trials == 0 || space_empty(&s.space)),
                "`search` needs trials >= 1, candidates for each value and 1 <= rounds lo <= hi"),
            (search.is_some() && unread_by_search,
                "a search spec reads no settings, seeds, plots, backend, population, faults or expect"),
        ];
        if let Some((_, msg)) = rules.iter().find(|(broken, _)| *broken) {
            return Err(SpecError::Invalid(msg.to_string()));
        }
        let Some(f) = &self.faults else { return Ok(()) };
        let msg = if f.random && !f.plan.is_empty() {
            "`faults.random` replaces the plan; give one or the other"
        } else if !(0.0..=1.0).contains(&f.quorum.min_weight) || f.deadline.is_some_and(|d| d <= 0.0) {
            "`quorum.min_weight` must be in [0, 1] and `deadline` positive"
        } else {
            return f.plan.validate().map_err(SpecError::Invalid);
        };
        Err(SpecError::Invalid(msg.into()))
    }

    /// The algorithms, parsed, with their spec names.
    pub(crate) fn algorithms(&self) -> Result<Vec<(&str, Algorithm)>, SpecError> {
        if self.algorithms.is_empty() {
            return Err(SpecError::Invalid("`algorithms` is empty".into()));
        }
        let parse = |n: &str| Algorithm::from_name(n).ok_or_else(|| SpecError::UnknownAlgorithm(n.into()));
        self.algorithms.iter().map(|n| Ok((n.as_str(), parse(n)?))).collect()
    }

    /// The event-driven sampler over this spec's population.
    fn sampler(&self, s: &str) -> Result<SamplerSpec, SpecError> {
        let bad = || SpecError::Invalid(format!("sampler '{s}' (full|k:K|frac:P|weighted:K|bern:P)"));
        SamplerSpec::parse(s, self.devices).ok_or_else(bad)
    }

    /// The settings to run: the listed ones, or one of the spec's own values.
    pub(crate) fn settings(&self) -> Vec<Setting> {
        match self.settings.is_empty() {
            true => vec![Setting::default()],
            false => self.settings.clone(),
        }
    }

    /// Build the model for the dataset's (inputs, classes).
    pub fn build_model(&self) -> Result<Box<dyn LossModel>, SpecError> {
        let (dim, classes) = match (&self.dataset, &self.image) {
            (DatasetSpec::Synthetic { .. }, _) => {
                let c = SyntheticConfig::default();
                (c.dim, c.num_classes)
            }
            (_, Some(img)) => (img.side * img.side, img.classes),
            _ => (784, 10),
        };
        Ok(match &self.model {
            ModelSpec::Logistic => Box::new(MultinomialLogistic::new(dim, classes)),
            ModelSpec::Mlp { hidden } => Box::new(Mlp::new(dim, *hidden, classes)),
            ModelSpec::Cnn { preset } => {
                let unknown = || SpecError::UnknownPreset(preset.clone());
                let spec = CnnSpec::preset(preset).ok_or_else(unknown)?;
                let expects = (spec.in_ch * spec.side * spec.side, spec.classes);
                if expects != (dim, classes) {
                    let preset = preset.clone();
                    return Err(SpecError::ShapeMismatch { preset, expects, dataset: (dim, classes) });
                }
                Box::new(Cnn::new(spec))
            }
        })
    }

    /// Build the materialized federation, `image` applied.
    pub fn build_federation(&self) -> Federation {
        // A named root for the kernel calls of data synthesis (synthetic
        // labels are argmax softmax(W x + b), one matvec per sample).
        fedprox_telemetry::span!("data", "build_federation");
        let (n, lo, hi, seed) = (self.devices, self.min_size, self.max_size, self.seed);
        let fed = match &self.dataset {
            DatasetSpec::Synthetic { alpha, beta } => synthetic_federation(*alpha, *beta, n, lo, hi, seed),
            DatasetSpec::Mnist => mnist_federation(n, lo, hi, seed),
            DatasetSpec::Fashion => fashion_federation(n, lo, hi, seed),
        };
        let Some(img) = &self.image else { return fed };
        let devices = fed.devices.iter().map(|d| Device::new(d.id, downsample(&d.data, img))).collect();
        Federation { devices, test: downsample(&fed.test, img), name: fed.name }
    }

    /// The lazy population of a `zipf` spec.
    pub(crate) fn lazy_population(&self) -> Option<LazyPopulation> {
        let (PopulationSpec::Zipf { zipf_alpha, compute_spread }, DatasetSpec::Synthetic { alpha, beta }) =
            (&self.population, &self.dataset)
        else {
            return None;
        };
        let (n, lo, hi, seed) = (self.devices, self.min_size, self.max_size, self.seed);
        let zipf = ZipfPopulation::new(n, lo, hi, *zipf_alpha, *compute_spread, seed);
        let syn = SyntheticConfig { alpha: *alpha, beta: *beta, seed, ..Default::default() };
        Some(LazyPopulation::new(zipf, SyntheticPool::new(syn)))
    }

    /// The configuration of one run.
    pub(crate) fn config(&self, algorithm: Algorithm, s: &Setting, seed: u64) -> FedConfig {
        let beta = s.beta.unwrap_or(self.beta);
        let above = s.tau_above_bound.map(|k| Lemma1::tau_upper_sarah(beta) as usize + k);
        let runner = match &self.backend {
            BackendSpec::Sequential => RunnerKind::Sequential,
            BackendSpec::Parallel => RunnerKind::Parallel,
            BackendSpec::Net { drop_prob, retry, sec_per_grad_eval } => {
                let (drop_prob, retry) = (*drop_prob, retry.clone());
                RunnerKind::Network(NetRunnerOptions {
                    net: NetOptions { drop_prob, retry, seed, ..NetOptions::default() },
                    sec_per_grad_eval: *sec_per_grad_eval,
                })
            }
            BackendSpec::EventDriven { sampler, jitter, sec_per_grad_eval } => RunnerKind::EventDriven(
                SimRunnerOptions::default()
                    .with_sampler(self.sampler(sampler).unwrap_or(SamplerSpec::Full))
                    .with_sec_per_grad_eval(*sec_per_grad_eval)
                    .with_jitter(*jitter),
            ),
        };
        let cfg = FedConfig::new(algorithm)
            .with_beta(beta)
            .with_smoothness(self.smoothness)
            .with_tau(s.tau.or(above).unwrap_or(self.tau))
            .with_mu(s.mu.unwrap_or(self.mu))
            .with_batch_size(self.batch)
            .with_rounds(self.rounds)
            .with_seed(seed)
            .with_eval_every(self.eval_every)
            .with_participation(self.participation)
            .with_iterate_choice(self.iterate)
            .with_runner(runner);
        let Some(f) = &self.faults else { return cfg };
        let mut resilience = Resilience::with_plan(f.plan.clone()).with_quorum(f.quorum.clone());
        resilience.deadline_s = f.deadline;
        cfg.with_resilience(resilience)
    }
}

/// Downsample 28×28 images by strided picking and remap labels.
fn downsample(d: &Dataset, img: &ImageSpec) -> Dataset {
    let (side, stride) = (img.side, 28 / img.side);
    let feats: Vec<f64> = (0..d.len())
        .flat_map(|i| {
            let x = d.x(i);
            (0..side * side).map(move |j| x[(j / side * stride) * 28 + (j % side) * stride])
        })
        .collect();
    let labels = (0..d.len()).map(|i| (d.class_of(i) % img.classes) as f64).collect();
    Dataset::new(fedprox_tensor::Matrix::from_vec(d.len(), side * side, feats), labels, img.classes)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A three-device synthetic spec with two algorithms (shared with `run`).
    pub(crate) const SPEC: &str = r#"{
        "dataset": {"kind": "synthetic", "alpha": 1.0, "beta": 1.0},
        "model": {"kind": "logistic"},
        "algorithms": ["fedavg", "fedproxvr-svrg"],
        "devices": 3, "min_size": 30, "max_size": 60, "rounds": 4, "eval_every": 2, "seed": 5
    }"#;

    pub(crate) fn experiment(text: &str) -> ExperimentSpec {
        match Spec::from_json(text).unwrap() {
            Spec::Experiment(e) => e,
            Spec::ParamOpt(_) => panic!("not an experiment"),
        }
    }

    fn resolve(e: ExperimentSpec) -> Result<Spec, SpecError> {
        Spec::Experiment(e).resolve(&Overrides::default())
    }

    #[test]
    fn parses_with_defaults() {
        let spec = experiment(SPEC);
        assert_eq!((spec.devices, spec.beta, spec.tau, spec.participation), (3, 5.0, 10, 1.0));
        assert!(matches!(spec.backend, BackendSpec::Parallel));
    }

    #[test]
    fn rejects_unknown_algorithm() {
        let spec = ExperimentSpec { algorithms: vec!["bogus".into()], ..experiment(SPEC) };
        assert_eq!(resolve(spec).unwrap_err(), SpecError::UnknownAlgorithm("bogus".into()));
    }

    #[test]
    fn typed_errors_before_any_run() {
        let base = experiment(SPEC);
        let cnn = |preset: &str| ModelSpec::Cnn { preset: preset.into() };
        let cases = [
            (ExperimentSpec { model: cnn("huge"), ..base.clone() }, "unknown CNN preset 'huge'"),
            (ExperimentSpec { model: cnn("tiny"), ..base.clone() }, "expects 64 inputs and 3 classes"),
            (ExperimentSpec { devices: 0, ..base.clone() }, "`devices` must be positive"),
            (ExperimentSpec { rounds: 0, ..base.clone() }, "`rounds` must be positive"),
            (ExperimentSpec { min_size: 70, ..base.clone() }, "min_size <= max_size, got 70..60"),
            (
                ExperimentSpec {
                    dataset: DatasetSpec::Synthetic { alpha: f64::INFINITY, beta: 1.0 },
                    ..base.clone()
                },
                "synthetic `alpha` and `beta` must be finite and >= 0",
            ),
        ];
        for (spec, want) in cases {
            let err = resolve(spec).unwrap_err().to_string();
            assert!(err.contains(want), "{err} lacks {want}");
        }
        let err = Spec::from_json(&SPEC.replace("\"rounds\"", "\"round\"")).unwrap_err();
        assert_eq!(err, SpecError::Parse("unknown field `round`".into()));
    }

    #[test]
    fn duplicate_keys_are_refused_at_any_depth() {
        let top = SPEC.replace("\"seed\": 5", r#""seed": 5, "seed": 6"#);
        assert_eq!(Spec::from_json(&top).unwrap_err(), SpecError::DuplicateKey("seed".into()));
        let nested = SPEC.replace(
            "\"seed\": 5",
            r#""seed": 5, "settings": [{"label": "a"}, {"label": "b", "tau": 3, "tau": 4}]"#,
        );
        assert_eq!(Spec::from_json(&nested).unwrap_err(), SpecError::DuplicateKey("settings[1].tau".into()));
        let object = SPEC.replace(
            "\"seed\": 5",
            r#""seed": 5, "backend": {"kind": "net", "drop_prob": 0.1, "drop_prob": 0.2}"#,
        );
        assert_eq!(Spec::from_json(&object).unwrap_err(), SpecError::DuplicateKey("backend.drop_prob".into()));
    }

    #[test]
    fn tau_above_bound_and_random_plans_resolve() {
        let text = SPEC.replace(
            "\"seed\": 5",
            r#""seed": 5, "out": "x_{tag}_{alg}", "faults": {"random": true}, "settings":
               [{"label": "a", "beta": 7.0, "tau_above_bound": 15}, {"label": "b", "tau": 3}]"#,
        );
        let Spec::Experiment(e) = Spec::from_json(&text).unwrap().resolve(&Overrides::default()).unwrap()
        else {
            panic!("experiment")
        };
        let alg = Algorithm::FedAvg;
        assert_eq!(e.config(alg, &e.settings[0], 5).tau, Lemma1::tau_upper_sarah(7.0) as usize + 15);
        assert_eq!(e.config(alg, &e.settings[1], 5).tau, 3);
        let f = e.faults.as_ref().unwrap();
        assert!(!f.random);
        assert_eq!(f.plan, FaultPlan::random(5, 3, 4, &FaultRates::default()));
        // The resolved spec re-parses to the same canonical form.
        let spec = Spec::Experiment(e);
        let json = spec.canonical_json();
        assert_eq!(Spec::from_json(&json).unwrap().canonical_json(), json);
    }
}
