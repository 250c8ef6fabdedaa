//! `fedsim` — drive the event-driven simulation backend
//! (`fedprox-sim`) over a lazily synthesized power-law population,
//! sampling K clients per round.
//!
//! ```sh
//! cargo run --release -p fedprox-bench --features telemetry --bin fedsim -- \
//!     --devices 1000000 --rounds 5 --sample k:64 --seed 7 --obs run.jsonl
//! ```
//!
//! The population never materializes: a sampled device's shard is
//! synthesized for its round and dropped afterwards, so resident memory
//! is bounded by the active set. With the `telemetry` feature the
//! counting allocator reports per-round allocation traffic, and
//! `--max-round-alloc-mib` turns it into a gate (rounds after the first;
//! round 1 pays one-off warmup such as the aggregation buffers), which
//! is how CI's `fedsim-smoke` stage proves the memory bound.
//!
//! Sampler specs: `full`, `k:K` (uniform-K), `frac:P` (uniform-⌈PN⌉),
//! `weighted:K` (inclusion ∝ device sample count), `bern:P`
//! (independent activation with 1/p-reweighted aggregation). Fault
//! flags address devices by **stable id** and use 1-based rounds,
//! exactly as in `fedresil`.

// CLI binary: aborting with context on a broken invocation or run is
// the intended error policy (fedlint exempts src/bin targets too).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use fedprox_bench::report::write_json;
use fedprox_bench::spec::parse_algorithm;
use fedprox_bench::{RunInfo, TraceSession};
use fedprox_core::{FedConfig, RunnerKind, SamplerSpec, SimRunnerOptions};
use fedprox_data::partition::ZipfPopulation;
use fedprox_data::synthetic::{SyntheticConfig, SyntheticPool};
use fedprox_faults::{summarize, FaultPlan, QuorumPolicy, Resilience};
use fedprox_models::MultinomialLogistic;
use fedprox_sim::{LazyPopulation, Population, SimEngine};

// Exiting with a diagnostic is the intended CLI behaviour here, not a
// disguised panic path.
#[allow(clippy::exit)]
fn fail(msg: &str) -> ! {
    eprintln!("fedsim: {msg}");
    std::process::exit(2);
}

#[allow(clippy::exit)]
fn usage() -> ! {
    eprintln!(
        "usage: fedsim [--devices N] [--rounds T] [--seed S] [--algorithm NAME]\n\
         \x20             [--sample full|k:K|frac:P|weighted:K|bern:P]\n\
         \x20             [--min-size N] [--max-size N] [--zipf-alpha A]\n\
         \x20             [--compute-spread F] [--alpha A] [--beta B] [--tau T]\n\
         \x20             [--sec-per-grad-eval S] [--jitter J]\n\
         \x20             [--crash DEV:ROUND]... [--offline DEV:FROM:TO]...\n\
         \x20             [--slow DEV:MULT:FROM:TO]... [--deadline SECONDS]\n\
         \x20             [--quorum-weight F] [--quorum-count N]\n\
         \x20             [--out DIR] [--trace PATH] [--health PATH] [--prof PATH]\n\
         \x20             [--obs PATH] [--expect-sampled N] [--expect-skipped N]\n\
         \x20             [--expect-crashed N] [--max-round-alloc-mib MIB]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> T {
    match s.parse::<T>() {
        Ok(v) => v,
        Err(_) => fail(&format!("cannot parse {what} from '{s}'")),
    }
}

fn parts<'a>(spec: &'a str, n: usize, what: &str) -> Vec<&'a str> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != n {
        fail(&format!("{what} wants {n} ':'-separated fields, got '{spec}'"));
    }
    parts
}

fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    match args.next() {
        Some(v) => v,
        None => fail(&format!("{flag} needs a value")),
    }
}

fn parse_sampler(spec: &str, devices: usize) -> SamplerSpec {
    if spec == "full" {
        return SamplerSpec::Full;
    }
    let p = parts(spec, 2, "--sample");
    match p[0] {
        "k" => SamplerSpec::UniformK(parse(p[1], "sample size")),
        "frac" => {
            let f: f64 = parse(p[1], "sample fraction");
            if !(0.0..=1.0).contains(&f) || f <= 0.0 {
                fail("--sample frac:P wants P in (0, 1]");
            }
            SamplerSpec::UniformK(((f * devices as f64).ceil() as usize).clamp(1, devices))
        }
        "weighted" => SamplerSpec::WeightedK(parse(p[1], "sample size")),
        "bern" => SamplerSpec::Bernoulli(parse(p[1], "activation probability")),
        other => fail(&format!("unknown sampler '{other}' (full|k|frac|weighted|bern)")),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut devices = 100_000usize;
    let mut rounds = 5usize;
    let mut seed = 0u64;
    let mut algorithm = String::from("fedproxvr-svrg");
    let mut sample = String::from("k:64");
    let mut min_size = 40usize;
    let mut max_size = 120usize;
    let mut zipf_alpha = 1.5f64;
    let mut compute_spread = 4.0f64;
    let mut alpha = 1.0f64;
    let mut beta = 1.0f64;
    let mut tau = 5usize;
    let mut sec_per_grad_eval = 1e-6f64;
    let mut jitter = 0.0f64;
    let mut plan = FaultPlan::new();
    let mut deadline = None;
    let mut quorum = QuorumPolicy::default();
    let mut resilient = false;
    let mut out = None;
    let mut trace_path = None;
    let mut health_path = None;
    let mut prof_path = None;
    let mut obs_path = None;
    let mut expect_sampled = None;
    let mut expect_skipped = None;
    let mut expect_crashed = None;
    let mut max_round_alloc_mib: Option<f64> = None;

    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--devices" => devices = parse(&next_value(&mut args, "--devices"), "device count"),
            "--rounds" => rounds = parse(&next_value(&mut args, "--rounds"), "round count"),
            "--seed" => seed = parse(&next_value(&mut args, "--seed"), "seed"),
            "--algorithm" => algorithm = next_value(&mut args, "--algorithm"),
            "--sample" => sample = next_value(&mut args, "--sample"),
            "--min-size" => min_size = parse(&next_value(&mut args, "--min-size"), "size"),
            "--max-size" => max_size = parse(&next_value(&mut args, "--max-size"), "size"),
            "--zipf-alpha" => {
                zipf_alpha = parse(&next_value(&mut args, "--zipf-alpha"), "exponent")
            }
            "--compute-spread" => {
                compute_spread = parse(&next_value(&mut args, "--compute-spread"), "spread")
            }
            "--alpha" => alpha = parse(&next_value(&mut args, "--alpha"), "alpha"),
            "--beta" => beta = parse(&next_value(&mut args, "--beta"), "beta"),
            "--tau" => tau = parse(&next_value(&mut args, "--tau"), "local steps"),
            "--sec-per-grad-eval" => {
                sec_per_grad_eval =
                    parse(&next_value(&mut args, "--sec-per-grad-eval"), "seconds")
            }
            "--jitter" => jitter = parse(&next_value(&mut args, "--jitter"), "jitter"),
            "--crash" => {
                let v = next_value(&mut args, "--crash");
                let p = parts(&v, 2, "--crash");
                plan = plan.crash(parse(p[0], "device"), parse(p[1], "round"));
                resilient = true;
            }
            "--offline" => {
                let v = next_value(&mut args, "--offline");
                let p = parts(&v, 3, "--offline");
                plan = plan.offline(
                    parse(p[0], "device"),
                    parse(p[1], "from-round"),
                    parse(p[2], "to-round"),
                );
                resilient = true;
            }
            "--slow" => {
                let v = next_value(&mut args, "--slow");
                let p = parts(&v, 4, "--slow");
                plan = plan.slow(
                    parse(p[0], "device"),
                    parse(p[1], "multiplier"),
                    parse(p[2], "from-round"),
                    parse(p[3], "to-round"),
                );
                resilient = true;
            }
            "--deadline" => {
                deadline = Some(parse(&next_value(&mut args, "--deadline"), "deadline"));
                resilient = true;
            }
            "--quorum-weight" => {
                quorum.min_weight =
                    parse(&next_value(&mut args, "--quorum-weight"), "weight fraction");
                resilient = true;
            }
            "--quorum-count" => {
                quorum.min_responders =
                    parse(&next_value(&mut args, "--quorum-count"), "responder count");
                resilient = true;
            }
            "--out" => out = Some(next_value(&mut args, "--out")),
            "--trace" => trace_path = Some(next_value(&mut args, "--trace")),
            "--health" => health_path = Some(next_value(&mut args, "--health")),
            "--prof" => prof_path = Some(next_value(&mut args, "--prof")),
            "--obs" => obs_path = Some(next_value(&mut args, "--obs")),
            "--expect-sampled" => {
                expect_sampled =
                    Some(parse::<usize>(&next_value(&mut args, "--expect-sampled"), "count"))
            }
            "--expect-skipped" => {
                expect_skipped =
                    Some(parse::<usize>(&next_value(&mut args, "--expect-skipped"), "count"))
            }
            "--expect-crashed" => {
                expect_crashed =
                    Some(parse::<usize>(&next_value(&mut args, "--expect-crashed"), "count"))
            }
            "--max-round-alloc-mib" => {
                max_round_alloc_mib =
                    Some(parse(&next_value(&mut args, "--max-round-alloc-mib"), "MiB"))
            }
            "--help" | "-h" => usage(),
            other => fail(&format!("unknown flag '{other}' (try --help)")),
        }
    }
    if devices == 0 || rounds == 0 {
        fail("--devices and --rounds must be positive");
    }
    let sampler = parse_sampler(&sample, devices);

    let info = RunInfo::new(
        format!(
            "fedsim devices={devices} rounds={rounds} seed={seed} \
             algorithm={algorithm} sample={sample} \
             zipf_alpha={zipf_alpha} sizes={min_size}..{max_size}"
        ),
        seed,
    )
    .with_faults(format!("{:?}", plan.faults));
    let trace = TraceSession::start_run(
        trace_path.as_deref(),
        health_path.as_deref(),
        prof_path.as_deref(),
        obs_path.as_deref(),
        &info,
    );

    let Some(alg) = parse_algorithm(&algorithm) else {
        fail(&format!("unknown algorithm '{algorithm}'"));
    };
    let zipf = ZipfPopulation::new(devices, min_size, max_size, zipf_alpha, compute_spread, seed);
    let total_samples = zipf.total_samples();
    let syn = SyntheticConfig { alpha, beta, seed, ..Default::default() };
    let model = MultinomialLogistic::new(syn.dim, syn.num_classes);
    let pool = SyntheticPool::new(syn);
    let population = Population::Lazy(LazyPopulation::new(zipf, pool));

    let mut cfg = FedConfig::new(alg)
        .with_rounds(rounds)
        .with_tau(tau)
        .with_seed(seed)
        .with_runner(RunnerKind::EventDriven(
            SimRunnerOptions::default()
                .with_sampler(sampler)
                .with_sec_per_grad_eval(sec_per_grad_eval)
                .with_jitter(jitter),
        ));
    if resilient {
        let mut resilience = Resilience::with_plan(plan).with_quorum(quorum);
        if let Some(d) = deadline {
            resilience = resilience.with_deadline(d);
        }
        cfg = cfg.with_resilience(resilience);
    }

    println!(
        "== fedsim: {devices} devices ({total_samples} samples), {rounds} rounds, \
         sampler {sample}, seed {seed} =="
    );

    // Per-round allocation traffic from the perfbench counting allocator
    // (telemetry builds only). Cumulative alloc traffic, not residency —
    // the honest bound for "memory scales with the active set".
    #[cfg(feature = "telemetry")]
    let mut round_alloc_mib: Vec<f64> = Vec::with_capacity(rounds);
    #[cfg(feature = "telemetry")]
    let mut last_alloc = fedprox_perfbench::alloc::stats();

    let engine = SimEngine::new(&model, population, None, cfg);
    let h = engine
        .run_with(|stats| {
            #[cfg(feature = "telemetry")]
            {
                let now = fedprox_perfbench::alloc::stats();
                let mib = now.since(&last_alloc).bytes as f64 / (1024.0 * 1024.0);
                last_alloc = now;
                round_alloc_mib.push(mib);
                println!(
                    "round {:>4}: active {:>6}, sim time {:>10.3}s, alloc {:>9.2} MiB",
                    stats.round, stats.active, stats.sim_time, mib
                );
            }
            #[cfg(not(feature = "telemetry"))]
            println!(
                "round {:>4}: active {:>6}, sim time {:>10.3}s",
                stats.round, stats.active, stats.sim_time
            );
        })
        .expect("run");

    let s = summarize(&h.participation);
    println!(
        "-- {} rounds: {} skipped, {} crashed device(s), mean responding weight {:.6}, \
         {} deadline miss(es)",
        s.rounds, s.skipped_rounds, s.crashed_devices, s.mean_responder_weight, s.deadline_misses
    );
    println!("-- sim time {:.3}s, diverged: {}", h.total_sim_time, h.diverged());

    let mut bad = false;
    #[cfg(feature = "telemetry")]
    {
        // Round 1 pays one-off warmup (aggregation buffers, the event
        // loop's heaps); the steady-state bound starts at round 2.
        let peak =
            round_alloc_mib.iter().skip(1).fold(0.0f64, |m, &x| m.max(x));
        if round_alloc_mib.len() > 1 {
            println!("-- peak round alloc {peak:.2} MiB (rounds 2+)");
        }
        if let Some(cap) = max_round_alloc_mib {
            if !fedprox_perfbench::alloc::counting_enabled() {
                fail("--max-round-alloc-mib needs the counting allocator (count-alloc feature)");
            }
            if round_alloc_mib.len() > 1 && peak > cap {
                eprintln!("fedsim: peak round alloc {peak:.2} MiB exceeds cap {cap:.2} MiB");
                bad = true;
            }
        }
    }
    #[cfg(not(feature = "telemetry"))]
    if max_round_alloc_mib.is_some() {
        fail("--max-round-alloc-mib needs the telemetry feature (counting allocator)");
    }

    if let Some(dir) = out {
        write_json(&dir, &format!("fedsim_seed{seed}"), &h);
    }
    trace.finish();

    if let Some(want) = expect_sampled {
        for rec in &h.participation {
            let got = rec.sampled.as_ref().map_or(rec.outcomes.len(), Vec::len);
            if got != want {
                eprintln!("fedsim: round {} sampled {got} device(s), expected {want}", rec.round);
                bad = true;
            }
        }
        if h.participation.is_empty() {
            eprintln!("fedsim: --expect-sampled set but no participation was recorded");
            bad = true;
        }
    }
    if let Some(want) = expect_skipped {
        if s.skipped_rounds != want {
            eprintln!("fedsim: expected {want} skipped round(s), recorded {}", s.skipped_rounds);
            bad = true;
        }
    }
    if let Some(want) = expect_crashed {
        if s.crashed_devices != want {
            eprintln!("fedsim: expected {want} crashed device(s), recorded {}", s.crashed_devices);
            bad = true;
        }
    }
    if h.diverged() {
        eprintln!("fedsim: run diverged");
        bad = true;
    }
    #[allow(clippy::exit)]
    if bad {
        std::process::exit(1);
    }
}
