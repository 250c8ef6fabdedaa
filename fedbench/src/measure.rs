//! One benchmark run: the untraced end-to-end measurement, or the traced
//! per-layer replay, of one workload at one seed.

use crate::probes;
use crate::replay::{layer, replay, Replay};
use crate::report::{Report, Stamp};
use crate::stats::{median, tail_percentile};
use crate::workloads::{check, train, Outcome, Setup, Workload, NET_DEVICES};
use fedprox_core::metrics::History;
use fedprox_core::server;
use fedprox_perfbench::alloc;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;
/// Set-up builds before the first training call; one more follows each
/// timed call, so the set-up samples span the whole run as the training
/// calls do.
const SETUP_FIRST_REPS: usize = 5;
/// Timed training calls per untraced run, at least.
const MIN_CALLS: usize = 3;
/// Untraced/traced call pairs per traced run, at least.
const MIN_PAIRS: usize = 2;
/// The eq. (19) cost model for runs without a virtual clock: the
/// event-driven backend's default links (0.05 s each way) and seconds
/// per per-sample gradient evaluation.
const D_COM_S: f64 = 0.1;
const SEC_PER_GRAD_EVAL: f64 = 1e-6;

/// Canonical configuration text the stamp digests.
pub fn config_text(w: Workload, setup: &Setup) -> String {
    format!(
        "fedbench/v1 {} rounds={} target={} {:?}",
        w.name(),
        w.rounds(),
        w.target(),
        setup.cfg()
    )
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Build the workload, returning the setup and its wall time.
fn timed_build(w: Workload, seed: u64) -> (Setup, f64) {
    let t = Instant::now();
    let setup = Setup::build(w, seed);
    (setup, t.elapsed().as_secs_f64())
}

/// Time one training call and record its checks.
fn call(w: Workload, setup: &Setup, report: &mut Report) -> Option<Outcome> {
    match train(setup) {
        Ok(out) => {
            report.record(check(w, setup, &out));
            Some(out)
        }
        Err(e) => {
            report.record(vec![format!("{}: {e}", w.name())]);
            None
        }
    }
}

/// eq. (19) time of a run without a virtual clock: `T·d_com` plus the
/// mean device-round's gradient evaluations at the cost model's rate.
fn modeled_virtual_s(setup: &Setup, h: &History) -> f64 {
    let devices = setup.devices().max(1);
    let grad_evals = h.records.last().map_or(0, |r| r.grad_evals) as f64;
    let t = h.rounds_run as f64;
    t * D_COM_S + grad_evals / devices as f64 * SEC_PER_GRAD_EVAL
}

/// The untraced run: set-up repeated, one warm-up call, then timed calls
/// through the public entry point for `seconds`, each followed by one
/// more (discarded) set-up build.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Report {
    let mut setup_times = Vec::new();
    for _ in 1..SETUP_FIRST_REPS {
        setup_times.push(timed_build(w, seed).1);
    }
    let (setup, build_s) = timed_build(w, seed);
    setup_times.push(build_s);
    let mut report = Report::new(
        w.name(),
        false,
        Stamp::current(seed, &config_text(w, &setup)),
    );
    let warm = call(w, &setup, &mut report);
    // Peak memory of set-up plus one training call: later calls repeat
    // the same work, and their extra peak is allocator placement noise.
    let peak_rss = peak_rss_mib();
    let mut train_s = Vec::new();
    let mut rate = Vec::new();
    let mut round_ms = Vec::new();
    let mut last = warm;
    let t0 = Instant::now();
    while train_s.len() < MIN_CALLS || t0.elapsed().as_secs_f64() < seconds {
        let Some(out) = call(w, &setup, &mut report) else {
            break;
        };
        train_s.push(out.train_s);
        rate.push(out.updates as f64 / out.train_s);
        round_ms.extend_from_slice(&out.round_ms);
        last = Some(out);
        setup_times.push(timed_build(w, seed).1);
    }
    if let Some(out) = &last {
        // The networked run's skip and replay checks need per-round
        // models, which only the replay exposes; it runs once, untimed.
        if w == Workload::NetFaulty {
            report.record(replay_checked(w, &setup, &out.history).0);
        }
        let virt = if w.has_virtual_time() {
            out.history.total_sim_time
        } else {
            modeled_virtual_s(&setup, &out.history)
        };
        report.set("virtual_s", virt);
    }
    println!("setup_s per build: {setup_times:.4?}");
    println!("train_s per call: {train_s:.4?}");
    report.set("setup_s", median(&setup_times));
    report.set("train_s", median(&train_s));
    report.set("updates_per_s", median(&rate));
    report.set("peak_rss_mib", peak_rss);
    // Per-round times are printed, not gated: only `SimEngine::run_with`
    // exposes rounds, and across processes their median spread wider
    // (22% of the median over ten runs) than the call times did.
    if !round_ms.is_empty() {
        println!(
            "round_ms_p50 = {:.4} ms over {} rounds",
            median(&round_ms),
            round_ms.len()
        );
        match tail_percentile(&round_ms, 90.0) {
            Ok(p90) => println!("round_ms_p90 = {p90:.4} ms"),
            Err(e) => println!("round_ms_p90 refused: {e}"),
        }
    }
    report
}

/// Where the replay disagrees with the untraced run it reproduces.
pub fn replay_mismatch(w: Workload, h: &History, r: &Replay) -> Vec<String> {
    let mut bad = Vec::new();
    let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&h.final_model) != bits(&r.final_model) {
        let first = h
            .final_model
            .iter()
            .zip(&r.final_model)
            .position(|(a, b)| a.to_bits() != b.to_bits());
        bad.push(format!(
            "{}: replay final model differs from the untraced run (len {} vs {}, first at {first:?})",
            w.name(),
            h.final_model.len(),
            r.final_model.len()
        ));
    }
    if r.rounds != h.rounds_run {
        bad.push(format!(
            "{}: replay ran {} rounds, untraced {}",
            w.name(),
            r.rounds,
            h.rounds_run
        ));
    }
    if w.has_virtual_time() && r.sim_time.to_bits() != h.total_sim_time.to_bits() {
        bad.push(format!(
            "{}: replay virtual time {} vs untraced {}",
            w.name(),
            r.sim_time,
            h.total_sim_time
        ));
    }
    match w {
        Workload::Sim1m => {
            let recorded: Vec<Vec<usize>> = h
                .participation
                .iter()
                .map(|p| p.sampled.iter().flatten().map(|&d| d as usize).collect())
                .collect();
            if recorded != r.sampled {
                bad.push("sim-1m: replay sampled ids differ from the participation records".into());
            }
        }
        Workload::NetFaulty if h.participation != r.participation => {
            bad.push("net-faulty: replay participation differs from the untraced run".into());
        }
        _ => {}
    }
    bad
}

/// Replay once and compare it with the untraced history: the failed
/// checks, and the replay when it ran.
fn replay_checked(w: Workload, setup: &Setup, h: &History) -> (Vec<String>, Option<Replay>) {
    match replay(setup, w.target()) {
        Ok(r) => {
            let mut bad = replay_mismatch(w, h, &r);
            bad.extend(r.failures.iter().cloned());
            (bad, Some(r))
        }
        Err(e) => (vec![format!("{}: replay failed: {e}", w.name())], None),
    }
}

/// The traced run: untraced and traced calls alternate for `seconds`;
/// per-layer metrics come from the replay spans and the layer probes.
pub fn traced(w: Workload, seed: u64, seconds: f64) -> Report {
    let a0 = alloc::stats().bytes;
    let (setup, build_s) = timed_build(w, seed);
    let build_mib = alloc::stats().bytes.saturating_sub(a0) as f64 / MIB;
    let mut report = Report::new(
        w.name(),
        true,
        Stamp::current(seed, &config_text(w, &setup)),
    );
    call(w, &setup, &mut report);
    let mut pairs: Vec<(f64, Replay)> = Vec::new();
    let t0 = Instant::now();
    while pairs.len() < MIN_PAIRS || t0.elapsed().as_secs_f64() < seconds {
        let Some(out) = call(w, &setup, &mut report) else {
            break;
        };
        let (bad, replayed) = replay_checked(w, &setup, &out.history);
        report.record(bad);
        match replayed {
            Some(r) => pairs.push((out.train_s, r)),
            None => break,
        }
    }

    let dim = setup.dim();
    let (classes, features) = probes::dense_shape(&setup);
    let mut fixed: probes::Values = vec![("data.build_s", build_s), ("data.build_mib", build_mib)];
    fixed.extend(probes::tensor(classes, features, dim));
    fixed.extend(probes::workload_models(&setup));
    fixed.extend(probes::codec(dim));
    let fan = probes::workload_fanout(&setup);
    fixed.push(("optim.solve_alloc_kib", fan[3] / 1024.0));
    fixed.push(("core.fanout_speedup", fan[1] / fan[2]));
    let devices = setup.devices();
    if devices > 0 {
        fixed.extend(probes::full_participation(devices, seed));
        fixed.push(("data.shard_synth_us", build_s / devices as f64 * 1e6));
    }
    let aggregate_probe_us = (w == Workload::NetFaulty).then(|| {
        let models: Vec<Vec<f64>> = (0..NET_DEVICES).map(|i| vec![i as f64; dim]).collect();
        let locals: Vec<(&[f64], f64)> = models
            .iter()
            .map(|m| (m.as_slice(), 1.0 / NET_DEVICES as f64))
            .collect();
        let mut out = vec![0.0; dim];
        probes::secs_per_call(|| server::aggregate(&locals, &mut out)) * 1e6
    });
    for (name, v) in fixed {
        report.set(name, v);
    }

    // Per-replay metrics, median over the pairs.
    let per: Vec<probes::Values> = pairs
        .iter()
        .map(|(e2e_s, r)| replay_metrics(w, r, *e2e_s, fan[0], aggregate_probe_us))
        .collect();
    if let Some(first) = per.first() {
        for (i, (name, _)) in first.iter().enumerate() {
            let vals: Vec<f64> = per.iter().map(|v| v[i].1).collect();
            report.set(name, median(&vals));
        }
    }
    if let Some((_, r)) = pairs.last() {
        print_self_times(r);
    }
    report
}

/// Metrics from one replay (and the untraced call it was paired with).
fn replay_metrics(
    w: Workload,
    r: &Replay,
    e2e_s: f64,
    probe_slowest_s: f64,
    aggregate_probe_us: Option<f64>,
) -> probes::Values {
    let tr = &r.tracer;
    let rounds = r.rounds.max(1) as f64;
    let train = tr.root_secs();
    let selfs = tr.self_times();
    let self_of = |n: &str| {
        selfs
            .iter()
            .filter(|(k, _)| *k == n)
            .map(|(_, s)| s)
            .sum::<f64>()
    };
    let remainder = self_of(layer::TRAIN) + self_of(layer::ROUND);
    let evals = tr.named(layer::EVAL).count().max(1) as f64;
    let slowest: f64 = if r.slowest_solve_s.is_empty() {
        probe_slowest_s * rounds
    } else {
        r.slowest_solve_s.iter().sum()
    };
    let root_bytes: u64 = tr
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.bytes)
        .sum();
    let (responded, eligible) = r.participation.iter().fold((0usize, 0usize), |(a, b), p| {
        let eligible = p.outcomes.len() - p.count(fedprox_faults::DeviceOutcome::NotSelected);
        (a + p.responders(), b + eligible)
    });
    let mut v: probes::Values = vec![
        (
            "optim.local_solve_ms",
            r.solve_secs / r.solves.max(1) as f64 * 1e3,
        ),
        (
            "optim.grad_evals_per_solve",
            r.grad_evals as f64 / r.solves.max(1) as f64,
        ),
        (
            "core.fanout_ms_per_round",
            (tr.total(layer::OPTIM) + tr.total(layer::NET)) / rounds * 1e3,
        ),
        ("core.eval_ms", tr.total(layer::EVAL) / evals * 1e3),
        ("core.eval_share", tr.total(layer::EVAL) / train),
        ("core.policy_ms_per_round", remainder / rounds * 1e3),
        (
            "core.rounds_to_target",
            r.rounds_to_target.unwrap_or(r.rounds) as f64,
        ),
        ("sim.round_alloc_mib", root_bytes as f64 / rounds / MIB),
        (
            "sim.policy_ms_per_round",
            (e2e_s - (train - remainder)) / rounds * 1e3,
        ),
        ("net.worker_busy_ms_per_round", slowest / rounds * 1e3),
        (
            "net.runtime_overhead_ms_per_round",
            (tr.total(layer::ROUND) - tr.total(layer::EVAL) - slowest) / rounds * 1e3,
        ),
        (
            "net.wire_kib_per_round",
            r.wire_bytes as f64 / rounds / 1024.0,
        ),
        (
            "net.retransmissions_per_round",
            r.retransmissions as f64 / rounds,
        ),
        (
            "faults.responder_ratio",
            if eligible == 0 {
                1.0
            } else {
                responded as f64 / eligible as f64
            },
        ),
        (
            "faults.skipped_rounds",
            r.participation.iter().filter(|p| p.skipped).count() as f64,
        ),
        ("trace.train_s", train),
        ("trace.remainder_s", remainder),
        ("trace.overhead_share", (train - e2e_s) / e2e_s),
    ];
    v.push((
        "core.aggregate_us_per_round",
        aggregate_probe_us.unwrap_or(tr.total(layer::AGGREGATE) / rounds * 1e6),
    ));
    if w == Workload::Sim1m {
        let synth = tr.named(layer::SYNTH).count().max(1) as f64;
        let sample_bytes: u64 = tr.named(layer::SAMPLE).map(|s| s.bytes).sum();
        v.extend([
            ("data.shard_synth_us", tr.total(layer::SYNTH) / synth * 1e6),
            (
                "sim.sample_us_per_round",
                tr.total(layer::SAMPLE) / rounds * 1e6,
            ),
            (
                "sim.sample_kib_per_round",
                sample_bytes as f64 / rounds / 1024.0,
            ),
            (
                "sim.events_us_per_round",
                tr.total(layer::EVENTS) / rounds * 1e6,
            ),
        ]);
    }
    v
}

/// Print the replay's self time per layer; the parts add up to the
/// traced train time.
fn print_self_times(r: &Replay) {
    let tr = &r.tracer;
    let train = tr.root_secs();
    println!("self time per layer (last replay, {train:.4} s traced):");
    let mut sum = 0.0;
    for (name, s) in tr.self_times() {
        let label = if name == layer::TRAIN || name == layer::ROUND {
            format!("{name} (unattributed)")
        } else {
            name.to_string()
        };
        println!("  {label:<24} {s:>10.6} s  {:>6.2}%", 100.0 * s / train);
        sum += s;
    }
    println!(
        "  {:<24} {sum:>10.6} s  (traced train time {train:.6} s)",
        "sum"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedprox_core::{Algorithm, FedConfig};

    fn history(model: Vec<f64>) -> History {
        History {
            config: FedConfig::new(Algorithm::FedAvg).summary(),
            records: Vec::new(),
            divergence: Default::default(),
            rounds_run: 3,
            total_sim_time: 0.0,
            final_model: model,
            participation: Vec::new(),
        }
    }

    #[test]
    fn replay_equality_fires_on_a_perturbed_model() {
        let model = vec![0.25, -1.5, 3.0e-8];
        let h = history(model.clone());
        let r = Replay {
            final_model: model.clone(),
            rounds: 3,
            ..Default::default()
        };
        assert!(replay_mismatch(Workload::ConvexFig2, &h, &r).is_empty());
        let mut nudged = model.clone();
        nudged[2] = f64::from_bits(nudged[2].to_bits() + 1);
        let r = Replay {
            final_model: nudged,
            rounds: 3,
            ..Default::default()
        };
        let bad = replay_mismatch(Workload::ConvexFig2, &h, &r);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("first at Some(2)"), "{bad:?}");
        // Signed zero is a different bit pattern: bitwise, not ==.
        let h0 = history(vec![0.0]);
        let r0 = Replay {
            final_model: vec![-0.0],
            rounds: 3,
            ..Default::default()
        };
        assert_eq!(replay_mismatch(Workload::CnnFig3, &h0, &r0).len(), 1);
    }

    #[test]
    fn replay_equality_checks_sampled_ids() {
        let h = history(vec![1.0]);
        let r = Replay {
            final_model: vec![1.0],
            rounds: 3,
            sampled: vec![vec![4, 2]],
            ..Default::default()
        };
        let bad = replay_mismatch(Workload::Sim1m, &h, &r);
        assert!(bad.iter().any(|b| b.contains("sampled ids")), "{bad:?}");
    }
}
