//! Steadiness mode: every workload run N times as separate processes, in
//! alternating order, each pass on a fresh seed; then each end-to-end
//! metric's median, quartiles and inter-quartile spread per workload,
//! flagged where the spread is wider than the metric's bound.

use crate::spec;
use crate::stats::{median, quartiles};
use crate::workloads::Workload;
use crate::Flags;
use serde::Value;
use std::process::{Command, ExitCode};

/// The metric values of one run's contract line; `Err` when the run
/// failed or a check did not pass.
fn run_once(w: Workload, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let v: Value = serde_json::from_str(last).map_err(|e| format!("last line: {e:?}"))?;
    if !out.status.success() || v.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!("{} seed {seed} failed:\n{stdout}", w.name()));
    }
    let metrics = v.get("metrics").and_then(Value::as_object).unwrap_or(&[]);
    Ok(metrics
        .iter()
        .filter_map(|(k, m)| match m.get("value") {
            Some(Value::Number(n)) => Some((k.clone(), n.as_f64())),
            _ => None,
        })
        .collect())
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&["runs", "seconds", "seed", "workloads"])?;
    let runs: u64 = flags.get("runs", Some(10))?;
    let seconds: f64 = flags.get("seconds", Some(45.0))?;
    let seed0: u64 = flags.get("seed", Some(1))?;
    let names: String = flags.get("workloads", Some(String::new()))?;
    let workloads: Vec<Workload> = if names.is_empty() {
        Workload::BENCHMARKED.to_vec()
    } else {
        names
            .split(',')
            .map(|n| Workload::parse(n).ok_or_else(|| format!("unknown workload {n:?}")))
            .collect::<Result<_, _>>()?
    };
    let table = spec::END_TO_END;
    // values[workload][metric] over runs.
    let mut values = vec![vec![Vec::new(); table.len()]; workloads.len()];
    let mut failed = 0;
    for pass in 0..runs {
        let order: Vec<usize> = if pass % 2 == 0 {
            (0..workloads.len()).collect()
        } else {
            (0..workloads.len()).rev().collect()
        };
        for wi in order {
            let w = workloads[wi];
            let seed = seed0 + pass;
            match run_once(w, seed, seconds) {
                Ok(ms) => {
                    for (mi, def) in table.iter().enumerate() {
                        if let Some((_, v)) = ms.iter().find(|(k, _)| k == def.name) {
                            values[wi][mi].push(*v);
                        }
                    }
                    eprintln!("pass {pass} {} seed {seed}: ok", w.name());
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("pass {pass}: {e}");
                }
            }
        }
    }
    let mut wide = 0;
    println!(
        "{:<12} {:<36} {:>6} {:>4} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "better", "n", "median", "q1", "q3", "iqr/med", "bound"
    );
    for (wi, w) in workloads.iter().enumerate() {
        for (mi, def) in table.iter().enumerate() {
            let xs = &values[wi][mi];
            let med = median(xs);
            let (q1, _, q3) = quartiles(xs).unwrap_or((f64::NAN, med, f64::NAN));
            let spread = (q3 - q1) / med.abs();
            let flag = match def.bound {
                // set-up time is bounded on its median, not its spread.
                Some(b) if def.name != "setup_s" && (spread.is_nan() || spread > b) => {
                    wide += 1;
                    "WIDER THAN BOUND"
                }
                Some(b) if def.name != "setup_s" && spread > b / 3.0 => "above bound/3",
                _ => "",
            };
            let bound = def
                .bound
                .map_or_else(|| "-".to_string(), |b| format!("{b}"));
            println!(
                "{:<12} {:<36} {:>6} {:>4} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {bound:>6} {flag}",
                w.name(),
                def.name,
                def.better.name(),
                xs.len()
            );
        }
    }
    println!("{failed} failed run(s), {wide} metric(s) wider than their bound");
    Ok(if failed == 0 && wide == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
