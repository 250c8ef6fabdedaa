//! `fedbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! fedbench --workload NAME --seed N --seconds S --trace 0|1 [--report PATH]
//! fedbench steady [--runs N] [--seconds S] [--seed N] [--workloads a,b]
//! fedbench compare BASE.json NEW.json
//! ```
//!
//! A run prints every metric by name with its unit and ends with one
//! JSON line `{"correct", "attempted", "failed", "metrics"}`; it exits 1
//! when a correctness check failed. `steady` runs every workload N times
//! in alternating order as separate processes and prints each end-to-end
//! metric's median, quartiles and spread. `compare` diffs two `--report`
//! files and refuses when their stamps differ. See README.md.

mod measure;
mod probes;
mod replay;
mod report;
mod spec;
mod stats;
mod steady;
mod tracer;
mod workloads;

use report::Report;
use std::process::ExitCode;
use workloads::Workload;

fn usage(msg: &str) -> ExitCode {
    eprintln!("fedbench: {msg}");
    eprintln!(
        "usage: fedbench --workload {} --seed N --seconds S --trace 0|1 [--report PATH]\n       \
         fedbench steady [--runs N] [--seconds S] [--seed N] [--workloads a,b]\n       \
         fedbench compare BASE.json NEW.json",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    ExitCode::from(2)
}

/// Parsed `--flag value` pairs.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument {flag:?}"));
            };
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: Option<T>) -> Result<T, String> {
        match self.0.iter().rev().find(|(k, _)| k == name) {
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("bad value {v:?} for --{name}")),
            None => default.ok_or_else(|| format!("--{name} is required")),
        }
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn print_report(r: &Report) {
    println!(
        "fedbench {} seed {} ({}): kernel {}, features [{}], {} cpu(s) {:?}, config {}",
        r.workload,
        r.stamp.seed,
        if r.trace {
            "traced per-layer run"
        } else {
            "end-to-end run"
        },
        r.stamp.kernel,
        r.stamp.features,
        r.stamp.nproc,
        r.stamp.cpu_model,
        r.stamp.config
    );
    for m in &r.metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("operations: {} attempted, {} failed", r.attempted, r.failed);
    for f in &r.failures {
        println!("  FAILED: {f}");
    }
    for m in r.missing() {
        println!("  MISSING: {m}");
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.check_known(&["workload", "seed", "seconds", "trace", "report"])?;
    let name: String = flags.get("workload", None)?;
    let w = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = flags.get("seed", None)?;
    let seconds: f64 = flags.get("seconds", None)?;
    let trace: u8 = flags.get("trace", Some(0))?;
    if !(seconds > 0.0 && seconds <= 600.0) || trace > 1 {
        return Err("--seconds must be in (0, 600] and --trace 0 or 1".into());
    }
    let report = if trace == 1 {
        measure::traced(w, seed, seconds)
    } else {
        measure::end_to_end(w, seed, seconds)
    };
    print_report(&report);
    if let Ok(path) = flags.get::<String>("report", None) {
        std::fs::write(&path, report.to_json() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", report.contract_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("compare takes two report files".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Report::from_json(t.trim()).map_err(|e| format!("{p}: {e}")))
    };
    let rows = report::compare(&read(base)?, &read(new)?)?;
    println!(
        "{:<36} {:>14} {:>14} {:>9}",
        "metric", "base", "new", "new/base"
    );
    for (name, b, n, ratio) in rows {
        println!("{name:<36} {b:>14.6} {n:>14.6} {ratio:>9.4}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("steady") => steady::main(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => run(&args),
    };
    result.unwrap_or_else(|e| usage(&e))
}
