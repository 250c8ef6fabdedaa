//! `fedperf` — deterministic benchmark driver.
//!
//! Modes:
//!
//! * default: run the suite, print the human table, and (with `--out`)
//!   write `BENCH_<name>.json`;
//! * `--baseline old.json --gate 1.25`: run the suite, then fail if any
//!   shared entry regressed past the ratio or allocates more per
//!   iteration (bytes or calls) than the baseline;
//! * `--validate a.json [b.json ...]`: schema-check existing reports;
//! * `--check-determinism a.json b.json`: require two reports to declare
//!   identical benchmark structure (ids + iteration counts; timings are
//!   machine-dependent and deliberately not compared).

use fedprox_perfbench::report::{self, BenchReport};
use fedprox_perfbench::suite;
use std::process::ExitCode;

const USAGE: &str = "usage: fedperf [OPTIONS]

  --quick                 reduced iteration budgets (CI smoke)
  --name NAME             report name, default 'seed' (file: BENCH_<NAME>.json)
  --out DIR               directory to write the JSON report into
  --filter SUBSTR         only run benches whose id contains SUBSTR
  --list                  list bench ids and exit
  --baseline FILE         compare against a prior report (bytes/iter and
                          allocs/iter must not exceed it)
  --gate RATIO            max allowed ns/iter ratio vs baseline (default 1.25)
  --validate FILE...      schema-check report files and exit
  --check-determinism A B require identical structure in two reports, exit
  --help                  this text";

struct Opts {
    quick: bool,
    name: String,
    out: Option<String>,
    filter: Option<String>,
    list: bool,
    baseline: Option<String>,
    gate: f64,
    validate: Vec<String>,
    check_det: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        quick: false,
        name: "seed".to_string(),
        out: None,
        filter: None,
        list: false,
        baseline: None,
        gate: 1.25,
        validate: Vec::new(),
        check_det: None,
    };
    let mut i = 0;
    let need = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => o.quick = true,
            "--list" => o.list = true,
            "--name" => o.name = need(&mut i, "--name")?,
            "--out" => o.out = Some(need(&mut i, "--out")?),
            "--filter" => o.filter = Some(need(&mut i, "--filter")?),
            "--baseline" => o.baseline = Some(need(&mut i, "--baseline")?),
            "--gate" => {
                let v = need(&mut i, "--gate")?;
                o.gate = v.parse::<f64>().map_err(|_| format!("bad --gate value: {v}"))?;
                if !o.gate.is_finite() || o.gate <= 0.0 {
                    return Err(format!("--gate must be a positive finite ratio, got {v}"));
                }
            }
            "--validate" => {
                i += 1;
                while i < args.len() && !args[i].starts_with("--") {
                    o.validate.push(args[i].clone());
                    i += 1;
                }
                if o.validate.is_empty() {
                    return Err("--validate needs at least one file".to_string());
                }
                continue;
            }
            "--check-determinism" => {
                let a = need(&mut i, "--check-determinism")?;
                let b = need(&mut i, "--check-determinism")?;
                o.check_det = Some((a, b));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    Ok(o)
}

fn load_report(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    BenchReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(o: &Opts) -> Result<(), String> {
    // File-only modes first.
    if !o.validate.is_empty() {
        for path in &o.validate {
            let rep = load_report(path)?;
            println!("ok: {path} ({} entries, mode {})", rep.entries.len(), rep.mode);
        }
        return Ok(());
    }
    if let Some((a, b)) = &o.check_det {
        let ra = load_report(a)?;
        let rb = load_report(b)?;
        report::check_determinism(&ra, &rb)
            .map_err(|e| format!("determinism check failed: {e}"))?;
        println!("ok: {a} and {b} declare identical benchmark structure");
        return Ok(());
    }
    if o.list {
        for b in suite::build_suite() {
            println!("{:7} {}", b.kind, b.id);
        }
        return Ok(());
    }

    let rep = suite::run_suite(&o.name, o.quick, o.filter.as_deref());
    if rep.entries.is_empty() {
        return Err("no benches matched the filter".to_string());
    }
    print!("{}", report::human_table(&rep));

    if let Some(dir) = &o.out {
        let path = format!("{dir}/BENCH_{}.json", o.name);
        let json = rep.to_json().map_err(|e| format!("serialize: {e}"))?;
        std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }

    if let Some(base_path) = &o.baseline {
        let base = load_report(base_path)?;
        report::check_comparable(&base, &rep)
            .map_err(|e| format!("{base_path}: not comparable: {e}"))?;
        let outcome = report::gate(&base, &rep, o.gate);
        print!("{}", report::gate_table(&outcome, o.gate));
        if !outcome.passed() {
            return Err(format!(
                "regression gate failed (ratio > {} or counters above baseline)",
                o.gate
            ));
        }
        println!("gate passed (<= {}x baseline, counters <= baseline)", o.gate);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("fedperf: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("fedperf: {msg}");
            ExitCode::FAILURE
        }
    }
}
