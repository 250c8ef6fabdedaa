//! `fedobs`: read a FedProxVR `--obs` run stream — summary tables,
//! algorithm health, the span-tree profile, run ledgers, round
//! timelines, eq. (19) critical paths and post-mortem bundles.
//!
//! ```text
//! fedobs summary <run.jsonl> [--top N]            slowest ops, devices, bytes, counters
//! fedobs health [report] <run.jsonl> [--strict]   health summary + per-round timeline
//! fedobs health check <run.jsonl>                 health schema validation
//! fedobs health diff <base.jsonl> <cand.jsonl>    health regression view, cand vs base
//! fedobs prof report <run.jsonl>                  span-tree table
//! fedobs prof flame <run.jsonl>                   collapsed stacks (self-µs weights)
//! fedobs prof agg <run.jsonl>... [--check-deterministic]
//!                                                 cross-run medians and deltas
//! fedobs ledger <run.jsonl>...                    list each file's run-ledger header
//! fedobs ledger diff <a.jsonl> <b.jsonl>          compare two runs' identities
//! fedobs timeline <run.jsonl>                     per-round per-device timeline
//! fedobs critpath <run.jsonl> [--json]            gating device + comm/compute split
//! fedobs postmortem <run.jsonl>                   bundle around the first trigger
//! ```
//!
//! Every subcommand reads the whole stream and skips the events it does
//! not use. Exit codes are CI-gateable: `health check` fails on schema
//! violations, `health diff` when the candidate raises anomalies the
//! baseline lacks, `health report --strict` when any anomaly is present,
//! `prof agg --check-deterministic` unless every path's deterministic
//! columns (activation counts, allocation totals) match across runs,
//! `ledger diff` when the runs are not provably joinable, `ledger` on a
//! file with no header, and `postmortem` when the stream carries no
//! trigger marker. Needs no cargo features.

// CLI binary: aborting with context on a broken invocation or file is
// the intended error policy (fedlint exempts src/bin targets too).
#![allow(clippy::unwrap_used, clippy::expect_used)]
use fedprox_obs::postmortem::{PostmortemBundle, POSTMORTEM_WINDOW};
use fedprox_obs::{RunLedger, Timeline};
use fedprox_telemetry::event::Event;
use fedprox_telemetry::jsonl;
use fedprox_telemetry::profile::{AggReport, ProfileReport};
use fedprox_telemetry::scope::{self, HealthReport};
use fedprox_telemetry::summary::TelemetryReport;
use std::process::ExitCode;

const USAGE: &str = "usage: fedobs summary <run.jsonl> [--top N]\n\
                     \u{20}      fedobs health [report] <run.jsonl> [--strict]\n\
                     \u{20}      fedobs health check <run.jsonl>\n\
                     \u{20}      fedobs health diff <baseline.jsonl> <candidate.jsonl>\n\
                     \u{20}      fedobs prof report|flame <run.jsonl>\n\
                     \u{20}      fedobs prof agg <run.jsonl>... [--check-deterministic]\n\
                     \u{20}      fedobs ledger <run.jsonl>...\n\
                     \u{20}      fedobs ledger diff <a.jsonl> <b.jsonl>\n\
                     \u{20}      fedobs timeline <run.jsonl>\n\
                     \u{20}      fedobs critpath <run.jsonl> [--json]\n\
                     \u{20}      fedobs postmortem <run.jsonl>";

#[derive(Debug)]
enum Cmd {
    Summary { path: String, top: usize },
    HealthReport { path: String, strict: bool },
    HealthCheck { path: String },
    HealthDiff { baseline: String, candidate: String },
    ProfReport { path: String },
    ProfFlame { path: String },
    ProfAgg { paths: Vec<String>, check: bool },
    Ledger { paths: Vec<String> },
    LedgerDiff { a: String, b: String },
    Timeline { path: String },
    Critpath { path: String, json: bool },
    Postmortem { path: String },
}

fn parse_args(argv: &[String]) -> Result<Cmd, String> {
    let mut words: Vec<&str> = Vec::new();
    let mut flags: Vec<&str> = Vec::new();
    let mut top = 10usize;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--top" => {
                let v = it.next().ok_or("--top requires a value")?;
                top = v.parse().map_err(|_| format!("bad --top value `{v}`"))?;
                flags.push("--top");
            }
            flag if flag.starts_with('-') => flags.push(flag),
            word => words.push(word),
        }
    }
    let has = |flag: &str| flags.contains(&flag);
    let owned = |paths: &[&str]| paths.iter().map(|p| p.to_string()).collect::<Vec<_>>();
    // Each subcommand names the flags it takes; any other flag is refused.
    let (cmd, allowed): (Cmd, &[&str]) = match words.as_slice() {
        ["summary", path] => (Cmd::Summary { path: path.to_string(), top }, &["--top"]),
        ["health", "check", path] => (Cmd::HealthCheck { path: path.to_string() }, &[]),
        ["health", "diff", a, b] => {
            (Cmd::HealthDiff { baseline: a.to_string(), candidate: b.to_string() }, &[])
        }
        ["health", "report", path] | ["health", path]
            if !matches!(*path, "report" | "check" | "diff") =>
        {
            (Cmd::HealthReport { path: path.to_string(), strict: has("--strict") }, &["--strict"])
        }
        ["prof", "report", path] => (Cmd::ProfReport { path: path.to_string() }, &[]),
        ["prof", "flame", path] => (Cmd::ProfFlame { path: path.to_string() }, &[]),
        ["prof", "agg", paths @ ..] => {
            if paths.len() < 2 {
                return Err(format!("prof agg needs at least two runs\n{USAGE}"));
            }
            let check = has("--check-deterministic");
            (Cmd::ProfAgg { paths: owned(paths), check }, &["--check-deterministic"])
        }
        ["ledger", "diff", a, b] => (Cmd::LedgerDiff { a: a.to_string(), b: b.to_string() }, &[]),
        ["ledger", "diff", ..] => return Err(USAGE.to_string()),
        ["ledger", paths @ ..] if !paths.is_empty() => (Cmd::Ledger { paths: owned(paths) }, &[]),
        ["timeline", path] => (Cmd::Timeline { path: path.to_string() }, &[]),
        ["critpath", path] => {
            (Cmd::Critpath { path: path.to_string(), json: has("--json") }, &["--json"])
        }
        ["postmortem", path] => (Cmd::Postmortem { path: path.to_string() }, &[]),
        _ => return Err(USAGE.to_string()),
    };
    match flags.iter().find(|f| !allowed.contains(f)) {
        Some(flag) => Err(format!("unknown flag `{flag}`\n{USAGE}")),
        None => Ok(cmd),
    }
}

fn load(path: &str) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    jsonl::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(cmd: Cmd) -> Result<ExitCode, String> {
    let ok = |pass: bool| if pass { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    match cmd {
        Cmd::Summary { path, top } => {
            print!("{}", TelemetryReport::from_events(&load(&path)?).render(top));
            Ok(ExitCode::SUCCESS)
        }
        Cmd::HealthReport { path, strict } => {
            let report = HealthReport::from_events(&load(&path)?);
            print!("{}", report.render());
            if strict && !report.anomalies.is_empty() {
                eprintln!("fedobs: --strict and {} anomalies present", report.anomalies.len());
                return Ok(ExitCode::FAILURE);
            }
            Ok(ExitCode::SUCCESS)
        }
        Cmd::HealthCheck { path } => {
            let report = HealthReport::from_events(&load(&path)?);
            let problems = report.validate();
            for p in &problems {
                eprintln!("fedobs health check: {p}");
            }
            if problems.is_empty() {
                println!(
                    "fedobs health check: ok ({} samples, {} anomalies)",
                    report.samples.len(),
                    report.anomalies.len()
                );
            }
            Ok(ok(problems.is_empty()))
        }
        Cmd::HealthDiff { baseline, candidate } => {
            let base = HealthReport::from_events(&load(&baseline)?);
            let cand = HealthReport::from_events(&load(&candidate)?);
            let d = scope::diff(&base, &cand);
            print!("{}", d.render());
            Ok(ok(!d.has_regression()))
        }
        Cmd::ProfReport { path } => {
            print!("{}", ProfileReport::from_events(&load(&path)?).render_tree());
            Ok(ExitCode::SUCCESS)
        }
        Cmd::ProfFlame { path } => {
            print!("{}", ProfileReport::from_events(&load(&path)?).render_flame());
            Ok(ExitCode::SUCCESS)
        }
        Cmd::ProfAgg { paths, check } => {
            let mut profiles = Vec::with_capacity(paths.len());
            for p in &paths {
                profiles.push(ProfileReport::from_events(&load(p)?));
            }
            let agg = AggReport::from_profiles(&profiles);
            print!("{}", agg.render());
            if !check {
                return Ok(ExitCode::SUCCESS);
            }
            let bad = agg.deterministic_mismatches();
            if bad.is_empty() {
                println!("deterministic columns identical across {} runs", agg.runs);
                return Ok(ExitCode::SUCCESS);
            }
            eprintln!(
                "fedobs: deterministic columns differ across runs on {} path(s):",
                bad.len()
            );
            for row in bad {
                eprintln!("  {} (in {}/{} runs)", row.path, row.runs, agg.runs);
            }
            Ok(ExitCode::FAILURE)
        }
        Cmd::Ledger { paths } => {
            let mut missing = false;
            for path in &paths {
                match RunLedger::from_events(&load(path)?) {
                    Some(l) => println!("{path}: {}", l.render_line()),
                    None => {
                        println!("{path}: no run-ledger header");
                        missing = true;
                    }
                }
            }
            Ok(ok(!missing))
        }
        Cmd::LedgerDiff { a, b } => {
            let la = RunLedger::from_events(&load(&a)?)
                .ok_or_else(|| format!("{a}: no run-ledger header"))?;
            let lb = RunLedger::from_events(&load(&b)?)
                .ok_or_else(|| format!("{b}: no run-ledger header"))?;
            let diff = la.diff(&lb);
            if diff.is_empty() {
                println!("identical: {}", la.render_line());
            } else {
                println!("runs differ on {} field(s):", diff.len());
                for (field, va, vb) in &diff {
                    println!("  {field}: {va} != {vb}");
                }
            }
            Ok(ok(diff.is_empty()))
        }
        Cmd::Timeline { path } => {
            print!("{}", Timeline::from_events(&load(&path)?).render_timeline());
            Ok(ExitCode::SUCCESS)
        }
        Cmd::Critpath { path, json } => {
            let t = Timeline::from_events(&load(&path)?);
            if json {
                println!("{}", t.to_json());
            } else {
                print!("{}", t.render_critpath());
            }
            Ok(ExitCode::SUCCESS)
        }
        Cmd::Postmortem { path } => {
            match PostmortemBundle::from_events(&load(&path)?, POSTMORTEM_WINDOW) {
                Some(b) => {
                    print!("{}", b.render());
                    Ok(ExitCode::SUCCESS)
                }
                None => Err(format!("{path}: no post-mortem marker in stream")),
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&argv) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(cmd) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("fedobs: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Cmd, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_every_subcommand() {
        assert!(matches!(
            parse(&["ledger", "a.jsonl", "b.jsonl"]),
            Ok(Cmd::Ledger { paths }) if paths.len() == 2
        ));
        assert!(matches!(parse(&["ledger", "diff", "a.jsonl", "b.jsonl"]), Ok(Cmd::LedgerDiff { .. })));
        assert!(matches!(parse(&["timeline", "a.jsonl"]), Ok(Cmd::Timeline { .. })));
        assert!(matches!(parse(&["critpath", "a.jsonl"]), Ok(Cmd::Critpath { json: false, .. })));
        assert!(matches!(
            parse(&["critpath", "a.jsonl", "--json"]),
            Ok(Cmd::Critpath { json: true, .. })
        ));
        assert!(matches!(parse(&["postmortem", "a.jsonl"]), Ok(Cmd::Postmortem { .. })));
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["ledger"]).is_err());
        assert!(parse(&["timeline"]).is_err());
        assert!(parse(&["timeline", "a", "b"]).is_err());
        assert!(parse(&["frobnicate", "a.jsonl"]).is_err());
        assert!(parse(&["critpath", "a.jsonl", "--wat"]).is_err());
    }

    #[test]
    fn ledger_diff_needs_exactly_two_files() {
        assert!(parse(&["ledger", "diff", "a.jsonl"]).is_err());
        // Three positionals after `diff` do not silently truncate.
        assert!(parse(&["ledger", "diff", "a", "b", "c"]).is_err());
    }

    #[test]
    fn summary_parses_path_and_top() {
        assert!(matches!(
            parse(&["summary", "trace.jsonl", "--top", "3"]),
            Ok(Cmd::Summary { path, top: 3 }) if path == "trace.jsonl"
        ));
    }

    #[test]
    fn summary_defaults_top_to_ten() {
        assert!(matches!(parse(&["summary", "t.jsonl"]), Ok(Cmd::Summary { top: 10, .. })));
    }

    #[test]
    fn summary_rejects_missing_path_and_bad_flags() {
        assert!(parse(&["summary"]).is_err());
        assert!(parse(&["summary", "a", "b"]).is_err());
        assert!(parse(&["summary", "--nope", "t"]).is_err());
        assert!(parse(&["summary", "t", "--top", "x"]).is_err());
    }

    #[test]
    fn health_bare_path_is_report() {
        assert!(matches!(
            parse(&["health", "h.jsonl"]),
            Ok(Cmd::HealthReport { path, strict: false }) if path == "h.jsonl"
        ));
    }

    #[test]
    fn health_report_strict_flag() {
        assert!(matches!(
            parse(&["health", "report", "h.jsonl", "--strict"]),
            Ok(Cmd::HealthReport { strict: true, .. })
        ));
    }

    #[test]
    fn health_diff_takes_two_paths() {
        assert!(matches!(
            parse(&["health", "diff", "a.jsonl", "b.jsonl"]),
            Ok(Cmd::HealthDiff { baseline, candidate })
                if baseline == "a.jsonl" && candidate == "b.jsonl"
        ));
    }

    #[test]
    fn health_rejects_bad_usage() {
        assert!(parse(&["health"]).is_err());
        assert!(parse(&["health", "diff", "a.jsonl"]).is_err());
        assert!(parse(&["health", "check", "a", "b"]).is_err());
        assert!(parse(&["health", "--nope"]).is_err());
        assert!(parse(&["health", "report", "a", "b"]).is_err());
    }

    #[test]
    fn prof_parses_report_and_flame() {
        assert!(matches!(
            parse(&["prof", "report", "t.jsonl"]),
            Ok(Cmd::ProfReport { path }) if path == "t.jsonl"
        ));
        assert!(matches!(
            parse(&["prof", "flame", "t.jsonl"]),
            Ok(Cmd::ProfFlame { path }) if path == "t.jsonl"
        ));
    }

    #[test]
    fn prof_parses_agg_with_check_flag() {
        assert!(matches!(
            parse(&["prof", "agg", "a.jsonl", "b.jsonl", "--check-deterministic"]),
            Ok(Cmd::ProfAgg { paths, check: true }) if paths == ["a.jsonl", "b.jsonl"]
        ));
    }

    #[test]
    fn prof_rejects_bad_invocations() {
        assert!(parse(&["prof"]).is_err());
        assert!(parse(&["prof", "nope", "t"]).is_err());
        assert!(parse(&["prof", "report"]).is_err());
        assert!(parse(&["prof", "report", "a", "b"]).is_err());
        assert!(parse(&["prof", "agg", "only-one.jsonl"]).is_err());
        assert!(parse(&["prof", "agg", "a", "b", "--nope"]).is_err());
    }
}
