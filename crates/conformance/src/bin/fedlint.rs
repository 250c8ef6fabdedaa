//! `fedlint` — static conformance checker for the FedProxVR workspace.
//!
//! Usage:
//!
//! ```text
//! fedlint report [--root DIR] [--json PATH] [--all]
//!     Run the full v2 engine (R1–R6, D/P/F, dead-pub) and print findings;
//!     --json writes the fedlint/v1 report document. Exit 0 regardless
//!     of findings (informational; gate with `check`).
//!
//! fedlint check --baseline LINT_BASELINE.json [--gate] [--root DIR]
//!     Run the engine and compare per-rule counts against the committed
//!     budgets. Exit 0 within budget, 1 on any breach, 2 on IO errors.
//!     --gate additionally fails on malformed annotations (they always
//!     breach) and prints the gate table.
//!
//! fedlint baseline [--root DIR] [--out PATH]
//!     Snapshot current counts as a baseline document (stdout or PATH).
//!
//! fedlint graph [--root DIR] [--dot]
//!     Print call-graph statistics, or the full graph in DOT format.
//! ```

use fedprox_conformance::engine::{self, Analysis, Baseline};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: fedlint report [--root DIR] [--json PATH] [--all]");
    eprintln!("       fedlint check --baseline PATH [--gate] [--root DIR]");
    eprintln!("       fedlint baseline [--root DIR] [--out PATH]");
    eprintln!("       fedlint graph [--root DIR] [--dot]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => usage(),
        Some("report") => cmd_report(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("baseline") => cmd_baseline(&args[1..]),
        Some("graph") => cmd_graph(&args[1..]),
        Some("--help" | "-h") => {
            println!("fedlint: FedProxVR workspace conformance checker");
            usage()
        }
        _ => usage(),
    }
}

/// Pull `--root DIR` (defaulting to the nearest `crates/` ancestor) and
/// leave the remaining flags.
fn split_root(args: &[String]) -> Option<(PathBuf, Vec<String>)> {
    let mut root: Option<PathBuf> = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--root" {
            root = Some(PathBuf::from(it.next()?));
        } else {
            rest.push(arg.clone());
        }
    }
    Some((root.unwrap_or_else(find_workspace_root), rest))
}

fn analyze_or_exit(root: &Path) -> Result<Analysis, ExitCode> {
    engine::analyze(root).map_err(|e| {
        eprintln!("fedlint: cannot analyze workspace at {}: {e}", root.display());
        ExitCode::from(2)
    })
}

fn cmd_report(args: &[String]) -> ExitCode {
    let Some((root, rest)) = split_root(args) else { return usage() };
    let mut json_path: Option<PathBuf> = None;
    let mut show_allowed = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--all" => show_allowed = true,
            _ => return usage(),
        }
    }
    let analysis = match analyze_or_exit(&root) {
        Ok(a) => a,
        Err(code) => return code,
    };
    for v in &analysis.bad_annotations {
        println!("{v}");
    }
    for f in &analysis.findings {
        if f.allowed.is_none() || show_allowed {
            let marker = if f.allowed.is_some() { " [allowed]" } else { "" };
            println!("{f}{marker}");
        }
    }
    println!();
    print_counts(&analysis);
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, analysis.to_json()) {
            eprintln!("fedlint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("fedlint: report written to {}", path.display());
    }
    ExitCode::SUCCESS
}

fn cmd_check(args: &[String]) -> ExitCode {
    let Some((root, rest)) = split_root(args) else { return usage() };
    let mut baseline_path: Option<PathBuf> = None;
    let mut gate_mode = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--gate" => gate_mode = true,
            _ => return usage(),
        }
    }
    let Some(baseline_path) = baseline_path else { return usage() };
    let baseline_path = if baseline_path.is_absolute() {
        baseline_path
    } else {
        root.join(baseline_path)
    };
    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("fedlint: cannot read baseline {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };
    let baseline = match Baseline::parse(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("fedlint: bad baseline {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };
    let analysis = match analyze_or_exit(&root) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let result = engine::gate(&analysis, &baseline);
    if gate_mode {
        print_counts(&analysis);
    }
    if result.ok() {
        println!(
            "fedlint: gate OK — {} file(s), {} graph node(s), all rule counts within budget",
            analysis.files_scanned,
            analysis.graph.nodes.len()
        );
        ExitCode::SUCCESS
    } else {
        // Show the offending findings so the breach is actionable.
        for f in analysis.violations() {
            println!("{f}");
        }
        for breach in &result.breaches {
            println!("fedlint: BREACH: {breach}");
        }
        ExitCode::FAILURE
    }
}

fn cmd_baseline(args: &[String]) -> ExitCode {
    let Some((root, rest)) = split_root(args) else { return usage() };
    let mut out: Option<PathBuf> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let analysis = match analyze_or_exit(&root) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let baseline = Baseline::from_analysis(&analysis);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, baseline.emit()) {
                eprintln!("fedlint: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("fedlint: baseline written to {}", path.display());
        }
        None => print!("{}", baseline.emit()),
    }
    ExitCode::SUCCESS
}

fn cmd_graph(args: &[String]) -> ExitCode {
    let Some((root, rest)) = split_root(args) else { return usage() };
    let dot = rest.iter().any(|a| a == "--dot");
    if rest.iter().any(|a| a != "--dot") {
        return usage();
    }
    let analysis = match analyze_or_exit(&root) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let graph = &analysis.graph;
    if dot {
        println!("digraph fedlint {{");
        println!("  rankdir=LR;");
        for (id, node) in graph.nodes.iter().enumerate() {
            let shape = if analysis.entries.contains(&id) { "box" } else { "ellipse" };
            println!("  n{id} [label=\"{}\", shape={shape}];", node.qualified);
        }
        for (from, tos) in graph.edges.iter().enumerate() {
            for to in tos {
                println!("  n{from} -> n{to};");
            }
        }
        println!("}}");
        return ExitCode::SUCCESS;
    }
    println!(
        "fedlint graph: {} node(s), {} edge(s), {} public entr{} across {} file(s)",
        graph.nodes.len(),
        graph.edge_count(),
        analysis.entries.len(),
        if analysis.entries.len() == 1 { "y" } else { "ies" },
        analysis.files_scanned
    );
    // Per-crate node/edge/reachability breakdown.
    let mut per_crate: std::collections::BTreeMap<&str, (usize, usize, usize)> =
        std::collections::BTreeMap::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        let entry = per_crate.entry(node.crate_name.as_str()).or_default();
        entry.0 += 1;
        entry.1 += graph.edges[id].len();
        if analysis.reach.dist[id].is_some() {
            entry.2 += 1;
        }
    }
    println!("{:<14} {:>6} {:>6} {:>10}", "crate", "fns", "calls", "reachable");
    for (name, (fns, calls, reachable)) in per_crate {
        println!("{name:<14} {fns:>6} {calls:>6} {reachable:>10}");
    }
    ExitCode::SUCCESS
}

fn print_counts(analysis: &Analysis) {
    println!("{:<28} {:>10} {:>8}", "rule", "violations", "allowed");
    for (id, c) in analysis.counts() {
        println!("{id:<28} {:>10} {:>8}", c.violations, c.allowed);
    }
}

/// Default root: walk up from the current directory to the first
/// directory containing a `crates/` subdirectory, else use `.`.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("crates").is_dir() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
