//! Tier-1 conformance gate: the full fedlint engine — the line-local
//! R1–R6 rules plus the AST/call-graph D/P/F and dead-pub rules — must stay within
//! the committed `LINT_BASELINE.json`, the same check `ci.sh` runs via
//! `fedlint check --gate`. The baseline budgets every line-local rule at
//! zero violations, a malformed annotation (an empty reason included)
//! always breaches, and the allowed counts are pinned exactly.

use fedprox_conformance::engine::{self, Baseline};
use std::path::Path;

#[test]
fn workspace_passes_the_committed_lint_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let analysis = engine::analyze(root).expect("analyze workspace");
    let text = std::fs::read_to_string(root.join("LINT_BASELINE.json"))
        .expect("read LINT_BASELINE.json (regenerate with `fedlint baseline --out`)");
    let baseline = Baseline::parse(&text).expect("parse committed baseline");
    let result = engine::gate(&analysis, &baseline);
    assert!(
        result.ok(),
        "fedlint gate breached the committed baseline — either fix the \
         regression or consciously re-baseline with `cargo run -p \
         fedprox-conformance --bin fedlint -- baseline --out \
         LINT_BASELINE.json`:\n{}",
        result.breaches.join("\n")
    );
    // The committed baseline must also stay tight: a budget above the
    // current count would let regressions land unnoticed until it fills.
    let current = Baseline::from_analysis(&analysis);
    assert_eq!(
        current.emit(),
        text.trim_end().to_string() + "\n",
        "LINT_BASELINE.json is stale (budgets differ from the live \
         analysis) — regenerate it so the gate stays exact"
    );
}
