//! The `fedperf/v1` report schema: serialization, validation, the
//! regression gate, and the CI determinism check.

use serde::{Deserialize, Serialize, Value};

/// Schema tag every report carries.
pub const SCHEMA: &str = "fedperf/v1";

/// One measured benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Unique id, `<op>/<shape>` (e.g. `matmul/64x64x64`).
    pub id: String,
    /// `"micro"` (kernel) or `"macro"` (full federated round).
    pub kind: String,
    /// Operation name (`matmul`, `svrg_step`, `round`, ...).
    pub op: String,
    /// Shape / configuration string.
    pub shape: String,
    /// Untimed warmup iterations.
    pub warmup: u32,
    /// Iterations per timed batch.
    pub iters: u32,
    /// Timed batches (median reported).
    pub repeats: u32,
    /// Median wall nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Median allocated bytes per iteration (absent without `count-alloc`).
    pub bytes_per_iter: Option<f64>,
    /// Median allocator calls per iteration (absent without `count-alloc`).
    pub allocs_per_iter: Option<f64>,
}

/// A full `BENCH_<name>.json` report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Report name (`BENCH_<name>.json`).
    pub name: String,
    /// `"full"` or `"quick"`.
    pub mode: String,
    /// Run-ledger config digest (FNV-1a of the canonical suite
    /// invocation). Empty on reports written before the ledger existed;
    /// the fields are serde-defaulted so those still parse.
    #[serde(default)]
    pub config: String,
    /// Tensor kernel selector active during measurement (`reference` or
    /// `tiled`; empty on pre-ledger reports).
    #[serde(default)]
    pub kernel: String,
    /// Comma-joined compiled feature set (empty on pre-ledger reports).
    #[serde(default)]
    pub features: String,
    /// Measured entries, in suite order.
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| format!("serialize report: {e:?}"))
    }

    /// Parse and schema-validate a report from JSON text.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| format!("parse JSON: {e:?}"))?;
        validate(&value)?;
        serde_json::from_str(text).map_err(|e| format!("decode report: {e:?}"))
    }
}

fn field<'a>(obj: &'a Value, key: &str, at: &str) -> Result<&'a Value, String> {
    obj.get(key).ok_or_else(|| format!("{at}: missing field `{key}`"))
}

fn expect_string(v: &Value, at: &str) -> Result<String, String> {
    v.as_str().map(str::to_string).ok_or_else(|| format!("{at}: expected string, got {}", v.kind()))
}

fn expect_number(v: &Value, at: &str) -> Result<f64, String> {
    match v {
        Value::Number(n) => Ok(n.as_f64()),
        other => Err(format!("{at}: expected number, got {}", other.kind())),
    }
}

fn expect_count(v: &Value, at: &str) -> Result<u64, String> {
    match v {
        Value::Number(n) => {
            n.as_u64().ok_or_else(|| format!("{at}: expected non-negative integer"))
        }
        other => Err(format!("{at}: expected integer, got {}", other.kind())),
    }
}

/// Validate a parsed JSON value against the `fedperf/v1` schema. Checks
/// required fields, their types, id uniqueness, and iteration counts
/// >= 1. Returns the first problem found.
pub fn validate(value: &Value) -> Result<(), String> {
    let schema = expect_string(field(value, "schema", "report")?, "report.schema")?;
    if schema != SCHEMA {
        return Err(format!("report.schema: expected `{SCHEMA}`, got `{schema}`"));
    }
    expect_string(field(value, "name", "report")?, "report.name")?;
    let mode = expect_string(field(value, "mode", "report")?, "report.mode")?;
    if mode != "full" && mode != "quick" {
        return Err(format!("report.mode: expected `full` or `quick`, got `{mode}`"));
    }
    let Value::Array(entries) = field(value, "entries", "report")? else {
        return Err("report.entries: expected array".to_string());
    };
    if entries.is_empty() {
        return Err("report.entries: empty".to_string());
    }
    let mut seen: Vec<String> = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let at = format!("entries[{i}]");
        let id = expect_string(field(entry, "id", &at)?, &format!("{at}.id"))?;
        if seen.contains(&id) {
            return Err(format!("{at}: duplicate id `{id}`"));
        }
        let kind = expect_string(field(entry, "kind", &at)?, &format!("{at}.kind"))?;
        if kind != "micro" && kind != "macro" {
            return Err(format!("{at}.kind: expected `micro` or `macro`, got `{kind}`"));
        }
        expect_string(field(entry, "op", &at)?, &format!("{at}.op"))?;
        expect_string(field(entry, "shape", &at)?, &format!("{at}.shape"))?;
        expect_count(field(entry, "warmup", &at)?, &format!("{at}.warmup"))?;
        for key in ["iters", "repeats"] {
            let n = expect_count(field(entry, key, &at)?, &format!("{at}.{key}"))?;
            if n == 0 {
                return Err(format!("{at}.{key}: must be >= 1"));
            }
        }
        let ns = expect_number(field(entry, "ns_per_iter", &at)?, &format!("{at}.ns_per_iter"))?;
        if !ns.is_finite() || ns < 0.0 {
            return Err(format!("{at}.ns_per_iter: must be finite and >= 0"));
        }
        for key in ["bytes_per_iter", "allocs_per_iter"] {
            match entry.get(key) {
                None | Some(Value::Null) => {}
                Some(v) => {
                    let b = expect_number(v, &format!("{at}.{key}"))?;
                    if !b.is_finite() || b < 0.0 {
                        return Err(format!("{at}.{key}: must be finite and >= 0"));
                    }
                }
            }
        }
        seen.push(id);
    }
    Ok(())
}

/// One row of a gate comparison.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Benchmark id.
    pub id: String,
    /// Baseline ns/iter.
    pub base_ns: f64,
    /// Current ns/iter.
    pub cur_ns: f64,
    /// `cur / base` (1.0 when the baseline is zero).
    pub ratio: f64,
    /// Allocation counters above the baseline's, e.g.
    /// `allocs/iter 11.0 -> 12.0`; empty when none rose.
    pub counter_breaches: Vec<String>,
    /// Whether this row breaches the gate: ns/iter over the ratio, or
    /// any counter breach.
    pub failed: bool,
}

/// Result of a gate comparison.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Per-id comparison rows (ids present in both reports, suite order).
    pub rows: Vec<GateRow>,
    /// Ids only in the current report (informational).
    pub new_ids: Vec<String>,
    /// Ids only in the baseline (informational).
    pub missing_ids: Vec<String>,
}

impl GateOutcome {
    /// Whether any shared id breached the gate.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| !r.failed)
    }
}

/// Refuse a gate comparison between reports measured under different
/// code: when BOTH sides carry a run-ledger stamp, the kernel selector
/// and the compiled feature set must match — a `tiled` baseline
/// says nothing about a `reference` run, and timing deltas between
/// feature sets are build artifacts, not regressions. Reports from
/// before the stamp existed (empty fields) compare unconditionally.
pub fn check_comparable(baseline: &BenchReport, current: &BenchReport) -> Result<(), String> {
    let stamped =
        |r: &BenchReport| !r.kernel.is_empty() || !r.features.is_empty() || !r.config.is_empty();
    if !(stamped(baseline) && stamped(current)) {
        return Ok(());
    }
    if baseline.kernel != current.kernel {
        return Err(format!(
            "kernel selector differs: baseline `{}` vs current `{}` (re-run with --kernel or \
             regenerate the baseline)",
            baseline.kernel, current.kernel
        ));
    }
    if baseline.features != current.features {
        return Err(format!(
            "compiled feature set differs: baseline `[{}]` vs current `[{}]`",
            baseline.features, current.features
        ));
    }
    Ok(())
}

/// The allocation counters of `cur` that exceed `base`'s. Both are exact
/// run to run, so any rise is a regression; a side without counters
/// (built without `count-alloc`) is not compared.
fn counter_breaches(base: &BenchEntry, cur: &BenchEntry) -> Vec<String> {
    [
        ("bytes/iter", base.bytes_per_iter, cur.bytes_per_iter),
        ("allocs/iter", base.allocs_per_iter, cur.allocs_per_iter),
    ]
    .into_iter()
    .filter_map(|(name, b, c)| match (b, c) {
        (Some(b), Some(c)) if c > b => Some(format!("{name} {b:.1} -> {c:.1}")),
        _ => None,
    })
    .collect()
}

/// Compare `current` against `baseline`: an id fails when its ns/iter
/// exceeds `gate` times the baseline's, or when its bytes/iter or
/// allocs/iter is above the baseline's. Ids present in only one report
/// are listed but never fail the gate.
pub fn gate(baseline: &BenchReport, current: &BenchReport, gate: f64) -> GateOutcome {
    assert!(gate > 0.0, "gate ratio must be positive");
    let mut rows = Vec::new();
    let mut new_ids = Vec::new();
    for cur in &current.entries {
        match baseline.entries.iter().find(|b| b.id == cur.id) {
            Some(base) => {
                let ratio =
                    if base.ns_per_iter > 0.0 { cur.ns_per_iter / base.ns_per_iter } else { 1.0 };
                let counter_breaches = counter_breaches(base, cur);
                rows.push(GateRow {
                    id: cur.id.clone(),
                    base_ns: base.ns_per_iter,
                    cur_ns: cur.ns_per_iter,
                    ratio,
                    failed: ratio > gate || !counter_breaches.is_empty(),
                    counter_breaches,
                });
            }
            None => new_ids.push(cur.id.clone()),
        }
    }
    let missing_ids = baseline
        .entries
        .iter()
        .filter(|b| !current.entries.iter().any(|c| c.id == b.id))
        .map(|b| b.id.clone())
        .collect();
    GateOutcome { rows, new_ids, missing_ids }
}

/// CI determinism check: two runs of the same suite must execute the
/// exact same work — same id sequence and identical
/// `warmup`/`iters`/`repeats` per entry. Timings are machine noise and
/// are deliberately not compared.
pub fn check_determinism(a: &BenchReport, b: &BenchReport) -> Result<(), String> {
    if a.entries.len() != b.entries.len() {
        return Err(format!("entry count differs: {} vs {}", a.entries.len(), b.entries.len()));
    }
    for (ea, eb) in a.entries.iter().zip(&b.entries) {
        if ea.id != eb.id {
            return Err(format!("id order differs: `{}` vs `{}`", ea.id, eb.id));
        }
        if (ea.warmup, ea.iters, ea.repeats) != (eb.warmup, eb.iters, eb.repeats) {
            return Err(format!(
                "iteration counts differ for `{}`: {}/{}/{} vs {}/{}/{}",
                ea.id, ea.warmup, ea.iters, ea.repeats, eb.warmup, eb.iters, eb.repeats
            ));
        }
    }
    Ok(())
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn fmt_bytes(b: Option<f64>) -> String {
    match b {
        None => "-".to_string(),
        Some(b) if b >= 1024.0 * 1024.0 => format!("{:.1} MiB", b / (1024.0 * 1024.0)),
        Some(b) if b >= 1024.0 => format!("{:.1} KiB", b / 1024.0),
        Some(b) => format!("{b:.0} B"),
    }
}

/// Render the human-readable table for a report.
pub fn human_table(report: &BenchReport) -> String {
    let mut out = String::new();
    let id_w = report.entries.iter().map(|e| e.id.len()).max().unwrap_or(8).max(8);
    out.push_str(&format!(
        "{:<id_w$}  {:>5}  {:>12}  {:>10}  {:>10}\n",
        "id", "kind", "ns/iter", "bytes/iter", "allocs/iter"
    ));
    for e in &report.entries {
        out.push_str(&format!(
            "{:<id_w$}  {:>5}  {:>12}  {:>10}  {:>10}\n",
            e.id,
            e.kind,
            fmt_ns(e.ns_per_iter),
            fmt_bytes(e.bytes_per_iter),
            match e.allocs_per_iter {
                None => "-".to_string(),
                Some(a) => format!("{a:.1}"),
            },
        ));
    }
    out
}

/// Render the gate comparison table.
pub fn gate_table(outcome: &GateOutcome, gate: f64) -> String {
    let mut out = String::new();
    let id_w = outcome.rows.iter().map(|r| r.id.len()).max().unwrap_or(8).max(8);
    out.push_str(&format!(
        "{:<id_w$}  {:>12}  {:>12}  {:>7}  gate x{gate:.2}\n",
        "id", "baseline", "current", "ratio"
    ));
    for r in &outcome.rows {
        out.push_str(&format!(
            "{:<id_w$}  {:>12}  {:>12}  {:>6.2}x  {}",
            r.id,
            fmt_ns(r.base_ns),
            fmt_ns(r.cur_ns),
            r.ratio,
            if r.failed { "FAIL" } else { "ok" },
        ));
        if !r.counter_breaches.is_empty() {
            out.push_str(&format!(" ({})", r.counter_breaches.join(", ")));
        }
        out.push('\n');
    }
    for id in &outcome.new_ids {
        out.push_str(&format!("{id}: new (no baseline entry)\n"));
    }
    for id in &outcome.missing_ids {
        out.push_str(&format!("{id}: missing from current run\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: &str, ns: f64) -> BenchEntry {
        BenchEntry {
            id: id.to_string(),
            kind: "micro".to_string(),
            op: id.split('/').next().unwrap_or(id).to_string(),
            shape: "s".to_string(),
            warmup: 1,
            iters: 10,
            repeats: 3,
            ns_per_iter: ns,
            bytes_per_iter: Some(0.0),
            allocs_per_iter: Some(0.0),
        }
    }

    fn report(entries: Vec<BenchEntry>) -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_string(),
            name: "t".to_string(),
            mode: "quick".to_string(),
            config: String::new(),
            kernel: String::new(),
            features: String::new(),
            entries,
        }
    }

    #[test]
    fn roundtrip_and_validate() {
        let r = report(vec![entry("matmul/64", 100.0), entry("dot/16384", 5.0)]);
        let json = r.to_json().unwrap_or_default();
        let back = BenchReport::from_json(&json).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(back.entries.len(), 2);
        assert_eq!(back.entries[0].id, "matmul/64");
        assert_eq!(back.entries[1].ns_per_iter, 5.0);
    }

    #[test]
    fn validate_rejects_bad_reports() {
        let cases = [
            (r#"{"schema":"bogus/v9","name":"x","mode":"full","entries":[]}"#, "schema"),
            (r#"{"schema":"fedperf/v1","name":"x","mode":"warp","entries":[]}"#, "mode"),
            (r#"{"schema":"fedperf/v1","name":"x","mode":"full","entries":[]}"#, "empty"),
        ];
        for (text, why) in cases {
            let v: Value = serde_json::from_str(text).unwrap_or_else(|e| panic!("{e:?}"));
            assert!(validate(&v).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn validate_rejects_duplicate_ids_and_zero_iters() {
        let mut r = report(vec![entry("a/1", 1.0), entry("a/1", 2.0)]);
        let json = r.to_json().unwrap_or_default();
        assert!(BenchReport::from_json(&json).is_err());
        r.entries[1].id = "b/1".to_string();
        r.entries[1].iters = 0;
        let json = r.to_json().unwrap_or_default();
        assert!(BenchReport::from_json(&json).is_err());
    }

    #[test]
    fn gate_flags_regressions_only_above_threshold() {
        let base = report(vec![entry("a/1", 100.0), entry("b/1", 100.0)]);
        let cur = report(vec![entry("a/1", 120.0), entry("b/1", 130.0)]);
        let out = gate(&base, &cur, 1.25);
        assert!(!out.rows[0].failed);
        assert!(out.rows[1].failed);
        assert!(!out.passed());
        let ok = gate(&base, &cur, 1.5);
        assert!(ok.passed());
    }

    #[test]
    fn gate_fails_any_allocation_counter_above_the_baseline() {
        let mut base =
            report(vec![entry("a/1", 100.0), entry("b/1", 100.0), entry("c/1", 100.0)]);
        base.entries[2].bytes_per_iter = Some(64.0);
        let mut cur = base.clone();
        // Faster, but one more allocation per iteration.
        cur.entries[0].ns_per_iter = 50.0;
        cur.entries[0].allocs_per_iter = Some(1.0);
        cur.entries[1].bytes_per_iter = Some(8.0);
        // Fewer bytes than the baseline is an improvement, not a breach.
        cur.entries[2].bytes_per_iter = Some(32.0);
        let out = gate(&base, &cur, 1.25);
        assert!(out.rows[0].failed && out.rows[1].failed && !out.rows[2].failed);
        assert_eq!(out.rows[0].counter_breaches, vec!["allocs/iter 0.0 -> 1.0".to_string()]);
        assert_eq!(out.rows[1].counter_breaches, vec!["bytes/iter 0.0 -> 8.0".to_string()]);
        assert!(gate_table(&out, 1.25).contains("FAIL (allocs/iter 0.0 -> 1.0)"));
        // A side without counters (no `count-alloc`) is not compared.
        cur.entries[0].allocs_per_iter = None;
        cur.entries[1].bytes_per_iter = None;
        assert!(gate(&base, &cur, 1.25).passed());
    }

    #[test]
    fn gate_handles_disjoint_ids() {
        let base = report(vec![entry("gone/1", 10.0)]);
        let cur = report(vec![entry("new/1", 10.0)]);
        let out = gate(&base, &cur, 1.25);
        assert!(out.rows.is_empty());
        assert_eq!(out.new_ids, vec!["new/1".to_string()]);
        assert_eq!(out.missing_ids, vec!["gone/1".to_string()]);
        assert!(out.passed());
    }

    #[test]
    fn legacy_reports_without_ledger_stamp_still_parse() {
        let json = r#"{"schema":"fedperf/v1","name":"seed","mode":"full","entries":[
            {"id":"a/1","kind":"micro","op":"a","shape":"1","warmup":1,"iters":10,
             "repeats":3,"ns_per_iter":5.0,"bytes_per_iter":null,"allocs_per_iter":null}]}"#;
        let rep = BenchReport::from_json(json).unwrap_or_else(|e| panic!("{e}"));
        assert!(rep.config.is_empty() && rep.kernel.is_empty() && rep.features.is_empty());
    }

    #[test]
    fn comparability_refuses_kernel_or_feature_mismatch_when_both_stamped() {
        let mut base = report(vec![entry("a/1", 1.0)]);
        let mut cur = report(vec![entry("a/1", 1.0)]);
        // Either side unstamped (legacy baseline): compare unconditionally.
        cur.kernel = "tiled".to_string();
        cur.features = "count-alloc".to_string();
        assert!(check_comparable(&base, &cur).is_ok(), "legacy baseline must pass");
        // Both stamped and identical: fine.
        base.kernel = "tiled".to_string();
        base.features = "count-alloc".to_string();
        assert!(check_comparable(&base, &cur).is_ok());
        // Kernel differs: refused, naming both selectors.
        base.kernel = "reference".to_string();
        let err = check_comparable(&base, &cur).unwrap_err();
        assert!(err.contains("reference") && err.contains("tiled"), "{err}");
        // Feature set differs: refused.
        base.kernel = "tiled".to_string();
        base.features = "count-alloc,telemetry".to_string();
        assert!(check_comparable(&base, &cur).is_err());
        // Config digest alone differing does NOT refuse (different run
        // shapes may still be compared id-by-id; only the measurement
        // substrate is gated).
        base.features = "count-alloc".to_string();
        base.config = "aaaa".to_string();
        cur.config = "bbbb".to_string();
        assert!(check_comparable(&base, &cur).is_ok());
    }

    #[test]
    fn determinism_check_compares_counts_not_times() {
        let a = report(vec![entry("a/1", 100.0)]);
        let mut b = report(vec![entry("a/1", 900.0)]);
        assert!(check_determinism(&a, &b).is_ok(), "timings must not matter");
        b.entries[0].iters = 11;
        assert!(check_determinism(&a, &b).is_err());
        let c = report(vec![entry("c/1", 100.0)]);
        assert!(check_determinism(&a, &c).is_err());
    }

    #[test]
    fn tables_render() {
        let r = report(vec![entry("a/1", 1234.0)]);
        let t = human_table(&r);
        assert!(t.contains("a/1") && t.contains("µs"));
        let g = gate_table(&gate(&r, &r, 1.25), 1.25);
        assert!(g.contains("1.00x"));
    }
}
