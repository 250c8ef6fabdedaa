//! Fixture tests: known-bad snippets per rule, asserting the exact rule
//! id and 1-indexed line of every finding, plus the annotation escape
//! hatch and the string-literal false-positive guard. The `dead-pub`
//! cases run the engine over the mini-workspace in
//! `tests/fixtures/dead_pub/`.

use fedprox_conformance::engine::{self, Analysis, Baseline};
use fedprox_conformance::{check_source, Rule, RuleSet};
use std::path::PathBuf;

fn findings(source: &str, rules: RuleSet) -> Vec<(Rule, usize)> {
    let report = check_source("fixture.rs", source, rules);
    assert!(
        report.bad_annotations.is_empty(),
        "unexpected malformed annotations: {:?}",
        report.bad_annotations
    );
    report.violations.iter().map(|v| (v.rule, v.line)).collect()
}

#[test]
fn r1_no_panic_flags_every_shape() {
    let src = "\
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap();
    let b = x.expect(\"msg\");
    panic!(\"boom\");
    todo!();
    unimplemented!()
}
";
    assert_eq!(
        findings(src, RuleSet::none().with(Rule::NoPanic)),
        vec![
            (Rule::NoPanic, 2),
            (Rule::NoPanic, 3),
            (Rule::NoPanic, 4),
            (Rule::NoPanic, 5),
            (Rule::NoPanic, 6),
        ]
    );
}

#[test]
fn r2_no_ambient_entropy() {
    let src = "\
fn f() {
    let mut rng = rand::thread_rng();
    let r2 = StdRng::from_entropy();
    let t = std::time::SystemTime::now();
}
";
    assert_eq!(
        findings(src, RuleSet::none().with(Rule::NoAmbientEntropy)),
        vec![
            (Rule::NoAmbientEntropy, 2),
            (Rule::NoAmbientEntropy, 3),
            (Rule::NoAmbientEntropy, 4),
        ]
    );
}

#[test]
fn r3_no_debug_print() {
    let src = "\
fn f(x: u32) {
    println!(\"x = {x}\");
    eprintln!(\"x = {x}\");
    let y = dbg!(x);
}
";
    assert_eq!(
        findings(src, RuleSet::none().with(Rule::NoDebugPrint)),
        vec![
            (Rule::NoDebugPrint, 2),
            (Rule::NoDebugPrint, 3),
            (Rule::NoDebugPrint, 4),
        ]
    );
}

#[test]
fn r4_unsafe_needs_safety_comment() {
    let bad = "\
fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
";
    assert_eq!(
        findings(bad, RuleSet::none().with(Rule::SafetyComment)),
        vec![(Rule::SafetyComment, 2)]
    );

    let good = "\
fn f(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid and aligned.
    unsafe { *p }
}
";
    assert_eq!(findings(good, RuleSet::none().with(Rule::SafetyComment)), vec![]);
}

#[test]
fn r5_lossy_casts_in_hot_paths() {
    let src = "\
fn f(x: f64, i: isize) -> f64 {
    let a = x as f32;
    let idx = i as usize;
    a as f64
}
";
    assert_eq!(
        findings(src, RuleSet::none().with(Rule::LossyCast)),
        vec![(Rule::LossyCast, 2), (Rule::LossyCast, 3)]
    );
}

#[test]
fn r6_wall_clock_flags_instant_and_system_time() {
    let src = "\
fn f() {
    let t0 = std::time::Instant::now();
    let t1 = Instant::now();
    let wall = std::time::SystemTime::now();
    let d = t0.elapsed();
}
";
    assert_eq!(
        findings(src, RuleSet::none().with(Rule::WallClock)),
        vec![
            (Rule::WallClock, 2),
            (Rule::WallClock, 3),
            (Rule::WallClock, 4),
        ]
    );
    // Pin the stable rule id used in reports and allow annotations.
    assert_eq!(Rule::WallClock.id(), "no-wall-clock");
    assert_eq!(Rule::from_id("no-wall-clock"), Some(Rule::WallClock));
}

#[test]
fn r6_wall_clock_annotation_and_prose_are_exempt() {
    let allowed = "\
fn f() {
    // fedlint: allow(no-wall-clock) — span timing is observability-only
    let t0 = std::time::Instant::now();
}
";
    let report = check_source("fixture.rs", allowed, RuleSet::none().with(Rule::WallClock));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.allowed.len(), 1);
    assert_eq!(report.allowed[0].rule, Rule::WallClock);

    // Identifiers merely *containing* the words, and strings/comments
    // mentioning them, never trigger.
    let prose = "\
fn f() {
    // Instant and SystemTime in prose are fine.
    let my_instant_count = 3;
    let s = \"Instant::now() SystemTime::now()\";
    let _ = (my_instant_count, s);
}
";
    let report = check_source("fixture.rs", prose, RuleSet::none().with(Rule::WallClock));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn annotation_suppresses_and_is_counted() {
    let src = "\
fn f(x: Option<u32>) -> u32 {
    // fedlint: allow(no-panic) — invariant: x is Some by construction
    x.unwrap()
}
";
    let report = check_source("fixture.rs", src, RuleSet::none().with(Rule::NoPanic));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.allowed.len(), 1);
    assert_eq!(report.allowed[0].rule, Rule::NoPanic);
    assert_eq!(report.allowed[0].line, 3);
    assert_eq!(report.allowed[0].reason, "invariant: x is Some by construction");
    assert!(report.is_clean());
}

#[test]
fn annotation_on_same_line_works_and_double_dash_accepted() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // fedlint: allow(no-panic) -- fixture\n";
    let report = check_source("fixture.rs", src, RuleSet::none().with(Rule::NoPanic));
    assert!(report.violations.is_empty());
    assert_eq!(report.allowed.len(), 1);
}

#[test]
fn annotation_for_wrong_rule_does_not_suppress() {
    let src = "\
fn f(x: Option<u32>) -> u32 {
    // fedlint: allow(no-debug-print) — wrong rule on purpose
    x.unwrap()
}
";
    let report = check_source("fixture.rs", src, RuleSet::none().with(Rule::NoPanic));
    assert_eq!(
        report.violations.iter().map(|v| (v.rule, v.line)).collect::<Vec<_>>(),
        vec![(Rule::NoPanic, 3)]
    );
}

#[test]
fn malformed_annotation_is_itself_a_finding() {
    // Missing the dash-separated reason.
    let src = "\
fn f(x: Option<u32>) -> u32 {
    // fedlint: allow(no-panic)
    x.unwrap()
}
";
    let report = check_source("fixture.rs", src, RuleSet::none().with(Rule::NoPanic));
    assert!(!report.bad_annotations.is_empty());
    assert!(!report.is_clean());
}

#[test]
fn string_literals_and_comments_never_trigger() {
    let src = "\
fn f() -> String {
    // This mentions unwrap() and panic! and println! in prose.
    let a = \"x.unwrap()\";
    let b = \"panic!(\\\"boom\\\")\";
    let c = r#\"thread_rng() println!(\"hi\")\"#;
    format!(\"{a}{b}{c}\")
}
";
    let report = check_source("fixture.rs", src, RuleSet::all());
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn test_modules_are_exempt_from_no_panic() {
    let src = "\
pub fn lib_code(x: Option<u32>) -> Option<u32> {
    x
}

#[cfg(test)]
mod tests {
    #[test]
    fn uses_unwrap_freely() {
        super::lib_code(Some(1)).unwrap();
        assert!(true);
    }
}
";
    let report = check_source("fixture.rs", src, RuleSet::none().with(Rule::NoPanic));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

#[test]
fn unwrap_or_and_friends_are_not_flagged() {
    let src = "\
fn f(x: Option<u32>) -> u32 {
    let a = x.unwrap_or(0);
    let b = x.unwrap_or_default();
    let c = x.unwrap_or_else(|| 1);
    a + b + c
}
";
    let report = check_source("fixture.rs", src, RuleSet::none().with(Rule::NoPanic));
    assert!(report.violations.is_empty(), "{:?}", report.violations);
}

const DEAD_PUB_ROOT: &str = "tests/fixtures/dead_pub";
const DEAD_PUB_LIB: &str = "crates/alpha/src/lib.rs";

fn dead_pub_analysis() -> Analysis {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(DEAD_PUB_ROOT);
    engine::analyze(&root).unwrap_or_else(|e| panic!("analyze {DEAD_PUB_ROOT}: {e}"))
}

/// 1-indexed line of the first fixture-library line containing `needle`.
fn lib_line(needle: &str) -> usize {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(DEAD_PUB_ROOT).join(DEAD_PUB_LIB);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    text.lines()
        .position(|l| l.contains(needle))
        .map(|i| i + 1)
        .unwrap_or_else(|| panic!("`{needle}` not in the fixture library"))
}

/// The `dead-pub` finding in `file` at `line`, if any.
fn dead_pub_at<'a>(a: &'a Analysis, file: &str, line: usize) -> Option<&'a engine::Finding> {
    a.findings.iter().find(|f| f.rule == Rule::DeadPub && f.file == file && f.line == line)
}

#[test]
fn dead_pub_spares_every_root_kind() {
    let a = dead_pub_analysis();
    for name in [
        "from_test",     // integration test
        "from_bin",      // binary
        "by_reference",  // binary, passed by path without parens
        "from_bench",    // fedbench/src
        "from_example",  // example
        "from_macro",    // macro_rules! body
        "side",          // trait impl
    ] {
        let line = lib_line(&format!("pub fn {name}("));
        assert!(dead_pub_at(&a, DEAD_PUB_LIB, line).is_none(), "{name} was flagged");
    }
    // Called through its file module: `wire::encode()`.
    assert!(dead_pub_at(&a, "crates/alpha/src/wire.rs", 2).is_none());
}

#[test]
fn dead_pub_flags_a_fn_only_its_own_test_module_calls() {
    let a = dead_pub_analysis();
    let f = dead_pub_at(&a, DEAD_PUB_LIB, lib_line("pub fn only_tested("))
        .unwrap_or_else(|| panic!("only_tested must be flagged: {:?}", a.findings));
    assert!(f.allowed.is_none());
    assert!(f.message.contains("alpha::only_tested"), "message names the fn: {}", f.message);
}

#[test]
fn dead_pub_annotation_allows_and_an_empty_reason_breaches() {
    let a = dead_pub_analysis();
    let allowed = dead_pub_at(&a, DEAD_PUB_LIB, lib_line("pub fn annotated("))
        .unwrap_or_else(|| panic!("the annotated site must still be reported"));
    assert_eq!(allowed.allowed.as_deref(), Some("called over the C ABI by the host runtime"));

    // The reasonless annotation is malformed: it breaches any baseline,
    // even one snapshotted from this very analysis, and suppresses nothing.
    let empty = lib_line("pub fn empty_reason(");
    assert!(
        a.bad_annotations.iter().any(|v| v.line == empty - 1),
        "{:?}",
        a.bad_annotations
    );
    assert!(dead_pub_at(&a, DEAD_PUB_LIB, empty).is_some_and(|f| f.allowed.is_none()));
    assert!(!engine::gate(&a, &Baseline::from_analysis(&a)).ok());
}
