//! Integration: the checked-in fixture trace (also used by the ci.sh
//! `fedobs summary` smoke stage) parses and summarizes to the expected tables.

// Module-level helpers sit outside #[test] fns, where clippy.toml's
// allow-expect-in-tests does not reach.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use fedprox_telemetry::jsonl;
use fedprox_telemetry::summary::TelemetryReport;

fn fixture() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/sample_trace.jsonl");
    std::fs::read_to_string(path).expect("fixture trace readable")
}

#[test]
fn fixture_parses_and_roundtrips() {
    let events = jsonl::parse(&fixture()).expect("fixture parses");
    assert_eq!(events.len(), 22);
    // Writer(parse(x)) must re-parse to the same events.
    let rewritten = jsonl::to_jsonl(&events);
    assert_eq!(jsonl::parse(&rewritten).expect("rewrite parses"), events);
}

#[test]
fn fixture_summary_has_expected_aggregates() {
    let events = jsonl::parse(&fixture()).expect("fixture parses");
    let report = TelemetryReport::from_events(&events);

    assert_eq!(report.rounds, 2);
    assert_eq!(report.span_events, 2);
    assert_eq!(report.dropped, 0);

    // span_stat records take precedence over raw spans for op totals.
    let softmax = report.ops.iter().find(|o| o.name == "softmax").expect("softmax op");
    assert_eq!(softmax.count, 480);
    // Sorted by total time: core.round is the slowest.
    assert_eq!(report.ops[0].name, "round");

    // Device 1 is the straggler.
    assert_eq!(report.devices[0].device, 1);
    assert!(report.devices[0].lag_s > 0.0);
    assert_eq!(report.devices[0].rounds, 2);

    // Bytes by message kind.
    let up = report
        .bytes
        .iter()
        .find(|b| b.kind == "local_model" && b.direction == "up")
        .expect("uplink bytes");
    assert_eq!(up.bytes, 2 * 9946);
    assert_eq!(up.rounds, 2);

    let evals = report.counters.iter().find(|(n, _)| n == "optim.grad_evals").expect("counter");
    assert_eq!(evals.1, 1024);
}

#[test]
fn fixture_render_prints_all_tables() {
    let events = jsonl::parse(&fixture()).expect("fixture parses");
    let text = TelemetryReport::from_events(&events).render(10);
    for needle in [
        "2 rounds",
        "slowest ops",
        "busiest devices",
        "bytes by message kind",
        "counters",
        "gauges",
        "histograms",
        "optim.inner_step",
        "global_model",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}
