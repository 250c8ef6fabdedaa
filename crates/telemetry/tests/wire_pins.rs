//! The `--obs` wire format, pinned: one line per `Event` variant as the
//! original hand-written JSONL writer emitted it, with a non-finite
//! float (written `null`), `None` options, control-character escapes,
//! integers past 2⁵³ and integral floats without a fraction. Each line
//! must parse to the same event, and today's writer must round-trip it.

use fedprox_telemetry::event::{AnomalyRule, Event};
use fedprox_telemetry::jsonl;

const PINNED: &[&str] = &[
    r#"{"t":"span","layer":"tensor","name":"matmul","us":12.5,"attrs":{"m":64,"k":0.1}}"#,
    r#"{"t":"span","layer":"core","name":"round","us":3,"attrs":{}}"#,
    r#"{"t":"span_stat","layer":"optim","name":"local_solve","count":3,"total_us":40,"max_us":null}"#,
    r#"{"t":"counter","name":"optim.grad_evals","value":9007199254740993}"#,
    r#"{"t":"counter","name":"ctl\u0001\u0008\u000c\u001f\"q\\\n\t\r θ/","value":18446744073709551615}"#,
    r#"{"t":"gauge","name":"core.model_dim","value":null}"#,
    r#"{"t":"hist","name":"net.lag_s","bounds":[0.001,1000000000000000000000,3],"counts":[1,2,0,4]}"#,
    r#"{"t":"device_round","round":2,"device":1,"download_s":0.05,"compute_s":0.4,"upload_s":0.05,"finish_s":0.5,"lag_s":-0.125}"#,
    r#"{"t":"bytes","round":2,"kind":"global_model","dir":"down","bytes":4885}"#,
    r#"{"t":"round_end","round":4294967295,"sim_time_s":1.5}"#,
    r#"{"t":"health","round":3,"loss":0.61,"dloss":-0.02,"gap":0.004,"theta":0.31,"theta_lo":0.12,"theta_hi":0.71,"bound":1.25,"dir_mean_sq":0.9,"dir_m2":0.04,"dir_anchor_sq":1.1,"dir_steps":80,"skew":0.5}"#,
    r#"{"t":"health","round":4,"loss":0.6,"dloss":null,"gap":0,"theta":null,"theta_lo":null,"theta_hi":null,"bound":null,"dir_mean_sq":0,"dir_m2":0,"dir_anchor_sq":0,"dir_steps":0,"skew":null}"#,
    r#"{"t":"anomaly","round":5,"rule":"participation_gap","device":null,"value":2000000000,"limit":1000000000}"#,
    r#"{"t":"anomaly","round":5,"rule":"theta_violation","device":3,"value":4,"limit":12}"#,
    r#"{"t":"participation","round":6,"responded":3,"crashed":1,"offline":0,"deadline_miss":1,"link_failed":0,"weight":0.55,"skipped":1}"#,
    r#"{"t":"path_stat","path":"round/device_update/local_solve/matvec","count":132,"total_us":812.25,"self_us":700.5,"max_us":41,"total_bytes":18446744073709551612,"self_bytes":4096,"total_allocs":640,"self_allocs":512}"#,
    r#"{"t":"trace_truncated","dropped_spans":19}"#,
    r#"{"t":"dropped","count":7}"#,
    r#"{"t":"run_meta","version":1,"config":"9e3779b97f4a7c15","seed":18446744073709551615,"kernel":"tiled","faults":"cbf29ce484222325","features":"telemetry,check","crates":"fedprox=0.1.0"}"#,
    r#"{"t":"postmortem","round":4,"reason":"quorum_skip","device":1}"#,
    r#"{"t":"postmortem","round":7,"reason":"non_finite","device":null}"#,
];

fn expected() -> Vec<Event> {
    let nan = f64::NAN;
    vec![
        Event::Span { layer: "tensor".into(), name: "matmul".into(), micros: 12.5, attrs: vec![("m".into(), 64.0), ("k".into(), 0.1)] },
        Event::Span { layer: "core".into(), name: "round".into(), micros: 3.0, attrs: vec![] },
        Event::SpanStat { layer: "optim".into(), name: "local_solve".into(), count: 3, total_micros: 40.0, max_micros: nan },
        Event::Counter { name: "optim.grad_evals".into(), value: (1 << 53) + 1 },
        Event::Counter { name: "ctl\u{1}\u{8}\u{c}\u{1f}\"q\\\n\t\r θ/".into(), value: u64::MAX },
        Event::Gauge { name: "core.model_dim".into(), value: nan },
        Event::Histogram { name: "net.lag_s".into(), bounds: vec![0.001, 1e21, 3.0], counts: vec![1, 2, 0, 4] },
        Event::DeviceRound { round: 2, device: 1, download_s: 0.05, compute_s: 0.4, upload_s: 0.05, finish_s: 0.5, lag_s: -0.125 },
        Event::Bytes { round: 2, kind: "global_model".into(), direction: "down".into(), bytes: 4885 },
        Event::RoundEnd { round: u32::MAX, sim_time_s: 1.5 },
        Event::Health { round: 3, train_loss: 0.61, loss_delta: -0.02, grad_norm_sq: 0.004, theta: Some(0.31), theta_lo: Some(0.12), theta_hi: Some(0.71), bound: Some(1.25), dir_mean_sq: 0.9, dir_m2: 0.04, dir_anchor_sq: 1.1, dir_steps: 80, skew: Some(0.5) },
        Event::Health { round: 4, train_loss: 0.6, loss_delta: nan, grad_norm_sq: 0.0, theta: None, theta_lo: None, theta_hi: None, bound: None, dir_mean_sq: 0.0, dir_m2: 0.0, dir_anchor_sq: 0.0, dir_steps: 0, skew: None },
        Event::Anomaly { round: 5, rule: AnomalyRule::ParticipationGap, device: None, value: 2.0e9, limit: 1.0e9 },
        Event::Anomaly { round: 5, rule: AnomalyRule::ThetaViolation, device: Some(3), value: 4.0, limit: 12.0 },
        Event::Participation { round: 6, responded: 3, crashed: 1, offline: 0, deadline_miss: 1, link_failed: 0, weight: 0.55, skipped: 1 },
        Event::PathStat { path: "round/device_update/local_solve/matvec".into(), count: 132, total_micros: 812.25, self_micros: 700.5, max_micros: 41.0, total_bytes: u64::MAX - 3, self_bytes: 4096, total_allocs: 640, self_allocs: 512 },
        Event::TraceTruncated { dropped_spans: 19 },
        Event::Dropped { count: 7 },
        Event::RunMeta { version: 1, config: "9e3779b97f4a7c15".into(), seed: u64::MAX, kernel: "tiled".into(), faults: "cbf29ce484222325".into(), features: "telemetry,check".into(), crates: "fedprox=0.1.0".into() },
        Event::Postmortem { round: 4, reason: "quorum_skip".into(), device: Some(1) },
        Event::Postmortem { round: 7, reason: "non_finite".into(), device: None },
    ]
}

/// `Debug` equality, so a NaN read back from `null` matches a NaN.
fn same(a: &Event, b: &Event) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

#[test]
fn pinned_lines_parse_to_the_same_events_and_round_trip() {
    let want = expected();
    assert_eq!(PINNED.len(), want.len());
    for (line, want) in PINNED.iter().zip(&want) {
        let got = jsonl::parse_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert!(same(&got, want), "{line}\n  parsed {got:?}\n  wanted {want:?}");
        let written = jsonl::write_line(&got);
        assert!(written.starts_with(&format!("{{\"t\":\"{}\",", want.kind())), "{written}");
        let again = jsonl::parse_line(&written).expect("rewritten line parses");
        assert!(same(&again, want), "rewrite of {line} drifted: {again:?}");
    }
    let kinds: std::collections::BTreeSet<&str> = want.iter().map(Event::kind).collect();
    assert_eq!(kinds.len(), 16, "one pin per Event variant");
}

#[test]
fn deeply_nested_line_is_a_parse_error_on_its_line() {
    let trace = format!("{}\n{}\n", "[".repeat(50_000), PINNED[0]);
    let err = jsonl::parse(&trace).expect_err("nesting past the cap must not parse");
    assert_eq!(err.line, 1);
    assert!(err.message.contains("nesting"), "{err}");
}
