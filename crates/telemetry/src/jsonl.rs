//! JSONL encoding of telemetry events: one JSON object per line, the
//! derived wire form of [`Event`] (a `"t"` tag, see [`Event::kind`]),
//! written by the derived `Serialize::write_json` and read by the
//! vendored `serde_json`. Non-finite floats
//! write as `null` and read back as NaN; absent options are `null`.

use crate::event::Event;
use serde::Serialize as _;

/// Encode one event as a single JSON line (no trailing newline).
pub fn write_line(event: &Event) -> String {
    let mut out = String::new();
    event.write_json(&mut out);
    out
}

/// Encode a whole trace, one event per line, trailing newline included.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        e.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// A parse failure with its 1-indexed source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-indexed line of the offending record.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse one JSONL line into an event.
pub fn parse_line(line: &str) -> Result<Event, String> {
    serde_json::from_str(line).map_err(|e| e.to_string())
}

/// Parse a whole JSONL trace. Blank lines are skipped; any malformed
/// line fails the parse with its line number.
pub fn parse(trace: &str) -> Result<Vec<Event>, ParseError> {
    let mut out = Vec::new();
    for (idx, line) in trace.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(ev) => out.push(ev),
            Err(message) => return Err(ParseError { line: idx + 1, message }),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AnomalyRule;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Span {
                layer: "tensor".into(),
                name: "matmul".into(),
                micros: 12.5,
                attrs: vec![("m".into(), 64.0), ("k".into(), 10.0), ("n".into(), 8.0)],
            },
            Event::SpanStat {
                layer: "tensor".into(),
                name: "matmul".into(),
                count: 3,
                total_micros: 40.0,
                max_micros: 20.25,
            },
            Event::Counter { name: "optim.inner_step".into(), value: u64::MAX },
            Event::Gauge { name: "core.model_dim".into(), value: 610.0 },
            Event::Histogram {
                name: "net.lag_s".into(),
                bounds: vec![0.001, 0.01, 0.1],
                counts: vec![1, 2, 3, 4],
            },
            Event::DeviceRound {
                round: 2,
                device: 1,
                download_s: 0.05,
                compute_s: 0.4,
                upload_s: 0.05,
                finish_s: 0.5,
                lag_s: 0.125,
            },
            Event::Bytes { round: 2, kind: "global_model".into(), direction: "down".into(), bytes: 4885 },
            Event::RoundEnd { round: 2, sim_time_s: 1.5 },
            Event::Health {
                round: 3,
                train_loss: 0.61,
                loss_delta: -0.02,
                grad_norm_sq: 0.004,
                theta: Some(0.31),
                theta_lo: Some(0.12),
                theta_hi: Some(0.71),
                bound: Some(1.25),
                dir_mean_sq: 0.9,
                dir_m2: 0.04,
                dir_anchor_sq: 1.1,
                dir_steps: 80,
                skew: Some(0.5),
            },
            Event::Health {
                round: 4,
                train_loss: 0.6,
                loss_delta: -0.01,
                grad_norm_sq: 0.003,
                theta: None,
                theta_lo: None,
                theta_hi: None,
                bound: None,
                dir_mean_sq: 0.0,
                dir_m2: 0.0,
                dir_anchor_sq: 0.0,
                dir_steps: 0,
                skew: None,
            },
            Event::Anomaly {
                round: 5,
                rule: AnomalyRule::LossGuard,
                device: None,
                value: 2.0e9,
                limit: 1.0e9,
            },
            Event::Anomaly {
                round: 5,
                rule: AnomalyRule::Starvation,
                device: Some(3),
                value: 4.0,
                limit: 12.0,
            },
            Event::Participation {
                round: 6,
                responded: 3,
                crashed: 1,
                offline: 0,
                deadline_miss: 1,
                link_failed: 0,
                weight: 0.55,
                skipped: 1,
            },
            Event::PathStat {
                path: "round/device_update/local_solve/matmul".into(),
                count: 132,
                total_micros: 812.25,
                self_micros: 700.5,
                max_micros: 41.0,
                total_bytes: u64::MAX - 3,
                self_bytes: 4096,
                total_allocs: 640,
                self_allocs: 512,
            },
            Event::TraceTruncated { dropped_spans: 19 },
            Event::Dropped { count: 7 },
            Event::RunMeta {
                version: 1,
                config: "9e3779b97f4a7c15".into(),
                seed: 42,
                kernel: "tiled-par".into(),
                faults: "cbf29ce484222325".into(),
                features: "telemetry".into(),
                crates: "fedprox=0.1.0".into(),
            },
            Event::Postmortem { round: 4, reason: "quorum_skip".into(), device: Some(1) },
            Event::Postmortem { round: 7, reason: "non_finite".into(), device: None },
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        let events = sample_events();
        let text = to_jsonl(&events);
        let back = parse(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn blank_lines_skipped() {
        let text = format!("\n{}\n\n", write_line(&Event::Dropped { count: 1 }));
        assert_eq!(parse(&text).unwrap().len(), 1);
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = parse("{\"t\":\"dropped\",\"count\":1}\nnot json\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(parse_line("{\"t\":\"mystery\"}").is_err());
    }

    #[test]
    fn every_anomaly_rule_roundtrips() {
        for rule in AnomalyRule::all() {
            let ev = Event::Anomaly { round: 1, rule, device: Some(0), value: 1.0, limit: 2.0 };
            assert_eq!(parse_line(&write_line(&ev)).unwrap(), ev);
        }
    }

    #[test]
    fn unknown_anomaly_rule_rejected() {
        let line = "{\"t\":\"anomaly\",\"round\":1,\"rule\":\"gremlins\",\"device\":null,\"value\":1,\"limit\":2}";
        assert!(parse_line(line).is_err());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let ev = Event::Counter { name: "weird \"name\"\n\\tab\t".into(), value: 3 };
        let back = parse_line(&write_line(&ev)).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn u64_precision_survives() {
        let ev = Event::Counter { name: "big".into(), value: u64::MAX - 1 };
        let back = parse_line(&write_line(&ev)).unwrap();
        assert_eq!(back, ev);
    }
}
