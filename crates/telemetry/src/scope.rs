//! Algorithm-health reporting: the engine behind `fedobs health`.
//!
//! Operates on the health event family ([`Event::Health`],
//! [`Event::Anomaly`]) the core `HealthMonitor` emits into a run's
//! `--obs` stream (other event families are skipped). Three entry
//! points, mirroring the CLI:
//!
//! * [`HealthReport::from_events`] + [`HealthReport::render`] — a
//!   per-run health summary and per-round timeline,
//! * [`HealthReport::validate`] — schema/sanity validation for CI,
//! * [`diff`] — a regression view of two runs; a run *regresses* when
//!   it raises anomalies (per rule) that the baseline did not, which is
//!   what CI gates on.
//!
//! Like the rest of the crate's readers this module is pure: it never
//! touches the collector, so it builds and runs identically in
//! the default (telemetry-disabled) workspace configuration.

use crate::event::{AnomalyRule, Event};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One per-round health sample, extracted from [`Event::Health`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Global round index.
    pub round: u32,
    /// Training loss.
    pub train_loss: f64,
    /// Loss change versus the previous sample.
    pub loss_delta: f64,
    /// Squared gradient-mapping norm (eq. 12 gap).
    pub grad_norm_sq: f64,
    /// Measured θ, when the run measured it.
    pub theta: Option<f64>,
    /// Lemma 1 admissible θ lower bound.
    pub theta_lo: Option<f64>,
    /// Remark 2(1) admissible θ upper bound.
    pub theta_hi: Option<f64>,
    /// Theorem 1 stationarity envelope `Δ/(Θ·round)`.
    pub bound: Option<f64>,
    /// Mean squared direction norm across the round's inner steps.
    pub dir_mean_sq: f64,
    /// Welford M2 of squared direction norms.
    pub dir_m2: f64,
    /// Mean squared anchor direction norm.
    pub dir_anchor_sq: f64,
    /// Inner steps contributing to the direction statistics.
    pub dir_steps: u64,
    /// Straggler skew (networked runs only).
    pub skew: Option<f64>,
}

/// One typed anomaly, extracted from [`Event::Anomaly`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyRecord {
    /// Round the rule fired on.
    pub round: u32,
    /// Which rule fired.
    pub rule: AnomalyRule,
    /// Offending device, when attributed.
    pub device: Option<u32>,
    /// Measured value.
    pub value: f64,
    /// Threshold compared against.
    pub limit: f64,
}

/// Health view of one run: samples and anomalies in round order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Per-round samples, sorted by round.
    pub samples: Vec<Sample>,
    /// Anomalies, sorted by round then rule.
    pub anomalies: Vec<AnomalyRecord>,
}

impl HealthReport {
    /// Extract the health family from a flat event stream.
    pub fn from_events(events: &[Event]) -> Self {
        let mut samples = Vec::new();
        let mut anomalies = Vec::new();
        for ev in events {
            match ev {
                Event::Health {
                    round,
                    train_loss,
                    loss_delta,
                    grad_norm_sq,
                    theta,
                    theta_lo,
                    theta_hi,
                    bound,
                    dir_mean_sq,
                    dir_m2,
                    dir_anchor_sq,
                    dir_steps,
                    skew,
                } => samples.push(Sample {
                    round: *round,
                    train_loss: *train_loss,
                    loss_delta: *loss_delta,
                    grad_norm_sq: *grad_norm_sq,
                    theta: *theta,
                    theta_lo: *theta_lo,
                    theta_hi: *theta_hi,
                    bound: *bound,
                    dir_mean_sq: *dir_mean_sq,
                    dir_m2: *dir_m2,
                    dir_anchor_sq: *dir_anchor_sq,
                    dir_steps: *dir_steps,
                    skew: *skew,
                }),
                Event::Anomaly { round, rule, device, value, limit } => {
                    anomalies.push(AnomalyRecord {
                        round: *round,
                        rule: *rule,
                        device: *device,
                        value: *value,
                        limit: *limit,
                    });
                }
                _ => {}
            }
        }
        samples.sort_by_key(|s| s.round);
        anomalies.sort_by_key(|a| (a.round, a.rule));
        HealthReport { samples, anomalies }
    }

    /// Anomaly counts per rule, in [`AnomalyRule::all`] order (zero
    /// entries included so diffs can compare rule by rule).
    pub fn anomaly_counts(&self) -> BTreeMap<AnomalyRule, u64> {
        let mut counts: BTreeMap<AnomalyRule, u64> =
            AnomalyRule::all().into_iter().map(|r| (r, 0)).collect();
        for a in &self.anomalies {
            if let Some(c) = counts.get_mut(&a.rule) {
                *c += 1;
            }
        }
        counts
    }

    /// Schema/sanity validation for CI: at least one sample, rounds
    /// non-decreasing, and every non-optional field finite. Returns
    /// every violation found (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.samples.is_empty() {
            problems.push("no health samples in trace".to_string());
        }
        for pair in self.samples.windows(2) {
            if pair[1].round < pair[0].round {
                problems.push(format!(
                    "sample rounds out of order: {} after {}",
                    pair[1].round, pair[0].round
                ));
            }
        }
        for s in &self.samples {
            let named = [
                ("loss", s.train_loss),
                ("dloss", s.loss_delta),
                ("gap", s.grad_norm_sq),
                ("dir_mean_sq", s.dir_mean_sq),
                ("dir_m2", s.dir_m2),
                ("dir_anchor_sq", s.dir_anchor_sq),
            ];
            for (name, v) in named {
                if !v.is_finite() {
                    problems.push(format!("round {}: non-finite `{name}`", s.round));
                }
            }
        }
        for a in &self.anomalies {
            if !a.value.is_finite() || !a.limit.is_finite() {
                problems.push(format!(
                    "anomaly `{}` at round {}: non-finite value/limit",
                    a.rule.name(),
                    a.round
                ));
            }
        }
        problems
    }

    /// Render the health summary plus a per-round timeline.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fedobs health report: {} samples, {} anomalies",
            self.samples.len(),
            self.anomalies.len()
        );

        if let (Some(first), Some(last)) = (self.samples.first(), self.samples.last()) {
            let _ = writeln!(
                s,
                "loss {:.6} -> {:.6} over rounds {}..{}; final gap {:.3e}",
                first.train_loss, last.train_loss, first.round, last.round, last.grad_norm_sq
            );
            if let (Some(bound), gap) = (last.bound, last.grad_norm_sq) {
                let verdict = if gap <= bound { "within" } else { "ABOVE" };
                let _ = writeln!(
                    s,
                    "Theorem 1 envelope at round {}: {:.3e} ({verdict} predicted trajectory)",
                    last.round, bound
                );
            }
        }

        let counts = self.anomaly_counts();
        if self.anomalies.is_empty() {
            let _ = writeln!(s, "\nno anomalies.");
        } else {
            let _ = writeln!(s, "\n== anomalies by rule ==");
            for (rule, count) in &counts {
                if *count > 0 {
                    let _ = writeln!(s, "{:<18} {count:>6}", rule.name());
                }
            }
            let _ = writeln!(s, "\n== anomaly log ==");
            for a in &self.anomalies {
                let device = match a.device {
                    Some(d) => format!("device {d}"),
                    None => "-".to_string(),
                };
                let _ = writeln!(
                    s,
                    "round {:>5}  {:<18} {:<10} value {:.4e}  limit {:.4e}",
                    a.round,
                    a.rule.name(),
                    device,
                    a.value,
                    a.limit
                );
            }
        }

        if !self.samples.is_empty() {
            let _ = writeln!(s, "\n== timeline ==");
            let _ = writeln!(
                s,
                "{:>6} {:>12} {:>10} {:>10} {:>8} {:>10} {:>8} {:>8}",
                "round", "loss", "dloss", "gap", "theta", "vr_ratio", "skew", "flags"
            );
            let fmt_opt = |v: Option<f64>| match v {
                Some(v) => format!("{v:>8.3}"),
                None => format!("{:>8}", "-"),
            };
            for sample in &self.samples {
                let vr = if sample.dir_anchor_sq > 0.0 && sample.dir_steps > 0 {
                    format!("{:>10.3}", sample.dir_mean_sq / sample.dir_anchor_sq)
                } else {
                    format!("{:>10}", "-")
                };
                let flags: String = self
                    .anomalies
                    .iter()
                    .filter(|a| a.round == sample.round)
                    .map(|a| a.rule.name().chars().next().unwrap_or('?'))
                    .collect();
                let _ = writeln!(
                    s,
                    "{:>6} {:>12.6} {:>10.2e} {:>10.3e} {} {vr} {} {:>8}",
                    sample.round,
                    sample.train_loss,
                    sample.loss_delta,
                    sample.grad_norm_sq,
                    fmt_opt(sample.theta),
                    fmt_opt(sample.skew),
                    if flags.is_empty() { "-".to_string() } else { flags },
                );
            }
        }

        s
    }
}

/// Regression view of run `b` (candidate) against run `a` (baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthDiff {
    /// Per-rule anomaly counts `(baseline, candidate)`.
    pub rule_counts: Vec<(AnomalyRule, u64, u64)>,
    /// Final-loss pair `(baseline, candidate)`, when both runs sampled.
    pub final_loss: Option<(f64, f64)>,
    /// Final gradient-mapping gap pair, when both runs sampled.
    pub final_gap: Option<(f64, f64)>,
}

impl HealthDiff {
    /// True when the candidate raises anomalies the baseline lacks —
    /// strictly more firings of any rule.
    pub fn has_regression(&self) -> bool {
        self.rule_counts.iter().any(|(_, base, cand)| cand > base)
    }

    /// Render the per-rule table and trajectory deltas.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "fedobs health diff (baseline vs candidate)");
        let _ = writeln!(s, "{:<18} {:>10} {:>10} {:>10}", "rule", "baseline", "candidate", "delta");
        for (rule, base, cand) in &self.rule_counts {
            if *base == 0 && *cand == 0 {
                continue;
            }
            let delta = *cand as i64 - *base as i64;
            let _ = writeln!(s, "{:<18} {base:>10} {cand:>10} {delta:>+10}", rule.name());
        }
        if self.rule_counts.iter().all(|(_, b, c)| *b == 0 && *c == 0) {
            let _ = writeln!(s, "(no anomalies in either run)");
        }
        if let Some((base, cand)) = self.final_loss {
            let _ = writeln!(s, "final loss : {base:.6} -> {cand:.6} ({:+.3e})", cand - base);
        }
        if let Some((base, cand)) = self.final_gap {
            let _ = writeln!(s, "final gap  : {base:.3e} -> {cand:.3e} ({:+.3e})", cand - base);
        }
        let _ = writeln!(
            s,
            "verdict: {}",
            if self.has_regression() { "REGRESSION (new anomalies)" } else { "ok" }
        );
        s
    }
}

/// Compare candidate `b` against baseline `a`.
pub fn diff(a: &HealthReport, b: &HealthReport) -> HealthDiff {
    let ca = a.anomaly_counts();
    let cb = b.anomaly_counts();
    let rule_counts = AnomalyRule::all()
        .into_iter()
        .map(|r| (r, ca.get(&r).copied().unwrap_or(0), cb.get(&r).copied().unwrap_or(0)))
        .collect();
    let final_loss = match (a.samples.last(), b.samples.last()) {
        (Some(x), Some(y)) => Some((x.train_loss, y.train_loss)),
        _ => None,
    };
    let final_gap = match (a.samples.last(), b.samples.last()) {
        (Some(x), Some(y)) => Some((x.grad_norm_sq, y.grad_norm_sq)),
        _ => None,
    };
    HealthDiff { rule_counts, final_loss, final_gap }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(round: u32, loss: f64) -> Event {
        Event::Health {
            round,
            train_loss: loss,
            loss_delta: 0.0,
            grad_norm_sq: 0.01,
            theta: Some(0.3),
            theta_lo: None,
            theta_hi: Some(0.71),
            bound: Some(1.0),
            dir_mean_sq: 0.5,
            dir_m2: 0.1,
            dir_anchor_sq: 1.0,
            dir_steps: 10,
            skew: None,
        }
    }

    fn anomaly(round: u32, rule: AnomalyRule) -> Event {
        Event::Anomaly { round, rule, device: None, value: 2.0, limit: 1.0 }
    }

    #[test]
    fn report_extracts_and_sorts() {
        let events =
            vec![sample(2, 0.5), anomaly(1, AnomalyRule::LossGuard), sample(1, 0.6)];
        let r = HealthReport::from_events(&events);
        assert_eq!(r.samples.len(), 2);
        assert_eq!(r.samples[0].round, 1);
        assert_eq!(r.anomalies.len(), 1);
        assert!(r.validate().is_empty());
    }

    #[test]
    fn non_health_events_are_skipped() {
        let events = vec![Event::Dropped { count: 1 }, sample(1, 0.5)];
        let r = HealthReport::from_events(&events);
        assert_eq!((r.samples.len(), r.anomalies.len()), (1, 0));
        assert!(!r.render().contains("note:"), "an --obs file carries every event family");
    }

    #[test]
    fn validate_flags_empty_and_non_finite() {
        let empty = HealthReport::from_events(&[]);
        assert!(!empty.validate().is_empty());

        let mut bad = HealthReport::from_events(&[sample(1, 0.5)]);
        bad.samples[0].grad_norm_sq = f64::NAN;
        assert!(bad.validate().iter().any(|p| p.contains("gap")));
    }

    #[test]
    fn render_contains_timeline_and_anomalies() {
        let events = vec![sample(1, 0.6), sample(2, 0.5), anomaly(2, AnomalyRule::ThetaViolation)];
        let text = HealthReport::from_events(&events).render();
        for needle in ["timeline", "anomalies by rule", "theta_violation", "0.600000"] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn self_diff_is_clean() {
        let r = HealthReport::from_events(&[sample(1, 0.6), anomaly(1, AnomalyRule::LossGuard)]);
        let d = diff(&r, &r);
        assert!(!d.has_regression());
        assert!(d.render().contains("verdict: ok"));
    }

    #[test]
    fn new_anomaly_is_a_regression() {
        let base = HealthReport::from_events(&[sample(1, 0.6)]);
        let cand =
            HealthReport::from_events(&[sample(1, 0.6), anomaly(1, AnomalyRule::VrIneffective)]);
        let d = diff(&base, &cand);
        assert!(d.has_regression());
        assert!(d.render().contains("REGRESSION"));
        // The other direction — candidate *fixes* an anomaly — is not a
        // regression.
        assert!(!diff(&cand, &base).has_regression());
    }

    #[test]
    fn fewer_anomalies_not_a_regression_more_of_same_is() {
        let one = HealthReport::from_events(&[anomaly(1, AnomalyRule::Starvation)]);
        let two = HealthReport::from_events(&[
            anomaly(1, AnomalyRule::Starvation),
            anomaly(2, AnomalyRule::Starvation),
        ]);
        assert!(diff(&one, &two).has_regression());
        assert!(!diff(&two, &one).has_regression());
    }
}
