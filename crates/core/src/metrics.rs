//! Per-round metric records and export.

use crate::config::ConfigSummary;
use fedprox_faults::RoundParticipation;
use serde::{Deserialize, Serialize};

/// Overflow-safe running total for the cumulative [`RoundRecord`] fields
/// (`grad_evals`, `bytes`). Accumulation saturates at `u64::MAX` instead
/// of wrapping, so the per-round totals stay monotone non-decreasing even
/// under degenerate configurations (huge τ × rounds × devices products).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunningTotal(u64);

impl RunningTotal {
    /// A zeroed total.
    pub fn new() -> Self {
        RunningTotal(0)
    }

    /// Add `delta`, saturating at `u64::MAX`.
    pub fn add(&mut self, delta: u64) {
        self.0 = self.0.saturating_add(delta);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Metrics captured at one evaluated global iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Global iteration index `s` (1-based, matching the paper).
    pub round: usize,
    /// Global training loss `F̄(w̄^{(s)})`.
    pub train_loss: f64,
    /// Test accuracy of the global model.
    pub test_accuracy: f64,
    /// Stationarity gap `‖∇F̄(w̄^{(s)})‖²` (eq. (12)).
    pub grad_norm_sq: f64,
    /// Mean measured local accuracy ratio (criterion (11)), if enabled.
    pub theta_measured: Option<f64>,
    /// Simulated time at the end of this round (networked backend only).
    pub sim_time: f64,
    /// Cumulative uplink + downlink bytes (networked backend only).
    pub bytes: u64,
    /// Cumulative per-sample gradient evaluations across all devices.
    pub grad_evals: u64,
}

/// Why (and where) a run was recorded as diverged — the typed
/// replacement for the old bare `diverged: bool` flag. Serialized into
/// results JSON; old files without the field deserialize as
/// [`DivergenceCause::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DivergenceCause {
    /// The run completed without tripping a divergence check.
    #[default]
    None,
    /// Aggregated parameters went non-finite. `device` names the first
    /// participating device whose local update was itself non-finite,
    /// when one could be attributed (the networked backend and
    /// aggregation-only blowups report `None`).
    NonFinite {
        /// Global round the check tripped on.
        round: usize,
        /// First offending device, when attributable.
        device: Option<usize>,
    },
    /// Evaluated training loss crossed the configured loss guard (or
    /// went non-finite while the parameters stayed finite).
    LossGuard {
        /// Global round the check tripped on.
        round: usize,
    },
}

impl DivergenceCause {
    /// True for any cause other than [`DivergenceCause::None`].
    pub fn is_diverged(&self) -> bool {
        !matches!(self, DivergenceCause::None)
    }

    /// The round the divergence was detected on, if any.
    pub fn round(&self) -> Option<usize> {
        match self {
            DivergenceCause::None => None,
            DivergenceCause::NonFinite { round, .. } | DivergenceCause::LossGuard { round } => {
                Some(*round)
            }
        }
    }
}

/// The full trajectory of one training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct History {
    /// Configuration that produced this history.
    pub config: ConfigSummary,
    /// Evaluated rounds, in order.
    pub records: Vec<RoundRecord>,
    /// Divergence cause (round, device, rule); `None` for a clean run.
    /// Results JSON predating this field deserializes to `None`.
    #[serde(default)]
    pub divergence: DivergenceCause,
    /// Rounds actually executed (≤ configured when diverged).
    pub rounds_run: usize,
    /// Final simulated training time (networked backend only).
    pub total_sim_time: f64,
    /// The trained global model `w̄^{(T)}` (empty when the run produced
    /// no rounds).
    #[serde(default)]
    pub final_model: Vec<f64>,
    /// Per-round device participation, one entry per executed round —
    /// recorded only by resilient runs (a configured
    /// [`fedprox_faults::Resilience`]); empty otherwise, and for results
    /// JSON predating the field.
    #[serde(default)]
    pub participation: Vec<RoundParticipation>,
}

impl History {
    /// Whether the run diverged (compatibility accessor over
    /// [`History::divergence`]).
    pub fn diverged(&self) -> bool {
        self.divergence.is_diverged()
    }

    /// Best test accuracy seen at any evaluated round.
    pub fn best_accuracy(&self) -> f64 {
        self.records.iter().map(|r| r.test_accuracy).fold(0.0, f64::max)
    }

    /// Training loss at the last evaluated round.
    pub fn final_loss(&self) -> Option<f64> {
        self.records.last().map(|r| r.train_loss)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        // History serialization is infallible (plain data, no maps with
        // non-string keys); an empty string would only ever surface from
        // a serde bug.
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Render as CSV (`round,train_loss,test_accuracy,grad_norm_sq,...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "round,train_loss,test_accuracy,grad_norm_sq,theta_measured,sim_time,bytes,grad_evals\n",
        );
        for r in &self.records {
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                r.round,
                r.train_loss,
                r.test_accuracy,
                r.grad_norm_sq,
                r.theta_measured.map_or(String::new(), |t| t.to_string()),
                r.sim_time,
                r.bytes,
                r.grad_evals
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, loss: f64, acc: f64) -> RoundRecord {
        RoundRecord {
            round,
            train_loss: loss,
            test_accuracy: acc,
            grad_norm_sq: loss * 2.0,
            theta_measured: None,
            sim_time: 0.0,
            bytes: 0,
            grad_evals: 0,
        }
    }

    fn history() -> History {
        History {
            config: ConfigSummary {
                algorithm: "fedavg".into(),
                beta: 5.0,
                tau: 10,
                mu: 0.0,
                batch_size: 32,
                rounds: 3,
                eta: 0.2,
                seed: 0,
                l1: 0.0,
                participation: 1.0,
                uniform_random_iterate: false,
            },
            records: vec![record(1, 2.0, 0.3), record(2, 1.0, 0.6), record(3, 0.5, 0.55)],
            divergence: DivergenceCause::None,
            rounds_run: 3,
            total_sim_time: 0.0,
            final_model: vec![0.5, -0.5],
            participation: Vec::new(),
        }
    }

    #[test]
    fn summary_statistics() {
        let h = history();
        assert_eq!(h.best_accuracy(), 0.6);
        assert_eq!(h.final_loss(), Some(0.5));
    }

    #[test]
    fn json_roundtrip() {
        let h = history();
        let s = h.to_json();
        let back = History::from_json(&s).unwrap();
        assert_eq!(back.records, h.records);
        assert_eq!(back.config, h.config);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = history().to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("round,train_loss"));
        assert!(lines[1].starts_with("1,2,0.3"));
    }

    #[test]
    fn running_total_saturates_instead_of_wrapping() {
        let mut t = RunningTotal::new();
        t.add(u64::MAX - 5);
        t.add(3);
        assert_eq!(t.get(), u64::MAX - 2);
        t.add(100); // would wrap; must pin at MAX
        assert_eq!(t.get(), u64::MAX);
        t.add(u64::MAX);
        assert_eq!(t.get(), u64::MAX);
    }

    #[test]
    fn cumulative_record_totals_are_monotone_non_decreasing() {
        // Simulate the trainer's accumulation across rounds, including a
        // delta large enough to overflow a wrapping add, and check the
        // recorded totals never decrease.
        let deltas = [10u64, 1 << 40, u64::MAX / 2, u64::MAX, 7];
        let mut evals = RunningTotal::new();
        let mut bytes = RunningTotal::new();
        let mut records = Vec::new();
        for (i, &d) in deltas.iter().enumerate() {
            evals.add(d);
            bytes.add(d / 2);
            let mut r = record(i + 1, 1.0, 0.5);
            r.grad_evals = evals.get();
            r.bytes = bytes.get();
            records.push(r);
        }
        for pair in records.windows(2) {
            assert!(
                pair[1].grad_evals >= pair[0].grad_evals,
                "grad_evals decreased: {} -> {}",
                pair[0].grad_evals,
                pair[1].grad_evals
            );
            assert!(pair[1].bytes >= pair[0].bytes, "bytes decreased");
        }
        assert_eq!(records.last().unwrap().grad_evals, u64::MAX);
    }

    #[test]
    fn divergence_cause_roundtrips_and_accessors() {
        for cause in [
            DivergenceCause::None,
            DivergenceCause::NonFinite { round: 7, device: Some(2) },
            DivergenceCause::NonFinite { round: 3, device: None },
            DivergenceCause::LossGuard { round: 11 },
        ] {
            let mut h = history();
            h.divergence = cause;
            let back = History::from_json(&h.to_json()).unwrap();
            assert_eq!(back.divergence, cause);
            assert_eq!(back.diverged(), cause.is_diverged());
        }
        assert!(!DivergenceCause::None.is_diverged());
        assert_eq!(DivergenceCause::None.round(), None);
        assert_eq!(DivergenceCause::LossGuard { round: 4 }.round(), Some(4));
        assert_eq!(
            DivergenceCause::NonFinite { round: 9, device: Some(1) }.round(),
            Some(9)
        );
    }

    #[test]
    fn legacy_json_without_divergence_field_parses_clean() {
        // Results files written before the DivergenceCause change carry
        // `"diverged": bool` and no `divergence` key; they must still
        // parse, defaulting to no divergence.
        let mut legacy = history().to_json();
        legacy = legacy.replace("\"divergence\": \"None\"", "\"diverged\": false");
        assert!(legacy.contains("\"diverged\""), "substitution failed: {legacy}");
        let h = History::from_json(&legacy).unwrap();
        assert_eq!(h.divergence, DivergenceCause::None);
        assert!(!h.diverged());
    }

    #[test]
    fn participation_records_roundtrip_and_default_empty() {
        use fedprox_faults::DeviceOutcome;
        let mut h = history();
        h.participation = vec![
            RoundParticipation {
                round: 1,
                outcomes: vec![DeviceOutcome::Responded, DeviceOutcome::Responded],
                responder_weight: 1.0,
                skipped: false,
                sampled: None,
            },
            RoundParticipation {
                round: 2,
                outcomes: vec![DeviceOutcome::Responded, DeviceOutcome::Crashed],
                responder_weight: 0.6,
                skipped: true,
                sampled: None,
            },
        ];
        let back = History::from_json(&h.to_json()).unwrap();
        assert_eq!(back.participation, h.participation);
        // Results JSON predating fedresil carries no participation key;
        // it must parse with the field defaulting to empty.
        let compact = serde_json::to_string(&history()).unwrap();
        let legacy = compact.replace("\"participation\":[]", "\"pre_fedresil_probe\":[]");
        assert_ne!(legacy, compact, "substitution failed: {compact}");
        let h = History::from_json(&legacy).unwrap();
        assert!(h.participation.is_empty());
    }

    #[test]
    fn empty_history_edge_cases() {
        let mut h = history();
        h.records.clear();
        assert_eq!(h.best_accuracy(), 0.0);
        assert_eq!(h.final_loss(), None);
    }
}
