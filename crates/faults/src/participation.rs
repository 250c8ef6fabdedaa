//! Per-round participation records: who responded, who didn't, and why.
//!
//! Backends running with a [`Resilience`] policy produce one
//! [`RoundParticipation`] per global round; `History` carries the list
//! so a finished run documents exactly which devices contributed to
//! each aggregation — the ground truth the resilience experiments and
//! the `participation_gap` health rule read.
//!
//! [`Resilience`]: crate::policy::Resilience

use serde::{Deserialize, Serialize};

/// What one device did in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum DeviceOutcome {
    /// Finished its local work and was included in the aggregation (or
    /// would have been, had the round met quorum).
    Responded,
    /// Permanently dead — planned crash or panicked worker under a
    /// crash-tolerant policy. Never returns in later rounds.
    Crashed,
    /// Inside a planned offline window; will rejoin when it ends.
    Offline,
    /// Finished after the round deadline and was excluded.
    DeadlineMiss,
    /// Its link exhausted the retry policy this round; the device is
    /// back next round.
    LinkFailed,
    /// Not sampled into this round's participant set (partial
    /// participation in the local backends).
    NotSelected,
}

impl DeviceOutcome {
    /// Stable snake_case name, matching the serialized form.
    pub fn name(self) -> &'static str {
        match self {
            DeviceOutcome::Responded => "responded",
            DeviceOutcome::Crashed => "crashed",
            DeviceOutcome::Offline => "offline",
            DeviceOutcome::DeadlineMiss => "deadline_miss",
            DeviceOutcome::LinkFailed => "link_failed",
            DeviceOutcome::NotSelected => "not_selected",
        }
    }
}

/// The participation record of one global round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundParticipation {
    /// 1-based global round `s`.
    pub round: usize,
    /// Outcome per device. Indexed by **stable device id** when
    /// [`RoundParticipation::sampled`] is `None`; otherwise `outcomes[j]`
    /// describes device `sampled[j]`.
    pub outcomes: Vec<DeviceOutcome>,
    /// Responding fraction of the total federation aggregation weight
    /// (`Σ D_n/D` over responders), in `[0, 1]`.
    pub responder_weight: f64,
    /// True when the round failed quorum and was skipped: the global
    /// model was left unchanged and no aggregation happened.
    #[serde(default)]
    pub skipped: bool,
    /// Sampled-population (compact) form, used by the event-driven
    /// backend when the population is too large for an outcome per
    /// device: the stable ids of this round's sampled devices, aligned
    /// with `outcomes`. Devices outside the list were not selected.
    /// `None` (the default, and what the full-population backends write)
    /// means `outcomes` is indexed directly by device id.
    #[serde(default)]
    pub sampled: Option<Vec<u32>>,
}

impl RoundParticipation {
    /// Number of devices that responded.
    pub fn responders(&self) -> usize {
        self.count(DeviceOutcome::Responded)
    }

    /// The outcome of the device with stable id `device`:
    /// `NotSelected` for devices outside a compact record's sampled set
    /// (or beyond a dense record's population).
    pub fn outcome_of(&self, device: usize) -> DeviceOutcome {
        match &self.sampled {
            Some(ids) => ids
                .iter()
                .position(|&d| d as usize == device)
                .and_then(|j| self.outcomes.get(j).copied())
                .unwrap_or(DeviceOutcome::NotSelected),
            None => self.outcomes.get(device).copied().unwrap_or(DeviceOutcome::NotSelected),
        }
    }

    /// Number of devices with the given outcome.
    pub fn count(&self, outcome: DeviceOutcome) -> usize {
        self.outcomes.iter().filter(|&&o| o == outcome).count()
    }

    /// Responding fraction of the device count (not weight), ignoring
    /// devices the sampler never selected.
    pub fn responder_fraction(&self) -> f64 {
        let eligible = self.outcomes.len() - self.count(DeviceOutcome::NotSelected);
        if eligible == 0 {
            return 0.0;
        }
        self.responders() as f64 / eligible as f64
    }

    /// The **stable id** of the device a quorum skip is blamed on: the
    /// first crashed device when any crashed, otherwise the first one
    /// that failed to respond for another reason (offline, deadline
    /// miss, failed link). Compact records translate the outcome
    /// position through [`RoundParticipation::sampled`]; in dense ones
    /// the position is the id. `None` when everyone who was selected
    /// responded and the weight still missed quorum.
    pub fn attribute_skip(&self) -> Option<u32> {
        let pos = self
            .outcomes
            .iter()
            .position(|o| *o == DeviceOutcome::Crashed)
            .or_else(|| {
                self.outcomes.iter().position(|o| {
                    !matches!(o, DeviceOutcome::Responded | DeviceOutcome::NotSelected)
                })
            })?;
        match &self.sampled {
            Some(ids) => ids.get(pos).copied(),
            None => Some(pos as u32),
        }
    }
}

/// Aggregate view over a run's participation records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParticipationSummary {
    /// Rounds covered.
    pub rounds: usize,
    /// Rounds skipped for failing quorum.
    pub skipped_rounds: usize,
    /// Distinct devices that ended the run crashed.
    pub crashed_devices: usize,
    /// Mean over rounds of the responding weight fraction.
    pub mean_responder_weight: f64,
    /// Total deadline misses across all rounds and devices.
    pub deadline_misses: usize,
    /// Total retry-exhausted link failures across all rounds and devices.
    pub link_failures: usize,
}

/// Summarize a run's participation records. An empty slice gives the
/// all-zero summary with `mean_responder_weight` 0.0.
pub fn summarize(records: &[RoundParticipation]) -> ParticipationSummary {
    let rounds = records.len();
    let skipped_rounds = records.iter().filter(|r| r.skipped).count();
    // Distinct ids, not the last round's count: compact (sampled)
    // records only mention a crashed device in rounds that sampled it,
    // so the final record may miss crashes observed earlier. Dense
    // records are unaffected — crashes are monotone, so their last
    // round already lists every crashed device exactly once.
    let mut crashed_ids: Vec<usize> = records
        .iter()
        .flat_map(|r| {
            r.outcomes.iter().enumerate().filter(|&(_, &o)| o == DeviceOutcome::Crashed).map(
                move |(j, _)| match &r.sampled {
                    Some(ids) => ids.get(j).map(|&d| d as usize).unwrap_or(j),
                    None => j,
                },
            )
        })
        .collect();
    crashed_ids.sort_unstable();
    crashed_ids.dedup();
    let crashed_devices = crashed_ids.len();
    let mean_responder_weight = if rounds == 0 {
        0.0
    } else {
        records.iter().map(|r| r.responder_weight).sum::<f64>() / rounds as f64
    };
    let deadline_misses = records.iter().map(|r| r.count(DeviceOutcome::DeadlineMiss)).sum();
    let link_failures = records.iter().map(|r| r.count(DeviceOutcome::LinkFailed)).sum();
    ParticipationSummary {
        rounds,
        skipped_rounds,
        crashed_devices,
        mean_responder_weight,
        deadline_misses,
        link_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: usize, outcomes: Vec<DeviceOutcome>, weight: f64) -> RoundParticipation {
        RoundParticipation {
            round,
            outcomes,
            responder_weight: weight,
            skipped: false,
            sampled: None,
        }
    }

    #[test]
    fn counts_and_fractions() {
        use DeviceOutcome::*;
        let r = record(1, vec![Responded, Crashed, Responded, NotSelected], 0.6);
        assert_eq!(r.responders(), 2);
        assert_eq!(r.count(Crashed), 1);
        assert!((r.responder_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_counts_crashes_in_dense_records() {
        use DeviceOutcome::*;
        let records = vec![
            record(1, vec![Responded, Responded, Responded], 1.0),
            record(2, vec![Responded, LinkFailed, Responded], 0.7),
            RoundParticipation {
                round: 3,
                outcomes: vec![Responded, Crashed, DeadlineMiss],
                responder_weight: 0.3,
                skipped: true,
                sampled: None,
            },
        ];
        let s = summarize(&records);
        assert_eq!(s.rounds, 3);
        assert_eq!(s.skipped_rounds, 1);
        assert_eq!(s.crashed_devices, 1);
        assert_eq!(s.deadline_misses, 1);
        assert_eq!(s.link_failures, 1);
        assert!((s.mean_responder_weight - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_records_summarize_to_zero() {
        let s = summarize(&[]);
        assert_eq!(s.rounds, 0);
        assert_eq!(s.mean_responder_weight, 0.0);
    }

    #[test]
    fn summary_counts_distinct_crashes_across_compact_records() {
        use DeviceOutcome::*;
        // Compact (sampled) records: a crashed device appears only in
        // rounds that sample it. Device 28563 crashes in round 1, is
        // sampled crashed again in round 2, and the final round never
        // samples it — it must still count exactly once.
        let compact = |round, ids: Vec<u32>, outcomes, weight| RoundParticipation {
            round,
            outcomes,
            responder_weight: weight,
            skipped: false,
            sampled: Some(ids),
        };
        let records = vec![
            compact(1, vec![7, 28563, 91], vec![Responded, Crashed, Responded], 0.6),
            compact(2, vec![28563, 404], vec![Crashed, Responded], 0.4),
            compact(3, vec![12, 404], vec![Responded, Crashed], 0.3),
        ];
        let s = summarize(&records);
        assert_eq!(s.crashed_devices, 2, "28563 deduped across rounds, 404 added");
    }

    #[test]
    fn compact_records_address_devices_by_stable_id() {
        use DeviceOutcome::*;
        // Three devices sampled out of a large population: outcomes are
        // aligned with the sampled ids, everyone else was not selected.
        let r = RoundParticipation {
            round: 4,
            outcomes: vec![Responded, Crashed, Responded],
            responder_weight: 0.002,
            skipped: false,
            sampled: Some(vec![7, 99_321, 12]),
        };
        assert_eq!(r.outcome_of(7), Responded);
        assert_eq!(r.outcome_of(99_321), Crashed);
        assert_eq!(r.outcome_of(12), Responded);
        assert_eq!(r.outcome_of(0), NotSelected);
        assert_eq!(r.outcome_of(1_000_000), NotSelected);
        assert_eq!(r.responders(), 2);
        // No NotSelected entries in a compact record: the eligible set
        // is the sampled set.
        assert!((r.responder_fraction() - 2.0 / 3.0).abs() < 1e-12);
        // Dense records keep the id-indexed lookup.
        let dense = record(1, vec![Responded, Offline], 0.5);
        assert_eq!(dense.outcome_of(1), Offline);
        assert_eq!(dense.outcome_of(5), NotSelected);
        // A compact record survives the serde roundtrip.
        let json = serde_json::to_string(&r).unwrap_or_default();
        let back: Result<RoundParticipation, _> = serde_json::from_str(&json);
        assert_eq!(back.ok(), Some(r));
    }

    #[test]
    fn skips_are_blamed_by_stable_id_on_dense_and_compact_records() {
        use DeviceOutcome::*;
        // Dense: the position is the id. A crash wins over an earlier
        // offline device; without one, the first non-responder is blamed.
        let dense = record(3, vec![NotSelected, Offline, Responded, Crashed], 0.2);
        assert_eq!(dense.attribute_skip(), Some(3));
        let dense = record(3, vec![NotSelected, Responded, DeadlineMiss, LinkFailed], 0.2);
        assert_eq!(dense.attribute_skip(), Some(2));
        // Compact: the same positions name the sampled stable ids.
        let compact = |outcomes| RoundParticipation {
            round: 3,
            outcomes,
            responder_weight: 0.2,
            skipped: true,
            sampled: Some(vec![40_017, 5, 912_334, 77]),
        };
        assert_eq!(compact(vec![Offline, Responded, Responded, Crashed]).attribute_skip(), Some(77));
        assert_eq!(compact(vec![Responded, LinkFailed, Offline, Responded]).attribute_skip(), Some(5));
        // Everyone selected responded: nobody to blame.
        assert_eq!(record(3, vec![Responded, NotSelected], 0.1).attribute_skip(), None);
        assert_eq!(compact(vec![Responded; 4]).attribute_skip(), None);
    }

    #[test]
    fn outcomes_roundtrip_snake_case() {
        let r = RoundParticipation {
            round: 2,
            outcomes: vec![DeviceOutcome::Responded, DeviceOutcome::DeadlineMiss],
            responder_weight: 0.5,
            skipped: true,
            sampled: None,
        };
        let json = serde_json::to_string(&r).unwrap_or_default();
        assert!(json.contains("\"deadline_miss\""), "snake_case encoding missing: {json}");
        let back: Result<RoundParticipation, _> = serde_json::from_str(&json);
        assert_eq!(back.ok(), Some(r));
    }
}
