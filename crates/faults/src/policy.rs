//! Graceful-degradation policies: retry/backoff, round deadlines, and
//! quorum aggregation.
//!
//! These are the server-side half of the fault model: [`plan`] decides
//! what goes wrong, the policies here decide how the run degrades —
//! bounded retries instead of infinite retransmission, a simulated-time
//! deadline instead of waiting forever for a straggler, and a quorum
//! rule deciding when a partial round still aggregates versus being
//! skipped and counted.
//!
//! [`plan`]: crate::plan

use crate::plan::FaultPlan;
use serde::{Deserialize, Serialize};

/// Bounded-retry policy for one logical transfer, with optional capped
/// exponential backoff charged to simulated time.
///
/// The default reproduces the net runtime's historical hardcoded
/// behaviour exactly — up to 1000 retries, zero backoff — so existing
/// runs are bitwise-unchanged (adding a 0.0-second backoff leaves every
/// f64 delay bit-identical).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retries after the first attempt before the transfer is declared
    /// failed.
    #[serde(default = "default_max_retries")]
    pub max_retries: u64,
    /// Backoff before the first retry, in simulated seconds (0 disables
    /// backoff entirely).
    #[serde(default)]
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff after each retry.
    #[serde(default = "default_backoff_multiplier")]
    pub backoff_multiplier: f64,
    /// Ceiling on any single backoff wait, in simulated seconds.
    #[serde(default = "default_max_backoff")]
    pub max_backoff_s: f64,
}

fn default_max_retries() -> u64 {
    1000
}
fn default_backoff_multiplier() -> f64 {
    2.0
}
fn default_max_backoff() -> f64 {
    f64::INFINITY
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: default_max_retries(),
            base_backoff_s: 0.0,
            backoff_multiplier: default_backoff_multiplier(),
            max_backoff_s: default_max_backoff(),
        }
    }
}

impl RetryPolicy {

    /// Capped exponential backoff: `base`, `base·m`, `base·m²`, …
    pub fn exponential(max_retries: u64, base_backoff_s: f64, max_backoff_s: f64) -> Self {
        RetryPolicy {
            max_retries,
            base_backoff_s,
            backoff_multiplier: default_backoff_multiplier(),
            max_backoff_s,
        }
    }

    /// The simulated-time wait before retry number `retry` (1-based):
    /// `min(base · multiplier^(retry−1), cap)`, and exactly 0.0 when
    /// backoff is disabled.
    pub fn backoff_before(&self, retry: u64) -> f64 {
        if self.base_backoff_s <= 0.0 || retry == 0 {
            return 0.0;
        }
        let exp = (retry - 1).min(1024) as i32;
        let raw = self.base_backoff_s * self.backoff_multiplier.powi(exp);
        raw.min(self.max_backoff_s)
    }
}

/// Minimum responder set for a round's aggregation to count.
///
/// Both conditions must hold; the default (any single responder) makes
/// quorum failures impossible in fault-free runs. A round failing quorum
/// is **skipped and counted**, never fatal: the global model is left
/// unchanged and training continues.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuorumPolicy {
    /// Minimum responding fraction of the total federation aggregation
    /// weight (`Σ D_n/D` over responders), in `[0, 1]`.
    #[serde(default)]
    pub min_weight: f64,
    /// Minimum number of responding devices.
    #[serde(default = "default_min_responders")]
    pub min_responders: usize,
}

fn default_min_responders() -> usize {
    1
}

impl Default for QuorumPolicy {
    fn default() -> Self {
        QuorumPolicy { min_weight: 0.0, min_responders: default_min_responders() }
    }
}

impl QuorumPolicy {
    /// Require at least `fraction` of the federation weight to respond.
    pub fn weight_fraction(fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "quorum weight fraction must be in [0, 1]");
        QuorumPolicy { min_weight: fraction, min_responders: default_min_responders() }
    }

    /// Whether a responder set meets quorum.
    pub fn met(&self, responder_weight_fraction: f64, responders: usize) -> bool {
        responders >= self.min_responders.max(1)
            && responder_weight_fraction >= self.min_weight
            && responder_weight_fraction > 0.0
    }
}

/// The full resilience configuration of one run: what goes wrong (the
/// [`FaultPlan`]) and how the server degrades (deadline, quorum, panic
/// handling). Attaching a `Resilience` — even an all-default one —
/// switches a backend into graceful-degradation mode: device failures
/// become participation records instead of run-fatal errors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Resilience {
    /// The fault schedule (empty = no injected faults).
    #[serde(default)]
    pub plan: FaultPlan,
    /// Per-round simulated-time deadline: devices finishing
    /// `download + compute + upload` after it are excluded from the
    /// round's aggregation. `None` waits for every reachable device.
    #[serde(default)]
    pub deadline_s: Option<f64>,
    /// When a round's responders fall below quorum the round is skipped
    /// (global model unchanged) and counted.
    #[serde(default)]
    pub quorum: QuorumPolicy,
    /// Treat a panicking device worker as a crashed participant
    /// (excluded from this and all later rounds) instead of aborting the
    /// run. Default `true`; set `false` to keep panics fatal, as they
    /// are without a `Resilience` at all.
    #[serde(default = "default_true")]
    pub crash_on_panic: bool,
}

fn default_true() -> bool {
    true
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience {
            plan: FaultPlan::default(),
            deadline_s: None,
            quorum: QuorumPolicy::default(),
            crash_on_panic: true,
        }
    }
}

impl Resilience {
    /// Resilience around a fault plan, with default policies.
    pub fn with_plan(plan: FaultPlan) -> Self {
        Resilience { plan, ..Default::default() }
    }

    /// Builder: set the per-round deadline.
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        assert!(deadline_s > 0.0, "deadline must be positive");
        self.deadline_s = Some(deadline_s);
        self
    }

    /// Builder: set the quorum policy.
    pub fn with_quorum(mut self, quorum: QuorumPolicy) -> Self {
        self.quorum = quorum;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_retry_matches_legacy_hardcoded_loop() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_retries, 1000);
        assert_eq!(p.backoff_before(1), 0.0);
        assert_eq!(p.backoff_before(500), 0.0);
    }

    #[test]
    fn exponential_backoff_doubles_then_caps() {
        let p = RetryPolicy::exponential(10, 0.1, 0.5);
        assert!((p.backoff_before(1) - 0.1).abs() < 1e-12);
        assert!((p.backoff_before(2) - 0.2).abs() < 1e-12);
        assert!((p.backoff_before(3) - 0.4).abs() < 1e-12);
        assert!((p.backoff_before(4) - 0.5).abs() < 1e-12); // capped
        assert!((p.backoff_before(60) - 0.5).abs() < 1e-12); // no overflow
        assert_eq!(p.backoff_before(0), 0.0);
    }

    #[test]
    fn quorum_default_accepts_any_single_responder() {
        let q = QuorumPolicy::default();
        assert!(q.met(0.01, 1));
        assert!(!q.met(0.0, 0));
        assert!(!q.met(0.0, 3), "zero responding weight can never aggregate");
    }

    #[test]
    fn quorum_weight_and_count_both_bind() {
        let q = QuorumPolicy { min_weight: 0.5, min_responders: 2 };
        assert!(q.met(0.6, 2));
        assert!(!q.met(0.6, 1)); // too few devices
        assert!(!q.met(0.4, 3)); // too little weight
    }

    #[test]
    fn resilience_roundtrips_and_defaults() {
        let r = Resilience::with_plan(FaultPlan::new().crash(1, 3))
            .with_deadline(0.75)
            .with_quorum(QuorumPolicy::weight_fraction(0.25));
        let json = serde_json::to_string(&r).unwrap_or_default();
        let back: Result<Resilience, _> = serde_json::from_str(&json);
        assert_eq!(back.ok(), Some(r));
        // `{}` gives the all-default resilience: crash_on_panic on.
        let d: Resilience = serde_json::from_str("{}").unwrap_or(Resilience {
            crash_on_panic: false,
            ..Default::default()
        });
        assert!(d.crash_on_panic);
        assert_eq!(d.deadline_s, None);
        assert!(d.plan.is_empty());
    }
}
