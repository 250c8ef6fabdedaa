//! Online algorithm-health monitoring — the data source behind `fedobs health`.
//!
//! A [`HealthMonitor`] sits beside the training loop in armed-telemetry
//! runs, assembles one [`Event::Health`] sample per evaluated round, and
//! raises typed [`Event::Anomaly`] records when the trajectory violates
//! what the paper's theory predicts:
//!
//! * **θ-violation** — the measured local accuracy ratio of criterion
//!   (11) exceeds Remark 2(1)'s admissible ceiling `θ_max(σ̄²)`,
//! * **VR-ineffective** — the SVRG/SARAH direction second moment is not
//!   shrinking relative to its full-gradient anchor, so variance
//!   reduction is buying nothing,
//! * **starvation** — a participating device contributed almost no
//!   gradient work relative to the round's busiest device,
//! * **non-finite / loss-guard** — the trainer's existing divergence
//!   checks, forwarded here so the trace carries the *cause*.
//!
//! The monitor follows the telemetry crate's rules: it only reads
//! quantities the trainer already computed (plus direction-norm probes
//! that never touch the training state), so an armed run stays
//! bitwise-identical to a disarmed one in its training outputs. The
//! module itself is always compiled — arming is the caller's decision —
//! which keeps its logic unit-testable without cargo features.

use crate::algorithm::Algorithm;
use crate::config::FedConfig;
use crate::theory::{self, Lemma1, TheoryParams};
use fedprox_optim::{DirectionStats, EstimatorKind};
use fedprox_telemetry::event::{AnomalyRule, Event};

/// Thresholds and theory context for the anomaly rules.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Lemma 1 lower edge on θ for the configured τ (inverse of
    /// eq. (55)); `None` when β ≤ 3 or μ̃ ≤ 0.
    pub theta_lo: Option<f64>,
    /// Remark 2(1) ceiling `θ_max(σ̄²)`; `None` when σ̄² was unmeasurable.
    pub theta_hi: Option<f64>,
    /// Problem constants for the Theorem 1 envelope, when known.
    pub theory: Option<TheoryParams>,
    /// Whether the run uses a variance-reduced estimator (enables the
    /// VR-ineffective rule).
    pub vr_active: bool,
    /// VR-ineffective fires when `mean ‖v‖² / mean ‖v⁰‖²` exceeds this.
    pub vr_ratio_limit: f64,
    /// Starvation fires for a device whose per-round gradient work falls
    /// below this share of the round's maximum.
    pub starvation_share: f64,
    /// Participation-gap floor on the per-round responder fraction;
    /// `None` (non-resilient runs) disables the rule.
    pub participation_floor: Option<f64>,
    /// Consecutive rounds the responder fraction must stay below the
    /// floor before the participation-gap rule fires (once per run).
    pub participation_window: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            theta_lo: None,
            theta_hi: None,
            theory: None,
            vr_active: false,
            vr_ratio_limit: 16.0,
            starvation_share: 0.1,
            participation_floor: None,
            participation_window: 3,
        }
    }
}

impl HealthConfig {
    /// Derive a config from a run's [`FedConfig`] and the empirical σ̄²
    /// measured at the initial model (when measurable). The bounded
    /// non-convexity constant λ is unobservable at runtime, so the
    /// theory context optimistically uses λ = 0 (i.e. μ̃ = μ): the
    /// resulting θ-range is a *necessary* condition, never a spuriously
    /// strict one.
    pub fn from_run(cfg: &FedConfig, sigma_bar_sq: Option<f64>) -> Self {
        let vr_active = matches!(
            cfg.algorithm,
            Algorithm::Fsvrg
                | Algorithm::FedProxVr(EstimatorKind::Svrg)
                | Algorithm::FedProxVr(EstimatorKind::Sarah)
        );
        let theory = sigma_bar_sq.map(|s| TheoryParams {
            smoothness: cfg.smoothness,
            lambda: 0.0,
            mu: cfg.mu,
            sigma_bar_sq: s,
        });
        let theta_lo =
            theory.as_ref().and_then(|p| Lemma1::theta_min_for_tau(p, cfg.beta, cfg.tau));
        let theta_hi = sigma_bar_sq.map(theory::theta_max);
        // Resilient runs watch for sustained participation shortfalls
        // just above where the quorum policy would start skipping
        // rounds: a quorum-adjacent floor, never below half the fleet.
        let participation_floor = cfg
            .resilience
            .as_ref()
            .map(|r| (1.25 * r.quorum.min_weight).clamp(0.5, 1.0));
        HealthConfig {
            theta_lo,
            theta_hi,
            theory,
            vr_active,
            participation_floor,
            ..Default::default()
        }
    }
}

/// Clamp a possibly non-finite measurement so the JSONL encoding (which
/// maps non-finite floats to `null`) never loses an anomaly's value.
fn clamp_finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        f64::MAX
    }
}

/// Assembles health samples and evaluates anomaly rules over one run.
#[derive(Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    samples: Vec<Event>,
    anomalies: Vec<Event>,
    pending_dir: DirectionStats,
    prev_loss: Option<f64>,
    delta0: Option<f64>,
    theta_ref: Option<f64>,
    gap_streak: usize,
    gap_fired: bool,
}

impl HealthMonitor {
    /// A monitor with the given rule configuration.
    pub fn new(cfg: HealthConfig) -> Self {
        HealthMonitor {
            cfg,
            samples: Vec::new(),
            anomalies: Vec::new(),
            pending_dir: DirectionStats::default(),
            prev_loss: None,
            delta0: None,
            theta_ref: None,
            gap_streak: 0,
            gap_fired: false,
        }
    }

    /// Feed per-round observations that exist whether or not the round
    /// is evaluated: the merged estimator direction statistics of the
    /// round's local solves and each participant's gradient-work count.
    /// Direction statistics accumulate until the next
    /// [`HealthMonitor::observe_eval`] drains them; the starvation rule
    /// fires immediately (it needs no evaluation).
    pub fn note_round(&mut self, round: usize, dir: &DirectionStats, device_evals: &[(usize, u64)]) {
        self.pending_dir.merge(dir);
        let max = device_evals.iter().map(|&(_, e)| e).max().unwrap_or(0);
        if max == 0 {
            return;
        }
        let floor = self.cfg.starvation_share * max as f64;
        for &(id, evals) in device_evals {
            if (evals as f64) < floor {
                self.anomalies.push(Event::Anomaly {
                    round: round as u32,
                    rule: AnomalyRule::Starvation,
                    device: Some(id as u32),
                    value: evals as f64,
                    limit: floor,
                });
            }
        }
    }

    /// Record an evaluated round: emits one [`Event::Health`] sample
    /// (draining the pending direction statistics) and runs the
    /// θ-violation and VR-ineffective rules. Rounds whose loss or gap is
    /// non-finite produce no sample — the trainer's divergence guards
    /// report those through [`HealthMonitor::observe_loss_guard`] /
    /// [`HealthMonitor::observe_non_finite`] instead.
    pub fn observe_eval(
        &mut self,
        round: usize,
        train_loss: f64,
        grad_norm_sq: f64,
        theta: Option<f64>,
    ) {
        if !train_loss.is_finite() || !grad_norm_sq.is_finite() {
            return;
        }
        let dir = std::mem::take(&mut self.pending_dir);
        let loss_delta = self.prev_loss.map_or(0.0, |p| train_loss - p);
        self.prev_loss = Some(train_loss);
        if self.delta0.is_none() {
            // Δ(w̄⁰) of Corollary 1 is F̄(w̄⁰) − F̄*; with non-negative
            // losses the initial loss itself is a usable upper proxy.
            self.delta0 = Some(train_loss);
        }
        if self.theta_ref.is_none() {
            self.theta_ref = theta;
        }

        if let (Some(t), Some(hi)) = (theta, self.cfg.theta_hi) {
            if t > hi {
                self.anomalies.push(Event::Anomaly {
                    round: round as u32,
                    rule: AnomalyRule::ThetaViolation,
                    device: None,
                    value: clamp_finite(t),
                    limit: hi,
                });
            }
        }

        let anchor_mean = if dir.solves > 0 { dir.anchor_sq / dir.solves as f64 } else { 0.0 };
        if self.cfg.vr_active && dir.steps >= 2 && anchor_mean > 0.0 && anchor_mean.is_finite() {
            let ratio = dir.mean_sq / anchor_mean;
            if ratio > self.cfg.vr_ratio_limit {
                self.anomalies.push(Event::Anomaly {
                    round: round as u32,
                    rule: AnomalyRule::VrIneffective,
                    device: None,
                    value: clamp_finite(ratio),
                    limit: self.cfg.vr_ratio_limit,
                });
            }
        }

        // Theorem 1 envelope: Δ/(Θ·t), using the first measured θ (or
        // the admissible ceiling when θ was never measured).
        let bound = if round >= 1 {
            let theta_for_bound = self.theta_ref.or(self.cfg.theta_hi);
            match (&self.cfg.theory, theta_for_bound, self.delta0) {
                (Some(p), Some(t), Some(d0)) => {
                    let cap_theta = theory::federated_factor(p, t);
                    if cap_theta > 0.0 {
                        theory::stationarity_bound(d0, cap_theta, round)
                    } else {
                        None
                    }
                }
                _ => None,
            }
        } else {
            None
        };

        self.samples.push(Event::Health {
            round: round as u32,
            train_loss,
            loss_delta,
            grad_norm_sq,
            theta,
            theta_lo: self.cfg.theta_lo,
            theta_hi: self.cfg.theta_hi,
            bound,
            dir_mean_sq: dir.mean_sq,
            dir_m2: dir.m2_sq,
            dir_anchor_sq: anchor_mean,
            dir_steps: dir.steps,
            skew: None,
        });
    }

    /// Feed one round's responder fraction (resilient runs only; local
    /// backends call this as rounds finish, the networked backend
    /// backfills from the runtime's participation records). The
    /// participation-gap rule fires once per run, when the fraction has
    /// stayed below the configured floor for `participation_window`
    /// consecutive rounds.
    pub fn note_participation(&mut self, round: usize, fraction: f64) {
        let Some(floor) = self.cfg.participation_floor else {
            return;
        };
        if fraction < floor {
            self.gap_streak += 1;
            if !self.gap_fired && self.gap_streak >= self.cfg.participation_window.max(1) {
                self.gap_fired = true;
                self.anomalies.push(Event::Anomaly {
                    round: round as u32,
                    rule: AnomalyRule::ParticipationGap,
                    device: None,
                    value: clamp_finite(fraction),
                    limit: floor,
                });
            }
        } else {
            self.gap_streak = 0;
        }
    }

    /// Forward the trainer's non-finite-parameters divergence check.
    pub fn observe_non_finite(&mut self, round: usize, device: Option<usize>) {
        self.anomalies.push(Event::Anomaly {
            round: round as u32,
            rule: AnomalyRule::NonFinite,
            device: device.map(|d| d as u32),
            value: f64::MAX,
            limit: f64::MAX,
        });
    }

    /// Forward the trainer's loss-guard divergence check.
    pub fn observe_loss_guard(&mut self, round: usize, loss: f64, guard: f64) {
        self.anomalies.push(Event::Anomaly {
            round: round as u32,
            rule: AnomalyRule::LossGuard,
            device: None,
            value: clamp_finite(loss),
            limit: guard,
        });
    }

    /// Backfill per-round straggler skew (slowest finish over median
    /// finish, minus one) from the networked backend's report; local
    /// backends never call this, leaving `skew` as `None`.
    pub fn set_skews(&mut self, skews: &[f64]) {
        for s in &mut self.samples {
            if let Event::Health { round, skew, .. } = s {
                let r = *round as usize;
                if let Some(&sk) = r.checked_sub(1).and_then(|i| skews.get(i)) {
                    *skew = Some(sk);
                }
            }
        }
    }

    /// Consume the monitor, yielding samples then anomalies (readers
    /// re-sort by round, so the relative order is immaterial).
    pub fn into_events(self) -> Vec<Event> {
        let mut out = self.samples;
        out.extend(self.anomalies);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule_rounds(events: &[Event], rule: AnomalyRule) -> Vec<u32> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Anomaly { round, rule: r, .. } if *r == rule => Some(*round),
                _ => None,
            })
            .collect()
    }

    fn dirs(steps: u64, mean_sq: f64, anchor_sq: f64) -> DirectionStats {
        DirectionStats { solves: 1, steps, mean_sq, m2_sq: 0.0, anchor_sq }
    }

    #[test]
    fn theta_violation_fires_only_above_ceiling() {
        let cfg = HealthConfig { theta_hi: Some(0.5), ..Default::default() };
        let mut m = HealthMonitor::new(cfg);
        m.observe_eval(1, 1.0, 0.5, Some(0.4));
        m.observe_eval(2, 0.9, 0.4, Some(0.8));
        m.observe_eval(3, 0.8, 0.3, None); // unmeasured θ cannot fire
        let events = m.into_events();
        assert_eq!(rule_rounds(&events, AnomalyRule::ThetaViolation), vec![2]);
    }

    #[test]
    fn vr_ineffective_needs_vr_and_bad_ratio() {
        let fire = |vr_active: bool, mean_sq: f64| -> usize {
            let cfg = HealthConfig { vr_active, vr_ratio_limit: 4.0, ..Default::default() };
            let mut m = HealthMonitor::new(cfg);
            m.note_round(1, &dirs(10, mean_sq, 1.0), &[]);
            m.observe_eval(1, 1.0, 0.5, None);
            rule_rounds(&m.into_events(), AnomalyRule::VrIneffective).len()
        };
        assert_eq!(fire(true, 100.0), 1);
        assert_eq!(fire(true, 2.0), 0); // ratio under the limit
        assert_eq!(fire(false, 100.0), 0); // plain SGD: rule disabled
    }

    #[test]
    fn starvation_attributes_the_idle_device() {
        let mut m = HealthMonitor::new(HealthConfig::default());
        m.note_round(3, &DirectionStats::default(), &[(0, 1000), (1, 20), (2, 980)]);
        let events = m.into_events();
        assert_eq!(rule_rounds(&events, AnomalyRule::Starvation), vec![3]);
        match &events[0] {
            Event::Anomaly { device, value, limit, .. } => {
                assert_eq!(*device, Some(1));
                assert_eq!(*value, 20.0);
                assert!((limit - 100.0).abs() < 1e-12);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn divergence_forwards_are_clamped_finite() {
        let mut m = HealthMonitor::new(HealthConfig::default());
        m.observe_loss_guard(5, f64::INFINITY, 1e9);
        m.observe_non_finite(6, Some(2));
        let events = m.into_events();
        assert_eq!(rule_rounds(&events, AnomalyRule::LossGuard), vec![5]);
        assert_eq!(rule_rounds(&events, AnomalyRule::NonFinite), vec![6]);
        for e in &events {
            if let Event::Anomaly { value, limit, .. } = e {
                assert!(value.is_finite() && limit.is_finite());
            }
        }
    }

    #[test]
    fn samples_carry_deltas_dirs_and_backfilled_skew() {
        let mut m = HealthMonitor::new(HealthConfig::default());
        m.observe_eval(0, 2.0, 1.0, None);
        m.note_round(1, &dirs(4, 3.0, 2.0), &[]);
        m.observe_eval(1, 1.5, 0.8, None);
        m.observe_eval(2, 1.6, 0.9, None);
        assert_eq!(m.samples.len(), 3);
        assert_eq!(m.anomalies.len(), 0);
        m.set_skews(&[0.25, 0.5]);
        let events = m.into_events();
        match &events[1] {
            Event::Health { loss_delta, dir_mean_sq, dir_anchor_sq, dir_steps, skew, .. } => {
                assert!((loss_delta + 0.5).abs() < 1e-12);
                assert_eq!(*dir_mean_sq, 3.0);
                assert_eq!(*dir_anchor_sq, 2.0);
                assert_eq!(*dir_steps, 4);
                assert_eq!(*skew, Some(0.25));
            }
            other => panic!("unexpected event {other:?}"),
        }
        match &events[2] {
            Event::Health { loss_delta, dir_steps, skew, .. } => {
                // Pending dirs were drained by the previous sample.
                assert!((loss_delta - 0.1).abs() < 1e-12);
                assert_eq!(*dir_steps, 0);
                assert_eq!(*skew, Some(0.5));
            }
            other => panic!("unexpected event {other:?}"),
        }
        // Round 0 never gets a skew (no transfers happened yet).
        match &events[0] {
            Event::Health { skew, .. } => assert_eq!(*skew, None),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn non_finite_evals_produce_no_sample() {
        let mut m = HealthMonitor::new(HealthConfig::default());
        m.observe_eval(1, f64::INFINITY, 0.5, None);
        m.observe_eval(2, 1.0, f64::NAN, None);
        assert_eq!(m.samples.len(), 0);
    }

    #[test]
    fn theorem1_bound_present_and_decaying_for_good_params() {
        let theory = TheoryParams { smoothness: 1.0, lambda: 0.0, mu: 60.0, sigma_bar_sq: 0.1 };
        let cfg = HealthConfig {
            theory: Some(theory),
            theta_hi: Some(theory::theta_max(0.1)),
            ..Default::default()
        };
        let mut m = HealthMonitor::new(cfg);
        m.observe_eval(0, 2.0, 1.0, Some(0.01));
        m.observe_eval(1, 1.5, 0.8, Some(0.01));
        m.observe_eval(2, 1.2, 0.6, Some(0.01));
        let events = m.into_events();
        let bounds: Vec<Option<f64>> = events
            .iter()
            .filter_map(|e| match e {
                Event::Health { bound, .. } => Some(*bound),
                _ => None,
            })
            .collect();
        assert_eq!(bounds[0], None); // round 0: no iterations yet
        let b1 = bounds[1].expect("bound at round 1");
        let b2 = bounds[2].expect("bound at round 2");
        assert!(b1 > 0.0 && b2 > 0.0 && b2 < b1, "envelope must decay: {b1} vs {b2}");
        // Θ ≤ 0 (μ̃ too small) ⇒ no bound rather than a bogus one.
        let bad = TheoryParams { smoothness: 1.0, lambda: 0.0, mu: 0.6, sigma_bar_sq: 0.1 };
        let mut m2 = HealthMonitor::new(HealthConfig {
            theory: Some(bad),
            theta_hi: Some(theory::theta_max(0.1)),
            ..Default::default()
        });
        m2.observe_eval(0, 2.0, 1.0, Some(0.5));
        m2.observe_eval(1, 1.5, 0.8, Some(0.5));
        let events2 = m2.into_events();
        for e in &events2 {
            if let Event::Health { bound, .. } = e {
                assert_eq!(*bound, None);
            }
        }
    }

    #[test]
    fn participation_gap_needs_a_sustained_shortfall() {
        let cfg = HealthConfig {
            participation_floor: Some(0.75),
            participation_window: 3,
            ..Default::default()
        };
        let mut m = HealthMonitor::new(cfg);
        // Two short dips separated by a recovery: streak resets, no fire.
        m.note_participation(1, 0.5);
        m.note_participation(2, 0.5);
        m.note_participation(3, 1.0);
        m.note_participation(4, 0.5);
        m.note_participation(5, 0.5);
        assert_eq!(m.anomalies.len(), 0);
        // Third consecutive round below the floor fires, exactly once.
        m.note_participation(6, 0.25);
        m.note_participation(7, 0.25);
        assert_eq!(m.anomalies.len(), 1);
        let events = m.into_events();
        assert_eq!(rule_rounds(&events, AnomalyRule::ParticipationGap), vec![6]);
        match &events[0] {
            Event::Anomaly { value, limit, device, .. } => {
                assert_eq!(*value, 0.25);
                assert_eq!(*limit, 0.75);
                assert_eq!(*device, None);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn participation_gap_disabled_without_floor() {
        let mut m = HealthMonitor::new(HealthConfig::default());
        for r in 1..=10 {
            m.note_participation(r, 0.0);
        }
        assert_eq!(m.anomalies.len(), 0);
    }

    #[test]
    fn from_run_derives_quorum_adjacent_participation_floor() {
        use crate::algorithm::Algorithm;
        use fedprox_faults::{QuorumPolicy, Resilience};
        let plain = FedConfig::new(Algorithm::FedAvg);
        assert!(HealthConfig::from_run(&plain, None).participation_floor.is_none());
        let resilient = plain
            .clone()
            .with_resilience(Resilience::default().with_quorum(QuorumPolicy::weight_fraction(0.6)));
        let floor = HealthConfig::from_run(&resilient, None)
            .participation_floor
            .expect("resilient run must enable the rule");
        assert!((floor - 0.75).abs() < 1e-12, "floor {floor}");
        // A permissive quorum still gets the half-fleet default floor.
        let lax = plain.with_resilience(Resilience::default());
        let floor = HealthConfig::from_run(&lax, None).participation_floor.unwrap();
        assert_eq!(floor, 0.5);
    }

    #[test]
    fn from_run_derives_theory_range() {
        use crate::algorithm::Algorithm;
        let fed = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Sarah))
            .with_beta(10.0)
            .with_tau(200)
            .with_mu(1.0);
        let cfg = HealthConfig::from_run(&fed, Some(0.5));
        assert!(cfg.vr_active);
        let hi = cfg.theta_hi.expect("theta_hi");
        assert!((hi - theory::theta_max(0.5)).abs() < 1e-12);
        let lo = cfg.theta_lo.expect("theta_lo");
        assert!(lo > 0.0 && lo < 2.0);
        // β ≤ 3 ⇒ no lower edge; unmeasured σ̄² ⇒ no range at all.
        let fed3 = FedConfig::new(Algorithm::FedAvg).with_beta(3.0);
        let cfg3 = HealthConfig::from_run(&fed3, Some(0.5));
        assert!(cfg3.theta_lo.is_none());
        assert!(!cfg3.vr_active);
        let cfg_none = HealthConfig::from_run(&fed, None);
        assert!(cfg_none.theta_lo.is_none() && cfg_none.theta_hi.is_none());
        assert!(cfg_none.theory.is_none());
    }
}
