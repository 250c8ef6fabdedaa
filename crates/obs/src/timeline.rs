//! Per-round device timelines and eq. (19) critical-path attribution.
//!
//! The paper's time model charges each synchronous round with the
//! slowest participant's full leg — eq. (19): `T·(d_com + d_cmp·τ)`,
//! where `d_com` is the device's communication time (download +
//! upload) and `d_cmp·τ` its local compute for τ inner epochs. The
//! virtual clock in `crates/net` realizes exactly that accounting, so
//! the gating device of a round is simply the participant with the
//! largest `finish_s`, and its comm-vs-compute split *is* the round's
//! eq. (19) decomposition.
//!
//! [`Timeline::from_events`] reconstructs this from the simulation
//! events alone (`DeviceRound`, `Bytes`, `RoundEnd`, `Participation`),
//! which are bitwise-reproducible — so a timeline is a deterministic
//! function of (config, seed, fault plan), and two runs with matching
//! [`RunLedger`](crate::ledger::RunLedger)s have identical timelines.

use fedprox_telemetry::event::Event;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One device's legs in one round (simulated seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceLeg {
    /// Device id.
    pub device: u32,
    /// Server → device transfer time.
    pub download_s: f64,
    /// Local computation time (`d_cmp·τ` in eq. (19)).
    pub compute_s: f64,
    /// Device → server transfer time.
    pub upload_s: f64,
    /// `download + compute + upload`.
    pub finish_s: f64,
    /// Lag versus the round's median finish.
    pub lag_s: f64,
}

impl DeviceLeg {
    /// Communication time (`d_com` in eq. (19)): both transfer legs.
    pub fn comm_s(&self) -> f64 {
        self.download_s + self.upload_s
    }
}

/// The round's critical path: who gated it and how the gating leg
/// splits into eq. (19)'s terms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Gating {
    /// The gating (slowest-finishing) device; ties break to the lowest
    /// device id, matching the deterministic event order.
    pub device: u32,
    /// The gating device's finish time — the round's duration under
    /// the synchronous model.
    pub finish_s: f64,
    /// The gating device's `d_com` (download + upload).
    pub comm_s: f64,
    /// The gating device's `d_cmp·τ`.
    pub compute_s: f64,
}

impl Gating {
    /// Fraction of the gating leg spent communicating; 0 when the leg
    /// is empty.
    pub fn comm_fraction(&self) -> f64 {
        if self.finish_s > 0.0 {
            self.comm_s / self.finish_s
        } else {
            0.0
        }
    }
}

/// One reconstructed round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTimeline {
    /// Global round index (1-based, matching `History` records).
    pub round: u32,
    /// Participating devices' legs, sorted by device id.
    pub devices: Vec<DeviceLeg>,
    /// Virtual-clock time at the end of this round, when a `round_end`
    /// event was present.
    pub sim_time_s: Option<f64>,
    /// Bytes server → devices this round.
    pub bytes_down: u64,
    /// Bytes devices → server this round.
    pub bytes_up: u64,
    /// Whether the round failed quorum and was skipped (global model
    /// unchanged); known only when participation records are present.
    pub skipped: bool,
    /// Critical path of the round; `None` when no device legs were
    /// recorded (e.g. every participant crashed).
    pub gating: Option<Gating>,
}

/// Cumulative gating attribution of one device across the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Attribution {
    /// Device id.
    pub device: u32,
    /// Rounds this device gated.
    pub gated_rounds: u64,
    /// Total simulated time of the rounds it gated.
    pub gated_time_s: f64,
    /// Its `d_com` summed over gated rounds.
    pub comm_s: f64,
    /// Its `d_cmp·τ` summed over gated rounds.
    pub compute_s: f64,
}

/// The reconstructed run: rounds in order plus cross-run attribution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Timeline {
    /// Rounds in ascending order.
    pub rounds: Vec<RoundTimeline>,
    /// Gating attribution, sorted by gated time descending (ties by
    /// device id).
    pub attribution: Vec<Attribution>,
    /// Virtual-clock time at the last observed `round_end`.
    pub total_sim_s: f64,
}

impl Timeline {
    /// Reconstruct the timeline from a flat event stream (an `--obs`
    /// file, a full trace, or a live drain). Wire rounds (0-based, on
    /// `device_round` / `bytes` / `round_end`) and participation rounds
    /// (1-based) are normalized onto the 1-based global index.
    pub fn from_events(events: &[Event]) -> Timeline {
        let mut rounds: BTreeMap<u32, RoundTimeline> = BTreeMap::new();
        fn entry(map: &mut BTreeMap<u32, RoundTimeline>, s: u32) -> &mut RoundTimeline {
            map.entry(s).or_insert_with(|| RoundTimeline {
                round: s,
                devices: Vec::new(),
                sim_time_s: None,
                bytes_down: 0,
                bytes_up: 0,
                skipped: false,
                gating: None,
            })
        }
        for ev in events {
            match ev {
                Event::DeviceRound {
                    round,
                    device,
                    download_s,
                    compute_s,
                    upload_s,
                    finish_s,
                    lag_s,
                } => {
                    entry(&mut rounds, round + 1).devices.push(DeviceLeg {
                        device: *device,
                        download_s: *download_s,
                        compute_s: *compute_s,
                        upload_s: *upload_s,
                        finish_s: *finish_s,
                        lag_s: *lag_s,
                    });
                }
                Event::Bytes { round, direction, bytes, .. } => {
                    let r = entry(&mut rounds, round + 1);
                    if direction == "down" {
                        r.bytes_down = r.bytes_down.saturating_add(*bytes);
                    } else {
                        r.bytes_up = r.bytes_up.saturating_add(*bytes);
                    }
                }
                Event::RoundEnd { round, sim_time_s } => {
                    entry(&mut rounds, round + 1).sim_time_s = Some(*sim_time_s);
                }
                Event::Participation { round, skipped, .. } => {
                    entry(&mut rounds, *round).skipped = *skipped > 0;
                }
                _ => {}
            }
        }

        let mut attribution: BTreeMap<u32, Attribution> = BTreeMap::new();
        let mut total_sim_s = 0.0f64;
        let mut rounds: Vec<RoundTimeline> = rounds.into_values().collect();
        for r in &mut rounds {
            r.devices.sort_by_key(|d| d.device);
            // Strict `>` over ascending device ids: ties gate to the
            // lowest id, deterministically.
            let mut gating: Option<Gating> = None;
            for d in &r.devices {
                if gating.is_none_or(|g| d.finish_s > g.finish_s) {
                    gating = Some(Gating {
                        device: d.device,
                        finish_s: d.finish_s,
                        comm_s: d.comm_s(),
                        compute_s: d.compute_s,
                    });
                }
            }
            r.gating = gating;
            if let Some(t) = r.sim_time_s {
                total_sim_s = total_sim_s.max(t);
            }
            if let Some(g) = r.gating {
                let a = attribution.entry(g.device).or_insert(Attribution {
                    device: g.device,
                    gated_rounds: 0,
                    gated_time_s: 0.0,
                    comm_s: 0.0,
                    compute_s: 0.0,
                });
                a.gated_rounds += 1;
                a.gated_time_s += g.finish_s;
                a.comm_s += g.comm_s;
                a.compute_s += g.compute_s;
            }
        }
        let mut attribution: Vec<Attribution> = attribution.into_values().collect();
        attribution.sort_by(|a, b| {
            b.gated_time_s.total_cmp(&a.gated_time_s).then_with(|| a.device.cmp(&b.device))
        });
        Timeline { rounds, attribution, total_sim_s }
    }

    /// Sum of eq. (19)'s terms over every gated round: `(Σ d_com,
    /// Σ d_cmp·τ)`. Their sum equals the total gated time, which for a
    /// full synchronous run is the virtual-clock total `T·(d_com +
    /// d_cmp·τ)`.
    pub fn eq19_totals(&self) -> (f64, f64) {
        self.attribution.iter().fold((0.0, 0.0), |(c, k), a| (c + a.comm_s, k + a.compute_s))
    }

    /// `fedobs timeline`: one row per (round, device).
    pub fn render_timeline(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "fedobs timeline: {} rounds, {:.4} sim seconds",
            self.rounds.len(),
            self.total_sim_s
        );
        let _ = writeln!(
            s,
            "{:>6} {:>7} {:>11} {:>11} {:>11} {:>11} {:>9} {:>5}",
            "round", "device", "download_s", "compute_s", "upload_s", "finish_s", "lag_s", "gate"
        );
        for r in &self.rounds {
            if r.devices.is_empty() {
                let skip = if r.skipped { " (skipped: below quorum)" } else { "" };
                let _ = writeln!(s, "{:>6} {:>7}{}", r.round, "-", skip);
                continue;
            }
            for d in &r.devices {
                let gate = match r.gating {
                    Some(g) if g.device == d.device => "*",
                    _ => "",
                };
                let _ = writeln!(
                    s,
                    "{:>6} {:>7} {:>11.4} {:>11.4} {:>11.4} {:>11.4} {:>9.4} {:>5}",
                    r.round, d.device, d.download_s, d.compute_s, d.upload_s, d.finish_s, d.lag_s,
                    gate
                );
            }
        }
        s
    }

    /// `fedobs critpath`: per-round gating verdicts plus cumulative
    /// attribution, in eq. (19)'s terms.
    pub fn render_critpath(&self) -> String {
        let mut s = String::new();
        let (comm, compute) = self.eq19_totals();
        let _ = writeln!(
            s,
            "fedobs critical path: {} rounds, gated time {:.4}s = {:.4}s comm + {:.4}s compute (eq. 19)",
            self.rounds.len(),
            comm + compute,
            comm,
            compute
        );
        let _ = writeln!(
            s,
            "{:>6} {:>7} {:>11} {:>11} {:>11} {:>8}",
            "round", "gates", "finish_s", "comm_s", "compute_s", "comm%"
        );
        for r in &self.rounds {
            match r.gating {
                Some(g) => {
                    let _ = writeln!(
                        s,
                        "{:>6} {:>7} {:>11.4} {:>11.4} {:>11.4} {:>7.1}%",
                        r.round,
                        g.device,
                        g.finish_s,
                        g.comm_s,
                        g.compute_s,
                        g.comm_fraction() * 100.0
                    );
                }
                None => {
                    let _ = writeln!(s, "{:>6} {:>7}", r.round, "-");
                }
            }
        }
        let _ = writeln!(s, "\n== cumulative gating attribution ==");
        let _ = writeln!(
            s,
            "{:>7} {:>8} {:>13} {:>11} {:>11}",
            "device", "rounds", "gated_time_s", "comm_s", "compute_s"
        );
        for a in &self.attribution {
            let _ = writeln!(
                s,
                "{:>7} {:>8} {:>13.4} {:>11.4} {:>11.4}",
                a.device, a.gated_rounds, a.gated_time_s, a.comm_s, a.compute_s
            );
        }
        s
    }

    /// Machine-checkable `fedobs/v1` JSON: `schema`, `total_sim_s`,
    /// `rounds` (`round`, `bytes_down`, `bytes_up`, `skipped` as 0/1, then
    /// `sim_time_s` and the derived `gating` when known) and the derived
    /// `critpath` attribution rows.
    pub fn to_json(&self) -> String {
        fn object(fields: Vec<(&str, Value)>) -> Value {
            Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        }
        let rounds = self.rounds.iter().map(|r| {
            let mut o = vec![
                ("round", r.round.to_value()),
                ("bytes_down", r.bytes_down.to_value()),
                ("bytes_up", r.bytes_up.to_value()),
                ("skipped", u32::from(r.skipped).to_value()),
            ];
            o.extend(r.sim_time_s.map(|t| ("sim_time_s", t.to_value())));
            o.extend(r.gating.map(|g| ("gating", g.to_value())));
            object(o)
        });
        let doc = object(vec![
            ("schema", Value::String("fedobs/v1".into())),
            ("total_sim_s", self.total_sim_s.to_value()),
            ("rounds", Value::Array(rounds.collect())),
            ("critpath", self.attribution.to_value()),
        ]);
        serde_json::to_string(&doc).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leg(round: u32, device: u32, download: f64, compute: f64, upload: f64) -> Event {
        Event::DeviceRound {
            round,
            device,
            download_s: download,
            compute_s: compute,
            upload_s: upload,
            finish_s: download + compute + upload,
            lag_s: 0.0,
        }
    }

    fn straggler_trace() -> Vec<Event> {
        // Two rounds, device 1 stragglers on compute in both.
        vec![
            leg(0, 0, 0.05, 0.2, 0.05),
            leg(0, 1, 0.05, 0.9, 0.05),
            Event::Bytes { round: 0, kind: "global_model".into(), direction: "down".into(), bytes: 200 },
            Event::Bytes { round: 0, kind: "local_model".into(), direction: "up".into(), bytes: 240 },
            Event::RoundEnd { round: 0, sim_time_s: 1.0 },
            leg(1, 0, 0.05, 0.2, 0.05),
            leg(1, 1, 0.05, 0.7, 0.05),
            Event::RoundEnd { round: 1, sim_time_s: 1.8 },
        ]
    }

    #[test]
    fn gating_device_is_slowest_finisher() {
        let t = Timeline::from_events(&straggler_trace());
        assert_eq!(t.rounds.len(), 2);
        for r in &t.rounds {
            let g = r.gating.expect("gating");
            assert_eq!(g.device, 1, "round {}", r.round);
        }
        // Rounds are 1-based in the reconstruction.
        assert_eq!(t.rounds[0].round, 1);
        assert!((t.total_sim_s - 1.8).abs() < 1e-12);
    }

    #[test]
    fn gating_split_matches_eq19_terms() {
        let t = Timeline::from_events(&straggler_trace());
        let g = t.rounds[0].gating.expect("gating");
        assert!((g.comm_s - 0.1).abs() < 1e-12, "d_com = download + upload");
        assert!((g.compute_s - 0.9).abs() < 1e-12, "d_cmp·τ = compute leg");
        assert!((g.finish_s - (g.comm_s + g.compute_s)).abs() < 1e-12);
        let (comm, compute) = t.eq19_totals();
        assert!((comm - 0.2).abs() < 1e-12);
        assert!((compute - 1.6).abs() < 1e-12);
    }

    #[test]
    fn attribution_accumulates_across_rounds() {
        let t = Timeline::from_events(&straggler_trace());
        assert_eq!(t.attribution.len(), 1, "only the straggler ever gates");
        let a = t.attribution[0];
        assert_eq!(a.device, 1);
        assert_eq!(a.gated_rounds, 2);
        assert!((a.gated_time_s - 1.8).abs() < 1e-12);
    }

    #[test]
    fn gating_ties_break_to_lowest_device() {
        let events = vec![leg(0, 3, 0.1, 0.2, 0.1), leg(0, 1, 0.1, 0.2, 0.1)];
        let t = Timeline::from_events(&events);
        assert_eq!(t.rounds[0].gating.expect("gating").device, 1);
    }

    #[test]
    fn participation_marks_skipped_rounds() {
        let events = vec![Event::Participation {
            round: 2,
            responded: 1,
            crashed: 1,
            offline: 0,
            deadline_miss: 0,
            link_failed: 0,
            weight: 0.4,
            skipped: 1,
        }];
        let t = Timeline::from_events(&events);
        assert_eq!(t.rounds[0].round, 2, "participation rounds are already 1-based");
        assert!(t.rounds[0].skipped);
        assert!(t.rounds[0].gating.is_none());
    }

    #[test]
    fn bytes_accumulate_per_direction() {
        let t = Timeline::from_events(&straggler_trace());
        assert_eq!(t.rounds[0].bytes_down, 200);
        assert_eq!(t.rounds[0].bytes_up, 240);
        assert_eq!(t.rounds[1].bytes_down, 0);
    }

    #[test]
    fn json_is_parseable_and_versioned() {
        let t = Timeline::from_events(&straggler_trace());
        let j = t.to_json();
        assert!(j.starts_with("{\"schema\":\"fedobs/v1\""));
        assert!(j.contains("\"critpath\":[{\"device\":1,\"gated_rounds\":2"));
        let v: Value = serde_json::from_str(&j).unwrap();
        assert_eq!(v.get("total_sim_s"), Some(&t.total_sim_s.to_value()));
        // The v1 round shape: `skipped` is 0/1, no device legs, and
        // absent values are omitted, not null.
        let Some(Value::Array(rounds)) = v.get("rounds") else { panic!("no rounds: {j}") };
        let r = &rounds[0];
        let keys: Vec<&str> = r.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["round", "bytes_down", "bytes_up", "skipped", "sim_time_s", "gating"]);
        assert_eq!(r.get("skipped"), Some(&0u32.to_value()));
    }

    #[test]
    fn renders_mark_the_gate() {
        let t = Timeline::from_events(&straggler_trace());
        let tl = t.render_timeline();
        assert!(tl.contains('*'));
        let cp = t.render_critpath();
        assert!(cp.contains("eq. 19"));
        assert!(cp.contains("cumulative gating attribution"));
    }

    /// A sampled round emits `device_round` legs only for the active
    /// set, with stable (population-level) device ids. Sparse ids like
    /// {3, 42, 99} out of a large population must flow through
    /// unchanged: the gate is a member of the sampled set, not an index
    /// into it.
    fn sampled_trace() -> Vec<Event> {
        vec![
            // Round 0 samples {3, 42, 99}; 99 stragglers.
            leg(0, 42, 0.05, 0.2, 0.05),
            leg(0, 99, 0.05, 0.8, 0.05),
            leg(0, 3, 0.05, 0.3, 0.05),
            Event::RoundEnd { round: 0, sim_time_s: 0.9 },
            // Round 1 samples a disjoint set {7, 512}; 512 stragglers.
            leg(1, 512, 0.05, 0.6, 0.05),
            leg(1, 7, 0.05, 0.1, 0.05),
            Event::RoundEnd { round: 1, sim_time_s: 1.6 },
        ]
    }

    #[test]
    fn sampled_round_gates_within_the_sampled_set() {
        let t = Timeline::from_events(&sampled_trace());
        assert_eq!(t.rounds.len(), 2);
        let r1 = &t.rounds[0];
        let sampled: Vec<u32> = r1.devices.iter().map(|d| d.device).collect();
        assert_eq!(sampled, vec![3, 42, 99], "legs carry stable ids, sorted");
        let g = r1.gating.expect("gating");
        assert!(sampled.contains(&g.device), "gate must be a sampled device");
        assert_eq!(g.device, 99, "slowest sampled device gates");
        let g2 = t.rounds[1].gating.expect("gating");
        assert_eq!(g2.device, 512, "round 2 gates within its own sample");
    }

    #[test]
    fn sampled_round_attribution_never_names_unsampled_devices() {
        let t = Timeline::from_events(&sampled_trace());
        let ever_sampled = [3u32, 7, 42, 99, 512];
        for a in &t.attribution {
            assert!(
                ever_sampled.contains(&a.device),
                "device {} attributed but never sampled",
                a.device
            );
        }
        // Only the per-round gates accumulate: {99, 512}, gated-time
        // descending.
        let gates: Vec<u32> = t.attribution.iter().map(|a| a.device).collect();
        assert_eq!(gates, vec![99, 512]);
        // And devices sampled in one round never leak legs into
        // another: round 2 holds exactly its own active set.
        let r2: Vec<u32> = t.rounds[1].devices.iter().map(|d| d.device).collect();
        assert_eq!(r2, vec![7, 512]);
    }

    #[test]
    fn sampled_rounds_keep_eq19_accounting_per_active_set() {
        let t = Timeline::from_events(&sampled_trace());
        let (comm, compute) = t.eq19_totals();
        // Gates are 99 (0.1 comm + 0.8 compute) and 512 (0.1 + 0.6):
        // unsampled devices contribute nothing to the decomposition.
        assert!((comm - 0.2).abs() < 1e-12);
        assert!((compute - 1.4).abs() < 1e-12);
        let cp = t.render_critpath();
        assert!(cp.contains(" 99 "), "critpath names the sampled gate");
        assert!(!cp.contains(" 1000 "), "no fabricated population ids");
    }
}
