//! Round observations every backend emits the same way: device legs,
//! traffic and the round's end, plus participation counters. The actor
//! runtime calls these from its transport loop and
//! `fedprox_core::driver` from the shared round loop, so a trace reads
//! identically whichever backend produced it. Every value derives from
//! the virtual clock or the participation record, so armed and disarmed
//! runs stay bitwise-identical in their training output. Both compile to
//! nothing without the `telemetry` feature.

/// Emit one round's timing observations: a [`DeviceRound`] per
/// `(stable id, legs)` entry (straggler lag = finish time minus the
/// round's median finish), one [`Bytes`] per direction and the closing
/// [`RoundEnd`]. `round` is 0-based, as on the wire.
///
/// [`DeviceRound`]: fedprox_telemetry::event::Event::DeviceRound
/// [`Bytes`]: fedprox_telemetry::event::Event::Bytes
/// [`RoundEnd`]: fedprox_telemetry::event::Event::RoundEnd
#[cfg(feature = "telemetry")]
pub fn record_round_telemetry(
    round: u32,
    timings: &[(usize, crate::clock::DeviceRoundTiming)],
    down_bytes: u64,
    up_bytes: u64,
    sim_now: f64,
) {
    use fedprox_telemetry::collector;
    use fedprox_telemetry::event::Event;
    if !collector::is_armed() {
        return;
    }
    let finishes: Vec<f64> =
        timings.iter().map(|(_, t)| t.download + t.compute + t.upload).collect();
    let mut sorted = finishes.clone();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    if m > 0 {
        let median = if m % 2 == 1 {
            sorted[m / 2]
        } else {
            0.5 * (sorted[m / 2 - 1] + sorted[m / 2])
        };
        for ((d, t), finish) in timings.iter().zip(&finishes) {
            let lag = finish - median;
            collector::record_event(Event::DeviceRound {
                round,
                device: *d as u32,
                download_s: t.download,
                compute_s: t.compute,
                upload_s: t.upload,
                finish_s: *finish,
                lag_s: lag,
            });
            fedprox_telemetry::histogram!("net.straggler_lag_s", lag.max(0.0));
        }
    }
    collector::record_event(Event::Bytes {
        round,
        kind: "global_model".into(),
        direction: "down".into(),
        bytes: down_bytes,
    });
    collector::record_event(Event::Bytes {
        round,
        kind: "local_model".into(),
        direction: "up".into(),
        bytes: up_bytes,
    });
    collector::record_event(Event::RoundEnd { round, sim_time_s: sim_now });
}

/// Emit one recorded round's participation observations: running
/// outcome counters plus one structured [`Participation`] event carrying
/// the responder weight and skip flag.
///
/// [`Participation`]: fedprox_telemetry::event::Event::Participation
#[cfg(feature = "telemetry")]
pub fn record_participation_telemetry(rec: &fedprox_faults::RoundParticipation) {
    use fedprox_faults::DeviceOutcome;
    use fedprox_telemetry::collector;
    use fedprox_telemetry::event::Event;
    if !collector::is_armed() {
        return;
    }
    let responded = rec.responders();
    let crashed = rec.count(DeviceOutcome::Crashed);
    let offline = rec.count(DeviceOutcome::Offline);
    let deadline_miss = rec.count(DeviceOutcome::DeadlineMiss);
    let link_failed = rec.count(DeviceOutcome::LinkFailed);
    fedprox_telemetry::counter!("net.participation.responded", responded as u64);
    fedprox_telemetry::counter!("net.participation.crashed", crashed as u64);
    fedprox_telemetry::counter!("net.participation.offline", offline as u64);
    fedprox_telemetry::counter!("net.participation.link_failed", link_failed as u64);
    fedprox_telemetry::counter!("net.round.deadline_miss", deadline_miss as u64);
    if rec.skipped {
        fedprox_telemetry::counter!("net.round.skipped", 1u64);
    }
    collector::record_event(Event::Participation {
        round: rec.round as u32,
        responded: responded as u32,
        crashed: crashed as u32,
        offline: offline as u32,
        deadline_miss: deadline_miss as u32,
        link_failed: link_failed as u32,
        weight: rec.responder_weight,
        skipped: u32::from(rec.skipped),
    });
}
