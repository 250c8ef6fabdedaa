//! One `--obs` stream feeds every reader: a single armed run writes one
//! file carrying the run-ledger header, the health samples, the span
//! tree, the round and participation events and the post-mortem marker,
//! and everything recorded up to a round end is on disk before the run
//! moves on.
#![cfg(feature = "telemetry")]
// Module-level helpers sit outside #[test] fns, where clippy.toml's
// allow-expect-in-tests does not reach.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use fedprox_bench::{synthetic_federation, RunInfo, TraceSession};
use fedprox_core::{Algorithm, FedConfig, Population, RunnerKind, SimRunnerOptions};
use fedprox_faults::{FaultPlan, QuorumPolicy, Resilience};
use fedprox_models::MultinomialLogistic;
use fedprox_obs::postmortem::{PostmortemBundle, POSTMORTEM_WINDOW};
use fedprox_obs::Timeline;
use fedprox_optim::estimator::EstimatorKind;
use fedprox_sim::SimEngine;
use fedprox_telemetry::event::Event;
use fedprox_telemetry::jsonl;
use fedprox_telemetry::scope::HealthReport;

fn read(path: &std::path::Path) -> Vec<Event> {
    jsonl::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

#[test]
fn one_obs_stream_feeds_every_reader() {
    let path = std::env::temp_dir().join(format!("fedprox_obs_stream_{}.jsonl", std::process::id()));
    let fed = synthetic_federation(1.0, 1.0, 3, 30, 60, 5);
    let model = MultinomialLogistic::new(fed.test.dim(), fed.test.num_classes());
    // Device 1 crashes at round 3 and the quorum wants all three
    // devices, so round 3 is skipped and fires the flight recorder.
    let resilience = Resilience::with_plan(FaultPlan::new().crash(1, 3))
        .with_quorum(QuorumPolicy { min_responders: 3, ..QuorumPolicy::default() });
    let cfg = FedConfig::new(Algorithm::FedProxVr(EstimatorKind::Svrg))
        .with_rounds(4)
        .with_eval_every(1)
        .with_seed(5)
        .with_resilience(resilience)
        .with_runner(RunnerKind::EventDriven(SimRunnerOptions::default()));
    let info = RunInfo::new("obs stream test", 5).with_faults("crash 1:3");

    let session = TraceSession::start(path.to_str(), &info).unwrap();
    assert!(session.active());
    let engine =
        SimEngine::new(&model, Population::Materialized(&fed.devices), Some(&fed.test), cfg);
    let mut flushed_rounds = 0;
    engine
        .run_with(|stats| {
            if stats.active == 0 {
                return; // skipped: no round end was recorded
            }
            // Mid-run, the file on disk parses and already holds this
            // round's end.
            let events = read(&path);
            assert!(matches!(events.first(), Some(Event::RunMeta { .. })), "{events:?}");
            let round = (stats.round - 1) as u32;
            assert!(
                events.iter().any(|e| matches!(e, Event::RoundEnd { round: r, .. } if *r == round)),
                "round {round}'s end is not on disk mid-run"
            );
            flushed_rounds += 1;
        })
        .unwrap();
    session.finish();
    assert_eq!(flushed_rounds, 2, "rounds 1 and 2 run before the crash skips the rest");

    let events = read(&path);
    // The ledger header leads the stream, digests applied.
    assert!(
        matches!(&events[0], Event::RunMeta { seed: 5, faults, .. }
            if faults == &fedprox_obs::fnv64("crash 1:3")),
        "ledger header must lead the obs stream: {:?}",
        events[0]
    );
    // Health samples the schema check accepts.
    let health = HealthReport::from_events(&events);
    assert!(!health.samples.is_empty(), "no health samples in the stream");
    assert_eq!(health.validate(), Vec::<String>::new());
    // Span-tree rows for a span nested under the round.
    assert!(
        events.iter().any(
            |e| matches!(e, Event::PathStat { path, .. } if path == "round/device_update")
        ),
        "no nested path_stat row"
    );
    assert!(events.iter().any(|e| matches!(e, Event::Span { .. })));
    assert!(events.iter().any(|e| matches!(e, Event::Counter { .. })));
    // Round, participation and post-mortem events the timeline and the
    // post-mortem bundle read.
    assert!(events.iter().any(|e| matches!(e, Event::Participation { skipped: 1, .. })));
    let timeline = Timeline::from_events(&events);
    assert_eq!(timeline.rounds.len(), 4);
    assert!(timeline.rounds.iter().any(|r| r.skipped));
    let bundle = PostmortemBundle::from_events(&events, POSTMORTEM_WINDOW).unwrap();
    assert_eq!((bundle.round, bundle.reason.as_str(), bundle.device), (3, "quorum_skip", Some(1)));
    assert!(bundle.ledger.is_some(), "the bundle must find the ledger header");
    std::fs::remove_file(&path).ok();
}
