//! SLO-engine acceptance tests through the facade: the seeded broker
//! stall breaches the throughput floor with a byte-stable flight-recorder
//! bundle, a frozen ordering frontier is caught by the progress watchdog
//! within bounded ticks, and — the false-positive guarantee — an idle
//! pipeline raises no alerts at all.

use bistream::core::chaos::run_broker_stall_drill;
use bistream::core::config::{EngineConfig, RoutingStrategy};
use bistream::core::engine::BicliqueEngine;
use bistream::core::exec::{Pipeline, PipelineConfig};
use bistream::types::metric_names as names;
use bistream::types::predicate::JoinPredicate;
use bistream::types::recorder::BreachBundle;
use bistream::types::registry::{Observability, Sampler};
use bistream::types::rel::Rel;
use bistream::types::slo::SloSpec;
use bistream::types::tuple::Tuple;
use bistream::types::value::Value;
use bistream::types::watchdog::{scan, StallKind, WatchdogConfig};
use bistream::types::window::WindowSpec;

/// A seeded broker stall must grade as an SLO breach — burn alert on the
/// activity-gated throughput floor — and the breach bundle must survive a
/// JSON round-trip byte for byte (it is a committed-artifact format).
#[test]
fn seeded_broker_stall_breaches_the_slo_with_a_byte_stable_bundle() {
    let drill = run_broker_stall_drill(
        7,
        10,
        40,
        SloSpec::new().min_ingest_tps(50.0),
        WatchdogConfig::default(),
    )
    .unwrap();
    assert_eq!(drill.plan.scenario, "broker_stall");

    let health = &drill.report.health;
    let slo = health.slo.as_ref().expect("SLO was configured");
    assert!(slo.breached, "the stalled window must burn the error budget: {slo:?}");
    assert!(!slo.alerts.is_empty());
    let alert = &slo.alerts[0];
    assert_eq!(alert.alert, names::ALERT_SLO_BURN);
    assert_eq!(alert.objective, names::SLO_MIN_INGEST_TPS);
    assert!(alert.fast_burn >= 1.0 && alert.slow_burn >= 1.0);
    assert!(slo.availability_pct() < 100.0);

    // Breach ⇒ the flight recorder dumped a bundle; round-trip it.
    let bundle = health.bundle.as_ref().expect("breach must produce a bundle");
    assert!(!bundle.scrapes.is_empty(), "bundle carries the recent scrape tail");
    let text = bundle.to_json();
    let parsed = BreachBundle::from_json(&text).expect("bundle parses back");
    assert_eq!(parsed.to_json(), text, "bundle JSON is byte-stable");
}

/// A frozen ordering frontier — watermark pinned while tuples keep
/// arriving and buffering — must be flagged as a [`StallKind::FrontierStall`]
/// within `stall_ticks` scrape intervals of the freeze, never as idleness.
#[test]
fn frozen_frontier_is_detected_by_the_watchdog_within_bounded_ticks() {
    let cfg = EngineConfig {
        r_joiners: 2,
        s_joiners: 2,
        predicate: JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
        window: WindowSpec::sliding(60_000),
        routing: RoutingStrategy::Hash,
        archive_period_ms: 1_000,
        punctuation_interval_ms: 10,
        ordering: true,
        seed: 7,
        batch_size: 1,
        adaptive: Default::default(),
    };
    let obs = Observability::new();
    let mut engine = BicliqueEngine::builder(cfg).observability(obs.clone()).build().unwrap();
    let mut sampler = Sampler::new(obs.registry.clone(), 50);
    sampler.force_sample(0);

    // Healthy phase: the frontier advances with every punctuation, so
    // these intervals must not look like a stall.
    for i in 0..20i64 {
        let ts = (i as u64) * 10;
        engine.ingest(&Tuple::new(Rel::R, ts, vec![Value::Int(i)]), ts).unwrap();
        engine.ingest(&Tuple::new(Rel::S, ts, vec![Value::Int(i)]), ts).unwrap();
        engine.punctuate(ts + 1).unwrap();
        sampler.maybe_sample(ts);
    }

    // Freeze the frontier (test-only hook): punctuations keep flowing but
    // no longer advance it, so arriving tuples pile up in reorder buffers.
    engine.debug_freeze_frontier(true);
    const FREEZE_MS: u64 = 200;
    for i in 20..60i64 {
        let ts = (i as u64) * 10;
        engine.ingest(&Tuple::new(Rel::R, ts, vec![Value::Int(i)]), ts).unwrap();
        engine.ingest(&Tuple::new(Rel::S, ts, vec![Value::Int(i)]), ts).unwrap();
        engine.punctuate(ts + 1).unwrap();
        sampler.maybe_sample(ts);
    }
    let series =
        bistream::types::metrics::finalize_scrape_series(&obs.registry, 600, sampler.into_series());

    let cfg = WatchdogConfig::default();
    let verdicts = scan(&cfg, &series);
    let frontier: Vec<_> = verdicts.iter().filter(|v| v.kind == StallKind::FrontierStall).collect();
    assert!(!frontier.is_empty(), "the frozen frontier must be flagged: {verdicts:?}");
    // Detection is bounded: a unit's run starts at the first scrape that
    // finds it holding work behind the frozen frontier — one interval after
    // the freeze (50 ms cadence) for a unit that was sent a tuple at once,
    // later for one the key hash sends nothing until later (an empty
    // buffer is idleness, not a stall) — and needs `stall_ticks`
    // no-progress intervals to qualify.
    assert!(
        frontier.iter().any(|v| v.from_ms <= FREEZE_MS + 50),
        "some run begins at the next scrape: {frontier:?}"
    );
    for v in &frontier {
        assert!(v.from_ms >= FREEZE_MS, "run begins after the freeze: {v:?}");
        assert!(v.ticks >= cfg.stall_ticks as u64, "{v:?}");
        assert!(v.buffered > 0, "stall evidence requires buffered work: {v:?}");
        assert_eq!(v.alert(), names::ALERT_PROGRESS_STALL);
    }
    // The healthy prefix produced no verdicts of its own: every flagged
    // run lies inside the frozen phase.
    assert!(verdicts.iter().all(|v| v.from_ms >= FREEZE_MS), "{verdicts:?}");
}

/// The false-positive guarantee: a pipeline with SLOs armed but nothing
/// to do — no ingest at all — must end healthy. No burn alerts (the floor
/// is activity-gated; timer-driven punctuations are not activity), no
/// stall verdicts (empty buffers never trip the watchdog), no bundle.
#[test]
fn idle_pipeline_raises_no_alerts() {
    let mut engine = EngineConfig::default_equi();
    engine.window = WindowSpec::sliding(60_000);
    let mut config = PipelineConfig::new(engine);
    config.slo = Some(SloSpec::new().min_ingest_tps(100.0).p99_latency_ms(10));
    let p = Pipeline::launch(config).unwrap();
    // Several scrape intervals of pure idleness, long enough for the
    // routers to punctuate repeatedly on their timers.
    for _ in 0..4 {
        std::thread::sleep(std::time::Duration::from_millis(40));
        p.sample();
    }
    let report = p.finish().unwrap();

    let slo = report.health.slo.as_ref().expect("SLO was configured");
    assert!(!slo.breached, "idle must not breach: {slo:?}");
    assert!(slo.alerts.is_empty(), "{:?}", slo.alerts);
    for o in &slo.objectives {
        assert_eq!(o.breached_windows, 0, "{o:?}");
        assert!(!o.alerted, "{o:?}");
    }
    assert!(report.health.stalls.is_empty(), "{:?}", report.health.stalls);
    assert!(report.health.bundle.is_none());
    assert!(!report.health.breached());
    assert!((slo.availability_pct() - 100.0).abs() < 1e-9);
}
