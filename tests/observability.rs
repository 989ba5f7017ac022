//! The observability acceptance tests: one registry scrape taken through
//! the facade exposes per-joiner, per-router, per-queue and per-pod series
//! from a single end-to-end run, and the event journal captures
//! store/join/punctuation/discard events with virtual-time stamps — for
//! both harnesses (the virtual-time simulator engine and the threaded live
//! pipeline), which record through the same code paths.

use bistream::core::config::{EngineConfig, RoutingStrategy};
use bistream::core::engine::BicliqueEngine;
use bistream::core::exec::{Pipeline, PipelineConfig};
use bistream::types::journal::EventKind;
use bistream::types::predicate::JoinPredicate;
use bistream::types::registry::{Observability, RegistrySnapshot};
use bistream::types::rel::Rel;
use bistream::types::telemetry::prometheus_text;
use bistream::types::trace::{HopKind, Trace};
use bistream::types::tuple::Tuple;
use bistream::types::value::Value;
use bistream::types::window::WindowSpec;
use std::collections::HashSet;

#[test]
fn simulated_run_exposes_every_tier_in_one_scrape_and_journals_events() {
    let cfg = EngineConfig {
        r_joiners: 2,
        s_joiners: 2,
        predicate: JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
        window: WindowSpec::sliding(200),
        routing: RoutingStrategy::Hash,
        archive_period_ms: 50,
        punctuation_interval_ms: 10,
        ordering: true,
        seed: 7,
        batch_size: 1,
        adaptive: Default::default(),
    };
    let obs = Observability::new();
    let auditor = bistream::types::audit::Auditor::new();
    auditor.enable_oracle(Some(200));
    let mut engine = BicliqueEngine::builder(cfg)
        .observability(obs.clone())
        .engine_label("sim")
        .auditor(auditor.clone())
        .build()
        .unwrap();

    // 2 s of virtual time: matching R/S pairs every 10 ms over 4 keys.
    // The 200 ms window over a 2 s horizon forces archived sub-indexes to
    // expire wholesale (Theorem 1), so discard events must appear.
    const HORIZON: u64 = 2_000;
    for i in 0..200u64 {
        let ts = i * 10;
        engine.punctuate(ts).unwrap();
        let key = Value::Int((i % 4) as i64);
        engine.ingest(&Tuple::new(Rel::R, ts, vec![key.clone()]), ts).unwrap();
        engine.ingest(&Tuple::new(Rel::S, ts, vec![key]), ts).unwrap();
    }
    engine.punctuate(HORIZON).unwrap();
    engine.flush().unwrap();
    auditor.assert_clean();

    // One scrape, every tier: engine, router, joiner, index, pod.
    let snap = obs.registry.scrape(HORIZON);
    assert_eq!(snap.counter("bistream_tuples_ingested_total", &[("engine", "sim")]), Some(400));
    assert_eq!(
        snap.counter(
            "bistream_router_route_decisions_total",
            &[("router", "r0"), ("strategy", "hash")]
        ),
        Some(400)
    );
    let stored = |units: [&str; 2]| -> u64 {
        units
            .iter()
            .map(|u| {
                snap.counter("bistream_joiner_stored_total", &[("joiner", u)])
                    .unwrap_or_else(|| panic!("missing joiner series for {u}"))
            })
            .sum()
    };
    assert_eq!(stored(["R0", "R1"]), 200, "every R tuple stored exactly once");
    assert_eq!(stored(["S2", "S3"]), 200, "every S tuple stored exactly once");
    let mut cpu_total = 0;
    for pod in ["R0", "R1", "S2", "S3"] {
        cpu_total += snap
            .counter("bistream_pod_cpu_busy_us_total", &[("pod", pod)])
            .unwrap_or_else(|| panic!("missing pod series for {pod}"));
        assert!(
            snap.get("bistream_index_live_tuples", &[("joiner", pod)]).is_some(),
            "pod {pod} has no index series"
        );
    }
    assert!(cpu_total > 0, "no simulated CPU charged to any pod");

    // The journal holds the full story, stamped in virtual time.
    let events = obs.journal.drain();
    assert_eq!(obs.journal.dropped(), 0, "ring must not wrap in this run");
    let tags: HashSet<&str> = events.iter().map(|e| e.kind.tag()).collect();
    for tag in [
        "TupleStored",
        "JoinEmitted",
        "PunctuationAdvanced",
        "SubIndexArchived",
        "SubIndexDiscarded",
    ] {
        assert!(tags.contains(tag), "journal missing {tag}; saw {tags:?}");
    }
    for e in &events {
        assert!(e.ts <= HORIZON, "virtual stamp {} beyond horizon", e.ts);
    }
    // Store events are stamped with the stored tuple's event time, which
    // this feed only ever set to multiples of 10 ms.
    assert!(events.iter().filter(|e| e.kind.tag() == "TupleStored").all(|e| e.ts % 10 == 0));
}

#[test]
fn live_run_exposes_every_tier_in_one_scrape_including_queues() {
    let mut engine = EngineConfig::default_equi();
    engine.window = WindowSpec::sliding(60_000);
    let p = Pipeline::launch(PipelineConfig::new(engine)).unwrap();
    for i in 0..100i64 {
        let now = p.now();
        p.ingest(&Tuple::new(Rel::R, now, vec![Value::Int(i)])).unwrap();
        p.ingest(&Tuple::new(Rel::S, now, vec![Value::Int(i)])).unwrap();
    }
    // Let the router and joiner threads churn through a few punctuation
    // cycles before scraping.
    std::thread::sleep(std::time::Duration::from_millis(200));

    let snap = p.observability().registry.scrape(p.now());
    // Queue tier — only the live pipeline has a broker, and all 200
    // publishes into the shared ingest queue happened before the scrape.
    assert_eq!(
        snap.counter("bistream_queue_published_total", &[("queue", "tuple.exchange.routers")]),
        Some(200)
    );
    assert!(snap.get("bistream_queue_depth", &[("queue", "unit.0")]).is_some());
    // Joiner, router, pod and engine tiers, same names as the simulator.
    let stored: u64 = ["R0", "R1"]
        .iter()
        .filter_map(|u| snap.counter("bistream_joiner_stored_total", &[("joiner", u)]))
        .sum();
    assert!(stored > 0, "no stores visible per joiner yet");
    assert!(snap
        .get("bistream_router_route_decisions_total", &[("router", "r0"), ("strategy", "hash")])
        .is_some());
    assert!(snap.get("bistream_pod_cpu_busy_us_total", &[("pod", "S2")]).is_some());
    assert!(snap.counter("bistream_tuples_ingested_total", &[("engine", "live")]).is_some());

    // The journal records through the same code paths as the simulator;
    // stamps are tuple event times, i.e. never ahead of the wall clock.
    let now = p.now();
    let events = p.observability().journal.drain();
    assert!(events.iter().any(|e| e.kind.tag() == "TupleStored"));
    assert!(events.iter().all(|e| e.ts <= now));

    // The Prometheus rendering covers the same single-scrape surface.
    let text = prometheus_text(&p.observability().registry, p.now());
    assert!(text.contains("# TYPE bistream_queue_depth gauge"));
    assert!(text.contains("queue=\"unit.0\""));
    assert!(text.contains("# TYPE bistream_joiner_stored_total counter"));

    let report = p.finish().unwrap();
    if let Some(a) = &report.auditor {
        a.assert_clean();
    }
}

#[test]
fn journal_overflow_is_visible_as_a_registry_gauge() {
    let obs = Observability::with_journal_capacity(8);
    for i in 0..20u64 {
        obs.journal.record(i, EventKind::TupleStored { side: Rel::R, unit: 0, seq: i });
    }
    // 20 records through an 8-slot ring evict the oldest 12, and the
    // bundle exposes that silent loss as a gauge in the same scrape as
    // everything else.
    assert_eq!(obs.journal.dropped(), 12);
    let snap = obs.registry.scrape(20);
    assert_eq!(snap.gauge("bistream_journal_dropped_total", &[]), Some(12));
    // What survives is the newest `capacity` events, in record order.
    let kept = obs.journal.drain();
    assert_eq!(kept.len(), 8);
    assert_eq!(kept.first().map(|e| e.ts), Some(12));
    assert_eq!(kept.last().map(|e| e.ts), Some(19));
}

/// Drive the deterministic virtual-time workload through a traced engine
/// and return the collected traces (sorted by id) plus the final scrape.
fn traced_sim_run(obs: Observability) -> (Vec<Trace>, RegistrySnapshot) {
    let cfg = EngineConfig {
        r_joiners: 2,
        s_joiners: 2,
        predicate: JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
        window: WindowSpec::sliding(200),
        routing: RoutingStrategy::Hash,
        archive_period_ms: 50,
        punctuation_interval_ms: 10,
        ordering: true,
        seed: 11,
        batch_size: 1,
        adaptive: Default::default(),
    };
    let mut engine = BicliqueEngine::builder(cfg).observability(obs.clone()).build().unwrap();
    for i in 0..100u64 {
        let ts = i * 10;
        engine.punctuate(ts).unwrap();
        let key = Value::Int((i % 4) as i64);
        engine.ingest(&Tuple::new(Rel::R, ts, vec![key.clone()]), ts).unwrap();
        engine.ingest(&Tuple::new(Rel::S, ts, vec![key]), ts).unwrap();
    }
    engine.punctuate(1_000).unwrap();
    engine.flush().unwrap();
    obs.tracer.flush_pending();
    let mut traces = obs.tracer.drain();
    traces.sort_by_key(|t| t.id);
    (traces, obs.registry.scrape(1_000))
}

#[test]
fn sampled_traces_are_complete_deterministic_and_attributed() {
    let (traces, snap) = traced_sim_run(Observability::with_tracing(4));
    assert!(!traces.is_empty(), "sampling 1-in-4 over 200 tuples yields traces");
    let complete: Vec<&Trace> = traces.iter().filter(|t| t.complete).collect();
    assert!(!complete.is_empty(), "some traces must close every branch");
    for t in &complete {
        // Every journey starts at the router and reaches its unit.
        assert!(t.has_hop(HopKind::Route), "trace {} has no ingress hop", t.id);
        assert!(
            t.has_hop(HopKind::Store) || t.has_hop(HopKind::Probe),
            "trace {} never reached a joiner",
            t.id
        );
        // Latency attribution is exact: queue wait plus service over the
        // recorded hops sums to the end-to-end latency.
        let timings = t.hop_timings();
        let attributed: u64 = timings.iter().map(|h| h.wait + h.service).sum();
        assert_eq!(attributed, t.end_to_end(), "trace {} leaks latency", t.id);
    }
    // Matching R/S pairs share a key and timestamp, so at least one
    // sampled tuple's probe emitted results: a full ingress→emit journey.
    assert!(complete.iter().any(|t| t.has_hop(HopKind::Emit)), "no sampled trace reached an emit");

    // The same completed traces feed the per-hop histogram tier.
    assert!(snap.counter("bistream_trace_completed_total", &[]).unwrap_or(0) > 0);
    for hop in ["route", "store", "probe"] {
        assert!(
            snap.get("bistream_trace_hop_service_ms", &[("hop", hop)]).is_some(),
            "missing service histogram for hop {hop}"
        );
        assert!(
            snap.get("bistream_trace_hop_wait_ms", &[("hop", hop)]).is_some(),
            "missing wait histogram for hop {hop}"
        );
    }
    assert!(snap.get("bistream_trace_e2e_latency_ms", &[]).is_some());

    // Sampling is keyed on the deterministic tuple sequence, so a
    // same-seed rerun reproduces the trace set exactly.
    let (again, _) = traced_sim_run(Observability::with_tracing(4));
    assert_eq!(traces, again, "traces must be reproducible across same-seed runs");

    // With tracing disabled the same run records nothing.
    let (none, _) = traced_sim_run(Observability::new());
    assert!(none.is_empty(), "disabled tracer must collect no traces");
}
