//! Integration test for the queueing-model analyzer: under steady load
//! the predicted per-unit utilization (λ from the evaluation half of the
//! scrape series × the service time Ŝ calibrated on the first half) must
//! agree with the observed busy-CPU fraction to within 10 % — the E18
//! acceptance bar. A disagreement means the service-time estimate does
//! not transfer across windows, i.e. the model (or the meters feeding it)
//! broke.

use bistream::cluster::{CostModel, HpaConfig};
use bistream::core::config::{EngineConfig, RoutingStrategy};
use bistream::core::engine::BicliqueEngine;
use bistream::core::sim::{run_dynamic_scaling, SimConfig, VecFeed};
use bistream::types::predicate::JoinPredicate;
use bistream::types::rel::Rel;
use bistream::types::time::Ts;
use bistream::types::tuple::Tuple;
use bistream::types::value::Value;
use bistream::types::window::WindowSpec;

/// A constant-rate two-relation stream: one matching pair every
/// `pair_every_ms`, keys cycling over `keys`.
fn steady_pairs(horizon_ms: Ts, pair_every_ms: Ts, keys: i64) -> Vec<Tuple> {
    let mut out = Vec::new();
    let mut t = 0;
    let mut k = 0i64;
    while t < horizon_ms {
        out.push(Tuple::new(Rel::R, t, vec![Value::Int(k)]));
        out.push(Tuple::new(Rel::S, t, vec![Value::Int(k)]));
        k = (k + 1) % keys;
        t += pair_every_ms;
    }
    out
}

#[test]
fn predicted_utilization_tracks_observed_within_ten_percent() {
    let mut cfg = EngineConfig::default_equi();
    cfg.r_joiners = 2;
    cfg.s_joiners = 2;
    cfg.routing = RoutingStrategy::Hash;
    cfg.predicate = JoinPredicate::Equi { r_attr: 0, s_attr: 0 };
    // A short window relative to the 16 s horizon: the index fills within
    // the first second, so per-item cost is stationary over nearly the
    // whole calibration half.
    cfg.window = WindowSpec::sliding(1_000);
    cfg.punctuation_interval_ms = 50;
    let engine = BicliqueEngine::builder(cfg)
        .cost_model(CostModel::thesis_operating_point())
        .build()
        .unwrap();

    // 200 pairs/s for 16 s of virtual time, fixed 2×2 layout.
    let mut feed = VecFeed::new(steady_pairs(16_000, 5, 100));
    let sim = SimConfig {
        duration_ms: 16_000,
        sample_interval_ms: 1_000,
        scale_r: false,
        scale_s: false,
        pod_startup_delay_ms: 0,
        ..Default::default()
    };
    let out = run_dynamic_scaling(engine, &mut feed, HpaConfig::thesis_cpu(), &sim).unwrap();

    assert!(out.metric_series.len() >= 3, "sampler must produce a real series");
    assert!(!out.perf.units.is_empty(), "every pod meter yields a unit row");
    let mut checked = 0;
    for u in &out.perf.units {
        assert!(u.arrivals > 0, "unit {} saw work", u.unit);
        assert!(u.service_us_per_item > 0.0, "unit {} has a service-time estimate", u.unit);
        // Near-idle units (< 0.5 % busy) carry too little signal for a
        // relative bound; everything else must be inside the E18 bar.
        if u.utilization_observed < 0.005 {
            continue;
        }
        let err = (u.utilization_predicted - u.utilization_observed).abs() / u.utilization_observed;
        assert!(
            err <= 0.10,
            "unit {}: predicted {:.4} vs observed {:.4} ({:.1}% off)",
            u.unit,
            u.utilization_predicted,
            u.utilization_observed,
            err * 100.0
        );
        checked += 1;
    }
    assert!(checked > 0, "at least one unit must be busy enough to check: {:?}", out.perf.units);
}

#[test]
fn perf_report_is_empty_for_an_idle_run() {
    let mut cfg = EngineConfig::default_equi();
    cfg.window = WindowSpec::sliding(500);
    let engine = BicliqueEngine::new(cfg).unwrap();
    let mut feed = VecFeed::new(Vec::new());
    let sim = SimConfig {
        duration_ms: 2_000,
        sample_interval_ms: 500,
        scale_r: false,
        scale_s: false,
        pod_startup_delay_ms: 0,
        ..Default::default()
    };
    let out = run_dynamic_scaling(engine, &mut feed, HpaConfig::thesis_cpu(), &sim).unwrap();
    for u in &out.perf.units {
        assert_eq!(u.arrivals, 0, "idle run: {u:?}");
        // Not exactly zero: every frame costs `ingest_us`, and an idle
        // unit still receives the punctuation heartbeat.
        assert!(u.utilization_observed < 0.001, "idle run: {u:?}");
    }
    // The virtual-time simulator has no broker queues to check.
    assert!(out.perf.queues.is_empty());
}
