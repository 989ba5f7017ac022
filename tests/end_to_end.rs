//! Cross-crate integration tests: both join architectures against the
//! brute-force reference join, across predicates, strategies and
//! transports.

use bistream::core::config::{EngineConfig, RoutingStrategy};
use bistream::core::delivery::DeliveryMode;
use bistream::core::engine::BicliqueEngine;
use bistream::matrix::{JoinMatrix, MatrixConfig};
use bistream::types::predicate::{CmpOp, JoinPredicate};
use bistream::types::rel::Rel;
use bistream::types::time::Ts;
use bistream::types::tuple::{JoinResult, Tuple};
use bistream::types::value::Value;
use bistream::types::window::WindowSpec;

const WINDOW_MS: Ts = 800;

/// A deterministic mixed stream with controlled key collisions.
fn stream(n: usize, keys: i64, seed: u64) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(n);
    let mut state = seed | 1;
    for i in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let rel = if state & 1 == 0 { Rel::R } else { Rel::S };
        let key = ((state >> 33) % keys as u64) as i64;
        out.push(Tuple::new(rel, (i as Ts) * 4, vec![Value::Int(key)]));
    }
    out
}

fn reference(tuples: &[Tuple], predicate: &JoinPredicate) -> Vec<(Ts, Vec<Value>, Ts, Vec<Value>)> {
    let mut expect = Vec::new();
    for a in tuples.iter().filter(|t| t.rel() == Rel::R) {
        for b in tuples.iter().filter(|t| t.rel() == Rel::S) {
            if a.ts().abs_diff(b.ts()) <= WINDOW_MS && predicate.evaluate(a, b).unwrap() {
                expect.push(JoinResult::of(a.clone(), b.clone()).identity());
            }
        }
    }
    expect.sort();
    expect
}

fn run_biclique(
    tuples: &[Tuple],
    predicate: JoinPredicate,
    routing: RoutingStrategy,
    routers: usize,
    batch_size: usize,
    delivery: DeliveryMode,
) -> Vec<(Ts, Vec<Value>, Ts, Vec<Value>)> {
    let cfg = EngineConfig {
        r_joiners: 3,
        s_joiners: 2,
        predicate,
        window: WindowSpec::sliding(WINDOW_MS),
        routing,
        archive_period_ms: 50,
        punctuation_interval_ms: 30,
        ordering: true,
        seed: 11,
        batch_size,
        adaptive: Default::default(),
    };
    let auditor = bistream::types::audit::Auditor::new();
    // The O(n²) output oracle only understands equi keys; the other
    // invariant checks are armed for every predicate.
    if matches!(cfg.predicate, JoinPredicate::Equi { .. }) {
        auditor.enable_oracle(Some(WINDOW_MS));
    }
    let manual = !matches!(delivery, DeliveryMode::InOrder);
    let mut builder =
        BicliqueEngine::builder(cfg).routers(routers).delivery(delivery).auditor(auditor.clone());
    if manual {
        builder = builder.manual_pump();
    }
    let mut engine = builder.build().expect("valid config");
    engine.capture_results();
    let mut next_punct = 30;
    let mut last = 0;
    for t in tuples {
        while next_punct <= t.ts() {
            engine.punctuate(next_punct).unwrap();
            if manual {
                engine.pump().unwrap();
            }
            next_punct += 30;
        }
        engine.ingest(t, t.ts()).unwrap();
        last = t.ts();
    }
    engine.punctuate(last + 30).unwrap();
    if manual {
        engine.pump().unwrap();
    }
    engine.flush().unwrap();
    let mut got: Vec<_> = engine.take_captured().iter().map(JoinResult::identity).collect();
    got.sort();
    auditor.assert_clean();
    got
}

fn run_matrix(tuples: &[Tuple], predicate: JoinPredicate) -> Vec<(Ts, Vec<Value>, Ts, Vec<Value>)> {
    let cfg = MatrixConfig {
        rows: 2,
        cols: 3,
        predicate,
        window: WindowSpec::sliding(WINDOW_MS),
        archive_period_ms: 50,
        seed: 11,
    };
    let auditor = bistream::types::audit::Auditor::new();
    if matches!(cfg.predicate, JoinPredicate::Equi { .. }) {
        auditor.enable_oracle(Some(WINDOW_MS));
    }
    let mut m = JoinMatrix::new(cfg).unwrap();
    m.set_auditor(auditor.clone());
    m.capture_results();
    for t in tuples {
        m.ingest(t, t.ts()).unwrap();
    }
    let mut got: Vec<_> = m.take_captured().iter().map(JoinResult::identity).collect();
    got.sort();
    auditor.assert_clean();
    got
}

#[test]
fn biclique_equi_matches_reference_under_every_strategy() {
    let tuples = stream(600, 17, 0xA);
    let predicate = JoinPredicate::Equi { r_attr: 0, s_attr: 0 };
    let expect = reference(&tuples, &predicate);
    assert!(!expect.is_empty());
    for routing in
        [RoutingStrategy::Random, RoutingStrategy::Hash, RoutingStrategy::ContRand { subgroups: 2 }]
    {
        let got = run_biclique(&tuples, predicate.clone(), routing, 1, 1, DeliveryMode::InOrder);
        assert_eq!(got, expect, "strategy {routing:?}");
    }
}

#[test]
fn biclique_band_and_theta_match_reference() {
    let tuples = stream(400, 40, 0xB);
    for predicate in [
        JoinPredicate::Band { r_attr: 0, s_attr: 0, band: 3.0 },
        JoinPredicate::Theta { r_attr: 0, s_attr: 0, op: CmpOp::Lt },
        JoinPredicate::Theta { r_attr: 0, s_attr: 0, op: CmpOp::Ge },
    ] {
        let expect = reference(&tuples, &predicate);
        let got = run_biclique(
            &tuples,
            predicate.clone(),
            RoutingStrategy::Random,
            1,
            1,
            DeliveryMode::InOrder,
        );
        assert_eq!(got, expect, "predicate {predicate}");
    }
}

/// Exactly-once under adversarial delivery at every framing and router
/// count: each router's frames prove their channel's FIFO frontier on
/// their own, and the release waits for the slowest router's proof.
#[test]
fn biclique_exactly_once_with_multiple_routers_and_shuffled_network() {
    let tuples = stream(800, 13, 0xC);
    let predicate = JoinPredicate::Equi { r_attr: 0, s_attr: 0 };
    let expect = reference(&tuples, &predicate);
    for batch in [1, 3, 7, 64] {
        for routers in 1..=3 {
            for seed in [1u64, 99] {
                let got = run_biclique(
                    &tuples,
                    predicate.clone(),
                    RoutingStrategy::Random,
                    routers,
                    batch,
                    DeliveryMode::Shuffled { seed },
                );
                assert_eq!(got, expect, "batch {batch}, {routers} routers, shuffle seed {seed}");
            }
        }
    }
}

#[test]
fn matrix_and_biclique_agree_on_every_predicate() {
    let tuples = stream(500, 23, 0xD);
    for predicate in [
        JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
        JoinPredicate::Band { r_attr: 0, s_attr: 0, band: 2.0 },
        JoinPredicate::Cross,
    ] {
        let expect = reference(&tuples, &predicate);
        let bic = run_biclique(
            &tuples,
            predicate.clone(),
            RoutingStrategy::Random,
            1,
            1,
            DeliveryMode::InOrder,
        );
        let mat = run_matrix(&tuples, predicate.clone());
        assert_eq!(bic, expect, "biclique vs reference on {predicate}");
        assert_eq!(mat, expect, "matrix vs reference on {predicate}");
    }
}

#[test]
fn live_pipeline_agrees_with_sync_engine_on_totals() {
    use bistream::core::exec::{Pipeline, PipelineConfig};
    let mut cfg = EngineConfig::default_equi();
    cfg.window = WindowSpec::sliding(60_000);
    cfg.punctuation_interval_ms = 5;
    let pipeline = Pipeline::launch(PipelineConfig::new(cfg)).unwrap();
    let pairs = 400;
    for i in 0..pairs {
        let now = pipeline.now();
        pipeline.ingest(&Tuple::new(Rel::R, now, vec![Value::Int(i)])).unwrap();
        pipeline.ingest(&Tuple::new(Rel::S, now, vec![Value::Int(i)])).unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    let report = pipeline.finish().unwrap();
    assert_eq!(report.snapshot.results, pairs as u64);
    assert_eq!(report.snapshot.ingested, 2 * pairs as u64);
    if let Some(a) = &report.auditor {
        a.assert_clean();
    }
}

#[test]
fn full_history_never_loses_matches() {
    let tuples = stream(300, 9, 0xE);
    let cfg = EngineConfig {
        r_joiners: 2,
        s_joiners: 2,
        predicate: JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
        window: WindowSpec::FullHistory,
        routing: RoutingStrategy::Hash,
        archive_period_ms: 50,
        punctuation_interval_ms: 30,
        ordering: true,
        seed: 5,
        batch_size: 1,
        adaptive: Default::default(),
    };
    let auditor = bistream::types::audit::Auditor::new();
    auditor.enable_oracle(None);
    let mut engine = BicliqueEngine::builder(cfg).auditor(auditor.clone()).build().unwrap();
    engine.capture_results();
    for t in &tuples {
        engine.ingest(t, t.ts()).unwrap();
    }
    engine.punctuate(tuples.last().unwrap().ts() + 50).unwrap();
    engine.flush().unwrap();
    auditor.assert_clean();
    let got = engine.take_captured().len();
    // Reference without window bound.
    let mut expect = 0usize;
    for a in tuples.iter().filter(|t| t.rel() == Rel::R) {
        for b in tuples.iter().filter(|t| t.rel() == Rel::S) {
            if a.get(0) == b.get(0) {
                expect += 1;
            }
        }
    }
    assert_eq!(got, expect);
}
