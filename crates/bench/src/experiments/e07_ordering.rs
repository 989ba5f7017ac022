//! **E7 — The ordering protocol: correctness under adversarial delivery
//! and the punctuation-interval trade-off** (reconstructed: the
//! completeness evaluation; the race scenarios are the source text's
//! Fig. 8 c/d).
//!
//! Part 1 (correctness): the same tuple stream is delivered through the
//! shuffled pairwise-FIFO network with the protocol ON and OFF, and the
//! emitted result multiset is compared against the brute-force reference
//! join. ON must be *exactly-once*; OFF exhibits the missed- and
//! duplicate-result races.
//!
//! Part 2 (overhead): sweeping the punctuation interval shows the
//! protocol's message overhead (punctuations per data tuple) and that its
//! latency no longer follows the interval: data frames carry their
//! channel's FIFO proof, so a tuple is released when its frame arrives.

use super::common::engine_config;
use super::ExpCtx;
use crate::report::{f, Table};
use bistream_core::config::RoutingStrategy;
use bistream_core::delivery::DeliveryMode;
use bistream_core::engine::BicliqueEngine;
use bistream_types::predicate::JoinPredicate;
use bistream_types::rel::Rel;
use bistream_types::time::Ts;
use bistream_types::tuple::{JoinResult, Tuple};
use bistream_types::value::Value;
use bistream_types::window::WindowSpec;
use std::collections::HashMap;

const WINDOW_MS: Ts = 1_000;

fn workload(n: usize, seed: u64) -> Vec<Tuple> {
    // Deterministic pseudo-random key stream with both relations mixed.
    let mut tuples = Vec::with_capacity(n);
    let mut state = seed | 1;
    for i in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let rel = if state & 1 == 0 { Rel::R } else { Rel::S };
        let key = ((state >> 33) % 40) as i64;
        tuples.push(Tuple::new(rel, (i as Ts) * 3, vec![Value::Int(key)]));
    }
    tuples
}

fn reference_join(tuples: &[Tuple]) -> Vec<(Ts, Vec<Value>, Ts, Vec<Value>)> {
    let mut expect = Vec::new();
    for a in tuples.iter().filter(|x| x.rel() == Rel::R) {
        for b in tuples.iter().filter(|x| x.rel() == Rel::S) {
            if a.get(0) == b.get(0) && a.ts().abs_diff(b.ts()) <= WINDOW_MS {
                expect.push(JoinResult::of(a.clone(), b.clone()).identity());
            }
        }
    }
    expect.sort();
    expect
}

struct RunOutcome {
    results: usize,
    missed: usize,
    duplicated: usize,
}

fn run_once(tuples: &[Tuple], ordering: bool, shuffle_seed: u64, punct_ms: Ts) -> RunOutcome {
    let mut cfg = engine_config(
        RoutingStrategy::Random,
        JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
        WindowSpec::sliding(WINDOW_MS),
        3,
        3,
        7,
    );
    cfg.ordering = ordering;
    cfg.punctuation_interval_ms = punct_ms;
    // Shuffled delivery with batching: tuples pile up in the network and
    // are delivered in adversarial cross-channel order.
    let mut engine = BicliqueEngine::builder(cfg)
        .routers(2)
        .delivery(DeliveryMode::Shuffled { seed: shuffle_seed })
        .manual_pump()
        .build()
        .expect("valid");
    engine.capture_results();
    let mut next_punct = punct_ms;
    let mut last_t = 0;
    for t in tuples {
        if t.ts() >= next_punct {
            engine.punctuate(next_punct).expect("punctuate");
            engine.pump().expect("pump");
            next_punct += punct_ms;
        }
        engine.ingest(t, t.ts()).expect("ingest");
        last_t = t.ts();
    }
    engine.punctuate(last_t + punct_ms).expect("punctuate");
    engine.pump().expect("pump");
    engine.flush().expect("flush");

    let got: Vec<_> = engine.take_captured().iter().map(|r| r.identity()).collect();
    let expect = reference_join(tuples);

    // Multiset compare.
    let mut counts: HashMap<_, i64> = HashMap::new();
    for e in &expect {
        *counts.entry(e.clone()).or_default() += 1;
    }
    let mut duplicated = 0usize;
    for g in &got {
        match counts.get_mut(g) {
            Some(c) if *c > 0 => *c -= 1,
            _ => duplicated += 1,
        }
    }
    let missed = counts.values().filter(|&&c| c > 0).map(|&c| c as usize).sum();
    RunOutcome { results: got.len(), missed, duplicated }
}

/// Run E7.
pub fn run(ctx: &ExpCtx) {
    let n = if ctx.quick { 2_000 } else { 8_000 };
    let tuples = workload(n, ctx.seed);
    let expect = reference_join(&tuples).len();

    let mut correctness = Table::new(
        "E7a: exactly-once under adversarial (shuffled, pairwise-FIFO) delivery",
        &["protocol", "shuffle_seed", "expected", "emitted", "missed", "duplicated"],
    );
    for seed in [1u64, 2, 3] {
        for ordering in [true, false] {
            let out = run_once(&tuples, ordering, seed, 20);
            correctness.row(vec![
                if ordering { "on" } else { "off" }.into(),
                seed.to_string(),
                expect.to_string(),
                out.results.to_string(),
                out.missed.to_string(),
                out.duplicated.to_string(),
            ]);
        }
    }
    correctness.emit("e7a_ordering_correctness");

    // Part 2: punctuation-interval sweep (protocol on, in-order net) —
    // punctuation traffic follows 1/interval; latency stays flat.
    let mut sweep = Table::new(
        "E7b: punctuation interval sweep (protocol on)",
        &["interval_ms", "p50_latency_ms", "p99_latency_ms", "punct_msgs_per_tuple"],
    );
    for &interval in &[5u64, 20, 50, 100, 250] {
        let mut cfg = engine_config(
            RoutingStrategy::Random,
            JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
            WindowSpec::sliding(WINDOW_MS),
            2,
            2,
            7,
        );
        cfg.punctuation_interval_ms = interval;
        let mut engine = BicliqueEngine::new(cfg).expect("valid");
        let mut next_punct = interval;
        let mut last_t = 0;
        for t in &tuples {
            while next_punct <= t.ts() {
                engine.punctuate(next_punct).expect("punctuate");
                next_punct += interval;
            }
            engine.ingest(t, t.ts()).expect("ingest");
            last_t = t.ts();
        }
        engine.punctuate(last_t + interval).expect("punctuate");
        let snap = engine.stats();
        sweep.row(vec![
            interval.to_string(),
            snap.latency.p50.to_string(),
            snap.latency.p99.to_string(),
            f(snap.punctuations as f64 / snap.ingested as f64, 2),
        ]);
    }
    sweep.emit("e7b_punctuation_sweep");
}
