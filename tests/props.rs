//! Property tests (seeded cases, `types::cases`) over the core invariants:
//! value ordering laws, codec round-trips, window algebra, chained-index
//! equivalence with the naive index, reorder-buffer ordering, and Zipf
//! sampler bounds.

use bistream::cluster::CostModel;
use bistream::core::config::{AdaptiveTuning, EngineConfig, RoutingStrategy};
use bistream::core::delivery::{ChannelNet, DeliveryMode};
use bistream::core::engine::BicliqueEngine;
use bistream::core::exec::{Backend, Pipeline, PipelineConfig};
use bistream::core::joiner::JoinerCore;
use bistream::core::layout::{JoinerId, Layout};
use bistream::core::router::{RoutedBatch, RouterCore};
use bistream::index::{ChainedIndex, IndexKind, NaiveWindowIndex};
use bistream::matrix::{JoinMatrix, MatrixConfig};
use bistream::types::audit::Auditor;
use bistream::types::batch::BatchMessage;
use bistream::types::cases::{for_cases, Gen};
use bistream::types::predicate::{JoinPredicate, ProbePlan};
use bistream::types::punct::{Punctuation, Purpose, StreamMessage};
use bistream::types::registry::Observability;
use bistream::types::rel::Rel;
use bistream::types::time::Ts;
use bistream::types::tuple::{JoinResult, Tuple};
use bistream::types::value::Value;
use bistream::types::window::WindowSpec;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";

fn arb_value(g: &mut Gen) -> Value {
    match g.uint(0..5) {
        0 => Value::Int(g.i64()),
        1 => Value::Float(g.f64()),
        2 => Value::Str(g.string(LOWER, 0..9)),
        3 => Value::Bool(g.bool()),
        _ => Value::Null,
    }
}

/// Ord on Value is a total order: antisymmetric and transitive.
#[test]
fn value_order_is_total() {
    for_cases("value_order_is_total", 256, |g| {
        let (a, b, c) = (arb_value(g), arb_value(g), arb_value(g));
        use std::cmp::Ordering::*;
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        if a.cmp(&b) != Greater && b.cmp(&c) != Greater {
            assert_ne!(a.cmp(&c), Greater);
        }
    });
}

/// The order key is a monotone map of the value order: it never inverts a
/// pair, though it may tie one.
#[test]
fn value_order_key_is_monotone() {
    use std::cmp::Ordering::Less;
    let law = |a: &Value, b: &Value| {
        if a.cmp(b) == Less {
            assert!(a.order_key() <= b.order_key(), "{a} < {b} but keys invert");
        }
        if a.order_key() < b.order_key() {
            assert_eq!(a.cmp(b), Less, "key({a}) < key({b})");
        }
    };
    for_cases("value_order_key_is_monotone", 1024, |g| {
        let (a, b) = (arb_value(g), arb_value(g));
        law(&a, &b);
        // Neighbours, where a lossy key is most likely to slip: the next
        // integer, the next float, a longer string.
        let next = match &a {
            Value::Int(i) => Value::Int(i.saturating_add(1)),
            Value::Float(f) => Value::Float(f64::from_bits(f.to_bits().wrapping_add(1))),
            Value::Str(s) => Value::Str(format!("{s}{}", g.string(LOWER, 0..3))),
            other => other.clone(),
        };
        law(&a, &next);
        law(&next, &a);
    });

    let pos_nan = f64::NAN.copysign(1.0);
    let two_63 = 9_223_372_036_854_775_808.0;
    let big = 1i64 << 53;
    let edges = [
        Value::Null,
        Value::Bool(false),
        Value::Bool(true),
        Value::Float(-pos_nan),
        Value::Float(f64::NEG_INFINITY),
        Value::Int(i64::MIN),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Int(0),
        Value::Int(10),
        Value::Float(10.0),
        Value::Float(f64::from_bits(10f64.to_bits() + 1)),
        Value::Int(big),
        Value::Int(big + 1),
        Value::Int(big + 2),
        Value::Int(i64::MAX - 1),
        Value::Int(i64::MAX),
        Value::Float(two_63),
        Value::Float(f64::INFINITY),
        Value::Float(pos_nan),
        Value::Str(String::new()),
        Value::Str("\0".into()),
        Value::Str("prefix__".into()),
        Value::Str("prefix__a".into()),
        Value::Str("prefix__b".into()),
        Value::Str("prefiy".into()),
    ];
    for a in &edges {
        for b in &edges {
            law(a, b);
        }
    }
    let key = Value::order_key;
    // Ties the searcher has to settle with `cmp`…
    assert_eq!(key(&Value::Int(big)), key(&Value::Int(big + 1)));
    assert_ne!(Value::Int(big), Value::Int(big + 1));
    assert_eq!(key(&Value::Str("prefix__a".into())), key(&Value::Str("prefix__b".into())));
    assert_eq!(key(&Value::Float(10.0)), key(&Value::Float(f64::from_bits(10f64.to_bits() + 1))));
    // …and keys that are equal because the values are.
    assert_eq!(key(&Value::Int(10)), key(&Value::Float(10.0)));
    assert_eq!(key(&Value::Int(i64::MAX)), key(&Value::Float(two_63)));
    // Distinct where nothing forces a tie.
    assert!(key(&Value::Float(-0.0)) < key(&Value::Float(0.0)));
    assert!(key(&Value::Float(-pos_nan)) < key(&Value::Float(f64::NEG_INFINITY)));
    assert!(key(&Value::Float(f64::INFINITY)) < key(&Value::Float(pos_nan)));
    assert!(key(&Value::Null) < key(&Value::Bool(false)));
    assert!(key(&Value::Bool(false)) < key(&Value::Bool(true)));
    assert!(key(&Value::Bool(true)) < key(&Value::Float(-pos_nan)));
    assert!(key(&Value::Float(pos_nan)) < key(&Value::Str(String::new())));
}

/// Value wire codec round-trips every value (NaN canonicalised).
#[test]
fn value_codec_roundtrip() {
    for_cases("value_codec_roundtrip", 256, |g| {
        let v = arb_value(g);
        let mut buf = bytes::BytesMut::new();
        v.encode(&mut buf);
        let mut wire = buf.freeze();
        let back = Value::decode(&mut wire).unwrap();
        assert_eq!(back.cmp(&v), std::cmp::Ordering::Equal);
        assert_eq!(wire.len(), 0, "codec consumed exactly its bytes");
    });
}

/// Tuple codec round-trips arbitrary tuples.
#[test]
fn tuple_codec_roundtrip() {
    for_cases("tuple_codec_roundtrip", 256, |g| {
        let ts: Ts = g.u64();
        let values = g.vec(0..6, arb_value);
        let is_r = g.bool();
        let rel = if is_r { Rel::R } else { Rel::S };
        let t = Tuple::new(rel, ts, values);
        let mut wire = t.encode();
        let back = Tuple::decode(&mut wire).unwrap();
        assert_eq!(back.rel(), t.rel());
        assert_eq!(back.ts(), t.ts());
        assert_eq!(back.values().len(), t.values().len());
    });
}

/// Window algebra: expiry implies out-of-scope, and in-scope is
/// symmetric; full-history never expires.
#[test]
fn window_laws() {
    for_cases("window_laws", 256, |g| {
        let (ws, a, b) = (g.uint(1..10_000), g.uint(0..100_000), g.uint(0..100_000));
        let w = WindowSpec::sliding(ws);
        assert_eq!(w.in_scope(a, b), w.in_scope(b, a));
        if w.is_expired(a, b) {
            assert!(!w.in_scope(a, b));
        }
        assert!(!WindowSpec::FullHistory.is_expired(a, b));
    });
}

/// The chained index agrees with the naive per-tuple-eviction index on
/// every probe, for any interleaving of inserts and probes with
/// monotone timestamps.
#[test]
fn chained_index_equals_naive_index() {
    for_cases("chained_index_equals_naive_index", 256, |g| {
        let ops = g.vec(1..300, |g| (g.uint(0..2), g.int(0..20), g.uint(1..40)));
        let period = g.uint(1..500);
        let window = WindowSpec::sliding(200);
        let mut chained = ChainedIndex::new(IndexKind::Hash, window, period);
        let mut naive = NaiveWindowIndex::new(IndexKind::Hash, window);
        let mut ts: Ts = 0;
        for (op, key, dt) in ops {
            ts += dt;
            let key = Value::Int(key);
            if op == 0 {
                let t = Tuple::new(Rel::R, ts, vec![key.clone()]);
                chained.insert(key.clone(), t.clone());
                naive.insert(key, t);
            } else {
                chained.expire(ts);
                naive.expire(ts);
                let plan = ProbePlan::ExactKey(key);
                let mut a: Vec<Ts> = Vec::new();
                chained.probe(&plan, ts, |t| a.push(t.ts()));
                let mut b: Vec<Ts> = Vec::new();
                naive.probe(&plan, ts, |t| b.push(t.ts()));
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "probe mismatch at ts {}", ts);
            }
        }
    });
}

/// The reorder buffer releases every offered message at most once, in
/// nondecreasing (seq, router) order, and exactly the messages at or
/// below the final watermark.
#[test]
fn reorder_buffer_release_order() {
    for_cases("reorder_buffer_release_order", 256, |g| {
        let msgs = g.vec(1..100, |g| (g.uint(0..3) as u32, g.uint(1..50)));
        let final_punct = g.uint(1..60);
        use bistream::core::ordering::ReorderBuffer;
        let mut buf = ReorderBuffer::new();
        for r in 0..3 {
            buf.register_router(r, 0);
        }
        let mut out = Vec::new();
        // Deduplicate (router, seq) pairs — a joiner receives at most one
        // copy of a tuple per router sequence slot.
        let mut seen = std::collections::HashSet::new();
        let mut offered = 0usize;
        for (router, seq) in msgs {
            if seen.insert((router, seq)) {
                offered += 1;
                buf.offer(
                    StreamMessage::Data {
                        router,
                        seq,
                        purpose: Purpose::Store,
                        tuple: Tuple::new(Rel::R, seq, vec![Value::Int(seq as i64)]),
                    },
                    &mut out,
                );
            }
        }
        for r in 0..3 {
            buf.offer(StreamMessage::Punct(Punctuation { router: r, seq: final_punct }), &mut out);
        }
        // Released in (seq, router) order.
        for w in out.windows(2) {
            assert!((w[0].seq, w[0].router) <= (w[1].seq, w[1].router));
        }
        // Exactly the messages ≤ watermark released; the rest remain.
        let released = out.len();
        let below: usize = seen.iter().filter(|(_, s)| *s <= final_punct).count();
        assert_eq!(released, below);
        assert_eq!(buf.depth(), offered - released);
    });
}

const W: Ts = 150;
const PUNCT: Ts = 10;
const SEED: u64 = 5;
type Identity = (Ts, Vec<Value>, Ts, Vec<Value>);

fn equi() -> JoinPredicate {
    JoinPredicate::Equi { r_attr: 0, s_attr: 0 }
}

fn routing_of(pick: u64) -> RoutingStrategy {
    match pick {
        0 => RoutingStrategy::Random,
        1 => RoutingStrategy::Hash,
        _ => RoutingStrategy::ContRand { subgroups: 2 },
    }
}

/// A 2 × 3 engine over the `W` window with the protocol on.
fn engine_config(routing: RoutingStrategy, batch_size: usize) -> EngineConfig {
    EngineConfig {
        r_joiners: 2,
        s_joiners: 3,
        predicate: equi(),
        window: WindowSpec::sliding(W),
        routing,
        archive_period_ms: 20,
        punctuation_interval_ms: PUNCT,
        ordering: true,
        seed: SEED,
        batch_size,
        adaptive: Default::default(),
    }
}

/// `(is_r, key, dt)` steps as a stream with strictly increasing timestamps.
fn stream_of(ops: &[(bool, i64, Ts)]) -> Vec<Tuple> {
    let mut ts = 0;
    ops.iter()
        .map(|&(is_r, key, dt)| {
            ts += dt;
            Tuple::new(if is_r { Rel::R } else { Rel::S }, ts, vec![Value::Int(key)])
        })
        .collect()
}

/// A same-key R tuple and two S tuples exactly `W` and `W + 1` after it:
/// the first pair is the last in-window one, the second the first not.
fn window_boundary_ops() -> Vec<(bool, i64, Ts)> {
    vec![(true, 0, 1), (false, 0, W), (false, 0, 1), (true, 1, 5), (false, 1, 5)]
}

/// The brute-force reference join over the `W` window, sorted.
fn reference_join(tuples: &[Tuple]) -> Vec<Identity> {
    let mut expect = Vec::new();
    for a in tuples.iter().filter(|t| t.rel() == Rel::R) {
        for b in tuples.iter().filter(|t| t.rel() == Rel::S) {
            if a.get(0) == b.get(0) && a.ts().abs_diff(b.ts()) <= W {
                expect.push(JoinResult::of(a.clone(), b.clone()).identity());
            }
        }
    }
    expect.sort();
    expect
}

/// Feed `tuples` to `engine`, punctuating every `PUNCT` ms and once past
/// the end, and return the captured results in emission order.
fn drive_engine(engine: &mut BicliqueEngine, tuples: &[Tuple]) -> Vec<Identity> {
    engine.capture_results();
    let mut next_punct = PUNCT;
    for t in tuples {
        while next_punct <= t.ts() {
            engine.punctuate(next_punct).unwrap();
            next_punct += PUNCT;
        }
        engine.ingest(t, t.ts()).unwrap();
    }
    engine.punctuate(tuples.last().map_or(0, Tuple::ts) + PUNCT).unwrap();
    engine.flush().unwrap();
    engine.take_captured().iter().map(JoinResult::identity).collect()
}

/// The data path wired by hand, outside any runtime — `routers`
/// `RouterCore`s on one sequence counter taking the tuples in turn, framing
/// at `batch_size`, a `BatchMessage` channel per (router, unit) pair
/// delivering in `mode`, and one `JoinerCore` per unit processing runs of
/// up to `batch_size` — with `auditor` on every hook the cores expose and
/// fed the oracle's inputs and outputs. Returns the results in emission
/// order.
fn hand_wired_run(
    tuples: &[Tuple],
    routing: RoutingStrategy,
    batch_size: usize,
    routers: usize,
    mode: DeliveryMode,
    auditor: &Auditor,
) -> Vec<Identity> {
    let layout = Layout::new(2, 3, routing.subgroups()).unwrap();
    let seq = Arc::new(AtomicU64::new(0));
    let mut routers: Vec<RouterCore> = (0..routers as u32)
        .map(|id| {
            let mut router = RouterCore::new(id, routing, equi(), SEED, Arc::clone(&seq));
            router.set_batch_size(batch_size);
            router.set_auditor(auditor.clone());
            router
        })
        .collect();
    let frontiers: Vec<_> = routers.iter().map(|r| (r.id(), 0)).collect();
    let mut joiners: BTreeMap<JoinerId, JoinerCore> = layout
        .all_units()
        .map(|(side, id)| {
            let window = WindowSpec::sliding(W);
            let mut j = JoinerCore::new(
                id,
                side,
                equi(),
                window,
                20,
                true,
                &frontiers,
                CostModel::default(),
            );
            j.set_batch_size(batch_size);
            j.set_auditor(auditor.clone());
            (id, j)
        })
        .collect();
    let mut net: ChannelNet<BatchMessage> = ChannelNet::new(mode);
    let mut out: Vec<Identity> = Vec::new();
    let mut emit = |r: JoinResult| {
        auditor.observe_output(&r.r.to_string(), &r.s.to_string());
        out.push(r.identity());
    };
    // Send what a router produced, then deliver everything in flight.
    let mut frames = Vec::new();
    let mut pump = |router: u32,
                    frames: &mut Vec<RoutedBatch>,
                    joiners: &mut BTreeMap<JoinerId, JoinerCore>,
                    now: Ts| {
        for f in frames.drain(..) {
            assert!(net.send(router, f.dest, f.msg), "no plan, no refusal");
        }
        while let Some(f) = net.deliver_next() {
            let j = joiners.get_mut(&f.dest).unwrap();
            j.set_now(now);
            j.handle_batch(f.msg, &mut emit).unwrap();
        }
    };
    let mut next_punct = PUNCT;
    for (i, t) in tuples.iter().enumerate() {
        let key = t.get(0).unwrap().to_string();
        auditor.observe_input(t.rel() == Rel::R, t.ts(), key, t.to_string());
        while next_punct <= t.ts() {
            for r in &mut routers {
                r.punctuate_batched(&layout, &mut frames);
                pump(r.id(), &mut frames, &mut joiners, next_punct);
            }
            next_punct += PUNCT;
        }
        let turn = i % routers.len();
        let r = &mut routers[turn];
        r.route_batched(t, &layout, &[], &mut frames).unwrap();
        pump(r.id(), &mut frames, &mut joiners, t.ts());
    }
    let end = tuples.last().map_or(0, Tuple::ts) + PUNCT;
    for r in &mut routers {
        r.punctuate_batched(&layout, &mut frames);
        pump(r.id(), &mut frames, &mut joiners, end);
    }
    for j in joiners.values_mut() {
        j.set_now(end);
        j.flush(&mut emit).unwrap();
    }
    out
}

/// Each tuple's store unit, keyed by its (unique) timestamp: the routing
/// replayed alone, with the seed and RNG draws of every one-router run here.
fn store_units(tuples: &[Tuple], routing: RoutingStrategy) -> BTreeMap<Ts, JoinerId> {
    let layout = Layout::new(2, 3, routing.subgroups()).unwrap();
    let mut router = RouterCore::new(0, routing, equi(), SEED, Arc::new(AtomicU64::new(0)));
    let mut frames = Vec::new();
    tuples
        .iter()
        .map(|t| {
            frames.clear();
            router.route_batched(t, &layout, &[], &mut frames).unwrap();
            let store = frames.iter().find(
                |f| matches!(&f.msg, BatchMessage::Batch(b) if b.purpose() == Purpose::Store),
            );
            (t.ts(), store.expect("every tuple is stored once").dest)
        })
        .collect()
}

/// Results split by the unit that emitted them — the store unit of the
/// pair's earlier tuple, which the later one probed — each in emission
/// order. Units emit independently, so this is the order the protocol
/// fixes; how their outputs interleave depends on when frames leave.
fn per_unit(
    results: &[Identity],
    units: &BTreeMap<Ts, JoinerId>,
) -> BTreeMap<JoinerId, Vec<Identity>> {
    let mut out: BTreeMap<JoinerId, Vec<Identity>> = BTreeMap::new();
    for r in results {
        out.entry(units[&r.0.min(r.2)]).or_default().push(r.clone());
    }
    out
}

/// For any random stream, the biclique engine (every routing
/// strategy) and the join-matrix produce exactly the reference join's
/// result multiset — the two architectures are observationally
/// equivalent.
#[test]
fn biclique_and_matrix_agree_with_reference() {
    for_cases("biclique_and_matrix_agree_with_reference", 256, |g| {
        let ops = g.vec(10..120, |g| (g.bool(), g.int(0..12), g.uint(1..30)));
        let routing = routing_of(g.uint(0..3));
        let tuples = stream_of(&ops);
        let expect = reference_join(&tuples);

        let auditor = Auditor::new();
        auditor.enable_oracle(Some(W));
        let mut engine = BicliqueEngine::builder(engine_config(routing, 1))
            .auditor(auditor.clone())
            .build()
            .unwrap();
        let mut bic = drive_engine(&mut engine, &tuples);
        bic.sort();
        assert_eq!(&bic, &expect, "biclique {:?}", routing);
        let audit = auditor.finish();
        assert!(audit.is_empty(), "biclique {:?} audit violations: {:#?}", routing, audit);

        let mcfg = MatrixConfig {
            rows: 2,
            cols: 2,
            predicate: equi(),
            window: WindowSpec::sliding(W),
            archive_period_ms: 20,
            seed: SEED,
        };
        let m_audit = Auditor::new();
        m_audit.enable_oracle(Some(W));
        let mut matrix = JoinMatrix::new(mcfg).unwrap();
        matrix.set_auditor(m_audit.clone());
        matrix.capture_results();
        for t in &tuples {
            matrix.ingest(t, t.ts()).unwrap();
        }
        let mut mat: Vec<_> = matrix.take_captured().iter().map(JoinResult::identity).collect();
        mat.sort();
        assert_eq!(&mat, &expect, "matrix");
        let m_violations = m_audit.finish();
        assert!(m_violations.is_empty(), "matrix audit violations: {:#?}", m_violations);
    });
}

/// Micro-batching is purely mechanical: for any monotone-ts stream and
/// every routing strategy, batch size 1 — every copy its own frame, every
/// released tuple its own run — is the ordered reference: its result
/// multiset equals the brute-force reference join with a clean audit, on
/// the hand-wired cores and in the engine alike; and the engine at batch
/// sizes {3, 7, 64} produces the *identical ordered* result sequence at
/// every unit (ordering on) and the same trace span totals.
#[test]
fn micro_batching_preserves_results_order_and_traces() {
    let check = |ops: Vec<(bool, i64, Ts)>, routing_pick: u64| {
        let routing = routing_of(routing_pick);
        let tuples = stream_of(&ops);
        let units = store_units(&tuples, routing);

        // Batch 1 on the hand-wired cores matches the brute-force join.
        let wired_audit = Auditor::new();
        wired_audit.enable_oracle(Some(W));
        let reference = hand_wired_run(&tuples, routing, 1, 1, DeliveryMode::InOrder, &wired_audit);
        let mut ref_sorted = reference.clone();
        ref_sorted.sort();
        assert_eq!(&ref_sorted, &reference_join(&tuples), "hand-wired batch 1 {:?}", routing);
        let wired_violations = wired_audit.finish();
        assert!(wired_violations.is_empty(), "hand-wired audit: {:#?}", wired_violations);
        let reference = per_unit(&reference, &units);

        // The engine reproduces every unit's *ordered* output at every
        // batch size, with identical trace span totals.
        let mut span_base: Option<usize> = None;
        for &batch in &[1usize, 3, 7, 64] {
            let obs = Observability::with_tracing(3);
            let auditor = Auditor::new();
            auditor.enable_oracle(Some(W));
            let mut engine = BicliqueEngine::builder(engine_config(routing, batch))
                .observability(obs.clone())
                .auditor(auditor.clone())
                .build()
                .unwrap();
            let ordered = per_unit(&drive_engine(&mut engine, &tuples), &units);
            assert_eq!(&ordered, &reference, "batch {} ordered output {:?}", batch, routing);
            let violations = auditor.finish();
            assert!(violations.is_empty(), "batch {} audit: {:#?}", batch, violations);
            obs.tracer.flush_pending();
            let spans: usize = obs.tracer.drain().iter().map(|t| t.spans.len()).sum();
            match span_base {
                None => span_base = Some(spans),
                Some(base) => {
                    assert_eq!(spans, base, "batch {} trace span total", batch);
                }
            }
        }
    };
    for routing_pick in 0..3 {
        check(window_boundary_ops(), routing_pick);
    }
    for_cases("micro_batching_preserves_results_order_and_traces", 256, |g| {
        let ops = g.vec(10..100, |g| (g.bool(), g.int(0..10), g.uint(1..20)));
        check(ops, g.uint(0..3));
    });
}

/// Adversarial cross-channel delivery: a seeded scheduler that picks a
/// random non-empty channel each step preserves only pairwise FIFO
/// (Definition 8), yet — whether a frame carries one copy or many, and
/// whether one router or several share the sequence — the ordering
/// protocol still produces exactly the reference join, and the invariant
/// auditor — including its nested-loop output oracle — observes zero
/// violations. Order consistency (Definition 7) is free of the delivery
/// interleaving, of the framing, and of which frames' covers arrive first.
#[test]
fn adversarial_delivery_is_order_consistent_and_audit_clean() {
    const BATCHES: [usize; 4] = [1, 3, 7, 64];
    const ROUTERS: [usize; 3] = [1, 2, 3];
    let check = |ops: Vec<(bool, i64, Ts)>, seed: u64, pick: u64, batch: usize, routers: usize| {
        let routing = routing_of(pick);
        let tuples = stream_of(&ops);
        let auditor = Auditor::new();
        auditor.enable_oracle(Some(W));
        let mode = DeliveryMode::Shuffled { seed };
        let mut out = hand_wired_run(&tuples, routing, batch, routers, mode, &auditor);
        out.sort();
        let case = format!("shuffled, batch {batch}, {routers} routers, {routing:?}");
        assert_eq!(&out, &reference_join(&tuples), "{case}");
        let violations = auditor.finish();
        assert!(violations.is_empty(), "{case} audit: {violations:#?}");
    };
    for routing_pick in 0..3 {
        for batch in BATCHES {
            for routers in ROUTERS {
                check(window_boundary_ops(), 0, routing_pick, batch, routers);
            }
        }
    }
    for_cases("adversarial_delivery_is_order_consistent_and_audit_clean", 256, |g| {
        let ops = g.vec(10..100, |g| (g.bool(), g.int(0..10), g.uint(1..20)));
        check(ops, g.u64(), g.uint(0..3), *g.pick(&BATCHES), *g.pick(&ROUTERS));
    });
}

/// A registry scrape is sorted by `(name, labels)` and stable: the
/// same metric set produces the same key sequence no matter the
/// registration order, and label order within a registration is
/// irrelevant to series identity.
#[test]
fn registry_scrape_is_sorted_and_registration_order_free() {
    for_cases("registry_scrape_is_sorted_and_registration_order_free", 256, |g| {
        let series = g.vec(1..20, |g| {
            (g.string(LOWER, 1..7), g.string("abcdefghijklmnopqrstuvwxyz0123456789", 1..5))
        });
        let pivot = g.index(0..series.len());
        use bistream::types::registry::{MetricKey, MetricsRegistry};

        let reg_a = MetricsRegistry::new();
        for (name, unit) in &series {
            reg_a.counter(name, &[("joiner", unit), ("side", "R")]);
        }
        // Register the same series rotated and with labels swapped.
        let reg_b = MetricsRegistry::new();
        for (name, unit) in series[pivot..].iter().chain(&series[..pivot]) {
            reg_b.counter(name, &[("side", "R"), ("joiner", unit)]);
        }

        // Compared as keys, not rendered text: `z` sorts before `zg` as a
        // name, but `z{` after `zg{` as a string.
        let keys = |reg: &MetricsRegistry| -> Vec<MetricKey> {
            reg.scrape(0).samples.iter().map(|s| (*s.key).clone()).collect()
        };
        let (keys_a, keys_b) = (keys(&reg_a), keys(&reg_b));
        let mut sorted = keys_a.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(&keys_a, &sorted, "scrape must come out sorted and deduplicated");
        assert_eq!(&keys_a, &keys_b, "registration order must not leak into scrapes");
    });
}

/// Histogram quantiles are monotone in q and never exceed the maximum
/// recorded sample, for any sample set.
#[test]
fn histogram_quantiles_monotone_and_bounded() {
    for_cases("histogram_quantiles_monotone_and_bounded", 256, |g| {
        let samples = g.vec(1..200, |g| g.uint(0..1_000_000));
        let mut qs = g.vec(2..8, |g| g.float(0.0, 1.0));
        use bistream::types::metrics::Histogram;

        let h = Histogram::default();
        for &v in &samples {
            h.record(v);
        }
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let values: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
        for w in values.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone in q: {:?}", values);
        }
        let max = *samples.iter().max().unwrap();
        assert_eq!(h.max(), max);
        for &v in &values {
            assert!(v <= max, "quantile {v} exceeds max {max}");
        }
        assert_eq!(h.quantile(1.0), max);
    });
}

/// Zipf samples stay inside the universe for any theta.
#[test]
fn zipf_in_universe() {
    for_cases("zipf_in_universe", 256, |g| {
        let (n, theta, seed) = (g.uint(1..5_000), g.float(0.0, 1.2), g.u64());
        use bistream::workload::keys::ZipfSampler;
        use rand::{rngs::StdRng, SeedableRng};
        let z = ZipfSampler::new(n, theta);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            assert!(z.sample(&mut rng) < n);
        }
    });
}

/// Trace span invariants hold for ANY sequence of raw hop stamps fed
/// through a real tracer — even out-of-order or overlapping ones,
/// which the tracer clamps into causal order at record time: every
/// span has exit ≥ enter, consecutive spans never run backwards, and
/// the queue-wait/service attribution telescopes exactly to the
/// end-to-end latency.
#[test]
fn trace_spans_are_causal_and_attribution_is_exact() {
    for_cases("trace_spans_are_causal_and_attribution_is_exact", 256, |g| {
        let raw = g.vec(1..40, |g| (g.index(0..6), g.uint(0..1_000_000), g.uint(0..1_000)));
        let branches = g.uint(1..5) as u32;
        use bistream::types::trace::{HopKind, Tracer};

        let tracer = Tracer::new(1);
        let seq = 1u64;
        assert!(tracer.sampled(seq));
        tracer.begin(seq, branches);
        for &(kind, enter, dur) in &raw {
            tracer.span(seq, HopKind::ALL[kind], "u", enter, enter + dur);
        }
        // The trace stays pending until its last branch closes.
        for _ in 0..branches {
            assert_eq!(tracer.completed_len(), 0);
            assert_eq!(tracer.pending_len(), 1);
            tracer.end_branch(seq);
        }
        let traces = tracer.drain();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert!(t.complete);
        assert_eq!(t.spans.len(), raw.len());

        for s in &t.spans {
            assert!(s.exit >= s.enter, "span runs backwards: {s:?}");
        }
        for w in t.spans.windows(2) {
            assert!(
                w[1].enter >= w[0].exit,
                "spans not causally ordered: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        let timings = t.hop_timings();
        let attributed: u64 = timings.iter().map(|h| h.wait + h.service).sum();
        assert_eq!(attributed, t.end_to_end(), "latency attribution must be exact");
    });
}

/// The sampling predicate is a pure function of the sequence number:
/// deterministic across tracers, hits exactly the 1-in-N residue
/// class, and always samples the first routed tuple (seq 1).
#[test]
fn trace_sampling_is_deterministic_residue_class() {
    for_cases("trace_sampling_is_deterministic_residue_class", 256, |g| {
        let one_in = g.uint(1..100);
        let seqs = g.vec(1..50, |g| g.uint(0..10_000));
        use bistream::types::trace::Tracer;

        let a = Tracer::new(one_in);
        let b = Tracer::new(one_in);
        assert!(a.sampled(1), "the first routed tuple is always traced");
        for &s in &seqs {
            assert_eq!(a.sampled(s), b.sampled(s));
            let expect = s != 0 && s % one_in == 1 % one_in;
            assert_eq!(a.sampled(s), expect, "seq {s} with one_in {one_in}");
        }
    });
}

// Backend-equivalence properties spin up real threaded pipelines (two
// backends × three batch sizes per case), so they run far fewer cases
// than the in-process properties above.

/// Identity of a live-pipeline tuple = the unique payload id in attribute
/// 1: the live pipelines stamp wall-clock timestamps, which differ between
/// two runs, so tuple identity must not depend on `ts`.
fn payload_id(t: &Tuple) -> i64 {
    match t.get(1) {
        Some(Value::Int(i)) => *i,
        other => panic!("payload id attribute: {other:?}"),
    }
}

fn payload_pairs(results: &[JoinResult]) -> Vec<(i64, i64)> {
    results.iter().map(|res| (payload_id(&res.r), payload_id(&res.s))).collect()
}

/// `(is_r, key)` step `id` as a live tuple stamped with `p`'s clock.
fn live_tuple(p: &Pipeline, id: usize, (is_r, key): (bool, i64)) -> Tuple {
    let rel = if is_r { Rel::R } else { Rel::S };
    Tuple::new(rel, p.now(), vec![Value::Int(key), Value::Int(id as i64)])
}

/// The brute-force reference join of `(is_r, key)` steps with no window,
/// as sorted `(r index, s index)` pairs.
fn expected_pairs(ops: &[(bool, i64)]) -> Vec<(i64, i64)> {
    let mut expect = Vec::new();
    for (i, (r_side, rk)) in ops.iter().enumerate() {
        for (j, (s_side, sk)) in ops.iter().enumerate() {
            if *r_side && !s_side && rk == sk {
                expect.push((i as i64, j as i64));
            }
        }
    }
    expect.sort_unstable();
    expect
}

/// `routers` routers, results captured, `auditor` armed, and a window wide
/// enough that nothing expires in a run of milliseconds, so the reference
/// join is exact.
fn live_config(
    mut engine: EngineConfig,
    batch: usize,
    routers: usize,
    backend: Backend,
    auditor: &Auditor,
) -> PipelineConfig {
    engine.window = WindowSpec::sliding(600_000);
    engine.batch_size = batch;
    let mut c = PipelineConfig::new(engine);
    c.routers = routers;
    c.backend = backend;
    c.capture_results = true;
    c.auditor = Some(auditor.clone());
    c
}

/// The pluggable-backend contract: for any key stream, every framing
/// size {1, 3, 7, 64} and {1, 2, 3} routers, the broker-queue pipeline
/// and the lock-free sharded ring runtime each match the brute-force
/// reference join with a clean invariant audit and agree on the result
/// counter. With one router the ordering protocol pins each joiner's
/// release order to the ingest sequence, so there backend equality is
/// exact sequence equality — and equal trace span totals — not just
/// multiset equality; with several, which router stamps which tuple is a
/// race between competing consumers, so only the multiset is fixed.
#[test]
fn broker_and_sharded_backends_are_observationally_equivalent() {
    for_cases("broker_and_sharded_backends_are_observationally_equivalent", 4, |g| {
        let ops = g.vec(24..72, |g| (g.bool(), g.int(0..8)));
        let expect = expected_pairs(&ops);

        for (batch, routers) in
            [1usize, 3, 7, 64].into_iter().flat_map(|b| (1..=3).map(move |r| (b, r)))
        {
            let case = format!("batch {batch}, {routers} routers");
            let mut runs = Vec::new();
            for backend in [Backend::Broker, Backend::Sharded] {
                let auditor = Auditor::new();
                let mut c =
                    live_config(EngineConfig::default_equi(), batch, routers, backend, &auditor);
                c.trace_one_in = Some(5);
                let p = Pipeline::launch(c).unwrap();
                for (i, op) in ops.iter().enumerate() {
                    p.ingest(&live_tuple(&p, i, *op)).unwrap();
                }
                let report = p.finish().unwrap();
                auditor.assert_clean();
                let spans: usize = report.traces.iter().map(|t| t.spans.len()).sum();
                let mut multiset = payload_pairs(&report.captured);
                multiset.sort_unstable();
                assert_eq!(&multiset, &expect, "{case}, {backend:?}: vs brute-force reference");
                runs.push((payload_pairs(&report.captured), spans, report.snapshot.results));
            }
            let (sharded_run, broker_run) = (runs.pop().unwrap(), runs.pop().unwrap());
            assert_eq!(broker_run.2, sharded_run.2, "{case}: result counters diverge");
            if routers == 1 {
                assert_eq!(&broker_run.0, &sharded_run.0, "{case}: ordered sequences diverge");
                assert_eq!(broker_run.1, sharded_run.1, "{case}: trace span totals diverge");
            }
        }
    });
}

/// The adaptive router is backend-equivalent *across forced mid-stream
/// strategy switches*: the stream is fed in three segments with one
/// deterministic committed switch between segments (quiesce → one-shot
/// flip → wait for the commit), so both backends route segment k under
/// the same epoch-k plan. At every batch size {1, 7, 64} the broker
/// and sharded pipelines then produce the identical ordered result
/// sequence, match the brute-force reference join, and keep the armed
/// Auditor clean. (Copies and trace spans are NOT compared: retiring
/// probe coverage is wall-clock-timed, so no-match probe fan-out may
/// legitimately differ.)
#[test]
fn adaptive_routing_is_backend_equivalent_across_forced_switches() {
    for_cases("adaptive_routing_is_backend_equivalent_across_forced_switches", 4, |g| {
        let ops = g.vec(24..60, |g| (g.bool(), g.int(0..8)));
        use std::time::{Duration, Instant};

        fn wait_until(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
            let t0 = Instant::now();
            loop {
                if cond() {
                    return true;
                }
                if t0.elapsed() > limit {
                    return cond();
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        let expect = expected_pairs(&ops);
        let seg = ops.len().div_ceil(3);

        for &batch in &[1usize, 7, 64] {
            let mut runs = Vec::new();
            for backend in [Backend::Broker, Backend::Sharded] {
                let mut engine = EngineConfig::default_equi();
                engine.routing = RoutingStrategy::Adaptive { subgroups: 2 };
                // Disable the wall-clock-timed natural tuner: the only
                // switches are the deterministic one-shot flips below, so
                // both backends partition the stream identically by epoch.
                engine.adaptive =
                    AdaptiveTuning { tune_every_puncts: u32::MAX, ..AdaptiveTuning::default() };
                let auditor = Auditor::new();
                let p = Pipeline::launch(live_config(engine, batch, 1, backend, &auditor)).unwrap();
                let shared = Arc::clone(p.adaptive_state().expect("adaptive engine"));
                let mut fed = 0u64;
                for (chunk_idx, chunk) in ops.chunks(seg).enumerate() {
                    for (i, op) in chunk.iter().enumerate() {
                        p.ingest(&live_tuple(&p, chunk_idx * seg + i, *op)).unwrap();
                        fed += 1;
                    }
                    // Quiesce the router (routing of everything fed so far
                    // is fixed), then force exactly one committed switch.
                    assert!(
                        wait_until(Duration::from_secs(30), || p.stats().ingested == fed),
                        "{:?} batch {}: router did not quiesce",
                        backend,
                        batch
                    );
                    if (chunk_idx + 1) * seg < ops.len() {
                        let before = shared.switches();
                        shared.request_flip();
                        assert!(
                            wait_until(Duration::from_secs(30), || shared.switches() > before),
                            "{:?} batch {}: forced switch never committed",
                            backend,
                            batch
                        );
                    }
                }
                let switches = shared.switches();
                let report = p.finish().unwrap();
                auditor.assert_clean();
                runs.push((payload_pairs(&report.captured), report.snapshot.results, switches));
            }
            let (sharded_run, broker_run) = (runs.pop().unwrap(), runs.pop().unwrap());
            let mut multiset = broker_run.0.clone();
            multiset.sort_unstable();
            assert_eq!(
                &multiset, &expect,
                "batch {}: adaptive results vs brute-force reference",
                batch
            );
            assert_eq!(
                &broker_run.0, &sharded_run.0,
                "batch {}: adaptive ordered sequences diverge across backends",
                batch
            );
            assert_eq!(
                broker_run.1, sharded_run.1,
                "batch {}: adaptive result counters diverge across backends",
                batch
            );
            assert_eq!(broker_run.2, 2u64, "batch {}: exactly two forced switches", batch);
            assert_eq!(sharded_run.2, 2u64, "batch {}: exactly two forced switches", batch);
        }
    });
}

/// Acceptance gate: one hundred committed strategy switches with tuples in
/// flight throughout, the Auditor (with its nested-loop output oracle)
/// armed on every hook, and the result multiset still exactly the
/// brute-force reference join. Two routers force the full two-phase
/// publish/ack/commit path on every one of those switches.
#[test]
fn hundred_forced_switches_stay_audit_clean_and_complete() {
    let cfg = engine_config(RoutingStrategy::Adaptive { subgroups: 2 }, 1);
    let auditor = Auditor::new();
    auditor.enable_oracle(Some(W));
    let mut engine =
        BicliqueEngine::builder(cfg).routers(2).auditor(auditor.clone()).build().unwrap();
    engine.capture_results();
    let shared = Arc::clone(engine.adaptive_state().expect("adaptive engine"));
    shared.force_flip_every_tick(true);

    // Deterministic stream: three tuples per punctuation round, flipping
    // sides, nine keys — every round both routers tick, so the storm
    // commits roughly one switch per round.
    let mut tuples = Vec::new();
    let mut ts: Ts = 0;
    let mut step: i64 = 0;
    let mut next_punct = PUNCT;
    while shared.switches() < 100 {
        ts += 3;
        let rel = if step % 2 == 0 { Rel::R } else { Rel::S };
        let t = Tuple::new(rel, ts, vec![Value::Int(step % 9)]);
        while next_punct <= ts {
            engine.punctuate(next_punct).unwrap();
            next_punct += PUNCT;
        }
        engine.ingest(&t, ts).unwrap();
        tuples.push(t);
        step += 1;
        assert!(step < 100_000, "storm never reached 100 switches");
    }
    shared.force_flip_every_tick(false);
    engine.punctuate(ts + PUNCT).unwrap();
    engine.flush().unwrap();

    assert!(shared.switches() >= 100, "got {} switches", shared.switches());
    let mut got: Vec<_> = engine.take_captured().iter().map(JoinResult::identity).collect();
    got.sort();
    assert_eq!(
        got,
        reference_join(&tuples),
        "results lost or invented across {} switches",
        shared.switches()
    );
    let violations = auditor.finish();
    assert!(violations.is_empty(), "audit violations under the switch storm: {violations:#?}");
}
