//! Integration tests for the runtime invariant auditor: a clean audited
//! end-to-end run with the nested-loop oracle enabled, and the acceptance
//! cases for fault injection — a deliberately corrupted watermark (via the
//! test-only mutation hook) must be caught as a Definition 7 violation, and
//! a data frame whose cover over-claims as a Definition 8 one, each
//! carrying an event-chain diagnostic.

use bistream::cluster::CostModel;
use bistream::core::config::{EngineConfig, RoutingStrategy};
use bistream::core::engine::BicliqueEngine;
use bistream::core::joiner::JoinerCore;
use bistream::core::layout::JoinerId;
use bistream::types::audit::{Auditor, Rule};
use bistream::types::batch::{BatchMessage, TupleBatch};
use bistream::types::predicate::JoinPredicate;
use bistream::types::punct::Purpose;
use bistream::types::rel::Rel;
use bistream::types::time::Ts;
use bistream::types::tuple::Tuple;
use bistream::types::value::Value;
use bistream::types::window::WindowSpec;

const W: Ts = 100;

fn config() -> EngineConfig {
    EngineConfig {
        r_joiners: 2,
        s_joiners: 2,
        predicate: JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
        window: WindowSpec::sliding(W),
        routing: RoutingStrategy::Hash,
        archive_period_ms: 20,
        punctuation_interval_ms: 10,
        ordering: true,
        seed: 7,
        batch_size: 1,
        adaptive: Default::default(),
    }
}

fn t(rel: Rel, ts: Ts, key: i64) -> Tuple {
    Tuple::new(rel, ts, vec![Value::Int(key)])
}

/// A full engine run with every audit hook live and the output oracle
/// comparing against the nested-loop reference join: zero violations.
#[test]
fn audited_engine_run_with_oracle_is_clean() {
    let auditor = Auditor::new();
    auditor.enable_oracle(Some(W));
    let mut engine = BicliqueEngine::builder(config()).auditor(auditor.clone()).build().unwrap();
    assert!(engine.auditor().is_some());
    drive_stream(&mut engine, 200, |_| {});
    assert!(engine.stats().results > 0, "the stream must produce joins");
    auditor.assert_clean();
}

/// The acceptance case: corrupt one router's punctuation frontier through
/// the test-only hook (simulating a broken watermark computation) and the
/// auditor must report the premature release as a Definition 7 violation
/// whose diagnostic carries the event chain that led to it, including the
/// shared journal tail.
#[test]
fn corrupt_watermark_is_caught_with_event_chain() {
    let auditor = Auditor::new();
    let cfg = EngineConfig { batch_size: 2, ..config() };
    let mut engine = BicliqueEngine::builder(cfg).auditor(auditor.clone()).build().unwrap();
    // One healthy punctuation round first, so the shared event journal has
    // real history for the diagnostic to attach.
    engine.ingest(&t(Rel::R, 1, 1), 1).unwrap();
    engine.ingest(&t(Rel::S, 2, 1), 2).unwrap();
    engine.punctuate(10).unwrap();
    // More data arrives, but no punctuation follows. The S tuples' frames
    // fill (seqs 4, 5) while both their units still hold the R tuple's seq
    // 3 in the router's other batch, so each cover proves only seq 2 and
    // the copies stay buffered in their reorder buffers.
    engine.ingest(&t(Rel::R, 11, 1), 11).unwrap();
    engine.ingest(&t(Rel::S, 12, 1), 12).unwrap();
    engine.ingest(&t(Rel::S, 13, 1), 13).unwrap();
    assert_eq!(engine.stats().results, 1, "only the healthy round joined");
    assert_eq!(auditor.violation_count(), 0, "healthy run must be clean so far");

    // Fault injection: pretend router 0's frontier reached seq 1000.
    engine.debug_corrupt_frontier(0, 1_000).unwrap();

    let violations = auditor.take_violations();
    assert!(!violations.is_empty(), "corrupt watermark must be caught");
    let v = violations
        .iter()
        .find(|v| v.rule == Rule::ReleaseOrder)
        .unwrap_or_else(|| panic!("expected a ReleaseOrder violation, got {violations:?}"));
    assert!(v.message.contains("channel's frontier is Some(2)"), "{}", v.message);
    assert!(!v.chain.is_empty(), "violation must carry its event chain");
    assert!(
        v.chain.iter().any(|line| line.starts_with("journal:")),
        "chain must include the journal tail: {:?}",
        v.chain
    );
    // The prematurely released probes joined — ahead of the R tuple they
    // should have met — and left through the engine's one emitter like any
    // other result: counted once, timed once.
    let stats = engine.stats();
    assert_eq!(stats.results, 3, "the healthy round's result and the corrupt release's two");
    assert_eq!(stats.results, stats.latency.count, "every counted result is timed");
}

/// A data frame's cover is a promise about its channel, like a
/// punctuation. A frame built by hand that over-claims — Store `[70]`
/// covering 72 while the router still holds seq 71 for this unit — is
/// caught the moment 71 arrives, as a Definition 8 violation whose chain
/// shows the broken promise. (The reorder buffer trusts the cover and
/// drops 71 as a duplicate: without the auditor the tuple would be lost
/// silently.)
#[test]
fn an_over_claiming_cover_is_caught_with_event_chain() {
    let auditor = Auditor::new();
    let mut joiner = JoinerCore::new(
        JoinerId(0),
        Rel::R,
        JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
        WindowSpec::sliding(W),
        20,
        true,
        &[(0, 69)],
        CostModel::default(),
    );
    joiner.set_auditor(auditor.clone());
    let mut over_claim = TupleBatch::new(0, Purpose::Store);
    over_claim.push(70, t(Rel::R, 70, 1));
    over_claim.set_covers(72);
    let mut later = TupleBatch::new(0, Purpose::Join);
    later.push(71, t(Rel::S, 71, 1));
    later.set_covers(71);
    let mut results = Vec::new();
    for frame in [over_claim, later] {
        joiner.handle_batch(BatchMessage::Batch(frame), &mut |r| results.push(r)).unwrap();
    }

    let violations = auditor.take_violations();
    let v = violations
        .iter()
        .find(|v| v.rule == Rule::ChannelFifo)
        .unwrap_or_else(|| panic!("expected a ChannelFifo violation, got {violations:?}"));
    assert!(v.message.contains("data seq 71"), "{}", v.message);
    assert!(v.message.contains("promised done up to 72"), "{}", v.message);
    assert!(v.chain.iter().any(|e| e.contains("covers seq 72")), "{:?}", v.chain);
    assert!(results.is_empty(), "the probe that should have joined was dropped");
    assert_eq!(joiner.reorder_stats().unwrap().duplicates_dropped, 1);
}

/// The same bookkeeping holds when the run ends in a router's retirement:
/// what the retirement delivers and releases is counted and timed like
/// everything before it.
#[test]
fn results_released_by_a_retiring_router_are_counted_and_timed() {
    let mut engine = BicliqueEngine::builder(config()).routers(2).build().unwrap();
    drive_stream(&mut engine, 40, |_| {});
    let before = engine.stats().results;
    // A tail routed by both routers whose copies and covering punctuations
    // are still in flight when one of them retires.
    engine.set_auto_pump(false);
    for (i, ts) in (120..128).enumerate() {
        let rel = if i % 2 == 0 { Rel::R } else { Rel::S };
        engine.ingest(&t(rel, ts, 3), ts).unwrap();
    }
    engine.punctuate(130).unwrap();
    assert_eq!(engine.stats().results, before, "nothing delivered yet");
    engine.remove_router().unwrap();
    let stats = engine.stats();
    assert!(stats.results > before, "the tail joined");
    assert_eq!(stats.results, stats.latency.count, "every counted result is timed");
}

fn adaptive_config() -> EngineConfig {
    EngineConfig { routing: RoutingStrategy::Adaptive { subgroups: 2 }, ..config() }
}

/// Drive a deterministic alternating R/S stream with punctuation on the
/// configured 10 ms interval through `steps` virtual-time steps of 3 ms.
/// Seven keys against two sides: an odd modulus, so both sides see every
/// key and the stream joins. `before_punct(n)` runs ahead of the `n`-th
/// punctuation round.
fn drive_stream(engine: &mut BicliqueEngine, steps: u64, mut before_punct: impl FnMut(u64)) {
    let mut next_punct = 10;
    for i in 0..steps {
        let ts = i * 3;
        while next_punct <= ts {
            before_punct(next_punct / 10);
            engine.punctuate(next_punct).unwrap();
            next_punct += 10;
        }
        let rel = if i % 2 == 0 { Rel::R } else { Rel::S };
        engine.ingest(&t(rel, ts, (i % 7) as i64), ts).unwrap();
    }
    engine.punctuate(steps * 3 + 10).unwrap();
    engine.flush().unwrap();
}

/// Adversarial switch storm: the tuner is forced to flip the routing
/// strategy on *every* punctuation tick while the network delivers frames
/// in shuffled (per-channel-FIFO but globally adversarial) order, with
/// two routers so every flip runs the full two-phase publish/ack/commit
/// fence. The armed auditor — nested-loop output oracle included — must
/// stay completely clean.
#[test]
fn switch_storm_under_shuffled_delivery_is_clean() {
    use bistream::core::delivery::DeliveryMode;

    let auditor = Auditor::new();
    auditor.enable_oracle(Some(W));
    let mut engine = BicliqueEngine::builder(adaptive_config())
        .routers(2)
        .delivery(DeliveryMode::Shuffled { seed: 0xF1F0 })
        .auditor(auditor.clone())
        .build()
        .unwrap();
    let shared = std::sync::Arc::clone(engine.adaptive_state().expect("adaptive engine"));
    shared.force_flip_every_tick(true);
    drive_stream(&mut engine, 400, |_| {});
    assert!(
        shared.switches() >= 20,
        "the storm must actually flip strategies: {} switches",
        shared.switches()
    );
    assert!(engine.stats().results > 0, "the storm stream must produce joins");
    auditor.assert_clean();
}

/// The fence matters: the same stream with the test-only
/// `debug_skip_fence` hook armed — routers adopt each new plan mid-stream
/// and immediately drop the old probe coverage instead of retiring it
/// behind the punctuation fence — must be caught by the output oracle as
/// missing join results. Proves the bug hook (and hence the fence) is
/// observable, not theater.
///
/// One flip every fourth round, not every round: when every tick flips,
/// the plan pending at route time always has an even epoch, so a hooked
/// router jumps from `d = 2` to `d = 2` and never stores under the plan
/// whose coverage it dropped. The natural tuner is off because it would
/// declare all seven keys hot (stored anywhere, probed everywhere), which
/// also hides the loss.
#[test]
fn skipping_the_punctuation_fence_is_caught_by_the_oracle() {
    let auditor = Auditor::new();
    auditor.enable_oracle(Some(W));
    // Two routers: a single router publishes, acks, commits and adopts a
    // flip inside one tick, so there is never a committed epoch ahead of
    // its store plan for the bug hook to jump to. With two, each router
    // lags the commit until its own next tick — exactly the gap the
    // fence covers and the hook corrupts.
    let mut config = adaptive_config();
    config.adaptive.tune_every_puncts = u32::MAX;
    let mut engine =
        BicliqueEngine::builder(config).routers(2).auditor(auditor.clone()).build().unwrap();
    let shared = std::sync::Arc::clone(engine.adaptive_state().expect("adaptive engine"));
    engine.debug_skip_fence(true);
    drive_stream(&mut engine, 400, |round| {
        if round % 4 == 0 {
            shared.request_flip();
        }
    });
    assert!(shared.switches() >= 20, "got {} switches", shared.switches());
    let violations = auditor.finish();
    let oracle = violations
        .iter()
        .find(|v| v.rule == Rule::OutputOracle)
        .unwrap_or_else(|| panic!("unfenced adoption must lose results, got {violations:?}"));
    assert!(oracle.message.contains("missing"), "{}", oracle.message);
}
