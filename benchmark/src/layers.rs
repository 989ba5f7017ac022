//! The traced run: the harness drives the stages itself, single-threaded,
//! and wraps every call into a layer's public function in a span.
//!
//! Per tuple: `RouterCore::route_batched`; per flushed frame:
//! `BatchMessage::encode` → SPSC ring push/pop → `BatchMessage::decode` →
//! a broker publish/receive → `JoinerCore::handle_batch`. The joiner's
//! children are then replayed alone on the same frame against shadow
//! state — `ReorderBuffer::offer`, `ChainedIndex::{insert_batch, expire,
//! probe_batch}`, `JoinResult::of` — so the joiner's self time is its span
//! minus its children. Counts come from the structs the engine exports.

use crate::spans::Recorder;
use crate::workload::{Workload, PUNCT_MS, STREAM_RATE};
use bistream_broker::{Broker, Consumer, ExchangeKind, Message};
use bistream_cluster::CostModel;
use bistream_core::adaptive::AdaptiveShared;
use bistream_core::config::RoutingStrategy;
use bistream_core::joiner::JoinerCore;
use bistream_core::layout::{JoinerId, Layout};
use bistream_core::ordering::{Released, ReorderBuffer};
use bistream_core::router::{RoutedBatch, RouterCore};
use bistream_core::sharded::spsc::{mpmc, spsc, SpscConsumer, SpscProducer};
use bistream_index::{ChainedIndex, IndexKind, ProbeStats};
use bistream_types::batch::BatchMessage;
use bistream_types::error::{Error, Result};
use bistream_types::predicate::{JoinPredicate, ProbePlan};
use bistream_types::punct::{Punctuation, Purpose, StreamMessage};
use bistream_types::registry::Observability;
use bistream_types::time::{Stopwatch, Ts};
use bistream_types::tuple::{JoinResult, Tuple};
use bistream_types::value::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

const UNITS_EXCHANGE: &str = "bench.units";

/// Metric name → value, as the traced run reports them.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One joiner unit of the traced dataflow plus the shadow state its
/// children are replayed on.
struct Unit {
    joiner: JoinerCore,
    ring_tx: SpscProducer<BatchMessage>,
    ring_rx: SpscConsumer<BatchMessage>,
    broker_key: Arc<str>,
    broker_rx: Consumer,
    reorder: ReorderBuffer,
    /// The same frames offered as if two routers had sent them
    /// alternately (`core.ordering.offer2_ns_per_tuple`).
    reorder2: ReorderBuffer,
    index: ChainedIndex,
}

/// Sums the replay keeps beside the spans.
#[derive(Default)]
struct Counts {
    frames: u64,
    data_frames: u64,
    copies: u64,
    encoded_bytes: u64,
    punct_rounds: u64,
    offered: u64,
    inserted: u64,
    probes: u64,
    probe: ProbeStats,
    expired: u64,
    emitted: u64,
    results: u64,
}

/// The hand-driven dataflow.
struct Replay<'w> {
    w: &'w Workload,
    rec: Recorder,
    router: RouterCore,
    layout: Layout,
    broker: Broker,
    units: BTreeMap<JoinerId, Unit>,
    counts: Counts,
    frames: Vec<RoutedBatch>,
    trees: u64,
}

impl<'w> Replay<'w> {
    /// Router and joiners are assembled the way `EngineBuilder::build`
    /// assembles them: same batch size, same observability attachments.
    fn new(w: &'w Workload, seed: u64) -> Result<Replay<'w>> {
        let cfg = w.engine_config(seed);
        let subgroups = match cfg.routing {
            RoutingStrategy::ContRand { subgroups } | RoutingStrategy::Adaptive { subgroups } => {
                subgroups
            }
            _ => 1,
        };
        let layout = Layout::new(cfg.r_joiners, cfg.s_joiners, subgroups)?;
        let obs = Observability::new();
        let mut router = RouterCore::new(
            0,
            cfg.routing,
            cfg.predicate.clone(),
            cfg.seed,
            Arc::new(AtomicU64::new(0)),
        );
        router.set_batch_size(cfg.batch_size);
        router.attach_registry(&obs.registry);
        if let RoutingStrategy::Adaptive { subgroups } = cfg.routing {
            let shared = AdaptiveShared::new(
                cfg.adaptive,
                1,
                subgroups,
                cfg.r_joiners.min(cfg.s_joiners),
                (w.window_ms / PUNCT_MS).saturating_add(2),
                cfg.seed,
            );
            router.attach_adaptive(shared.handle(0));
        }

        let broker = Broker::new();
        broker.declare_exchange(UNITS_EXCHANGE, ExchangeKind::Direct)?;
        let kind = IndexKind::for_predicate(&cfg.predicate);
        let mut units = BTreeMap::new();
        for (side, id) in layout.all_units() {
            let mut joiner = JoinerCore::new(
                id,
                side,
                cfg.predicate.clone(),
                cfg.window,
                cfg.archive_period_ms,
                true,
                &[(0, 0)],
                CostModel::default(),
            );
            joiner.set_batch_size(cfg.batch_size);
            joiner.attach_obs(&obs);
            let (ring_tx, ring_rx) = spsc::<BatchMessage>(4_096);
            let queue = format!("bench.unit.{}", id.0);
            let key = id.0.to_string();
            broker.declare_queue(&queue, 4_096)?;
            broker.bind(UNITS_EXCHANGE, &queue, &key)?;
            let mut reorder = ReorderBuffer::new();
            reorder.register_router(0, 0);
            let mut reorder2 = ReorderBuffer::new();
            reorder2.register_router(0, 0);
            reorder2.register_router(1, 0);
            units.insert(
                id,
                Unit {
                    joiner,
                    ring_tx,
                    ring_rx,
                    broker_key: Arc::from(key),
                    broker_rx: broker.subscribe(&queue)?,
                    reorder,
                    reorder2,
                    index: ChainedIndex::new(kind, cfg.window, cfg.archive_period_ms),
                },
            );
        }
        Ok(Replay {
            w,
            rec: Recorder::new(),
            router,
            layout,
            broker,
            units,
            counts: Counts::default(),
            frames: Vec::new(),
            trees: 0,
        })
    }

    fn begin_tree(&mut self) {
        self.rec.begin_tree(self.trees);
        self.trees += 1;
    }

    fn route(&mut self, i: u64, t: &Tuple) -> Result<()> {
        self.begin_tree();
        let (router, layout, frames) = (&mut self.router, &self.layout, &mut self.frames);
        let (seq, span) = self.rec.span("core.router", "route_batched", None, i, || {
            router.route_batched(t, layout, &[], frames)
        });
        seq?;
        self.deliver(span, t.ts())
    }

    fn punctuate(&mut self, now: Ts) -> Result<()> {
        self.begin_tree();
        let (router, layout, frames) = (&mut self.router, &self.layout, &mut self.frames);
        let ((), span) = self.rec.span("core.router", "punctuate_batched", None, now, || {
            router.punctuate_batched(layout, frames)
        });
        self.counts.punct_rounds += 1;
        self.deliver(span, now)
    }

    /// Carry every flushed frame to its joiner, span by span, then replay
    /// the joiner's children on shadow state.
    fn deliver(&mut self, parent: Option<u32>, now: Ts) -> Result<()> {
        let frames: Vec<RoutedBatch> = self.frames.drain(..).collect();
        for RoutedBatch { dest, msg } in frames {
            let rec = &mut self.rec;
            let counts = &mut self.counts;
            let u = self.units.get_mut(&dest).expect("router only addresses layout units");
            let id = counts.frames;
            counts.frames += 1;
            if let BatchMessage::Batch(b) = &msg {
                counts.data_frames += 1;
                counts.copies += b.len() as u64;
            }
            let shadow = msg.clone();

            let (wire, _) = rec.span("types.batch", "encode", parent, id, || msg.encode());
            let wire = wire?;
            if matches!(msg, BatchMessage::Batch(_)) {
                counts.encoded_bytes += wire.len() as u64;
            }
            let (msg, _) = rec.span("core.sharded", "spsc_push_pop", parent, id, || {
                u.ring_tx.try_push(msg).ok().and_then(|()| u.ring_rx.try_pop())
            });
            let msg = msg.expect("an empty ring accepts and returns one frame");
            let mut cursor = wire.clone();
            let (decoded, _) =
                rec.span("types.batch", "decode", parent, id, || BatchMessage::decode(&mut cursor));
            black_box(decoded?);
            let broker = &self.broker;
            let (received, _) = rec.span("broker", "publish_recv", parent, id, || {
                broker
                    .publish(UNITS_EXCHANGE, Message::new(Arc::clone(&u.broker_key), wire))
                    .map(|_| u.broker_rx.try_recv())
            });
            black_box(received?);

            u.joiner.set_now(now);
            let results = &mut counts.results;
            let (handled, handle_span) =
                rec.span("core.joiner", "handle_batch", parent, id, || {
                    u.joiner.handle_batch(msg, &mut |r: JoinResult| {
                        black_box(&r);
                        *results += 1;
                    })
                });
            handled?;
            replay_children(rec, u, counts, shadow, handle_span, id, self.w)?;
        }
        Ok(())
    }
}

/// Replay what `JoinerCore::handle_batch` does inside, one public call at
/// a time, on the unit's shadow reorder buffer and shadow index.
fn replay_children(
    rec: &mut Recorder,
    u: &mut Unit,
    counts: &mut Counts,
    frame: BatchMessage,
    parent: Option<u32>,
    id: u64,
    w: &Workload,
) -> Result<()> {
    // One frame becomes per-entry stream messages, as the joiner unpacks it.
    let as_router = |router: u32| -> Vec<StreamMessage> {
        match &frame {
            BatchMessage::Punct(p) => {
                vec![StreamMessage::Punct(Punctuation { router, seq: p.seq })]
            }
            BatchMessage::Batch(b) => b
                .entries()
                .iter()
                .map(|e| StreamMessage::Data {
                    router,
                    seq: e.seq,
                    purpose: b.purpose(),
                    tuple: e.tuple.clone(),
                })
                .collect(),
        }
    };
    let msgs = as_router(0);
    counts.offered += frame.tuple_count() as u64;
    let mut released: Vec<Released> = Vec::new();
    rec.span("core.ordering", "offer", parent, id, || {
        for m in msgs {
            u.reorder.offer(m, &mut released);
        }
    });
    // Two routers: data frames alternate between them, and each
    // punctuation arrives once from either, so the watermark is a minimum
    // over two frontiers.
    let msgs2 = match &frame {
        BatchMessage::Punct(_) => as_router(0).into_iter().chain(as_router(1)).collect(),
        BatchMessage::Batch(_) => as_router((id % 2) as u32),
    };
    let mut released2: Vec<Released> = Vec::new();
    rec.span("core.ordering", "offer_two_routers", parent, id, || {
        for m in msgs2 {
            u.reorder2.offer(m, &mut released2);
        }
    });
    black_box(released2);

    let store_attr = w.predicate.attr_of(u.joiner.side());
    for run in ReorderBuffer::purpose_runs(&released, w.batch_size) {
        match run[0].purpose {
            Purpose::Store => {
                let items: Vec<(Value, Tuple)> = run
                    .iter()
                    .map(|r| Ok((r.tuple.require(store_attr)?.clone(), r.tuple.clone())))
                    .collect::<Result<_>>()?;
                counts.inserted += items.len() as u64;
                rec.span("index", "insert_batch", parent, id, || u.index.insert_batch(items));
            }
            Purpose::Join => {
                let (dropped, _) =
                    rec.span("index", "expire", parent, id, || u.index.expire(run[0].tuple.ts()));
                counts.expired += dropped as u64;
                let probes: Vec<(ProbePlan, Ts)> = run
                    .iter()
                    .map(|r| Ok((w.predicate.probe_plan(&r.tuple)?, r.tuple.ts())))
                    .collect::<Result<_>>()?;
                let mut matched: Vec<Vec<Tuple>> = vec![Vec::new(); run.len()];
                let (stats, _) = rec.span("index", "probe_batch", parent, id, || {
                    u.index.probe_batch(&probes, |i, stored| matched[i].push(stored.clone()))
                });
                counts.probes += run.len() as u64;
                for s in stats {
                    counts.probe.candidates += s.candidates;
                    counts.probe.in_window += s.in_window;
                    counts.probe.sub_indexes += s.sub_indexes;
                }
                // Band candidates are re-verified by the joiner (its own
                // time); only verified pairs are materialised.
                let verify = matches!(w.predicate, JoinPredicate::Band { .. });
                let mut pairs: Vec<(&Tuple, &Tuple)> = Vec::new();
                for (r, hits) in run.iter().zip(&matched) {
                    for stored in hits {
                        if !verify || w.predicate.matches(stored, &r.tuple)? {
                            pairs.push((stored, &r.tuple));
                        }
                    }
                }
                // A run without matches emits nothing: no span, so that
                // the recorder's residue is not billed to rare results.
                if !pairs.is_empty() {
                    counts.emitted += pairs.len() as u64;
                    rec.span("core.joiner", "emit", parent, id, || {
                        for (stored, probe) in pairs {
                            black_box(JoinResult::of(stored.clone(), probe.clone()));
                        }
                    });
                }
            }
        }
    }
    Ok(())
}

/// `core.sharded.mpmc_hop_ns_per_item`: one producer thread and one
/// consumer thread moving `items` tuples through the ingest ring.
pub fn mpmc_hop_ns(items: u64) -> f64 {
    let (tx, rx) = mpmc::<Tuple>(8_192);
    let tuple = Tuple::new(bistream_types::rel::Rel::R, 0, vec![Value::Int(0)]);
    let sw = Stopwatch::start();
    std::thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..items {
                tx.push_blocking(tuple.clone()).expect("consumer outlives the producer");
            }
            tx.close();
        });
        s.spawn(move || {
            let mut seen = 0u64;
            while let Some(t) = rx.pop_blocking() {
                black_box(t);
                seen += 1;
            }
            assert_eq!(seen, items, "ring delivered every item");
        });
    });
    sw.elapsed().as_nanos() as f64 / items as f64
}

/// Run the traced replay over the first `tuples` tuples. `engine_ns` is
/// what the untraced `BicliqueEngine` took per tuple on the same input:
/// what the layers have to add up to. Returns the per-layer metrics, the
/// number of results the hand-driven dataflow produced, and the span file.
pub fn traced_run(
    w: &Workload,
    seed: u64,
    tuples: u64,
    engine_ns: f64,
) -> Result<(Metrics, u64, String)> {
    // Generator speed, alone: every other number is only valid while the
    // generator is much faster than the system.
    let mut gen = w.generator(seed, STREAM_RATE, 0);
    let sw = Stopwatch::start();
    for _ in 0..tuples {
        black_box(gen.next_raw().to_tuple());
    }
    let gen_ns = sw.elapsed().as_nanos() as f64 / tuples as f64;

    let mut replay = Replay::new(w, seed)?;
    let mut gen = w.generator(seed, STREAM_RATE, 0);
    let mut next_punct: Ts = PUNCT_MS;
    for i in 0..tuples {
        let t = gen.next_raw().to_tuple();
        while t.ts() >= next_punct {
            replay.punctuate(next_punct)?;
            next_punct += PUNCT_MS;
        }
        replay.route(i, &t)?;
    }
    replay.punctuate(next_punct)?;
    // Terminal flush, as `BicliqueEngine::flush` ends a run.
    let Replay { rec, router, mut units, mut counts, .. } = replay;
    for u in units.values_mut() {
        let results = &mut counts.results;
        u.joiner.flush(&mut |r: JoinResult| {
            black_box(&r);
            *results += 1;
        })?;
    }

    // State kept, and the time to snapshot it.
    let sw = Stopwatch::start();
    let snapshot_bytes: usize =
        units.values().map(|u| bistream_index::snapshot(&u.index).len()).sum();
    black_box(snapshot_bytes);
    let snapshot_ms = sw.elapsed_ms_f64();

    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let total = |layer, name| rec.total(layer, name).ns;
    let route = total("core.router", "route_batched");
    let punct = total("core.router", "punctuate_batched");
    let hop = total("core.sharded", "spsc_push_pop");
    let handle = total("core.joiner", "handle_batch");
    let offer = total("core.ordering", "offer");
    let insert = total("index", "insert_batch");
    let probe = total("index", "probe_batch");
    let expire = total("index", "expire");
    let emit = total("core.joiner", "emit");

    let (mut depth, mut dups, mut live, mut bytes) = (0usize, 0u64, 0usize, 0usize);
    let (mut stored, mut probed) = (0u64, 0u64);
    for u in units.values() {
        if let Some(r) = u.joiner.reorder_stats() {
            depth = depth.max(r.max_depth);
            dups += r.duplicates_dropped;
        }
        let ix = u.joiner.index_stats();
        live += ix.tuples;
        bytes += ix.bytes;
        stored += u.joiner.stats().stored;
        probed += u.joiner.stats().probes;
    }
    if stored != counts.inserted || probed != counts.probes {
        return Err(Error::Config(format!(
            "shadow replay diverged from the joiners: stored {stored} vs {}, probes {probed} vs {}",
            counts.inserted, counts.probes
        )));
    }

    let c = &counts;
    let mut m = Metrics::new();
    m.insert("gen.ns_per_tuple", gen_ns);
    m.insert("core.router.route_ns_per_tuple", per(route, tuples));
    m.insert("core.router.punct_ns_per_round", per(punct, c.punct_rounds));
    m.insert("core.router.copies_per_tuple", router.stats().copies_per_tuple());
    m.insert("core.router.tuples_per_frame", ratio(c.copies as f64, c.data_frames as f64));
    m.insert("types.batch.encode_ns_per_copy", per(total("types.batch", "encode"), c.copies));
    m.insert("types.batch.decode_ns_per_copy", per(total("types.batch", "decode"), c.copies));
    m.insert("types.batch.bytes_per_copy", ratio(c.encoded_bytes as f64, c.copies as f64));
    m.insert("core.sharded.spsc_hop_ns_per_frame", per(hop, c.frames));
    m.insert("broker.hop_ns_per_frame", per(total("broker", "publish_recv"), c.frames));
    m.insert("core.ordering.offer_ns_per_tuple", per(offer, c.offered));
    m.insert(
        "core.ordering.offer2_ns_per_tuple",
        per(total("core.ordering", "offer_two_routers"), c.offered),
    );
    m.insert("core.ordering.max_depth", depth as f64);
    m.insert("core.ordering.dup_dropped", dups as f64);
    m.insert("index.insert_ns_per_tuple", per(insert, c.inserted));
    m.insert("index.probe_ns_per_probe", per(probe, c.probes));
    m.insert("index.sub_indexes_per_probe", ratio(c.probe.sub_indexes as f64, c.probes as f64));
    m.insert("index.candidates_per_probe", ratio(c.probe.candidates as f64, c.probes as f64));
    m.insert("index.hit_ratio", ratio(c.probe.in_window as f64, c.probe.candidates as f64));
    m.insert("index.expire_ns_per_tuple", per(expire, c.expired));
    m.insert("index.live_tuples", live as f64);
    m.insert("index.state_bytes_per_tuple", ratio(bytes as f64, live as f64));
    m.insert("index.snapshot_ms", snapshot_ms);
    let children = offer + insert + probe + expire + emit;
    m.insert("core.joiner.handle_ns_per_copy", per(handle, c.copies));
    m.insert("core.joiner.self_ns_per_copy", per(handle.saturating_sub(children), c.copies));
    m.insert("core.joiner.emit_ns_per_result", per(emit, c.emitted));
    m.insert("core.joiner.results_per_tuple", ratio(c.results as f64, tuples as f64));
    // The engine's own path: route, punctuate, one hop per frame, the
    // joiner. The codec and the broker hop are not on it.
    let sum_ns = per(route + punct + hop + handle, tuples);
    m.insert("core.engine.ns_per_tuple", engine_ns);
    m.insert("core.engine.self_ns_per_tuple", engine_ns - sum_ns);
    m.insert("core.engine.sum_vs_e2e", sum_ns / engine_ns);
    m.insert("index.engine_share", per(insert + probe + expire, tuples) / engine_ns);
    Ok((m, counts.results, rec.to_json(w.name, seed)))
}
