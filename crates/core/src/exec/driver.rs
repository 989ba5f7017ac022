//! The one worker driver of the live pipeline and the transport seam it
//! runs over.
//!
//! A router worker is [`run_router`], a joiner worker is [`run_joiner`];
//! both are generic (static dispatch) over the three ends of a transport:
//!
//! ```text
//!            Inbox<Tuple>                Outbox            Inbox<BatchMessage>
//! feeder ───────────────► run_router ───────────► … ───────────────► run_joiner
//!  (Handle::ingest)       route + punctuate   one pairwise-FIFO      ordering +
//!                                             channel per            store/join
//!                                             (router, unit)
//! ```
//!
//! A transport owns how an item crosses an edge and the accounting of that
//! hop (queue series, enqueue/dequeue spans, stall injection, idling).
//! Everything else — the cores, `stats.{ingested,copies,punctuations}`,
//! the punctuation cadence, `set_now`, the result sink — lives here, once.
//!
//! The contract a transport must keep: each `(router, unit)` pair is one
//! FIFO channel; [`Inbox::poll`] reports [`Polled::Closed`] only after the
//! edge was closed *and* everything sent before the close was returned;
//! a refused [`Outbox::send`] is an `Err`, never a dropped frame.

use super::PipelineConfig;
use crate::adaptive::AdaptiveShared;
use crate::joiner::{JoinerCore, JoinerStats};
use crate::layout::{JoinerId, Layout};
use crate::router::{RoutedBatch, RouterCore};
use crate::stats::EngineStats;
use bistream_broker::BrokerStats;
use bistream_types::audit::Auditor;
use bistream_types::batch::BatchMessage;
use bistream_types::error::{Error, Result};
use bistream_types::metrics::Histogram;
use bistream_types::punct::{RouterId, SeqNo};
use bistream_types::registry::Observability;
use bistream_types::time::{Clock, WallClock};
use bistream_types::tuple::{JoinResult, Tuple};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a joiner lets its inbox wait before asking again (joiners have
/// no timer of their own; the bound only matters to transports that block).
const JOINER_POLL: Duration = Duration::from_millis(50);

/// What one [`Inbox::poll`] found.
pub(crate) enum Polled<T> {
    /// The next item of the edge.
    Item(T),
    /// Nothing yet; the edge is still open. The transport has already
    /// idled (blocked up to the wait, or spun/parked a slice).
    Idle,
    /// The edge is closed and fully drained.
    Closed,
}

/// The consuming end of an edge: the ingest edge for a router, a unit's
/// inbox (all its per-router channels) for a joiner.
pub(crate) trait Inbox<T>: Send + 'static {
    /// The next item, waiting at most about `wait` for one.
    fn poll(&mut self, wait: Duration) -> Result<Polled<T>>;
}

/// A router's outbound side: one FIFO channel per destination unit.
pub(crate) trait Outbox: Send + 'static {
    /// Hand `msg` to `dest`'s channel, blocking while it is full.
    fn send(&mut self, dest: JoinerId, msg: BatchMessage) -> Result<()>;
}

/// The launch-side handle of a running transport, held by the
/// [`Pipeline`](super::Pipeline).
pub(crate) trait Handle: Send + Sync {
    /// Feed one tuple into the ingest edge, blocking while it is full.
    fn ingest(&self, tuple: &Tuple) -> Result<()>;
    /// Close the ingest edge: routers drain it, then see `Closed`.
    fn close_ingest(&self) -> Result<()>;
    /// Close every unit edge (called once all routers have exited):
    /// joiners drain them, then see `Closed`.
    fn close_units(&self) -> Result<()>;
    /// Stall or heal the named queue (fault injection).
    fn set_stalled(&self, queue: &str, on: bool) -> Result<()>;
    /// Broker management view; empty for transports without a broker.
    fn broker_stats(&self) -> BrokerStats {
        BrokerStats { exchanges: Vec::new(), queues: Vec::new() }
    }
}

/// What every worker shares with the facade: counters and the clock —
/// cloned `Arc`s, no locks.
#[derive(Clone)]
pub(crate) struct WorkerCtx {
    pub(crate) stats: Arc<EngineStats>,
    pub(crate) clock: Arc<WallClock>,
    pub(crate) punct_interval: Duration,
}

/// Where a joiner's results go: the engine-wide results counter, the
/// engine-wide and per-joiner latency histograms, and (optionally) the
/// captured result stream.
pub(crate) struct ResultSink {
    ctx: WorkerCtx,
    unit_latency: Option<Arc<Histogram>>,
    captured: Option<Vec<JoinResult>>,
}

impl ResultSink {
    pub(crate) fn new(ctx: &WorkerCtx, joiner: &JoinerCore, capture: bool) -> ResultSink {
        let (unit_latency, captured) = (joiner.latency_histogram(), capture.then(Vec::new));
        ResultSink { ctx: ctx.clone(), unit_latency, captured }
    }

    fn emit(&mut self, result: JoinResult) {
        self.ctx.stats.results.inc();
        let latency = self.ctx.clock.now().saturating_sub(result.ts);
        self.ctx.stats.latency_ms.record(latency);
        if let Some(h) = &self.unit_latency {
            h.record(latency);
        }
        if let Some(c) = &mut self.captured {
            c.push(result);
        }
    }
}

/// One router worker: route every ingested tuple, punctuate every
/// `punct_interval`, and — once the ingest edge is closed and drained —
/// send one final punctuation behind all data before returning (which
/// drops `frames`, this router's half of its unit channels).
///
/// A frame leaves when it is full, at a punctuation, or as soon as the
/// ingest edge runs dry: while copies are pending the edge is only looked
/// at (a zero wait), and an idle look flushes them. So a result waits for
/// neither a full batch nor the timer; under load the batches still fill.
pub(crate) fn run_router<I: Inbox<Tuple>, O: Outbox>(
    mut core: RouterCore,
    layout: &Layout,
    mut ingest: I,
    mut frames: O,
    ctx: &WorkerCtx,
) -> Result<()> {
    let mut out: Vec<RoutedBatch> = Vec::new();
    let mut next_punct = Instant::now() + ctx.punct_interval;
    loop {
        let now = Instant::now();
        let wait = next_punct.saturating_duration_since(now);
        let look = if core.pending_batched() > 0 { Duration::ZERO } else { wait };
        let closed = !wait.is_zero()
            && match ingest.poll(look)? {
                Polled::Item(tuple) => {
                    ctx.stats.ingested.inc();
                    core.route_batched(&tuple, layout, &[], &mut out)?;
                    false
                }
                Polled::Idle => {
                    core.flush_batches(&mut out);
                    false
                }
                Polled::Closed => true,
            };
        if closed || wait.is_zero() {
            core.punctuate_batched(layout, &mut out);
            next_punct = now + ctx.punct_interval;
        }
        for f in out.drain(..) {
            match &f.msg {
                BatchMessage::Batch(b) => ctx.stats.copies.add(b.len() as u64),
                BatchMessage::Punct(_) => ctx.stats.punctuations.inc(),
            }
            frames.send(f.dest, f.msg)?;
        }
        if closed {
            return Ok(());
        }
    }
}

/// What a joiner worker hands back: the unit's counters and the results it
/// captured (empty unless capturing).
pub(crate) type JoinerOutcome = (JoinerStats, Vec<JoinResult>);

/// One joiner worker: handle every frame of the inbox; once it is closed
/// and drained (every router's final punctuation has then been handled),
/// terminally flush the reorder buffer. Returns the unit's counters and
/// the captured results (empty unless capturing).
pub(crate) fn run_joiner<U: Inbox<BatchMessage>>(
    mut joiner: JoinerCore,
    mut inbox: U,
    mut sink: ResultSink,
) -> Result<JoinerOutcome> {
    loop {
        match inbox.poll(JOINER_POLL)? {
            Polled::Idle => {}
            Polled::Item(msg) => {
                joiner.set_now(sink.ctx.clock.now());
                joiner.handle_batch(msg, &mut |r| sink.emit(r))?;
            }
            Polled::Closed => {
                joiner.set_now(sink.ctx.clock.now());
                joiner.flush(&mut |r| sink.emit(r))?;
                return Ok((joiner.stats(), sink.captured.unwrap_or_default()));
            }
        }
    }
}

/// A wired transport that no worker runs on yet: the launch-side handle
/// and the worker-side ends.
pub(crate) struct Wiring<H, I, O, U> {
    pub(crate) handle: H,
    /// Per router (index = router id): its ingest inbox and its outbox.
    pub(crate) routers: Vec<(I, O)>,
    /// Per unit, in `Layout::all_units` order: its inbox.
    pub(crate) units: Vec<U>,
}

/// What a pipeline is launched from — a transport wired, the cores built —
/// and what it keeps while it runs.
pub(crate) struct Parts {
    pub(crate) config: PipelineConfig,
    pub(crate) layout: Arc<Layout>,
    pub(crate) obs: Observability,
    pub(crate) auditor: Option<Auditor>,
    /// Shared adaptive-routing state under
    /// [`RoutingStrategy::Adaptive`](crate::config::RoutingStrategy);
    /// `None` otherwise.
    pub(crate) adaptive: Option<Arc<AdaptiveShared>>,
    pub(crate) ctx: WorkerCtx,
}

/// The running worker threads, joiners in `Layout::all_units` order.
pub(crate) struct Workers {
    pub(crate) routers: Vec<JoinHandle<Result<()>>>,
    pub(crate) joiners: Vec<JoinHandle<Result<JoinerOutcome>>>,
}

/// Build one core per worker end and start its thread (`unit-N` running
/// [`run_joiner`], `router-N` running [`run_router`]).
pub(crate) fn spawn(
    wiring: Wiring<impl Handle + 'static, impl Inbox<Tuple>, impl Outbox, impl Inbox<BatchMessage>>,
    parts: &Parts,
) -> Result<(Box<dyn Handle>, Workers)> {
    let Parts { config, layout, obs, auditor, adaptive, ctx } = parts;
    let engine = &config.engine;
    let router_ids: Vec<(RouterId, SeqNo)> =
        (0..wiring.routers.len()).map(|i| (i as RouterId, 0)).collect();

    let mut joiners = Vec::new();
    for ((side, id), inbox) in layout.all_units().zip(wiring.units) {
        let joiner = JoinerCore::for_engine(
            id,
            side,
            engine,
            config.cost,
            &router_ids,
            obs,
            auditor.as_ref(),
        );
        let sink = ResultSink::new(ctx, &joiner, config.capture_results);
        joiners.push(worker(format!("unit-{}", id.0), move || run_joiner(joiner, inbox, sink))?);
    }

    // Engine-wide sequence counter shared by all routers.
    let seq = Arc::new(AtomicU64::new(0));
    let mut routers = Vec::new();
    for (&(rid, _), (ingest, frames)) in router_ids.iter().zip(wiring.routers) {
        let core = RouterCore::for_engine(
            rid,
            engine,
            Arc::clone(&seq),
            obs,
            auditor.as_ref(),
            adaptive.as_ref(),
        );
        let (layout, ctx) = (Arc::clone(layout), ctx.clone());
        let run = move || run_router(core, &layout, ingest, frames, &ctx);
        routers.push(worker(format!("router-{rid}"), run)?);
    }
    Ok((Box::new(wiring.handle), Workers { routers, joiners }))
}

/// Start one named worker thread.
fn worker<T: Send + 'static>(
    name: String,
    run: impl FnOnce() -> Result<T> + Send + 'static,
) -> Result<JoinHandle<Result<T>>> {
    let spawned = std::thread::Builder::new().name(name).spawn(run);
    spawned.map_err(|e| Error::Config(format!("spawn worker: {e}")))
}

#[cfg(test)]
mod tests {
    //! The loops over a scripted in-memory transport — the fake the seam
    //! exists to allow.

    use super::*;
    use crate::config::RoutingStrategy;
    use bistream_cluster::CostModel;
    use bistream_types::predicate::JoinPredicate;
    use bistream_types::punct::Purpose;
    use bistream_types::rel::Rel;
    use bistream_types::value::Value;
    use bistream_types::window::WindowSpec;
    use std::collections::VecDeque;
    use std::sync::mpsc;

    const EQUI: JoinPredicate = JoinPredicate::Equi { r_attr: 0, s_attr: 0 };

    /// An inbox that plays back a script and logs, for every poll, the
    /// wait it was given and the results emitted before it.
    struct Script<T> {
        steps: VecDeque<Polled<T>>,
        stats: Arc<EngineStats>,
        log: mpsc::Sender<(Duration, u64)>,
    }

    impl<T: Send + 'static> Inbox<T> for Script<T> {
        fn poll(&mut self, wait: Duration) -> Result<Polled<T>> {
            self.log.send((wait, self.stats.results.get())).expect("the test holds the log");
            Ok(self.steps.pop_front().expect("polled past `Closed`"))
        }
    }

    fn script<T>(
        ctx: &WorkerCtx,
        steps: impl IntoIterator<Item = Polled<T>>,
    ) -> (Script<T>, mpsc::Receiver<(Duration, u64)>) {
        let (log, seen) = mpsc::channel();
        (Script { steps: steps.into_iter().collect(), stats: Arc::clone(&ctx.stats), log }, seen)
    }

    /// An outbox that records what it is sent; refuses once the receiving
    /// end is gone.
    impl Outbox for mpsc::Sender<(JoinerId, BatchMessage)> {
        fn send(&mut self, dest: JoinerId, msg: BatchMessage) -> Result<()> {
            mpsc::Sender::send(self, (dest, msg)).map_err(|_| Error::Closed)
        }
    }

    fn ctx() -> WorkerCtx {
        WorkerCtx {
            stats: EngineStats::shared(),
            clock: Arc::new(WallClock::new()),
            // Never due within a test: the only punctuation is the final one.
            punct_interval: Duration::from_secs(3_600),
        }
    }

    fn tuple(rel: Rel, key: i64) -> Tuple {
        Tuple::new(rel, 5, vec![Value::Int(key)])
    }

    fn router(batch_size: usize) -> RouterCore {
        let mut core = RouterCore::standalone(0, RoutingStrategy::Hash, EQUI, 7);
        core.set_batch_size(batch_size);
        core
    }

    #[test]
    fn router_sends_its_final_punctuation_after_closed_and_behind_all_data() {
        for batch_size in [1, 16] {
            let layout = Layout::new(1, 1, 1).unwrap();
            let ctx = ctx();
            let steps = [
                Polled::Item(tuple(Rel::R, 1)),
                Polled::Idle,
                Polled::Item(tuple(Rel::S, 1)),
                Polled::Closed,
            ];
            let (ingest, _log) = script(&ctx, steps);
            let (tx, rx) = mpsc::channel();
            run_router(router(batch_size), &layout, ingest, tx, &ctx).unwrap();

            let sent: Vec<(JoinerId, BatchMessage)> = rx.try_iter().collect();
            for (_, unit) in layout.all_units() {
                let channel: Vec<&BatchMessage> =
                    sent.iter().filter(|(d, _)| *d == unit).map(|(_, m)| m).collect();
                let (last, data) = channel.split_last().expect("frames on every channel");
                let copies: usize = data
                    .iter()
                    .map(|m| match m {
                        BatchMessage::Batch(b) => b.len(),
                        BatchMessage::Punct(_) => panic!("punctuation ahead of data: {channel:?}"),
                    })
                    .sum();
                assert_eq!(copies, 2, "a store and a join copy");
                match last {
                    BatchMessage::Punct(p) => assert_eq!(p.seq, 2, "covers every tuple routed"),
                    other => panic!("channel must end in the final punctuation: {other:?}"),
                }
            }
            assert_eq!(ctx.stats.ingested.get(), 2);
            assert_eq!(ctx.stats.copies.get(), 4);
            assert_eq!(ctx.stats.punctuations.get(), 2, "one final punctuation per unit");
        }
    }

    #[test]
    fn a_refused_send_is_an_error_not_a_lost_frame() {
        let layout = Layout::new(1, 1, 1).unwrap();
        let ctx = ctx();
        let steps = [Polled::Item(tuple(Rel::R, 1)), Polled::Closed];
        let (ingest, _log) = script(&ctx, steps);
        let (tx, rx) = mpsc::channel();
        drop(rx);
        assert!(run_router(router(1), &layout, ingest, tx, &ctx).is_err());
    }

    #[test]
    fn router_flushes_when_ingest_goes_idle() {
        // At batch 16 two same-key R tuples would share one frame per
        // channel; an idle look between them sends the first tuple's copies
        // on their own, each frame covering every seq routed so far. While
        // copies are pending the router only looks (a zero wait).
        let layout = Layout::new(1, 1, 1).unwrap();
        let ctx = ctx();
        let steps = [
            Polled::Item(tuple(Rel::R, 1)),
            Polled::Idle,
            Polled::Idle,
            Polled::Item(tuple(Rel::R, 1)),
            Polled::Closed,
        ];
        let (ingest, log) = script(&ctx, steps);
        let (tx, rx) = mpsc::channel();
        run_router(router(16), &layout, ingest, tx, &ctx).unwrap();

        let looked: Vec<bool> = log.try_iter().map(|(wait, _)| wait.is_zero()).collect();
        assert_eq!(looked, [false, true, false, false, true], "zero wait iff copies pend");
        let sent: Vec<(JoinerId, BatchMessage)> = rx.try_iter().collect();
        for (_, unit) in layout.all_units() {
            let channel: Vec<&BatchMessage> =
                sent.iter().filter(|(d, _)| *d == unit).map(|(_, m)| m).collect();
            let data: Vec<(Option<SeqNo>, SeqNo)> = channel
                .iter()
                .filter_map(|m| match m {
                    BatchMessage::Batch(b) => Some((b.first_seq(), b.covers())),
                    BatchMessage::Punct(_) => None,
                })
                .collect();
            assert_eq!(data, [(Some(1), 1), (Some(2), 2)], "a frame per tuple, each covered");
            assert!(matches!(channel.last(), Some(BatchMessage::Punct(p)) if p.seq == 2));
        }
        assert_eq!(ctx.stats.punctuations.get(), 2, "only the final punctuation");
    }

    #[test]
    fn joiner_drains_to_closed_and_only_then_flushes() {
        // The R unit's channel: the R tuple's store copy and the S tuple's
        // join copy as the router framed them — each covering its own seq,
        // so the pair joins as soon as the second arrives — then a join
        // copy framed by hand, which claims no cover: only the terminal
        // flush at `Closed` may release it.
        let layout = Layout::new(1, 1, 1).unwrap();
        let (_, unit) = layout.all_units().next().unwrap();
        let mut core = router(1);
        let mut routed = Vec::new();
        core.route_batched(&tuple(Rel::R, 1), &layout, &[], &mut routed).unwrap();
        core.route_batched(&tuple(Rel::S, 1), &layout, &[], &mut routed).unwrap();
        let mut steps: VecDeque<Polled<BatchMessage>> =
            routed.into_iter().filter(|f| f.dest == unit).map(|f| Polled::Item(f.msg)).collect();
        assert_eq!(steps.len(), 2);
        steps.insert(1, Polled::Idle);
        let uncovered = BatchMessage::single(0, 3, Purpose::Join, tuple(Rel::S, 1));
        steps.push_back(Polled::Item(uncovered));
        steps.push_back(Polled::Closed);

        let ctx = ctx();
        let joiner = JoinerCore::new(
            unit,
            Rel::R,
            EQUI,
            WindowSpec::sliding(1_000),
            100,
            true,
            &[(0, 0)],
            CostModel::default(),
        );
        let sink = ResultSink::new(&ctx, &joiner, true);
        let (inbox, log) = script(&ctx, steps);
        let (stats, captured) = run_joiner(joiner, inbox, sink).unwrap();
        let results: Vec<u64> = log.try_iter().map(|(_, results)| results).collect();
        assert_eq!(results, [0, 0, 0, 1, 1], "results emitted before each poll");
        assert_eq!((stats.stored, stats.probes), (1, 2));
        assert_eq!(ctx.stats.results.get(), 2, "the flush released the uncovered probe");
        assert_eq!(captured.len(), 2);
    }
}
