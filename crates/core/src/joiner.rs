//! The joiner core: one processing unit of the biclique.
//!
//! A joiner serves exactly one side. Messages reach it through the reorder
//! buffer (unless the ordering protocol is disabled) and split into the
//! two execution branches of the model:
//!
//! - **Store branch** — own-relation tuples are inserted into the chained
//!   in-memory index under their join key.
//! - **Join branch** — opposite-relation tuples first trigger Theorem-1
//!   discarding, then probe the index with the predicate's plan; every
//!   match is emitted as a [`JoinResult`].
//!
//! Frames enter through [`JoinerCore::handle_batch`]; whatever the reorder
//! buffer lets go — on a punctuation, a router's retirement or the terminal
//! [`JoinerCore::flush`] — is processed one way, as same-purpose runs of at
//! most `batch_size` tuples through the index's batch entry points.
//!
//! Every operation charges the unit's [`ResourceMeter`] through the
//! [`CostModel`], and the live-state byte count is pushed to the meter
//! after every mutation — this is what the autoscaler sees.

use crate::config::EngineConfig;
use crate::layout::JoinerId;
use crate::ordering::{Released, ReorderBuffer};
use bistream_cluster::{CostModel, ResourceMeter};
use bistream_index::{ChainedIndex, IndexKind, IndexObs};
use bistream_types::audit::Auditor;
use bistream_types::batch::BatchMessage;
use bistream_types::error::{Error, Result};
use bistream_types::journal::{EventJournal, EventKind};
use bistream_types::metrics::{Counter, Gauge, Histogram};
use bistream_types::predicate::{JoinPredicate, ProbePlan};
use bistream_types::punct::{Punctuation, Purpose, RouterId, SeqNo, StreamMessage};
use bistream_types::registry::Observability;
use bistream_types::rel::Rel;
use bistream_types::time::Ts;
use bistream_types::trace::{HopKind, Tracer};
use bistream_types::tuple::{JoinResult, Tuple};
use bistream_types::value::Value;
use bistream_types::window::WindowSpec;
use std::sync::Arc;

/// Counters of one joiner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinerStats {
    /// Tuples stored.
    pub stored: u64,
    /// Join-branch tuples processed.
    pub probes: u64,
    /// Key-matched candidates examined.
    pub candidates: u64,
    /// Join results emitted.
    pub results: u64,
    /// Tuples discarded by expiry.
    pub expired: u64,
}

/// Registry handles and journal hook for one joiner, created by
/// [`JoinerCore::attach_obs`]. Every series carries `joiner="<side><id>"`
/// (e.g. `joiner="R3"`), matching the chained index's [`IndexObs`] label so
/// one scrape correlates the unit's branch counters with its window state.
struct JoinerMetrics {
    stored: Arc<Counter>,
    probes: Arc<Counter>,
    candidates: Arc<Counter>,
    results: Arc<Counter>,
    expired: Arc<Counter>,
    /// Live stored-tuple count — the load-imbalance signal the migration
    /// experiments (E9/E10) read per unit.
    stored_tuples: Arc<Gauge>,
    /// Current reorder-buffer depth — tuples parked awaiting the
    /// watermark, the joiner-side backpressure signal.
    reorder_depth: Arc<Gauge>,
    /// High-water mark of the reorder-buffer depth.
    reorder_depth_max: Arc<Gauge>,
    /// Punctuation-frontier lag: fastest router frontier minus watermark.
    frontier_lag: Arc<Gauge>,
    /// The reorder buffer's watermark (minimum router frontier) — the
    /// progress signal the stall watchdog pairs with `reorder_depth`.
    watermark: Arc<Gauge>,
    /// Per-joiner result latency (event-time probe ts → emit).
    latency_ms: Arc<Histogram>,
    journal: EventJournal,
    unit: u32,
}

impl JoinerMetrics {
    fn register(obs: &Observability, side: Rel, unit: u32) -> JoinerMetrics {
        let joiner = format!("{side}{unit}");
        let labels: &[(&str, &str)] = &[("joiner", &joiner)];
        let reg = &obs.registry;
        JoinerMetrics {
            stored: reg.counter(bistream_types::metric_names::JOINER_STORED_TOTAL, labels),
            probes: reg.counter(bistream_types::metric_names::JOINER_PROBES_TOTAL, labels),
            candidates: reg.counter(bistream_types::metric_names::JOINER_CANDIDATES_TOTAL, labels),
            results: reg.counter(bistream_types::metric_names::JOINER_RESULTS_TOTAL, labels),
            expired: reg.counter(bistream_types::metric_names::JOINER_EXPIRED_TOTAL, labels),
            stored_tuples: reg.gauge(bistream_types::metric_names::JOINER_STORED_TUPLES, labels),
            reorder_depth: reg.gauge(bistream_types::metric_names::JOINER_REORDER_DEPTH, labels),
            reorder_depth_max: reg
                .gauge(bistream_types::metric_names::JOINER_REORDER_DEPTH_MAX, labels),
            frontier_lag: reg.gauge(bistream_types::metric_names::JOINER_FRONTIER_LAG, labels),
            watermark: reg.gauge(bistream_types::metric_names::JOINER_WATERMARK, labels),
            latency_ms: reg
                .histogram(bistream_types::metric_names::JOINER_RESULT_LATENCY_MS, labels),
            journal: obs.journal.clone(),
            unit,
        }
    }
}

/// One processing unit of the biclique.
pub struct JoinerCore {
    id: JoinerId,
    side: Rel,
    predicate: JoinPredicate,
    store_attr: usize,
    index: ChainedIndex,
    reorder: Option<ReorderBuffer>,
    meter: Arc<ResourceMeter>,
    cost: CostModel,
    stats: JoinerStats,
    metrics: Option<JoinerMetrics>,
    /// Event-time high watermark over processed tuples — the stamp for
    /// journal events that have no tuple of their own (punctuations).
    last_ts: Ts,
    /// Scratch buffer reused across releases.
    released: Vec<Released>,
    /// Scratch buffers reused across runs: what a store run hands to
    /// `insert_batch`, what a join run hands to `probe_batch`, and the
    /// result count of each of its probes.
    items: Vec<(Value, Tuple)>,
    probes: Vec<(ProbePlan, Ts)>,
    results: Vec<usize>,
    /// Per-tuple tracer, shared through [`JoinerCore::attach_obs`].
    tracer: Tracer,
    /// Processing time (virtual ms in the simulator, wall ms live), set by
    /// the driver via [`JoinerCore::set_now`] before each handle/flush —
    /// the stamp for store/probe/emit spans, which makes reorder-buffer
    /// wait visible as the dequeue→store gap.
    now: Ts,
    /// Cached `"<side><unit>"` label for trace spans.
    unit_label: String,
    /// Cap on the same-purpose runs processed at once (1 = per-tuple
    /// processing: every released tuple is its own run).
    batch_size: usize,
    /// Invariant auditor (test/debug harnesses): checks channel FIFO and
    /// release order on every message, and Theorem 1 via the index.
    auditor: Option<Auditor>,
}

impl JoinerCore {
    /// Create a joiner for `side`.
    ///
    /// `ordering` enables the reorder buffer; `routers` lists the live
    /// routers and their current counters so the buffer's watermark starts
    /// correct (essential for units added by scale-out).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: JoinerId,
        side: Rel,
        predicate: JoinPredicate,
        window: WindowSpec,
        archive_period_ms: Ts,
        ordering: bool,
        routers: &[(RouterId, SeqNo)],
        cost: CostModel,
    ) -> JoinerCore {
        let kind = IndexKind::for_predicate(&predicate);
        let reorder = ordering.then(|| {
            let mut buf = ReorderBuffer::new();
            for &(r, seq) in routers {
                buf.register_router(r, seq);
            }
            buf
        });
        let store_attr = predicate.attr_of(side);
        JoinerCore {
            unit_label: format!("{side}{}", id.0),
            id,
            side,
            predicate,
            store_attr,
            index: ChainedIndex::new(kind, window, archive_period_ms),
            reorder,
            meter: ResourceMeter::shared(),
            cost,
            stats: JoinerStats::default(),
            metrics: None,
            last_ts: 0,
            released: Vec::new(),
            items: Vec::new(),
            probes: Vec::new(),
            results: Vec::new(),
            tracer: Tracer::disabled(),
            now: 0,
            batch_size: 1,
            auditor: None,
        }
    }

    /// The joiner every runtime runs for unit `id` of `side`: built from
    /// `config` (predicate, window, archive period, ordering, batch size)
    /// with the `routers`' frontiers, and wired to the registry, journal
    /// and tracer of `obs` and to the `auditor` if one is armed.
    pub fn for_engine(
        id: JoinerId,
        side: Rel,
        config: &EngineConfig,
        cost: CostModel,
        routers: &[(RouterId, SeqNo)],
        obs: &Observability,
        auditor: Option<&Auditor>,
    ) -> JoinerCore {
        let mut joiner = JoinerCore::new(
            id,
            side,
            config.predicate.clone(),
            config.window,
            config.archive_period_ms,
            config.ordering,
            routers,
            cost,
        );
        joiner.set_batch_size(config.batch_size);
        joiner.attach_obs(obs);
        if let Some(a) = auditor {
            joiner.set_auditor(a.clone());
        }
        joiner
    }

    /// One Theorem-1 expiry pass witnessed by `ts`, charged to the unit's
    /// counters and meter. Returns the number of tuples discarded.
    fn expire_at(&mut self, ts: Ts) -> usize {
        let dropped = self.index.discard(ts);
        self.stats.expired += dropped.tuples as u64;
        if dropped.sub_indexes > 0 {
            self.meter.charge_cpu_us(self.cost.expire_subindex_us * dropped.sub_indexes as f64);
        }
        dropped.tuples
    }

    /// Attach the invariant [`Auditor`]: every incoming message is checked
    /// for per-channel FIFO (Definition 8), every reorder-buffer release
    /// for order consistency against the watermark and the channel's
    /// punctuation frontier (Definition 7), and every wholesale index
    /// discard against Theorem 1.
    pub fn set_auditor(&mut self, auditor: Auditor) {
        self.index.set_auditor(auditor.clone(), self.unit_label.clone());
        self.auditor = Some(auditor);
    }

    /// Set the run cap (clamped to at least 1). Store and join releases
    /// are grouped into same-purpose runs of at most this many tuples and
    /// processed through the index's batch entry points; at `1` (the
    /// default) every tuple is its own run, i.e. per-tuple processing.
    pub fn set_batch_size(&mut self, n: usize) {
        self.batch_size = n.max(1);
    }

    /// The run cap.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Attach the unified observability layer: registers this unit's
    /// per-joiner series (label `joiner="<side><id>"`), its resource meter
    /// (label `pod="<side><id>"`), hooks the chained index's [`IndexObs`]
    /// in, and starts recording journal events (`TupleStored`,
    /// `JoinEmitted`, `PunctuationAdvanced`) stamped with event time.
    pub fn attach_obs(&mut self, obs: &Observability) {
        let unit = self.id.0;
        let pod = format!("{}{}", self.side, unit);
        self.meter.register_into(&obs.registry, &[("pod", &pod)]);
        self.index.set_obs(IndexObs::register(obs, self.side, unit));
        self.metrics = Some(JoinerMetrics::register(obs, self.side, unit));
        self.tracer = obs.tracer.clone();
        self.sync_observables();
    }

    /// Advance this unit's processing clock — the timestamp for trace
    /// spans recorded by store/probe/emit. The engine calls this from its
    /// pump (virtual time); the live pipeline's joiner threads call it
    /// with wall time before each handled message.
    pub fn set_now(&mut self, now: Ts) {
        self.now = self.now.max(now);
        if let Some(a) = &self.auditor {
            a.set_now(self.now);
        }
    }

    /// Push the point-in-time gauges (memory, stored tuples, reorder
    /// depth/lag) — called after every batch of work.
    fn sync_observables(&mut self) {
        let s = self.index.stats();
        self.meter.set_memory_bytes(s.bytes as u64);
        if let Some(m) = &self.metrics {
            m.stored_tuples.set(s.tuples as u64);
            if let Some(buf) = &self.reorder {
                m.reorder_depth.set(buf.depth() as u64);
                m.reorder_depth_max.set(buf.stats().max_depth as u64);
                m.frontier_lag.set(buf.frontier_lag());
                m.watermark.set(buf.watermark().unwrap_or(0));
            }
        }
    }

    /// This unit's id.
    pub fn id(&self) -> JoinerId {
        self.id
    }

    /// The side this unit stores.
    pub fn side(&self) -> Rel {
        self.side
    }

    /// The unit's resource meter (shared with the autoscaler).
    pub fn meter(&self) -> Arc<ResourceMeter> {
        Arc::clone(&self.meter)
    }

    /// The per-joiner result-latency histogram, once observability is
    /// attached. Latency is known at emit time, not inside the joiner, so
    /// the engine records into this handle from its pump.
    pub fn latency_histogram(&self) -> Option<Arc<Histogram>> {
        self.metrics.as_ref().map(|m| Arc::clone(&m.latency_ms))
    }

    /// Counters.
    pub fn stats(&self) -> JoinerStats {
        self.stats
    }

    /// Live window state statistics.
    pub fn index_stats(&self) -> bistream_index::ChainStats {
        self.index.stats()
    }

    /// Reorder-buffer statistics, if the protocol is enabled.
    pub fn reorder_stats(&self) -> Option<crate::ordering::ReorderStats> {
        self.reorder.as_ref().map(|b| b.stats())
    }

    /// The reorder buffer's watermark — the minimum punctuation frontier
    /// over all registered routers, i.e. the sequence number below which
    /// every tuple has been released. `None` when ordering is disabled.
    /// The chaos checkpoint uses this as the recovery frontier.
    pub fn reorder_watermark(&self) -> Option<SeqNo> {
        self.reorder.as_ref().and_then(|b| b.watermark())
    }

    /// Register a router that appeared after this joiner was created.
    pub fn register_router(&mut self, router: RouterId, frontier: SeqNo) {
        if let Some(buf) = &mut self.reorder {
            buf.register_router(router, frontier);
        }
    }

    /// Deregister a retired router (after its final punctuation has been
    /// processed), emitting anything the watermark shift releases.
    pub fn deregister_router<F: FnMut(JoinResult)>(
        &mut self,
        router: RouterId,
        emit: &mut F,
    ) -> Result<()> {
        self.release(|buf, out| buf.deregister_router(router, out), None, true, emit)
    }

    /// Serialise this unit's stored window state (see
    /// [`bistream_index::snapshot()`]). Buffered-but-unreleased tuples in
    /// the reorder buffer are NOT included — snapshot at a quiesce point
    /// (after a punctuation has drained the buffer) for a complete image.
    pub fn snapshot_state(&self) -> bytes::Bytes {
        bistream_index::snapshot(&self.index)
    }

    /// Restore stored window state from a snapshot taken by a unit with
    /// the same predicate/window/period. Returns tuples restored.
    pub fn restore_state(&mut self, blob: impl bytes::Buf) -> Result<usize> {
        let n = bistream_index::restore(&mut self.index, blob)?;
        self.sync_observables();
        Ok(n)
    }

    /// Handle one incoming frame, emitting any produced join results.
    ///
    /// One frame is decoded (by the transport) and charged ingest cost
    /// once, however many tuples it carries. With the ordering protocol
    /// on, every entry is offered to the reorder buffer under its own
    /// `(router, seq)` stamp — batching never bends the global order —
    /// and data may be buffered and processed later (on a punctuation), so
    /// the emit callback fires zero or more times per call. Whatever a
    /// punctuation releases is processed as same-purpose runs of at most
    /// [`JoinerCore::batch_size`] tuples through the index's
    /// `insert_batch`/`probe_batch` entry points. With the protocol off,
    /// the frame itself is the run. A run of join probes expires state
    /// once, witnessed by its first probe's timestamp; matches are
    /// window-checked per probe, so results are unaffected.
    pub fn handle_batch<F: FnMut(JoinResult)>(
        &mut self,
        msg: BatchMessage,
        emit: &mut F,
    ) -> Result<()> {
        self.meter.charge_cpu_us(self.cost.ingest_us);
        if self.reorder.is_none() {
            if let BatchMessage::Batch(b) = msg {
                let (router, purpose) = (b.router(), b.purpose());
                let mut run = std::mem::take(&mut self.released);
                run.extend(b.into_entries().into_iter().map(|e| Released {
                    router,
                    seq: e.seq,
                    purpose,
                    tuple: e.tuple,
                }));
                self.process_run(&run, emit)?;
                run.clear();
                self.released = run;
            }
            self.sync_observables();
            return Ok(());
        }
        if let Some(a) = &self.auditor {
            match &msg {
                BatchMessage::Punct(p) => a.channel_punct(&self.unit_label, p.router, p.seq),
                BatchMessage::Batch(b) => {
                    for e in b.entries() {
                        a.channel_recv(&self.unit_label, b.router(), b.purpose(), e.seq);
                    }
                }
            }
        }
        let punct = match &msg {
            BatchMessage::Punct(p) => Some(*p),
            BatchMessage::Batch(_) => None,
        };
        let offer = |buf: &mut ReorderBuffer, released: &mut Vec<Released>| match msg {
            BatchMessage::Punct(p) => buf.offer(StreamMessage::Punct(p), released),
            BatchMessage::Batch(b) => {
                let (router, purpose) = (b.router(), b.purpose());
                for e in b.into_entries() {
                    buf.offer(
                        StreamMessage::Data { router, seq: e.seq, purpose, tuple: e.tuple },
                        released,
                    );
                }
            }
        };
        self.release(offer, punct, true, emit)
    }

    /// The one release path: let `op` drive the reorder buffer, audit every
    /// tuple it released against the resulting watermark (when `audited`),
    /// journal the advance if `punct` moved the watermark, and process what
    /// was released, in global order, as same-purpose runs of at most
    /// [`JoinerCore::batch_size`] tuples. Does nothing with the ordering
    /// protocol off.
    fn release<F: FnMut(JoinResult)>(
        &mut self,
        op: impl FnOnce(&mut ReorderBuffer, &mut Vec<Released>),
        punct: Option<Punctuation>,
        audited: bool,
        emit: &mut F,
    ) -> Result<()> {
        let Some(buf) = &mut self.reorder else { return Ok(()) };
        debug_assert!(self.released.is_empty());
        let wm_before = buf.watermark();
        let mut released = std::mem::take(&mut self.released);
        op(buf, &mut released);
        if let (Some(a), true) = (&self.auditor, audited) {
            let wm = buf.watermark().unwrap_or(SeqNo::MAX);
            for r in &released {
                a.release(&self.unit_label, r.router, r.seq, wm);
            }
        }
        let advanced = buf.watermark() > wm_before;
        if let (Some(m), Some(p), true) = (&self.metrics, punct, advanced) {
            m.journal.record(
                self.last_ts,
                EventKind::PunctuationAdvanced {
                    side: self.side,
                    unit: m.unit,
                    router: p.router,
                    seq: p.seq,
                },
            );
        }
        for run in ReorderBuffer::purpose_runs(&released, self.batch_size) {
            self.process_run(run, emit)?;
        }
        released.clear();
        self.released = released;
        self.sync_observables();
        Ok(())
    }

    /// Process one same-purpose run through the index's batch entry points.
    fn process_run<F: FnMut(JoinResult)>(&mut self, run: &[Released], emit: &mut F) -> Result<()> {
        match run.first().map(|r| r.purpose) {
            Some(Purpose::Store) => self.store_run(run),
            Some(Purpose::Join) => self.probe_run(run, emit),
            None => Ok(()),
        }
    }

    /// Insert a run of store copies through one `insert_batch` call.
    /// Bookkeeping (journal, meter, trace spans) stays per tuple, so the
    /// run cap changes how often the index is entered and nothing else.
    fn store_run(&mut self, run: &[Released]) -> Result<()> {
        let mut items = std::mem::take(&mut self.items);
        for Released { seq, tuple, .. } in run {
            debug_assert_eq!(tuple.rel(), self.side, "store copy on the wrong side");
            self.last_ts = self.last_ts.max(tuple.ts());
            let key = self.key_of(tuple)?;
            if let Some(m) = &self.metrics {
                m.stored.inc();
                m.journal.record(
                    tuple.ts(),
                    EventKind::TupleStored { side: self.side, unit: m.unit, seq: *seq },
                );
            }
            items.push((key, tuple.clone()));
            self.stats.stored += 1;
            self.meter.charge_cpu_us(self.cost.insert_us);
            if self.tracer.sampled(*seq) {
                self.tracer.span(*seq, HopKind::Store, &self.unit_label, self.now, self.now);
                self.tracer.end_branch(*seq);
            }
        }
        self.index.insert_batch(items.drain(..));
        self.items = items;
        Ok(())
    }

    /// Probe a run of join copies through one `probe_batch` call.
    ///
    /// Theorem-1 discarding runs once, witnessed by the **first** probe's
    /// timestamp — later probes in the run may leave slightly more state
    /// resident than per-tuple expiry would, but every candidate is
    /// window-checked against its own probe's timestamp, so the emitted
    /// results are identical. Results are emitted probe-major in run
    /// order, matching a sequence of standalone probes exactly.
    fn probe_run<F: FnMut(JoinResult)>(&mut self, run: &[Released], emit: &mut F) -> Result<()> {
        debug_assert!(!run.is_empty());
        let dropped = self.expire_at(run[0].tuple.ts());

        let mut probes = std::mem::take(&mut self.probes);
        probes.clear();
        for Released { tuple: probe, .. } in run {
            debug_assert_eq!(probe.rel(), self.side.opposite(), "join copy on the wrong side");
            self.last_ts = self.last_ts.max(probe.ts());
            probes.push((self.predicate.probe_plan(probe)?, probe.ts()));
        }
        // The index hands over matches probe by probe in run order, so
        // they are emitted as they arrive; only the counts are kept.
        let mut results = std::mem::take(&mut self.results);
        results.clear();
        results.resize(run.len(), 0);
        let mut failed = None;
        let predicate = &self.predicate;
        let probe_stats = self.index.probe_batch(&probes, |i, stored| {
            let hit =
                emit_if_match(predicate, &probes[i].0, stored, &run[i].tuple, &mut failed, emit);
            results[i] += usize::from(hit);
        });
        if let Some(e) = failed {
            return Err(e);
        }

        for (i, Released { seq, tuple: probe, .. }) in run.iter().enumerate() {
            let results = results[i];
            let stats = &probe_stats[i];
            self.stats.probes += 1;
            self.stats.candidates += stats.candidates as u64;
            self.stats.results += results as u64;
            if let Some(m) = &self.metrics {
                m.probes.inc();
                m.candidates.add(stats.candidates as u64);
                m.results.add(results as u64);
                if i == 0 {
                    m.expired.add(dropped as u64);
                }
                if results > 0 {
                    m.journal.record(
                        probe.ts(),
                        EventKind::JoinEmitted {
                            side: self.side,
                            unit: m.unit,
                            results: results as u64,
                        },
                    );
                }
            }
            self.meter.charge_cpu_us(self.cost.probe_cost_us(stats.candidates, results));
            if self.tracer.sampled(*seq) {
                self.tracer.span(*seq, HopKind::Probe, &self.unit_label, self.now, self.now);
                if results > 0 {
                    self.tracer.span(*seq, HopKind::Emit, &self.unit_label, self.now, self.now);
                }
                self.tracer.end_branch(*seq);
            }
        }
        self.probes = probes;
        self.results = results;
        Ok(())
    }

    /// Terminal flush of the reorder buffer: process everything still
    /// buffered, in global order. Call only after the unit's channel is
    /// closed and drained (shutdown/retirement) — see
    /// [`crate::ordering::ReorderBuffer::flush`].
    pub fn flush<F: FnMut(JoinResult)>(&mut self, emit: &mut F) -> Result<()> {
        // Terminal flush deliberately releases past the punctuation
        // frontiers (the residue is complete and sorted), so the
        // per-release audit hooks do not apply here.
        self.release(|buf, out| buf.flush(out), None, false, emit)
    }

    /// Fault injection for auditor tests: corrupt one router's punctuation
    /// frontier in the reorder buffer (see
    /// [`ReorderBuffer::debug_corrupt_frontier`]) and process whatever the
    /// corrupt watermark prematurely releases. Never called by production
    /// code.
    #[doc(hidden)]
    pub fn debug_corrupt_frontier<F: FnMut(JoinResult)>(
        &mut self,
        router: RouterId,
        seq: SeqNo,
        emit: &mut F,
    ) -> Result<()> {
        self.release(|buf, out| buf.debug_corrupt_frontier(router, seq, out), None, true, emit)
    }

    /// Fault injection for watchdog tests: freeze this unit's reorder
    /// frontier (see [`ReorderBuffer::debug_freeze_frontier`]) so its
    /// watermark flatlines while input keeps buffering — a seeded
    /// frontier stall. Never called by production code.
    #[doc(hidden)]
    pub fn debug_freeze_frontier(&mut self, on: bool) {
        if let Some(buf) = &mut self.reorder {
            buf.debug_freeze_frontier(on);
        }
    }

    fn key_of(&self, tuple: &Tuple) -> Result<Value> {
        match self.predicate {
            JoinPredicate::Cross => Ok(Value::Null),
            _ => Ok(tuple.require(self.store_attr)?.clone()),
        }
    }
}

/// Emit `stored ⋈ probe` as the index yields the candidate, and say
/// whether it counted as a result.
///
/// Band plans use float arithmetic for their bounds, so their candidates
/// are re-verified against the predicate for exactness; `FullScan` plans
/// are only key-complete, so they always re-verify. The first predicate
/// error is parked in `failed` (the index callback cannot return it) and
/// stops all further emission.
fn emit_if_match<F: FnMut(JoinResult)>(
    predicate: &JoinPredicate,
    plan: &ProbePlan,
    stored: &Tuple,
    probe: &Tuple,
    failed: &mut Option<Error>,
    emit: &mut F,
) -> bool {
    if failed.is_some() {
        return false;
    }
    let verify =
        matches!((plan, predicate), (ProbePlan::FullScan, _) | (_, JoinPredicate::Band { .. }));
    if verify {
        match predicate.matches(stored, probe) {
            Ok(true) => {}
            Ok(false) => return false,
            Err(e) => {
                *failed = Some(e);
                return false;
            }
        }
    }
    emit(JoinResult::of(stored.clone(), probe.clone()));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistream_types::punct::Punctuation;

    fn joiner(side: Rel, ordering: bool) -> JoinerCore {
        JoinerCore::new(
            JoinerId(0),
            side,
            JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
            WindowSpec::sliding(1_000),
            100,
            ordering,
            &[(0, 0)],
            CostModel::default(),
        )
    }

    /// One sequenced copy as its own frame — the default `batch_size = 1`
    /// framing.
    fn data(seq: SeqNo, purpose: Purpose, rel: Rel, ts: Ts, k: i64) -> BatchMessage {
        BatchMessage::single(0, seq, purpose, Tuple::new(rel, ts, vec![Value::Int(k)]))
    }

    fn punct(seq: SeqNo) -> BatchMessage {
        BatchMessage::Punct(Punctuation { router: 0, seq })
    }

    #[test]
    fn store_then_join_produces_result_without_ordering() {
        let mut j = joiner(Rel::R, false);
        let mut results = Vec::new();
        j.handle_batch(data(1, Purpose::Store, Rel::R, 10, 5), &mut |r| results.push(r)).unwrap();
        j.handle_batch(data(2, Purpose::Join, Rel::S, 20, 5), &mut |r| results.push(r)).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].r.ts(), 10);
        assert_eq!(results[0].s.ts(), 20);
        assert_eq!(j.stats().results, 1);
        assert_eq!(j.stats().stored, 1);
    }

    #[test]
    fn ordering_buffers_until_punctuation_then_processes_in_seq_order() {
        let mut j = joiner(Rel::R, true);
        let mut results = Vec::new();
        // Join copy (seq 2) arrives BEFORE the store copy (seq 1) — the
        // missed-result race of Fig. 8(c). With ordering, the buffer fixes
        // the order and the result is still produced.
        j.handle_batch(data(2, Purpose::Join, Rel::S, 20, 5), &mut |r| results.push(r)).unwrap();
        j.handle_batch(data(1, Purpose::Store, Rel::R, 10, 5), &mut |r| results.push(r)).unwrap();
        assert!(results.is_empty(), "buffered until punctuation");
        j.handle_batch(punct(2), &mut |r| results.push(r)).unwrap();
        assert_eq!(results.len(), 1, "store processed before join despite arrival order");
    }

    #[test]
    fn without_ordering_the_race_loses_the_result() {
        let mut j = joiner(Rel::R, false);
        let mut results = Vec::new();
        j.handle_batch(data(2, Purpose::Join, Rel::S, 20, 5), &mut |r| results.push(r)).unwrap();
        j.handle_batch(data(1, Purpose::Store, Rel::R, 10, 5), &mut |r| results.push(r)).unwrap();
        assert!(results.is_empty(), "join probed an empty window: missed result");
    }

    #[test]
    fn join_expires_stale_state_first() {
        let mut j = joiner(Rel::R, false);
        let mut sink = Vec::new();
        // Fill several archive periods.
        for ts in (0..500).step_by(50) {
            j.handle_batch(data(ts / 50 + 1, Purpose::Store, Rel::R, ts, 1), &mut |r| sink.push(r))
                .unwrap();
        }
        let stored = j.index_stats().tuples;
        assert_eq!(stored, 10);
        // A join tuple far in the future expires everything archived.
        j.handle_batch(data(100, Purpose::Join, Rel::S, 10_000, 1), &mut |r| sink.push(r)).unwrap();
        assert!(sink.is_empty(), "window excludes everything");
        assert!(j.stats().expired > 0);
        assert!(j.index_stats().tuples < stored);
    }

    #[test]
    fn band_predicate_verifies_candidates_exactly() {
        let mut j = JoinerCore::new(
            JoinerId(1),
            Rel::S,
            JoinPredicate::Band { r_attr: 0, s_attr: 0, band: 2.0 },
            WindowSpec::sliding(1_000),
            100,
            false,
            &[],
            CostModel::default(),
        );
        let mut results = Vec::new();
        for k in [1, 3, 6] {
            j.handle_batch(data(k as u64, Purpose::Store, Rel::S, 0, k), &mut |r| results.push(r))
                .unwrap();
        }
        j.handle_batch(data(9, Purpose::Join, Rel::R, 1, 4), &mut |r| results.push(r)).unwrap();
        // |4-1|=3 no, |4-3|=1 yes, |4-6|=2 yes (inclusive).
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.r.rel() == Rel::R && r.s.rel() == Rel::S));
    }

    #[test]
    fn cross_predicate_joins_everything_in_window() {
        let mut j = JoinerCore::new(
            JoinerId(2),
            Rel::R,
            JoinPredicate::Cross,
            WindowSpec::sliding(100),
            10,
            false,
            &[],
            CostModel::default(),
        );
        let mut results = Vec::new();
        for (seq, ts) in [(1, 0), (2, 50), (3, 200)] {
            j.handle_batch(data(seq, Purpose::Store, Rel::R, ts, seq as i64), &mut |r| {
                results.push(r)
            })
            .unwrap();
        }
        j.handle_batch(data(4, Purpose::Join, Rel::S, 100, 99), &mut |r| results.push(r)).unwrap();
        // Window 100 around probe ts=100 covers ts 0,50,200.
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn meter_charges_cpu_and_reports_memory() {
        let mut j = joiner(Rel::R, false);
        let meter = j.meter();
        let mut sink = Vec::new();
        j.handle_batch(data(1, Purpose::Store, Rel::R, 0, 1), &mut |r| sink.push(r)).unwrap();
        assert!(meter.cpu_busy_us() > 0);
        assert!(meter.memory_bytes() > 0);
        let before = meter.memory_bytes();
        j.handle_batch(data(2, Purpose::Store, Rel::R, 1, 2), &mut |r| sink.push(r)).unwrap();
        assert!(meter.memory_bytes() > before);
    }

    #[test]
    fn attach_obs_exposes_series_and_journals_events() {
        let obs = Observability::new();
        let mut j = joiner(Rel::R, true);
        j.attach_obs(&obs);
        let mut results = Vec::new();
        j.handle_batch(data(1, Purpose::Store, Rel::R, 10, 5), &mut |r| results.push(r)).unwrap();
        j.handle_batch(data(2, Purpose::Join, Rel::S, 20, 5), &mut |r| results.push(r)).unwrap();
        j.handle_batch(punct(2), &mut |r| results.push(r)).unwrap();
        assert_eq!(results.len(), 1);

        let snap = obs.registry.scrape(20);
        let labels: &[(&str, &str)] = &[("joiner", "R0")];
        assert_eq!(
            snap.counter(bistream_types::metric_names::JOINER_STORED_TOTAL, labels),
            Some(1)
        );
        assert_eq!(
            snap.counter(bistream_types::metric_names::JOINER_PROBES_TOTAL, labels),
            Some(1)
        );
        assert_eq!(
            snap.counter(bistream_types::metric_names::JOINER_RESULTS_TOTAL, labels),
            Some(1)
        );
        assert_eq!(snap.gauge(bistream_types::metric_names::JOINER_STORED_TUPLES, labels), Some(1));
        assert_eq!(
            snap.gauge(bistream_types::metric_names::JOINER_REORDER_DEPTH_MAX, labels),
            Some(2)
        );
        // The index side of the unit is registered under the same label.
        assert_eq!(snap.gauge(bistream_types::metric_names::INDEX_LIVE_TUPLES, labels), Some(1));
        // The pod meter is registered under pod="R0".
        assert!(
            snap.counter(bistream_types::metric_names::POD_CPU_BUSY_US_TOTAL, &[("pod", "R0")])
                .unwrap_or(0)
                > 0
        );

        let events = obs.journal.drain();
        let tags: Vec<&str> = events.iter().map(|e| e.kind.tag()).collect();
        assert!(tags.contains(&"PunctuationAdvanced"), "tags: {tags:?}");
        assert!(tags.contains(&"TupleStored"));
        assert!(tags.contains(&"JoinEmitted"));
        let stored = events.iter().find(|e| e.kind.tag() == "TupleStored").unwrap();
        assert_eq!(stored.ts, 10, "stamped with event time");
        let emitted = events.iter().find(|e| e.kind.tag() == "JoinEmitted").unwrap();
        assert_eq!(emitted.ts, 20);
    }

    #[test]
    fn batched_frames_match_per_tuple_handling_exactly() {
        // The same traffic as single-entry frames handled tuple by tuple
        // (batch size 1) and as multi-entry frames handled in runs of up to
        // 8; with the protocol on, a punctuation releases the first 9
        // copies and the terminal flush the other 11. Every observable —
        // results in order, counters, index state — must agree.
        let groups = [
            (Purpose::Store, 6, 0),
            (Purpose::Join, 3, 100),
            (Purpose::Store, 3, 200),
            (Purpose::Join, 5, 300),
            // …and a window later, so the last probes expire sealed links.
            (Purpose::Store, 1, 400),
            (Purpose::Join, 2, 5_000),
        ];
        let run = |ordering: bool, cap: usize| {
            let mut j = joiner(Rel::R, ordering);
            j.set_batch_size(cap);
            let mut results = Vec::new();
            let mut seq = 0;
            for (purpose, n, base_ts) in groups {
                let rel = if purpose == Purpose::Store { Rel::R } else { Rel::S };
                let mut frame = bistream_types::TupleBatch::new(0, purpose);
                for i in 0..n {
                    seq += 1;
                    frame.push(seq, Tuple::new(rel, base_ts + i, vec![Value::Int(i as i64 % 3)]));
                }
                let frames = if cap == 1 {
                    let single = |e: bistream_types::batch::BatchEntry| {
                        BatchMessage::single(0, e.seq, purpose, e.tuple)
                    };
                    frame.into_entries().into_iter().map(single).collect()
                } else {
                    vec![BatchMessage::Batch(frame)]
                };
                for f in frames {
                    j.handle_batch(f, &mut |r| results.push(r)).unwrap();
                }
                if seq == 9 {
                    assert_eq!(results.is_empty(), ordering, "buffered until punctuation");
                    j.handle_batch(punct(9), &mut |r| results.push(r)).unwrap();
                    assert_eq!(results.len(), 3 * 2, "each of 3 probes finds 2 stored tuples");
                }
            }
            j.flush(&mut |r| results.push(r)).unwrap();
            (results, j.stats(), j.index_stats().tuples)
        };
        for ordering in [false, true] {
            let (results, stats, live) = run(ordering, 1);
            assert_eq!((stats.stored, stats.probes), (10, 10));
            assert_eq!(results.len(), 3 * 2 + 5 * 3, "then each of 5 probes finds 3");
            assert!(stats.expired > 0 && live < 10, "the late probes expired sealed links");
            assert_eq!(run(ordering, 8), (results, stats, live), "ordering={ordering}");
        }
    }

    #[test]
    fn multi_entry_frames_store_and_probe_in_one_pass() {
        let mut j = joiner(Rel::R, false);
        j.set_batch_size(8);
        let mut store = bistream_types::TupleBatch::new(0, Purpose::Store);
        for (seq, k) in [(1u64, 5i64), (2, 6), (3, 5)] {
            store.push(seq, Tuple::new(Rel::R, 10 * seq, vec![Value::Int(k)]));
        }
        let mut results = Vec::new();
        j.handle_batch(BatchMessage::Batch(store), &mut |r| results.push(r)).unwrap();
        assert_eq!(j.stats().stored, 3);
        let mut probes = bistream_types::TupleBatch::new(0, Purpose::Join);
        probes.push(4, Tuple::new(Rel::S, 40, vec![Value::Int(5)]));
        probes.push(5, Tuple::new(Rel::S, 41, vec![Value::Int(6)]));
        j.handle_batch(BatchMessage::Batch(probes), &mut |r| results.push(r)).unwrap();
        // Probe-major emission: both k=5 matches first, then the k=6 one.
        assert_eq!(results.len(), 3);
        assert!(results[..2].iter().all(|r| r.r.get(0) == Some(&Value::Int(5))));
        assert_eq!(results[2].r.get(0), Some(&Value::Int(6)));
        assert_eq!(j.stats().probes, 2);
    }

    #[test]
    fn ordered_batches_release_into_runs_on_punctuation() {
        for cap in [1usize, 4] {
            let mut j = joiner(Rel::R, true);
            j.set_batch_size(cap);
            let mut results = Vec::new();
            // Join frame arrives before the store frame; the reorder
            // buffer must still fix the order whatever the run cap is.
            let mut joins = bistream_types::TupleBatch::new(0, Purpose::Join);
            joins.push(3, Tuple::new(Rel::S, 30, vec![Value::Int(1)]));
            joins.push(4, Tuple::new(Rel::S, 31, vec![Value::Int(2)]));
            j.handle_batch(BatchMessage::Batch(joins), &mut |r| results.push(r)).unwrap();
            let mut stores = bistream_types::TupleBatch::new(0, Purpose::Store);
            stores.push(1, Tuple::new(Rel::R, 10, vec![Value::Int(1)]));
            stores.push(2, Tuple::new(Rel::R, 11, vec![Value::Int(2)]));
            j.handle_batch(BatchMessage::Batch(stores), &mut |r| results.push(r)).unwrap();
            assert!(results.is_empty(), "buffered until punctuation");
            j.handle_batch(
                BatchMessage::Punct(bistream_types::Punctuation { router: 0, seq: 4 }),
                &mut |r| results.push(r),
            )
            .unwrap();
            assert_eq!(results.len(), 2, "cap={cap}: stores processed before joins");
            assert_eq!(j.stats().stored, 2);
            assert_eq!(j.stats().probes, 2);
        }
    }

    #[test]
    fn late_registered_router_participates_in_watermark() {
        let mut j = joiner(Rel::R, true);
        j.register_router(9, 5);
        let mut results = Vec::new();
        j.handle_batch(data(6, Purpose::Store, Rel::R, 0, 1), &mut |r| results.push(r)).unwrap();
        j.handle_batch(punct(6), &mut |r| results.push(r)).unwrap();
        // Router 9's frontier is 5 < 6, so seq 6 from router 0 must wait…
        assert_eq!(j.reorder_stats().unwrap().released, 0);
        // …until router 9 punctuates past it.
        j.handle_batch(BatchMessage::Punct(Punctuation { router: 9, seq: 6 }), &mut |r| {
            results.push(r)
        })
        .unwrap();
        assert_eq!(j.reorder_stats().unwrap().released, 1);
    }
}
