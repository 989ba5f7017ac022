//! The assembled biclique: routers + joiners + simulated delivery, with
//! elastic scaling.
//!
//! `BicliqueEngine` is the deterministic in-process form of the system —
//! the same router/joiner cores the threaded runtime uses, built by the
//! same constructors ([`RouterCore::for_engine`], [`JoinerCore::for_engine`],
//! [`AdaptiveShared::for_engine`], [`Layout::for_engine`]) and wired
//! through [`crate::delivery::ChannelNet`] — in order, shuffled, or
//! executing a fault plan — instead of broker queues or rings. What the
//! engine adds to the cores is who calls them — a caller-driven
//! `ingest(tuple, now)` / `punctuate(now)` on a virtual clock — plus one
//! `net_send` that accounts every frame where it is sent and one result
//! emitter every release path goes through. Experiments that need long
//! virtual horizons (autoscaling), adversarial message schedules (ordering
//! correctness) or exact result capture run against this engine;
//! wall-clock throughput numbers come from [`crate::exec`].
//!
//! ## Scaling without migration
//!
//! [`BicliqueEngine::scale_to`] changes a side's unit count by editing the
//! layout only — stored tuples never move. Correctness is preserved by two
//! mechanisms:
//!
//! - **Draining** (scale-in): a retired unit stops receiving store copies
//!   immediately but keeps receiving join copies and punctuations until
//!   its window state has fully expired, then disappears.
//! - **Historical layouts** (content-sensitive routing): for one window
//!   after a scaling event, join copies are additionally routed according
//!   to every layout that was live within the window, so tuples stored
//!   under the old key→unit mapping keep being probed. Random routing is
//!   unaffected (its join stream already broadcasts), which mirrors the
//!   paper's observation that random/ContRand routing makes scaling
//!   cheap.

use crate::adaptive::AdaptiveShared;
use crate::config::{EngineConfig, RoutingStrategy};
use crate::delivery::{ChannelNet, DeliveryMode};
use crate::joiner::{JoinerCore, JoinerStats};
use crate::layout::{JoinerId, Layout};
use crate::router::{join_dests, BackoffPolicy, RetryQueue, RoutedBatch, RouterCore};
use crate::stats::{EngineSnapshot, EngineStats};
use bistream_cluster::{CostModel, ResourceMeter};
use bistream_types::audit::Auditor;
use bistream_types::batch::BatchMessage;
use bistream_types::error::{Error, Result};
use bistream_types::fault::FaultPlan;
use bistream_types::hash::{FxHashMap, FxHashSet};
use bistream_types::journal::EventKind;
use bistream_types::punct::{Punctuation, RouterId, SeqNo};
use bistream_types::registry::Observability;
use bistream_types::rel::Rel;
use bistream_types::time::Ts;
use bistream_types::trace::HopKind;
use bistream_types::tuple::{JoinResult, Tuple};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// The in-process biclique engine.
///
/// ```
/// use bistream_core::config::EngineConfig;
/// use bistream_core::engine::BicliqueEngine;
/// use bistream_types::{rel::Rel, tuple::Tuple, value::Value};
///
/// let mut engine = BicliqueEngine::new(EngineConfig::default_equi())?;
/// engine.capture_results();
/// engine.ingest(&Tuple::new(Rel::R, 10, vec![Value::Int(42)]), 10)?;
/// engine.ingest(&Tuple::new(Rel::S, 20, vec![Value::Int(42)]), 20)?;
/// engine.punctuate(40)?; // releases what no data frame has covered yet
/// assert_eq!(engine.take_captured().len(), 1);
/// # Ok::<(), bistream_types::error::Error>(())
/// ```
pub struct BicliqueEngine {
    config: EngineConfig,
    cost: CostModel,
    layout: Layout,
    routers: Vec<RouterCore>,
    rr_next: usize,
    joiners: FxHashMap<JoinerId, JoinerCore>,
    /// Retired units still draining their window state, with retire time.
    draining: Vec<(Rel, JoinerId, Ts)>,
    /// Superseded layouts and when they stop mattering.
    historical: Vec<(Layout, Ts)>,
    net: ChannelNet<BatchMessage>,
    /// Recovery state, armed by [`EngineBuilder::chaos`] only: `net` then
    /// executes the fault plan.
    chaos: Option<ChaosState>,
    stats: Arc<EngineStats>,
    obs: Observability,
    /// Shared adaptive-routing state when running
    /// [`RoutingStrategy::Adaptive`]; `None` under the static strategies.
    adaptive: Option<Arc<AdaptiveShared>>,
    auditor: Option<Auditor>,
    capture: Option<Vec<JoinResult>>,
    auto_pump: bool,
    now: Ts,
    scratch: Vec<RoutedBatch>,
}

/// What the engine needs to recover from the faults a [`FaultPlan`]
/// makes the net inject: the router retry queue for partitioned sends,
/// the retransmission log and checkpoints behind the crash/recover
/// drill, and the result-identity set that deduplicates replayed probes.
struct ChaosState {
    retries: RetryQueue,
    /// Per-unit log of every data frame sent to it, for retransmission
    /// after a crash. Trimmed at each checkpoint to the frames the
    /// checkpoint does not cover.
    sent_log: FxHashMap<JoinerId, Vec<(RouterId, BatchMessage)>>,
    /// Last checkpoint per unit: `(window-state snapshot, reorder
    /// watermark at snapshot time)`.
    checkpoints: FxHashMap<JoinerId, (bytes::Bytes, SeqNo)>,
    /// Identities of every emitted result; replayed probes after a crash
    /// re-derive results already emitted, which must not surface twice.
    emitted: FxHashSet<String>,
    /// Seeded bug for the chaos explorer's self-test: restart units
    /// *without* re-hydrating their snapshot.
    skip_rehydrate: bool,
    crashes_fired: u32,
}

impl ChaosState {
    fn new() -> ChaosState {
        ChaosState {
            retries: RetryQueue::new(BackoffPolicy::default()),
            sent_log: FxHashMap::default(),
            checkpoints: FxHashMap::default(),
            emitted: FxHashSet::default(),
            skip_rehydrate: false,
            crashes_fired: 0,
        }
    }

    /// Re-attempt parked frames whose backoff has expired.
    fn drain_retries(&mut self, net: &mut ChannelNet<BatchMessage>) -> usize {
        self.retries.drain_due(net.step(), |router, dest, msg| {
            net.channel_open(router, dest.0) && net.send(router, dest, msg.clone())
        })
    }

    fn forget_unit(&mut self, unit: JoinerId) {
        self.retries.forget_unit(unit);
        self.sent_log.remove(&unit);
        self.checkpoints.remove(&unit);
    }
}

/// Where every join result leaves the engine, whichever of `pump`, `flush`,
/// `remove_router` or the corrupt-frontier hook made `joiner` emit it at
/// virtual time `now`: drop the echo a crash replay re-derives, count the
/// result, time it into the engine-wide and the unit's latency histograms,
/// report it to the output oracle, capture it.
fn emitter<'a>(
    stats: &'a EngineStats,
    auditor: Option<&'a Auditor>,
    chaos: &'a mut Option<ChaosState>,
    capture: &'a mut Option<Vec<JoinResult>>,
    joiner: &JoinerCore,
    now: Ts,
) -> impl FnMut(JoinResult) + 'a {
    let unit_latency = joiner.latency_histogram();
    let mut seen = chaos.as_mut().map(|c| &mut c.emitted);
    move |result: JoinResult| {
        if let Some(seen) = seen.as_deref_mut() {
            if !seen.insert(format!("{:?}", result.identity())) {
                return;
            }
        }
        stats.results.inc();
        let latency = now.saturating_sub(result.ts);
        stats.latency_ms.record(latency);
        if let Some(h) = &unit_latency {
            h.record(latency);
        }
        if let Some(a) = auditor.filter(|a| a.oracle_enabled()) {
            a.observe_output(&result.r.to_string(), &result.s.to_string());
        }
        if let Some(buf) = capture.as_mut() {
            buf.push(result);
        }
    }
}

impl BicliqueEngine {
    /// Build an engine with one router and in-order delivery.
    pub fn new(config: EngineConfig) -> Result<BicliqueEngine> {
        Self::builder(config).build()
    }

    /// Start a builder for non-default topologies.
    pub fn builder(config: EngineConfig) -> EngineBuilder {
        EngineBuilder {
            config,
            routers: 1,
            delivery: DeliveryMode::InOrder,
            cost: CostModel::default(),
            auto_pump: true,
            obs: None,
            auditor: None,
            chaos: None,
            engine_label: "engine".to_string(),
        }
    }

    /// The configuration this engine runs.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The current (active) layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Engine-wide counters.
    pub fn stats(&self) -> EngineSnapshot {
        self.stats.snapshot()
    }

    /// The engine's observability bundle: the labeled metrics registry
    /// every unit registers into and the shared event journal. Scrape
    /// with `observability().registry.scrape(now)`, render with
    /// `telemetry::prometheus_text(&registry, now)`; drain events with
    /// `observability().journal.drain()`.
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// Units currently draining (retired but not yet empty).
    pub fn draining_units(&self) -> usize {
        self.draining.len()
    }

    /// The protocol-invariant auditor observing this engine, if one is
    /// attached (always in debug builds, never in release unless set via
    /// [`EngineBuilder::auditor`]). Tests use it to arm the output oracle
    /// before ingesting and to [`Auditor::finish`] /
    /// [`Auditor::assert_clean`] after flushing.
    pub fn auditor(&self) -> Option<&Auditor> {
        self.auditor.as_ref()
    }

    /// The shared adaptive-routing state when running
    /// [`RoutingStrategy::Adaptive`] (`None` under the static
    /// strategies). Tests read the committed epoch and switch counter
    /// here and arm debug modes such as
    /// [`AdaptiveShared::force_flip_every_tick`].
    pub fn adaptive_state(&self) -> Option<&Arc<AdaptiveShared>> {
        self.adaptive.as_ref()
    }

    /// Seeded bug for the auditor self-test: make every adaptive router
    /// adopt pending plans *without* waiting for its punctuation fence,
    /// dropping superseded probe coverage immediately. Missed results
    /// surface as output-oracle violations. No-op under static routing.
    pub fn debug_skip_fence(&mut self, on: bool) {
        for r in &mut self.routers {
            r.debug_skip_fence(on);
        }
    }

    /// Begin capturing emitted join results (for correctness tests).
    pub fn capture_results(&mut self) {
        self.capture = Some(Vec::new());
    }

    /// Take everything captured since [`capture_results`].
    ///
    /// [`capture_results`]: BicliqueEngine::capture_results
    pub fn take_captured(&mut self) -> Vec<JoinResult> {
        self.capture.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Disable automatic pumping: messages accumulate in the network until
    /// [`pump`] is called, letting tests interleave delivery adversarially.
    ///
    /// [`pump`]: BicliqueEngine::pump
    pub fn set_auto_pump(&mut self, on: bool) {
        self.auto_pump = on;
    }

    /// Ingest one tuple at virtual time `now`.
    ///
    /// The tuple's copies enter the router's per-destination batches;
    /// whatever those batches flush (immediately with `batch_size = 1`,
    /// on a size or punctuation boundary otherwise) is sent as
    /// [`BatchMessage`] frames.
    pub fn ingest(&mut self, tuple: &Tuple, now: Ts) -> Result<()> {
        self.now = self.now.max(now);
        self.purge_historical();
        self.stats.ingested.inc();
        if let Some(a) = &self.auditor {
            a.set_now(self.now);
            if a.oracle_enabled() {
                self.observe_oracle_input(tuple);
            }
        }

        let r_idx = self.rr_next % self.routers.len();
        self.rr_next = self.rr_next.wrapping_add(1);
        let extras = self.transition_extras(&self.routers[r_idx], tuple)?;

        let router_id = self.routers[r_idx].id();
        let mut frames = std::mem::take(&mut self.scratch);
        frames.clear();
        self.routers[r_idx].route_batched(tuple, &self.layout, &extras, &mut frames)?;
        self.send_frames(router_id, &mut frames);
        self.scratch = frames;
        if self.auto_pump {
            self.pump()?;
        }
        Ok(())
    }

    /// The join copies a scaling transition adds to `tuple`'s stream while
    /// one is open (none otherwise): the destinations historical layouts
    /// would have chosen and the draining units of the opposite side,
    /// deduplicated against the join destinations `router` picks under the
    /// current layout (under adaptive routing, its live probe union). The
    /// extra copies ride in the same batches under the same sequence stamp.
    fn transition_extras(&self, router: &RouterCore, tuple: &Tuple) -> Result<Vec<JoinerId>> {
        let mut extras: Vec<JoinerId> = Vec::new();
        if self.historical.is_empty() && self.draining.is_empty() {
            return Ok(extras);
        }
        let current = router.planned_join_dests(tuple, &self.layout)?;
        for (old, _) in &self.historical {
            for dest in join_dests(self.config.routing, &self.config.predicate, tuple, old)? {
                if self.joiners.contains_key(&dest)
                    && !current.contains(&dest)
                    && !extras.contains(&dest)
                {
                    extras.push(dest);
                }
            }
        }
        let opp = tuple.rel().opposite();
        for &(side, id, _) in &self.draining {
            if side == opp && !current.contains(&id) && !extras.contains(&id) {
                extras.push(id);
            }
        }
        Ok(extras)
    }

    /// Report an ingested tuple to the auditor's nested-loop oracle. Only
    /// equi joins are reported with a real key; other predicates cannot be
    /// replayed by the oracle's key-equality model, so they are skipped
    /// (the oracle then sees no inputs and stays trivially satisfied).
    fn observe_oracle_input(&self, tuple: &Tuple) {
        let Some(a) = &self.auditor else { return };
        if let bistream_types::predicate::JoinPredicate::Equi { r_attr, s_attr } =
            &self.config.predicate
        {
            let is_r = tuple.rel() == Rel::R;
            let attr = if is_r { *r_attr } else { *s_attr };
            if let Some(key) = tuple.get(attr) {
                a.observe_input(is_r, tuple.ts(), key.to_string(), tuple.to_string());
            }
        }
    }

    /// Send flushed frames into the network, recording an enqueue span for
    /// every sampled tuple a data frame carries.
    fn send_frames(&mut self, router_id: RouterId, frames: &mut Vec<RoutedBatch>) {
        let tracer = self.obs.tracer.clone();
        for f in frames.drain(..) {
            if let BatchMessage::Batch(b) = &f.msg {
                for e in b.entries() {
                    if tracer.sampled(e.seq) {
                        tracer.span(
                            e.seq,
                            HopKind::Enqueue,
                            &f.dest.to_string(),
                            self.now,
                            self.now,
                        );
                    }
                }
            }
            self.net_send(router_id, f.dest, f.msg);
        }
    }

    /// Send one frame and account it — the one place `stats.copies` and
    /// `stats.punctuations` move, so what they count is what was sent. With
    /// recovery armed, data frames are logged for crash retransmission.
    fn net_send(&mut self, router: RouterId, dest: JoinerId, msg: BatchMessage) {
        match &msg {
            BatchMessage::Batch(b) => {
                self.stats.copies.add(b.len() as u64);
                if let Some(c) = &mut self.chaos {
                    c.sent_log.entry(dest).or_default().push((router, msg.clone()));
                }
            }
            BatchMessage::Punct(_) => self.stats.punctuations.inc(),
        }
        self.offer(router, dest, msg);
    }

    /// Hand a frame to the net without accounting or logging it (the
    /// recovery replay path — those frames are already in the log). Only
    /// a fault plan makes the net refuse: a frame refused by a partition,
    /// or queued behind earlier refused frames of the same channel (FIFO),
    /// parks in the retry queue.
    fn offer(&mut self, router: RouterId, dest: JoinerId, msg: BatchMessage) {
        if let Some(c) = &mut self.chaos {
            if c.retries.has_pending(router, dest) || !self.net.channel_open(router, dest.0) {
                c.retries.push(router, dest, msg, self.net.step());
                return;
            }
        }
        let accepted = self.net.send(router, dest, msg);
        debug_assert!(accepted, "open channel refused a frame");
    }

    /// Emit punctuations from every router to every unit (active and
    /// draining) at virtual time `now`. Call this on the configured
    /// punctuation interval: data frames release what their covers prove,
    /// but only a punctuation flushes the routers' pending batches and
    /// advances a channel that carries no data.
    pub fn punctuate(&mut self, now: Ts) -> Result<()> {
        self.now = self.now.max(now);
        let mut frames = std::mem::take(&mut self.scratch);
        for i in 0..self.routers.len() {
            frames.clear();
            // Flushes the router's pending batches first: per-channel FIFO
            // then guarantees the punctuation arrives behind every copy it
            // covers.
            self.routers[i].punctuate_batched(&self.layout, &mut frames);
            let p = Punctuation { router: self.routers[i].id(), seq: self.routers[i].last_seq() };
            self.send_frames(p.router, &mut frames);
            let drain_ids: Vec<JoinerId> = self.draining.iter().map(|d| d.1).collect();
            for id in drain_ids {
                self.net_send(p.router, id, BatchMessage::Punct(p));
            }
        }
        self.scratch = frames;
        if self.auto_pump {
            self.pump()?;
        }
        Ok(())
    }

    /// Deliver every in-flight frame to its joiner, collecting results.
    ///
    /// With fault injection armed this is also where the plan executes:
    /// due crash events run the crash/recover drill, parked retries whose
    /// backoff expired are re-attempted, and when nothing is deliverable
    /// but retries remain, the schedule fast-forwards to their due step.
    pub fn pump(&mut self) -> Result<()> {
        let now = self.now;
        loop {
            if self.chaos.is_some() {
                for unit in self.net.take_due_crashes() {
                    self.crash_unit(JoinerId(unit))?;
                }
                if let Some(c) = self.chaos.as_mut() {
                    c.drain_retries(&mut self.net);
                }
            }
            let Some(flight) = self.net.deliver_next() else {
                // Nothing deliverable. Refused frames may be parked on
                // backoff: fast-forward the schedule to their due step and
                // try again. (Crash events get no such jump — they fire
                // only when deliveries naturally reach their step, else
                // every crash would fire on the first pump.)
                match self.chaos.as_ref().and_then(|c| c.retries.earliest_due()) {
                    Some(step) => {
                        self.net.advance_to(step);
                        continue;
                    }
                    None => break,
                }
            };
            let Some(joiner) = self.joiners.get_mut(&flight.dest) else {
                // Unit retired between send and delivery; the frame is
                // moot (its state is gone because it fully expired). Close
                // every carried tuple's trace branch so traces complete.
                if let BatchMessage::Batch(b) = &flight.msg {
                    for e in b.entries() {
                        if self.obs.tracer.sampled(e.seq) {
                            self.obs.tracer.end_branch(e.seq);
                        }
                    }
                }
                continue;
            };
            joiner.set_now(now);
            if let BatchMessage::Batch(b) = &flight.msg {
                for e in b.entries() {
                    if self.obs.tracer.sampled(e.seq) {
                        self.obs.tracer.span(
                            e.seq,
                            HopKind::Dequeue,
                            &flight.dest.to_string(),
                            now,
                            now,
                        );
                    }
                }
            }
            let mut emit = emitter(
                &self.stats,
                self.auditor.as_ref(),
                &mut self.chaos,
                &mut self.capture,
                joiner,
                now,
            );
            joiner.handle_batch(flight.msg, &mut emit)?;
        }
        self.retire_drained();
        Ok(())
    }

    /// Run `op` on every joiner at the engine's clock, with the engine's
    /// result emitter to emit into.
    fn each_joiner(
        &mut self,
        mut op: impl FnMut(&mut JoinerCore, &mut dyn FnMut(JoinResult)) -> Result<()>,
    ) -> Result<()> {
        let now = self.now;
        for joiner in self.joiners.values_mut() {
            joiner.set_now(now);
            let mut emit = emitter(
                &self.stats,
                self.auditor.as_ref(),
                &mut self.chaos,
                &mut self.capture,
                joiner,
                now,
            );
            op(joiner, &mut emit)?;
        }
        Ok(())
    }

    /// Flush every router's pending batches into the network.
    fn flush_routers(&mut self) {
        let mut frames = std::mem::take(&mut self.scratch);
        for i in 0..self.routers.len() {
            frames.clear();
            let id = self.routers[i].id();
            self.routers[i].flush_batches(&mut frames);
            self.send_frames(id, &mut frames);
        }
        self.scratch = frames;
    }

    /// Terminal flush: deliver everything in flight, then drain every
    /// reorder buffer in global order. Call once at the end of a run so
    /// the final punctuation gap does not strand buffered tuples.
    pub fn flush(&mut self) -> Result<()> {
        // Push out any copies still sitting in router batches, then drain
        // the network before flushing the reorder buffers.
        self.flush_routers();
        self.pump()?;
        self.each_joiner(|joiner, emit| joiner.flush(&mut |r| emit(r)))
    }

    /// Resize `side` to `n` active joiners at virtual time `now`. Returns
    /// the ids added and retired. No stored tuple is moved.
    pub fn scale_to(
        &mut self,
        side: Rel,
        n: usize,
        now: Ts,
    ) -> Result<(Vec<JoinerId>, Vec<JoinerId>)> {
        self.now = self.now.max(now);
        let from = self.layout.units(side).len();
        if n == from {
            return Ok((Vec::new(), Vec::new()));
        }
        self.obs
            .journal
            .record(self.now, EventKind::ScaleDecision { side, from: from as u32, to: n as u32 });
        // Content-sensitive routing needs the old mapping kept alive for
        // one window; random routing covers old units via the draining
        // list alone.
        if !matches!(self.config.routing, RoutingStrategy::Random) {
            let expires = match self.config.window.size() {
                Some(w) => self.now.saturating_add(w),
                None => Ts::MAX,
            };
            self.historical.push((self.layout.clone(), expires));
        }
        let (added, removed) = self.layout.resize(side, n)?;
        let frontiers: Vec<(RouterId, SeqNo)> =
            self.routers.iter().map(|r| (r.id(), r.last_seq())).collect();
        for &id in &added {
            self.joiners.insert(id, self.make_joiner(id, side, &frontiers));
        }
        for &id in &removed {
            let expires = match self.config.window.size() {
                Some(w) => self.now.saturating_add(w),
                None => Ts::MAX,
            };
            self.draining.push((side, id, expires));
        }
        self.purge_historical();
        Ok((added, removed))
    }

    /// Adapt the ContRand subgroup count to `d` at virtual time `now` —
    /// the paper's subgroup adjustment. Like unit scaling, this is a pure
    /// layout change: the previous subgroup mapping is kept alive as a
    /// historical layout for one window so tuples stored under it keep
    /// receiving probes.
    pub fn set_subgroups(&mut self, d: usize, now: Ts) -> Result<()> {
        self.now = self.now.max(now);
        if !matches!(self.config.routing, RoutingStrategy::ContRand { .. }) {
            return Err(Error::Config(
                "subgroup adjustment only applies to ContRand routing".into(),
            ));
        }
        let expires = match self.config.window.size() {
            Some(w) => self.now.saturating_add(w),
            None => Ts::MAX,
        };
        self.historical.push((self.layout.clone(), expires));
        self.layout.set_subgroups(d)?;
        self.config.routing = RoutingStrategy::ContRand { subgroups: d };
        for r in &mut self.routers {
            r.set_strategy(self.config.routing);
        }
        self.purge_historical();
        Ok(())
    }

    /// Add a router instance (router-tier scale-out); returns its id.
    ///
    /// The new router shares the engine's global sequence counter, so its
    /// punctuations immediately report the true clock; every joiner
    /// (active and draining) registers it at the current counter.
    ///
    /// Under [`RoutingStrategy::Adaptive`] the switch protocol's ack set
    /// is fixed at build time, so only a router id that was declared then
    /// (i.e. re-adding after [`remove_router`](Self::remove_router)) gets
    /// an adaptive handle; a genuinely new id would route with a clear
    /// configuration error instead of silently weakening the fence.
    pub fn add_router(&mut self) -> RouterId {
        let id = self.routers.len() as RouterId;
        let router = self.make_router(id, self.routers[0].seq_counter());
        let frontier = router.last_seq();
        for joiner in self.joiners.values_mut() {
            joiner.register_router(id, frontier);
        }
        self.routers.push(router);
        id
    }

    /// Retire the most recently added router (router-tier scale-in).
    ///
    /// The router emits a final punctuation (delivered before
    /// deregistration so everything it ever sent is releasable), then all
    /// joiners drop its frontier.
    ///
    /// # Errors
    /// [`Error::Scaling`] when only one router remains.
    pub fn remove_router(&mut self) -> Result<()> {
        let Some(mut router) = (self.routers.len() > 1).then(|| self.routers.pop()).flatten()
        else {
            return Err(Error::Scaling("engine needs at least one router".into()));
        };
        let id = router.id();
        // The retiring router may hold unflushed batches; they must go
        // out ahead of its final punctuation.
        let mut frames = Vec::new();
        router.flush_batches(&mut frames);
        self.send_frames(id, &mut frames);
        let p = Punctuation { router: id, seq: router.last_seq() };
        let dests: Vec<JoinerId> = self
            .layout
            .all_units()
            .map(|(_, dest)| dest)
            .chain(self.draining.iter().map(|d| d.1))
            .collect();
        for dest in dests {
            self.net_send(id, dest, BatchMessage::Punct(p));
        }
        self.pump()?;
        self.each_joiner(|joiner, emit| joiner.deregister_router(id, &mut |r| emit(r)))?;
        // The retired router's series would otherwise read as a frozen
        // counter forever; drop them from the scrape.
        self.obs.registry.unregister_labeled("router", &format!("r{id}"));
        // Round-robin cursor may now point past the end; realign.
        self.rr_next %= self.routers.len();
        Ok(())
    }

    /// Number of router instances.
    pub fn routers(&self) -> usize {
        self.routers.len()
    }

    /// Per-joiner stored-tuple counts for `side` (load-balance metrics).
    pub fn stored_per_joiner(&self, side: Rel) -> Vec<u64> {
        self.layout.units(side).iter().map(|id| self.joiners[id].stats().stored).collect()
    }

    /// Total live bytes of window state on `side`'s active units.
    pub fn memory_bytes(&self, side: Rel) -> u64 {
        self.layout.units(side).iter().map(|id| self.joiners[id].index_stats().bytes as u64).sum()
    }

    /// Snapshot one unit's stored window state for recovery (quiesce
    /// first: punctuate + pump so its reorder buffer is empty).
    pub fn snapshot_unit(&self, id: JoinerId) -> Result<bytes::Bytes> {
        self.joiners
            .get(&id)
            .map(|j| j.snapshot_state())
            .ok_or_else(|| Error::Scaling(format!("no such unit {id}")))
    }

    /// Replace a unit's in-memory state from a snapshot — the recovery
    /// path after a unit restart. The unit keeps its identity, queue and
    /// router registrations; only its window state is rebuilt.
    pub fn restore_unit(&mut self, id: JoinerId, blob: impl bytes::Buf) -> Result<usize> {
        // Rebuild the unit from scratch (the "restarted pod"), register
        // the live routers at their current frontiers, then load state.
        let Some(side) = self.layout.all_units().find(|&(_, u)| u == id).map(|(side, _)| side)
        else {
            return Err(Error::Scaling(format!("no such active unit {id}")));
        };
        let frontiers: Vec<(RouterId, SeqNo)> =
            self.routers.iter().map(|r| (r.id(), r.last_seq())).collect();
        let mut fresh = self.make_joiner(id, side, &frontiers);
        let n = fresh.restore_state(blob)?;
        self.joiners.insert(id, fresh);
        Ok(n)
    }

    /// Checkpoint one unit for the chaos crash/recover drill: snapshot
    /// its stored window state together with its reorder watermark `W`,
    /// and trim its retransmission log to the frames the checkpoint does
    /// not cover.
    ///
    /// `W` is the recovery frontier — everything the unit *released* has
    /// `seq ≤ W` and lives in the snapshot (stores) or was already
    /// emitted (probes); everything buffered has `seq > W` and stays in
    /// the log for replay. Crucially the restored unit registers *every*
    /// router at `W` (not per-router frontiers): replayed frames with
    /// `seq ≤ W` are then duplicate-dropped, frames above it re-buffer,
    /// and no frame is lost to an overstated frontier.
    ///
    /// # Errors
    /// [`Error::Fault`] without an armed chaos layer or for an unknown
    /// unit.
    pub fn checkpoint_unit(&mut self, id: JoinerId) -> Result<()> {
        if self.chaos.is_none() {
            return Err(Error::Fault("checkpoints need a chaos-armed engine".into()));
        }
        let Some(joiner) = self.joiners.get(&id) else {
            return Err(Error::Fault(format!("no such unit {id}")));
        };
        let watermark = joiner.reorder_watermark().unwrap_or(0);
        let blob = joiner.snapshot_state();
        if let Some(c) = self.chaos.as_mut() {
            c.checkpoints.insert(id, (blob, watermark));
            if let Some(log) = c.sent_log.get_mut(&id) {
                log.retain(|(_, msg)| match msg {
                    BatchMessage::Batch(b) => b.last_seq().is_some_and(|s| s > watermark),
                    BatchMessage::Punct(_) => false,
                });
            }
        }
        Ok(())
    }

    /// [`checkpoint_unit`](Self::checkpoint_unit) for every active unit.
    pub fn checkpoint_all(&mut self) -> Result<()> {
        let ids: Vec<JoinerId> = self.layout.all_units().map(|(_, id)| id).collect();
        for id in ids {
            self.checkpoint_unit(id)?;
        }
        Ok(())
    }

    /// The crash/recover drill: kill a unit (its in-memory sub-indexes
    /// and all in-flight traffic to it are lost) and bring up a fresh
    /// incarnation. Returns the number of tuples re-hydrated from the
    /// last checkpoint.
    ///
    /// Recovery runs in an order the ordering protocol can digest:
    ///
    /// 1. the unit's channels, parked retries and auditor incarnation
    ///    state are dropped;
    /// 2. a fresh joiner registers every router at the checkpoint
    ///    watermark `W` and re-hydrates the snapshot (unless the seeded
    ///    `skip_rehydrate` bug is armed — the chaos explorer's target);
    /// 3. the retransmission log replays, in original per-channel order
    ///    (frames `≤ W` are duplicate-dropped; replayed probes re-derive
    ///    results the emitted-identity set suppresses);
    /// 4. every router flushes its pending batches — *before* any new
    ///    punctuation, since those batches hold sequence numbers the
    ///    punctuation would otherwise claim to cover;
    /// 5. each router sends the restored unit a fresh punctuation at its
    ///    current sequence, re-arming the watermark.
    ///
    /// # Errors
    /// [`Error::Fault`] without an armed chaos layer or for an unknown
    /// unit; snapshot decode errors propagate as [`Error::Codec`].
    pub fn crash_unit(&mut self, id: JoinerId) -> Result<usize> {
        if self.chaos.is_none() {
            return Err(Error::Fault(
                "crash drills need a chaos-armed engine (EngineBuilder::chaos)".into(),
            ));
        }
        let Some(side) = self.layout.all_units().find(|&(_, u)| u == id).map(|(side, _)| side)
        else {
            return Err(Error::Fault(format!("no such active unit {id}")));
        };
        self.net.forget_unit(id);
        if let Some(c) = self.chaos.as_mut() {
            c.retries.forget_unit(id);
            c.crashes_fired += 1;
        }
        if let Some(a) = &self.auditor {
            a.unit_restarted(&format!("{side}{}", id.0));
        }
        let (snapshot, watermark) = self
            .chaos
            .as_ref()
            .and_then(|c| c.checkpoints.get(&id))
            .map(|(blob, w)| (Some(blob.clone()), *w))
            .unwrap_or((None, 0));
        let frontiers: Vec<(RouterId, SeqNo)> =
            self.routers.iter().map(|r| (r.id(), watermark)).collect();
        let mut fresh = self.make_joiner(id, side, &frontiers);
        let mut restored = 0;
        let skip = self.chaos.as_ref().map(|c| c.skip_rehydrate).unwrap_or(false);
        if let Some(blob) = snapshot {
            if !skip {
                restored = fresh.restore_state(blob)?;
            }
        }
        self.joiners.insert(id, fresh);
        let log = self.chaos.as_ref().and_then(|c| c.sent_log.get(&id)).cloned();
        for (router, msg) in log.unwrap_or_default() {
            self.offer(router, id, msg);
        }
        self.flush_routers();
        for i in 0..self.routers.len() {
            let p = Punctuation { router: self.routers[i].id(), seq: self.routers[i].last_seq() };
            self.net_send(p.router, id, BatchMessage::Punct(p));
        }
        Ok(restored)
    }

    /// Crash drills fired so far (0 without an armed chaos layer).
    pub fn crashes_fired(&self) -> u32 {
        self.chaos.as_ref().map(|c| c.crashes_fired).unwrap_or(0)
    }

    /// The chaos schedule's current step, if fault injection is armed.
    pub fn chaos_step(&self) -> Option<u64> {
        self.chaos.as_ref().map(|_| self.net.step())
    }

    /// Test-only seeded bug: restart crashed units *without* re-hydrating
    /// their checkpoint snapshot. Stored tuples below the checkpoint
    /// watermark silently vanish — exactly the class of recovery bug the
    /// chaos explorer exists to catch via the output oracle.
    #[doc(hidden)]
    pub fn debug_skip_rehydrate(&mut self, on: bool) {
        if let Some(c) = self.chaos.as_mut() {
            c.skip_rehydrate = on;
        }
    }

    /// Highest reorder-buffer depth ever observed on any active joiner —
    /// the buffering cost of the ordering protocol (grows with the
    /// punctuation interval and with router imbalance).
    pub fn max_reorder_depth(&self) -> usize {
        self.layout
            .all_units()
            .filter_map(|(_, id)| self.joiners[&id].reorder_stats())
            .map(|s| s.max_depth)
            .max()
            .unwrap_or(0)
    }

    /// Aggregated joiner counters over both sides (active units).
    pub fn joiner_totals(&self) -> JoinerStats {
        let mut total = JoinerStats::default();
        for (_, id) in self.layout.all_units() {
            let s = self.joiners[&id].stats();
            total.stored += s.stored;
            total.probes += s.probes;
            total.candidates += s.candidates;
            total.results += s.results;
            total.expired += s.expired;
        }
        total
    }

    /// Resource meters of `side`'s active units, keyed by stable unit id —
    /// what `sim::run_dynamic_scaling` feeds the utilization tracker.
    pub fn pod_meters(&self, side: Rel) -> Vec<(usize, Arc<ResourceMeter>)> {
        self.layout.units(side).iter().map(|id| (id.0 as usize, self.joiners[id].meter())).collect()
    }

    /// Number of active joiners on `side`.
    pub fn replicas(&self, side: Rel) -> usize {
        self.layout.units(side).len()
    }

    fn make_joiner(&self, id: JoinerId, side: Rel, frontiers: &[(RouterId, SeqNo)]) -> JoinerCore {
        JoinerCore::for_engine(
            id,
            side,
            &self.config,
            self.cost,
            frontiers,
            &self.obs,
            self.auditor.as_ref(),
        )
    }

    fn make_router(&self, id: RouterId, seq: Arc<AtomicU64>) -> RouterCore {
        RouterCore::for_engine(
            id,
            &self.config,
            seq,
            &self.obs,
            self.auditor.as_ref(),
            self.adaptive.as_ref(),
        )
    }

    /// Test-only fault injection: force-raise `router`'s frontier to `seq`
    /// in every active joiner's reorder buffer, bypassing the monotonic
    /// punctuation and cover path — simulating a broken watermark
    /// computation. With an auditor attached, any release this provokes
    /// ahead of what the channel has really proven is reported as a
    /// Definition 7 violation.
    #[doc(hidden)]
    pub fn debug_corrupt_frontier(&mut self, router: RouterId, seq: SeqNo) -> Result<()> {
        self.each_joiner(|joiner, emit| {
            joiner.debug_corrupt_frontier(router, seq, &mut |r| emit(r))
        })
    }

    /// Test-only fault injection: freeze every active joiner's reorder
    /// frontier (see [`JoinerCore::debug_freeze_frontier`]). While frozen,
    /// neither punctuations nor covers advance watermarks, so buffered
    /// tuples pile up behind a flatlined frontier — the seeded stall the
    /// progress watchdog must detect within its tick bound.
    #[doc(hidden)]
    pub fn debug_freeze_frontier(&mut self, on: bool) {
        for joiner in self.joiners.values_mut() {
            joiner.debug_freeze_frontier(on);
        }
    }

    fn purge_historical(&mut self) {
        let now = self.now;
        self.historical.retain(|(_, expires)| *expires > now);
    }

    fn retire_drained(&mut self) {
        let now = self.now;
        let joiners = &mut self.joiners;
        let net = &mut self.net;
        let chaos = &mut self.chaos;
        let registry = &self.obs.registry;
        self.draining.retain(|&(side, id, expires)| {
            let empty = joiners.get(&id).map(|j| j.index_stats().tuples == 0).unwrap_or(true);
            // A draining unit retires once its stored state is gone, or
            // unconditionally once a full window has passed (its residual
            // state can no longer match anything).
            if empty || now >= expires {
                joiners.remove(&id);
                net.forget_unit(id);
                if let Some(c) = chaos.as_mut() {
                    c.forget_unit(id);
                }
                // Drop the unit's series so the scrape reflects the live
                // topology (counters would otherwise freeze in place).
                let unit = format!("{side}{}", id.0);
                registry.unregister_labeled("joiner", &unit);
                registry.unregister_labeled("pod", &unit);
                false
            } else {
                true
            }
        });
    }
}

/// Builder for [`BicliqueEngine`].
pub struct EngineBuilder {
    config: EngineConfig,
    routers: usize,
    delivery: DeliveryMode,
    cost: CostModel,
    auto_pump: bool,
    obs: Option<Observability>,
    auditor: Option<Auditor>,
    chaos: Option<FaultPlan>,
    engine_label: String,
}

impl EngineBuilder {
    /// Use `k` router instances (round-robin ingest).
    pub fn routers(mut self, k: usize) -> Self {
        self.routers = k.max(1);
        self
    }

    /// Share an externally owned observability bundle (registry +
    /// journal) instead of creating a private one — this is how the
    /// simulator and the live pipeline expose broker, cluster and engine
    /// series through a single scrape.
    pub fn observability(mut self, obs: Observability) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The `engine` label value on engine-wide series (default
    /// `"engine"`).
    pub fn engine_label(mut self, label: impl Into<String>) -> Self {
        self.engine_label = label.into();
        self
    }

    /// Attach a specific protocol-invariant auditor. Without this call,
    /// debug builds self-arm via [`Auditor::new_if_debug`] and release
    /// builds run unaudited; pass an explicit auditor to observe the
    /// engine from outside (shared across engines, or armed with the
    /// output oracle in a release-mode harness).
    pub fn auditor(mut self, auditor: Auditor) -> Self {
        self.auditor = Some(auditor);
        self
    }

    /// Delivery schedule (default in-order).
    pub fn delivery(mut self, mode: DeliveryMode) -> Self {
        self.delivery = mode;
        self
    }

    /// Arm plan-driven fault injection: the net executes `plan` (its seed
    /// names the schedule; the configured
    /// [`delivery`](EngineBuilder::delivery) mode is bypassed), sends
    /// refused by a partition retry with capped exponential backoff, and
    /// the plan's crash events trigger
    /// [`BicliqueEngine::crash_unit`] drills.
    ///
    /// Crash replays deduplicate results by identity, so chaos workloads
    /// must use pairwise-distinct tuples (distinct `(ts, values)`), or
    /// genuinely duplicate results would be suppressed.
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// CPU cost model charged to joiner meters.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Disable automatic pumping after each ingest/punctuate.
    pub fn manual_pump(mut self) -> Self {
        self.auto_pump = false;
        self
    }

    /// Construct the engine.
    pub fn build(self) -> Result<BicliqueEngine> {
        self.config.validate()?;
        let layout = Layout::for_engine(&self.config)?;
        let obs = self.obs.unwrap_or_default();
        let auditor = self.auditor.or_else(Auditor::new_if_debug);
        if let Some(a) = &auditor {
            a.attach_journal(obs.journal.clone());
        }
        let stats = EngineStats::shared();
        stats.register_into(&obs.registry, &[("engine", &self.engine_label)]);
        let (net, chaos) = match self.chaos {
            Some(plan) => (ChannelNet::with_plan(plan), Some(ChaosState::new())),
            None => (ChannelNet::new(self.delivery), None),
        };
        let mut engine = BicliqueEngine {
            cost: self.cost,
            layout: layout.clone(),
            routers: Vec::new(),
            rr_next: 0,
            joiners: FxHashMap::default(),
            draining: Vec::new(),
            historical: Vec::new(),
            net,
            chaos,
            stats,
            obs,
            adaptive: AdaptiveShared::for_engine(&self.config, self.routers),
            auditor,
            capture: None,
            auto_pump: self.auto_pump,
            now: 0,
            scratch: Vec::new(),
            config: self.config,
        };
        // One shared sequence counter across all routers (see RouterCore).
        let seq = Arc::new(AtomicU64::new(0));
        for id in 0..self.routers as RouterId {
            let router = engine.make_router(id, Arc::clone(&seq));
            engine.routers.push(router);
        }
        let frontiers: Vec<(RouterId, SeqNo)> =
            engine.routers.iter().map(|r| (r.id(), 0)).collect();
        for (side, id) in layout.all_units() {
            let joiner = engine.make_joiner(id, side, &frontiers);
            engine.joiners.insert(id, joiner);
        }
        Ok(engine)
    }
}

impl std::fmt::Debug for BicliqueEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BicliqueEngine")
            .field("layout", &self.layout)
            .field("routers", &self.routers.len())
            .field("draining", &self.draining.len())
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistream_types::predicate::JoinPredicate;
    use bistream_types::value::Value;
    use bistream_types::window::WindowSpec;

    fn t(rel: Rel, ts: Ts, k: i64) -> Tuple {
        Tuple::new(rel, ts, vec![Value::Int(k)])
    }

    fn cfg(routing: RoutingStrategy) -> EngineConfig {
        EngineConfig {
            r_joiners: 2,
            s_joiners: 2,
            predicate: JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
            window: WindowSpec::sliding(1_000),
            routing,
            archive_period_ms: 100,
            punctuation_interval_ms: 20,
            ordering: true,
            seed: 1,
            batch_size: 1,
            adaptive: Default::default(),
        }
    }

    /// Feed matched pairs and check exactly-once results.
    fn run_pairs(mut engine: BicliqueEngine, pairs: usize) -> Vec<JoinResult> {
        engine.capture_results();
        let mut now = 0;
        for i in 0..pairs {
            now = (i as Ts) * 10;
            engine.ingest(&t(Rel::R, now, i as i64), now).unwrap();
            engine.ingest(&t(Rel::S, now + 1, i as i64), now + 1).unwrap();
            engine.punctuate(now + 2).unwrap();
        }
        engine.punctuate(now + 10).unwrap();
        engine.take_captured()
    }

    #[test]
    fn equi_join_exactly_once_under_all_strategies() {
        for routing in [
            RoutingStrategy::Random,
            RoutingStrategy::Hash,
            RoutingStrategy::ContRand { subgroups: 2 },
        ] {
            let engine = BicliqueEngine::new(cfg(routing)).unwrap();
            let results = run_pairs(engine, 20);
            assert_eq!(results.len(), 20, "{routing:?}: one result per matched pair");
            // Each pair's key matches.
            for r in &results {
                assert_eq!(r.r.get(0), r.s.get(0));
            }
        }
    }

    #[test]
    fn no_matches_across_different_keys() {
        let mut engine = BicliqueEngine::new(cfg(RoutingStrategy::Hash)).unwrap();
        engine.capture_results();
        engine.ingest(&t(Rel::R, 0, 1), 0).unwrap();
        engine.ingest(&t(Rel::S, 1, 2), 1).unwrap();
        engine.punctuate(5).unwrap();
        assert!(engine.take_captured().is_empty());
    }

    #[test]
    fn window_bounds_matches() {
        let mut engine = BicliqueEngine::new(cfg(RoutingStrategy::Hash)).unwrap();
        engine.capture_results();
        engine.ingest(&t(Rel::R, 0, 7), 0).unwrap();
        engine.ingest(&t(Rel::S, 2_000, 7), 2_000).unwrap();
        engine.punctuate(2_100).unwrap();
        assert!(engine.take_captured().is_empty(), "2s apart, 1s window");
    }

    #[test]
    fn results_are_exact_against_reference_join() {
        // Random keys with repetition; compare against a brute-force join.
        let mut engine = BicliqueEngine::builder(cfg(RoutingStrategy::ContRand { subgroups: 2 }))
            .routers(2)
            .build()
            .unwrap();
        engine.capture_results();
        let mut tuples = Vec::new();
        let mut now = 0;
        for i in 0..200i64 {
            now = i as Ts * 7;
            let rel = if i % 2 == 0 { Rel::R } else { Rel::S };
            let tup = t(rel, now, i % 13);
            engine.ingest(&tup, now).unwrap();
            tuples.push(tup);
            if i % 5 == 0 {
                engine.punctuate(now).unwrap();
            }
        }
        engine.punctuate(now + 100).unwrap();
        let mut got: Vec<_> = engine.take_captured().iter().map(|r| r.identity()).collect();
        got.sort();
        let mut expect = Vec::new();
        for a in tuples.iter().filter(|x| x.rel() == Rel::R) {
            for b in tuples.iter().filter(|x| x.rel() == Rel::S) {
                if a.get(0) == b.get(0) && a.ts().abs_diff(b.ts()) <= 1_000 {
                    expect.push(JoinResult::of(a.clone(), b.clone()).identity());
                }
            }
        }
        expect.sort();
        assert_eq!(got.len(), expect.len(), "exactly-once, no dup/miss");
        assert_eq!(got, expect);
    }

    #[test]
    fn scale_out_mid_stream_loses_nothing() {
        let mut engine = BicliqueEngine::new(cfg(RoutingStrategy::Hash)).unwrap();
        engine.capture_results();
        let mut expected = 0usize;
        let mut now = 0;
        for i in 0..30i64 {
            now = i as Ts * 10;
            engine.ingest(&t(Rel::R, now, i), now).unwrap();
            if i == 15 {
                let (added, removed) = engine.scale_to(Rel::R, 4, now).unwrap();
                assert_eq!(added.len(), 2);
                assert!(removed.is_empty());
            }
        }
        // Probe every key; all 30 stored R tuples are within the window of
        // their matching S tuple.
        for i in 0..30i64 {
            let ts = now + 1 + i as Ts;
            engine.ingest(&t(Rel::S, ts, i), ts).unwrap();
            expected += 1;
        }
        engine.punctuate(now + 100).unwrap();
        let got = engine.take_captured();
        assert_eq!(got.len(), expected, "pre-scale state still probed (historical layout)");
    }

    #[test]
    fn scale_in_drains_without_losing_results() {
        let mut engine = BicliqueEngine::new(cfg(RoutingStrategy::Random)).unwrap();
        engine.capture_results();
        // Store 20 R tuples across 2 units.
        for i in 0..20i64 {
            engine.ingest(&t(Rel::R, i as Ts, i), i as Ts).unwrap();
        }
        engine.punctuate(25).unwrap();
        // Retire one R unit: it must drain, not vanish.
        let (_, removed) = engine.scale_to(Rel::R, 1, 30).unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(engine.draining_units(), 1);
        // All 20 keys must still match.
        for i in 0..20i64 {
            let ts = 40 + i as Ts;
            engine.ingest(&t(Rel::S, ts, i), ts).unwrap();
        }
        engine.punctuate(100).unwrap();
        assert_eq!(engine.take_captured().len(), 20);
        // After a full window passes, the drained unit retires.
        engine.ingest(&t(Rel::S, 5_000, 999), 5_000).unwrap();
        engine.punctuate(5_001).unwrap();
        assert_eq!(engine.draining_units(), 0, "drained unit retired");
    }

    #[test]
    fn communication_cost_matches_analytics() {
        // Random: 1 store + m join copies per tuple.
        let mut c = cfg(RoutingStrategy::Random);
        c.r_joiners = 4;
        c.s_joiners = 4;
        let engine = BicliqueEngine::new(c).unwrap();
        let results = run_pairs(engine, 10);
        assert_eq!(results.len(), 10);
        // Hash: exactly 2 copies per tuple.
        let mut c = cfg(RoutingStrategy::Hash);
        c.r_joiners = 4;
        c.s_joiners = 4;
        let mut engine = BicliqueEngine::new(c).unwrap();
        for i in 0..10 {
            engine.ingest(&t(Rel::R, i, i as i64), i).unwrap();
        }
        assert_eq!(engine.stats().copies_per_tuple(), 2.0);
    }

    #[test]
    fn load_balance_metrics_exposed() {
        let mut engine = BicliqueEngine::new(cfg(RoutingStrategy::Random)).unwrap();
        for i in 0..100 {
            engine.ingest(&t(Rel::R, i, i as i64), i).unwrap();
        }
        engine.punctuate(200).unwrap();
        let stored = engine.stored_per_joiner(Rel::R);
        assert_eq!(stored.len(), 2);
        assert_eq!(stored.iter().sum::<u64>(), 100);
        assert!(stored.iter().all(|&c| c > 20), "random spreads: {stored:?}");
        assert!(engine.memory_bytes(Rel::R) > 0);
        assert_eq!(engine.memory_bytes(Rel::S), 0);
    }

    #[test]
    fn multiple_routers_preserve_exactly_once() {
        let engine =
            BicliqueEngine::builder(cfg(RoutingStrategy::Random)).routers(3).build().unwrap();
        let results = run_pairs(engine, 30);
        assert_eq!(results.len(), 30);
    }

    #[test]
    fn router_tier_scales_out_and_in_without_corrupting_results() {
        let mut engine = BicliqueEngine::new(cfg(RoutingStrategy::Random)).unwrap();
        engine.capture_results();
        let mut now = 0;
        for i in 0..10i64 {
            now = i as Ts * 10;
            engine.ingest(&t(Rel::R, now, i), now).unwrap();
            engine.ingest(&t(Rel::S, now, i), now).unwrap();
        }
        // Scale the router tier out mid-stream…
        let new_router = engine.add_router();
        assert_eq!(engine.routers(), 2);
        assert_eq!(new_router, 1);
        for i in 10..20i64 {
            now = i as Ts * 10;
            engine.ingest(&t(Rel::R, now, i), now).unwrap();
            engine.ingest(&t(Rel::S, now, i), now).unwrap();
        }
        engine.punctuate(now + 1).unwrap();
        // …and back in.
        engine.remove_router().unwrap();
        assert_eq!(engine.routers(), 1);
        for i in 20..30i64 {
            now = i as Ts * 10;
            engine.ingest(&t(Rel::R, now, i), now).unwrap();
            engine.ingest(&t(Rel::S, now, i), now).unwrap();
        }
        engine.punctuate(now + 1).unwrap();
        engine.flush().unwrap();
        assert_eq!(engine.take_captured().len(), 30, "one result per pair throughout");
        assert!(engine.remove_router().is_err(), "last router cannot retire");
    }

    #[test]
    fn removing_a_router_unblocks_the_watermark() {
        // Two routers; only router 0 keeps punctuating after router 1
        // retires. Without deregistration the watermark would stall.
        let mut engine =
            BicliqueEngine::builder(cfg(RoutingStrategy::Random)).routers(2).build().unwrap();
        engine.capture_results();
        for i in 0..10i64 {
            engine.ingest(&t(Rel::R, i as Ts, i), i as Ts).unwrap();
            engine.ingest(&t(Rel::S, i as Ts, i), i as Ts).unwrap();
        }
        engine.remove_router().unwrap();
        // Only the surviving router punctuates from here on.
        engine.punctuate(100).unwrap();
        assert_eq!(engine.take_captured().len(), 10);
    }

    #[test]
    fn subgroup_adjustment_keeps_matching_across_the_transition() {
        let mut c = cfg(RoutingStrategy::ContRand { subgroups: 1 });
        c.r_joiners = 4;
        c.s_joiners = 4;
        let mut engine = BicliqueEngine::new(c).unwrap();
        engine.capture_results();
        // Store 20 R tuples under d=1.
        for i in 0..20i64 {
            engine.ingest(&t(Rel::R, i as Ts, i), i as Ts).unwrap();
        }
        engine.set_subgroups(4, 25).unwrap();
        // Probe all keys under d=4: historical-layout routing must still
        // reach the tuples stored under d=1's placement.
        for i in 0..20i64 {
            let ts = 30 + i as Ts;
            engine.ingest(&t(Rel::S, ts, i), ts).unwrap();
        }
        engine.punctuate(100).unwrap();
        engine.flush().unwrap();
        assert_eq!(engine.take_captured().len(), 20);
        assert_eq!(engine.layout().subgroups(), 4);
    }

    #[test]
    fn subgroup_adjustment_rejected_for_non_contrand() {
        let mut engine = BicliqueEngine::new(cfg(RoutingStrategy::Hash)).unwrap();
        assert!(engine.set_subgroups(2, 0).is_err());
    }

    #[test]
    fn unified_scrape_covers_engine_router_joiner_and_pod_series() {
        let mut engine = BicliqueEngine::builder(cfg(RoutingStrategy::Hash))
            .engine_label("sim")
            .build()
            .unwrap();
        engine.capture_results();
        engine.ingest(&t(Rel::R, 10, 1), 10).unwrap();
        engine.ingest(&t(Rel::S, 20, 1), 20).unwrap();
        engine.punctuate(25).unwrap();
        engine.scale_to(Rel::R, 3, 30).unwrap();

        let snap = engine.observability().registry.scrape(30);
        assert_eq!(snap.counter("bistream_tuples_ingested_total", &[("engine", "sim")]), Some(2));
        let decisions = snap.counter(
            "bistream_router_route_decisions_total",
            &[("router", "r0"), ("strategy", "hash")],
        );
        assert_eq!(decisions, Some(2));
        // Both R units register joiner + pod series; the stored tuple
        // lands on exactly one of them.
        let stored: u64 = ["R0", "R1"]
            .iter()
            .map(|u| snap.counter("bistream_joiner_stored_total", &[("joiner", u)]).unwrap())
            .sum();
        assert_eq!(stored, 1);
        assert!(snap.get("bistream_pod_cpu_busy_us_total", &[("pod", "R0")]).is_some());
        assert!(snap.get("bistream_index_live_tuples", &[("joiner", "S0")]).is_none());
        assert!(snap.get("bistream_index_live_tuples", &[("joiner", "S2")]).is_some());

        let events = engine.observability().journal.drain();
        let scale = events
            .iter()
            .find(|e| e.kind.tag() == "ScaleDecision")
            .expect("scale decision journaled");
        assert_eq!(scale.ts, 30);
        assert!(matches!(scale.kind, EventKind::ScaleDecision { side: Rel::R, from: 2, to: 3 }));
        assert!(events.iter().any(|e| e.kind.tag() == "TupleStored"));
        assert!(events.iter().any(|e| e.kind.tag() == "JoinEmitted"));
    }

    fn chaos_engine(plan: bistream_types::fault::FaultPlan) -> BicliqueEngine {
        let auditor = Auditor::new();
        auditor.enable_oracle(WindowSpec::sliding(1_000).size());
        let mut engine = BicliqueEngine::builder(cfg(RoutingStrategy::Hash))
            .auditor(auditor)
            .chaos(plan)
            .build()
            .unwrap();
        engine.capture_results();
        engine
    }

    #[test]
    fn crash_recover_drill_preserves_exactly_once() {
        let mut engine = chaos_engine(bistream_types::fault::FaultPlan::none());
        // Store 30 distinct R tuples; checkpoint after the first 20.
        for i in 0..30i64 {
            let now = i as Ts * 10;
            engine.ingest(&t(Rel::R, now, i), now).unwrap();
            if i % 4 == 3 {
                engine.punctuate(now + 1).unwrap();
            }
            if i == 19 {
                engine.punctuate(now + 1).unwrap();
                engine.checkpoint_all().unwrap();
            }
        }
        // Crash every R unit: snapshot re-hydration covers the first 20,
        // log replay the last 10.
        for id in engine.layout().units(Rel::R).to_vec() {
            engine.crash_unit(id).unwrap();
        }
        engine.pump().unwrap();
        // Probe every key.
        for i in 0..30i64 {
            let ts = 400 + i as Ts;
            engine.ingest(&t(Rel::S, ts, i), ts).unwrap();
        }
        engine.punctuate(500).unwrap();
        engine.flush().unwrap();
        assert_eq!(engine.take_captured().len(), 30, "no loss, no duplicates across the crash");
        assert_eq!(engine.crashes_fired(), 2);
        engine.auditor().unwrap().assert_clean();
    }

    #[test]
    fn crash_without_checkpoint_recovers_from_log_replay_alone() {
        let mut engine = chaos_engine(bistream_types::fault::FaultPlan::none());
        for i in 0..12i64 {
            engine.ingest(&t(Rel::R, i as Ts * 10, i), i as Ts * 10).unwrap();
        }
        engine.punctuate(125).unwrap();
        let unit = engine.layout().units(Rel::R)[0];
        assert_eq!(engine.crash_unit(unit).unwrap(), 0, "nothing checkpointed to re-hydrate");
        engine.pump().unwrap();
        for i in 0..12i64 {
            let ts = 200 + i as Ts;
            engine.ingest(&t(Rel::S, ts, i), ts).unwrap();
        }
        engine.punctuate(300).unwrap();
        engine.flush().unwrap();
        assert_eq!(engine.take_captured().len(), 12);
        engine.auditor().unwrap().assert_clean();
    }

    #[test]
    fn skip_rehydrate_bug_loses_checkpointed_state_and_the_oracle_sees_it() {
        let mut engine = chaos_engine(bistream_types::fault::FaultPlan::none());
        engine.debug_skip_rehydrate(true);
        for i in 0..20i64 {
            engine.ingest(&t(Rel::R, i as Ts * 10, i), i as Ts * 10).unwrap();
        }
        engine.punctuate(195).unwrap();
        engine.checkpoint_all().unwrap();
        for id in engine.layout().units(Rel::R).to_vec() {
            engine.crash_unit(id).unwrap();
        }
        engine.pump().unwrap();
        for i in 0..20i64 {
            let ts = 300 + i as Ts;
            engine.ingest(&t(Rel::S, ts, i), ts).unwrap();
        }
        engine.punctuate(400).unwrap();
        engine.flush().unwrap();
        assert!(
            engine.take_captured().len() < 20,
            "skipping re-hydration must lose checkpointed stores"
        );
        let violations = engine.auditor().unwrap().finish();
        assert!(
            violations.iter().any(|v| v.to_string().contains("oracle")),
            "output oracle must flag the missing results: {violations:?}"
        );
    }

    #[test]
    fn partitions_delay_but_never_lose_results() {
        use bistream_types::fault::{FaultEvent, FaultPlan};
        // Partition both R-side channels from router 0 for a while; the
        // retry queue must deliver everything eventually.
        let plan = FaultPlan {
            seed: 5,
            scenario: "partition".into(),
            events: vec![
                FaultEvent::Partition { router: 0, unit: 0, from_step: 2, until_step: 40 },
                FaultEvent::DelayChannel { router: 0, unit: 1, from_step: 5, until_step: 25 },
            ],
        };
        let mut engine = chaos_engine(plan);
        let mut now = 0;
        for i in 0..25i64 {
            now = i as Ts * 10;
            engine.ingest(&t(Rel::R, now, i), now).unwrap();
            engine.ingest(&t(Rel::S, now + 1, i), now + 1).unwrap();
            if i % 3 == 2 {
                engine.punctuate(now + 2).unwrap();
            }
        }
        engine.punctuate(now + 10).unwrap();
        engine.flush().unwrap();
        assert_eq!(engine.take_captured().len(), 25, "loss is modelled as delay + retry");
        engine.auditor().unwrap().assert_clean();
    }

    #[test]
    fn checkpoint_and_crash_require_an_armed_chaos_layer() {
        let mut engine = BicliqueEngine::new(cfg(RoutingStrategy::Hash)).unwrap();
        assert!(matches!(engine.checkpoint_all(), Err(Error::Fault(_))));
        assert!(matches!(engine.crash_unit(JoinerId(0)), Err(Error::Fault(_))));
        assert_eq!(engine.crashes_fired(), 0);
        assert_eq!(engine.chaos_step(), None);
    }

    #[test]
    fn pod_meters_follow_scaling() {
        let mut engine = BicliqueEngine::new(cfg(RoutingStrategy::Hash)).unwrap();
        assert_eq!(engine.pod_meters(Rel::R).len(), 2);
        engine.scale_to(Rel::R, 3, 0).unwrap();
        let meters = engine.pod_meters(Rel::R);
        assert_eq!(meters.len(), 3);
        let ids: Vec<usize> = meters.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids.len(), ids.iter().collect::<std::collections::HashSet<_>>().len());
        assert_eq!(engine.replicas(Rel::R), 3);
    }
}
