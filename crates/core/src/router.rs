//! The router core: strategy-driven tuple distribution with sequence
//! stamping and punctuation emission.
//!
//! Routers are stateless with respect to stream *content* (they keep no
//! window data) — all they own is a monotone sequence counter and a seeded
//! RNG for random placement. That is why the router tier scales trivially
//! (competing consumers on the ingest queue) and why recovering a router
//! is cheap in the real systems.
//!
//! There is one data path. [`RouterCore::route_batched`] appends a tuple's
//! copies to per-(destination, purpose) batches and hands back the frames
//! that filled up; [`RouterCore::flush_batches`] lets the rest go when the
//! driver has nothing else to do, and [`RouterCore::punctuate_batched`]
//! flushes them ahead of the punctuation. At `batch_size = 1` (the default)
//! every copy is its own frame: per-tuple framing is a setting of this
//! path, not a second one.
//!
//! Every frame leaves stamped with its channel's FIFO proof
//! ([`TupleBatch::covers`]): the highest seq below which this router has
//! nothing left for the destination. Sequence numbers only grow, so that is
//! the head of the destination's *other* pending batch minus one — a Store
//! frame `[70, 72]` covers 70 while Join `[71, …]` waits — or, with nothing
//! else pending there, [`RouterCore::last_seq`]. The joiner applies it like
//! a punctuation, so a tuple's release waits for a frame, not the timer.

use crate::adaptive::{AdaptiveRouter, AdaptiveShared};
use crate::config::{EngineConfig, RoutingStrategy};
use crate::layout::{JoinerId, Layout};
use bistream_types::audit::Auditor;
use bistream_types::batch::{BatchMessage, TupleBatch};
use bistream_types::error::{Error, Result};
use bistream_types::hash::{bucket_of, hash_one, FxHashMap};
use bistream_types::metrics::{Counter, Gauge, Histogram, RateMeter};
use bistream_types::predicate::JoinPredicate;
use bistream_types::punct::{Punctuation, Purpose, RouterId, SeqNo};
use bistream_types::registry::{MetricsRegistry, Observability};
use bistream_types::trace::{HopKind, Tracer};
use bistream_types::tuple::Tuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One frame addressed to one joiner unit.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedBatch {
    /// Destination unit.
    pub dest: JoinerId,
    /// The frame to deliver.
    pub msg: BatchMessage,
}

/// Communication-cost counters (experiment E11).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RouterStats {
    /// Tuples ingested and routed.
    pub tuples: u64,
    /// Data copies emitted (store + join).
    pub copies: u64,
    /// Punctuation messages emitted.
    pub punctuations: u64,
}

impl RouterStats {
    /// Mean data copies per routed tuple.
    pub fn copies_per_tuple(&self) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.copies as f64 / self.tuples as f64
        }
    }
}

/// Stable label value for a routing strategy.
fn strategy_label(strategy: RoutingStrategy) -> &'static str {
    match strategy {
        RoutingStrategy::Random => "random",
        RoutingStrategy::Hash => "hash",
        RoutingStrategy::ContRand { .. } => "contrand",
        RoutingStrategy::Adaptive { .. } => "adaptive",
    }
}

/// Registry-backed series of one router, labeled `router="r<id>"`.
///
/// Per-destination copy counters are created lazily the first time a
/// destination is hit (layouts grow at runtime), and the route-decision
/// counter is re-resolved when the strategy changes so decisions are
/// attributed to the strategy that made them.
#[derive(Debug)]
struct RouterMetrics {
    registry: MetricsRegistry,
    label: String,
    tuples: Arc<Counter>,
    copies: Arc<Counter>,
    punctuations: Arc<Counter>,
    /// `bistream_router_route_decisions_total{router,strategy}` for the
    /// *current* strategy.
    decisions: Arc<Counter>,
    /// `bistream_router_rate_tps{router}` — observed input rate.
    rate_tps: Arc<Gauge>,
    /// `bistream_batch_size{router}` — entries per flushed batch frame.
    batch_len: Arc<Histogram>,
    /// `bistream_router_pending_copies{router}` — copies buffered in
    /// unflushed batches (the router-side backpressure signal).
    pending_copies: Arc<Gauge>,
    /// `bistream_router_hot_keys{router}` — hot-tier size of the adaptive
    /// store plan (0 under the static strategies).
    hot_keys: Arc<Gauge>,
    /// `bistream_router_adaptive_subgroups{router}` — cold-tier `d` of
    /// the adaptive store plan.
    adaptive_subgroups: Arc<Gauge>,
    /// `bistream_router_strategy_switches_total{router}` — fenced plan
    /// adoptions this router performed.
    strategy_switches: Arc<Counter>,
    per_dest: FxHashMap<JoinerId, Arc<Counter>>,
}

impl RouterMetrics {
    fn new(registry: &MetricsRegistry, id: RouterId, strategy: RoutingStrategy) -> RouterMetrics {
        let label = format!("r{id}");
        let labels: &[(&str, &str)] = &[("router", &label)];
        RouterMetrics {
            tuples: registry.counter(bistream_types::metric_names::ROUTER_TUPLES_TOTAL, labels),
            copies: registry.counter(bistream_types::metric_names::ROUTER_COPIES_TOTAL, labels),
            punctuations: registry
                .counter(bistream_types::metric_names::ROUTER_PUNCTUATIONS_TOTAL, labels),
            decisions: Self::decisions_handle(registry, &label, strategy),
            rate_tps: registry.gauge(bistream_types::metric_names::ROUTER_RATE_TPS, labels),
            batch_len: registry.histogram(bistream_types::metric_names::BATCH_SIZE, labels),
            pending_copies: registry
                .gauge(bistream_types::metric_names::ROUTER_PENDING_COPIES, labels),
            hot_keys: registry.gauge(bistream_types::metric_names::ROUTER_HOT_KEYS, labels),
            adaptive_subgroups: registry
                .gauge(bistream_types::metric_names::ROUTER_ADAPTIVE_SUBGROUPS, labels),
            strategy_switches: registry
                .counter(bistream_types::metric_names::ROUTER_STRATEGY_SWITCHES_TOTAL, labels),
            per_dest: FxHashMap::default(),
            registry: registry.clone(),
            label,
        }
    }

    fn decisions_handle(
        registry: &MetricsRegistry,
        label: &str,
        strategy: RoutingStrategy,
    ) -> Arc<Counter> {
        registry.counter(
            bistream_types::metric_names::ROUTER_ROUTE_DECISIONS_TOTAL,
            &[("router", label), ("strategy", strategy_label(strategy))],
        )
    }

    fn bump_dest(&mut self, dest: JoinerId) {
        let router_label = &self.label;
        let registry = &self.registry;
        self.per_dest
            .entry(dest)
            .or_insert_with(|| {
                registry.counter(
                    bistream_types::metric_names::ROUTER_DEST_COPIES_TOTAL,
                    &[("router", router_label), ("dest", &dest.to_string())],
                )
            })
            .inc();
    }
}

/// The routing state machine of one router instance.
///
/// All routers of one engine share a single atomic sequence counter — this
/// is what makes the order-consistent protocol's sequence truly *global*
/// (Definition 7's `Z`). With per-router counters, a joiner's watermark
/// (the minimum punctuation frontier across routers) would be pinned to
/// the slowest router's private counter, stranding the faster routers'
/// tails in the reorder buffers; with a shared counter, every router's
/// punctuation reports the same clock and the watermark tracks the stream.
#[derive(Debug)]
pub struct RouterCore {
    id: RouterId,
    strategy: RoutingStrategy,
    predicate: JoinPredicate,
    seq: Arc<AtomicU64>,
    rng: StdRng,
    stats: RouterStats,
    /// Input-rate statistics (the thesis assigns routers "statistics
    /// related to input data, such as rate of events per second").
    rate: RateMeter,
    /// Registry-backed series, present once a registry is attached.
    metrics: Option<RouterMetrics>,
    /// Per-tuple tracer (disabled by default). The router is the trace's
    /// ingress: it opens the trace with the copy fan-out as the branch
    /// count and records the route hop.
    tracer: Tracer,
    /// Flush threshold of the per-destination batches (1 = per-tuple
    /// framing: every copy is its own frame).
    batch_size: usize,
    /// Per-(destination, purpose) batches accumulating towards a flush.
    /// Keyed by purpose as well as destination because one unit can
    /// receive both store and join copies from this router, and a
    /// [`TupleBatch`] carries exactly one purpose.
    pending: FxHashMap<(JoinerId, Purpose), TupleBatch>,
    /// Copies across `pending`, so "anything to flush?" is O(1).
    pending_copies: usize,
    /// Invariant auditor (test/debug harnesses): checks sequence density
    /// and punctuation monotonicity at the assignment point.
    auditor: Option<Auditor>,
    /// Skew-adaptive routing state ([`crate::adaptive`]); required when
    /// the strategy is [`RoutingStrategy::Adaptive`], ignored otherwise.
    adaptive: Option<AdaptiveRouter>,
}

impl RouterCore {
    /// A router with the given identity, strategy and placement seed,
    /// drawing sequence numbers from the engine-shared `seq` counter.
    pub fn new(
        id: RouterId,
        strategy: RoutingStrategy,
        predicate: JoinPredicate,
        seed: u64,
        seq: Arc<AtomicU64>,
    ) -> RouterCore {
        RouterCore {
            id,
            strategy,
            predicate,
            seq,
            rng: StdRng::seed_from_u64(seed ^ ((id as u64) << 32)),
            stats: RouterStats::default(),
            rate: RateMeter::new(10),
            metrics: None,
            tracer: Tracer::disabled(),
            batch_size: 1,
            pending: FxHashMap::default(),
            pending_copies: 0,
            auditor: None,
            adaptive: None,
        }
    }

    /// The router every runtime runs: built from `config` (strategy,
    /// predicate, seed, batch size) on the engine-shared `seq` counter and
    /// wired to the registry and tracer of `obs`, to the `auditor` if one
    /// is armed, and to its handle on the `adaptive` state — for an id the
    /// switch protocol's ack set was sized for; a later id routes with a
    /// clear configuration error instead of silently weakening the fence.
    pub fn for_engine(
        id: RouterId,
        config: &EngineConfig,
        seq: Arc<AtomicU64>,
        obs: &Observability,
        auditor: Option<&Auditor>,
        adaptive: Option<&Arc<AdaptiveShared>>,
    ) -> RouterCore {
        let mut router =
            RouterCore::new(id, config.routing, config.predicate.clone(), config.seed, seq);
        router.set_batch_size(config.batch_size);
        router.attach_registry(&obs.registry);
        router.attach_tracer(obs.tracer.clone());
        if let Some(a) = auditor {
            router.set_auditor(a.clone());
        }
        if let Some(shared) = adaptive.filter(|sh| (id as usize) < sh.router_count()) {
            router.attach_adaptive(shared.handle(id));
        }
        router
    }

    /// Attach the per-router handle of the engine-wide
    /// [`crate::adaptive::AdaptiveShared`] state. Required before routing
    /// under [`RoutingStrategy::Adaptive`].
    pub fn attach_adaptive(&mut self, handle: AdaptiveRouter) {
        self.adaptive = Some(handle);
    }

    /// The attached adaptive state, if any (test/metrics introspection).
    pub fn adaptive(&self) -> Option<&AdaptiveRouter> {
        self.adaptive.as_ref()
    }

    /// Test-only: arm the fence-skipping bug hook on the attached
    /// adaptive state (see [`AdaptiveRouter::debug_unfenced_adopt`]).
    pub fn debug_skip_fence(&mut self, on: bool) {
        if let Some(ad) = self.adaptive.as_mut() {
            ad.set_skip_fence(on);
        }
    }

    /// Attach the invariant [`Auditor`]: every sequence assignment and
    /// punctuation this router makes is then checked for density,
    /// global uniqueness and monotonicity (the premises of Definition 7).
    pub fn set_auditor(&mut self, auditor: Auditor) {
        self.auditor = Some(auditor);
    }

    /// Set the micro-batch flush threshold (clamped to at least 1). With
    /// size 1 every copy flushes immediately — per-tuple framing.
    pub fn set_batch_size(&mut self, n: usize) {
        self.batch_size = n.clamp(1, bistream_types::batch::MAX_BATCH_LEN);
    }

    /// The current flush threshold.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Tuple copies sitting in unflushed per-destination batches.
    pub fn pending_batched(&self) -> usize {
        self.pending_copies
    }

    /// Register this router's metric series (labeled `router="r<id>"`)
    /// in `registry` and keep them current from the routing hot path.
    pub fn attach_registry(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(RouterMetrics::new(registry, self.id, self.strategy));
    }

    /// Attach a per-tuple tracer: sampled tuples get a trace opened at
    /// routing time (this is where the sequence number — the trace id — is
    /// minted), with one branch per emitted copy.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Convenience constructor for single-router setups and tests: a
    /// private sequence counter.
    pub fn standalone(
        id: RouterId,
        strategy: RoutingStrategy,
        predicate: JoinPredicate,
        seed: u64,
    ) -> RouterCore {
        Self::new(id, strategy, predicate, seed, Arc::new(AtomicU64::new(0)))
    }

    /// This router's identity.
    pub fn id(&self) -> RouterId {
        self.id
    }

    /// The latest sequence number visible on the shared counter. Used as
    /// the punctuation value: every tuple this router has routed carries a
    /// sequence ≤ this, and every future one will carry a greater one.
    pub fn last_seq(&self) -> SeqNo {
        self.seq.load(Ordering::SeqCst)
    }

    /// Communication counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Handle on the (shared) sequence counter — used by the engine to
    /// mint additional routers against the same clock.
    pub fn seq_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.seq)
    }

    /// Switch routing strategy (subgroup adjustment changes ContRand's
    /// `d` at runtime). Takes effect for the next routed tuple.
    pub fn set_strategy(&mut self, strategy: RoutingStrategy) {
        self.strategy = strategy;
        if let Some(m) = self.metrics.as_mut() {
            m.decisions = RouterMetrics::decisions_handle(&m.registry, &m.label, strategy);
        }
    }

    /// This router's observed input rate (tuples/second, 10 s window
    /// ending at `now_ms` of the tuple timebase).
    pub fn observed_rate(&self, now_ms: u64) -> f64 {
        self.rate.rate_per_sec(now_ms)
    }

    /// Route one ingested tuple against the current layout: assign the
    /// next sequence number, pick the store destination per strategy and
    /// the join destinations, and append each copy to its
    /// per-(destination, purpose) [`TupleBatch`]. Every copy of the tuple
    /// carries the same sequence number; the store copy is appended first
    /// (an arbitrary but fixed order — ordering across units is the
    /// reorder buffer's job). Batches that reach the flush threshold are
    /// appended to `out` as ready-to-send frames (every copy, at the
    /// default `batch_size = 1`); the rest wait for more copies or for the
    /// next [`RouterCore::punctuate_batched`].
    ///
    /// `extras` are additional join destinations the caller derived from
    /// scaling transitions (historical layouts, draining units); they ride
    /// in the same batches under the same sequence stamp. Returns the
    /// assigned sequence number.
    pub fn route_batched(
        &mut self,
        tuple: &Tuple,
        layout: &Layout,
        extras: &[JoinerId],
        out: &mut Vec<RoutedBatch>,
    ) -> Result<SeqNo> {
        let own = tuple.rel();
        let seq = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(a) = &self.auditor {
            a.router_emit(self.id, seq);
        }
        self.stats.tuples += 1;
        self.rate.record(tuple.ts());

        let store_dest: JoinerId = match self.strategy {
            RoutingStrategy::Random => {
                let own_units = layout.units(own);
                own_units[self.rng.gen_range(0..own_units.len())]
            }
            RoutingStrategy::Hash => {
                let h = self.key_hash(tuple)?;
                let own_units = layout.units(own);
                own_units[bucket_of(h, own_units.len())]
            }
            RoutingStrategy::ContRand { subgroups } => {
                let h = self.key_hash(tuple)?;
                let g = bucket_of(h, subgroups);
                let own_group: Vec<JoinerId> = layout.subgroup_units(own, g).collect();
                if own_group.is_empty() {
                    return Err(Error::Config(format!("subgroup {g} of side {own} is empty")));
                }
                own_group[self.rng.gen_range(0..own_group.len())]
            }
            RoutingStrategy::Adaptive { .. } => {
                let h = self.key_hash(tuple)?;
                let Some(ad) = self.adaptive.as_mut() else {
                    return Err(Error::Config(
                        "adaptive routing requires an attached core::adaptive state".into(),
                    ));
                };
                if ad.fence_skipped() {
                    ad.debug_unfenced_adopt();
                }
                ad.observe(h);
                ad.store_dest(layout, own, h, &mut self.rng)?
            }
        };
        let join_dests = self.join_dests_for(tuple, layout)?;

        // Extras are engine-level copies: they count towards the engine's
        // copy total (where the frames are sent) but not towards this
        // router's own communication counters.
        if let Some(m) = self.metrics.as_mut() {
            m.tuples.inc();
            m.decisions.inc();
            m.copies.add(1 + join_dests.len() as u64);
            m.rate_tps.set(self.rate.rate_per_sec(tuple.ts()).round() as u64);
            m.bump_dest(store_dest);
            for dest in &join_dests {
                m.bump_dest(*dest);
            }
        }

        if self.tracer.sampled(seq) {
            self.tracer.begin(seq, (1 + join_dests.len() + extras.len()) as u32);
            let unit = format!("r{}", self.id);
            self.tracer.span(seq, HopKind::Route, &unit, tuple.ts(), tuple.ts());
        }

        self.push_pending(store_dest, Purpose::Store, seq, tuple.clone(), out);
        self.stats.copies += 1;
        for dest in join_dests {
            self.push_pending(dest, Purpose::Join, seq, tuple.clone(), out);
            self.stats.copies += 1;
        }
        for &dest in extras {
            self.push_pending(dest, Purpose::Join, seq, tuple.clone(), out);
        }
        Ok(seq)
    }

    /// Append one copy to its destination batch, flushing the batch into
    /// `out` when it reaches the threshold.
    fn push_pending(
        &mut self,
        dest: JoinerId,
        purpose: Purpose,
        seq: SeqNo,
        tuple: Tuple,
        out: &mut Vec<RoutedBatch>,
    ) {
        let router = self.id;
        let cap = self.batch_size;
        let batch = self
            .pending
            .entry((dest, purpose))
            .or_insert_with(|| TupleBatch::with_capacity(router, purpose, cap));
        batch.push(seq, tuple);
        self.pending_copies += 1;
        if let Some(m) = &self.metrics {
            m.pending_copies.add(1);
        }
        if batch.len() >= cap {
            // Swap a fresh batch in rather than remove-and-reinsert; the
            // leftover empty batch is skipped by flush_batches.
            let full = std::mem::replace(batch, TupleBatch::with_capacity(router, purpose, cap));
            self.send_batch(dest, full, out);
        }
    }

    /// Flush every pending batch into `out`, in deterministic
    /// `(destination, purpose)` order. Called before punctuating (a
    /// punctuation must not overtake the data it covers), when the driver's
    /// ingest edge runs dry, and at the end of a run. With nothing pending
    /// it returns at once and allocates nothing.
    pub fn flush_batches(&mut self, out: &mut Vec<RoutedBatch>) {
        if self.pending_copies == 0 {
            return;
        }
        let mut keys: Vec<(JoinerId, Purpose)> = self.pending.keys().copied().collect();
        keys.sort_by_key(|&(d, p)| (d, p.as_byte()));
        for key in keys {
            let Some(batch) = self.pending.remove(&key) else { continue };
            if !batch.is_empty() {
                self.send_batch(key.0, batch, out);
            }
        }
    }

    /// Let one non-empty batch leave for `dest`: stamp its cover (while the
    /// other purpose's batch for `dest` is still in `pending`), account it,
    /// append the frame to `out`.
    fn send_batch(&mut self, dest: JoinerId, mut batch: TupleBatch, out: &mut Vec<RoutedBatch>) {
        let other = match batch.purpose() {
            Purpose::Store => Purpose::Join,
            Purpose::Join => Purpose::Store,
        };
        let covers = match self.pending.get(&(dest, other)).and_then(TupleBatch::first_seq) {
            Some(first) => first - 1,
            None => self.last_seq(),
        };
        batch.set_covers(covers);
        self.pending_copies -= batch.len();
        if let Some(m) = &self.metrics {
            m.batch_len.record(batch.len() as u64);
            m.pending_copies.sub(batch.len() as u64);
        }
        out.push(RoutedBatch { dest, msg: BatchMessage::Batch(batch) });
    }

    /// Punctuate: flush all pending batches first (per-channel FIFO then
    /// guarantees every covered copy precedes the punctuation), then emit
    /// one punctuation frame carrying the current counter to every unit of
    /// both sides (joiners must hear from every router to advance their
    /// watermark, even units this router never sent data to).
    pub fn punctuate_batched(&mut self, layout: &Layout, out: &mut Vec<RoutedBatch>) {
        self.flush_batches(out);
        let p = Punctuation { router: self.id, seq: self.last_seq() };
        if let Some(a) = &self.auditor {
            a.router_punct(self.id, p.seq);
        }
        for (_, dest) in layout.all_units() {
            out.push(RoutedBatch { dest, msg: BatchMessage::Punct(p) });
            self.stats.punctuations += 1;
            if let Some(m) = &self.metrics {
                m.punctuations.inc();
            }
        }
        // The punctuation fence: pending batches are flushed and the
        // punctuation emitted, so the adaptive state may now ack/adopt
        // plan switches without reordering any channel.
        self.adaptive_tick();
    }

    fn key_hash(&self, tuple: &Tuple) -> Result<u64> {
        key_hash(&self.predicate, tuple)
    }

    /// The join-stream destinations this router would choose for `tuple`
    /// right now. For the static strategies this is the pure
    /// [`join_dests`] function; under [`RoutingStrategy::Adaptive`] it is
    /// the probe union of every plan that may still hold live tuples, so
    /// the engine must ask the *routing* router rather than re-deriving
    /// destinations itself.
    pub fn planned_join_dests(&self, tuple: &Tuple, layout: &Layout) -> Result<Vec<JoinerId>> {
        self.join_dests_for(tuple, layout)
    }

    fn join_dests_for(&self, tuple: &Tuple, layout: &Layout) -> Result<Vec<JoinerId>> {
        match self.strategy {
            RoutingStrategy::Adaptive { .. } => {
                let h = self.key_hash(tuple)?;
                let Some(ad) = self.adaptive.as_ref() else {
                    return Err(Error::Config(
                        "adaptive routing requires an attached core::adaptive state".into(),
                    ));
                };
                Ok(ad.join_dests(layout, tuple.rel().opposite(), h))
            }
            s => join_dests(s, &self.predicate, tuple, layout),
        }
    }

    /// Run the adaptive punctuation-tick (summary merge, switch
    /// ack/commit/adopt, tuning) and publish the outcome to this router's
    /// metric series. Must be called only at a fence: after the pending
    /// batches are flushed and the punctuation is emitted.
    fn adaptive_tick(&mut self) {
        let Some(ad) = self.adaptive.as_mut() else { return };
        if !matches!(self.strategy, RoutingStrategy::Adaptive { .. }) {
            return;
        }
        let report = ad.tick();
        if let Some(m) = self.metrics.as_mut() {
            m.hot_keys.set(report.hot_len as u64);
            m.adaptive_subgroups.set(report.subgroups as u64);
            if report.adopted {
                m.strategy_switches.inc();
            }
        }
    }
}

fn key_hash(predicate: &JoinPredicate, tuple: &Tuple) -> Result<u64> {
    let key = predicate.routing_key(tuple).ok_or_else(|| {
        Error::Config(format!(
            "content-sensitive routing needs an equi key; predicate is {predicate}"
        ))
    })?;
    Ok(hash_one(key))
}

/// Capped exponential backoff for router→joiner retransmission.
///
/// Delays are measured in *scheduler steps* (the chaos net's logical
/// clock), never wall time, so retry behaviour replays deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay before the first retry, in steps.
    pub base_steps: u64,
    /// Upper bound on any retry delay, in steps.
    pub cap_steps: u64,
}

impl Default for BackoffPolicy {
    fn default() -> BackoffPolicy {
        BackoffPolicy { base_steps: 1, cap_steps: 16 }
    }
}

impl BackoffPolicy {
    /// Delay before attempt number `attempt` (0-based): `base << attempt`,
    /// capped at `cap_steps`.
    pub fn delay(&self, attempt: u32) -> u64 {
        if attempt >= 63 {
            self.cap_steps
        } else {
            (self.base_steps << attempt).min(self.cap_steps)
        }
    }
}

/// Per-channel retransmission state.
#[derive(Debug)]
struct ChannelRetry {
    frames: std::collections::VecDeque<BatchMessage>,
    /// Consecutive refusals since the last accepted frame.
    attempts: u32,
    /// Step at or after which the head frame may be re-offered.
    next_attempt_step: u64,
}

/// Frames refused by a partitioned channel, waiting for retransmission
/// with capped exponential backoff.
///
/// The queue preserves pairwise FIFO: once a channel holds a refused
/// frame, every later frame for that channel must be appended *behind* it
/// (see [`RetryQueue::has_pending`]) rather than sent directly, otherwise
/// retransmission would reorder the channel. Loss in the fault model is
/// exactly "unbounded delay + retry": a frame is never dropped, only
/// deferred until the partition heals.
#[derive(Debug, Default)]
pub struct RetryQueue {
    policy: BackoffPolicy,
    channels: Vec<((RouterId, JoinerId), ChannelRetry)>,
}

impl RetryQueue {
    /// An empty queue with the given backoff policy.
    pub fn new(policy: BackoffPolicy) -> RetryQueue {
        RetryQueue { policy, channels: Vec::new() }
    }

    /// True when the `router → dest` channel has undelivered frames (the
    /// sender must then append behind them instead of sending directly).
    pub fn has_pending(&self, router: RouterId, dest: JoinerId) -> bool {
        self.channels.iter().any(|((r, d), c)| *r == router && *d == dest && !c.frames.is_empty())
    }

    /// Total frames awaiting retransmission.
    pub fn pending(&self) -> usize {
        self.channels.iter().map(|(_, c)| c.frames.len()).sum()
    }

    /// Append a refused (or FIFO-deferred) frame for `router → dest`,
    /// scheduling its first retry from `now_step`.
    pub fn push(&mut self, router: RouterId, dest: JoinerId, msg: BatchMessage, now_step: u64) {
        let key = (router, dest);
        match self.channels.iter_mut().find(|(k, _)| *k == key) {
            Some((_, c)) => c.frames.push_back(msg),
            None => {
                let mut frames = std::collections::VecDeque::new();
                frames.push_back(msg);
                self.channels.push((
                    key,
                    ChannelRetry {
                        frames,
                        attempts: 0,
                        next_attempt_step: now_step + self.policy.delay(0),
                    },
                ));
            }
        }
    }

    /// Earliest step at which any channel is due for a retry, or `None`
    /// when the queue is empty. Lets a scheduler fast-forward its step
    /// counter instead of spinning.
    pub fn earliest_due(&self) -> Option<u64> {
        self.channels
            .iter()
            .filter(|(_, c)| !c.frames.is_empty())
            .map(|(_, c)| c.next_attempt_step)
            .min()
    }

    /// Re-offer every due channel's frames, head first, through
    /// `try_send`. A channel drains until `try_send` refuses; a refusal
    /// bumps its attempt counter and reschedules it with backoff, an
    /// acceptance resets the counter. Returns frames delivered.
    pub fn drain_due(
        &mut self,
        now_step: u64,
        mut try_send: impl FnMut(RouterId, JoinerId, &BatchMessage) -> bool,
    ) -> usize {
        let mut delivered = 0;
        for ((router, dest), c) in &mut self.channels {
            if c.frames.is_empty() || c.next_attempt_step > now_step {
                continue;
            }
            while let Some(head) = c.frames.front() {
                if try_send(*router, *dest, head) {
                    c.frames.pop_front();
                    c.attempts = 0;
                    delivered += 1;
                } else {
                    c.attempts = c.attempts.saturating_add(1);
                    c.next_attempt_step = now_step + self.policy.delay(c.attempts);
                    break;
                }
            }
        }
        self.channels.retain(|(_, c)| !c.frames.is_empty());
        delivered
    }

    /// Drop every queued frame addressed to a retired unit.
    pub fn forget_unit(&mut self, unit: JoinerId) {
        self.channels.retain(|((_, dest), _)| *dest != unit);
    }
}

/// The join-stream destinations of `tuple` under `strategy` against a
/// given layout — a pure function of the tuple's key and the layout (no
/// randomness), which is what allows the engine to re-evaluate it against
/// *historical* layouts during scaling transitions: tuples stored under an
/// old layout keep receiving probes until they expire, so scaling needs no
/// state migration.
pub fn join_dests(
    strategy: RoutingStrategy,
    predicate: &JoinPredicate,
    tuple: &Tuple,
    layout: &Layout,
) -> Result<Vec<JoinerId>> {
    let opp = tuple.rel().opposite();
    Ok(match strategy {
        RoutingStrategy::Random => layout.units(opp).to_vec(),
        RoutingStrategy::Hash => {
            let h = key_hash(predicate, tuple)?;
            let opp_units = layout.units(opp);
            vec![opp_units[bucket_of(h, opp_units.len())]]
        }
        RoutingStrategy::ContRand { subgroups } => {
            let h = key_hash(predicate, tuple)?;
            let g = bucket_of(h, subgroups);
            layout.subgroup_units(opp, g).collect()
        }
        // Without the router's probe union (an epoch-dependent state this
        // pure function cannot see), the only complete answer is the
        // Random broadcast. Used for *historical* layouts during scaling
        // transitions only; the live path asks
        // [`RouterCore::planned_join_dests`] instead.
        RoutingStrategy::Adaptive { .. } => layout.units(opp).to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistream_types::rel::Rel;
    use bistream_types::value::Value;

    fn tuple(rel: Rel, k: i64) -> Tuple {
        Tuple::new(rel, 0, vec![Value::Int(k)])
    }

    fn equi() -> JoinPredicate {
        JoinPredicate::Equi { r_attr: 0, s_attr: 0 }
    }

    /// Route one tuple at the default `batch_size = 1`: every copy comes
    /// back as its own single-entry frame.
    fn route_one(router: &mut RouterCore, layout: &Layout, t: &Tuple) -> Vec<RoutedBatch> {
        let mut out = Vec::new();
        router.route_batched(t, layout, &[], &mut out).unwrap();
        out
    }

    fn batch_of(frame: &RoutedBatch) -> &TupleBatch {
        match &frame.msg {
            BatchMessage::Batch(b) => b,
            other => panic!("data frame expected, got {other}"),
        }
    }

    fn stores_and_joins(frames: &[RoutedBatch]) -> (Vec<JoinerId>, Vec<JoinerId>) {
        let mut stores = Vec::new();
        let mut joins = Vec::new();
        for f in frames {
            match batch_of(f).purpose() {
                Purpose::Store => stores.push(f.dest),
                Purpose::Join => joins.push(f.dest),
            }
        }
        (stores, joins)
    }

    #[test]
    fn random_stores_once_broadcasts_join_to_opposite_side() {
        let layout = Layout::new(3, 4, 1).unwrap();
        let mut r = RouterCore::standalone(0, RoutingStrategy::Random, equi(), 7);
        let copies = route_one(&mut r, &layout, &tuple(Rel::R, 5));
        let (stores, joins) = stores_and_joins(&copies);
        assert_eq!(stores.len(), 1);
        assert!(layout.units(Rel::R).contains(&stores[0]), "stored on own side");
        let mut expect: Vec<_> = layout.units(Rel::S).to_vec();
        let mut got = joins.clone();
        expect.sort();
        got.sort();
        assert_eq!(got, expect, "join copy to every S unit");
        assert_eq!(r.stats().copies, 5);
        assert_eq!(r.stats().copies_per_tuple(), 5.0);
    }

    #[test]
    fn hash_sends_exactly_two_copies_and_is_key_deterministic() {
        let layout = Layout::new(4, 4, 1).unwrap();
        let mut r = RouterCore::standalone(0, RoutingStrategy::Hash, equi(), 7);
        let a = route_one(&mut r, &layout, &tuple(Rel::R, 42));
        let b = route_one(&mut r, &layout, &tuple(Rel::R, 42));
        assert_eq!(a.len(), 2);
        let (sa, ja) = stores_and_joins(&a);
        let (sb, jb) = stores_and_joins(&b);
        assert_eq!((sa, ja.clone()), (sb, jb), "same key, same units");
        // Matching S tuple's store unit is the R tuple's join unit.
        let s_copies = route_one(&mut r, &layout, &tuple(Rel::S, 42));
        let (s_store, _) = stores_and_joins(&s_copies);
        assert_eq!(s_store, ja, "equi pair meets on one unit");
    }

    #[test]
    fn contrand_confines_traffic_to_one_subgroup() {
        let layout = Layout::new(6, 6, 3).unwrap();
        let mut r =
            RouterCore::standalone(0, RoutingStrategy::ContRand { subgroups: 3 }, equi(), 7);
        for k in 0..50 {
            let copies = route_one(&mut r, &layout, &tuple(Rel::R, k));
            let (stores, joins) = stores_and_joins(&copies);
            // Store lands in the subgroup the key hashes to.
            let g_store = layout.subgroup_of(Rel::R, stores[0]).unwrap();
            let g_key = bucket_of(hash_one(&Value::Int(k)), 3);
            assert_eq!(g_store, g_key);
            // Join copies cover exactly the matching S subgroup.
            let mut expect: Vec<_> = layout.subgroup_units(Rel::S, g_key).collect();
            let mut got = joins.clone();
            expect.sort();
            got.sort();
            assert_eq!(got, expect);
            assert_eq!(copies.len(), 1 + expect.len(), "fan-out 1 + m/d");
        }
    }

    #[test]
    fn sequence_numbers_are_dense_and_shared_by_copies() {
        let layout = Layout::new(2, 2, 1).unwrap();
        let mut r = RouterCore::standalone(3, RoutingStrategy::Random, equi(), 7);
        let first = route_one(&mut r, &layout, &tuple(Rel::R, 1));
        let second = route_one(&mut r, &layout, &tuple(Rel::S, 2));
        assert!(first.iter().all(|f| batch_of(f).first_seq() == Some(1)), "copies share seq 1");
        assert!(second.iter().all(|f| batch_of(f).first_seq() == Some(2)));
        assert!(second.iter().all(|f| f.msg.router() == 3));
        assert_eq!(r.last_seq(), 2);
    }

    #[test]
    fn punctuation_reaches_every_unit_of_both_sides() {
        let layout = Layout::new(2, 3, 1).unwrap();
        let mut r = RouterCore::standalone(0, RoutingStrategy::Random, equi(), 7);
        route_one(&mut r, &layout, &tuple(Rel::R, 1));
        let mut out = Vec::new();
        r.punctuate_batched(&layout, &mut out);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|f| matches!(f.msg, BatchMessage::Punct(p) if p.seq == 1)));
        assert_eq!(r.stats().punctuations, 5);
    }

    #[test]
    fn random_store_spreads_over_own_side() {
        let layout = Layout::new(4, 1, 1).unwrap();
        let mut r = RouterCore::standalone(0, RoutingStrategy::Random, equi(), 99);
        let mut seen = std::collections::HashSet::new();
        for k in 0..200 {
            let copies = route_one(&mut r, &layout, &tuple(Rel::R, k));
            let (stores, _) = stores_and_joins(&copies);
            seen.insert(stores[0]);
        }
        assert_eq!(seen.len(), 4, "all four R units hit");
    }

    #[test]
    fn router_tracks_input_rate() {
        let layout = Layout::new(2, 2, 1).unwrap();
        let mut r = RouterCore::standalone(0, RoutingStrategy::Random, equi(), 7);
        let mut out = Vec::new();
        // 200 tuples/second for 3 seconds of event time.
        for ms in 0..3_000u64 {
            if ms % 5 == 0 {
                out.clear();
                let t = Tuple::new(Rel::R, ms, vec![Value::Int(1)]);
                r.route_batched(&t, &layout, &[], &mut out).unwrap();
            }
        }
        let rate = r.observed_rate(3_000);
        assert!((rate - 200.0).abs() < 5.0, "rate {rate}");
    }

    #[test]
    fn attached_registry_sees_per_router_and_per_dest_series() {
        let layout = Layout::new(2, 2, 1).unwrap();
        let mut r = RouterCore::standalone(1, RoutingStrategy::Random, equi(), 7);
        let reg = MetricsRegistry::new();
        r.attach_registry(&reg);
        let mut out = Vec::new();
        r.route_batched(&tuple(Rel::R, 5), &layout, &[], &mut out).unwrap();
        r.punctuate_batched(&layout, &mut out);
        let snap = reg.scrape(0);
        let labels: &[(&str, &str)] = &[("router", "r1")];
        assert_eq!(
            snap.counter(bistream_types::metric_names::ROUTER_TUPLES_TOTAL, labels),
            Some(1)
        );
        // Store copy + join broadcast to both S units = 3 copies.
        assert_eq!(
            snap.counter(bistream_types::metric_names::ROUTER_COPIES_TOTAL, labels),
            Some(3)
        );
        assert_eq!(
            snap.counter(bistream_types::metric_names::ROUTER_PUNCTUATIONS_TOTAL, labels),
            Some(4)
        );
        assert_eq!(
            snap.counter(
                bistream_types::metric_names::ROUTER_ROUTE_DECISIONS_TOTAL,
                &[("router", "r1"), ("strategy", "random")]
            ),
            Some(1)
        );
        // Per-destination copy counters sum to the copy total.
        let dest_total: u64 = snap
            .samples
            .iter()
            .filter(|s| s.key.name == bistream_types::metric_names::ROUTER_DEST_COPIES_TOTAL)
            .map(|s| match s.value {
                bistream_types::registry::MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum();
        assert_eq!(dest_total, 3);
        // Strategy switch re-labels subsequent decisions.
        r.set_strategy(RoutingStrategy::Hash);
        r.route_batched(&tuple(Rel::R, 5), &layout, &[], &mut out).unwrap();
        assert_eq!(
            reg.scrape(0).counter(
                bistream_types::metric_names::ROUTER_ROUTE_DECISIONS_TOTAL,
                &[("router", "r1"), ("strategy", "hash")]
            ),
            Some(1)
        );
    }

    #[test]
    fn batched_route_at_size_one_matches_per_tuple_framing() {
        // At size 1 the path is per-tuple framing — a frame per copy, sent
        // at once — and a larger size only regroups the same copies.
        // What each (destination, purpose) channel carries, in order:
        type Channels = std::collections::BTreeMap<(JoinerId, u8), Vec<SeqNo>>;
        fn carry(frames: &[RoutedBatch], into: &mut Channels) {
            for f in frames {
                let b = batch_of(f);
                let channel = into.entry((f.dest, b.purpose().as_byte())).or_default();
                channel.extend(b.entries().iter().map(|e| e.seq));
            }
        }
        let layout = Layout::new(4, 4, 1).unwrap();
        let mut single = RouterCore::standalone(0, RoutingStrategy::Random, equi(), 7);
        let mut batched = RouterCore::standalone(0, RoutingStrategy::Random, equi(), 7);
        batched.set_batch_size(8);
        let (mut a, mut b) = (Channels::new(), Channels::new());
        let mut frames = Vec::new();
        for k in 0..20i64 {
            let t = tuple(if k % 2 == 0 { Rel::R } else { Rel::S }, k % 5);
            let copies = route_one(&mut single, &layout, &t);
            assert!(copies.iter().all(|f| batch_of(f).len() == 1), "size 1: a frame per copy");
            assert_eq!(copies.len(), 5, "1 store + 4 join copies, flushed at once");
            carry(&copies, &mut a);
            batched.route_batched(&t, &layout, &[], &mut frames).unwrap();
        }
        assert_eq!(single.pending_batched(), 0, "size 1 never leaves residue");
        batched.flush_batches(&mut frames);
        assert!(frames.iter().any(|f| batch_of(f).len() > 1), "size 8 shares frames");
        carry(&frames, &mut b);
        // Same sequence stamps, same RNG draws, same destinations and
        // purposes, in the same per-channel order.
        assert_eq!(a, b);
        assert_eq!(single.stats(), batched.stats());
    }

    #[test]
    fn batches_accumulate_and_flush_on_threshold() {
        let layout = Layout::new(2, 2, 1).unwrap();
        let mut r = RouterCore::standalone(0, RoutingStrategy::Hash, equi(), 7);
        r.set_batch_size(3);
        let mut out = Vec::new();
        // Same key → same store/join destinations every time.
        for _ in 0..2 {
            r.route_batched(&tuple(Rel::R, 42), &layout, &[], &mut out).unwrap();
        }
        assert!(out.is_empty(), "below threshold: nothing flushed");
        assert_eq!(r.pending_batched(), 4, "2 store + 2 join copies pending");
        r.route_batched(&tuple(Rel::R, 42), &layout, &[], &mut out).unwrap();
        assert_eq!(out.len(), 2, "store batch and join batch both filled");
        for frame in &out {
            let BatchMessage::Batch(b) = &frame.msg else { panic!("data frame") };
            assert_eq!(b.len(), 3);
            assert!(b.is_contiguous(), "one key, one router: dense seqs");
            assert_eq!((b.first_seq(), b.last_seq()), (Some(1), Some(3)));
        }
        assert_eq!(r.pending_batched(), 0);
    }

    #[test]
    fn pending_copies_gauge_tracks_unflushed_batches() {
        let layout = Layout::new(2, 2, 1).unwrap();
        let reg = MetricsRegistry::new();
        let mut r = RouterCore::standalone(0, RoutingStrategy::Hash, equi(), 7);
        r.attach_registry(&reg);
        r.set_batch_size(3);
        let labels: &[(&str, &str)] = &[("router", "r0")];
        let pending = |reg: &MetricsRegistry| {
            reg.scrape(0).gauge(bistream_types::metric_names::ROUTER_PENDING_COPIES, labels)
        };
        let mut out = Vec::new();
        for _ in 0..2 {
            r.route_batched(&tuple(Rel::R, 42), &layout, &[], &mut out).unwrap();
        }
        assert_eq!(pending(&reg), Some(4), "2 store + 2 join copies buffered");
        // Third tuple fills both batches: everything flushes.
        r.route_batched(&tuple(Rel::R, 42), &layout, &[], &mut out).unwrap();
        assert_eq!(pending(&reg), Some(0), "threshold flush empties the gauge");
        // A stragglers' flush also returns the gauge to zero.
        r.route_batched(&tuple(Rel::S, 7), &layout, &[], &mut out).unwrap();
        assert!(pending(&reg).unwrap() > 0);
        r.flush_batches(&mut out);
        assert_eq!(pending(&reg), Some(0));
    }

    #[test]
    fn punctuation_flushes_pending_batches_first() {
        let layout = Layout::new(2, 2, 1).unwrap();
        let mut r = RouterCore::standalone(0, RoutingStrategy::Hash, equi(), 7);
        r.set_batch_size(64);
        let mut out = Vec::new();
        r.route_batched(&tuple(Rel::R, 1), &layout, &[], &mut out).unwrap();
        r.route_batched(&tuple(Rel::S, 2), &layout, &[], &mut out).unwrap();
        assert!(out.is_empty());
        r.punctuate_batched(&layout, &mut out);
        // All data frames precede all punctuation frames, so per-channel
        // FIFO keeps the punctuation behind the copies it covers.
        let first_punct = out.iter().position(|f| matches!(f.msg, BatchMessage::Punct(_))).unwrap();
        assert!(out[..first_punct].iter().all(|f| matches!(f.msg, BatchMessage::Batch(_))));
        assert!(out[first_punct..].iter().all(|f| matches!(f.msg, BatchMessage::Punct(_))));
        assert_eq!(out.len() - first_punct, 4, "punctuation to every unit");
        assert!(out[first_punct..]
            .iter()
            .all(|f| matches!(f.msg, BatchMessage::Punct(p) if p.seq == 2)));
        assert_eq!(r.pending_batched(), 0);
    }

    #[test]
    fn a_frame_covers_up_to_its_destinations_other_pending_batch() {
        let layout = Layout::new(1, 1, 1).unwrap();
        let (r_unit, s_unit) = (layout.units(Rel::R)[0], layout.units(Rel::S)[0]);
        let mut r = RouterCore::standalone(0, RoutingStrategy::Hash, equi(), 7);
        r.set_batch_size(2);
        let mut out = Vec::new();
        for rel in [Rel::R, Rel::S, Rel::R] {
            r.route_batched(&tuple(rel, 1), &layout, &[], &mut out).unwrap();
        }
        r.flush_batches(&mut out);
        let frames: Vec<(JoinerId, Purpose, Vec<SeqNo>, SeqNo)> = out
            .iter()
            .map(|f| {
                let b = batch_of(f);
                (f.dest, b.purpose(), b.entries().iter().map(|e| e.seq).collect(), b.covers())
            })
            .collect();
        assert_eq!(
            frames,
            vec![
                // Full at seq 3 while the unit's other batch starts at 2.
                (r_unit, Purpose::Store, vec![1, 3], 1),
                (s_unit, Purpose::Join, vec![1, 3], 1),
                // Flushed with nothing else pending for the unit.
                (r_unit, Purpose::Join, vec![2], 3),
                (s_unit, Purpose::Store, vec![2], 3),
            ]
        );
    }

    #[test]
    fn covers_never_decrease_and_nothing_covered_follows() {
        let layout = Layout::new(2, 3, 1).unwrap();
        let mut r = RouterCore::standalone(0, RoutingStrategy::Random, equi(), 11);
        r.set_batch_size(3);
        let mut out = Vec::new();
        for i in 0..300i64 {
            let rel = if (i * 7) % 3 == 0 { Rel::R } else { Rel::S };
            r.route_batched(&tuple(rel, i % 5), &layout, &[], &mut out).unwrap();
            match i % 17 {
                0 => r.flush_batches(&mut out),
                1 => r.punctuate_batched(&layout, &mut out),
                _ => {}
            }
        }
        r.flush_batches(&mut out);
        for (_, unit) in layout.all_units() {
            // Per channel: the frontier a joiner would hold, frame by frame.
            let mut frontier = 0;
            let mut data_frames = 0;
            for f in out.iter().filter(|f| f.dest == unit) {
                match &f.msg {
                    BatchMessage::Batch(b) => {
                        data_frames += 1;
                        assert!(
                            b.entries().iter().all(|e| e.seq > frontier),
                            "{unit}: {b} carries data its channel was promised done with ({frontier})"
                        );
                        assert!(b.covers() >= frontier, "{unit}: cover regressed below {frontier}");
                        frontier = b.covers();
                    }
                    BatchMessage::Punct(p) => frontier = frontier.max(p.seq),
                }
            }
            assert!(data_frames > 10, "{unit} saw {data_frames} frames");
        }
    }

    #[test]
    fn an_idle_flush_with_nothing_pending_is_a_no_op() {
        let layout = Layout::new(2, 2, 1).unwrap();
        let reg = MetricsRegistry::new();
        let mut r = RouterCore::standalone(1, RoutingStrategy::Hash, equi(), 7);
        r.attach_registry(&reg);
        r.set_batch_size(8);
        let flushed = |reg: &MetricsRegistry| match reg
            .scrape(0)
            .get(bistream_types::metric_names::BATCH_SIZE, &[("router", "r1")])
        {
            Some(bistream_types::registry::MetricValue::Histogram(h)) => h.count,
            _ => 0,
        };
        let mut out = Vec::new();
        r.flush_batches(&mut out);
        assert!(out.is_empty());
        r.route_batched(&tuple(Rel::R, 4), &layout, &[], &mut out).unwrap();
        assert!(out.is_empty(), "below the threshold");
        r.flush_batches(&mut out);
        assert_eq!((out.len(), r.pending_batched(), flushed(&reg)), (2, 0, 2));
        // Again with nothing pending: no frame, no histogram sample.
        r.flush_batches(&mut out);
        assert_eq!((out.len(), flushed(&reg)), (2, 2));
        r.route_batched(&tuple(Rel::R, 4), &layout, &[], &mut out).unwrap();
        assert_eq!(r.pending_batched(), 2, "the drained keys take copies again");
    }

    #[test]
    fn extras_share_the_sequence_stamp_and_skip_router_counters() {
        let layout = Layout::new(2, 2, 1).unwrap();
        let mut r = RouterCore::standalone(0, RoutingStrategy::Hash, equi(), 7);
        let mut out = Vec::new();
        let extra = JoinerId(99);
        let seq = r.route_batched(&tuple(Rel::R, 5), &layout, &[extra], &mut out).unwrap();
        let to_extra: Vec<_> = out.iter().filter(|f| f.dest == extra).collect();
        assert_eq!(to_extra.len(), 1);
        let BatchMessage::Batch(b) = &to_extra[0].msg else { panic!("data frame") };
        assert_eq!(b.purpose(), Purpose::Join);
        assert_eq!(b.first_seq(), Some(seq));
        assert_eq!(r.stats().copies, 2, "extras are engine-level copies");
    }

    #[test]
    fn batch_size_histogram_records_flushed_lengths() {
        let layout = Layout::new(2, 2, 1).unwrap();
        let mut r = RouterCore::standalone(1, RoutingStrategy::Hash, equi(), 7);
        let reg = MetricsRegistry::new();
        r.attach_registry(&reg);
        r.set_batch_size(2);
        let mut out = Vec::new();
        // Three same-key tuples: the 2-entry batches flush on threshold,
        // the 1-entry residue on punctuation.
        for _ in 0..3 {
            r.route_batched(&tuple(Rel::R, 8), &layout, &[], &mut out).unwrap();
        }
        r.punctuate_batched(&layout, &mut out);
        let snap = reg.scrape(0);
        let labels: &[(&str, &str)] = &[("router", "r1")];
        let Some(bistream_types::registry::MetricValue::Histogram(h)) =
            snap.get(bistream_types::metric_names::BATCH_SIZE, labels)
        else {
            panic!("bistream_batch_size histogram registered");
        };
        assert_eq!(h.count, 4, "two threshold flushes + two punctuation flushes");
    }

    #[test]
    fn hash_without_equi_key_errors() {
        let layout = Layout::new(2, 2, 1).unwrap();
        let pred = JoinPredicate::Band { r_attr: 0, s_attr: 0, band: 1.0 };
        let mut r = RouterCore::standalone(0, RoutingStrategy::Hash, pred, 7);
        let mut out = Vec::new();
        assert!(r.route_batched(&tuple(Rel::R, 1), &layout, &[], &mut out).is_err());
    }

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let p = BackoffPolicy { base_steps: 2, cap_steps: 10 };
        assert_eq!(p.delay(0), 2);
        assert_eq!(p.delay(1), 4);
        assert_eq!(p.delay(2), 8);
        assert_eq!(p.delay(3), 10, "capped");
        assert_eq!(p.delay(200), 10, "huge attempts saturate at the cap");
    }

    #[test]
    fn retry_queue_preserves_channel_fifo_and_backs_off() {
        let mut q = RetryQueue::new(BackoffPolicy { base_steps: 1, cap_steps: 8 });
        let punct = |seq| BatchMessage::Punct(Punctuation { router: 0, seq });
        q.push(0, JoinerId(0), punct(1), 0);
        q.push(0, JoinerId(0), punct(2), 0);
        q.push(1, JoinerId(0), punct(3), 0);
        assert!(q.has_pending(0, JoinerId(0)));
        assert_eq!(q.pending(), 3);
        assert_eq!(q.earliest_due(), Some(1));
        // Not yet due at step 0.
        assert_eq!(q.drain_due(0, |_, _, _| true), 0);
        // Refused at step 1 (attempt 0): attempt 1 is `delay(1)` = 2 out.
        assert_eq!(q.drain_due(1, |_, _, _| false), 0);
        assert_eq!(q.earliest_due(), Some(3));
        assert_eq!(q.drain_due(2, |_, _, _| true), 0, "backing off: not due yet");
        assert_eq!(q.drain_due(3, |_, _, _| false), 0);
        assert_eq!(q.earliest_due(), Some(7), "exponential: 1, 2 then 4 steps between attempts");
        // Healed: everything drains in per-channel FIFO order.
        let mut seen: Vec<(RouterId, u64)> = Vec::new();
        assert_eq!(
            q.drain_due(7, |r, _, m| {
                seen.push((
                    r,
                    match m {
                        BatchMessage::Punct(p) => p.seq,
                        BatchMessage::Batch(b) => b.first_seq().unwrap_or(0),
                    },
                ));
                true
            }),
            3
        );
        let from_r0: Vec<u64> = seen.iter().filter(|(r, _)| *r == 0).map(|(_, s)| *s).collect();
        assert_eq!(from_r0, vec![1, 2], "FIFO per channel");
        assert_eq!(q.pending(), 0);
        assert_eq!(q.earliest_due(), None);
    }

    #[test]
    fn retry_queue_forgets_retired_units() {
        let mut q = RetryQueue::new(BackoffPolicy::default());
        let punct = |seq| BatchMessage::Punct(Punctuation { router: 0, seq });
        q.push(0, JoinerId(0), punct(1), 0);
        q.push(0, JoinerId(1), punct(2), 0);
        q.forget_unit(JoinerId(0));
        assert!(!q.has_pending(0, JoinerId(0)));
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn adaptive_routes_like_contrand_at_epoch_zero() {
        use crate::adaptive::AdaptiveShared;
        use crate::config::AdaptiveTuning;
        let layout = Layout::new(6, 6, 3).unwrap();
        let shared = AdaptiveShared::new(AdaptiveTuning::default(), 1, 3, 6, 8, 7);
        let mut ad =
            RouterCore::standalone(0, RoutingStrategy::Adaptive { subgroups: 3 }, equi(), 7);
        ad.attach_adaptive(shared.handle(0));
        let mut cr =
            RouterCore::standalone(0, RoutingStrategy::ContRand { subgroups: 3 }, equi(), 7);
        for k in 0..50 {
            let a = route_one(&mut ad, &layout, &tuple(Rel::R, k));
            let c = route_one(&mut cr, &layout, &tuple(Rel::R, k));
            // Same seed, same subgroup maths, same RNG draw count: the
            // epoch-0 adaptive plan IS ContRand.
            let (sa, ja) = stores_and_joins(&a);
            let (sc, jc) = stores_and_joins(&c);
            assert_eq!(sa, sc);
            let (mut ja, mut jc) = (ja, jc);
            ja.sort();
            jc.sort();
            assert_eq!(ja, jc);
        }
        assert_eq!(ad.stats(), cr.stats());
    }

    #[test]
    fn adaptive_without_attached_state_errors() {
        let layout = Layout::new(2, 2, 1).unwrap();
        let mut r =
            RouterCore::standalone(0, RoutingStrategy::Adaptive { subgroups: 1 }, equi(), 7);
        let mut out = Vec::new();
        assert!(r.route_batched(&tuple(Rel::R, 1), &layout, &[], &mut out).is_err());
    }

    #[test]
    fn adaptive_tick_updates_gauges_and_switch_counter() {
        use crate::adaptive::AdaptiveShared;
        use crate::config::AdaptiveTuning;
        let layout = Layout::new(4, 4, 1).unwrap();
        let shared = AdaptiveShared::new(AdaptiveTuning::default(), 1, 4, 4, 8, 7);
        let mut r =
            RouterCore::standalone(2, RoutingStrategy::Adaptive { subgroups: 4 }, equi(), 7);
        r.attach_adaptive(shared.handle(0));
        let reg = MetricsRegistry::new();
        r.attach_registry(&reg);
        shared.force_flip_every_tick(true);
        let mut out = Vec::new();
        r.route_batched(&tuple(Rel::R, 5), &layout, &[], &mut out).unwrap();
        r.punctuate_batched(&layout, &mut out);
        let snap = reg.scrape(0);
        let labels: &[(&str, &str)] = &[("router", "r2")];
        assert_eq!(
            snap.gauge(bistream_types::metric_names::ROUTER_ADAPTIVE_SUBGROUPS, labels),
            Some(1),
            "flip adopted d=1 at the fence"
        );
        assert_eq!(snap.gauge(bistream_types::metric_names::ROUTER_HOT_KEYS, labels), Some(0));
        assert_eq!(
            snap.counter(bistream_types::metric_names::ROUTER_STRATEGY_SWITCHES_TOTAL, labels),
            Some(1)
        );
        assert_eq!(shared.switches(), 1);
    }

    #[test]
    fn routing_survives_layout_growth() {
        let mut layout = Layout::new(2, 2, 1).unwrap();
        let mut r = RouterCore::standalone(0, RoutingStrategy::Random, equi(), 7);
        let before = route_one(&mut r, &layout, &tuple(Rel::R, 1));
        assert_eq!(before.len(), 3);
        layout.add_unit(Rel::S);
        let after = route_one(&mut r, &layout, &tuple(Rel::R, 1));
        assert_eq!(after.len(), 4, "join fan-out follows the layout");
    }
}
