//! Skew-adaptive routing: self-tuning ContRand with punctuation-fenced
//! strategy switches.
//!
//! The paper's ContRand scheme fixes the subgroup count `d` at deployment
//! time. This module makes the router self-tuning in the style of PanJoin:
//!
//! - every router maintains a **space-saving** heavy-hitter summary over
//!   the key hashes it routes (bounded memory, no per-tuple allocation on
//!   the store path);
//! - a **periodic tuning step** — run at punctuation ticks under one
//!   shared lock, never on the per-tuple path — classifies keys into a
//!   *hot* tier (stored on a random unit of the whole side, probed by
//!   broadcasting to the whole opposite side) and a *cold* tier (plain
//!   ContRand under the current `d`), and re-tunes `d` from the merged
//!   per-unit store-load series;
//! - a strategy switch installs as an **epoch change** under a two-phase,
//!   punctuation-fenced migration protocol (below), so pairwise FIFO and
//!   the reorder/watermark frontiers are never violated mid-flight.
//!
//! # The fence protocol
//!
//! A stored tuple stays where its *store-time* plan put it until it leaves
//! the window, so join completeness requires every router to probe the
//! union of all plans that stored still-live tuples. A naive "adopt the
//! new plan when you feel like it" scheme breaks exactly this: router A
//! stores a tuple under epoch `e+1` while router B still computes probe
//! destinations under `e` only, and B's later tuples miss A's storage
//! location. The protocol here:
//!
//! 1. A tuning step *publishes* a new [`RoutePlan`] as **pending**.
//! 2. Each router, at its own punctuation tick (after its batches are
//!    flushed and the punctuation is emitted — the fence), **acks** the
//!    pending plan and adds it to its *probe union* only.
//! 3. When every registered router has acked, the plan **commits** (the
//!    epoch counter advances); each router *adopts* it as its **store**
//!    plan at a subsequent tick. Hence: a tuple stored under `e+1`
//!    implies every router was already probing both `e` and `e+1`.
//! 4. A superseded store plan's coverage *retires* from the probe union
//!    only after enough ticks that every tuple stored under it has left
//!    the window.
//!
//! The test-only [`AdaptiveRouter::debug_unfenced_adopt`] hook violates
//! step 2/4 on purpose (adopt immediately, drop old probe coverage); the
//! Auditor's output oracle catches the resulting missed results.

use crate::config::{AdaptiveTuning, EngineConfig, RoutingStrategy};
use crate::layout::{JoinerId, Layout};
use bistream_types::error::{Error, Result};
use bistream_types::hash::{bucket_of, FxHashMap};
use bistream_types::punct::RouterId;
use bistream_types::rel::Rel;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One space-saving summary entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsEntry {
    /// The tracked key hash.
    pub key: u64,
    /// Estimated count (overestimate: true count is in
    /// `[count - err, count]`).
    pub count: u64,
    /// Maximum overestimation error inherited from the evicted entry.
    pub err: u64,
}

/// The space-saving heavy-hitter summary of Metwally et al.: at most
/// `capacity` monitored keys, with the classical guarantees that every
/// key with true frequency above `total / capacity` is present and every
/// entry's error is at most `total / capacity`.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    entries: Vec<SsEntry>,
    index: FxHashMap<u64, usize>,
}

impl SpaceSaving {
    /// An empty summary tracking at most `capacity` keys (clamped to 1).
    pub fn new(capacity: usize) -> SpaceSaving {
        let capacity = capacity.max(1);
        SpaceSaving { capacity, entries: Vec::with_capacity(capacity), index: FxHashMap::default() }
    }

    /// Count one occurrence of key hash `h`.
    pub fn observe(&mut self, h: u64) {
        self.observe_by(h, 1);
    }

    /// Count `by` occurrences of key hash `h` (also the merge primitive).
    pub fn observe_by(&mut self, h: u64, by: u64) {
        if by == 0 {
            return;
        }
        if let Some(&i) = self.index.get(&h) {
            self.entries[i].count = self.entries[i].count.saturating_add(by);
            return;
        }
        if self.entries.len() < self.capacity {
            self.index.insert(h, self.entries.len());
            self.entries.push(SsEntry { key: h, count: by, err: 0 });
            return;
        }
        // Evict the minimum-count entry; the newcomer inherits its count
        // as error bound.
        let mut mi = 0;
        for (i, e) in self.entries.iter().enumerate() {
            if e.count < self.entries[mi].count {
                mi = i;
            }
        }
        let evicted = self.entries[mi];
        self.index.remove(&evicted.key);
        self.index.insert(h, mi);
        self.entries[mi] =
            SsEntry { key: h, count: evicted.count.saturating_add(by), err: evicted.count };
    }

    /// Add `other`'s entries into this summary.
    pub fn merge(&mut self, other: &SpaceSaving) {
        for e in &other.entries {
            self.observe_by(e.key, e.count);
        }
    }

    /// Halve every count and error; drops entries decayed to zero.
    pub fn decay(&mut self) {
        for e in &mut self.entries {
            e.count /= 2;
            e.err /= 2;
        }
        self.entries.retain(|e| e.count > 0);
        self.index.clear();
        for (i, e) in self.entries.iter().enumerate() {
            self.index.insert(e.key, i);
        }
    }

    /// Forget everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }

    /// Currently monitored entries (at most `capacity`).
    pub fn entries(&self) -> &[SsEntry] {
        &self.entries
    }

    /// The monitored-key capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Key hashes whose *guaranteed* frequency (`count - err`) is at
    /// least `min_share_ppm` parts-per-million of `total`, the heaviest
    /// `cap` of them, sorted ascending (ready for binary search).
    pub fn hot_keys(&self, total: u64, min_share_ppm: u32, cap: usize) -> Vec<u64> {
        let threshold = ((u128::from(total) * u128::from(min_share_ppm)) / 1_000_000) as u64;
        let mut heavy: Vec<&SsEntry> = self
            .entries
            .iter()
            .filter(|e| e.count.saturating_sub(e.err) >= threshold.max(1))
            .collect();
        heavy.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        heavy.truncate(cap);
        let mut keys: Vec<u64> = heavy.into_iter().map(|e| e.key).collect();
        keys.sort_unstable();
        keys
    }
}

/// One epoch of the adaptive strategy: a subgroup count for the cold tier
/// plus the sorted hot-key set routed with widened fan-out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutePlan {
    /// Monotone epoch number; commits advance it by exactly one.
    pub epoch: u64,
    /// ContRand subgroup count `d` for cold keys.
    pub subgroups: usize,
    /// Sorted key hashes of the hot tier.
    pub hot: Vec<u64>,
}

impl RoutePlan {
    /// The epoch-0 plan every router starts from: no hot keys, the
    /// configured base subgroup count.
    pub fn base(subgroups: usize) -> RoutePlan {
        RoutePlan { epoch: 0, subgroups: subgroups.max(1), hot: Vec::new() }
    }

    /// Is key hash `h` in the hot tier?
    pub fn is_hot(&self, h: u64) -> bool {
        self.hot.binary_search(&h).is_ok()
    }
}

/// A published-but-not-yet-committed plan and which routers have fenced
/// it into their probe unions.
#[derive(Debug)]
struct Pending {
    plan: RoutePlan,
    acked: Vec<bool>,
}

/// Tuner state shared by all routers of one engine, touched only at
/// punctuation ticks (never on the per-tuple path).
#[derive(Debug)]
struct Inner {
    committed: RoutePlan,
    pending: Option<Pending>,
    ss: SpaceSaving,
    /// Merged per-unit store counts — the per-unit load series `d` is
    /// re-tuned from.
    loads: FxHashMap<JoinerId, u64>,
    total: u64,
    ticks: u64,
    /// Debug: force a strategy flip proposal on every tick (switch-storm
    /// harness).
    flip: bool,
    /// Debug: force exactly one flip proposal at the next tick (the
    /// deterministic mid-stream switch of the equivalence harness).
    flip_once: bool,
}

/// The engine-wide adaptive routing state: the committed plan, the
/// pending two-phase switch, and the merged summaries the tuner reads.
///
/// Routers interact through per-router [`AdaptiveRouter`] handles; the
/// shared side is locked once per punctuation tick per router.
#[derive(Debug)]
pub struct AdaptiveShared {
    tuning: AdaptiveTuning,
    routers: usize,
    max_subgroups: usize,
    /// Router-ticks between tuning steps (`tune_every_puncts` rounds).
    tune_period: u64,
    retire_ticks: u64,
    // protocol: field epoch monotone plan-commit clock; written with
    // store-Release by the committing router while holding `inner`, read
    // with load-Acquire by observers; the mutex orders commits, the
    // atomic is the lock-free read-side fast path.
    epoch: AtomicU64,
    // protocol: field switches monotone event counter; fetch_add-Relaxed
    // at commit (under `inner`), load-Relaxed by observers; counts
    // committed strategy switches only, so readers need no ordering.
    switches: AtomicU64,
    inner: Mutex<Inner>,
}

impl AdaptiveShared {
    /// Shared state for `routers` routers starting from
    /// [`RoutePlan::base`]`(base_subgroups)`.
    ///
    /// `max_subgroups` bounds `d` from above (at most `min(n, m)`),
    /// `retire_ticks` is how many punctuation ticks a superseded store
    /// plan stays in the probe union (window span / punctuation interval,
    /// plus slack). `_seed` is ignored — nothing in the tuner is seeded —
    /// and stays only because callers pass six arguments.
    pub fn new(
        tuning: AdaptiveTuning,
        routers: usize,
        base_subgroups: usize,
        max_subgroups: usize,
        retire_ticks: u64,
        _seed: u64,
    ) -> Arc<AdaptiveShared> {
        let routers = routers.max(1);
        Arc::new(AdaptiveShared {
            tuning,
            routers,
            max_subgroups: max_subgroups.max(1),
            tune_period: u64::from(tuning.tune_every_puncts.max(1)) * routers as u64,
            retire_ticks: retire_ticks.max(1),
            epoch: AtomicU64::new(0),
            switches: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                committed: RoutePlan::base(base_subgroups),
                pending: None,
                ss: SpaceSaving::new(tuning.hot_capacity.max(1) * 8),
                loads: FxHashMap::default(),
                total: 0,
                ticks: 0,
                flip: false,
                flip_once: false,
            }),
        })
    }

    /// The shared state of an engine running `config` on `routers` routers:
    /// one tuner spanning all of them under [`RoutingStrategy::Adaptive`],
    /// `None` under the static strategies. Superseded probe coverage must
    /// outlive the join window, measured in punctuation ticks (a
    /// full-history window pins it forever); `d` may grow to the smaller
    /// side's unit count.
    pub fn for_engine(config: &EngineConfig, routers: usize) -> Option<Arc<AdaptiveShared>> {
        let RoutingStrategy::Adaptive { subgroups } = config.routing else { return None };
        let punct = config.punctuation_interval_ms.max(1);
        let retire_ticks =
            config.window.size().map_or(u64::MAX / 2, |w| (w / punct).saturating_add(2));
        Some(AdaptiveShared::new(
            config.adaptive,
            routers,
            subgroups,
            config.r_joiners.min(config.s_joiners),
            retire_ticks,
            config.seed,
        ))
    }

    /// A per-router handle. `router` must be one of the `routers` ids
    /// (`0..routers`) declared at construction.
    pub fn handle(self: &Arc<AdaptiveShared>, router: RouterId) -> AdaptiveRouter {
        let base = self.lock().committed.clone();
        AdaptiveRouter {
            shared: Arc::clone(self),
            router,
            ss: SpaceSaving::new(self.tuning.hot_capacity.max(1) * 8),
            loads: FxHashMap::default(),
            total: 0,
            retire_ticks: self.retire_ticks,
            probes: vec![ProbeEntry {
                subgroups: base.subgroups,
                hot: base.hot.clone(),
                ttl: None,
            }],
            store_plan: base,
            skip_fence: false,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// How many routers the switch protocol's ack set was sized for.
    pub fn router_count(&self) -> usize {
        self.routers
    }

    /// The committed epoch (0 until the first switch commits).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Committed strategy switches so far.
    pub fn switches(&self) -> u64 {
        self.switches.load(Ordering::Relaxed)
    }

    /// The currently committed plan (clone; test/metrics use).
    pub fn current_plan(&self) -> RoutePlan {
        self.lock().committed.clone()
    }

    /// Is a published switch still awaiting acks?
    pub fn has_pending(&self) -> bool {
        self.lock().pending.is_some()
    }

    /// Debug/test: make the tuner propose a subgroup flip on every tick
    /// regardless of the observed statistics (the switch-storm harness).
    pub fn force_flip_every_tick(&self, on: bool) {
        self.lock().flip = on;
    }

    /// Debug/test: propose exactly one subgroup flip at the next
    /// punctuation tick. Unlike [`force_flip_every_tick`], this makes the
    /// *count* of switches deterministic: the equivalence harness
    /// quiesces the feed, requests one flip, waits for
    /// [`AdaptiveShared::switches`] to advance and resumes — so the
    /// stream is partitioned identically across backends.
    ///
    /// [`force_flip_every_tick`]: AdaptiveShared::force_flip_every_tick
    pub fn request_flip(&self) {
        self.lock().flip_once = true;
    }
}

/// One probe-union entry: a plan's *coverage* (what it makes a key probe)
/// plus its remaining lifetime. `ttl: None` pins the entry (current store
/// plan or a pending plan); `Some(t)` retires it after `t` ticks.
#[derive(Debug, Clone)]
struct ProbeEntry {
    subgroups: usize,
    hot: Vec<u64>,
    ttl: Option<u64>,
}

/// What a punctuation tick changed, for the router's metric series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickReport {
    /// Epoch of the store plan after the tick.
    pub epoch: u64,
    /// Cold-tier subgroup count of the store plan after the tick.
    pub subgroups: usize,
    /// Hot-tier size of the store plan after the tick.
    pub hot_len: usize,
    /// Did this tick adopt a new store plan?
    pub adopted: bool,
}

/// Per-router adaptive routing state: a local summary fed from the hot
/// path, the router's current store plan, and the probe union of every
/// plan that may still hold live tuples.
#[derive(Debug)]
pub struct AdaptiveRouter {
    shared: Arc<AdaptiveShared>,
    router: RouterId,
    ss: SpaceSaving,
    loads: FxHashMap<JoinerId, u64>,
    total: u64,
    retire_ticks: u64,
    store_plan: RoutePlan,
    probes: Vec<ProbeEntry>,
    skip_fence: bool,
}

impl AdaptiveRouter {
    /// Feed one routed key hash into the local summary (hot path;
    /// bounded memory, no allocation beyond the summary's fixed
    /// capacity).
    pub fn observe(&mut self, h: u64) {
        self.ss.observe(h);
        self.total += 1;
    }

    /// The store destination for key hash `h` on side `own` under the
    /// current store plan: a random unit of the whole side for hot keys,
    /// a random unit of the key's ContRand subgroup for cold keys.
    pub fn store_dest<R: Rng>(
        &mut self,
        layout: &Layout,
        own: Rel,
        h: u64,
        rng: &mut R,
    ) -> Result<JoinerId> {
        let units = layout.units(own);
        if units.is_empty() {
            return Err(Error::Config(format!("side {own} has no units")));
        }
        let pick = if self.store_plan.is_hot(h) {
            units[rng.gen_range(0..units.len())]
        } else {
            let d = self.store_plan.subgroups.clamp(1, units.len());
            let g = bucket_of(h, d);
            // Subgroup membership is positional (`i mod d == g`), so the
            // members are g, g+d, g+2d, … — pick one without collecting.
            let members = (units.len() - 1 - g) / d + 1;
            units[g + rng.gen_range(0..members) * d]
        };
        *self.loads.entry(pick).or_insert(0) += 1;
        Ok(pick)
    }

    /// The join-probe destinations for key hash `h` against side `opp`:
    /// the union of every probe-plan's coverage, deduplicated. Complete
    /// by the fence protocol: every plan that stored a still-live tuple
    /// is in the union.
    pub fn join_dests(&self, layout: &Layout, opp: Rel, h: u64) -> Vec<JoinerId> {
        let units = layout.units(opp);
        let mut out = Vec::new();
        for e in &self.probes {
            if e.hot.binary_search(&h).is_ok() {
                out.extend_from_slice(units);
            } else if !units.is_empty() {
                let d = e.subgroups.clamp(1, units.len());
                let g = bucket_of(h, d);
                out.extend(units.iter().enumerate().filter(|(i, _)| i % d == g).map(|(_, &u)| u));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The current store plan.
    pub fn store_plan(&self) -> &RoutePlan {
        &self.store_plan
    }

    /// How many distinct plan coverages the probe union currently holds.
    pub fn probe_coverages(&self) -> usize {
        self.probes.len()
    }

    /// Handle on the engine-wide shared state.
    pub fn shared(&self) -> &Arc<AdaptiveShared> {
        &self.shared
    }

    /// Debug/test: arm or disarm the fence-skipping bug hook (see
    /// [`AdaptiveRouter::debug_unfenced_adopt`]).
    pub fn set_skip_fence(&mut self, on: bool) {
        self.skip_fence = on;
    }

    /// Is the fence-skipping bug hook armed?
    pub fn fence_skipped(&self) -> bool {
        self.skip_fence
    }

    /// Pin `coverage` into the probe union (refreshing an existing entry
    /// with the same coverage instead of duplicating it).
    fn pin(&mut self, subgroups: usize, hot: &[u64]) {
        if let Some(e) = self.probes.iter_mut().find(|e| e.subgroups == subgroups && e.hot == hot) {
            e.ttl = None;
        } else {
            self.probes.push(ProbeEntry { subgroups, hot: hot.to_vec(), ttl: None });
        }
    }

    /// Adopt `plan` as the store plan: the old store coverage starts
    /// retiring (unless it is also `keep`, the still-pending coverage),
    /// the new coverage is pinned.
    fn adopt(&mut self, plan: RoutePlan, keep: Option<&RoutePlan>) {
        let retire = self.retire_ticks;
        for e in &mut self.probes {
            if e.ttl.is_none() {
                let is_new = e.subgroups == plan.subgroups && e.hot == plan.hot;
                let is_kept = keep.is_some_and(|k| e.subgroups == k.subgroups && e.hot == k.hot);
                if !is_new && !is_kept {
                    e.ttl = Some(retire);
                }
            }
        }
        self.pin(plan.subgroups, &plan.hot.clone());
        self.store_plan = plan;
    }

    /// The punctuation-tick fence point. Call right after this router
    /// flushed its batches and emitted its punctuation: merges the local
    /// summary into the shared tuner state, acks/commits/adopts pending
    /// switches, retires expired probe coverages and runs the tuning step
    /// when due.
    pub fn tick(&mut self) -> TickReport {
        // Age out retiring probe coverages (the store plan's coverage is
        // pinned and never expires here).
        for e in &mut self.probes {
            if let Some(t) = e.ttl.as_mut() {
                *t -= 1;
            }
        }
        self.probes.retain(|e| e.ttl != Some(0));

        let mut adopted = false;
        let shared = Arc::clone(&self.shared);
        let mut guard = shared.lock();
        let inner = &mut *guard;

        // 1. Merge this router's local deltas into the tuner state.
        inner.ss.merge(&self.ss);
        self.ss.clear();
        for (u, c) in self.loads.drain() {
            *inner.loads.entry(u).or_insert(0) += c;
        }
        inner.total += self.total;
        self.total = 0;

        // 2. Ack any pending plan: its coverage enters our probe union
        //    *before* any router may store under it — the completeness
        //    half of the fence.
        let idx = self.router as usize;
        let mut commit: Option<RoutePlan> = None;
        if let Some(p) = inner.pending.as_mut() {
            if let Some(slot) = p.acked.get_mut(idx) {
                *slot = true;
            }
            if p.acked.iter().all(|&a| a) {
                commit = Some(p.plan.clone());
            }
        }
        if let Some(p) = inner.pending.as_ref() {
            self.pin(p.plan.subgroups, &p.plan.hot.clone());
        }
        if let Some(plan) = commit {
            inner.pending = None;
            shared.epoch.store(plan.epoch, Ordering::Release);
            shared.switches.fetch_add(1, Ordering::Relaxed);
            inner.committed = plan;
        }

        // 3. Adopt the newest committed plan as our store plan. Safe: we
        //    acked (hence probe) it before it could commit.
        if inner.committed.epoch > self.store_plan.epoch {
            let new = inner.committed.clone();
            let keep = inner.pending.as_ref().map(|p| p.plan.clone());
            self.adopt(new, keep.as_ref());
            adopted = true;
        }

        // 4. Tuning step (or the debug flip storm), only when no switch
        //    is in flight.
        inner.ticks += 1;
        if inner.pending.is_none() {
            let next_epoch = inner.committed.epoch + 1;
            let proposal = if inner.flip || inner.flip_once {
                inner.flip_once = false;
                let d = if inner.committed.subgroups == 1 { shared.max_subgroups } else { 1 };
                (d != inner.committed.subgroups).then(|| RoutePlan {
                    epoch: next_epoch,
                    subgroups: d,
                    hot: inner.committed.hot.clone(),
                })
            } else if inner.ticks.is_multiple_of(shared.tune_period) {
                let p = retune(inner, &shared.tuning, shared.max_subgroups, next_epoch);
                inner.ss.decay();
                for c in inner.loads.values_mut() {
                    *c /= 2;
                }
                inner.total /= 2;
                p
            } else {
                None
            };
            if let Some(plan) = proposal {
                let mut acked = vec![false; shared.routers];
                if let Some(slot) = acked.get_mut(idx) {
                    *slot = true; // the publisher is at its fence right now
                }
                self.pin(plan.subgroups, &plan.hot.clone());
                if acked.iter().all(|&a| a) {
                    // Single-router engine: publish, ack and commit are
                    // one step.
                    shared.epoch.store(plan.epoch, Ordering::Release);
                    shared.switches.fetch_add(1, Ordering::Relaxed);
                    inner.committed = plan.clone();
                    self.adopt(plan, None);
                    adopted = true;
                } else {
                    inner.pending = Some(Pending { plan, acked });
                }
            }
        }

        TickReport {
            epoch: self.store_plan.epoch,
            subgroups: self.store_plan.subgroups,
            hot_len: self.store_plan.hot.len(),
            adopted,
        }
    }

    /// Test-only bug hook: adopt the newest published plan immediately,
    /// mid-stream, *without* waiting for the punctuation fence — and drop
    /// every older coverage from the probe union. Violates the protocol's
    /// completeness invariant: tuples stored under the old plan stop
    /// being probed, so join results go missing — which is exactly what
    /// the Auditor's output oracle is armed to catch.
    pub fn debug_unfenced_adopt(&mut self) {
        let shared = Arc::clone(&self.shared);
        let mut guard = shared.lock();
        let inner = &mut *guard;
        let target = match inner.pending.as_mut() {
            Some(p) => {
                if let Some(slot) = p.acked.get_mut(self.router as usize) {
                    *slot = true;
                }
                p.plan.clone()
            }
            None => inner.committed.clone(),
        };
        drop(guard);
        if target.epoch > self.store_plan.epoch {
            self.probes.clear();
            self.probes.push(ProbeEntry {
                subgroups: target.subgroups,
                hot: target.hot.clone(),
                ttl: None,
            });
            self.store_plan = target;
        }
    }
}

/// Widen subgroups (halve `d`) when the max/mean per-unit store load
/// reaches this percentage.
const WIDEN_ABOVE_PCT: u64 = 200;
/// Narrow subgroups (double `d`) when the max/mean per-unit store load
/// falls to this percentage.
const NARROW_BELOW_PCT: u64 = 120;

/// Compute a new plan from the merged statistics, or `None` when the
/// committed plan still fits.
fn retune(
    inner: &Inner,
    tuning: &AdaptiveTuning,
    max_subgroups: usize,
    next_epoch: u64,
) -> Option<RoutePlan> {
    if inner.total == 0 {
        return None;
    }
    let hot = inner.ss.hot_keys(inner.total, tuning.hot_min_share_ppm, tuning.hot_capacity);
    let d = inner.committed.subgroups;
    let mut new_d = d;
    if inner.loads.len() >= 2 {
        let max = inner.loads.values().copied().max().unwrap_or(0);
        let sum: u64 = inner.loads.values().sum();
        let mean = sum / inner.loads.len() as u64;
        if let Some(pct) = max.saturating_mul(100).checked_div(mean) {
            if pct >= WIDEN_ABOVE_PCT {
                // Load concentrates: widen the subgroups (halve d) so
                // cold-key storage spreads over more units.
                new_d = (d / 2).max(1);
            } else if pct <= NARROW_BELOW_PCT {
                // Balanced: narrow the subgroups (double d) to shrink
                // the probe fan-out.
                new_d = (d * 2).min(max_subgroups);
            }
        }
    }
    if hot == inner.committed.hot && new_d == d {
        return None;
    }
    Some(RoutePlan { epoch: next_epoch, subgroups: new_d, hot })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn tuning() -> AdaptiveTuning {
        AdaptiveTuning::default()
    }

    #[test]
    fn space_saving_bounds_memory_and_error() {
        let cap = 16;
        let mut ss = SpaceSaving::new(cap);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut total = 0u64;
        for _ in 0..50_000 {
            let k = (rng.gen_range(0..400u64)).pow(2) / 400;
            ss.observe(k);
            *truth.entry(k).or_insert(0) += 1;
            total += 1;
        }
        assert!(ss.entries().len() <= cap, "bounded memory");
        for e in ss.entries() {
            let t = truth.get(&e.key).copied().unwrap_or(0);
            assert!(e.count >= t, "count is an overestimate");
            assert!(e.count - e.err <= t, "guaranteed count is a lower bound");
            assert!(e.err <= total / cap as u64, "classical error bound");
        }
    }

    #[test]
    fn space_saving_finds_zipf_heavy_hitters() {
        let mut ss = SpaceSaving::new(64);
        let mut rng = StdRng::seed_from_u64(11);
        let mut total = 0u64;
        for _ in 0..40_000 {
            // Key 1 takes ~30 % of the stream; the rest is a long tail.
            let k = if rng.gen_range(0..10) < 3 { 1 } else { rng.gen_range(2..5_000u64) };
            ss.observe(k);
            total += 1;
        }
        let hot = ss.hot_keys(total, 20_000, 16);
        assert!(hot.contains(&1), "the 30 % key is hot");
        assert!(hot.len() <= 16);
        assert!(hot.windows(2).all(|w| w[0] < w[1]), "sorted for binary search");
    }

    #[test]
    fn single_router_switch_commits_at_the_same_tick() {
        let shared = AdaptiveShared::new(tuning(), 1, 2, 4, 8, 9);
        let mut r = shared.handle(0);
        shared.force_flip_every_tick(true);
        let report = r.tick();
        assert!(report.adopted, "single router commits and adopts in one step");
        assert_eq!(shared.epoch(), 1);
        assert_eq!(shared.switches(), 1);
        assert_eq!(r.store_plan().subgroups, 1, "flip: non-1 d flips to 1");
        assert!(r.probe_coverages() >= 2, "old coverage retires, is not dropped");
    }

    #[test]
    fn request_flip_is_one_shot() {
        let shared = AdaptiveShared::new(tuning(), 1, 2, 4, 8, 9);
        let mut r = shared.handle(0);
        shared.request_flip();
        assert!(r.tick().adopted, "the requested flip commits at the next tick");
        assert_eq!(shared.switches(), 1);
        for _ in 0..5 {
            r.tick();
        }
        assert_eq!(shared.switches(), 1, "one request, exactly one switch");
        shared.request_flip();
        r.tick();
        assert_eq!(shared.switches(), 2);
    }

    #[test]
    fn two_phase_switch_requires_every_ack() {
        let shared = AdaptiveShared::new(tuning(), 2, 2, 4, 8, 9);
        let mut a = shared.handle(0);
        let mut b = shared.handle(1);
        // One switch, not a storm: under `force_flip_every_tick` b would
        // publish epoch 2 at the fence where it commits epoch 1, and a's
        // next tick would lawfully ack, commit and adopt that one instead.
        shared.request_flip();

        // a publishes + self-acks: pending, not committed.
        assert!(!a.tick().adopted);
        assert_eq!(shared.epoch(), 0, "one ack of two: no commit");
        assert!(shared.has_pending());
        assert!(a.probe_coverages() >= 2, "publisher probes the pending plan already");

        // b acks at its fence: all acks in, commit.
        let rb = b.tick();
        assert_eq!(shared.epoch(), 1, "second ack commits");
        assert_eq!(shared.switches(), 1);
        assert!(rb.adopted, "the committing router adopts at the same fence");

        // a adopts at its next fence; until then it stores under the old
        // plan, which b still probes (it never dropped epoch-0 coverage).
        assert_eq!(a.store_plan().epoch, 0);
        assert!(a.tick().adopted);
        assert_eq!(a.store_plan().epoch, 1);
    }

    #[test]
    fn superseded_coverage_retires_after_its_ttl() {
        let retire = 3;
        let shared = AdaptiveShared::new(tuning(), 1, 2, 4, retire, 9);
        let mut r = shared.handle(0);
        shared.force_flip_every_tick(true);
        r.tick();
        shared.force_flip_every_tick(false);
        assert_eq!(r.probe_coverages(), 2, "old + new coverage");
        for _ in 0..retire {
            r.tick();
        }
        assert_eq!(r.probe_coverages(), 1, "old coverage aged out");
    }

    #[test]
    fn probe_union_covers_both_plans_during_a_switch() {
        let layout = Layout::new(4, 4, 1).unwrap();
        let shared = AdaptiveShared::new(tuning(), 1, 4, 4, 8, 9);
        let mut r = shared.handle(0);
        let h = 0xDEAD_BEEF;
        let before = r.join_dests(&layout, Rel::S, h);
        shared.force_flip_every_tick(true);
        r.tick(); // flip 4 -> 1: coarse coverage joins the union
        let during = r.join_dests(&layout, Rel::S, h);
        assert!(during.len() >= before.len(), "union only widens mid-switch");
        assert!(before.iter().all(|u| during.contains(u)), "old coverage kept");
        assert_eq!(during.len(), 4, "d=1 coverage is the whole side");
    }

    #[test]
    fn unfenced_adopt_drops_old_coverage() {
        let shared = AdaptiveShared::new(tuning(), 2, 4, 4, 8, 9);
        let mut a = shared.handle(0);
        let mut b = shared.handle(1);
        shared.force_flip_every_tick(true);
        a.tick(); // pending published (4 -> 1)
        b.debug_unfenced_adopt();
        assert_eq!(b.store_plan().subgroups, 1, "adopted mid-stream");
        assert_eq!(b.probe_coverages(), 1, "old coverage dropped: the bug");
    }

    #[test]
    fn hot_keys_store_anywhere_and_probe_everywhere() {
        let layout = Layout::new(4, 4, 4).unwrap();
        let shared = AdaptiveShared::new(tuning(), 1, 4, 4, 8, 9);
        let mut r = shared.handle(0);
        let hot = 0x1234;
        // Install a plan with one hot key by hand (via the tuner: feed a
        // massively skewed stream, then tick until a tune step runs).
        for _ in 0..10_000 {
            r.observe(hot);
        }
        for _ in 0..(tuning().tune_every_puncts + 1) {
            r.tick();
        }
        assert!(r.store_plan().is_hot(hot), "the 100 % key went hot");
        let probes = r.join_dests(&layout, Rel::S, hot);
        assert_eq!(probes.len(), 4, "hot key probes the whole opposite side");
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(r.store_dest(&layout, Rel::R, hot, &mut rng).unwrap());
        }
        assert_eq!(seen.len(), 4, "hot key stores across the whole own side");
    }

    #[test]
    fn cold_keys_stay_in_their_subgroup() {
        let layout = Layout::new(6, 6, 3).unwrap();
        let shared = AdaptiveShared::new(tuning(), 1, 3, 6, 8, 9);
        let mut r = shared.handle(0);
        let mut rng = StdRng::seed_from_u64(5);
        for h in 0..50u64 {
            let g = bucket_of(h, 3);
            let dest = r.store_dest(&layout, Rel::R, h, &mut rng).unwrap();
            assert_eq!(layout.subgroup_of(Rel::R, dest), Some(g));
            let probes = r.join_dests(&layout, Rel::S, h);
            let expect: Vec<_> = layout.subgroup_units(Rel::S, g).collect();
            assert_eq!(probes, expect, "cold coverage is the ContRand subgroup");
        }
    }
}
