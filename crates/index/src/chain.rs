//! The chained in-memory index proper.

use crate::sub::{IndexKind, SubIndex, ENTRY_OVERHEAD_BYTES};
use bistream_types::audit::Auditor;
use bistream_types::journal::{EventJournal, EventKind};
use bistream_types::metrics::{Counter, Gauge, Histogram};
use bistream_types::predicate::ProbePlan;
use bistream_types::registry::Observability;
use bistream_types::rel::Rel;
use bistream_types::time::Ts;
use bistream_types::tuple::Tuple;
use bistream_types::value::Value;
use bistream_types::window::WindowSpec;
use std::collections::VecDeque;
use std::sync::Arc;

/// One link of the chain: a sub-index plus the timestamp span of its
/// contents.
#[derive(Debug)]
struct Link {
    index: SubIndex,
    /// `(min_ts, max_ts)` of the stored tuples, or `None` while the link is
    /// empty. Making the span an `Option` (rather than the old
    /// `min_ts: Ts::MAX, max_ts: 0` sentinel pair) forces every reader to
    /// decide what an empty link means instead of silently comparing
    /// against an inverted span.
    span: Option<(Ts, Ts)>,
    count: usize,
    bytes: usize,
}

impl Link {
    fn new(kind: IndexKind) -> Link {
        Link { index: SubIndex::new(kind), span: None, count: 0, bytes: 0 }
    }

    /// Store `tuple`, charged `bytes` by the memory accounting.
    fn insert(&mut self, hash: u64, key: Value, tuple: Tuple, bytes: usize) {
        let ts = tuple.ts();
        self.span = Some(match self.span {
            Some((lo, hi)) => (lo.min(ts), hi.max(ts)),
            None => (ts, ts),
        });
        self.count += 1;
        self.bytes += bytes;
        self.index.insert(hash, key, tuple);
    }
}

/// What one expiry pass discarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Discarded {
    /// Tuples dropped.
    pub tuples: usize,
    /// Sub-indexes dropped (the joiner's cost model charges per link).
    pub sub_indexes: usize,
}

/// Cost/result statistics of one probe, fed to the joiner's CPU model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Key-matched candidates visited (incl. out-of-window ones).
    pub candidates: usize,
    /// Candidates that passed the pairwise window check and were yielded.
    pub in_window: usize,
    /// Sub-indexes touched by the probe.
    pub sub_indexes: usize,
}

/// Point-in-time statistics of the chain, fed to memory metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Live tuples stored (active + archived).
    pub tuples: usize,
    /// Accounted bytes of live state.
    pub bytes: usize,
    /// Number of sub-indexes (1 active + archived).
    pub sub_indexes: usize,
    /// Tuples discarded by expiry so far.
    pub expired_tuples: u64,
    /// Bytes discarded by expiry so far.
    pub expired_bytes: u64,
    /// Sub-indexes discarded by expiry so far.
    pub expired_sub_indexes: u64,
}

/// Per-index observability hooks: registry-backed gauges/counters plus the
/// shared event journal, labeled with the owning joiner's identity.
///
/// Created by the joiner via [`IndexObs::register`] and attached with
/// [`ChainedIndex::set_obs`]; the chain then keeps its live-size gauges
/// current and journals every archive/discard transition (the raw material
/// of the E6 expiry experiment).
#[derive(Debug)]
pub struct IndexObs {
    journal: EventJournal,
    side: Rel,
    unit: u32,
    sub_indexes: Arc<Gauge>,
    live_tuples: Arc<Gauge>,
    live_bytes: Arc<Gauge>,
    archived_tuples: Arc<Counter>,
    archived_bytes: Arc<Counter>,
    expired_tuples: Arc<Counter>,
    expired_bytes: Arc<Counter>,
    expired_sub_indexes: Arc<Counter>,
    /// Probe fan-out: how many chain links each probe touched — the
    /// per-probe cost the paper's chained-index design bounds via the
    /// archive period.
    probe_sub_indexes: Arc<Histogram>,
    /// Key-matched candidates visited per probe (incl. out-of-window).
    probe_candidates: Arc<Histogram>,
}

impl IndexObs {
    /// Register the chain's metric series under `joiner="<side><unit>"`
    /// (e.g. `joiner="R3"`) and hook up the shared journal.
    pub fn register(obs: &Observability, side: Rel, unit: u32) -> IndexObs {
        let joiner = format!("{side}{unit}");
        let labels: &[(&str, &str)] = &[("joiner", &joiner)];
        let reg = &obs.registry;
        IndexObs {
            journal: obs.journal.clone(),
            side,
            unit,
            sub_indexes: reg.gauge(bistream_types::metric_names::INDEX_SUB_INDEXES, labels),
            live_tuples: reg.gauge(bistream_types::metric_names::INDEX_LIVE_TUPLES, labels),
            live_bytes: reg.gauge(bistream_types::metric_names::INDEX_LIVE_BYTES, labels),
            archived_tuples: reg
                .counter(bistream_types::metric_names::INDEX_ARCHIVED_TUPLES_TOTAL, labels),
            archived_bytes: reg
                .counter(bistream_types::metric_names::INDEX_ARCHIVED_BYTES_TOTAL, labels),
            expired_tuples: reg
                .counter(bistream_types::metric_names::INDEX_EXPIRED_TUPLES_TOTAL, labels),
            expired_bytes: reg
                .counter(bistream_types::metric_names::INDEX_EXPIRED_BYTES_TOTAL, labels),
            expired_sub_indexes: reg
                .counter(bistream_types::metric_names::INDEX_EXPIRED_SUB_INDEXES_TOTAL, labels),
            probe_sub_indexes: reg
                .histogram(bistream_types::metric_names::INDEX_PROBE_SUB_INDEXES, labels),
            probe_candidates: reg
                .histogram(bistream_types::metric_names::INDEX_PROBE_CANDIDATES, labels),
        }
    }
}

/// The chained in-memory index: an active sub-index receiving inserts and
/// a FIFO chain of archived sub-indexes awaiting wholesale expiry.
///
/// ```
/// use bistream_index::{ChainedIndex, IndexKind};
/// use bistream_types::{predicate::ProbePlan, rel::Rel, tuple::Tuple,
///                      value::Value, window::WindowSpec};
///
/// let mut index = ChainedIndex::new(IndexKind::Hash, WindowSpec::sliding(1_000), 100);
/// index.insert(Value::Int(7), Tuple::new(Rel::R, 50, vec![Value::Int(7)]));
/// let mut hits = 0;
/// index.probe(&ProbePlan::ExactKey(Value::Int(7)), 60, |_| hits += 1);
/// assert_eq!(hits, 1);
/// // A much later insert seals the active sub-index into the chain…
/// index.insert(Value::Int(8), Tuple::new(Rel::R, 5_000, vec![Value::Int(8)]));
/// // …and an opposite-side arrival a window later expires the old one.
/// assert_eq!(index.expire(2_000), 1);
/// index.probe(&ProbePlan::ExactKey(Value::Int(7)), 2_000, |_| unreachable!());
/// ```
#[derive(Debug)]
pub struct ChainedIndex {
    kind: IndexKind,
    window: WindowSpec,
    /// Archive period `P` in milliseconds: the timestamp span after which
    /// the active sub-index is sealed.
    period: Ts,
    active: Link,
    /// Archived links, oldest first.
    archived: VecDeque<Link>,
    /// Live tuples and accounted bytes over all links, kept as running
    /// totals: the joiner reads them after every frame.
    tuples: usize,
    bytes: usize,
    expired_tuples: u64,
    expired_bytes: u64,
    expired_sub_indexes: u64,
    obs: Option<IndexObs>,
    /// Invariant auditor plus the owning joiner's label (e.g. `"R3"`);
    /// every wholesale discard is checked against Theorem 1.
    audit: Option<(Auditor, String)>,
    /// Test hook: hash every key to 0, so that each hash link keeps all
    /// its keys on one collision chain.
    #[cfg(test)]
    collide_all: bool,
}

impl ChainedIndex {
    /// Create a chain for `kind` over `window`, sealing the active
    /// sub-index every `period` milliseconds of timestamp span.
    ///
    /// A `period` of zero is treated as 1 (each timestamp tick gets its own
    /// sub-index); callers wanting the single-index behaviour should use
    /// [`crate::naive::NaiveWindowIndex`] instead.
    pub fn new(kind: IndexKind, window: WindowSpec, period: Ts) -> ChainedIndex {
        ChainedIndex {
            kind,
            window,
            period: period.max(1),
            active: Link::new(kind),
            archived: VecDeque::new(),
            tuples: 0,
            bytes: 0,
            expired_tuples: 0,
            expired_bytes: 0,
            expired_sub_indexes: 0,
            obs: None,
            audit: None,
            #[cfg(test)]
            collide_all: false,
        }
    }

    /// A chain whose hash links see one hash for every key: lookups must
    /// then be decided by key equality alone.
    #[cfg(test)]
    fn new_colliding(kind: IndexKind, window: WindowSpec, period: Ts) -> ChainedIndex {
        ChainedIndex { collide_all: true, ..ChainedIndex::new(kind, window, period) }
    }

    /// The hash of `key` in this chain's links, computed once per insert
    /// and once per probe however many links the probe then visits.
    fn key_hash(&self, key: &Value) -> u64 {
        #[cfg(test)]
        if self.collide_all {
            return 0;
        }
        self.active.index.key_hash(key)
    }

    /// [`key_hash`](ChainedIndex::key_hash) of the key `plan` looks up.
    fn plan_hash(&self, plan: &ProbePlan) -> u64 {
        #[cfg(test)]
        if self.collide_all {
            return 0;
        }
        self.active.index.plan_hash(plan)
    }

    /// Attach the invariant [`Auditor`]: every wholesale discard performed
    /// by [`ChainedIndex::expire`] is then checked against Theorem 1 (the
    /// dropped link's newest tuple must be more than one window older than
    /// the incoming opposite-side timestamp) under `owner`'s label.
    pub fn set_auditor(&mut self, auditor: Auditor, owner: String) {
        self.audit = Some((auditor, owner));
    }

    /// Attach observability hooks (see [`IndexObs::register`]). The gauges
    /// are initialised from the chain's current state.
    pub fn set_obs(&mut self, obs: IndexObs) {
        self.obs = Some(obs);
        self.sync_gauges();
    }

    /// Push the live-size gauges to the registry, if hooks are attached.
    fn sync_gauges(&self) {
        if let Some(obs) = &self.obs {
            obs.sub_indexes.set(1 + self.archived.len() as u64);
            obs.live_tuples.set(self.tuples as u64);
            obs.live_bytes.set(self.bytes as u64);
        }
    }

    /// The window this chain enforces.
    pub fn window(&self) -> WindowSpec {
        self.window
    }

    /// The archive period `P`.
    pub fn period(&self) -> Ts {
        self.period
    }

    /// **Data indexing**: store `tuple` under `key`.
    ///
    /// The tuple enters the active sub-index; if that widens the active
    /// span beyond `P`, the active sub-index is sealed into the chain and a
    /// fresh one is started *containing this tuple* — sealing happens
    /// before insertion so each link's span never exceeds `P`.
    pub fn insert(&mut self, key: Value, tuple: Tuple) {
        self.insert_inner(key, tuple);
        self.sync_gauges();
    }

    /// **Batched data indexing**: store a run of `(key, tuple)` pairs in
    /// order. Semantically identical to calling [`ChainedIndex::insert`]
    /// per pair — sealing decisions are made tuple by tuple — but the
    /// gauge sync to the registry is amortised to once per batch.
    ///
    /// Returns the number of tuples inserted.
    pub fn insert_batch<I: IntoIterator<Item = (Value, Tuple)>>(&mut self, items: I) -> usize {
        let mut n = 0;
        for (key, tuple) in items {
            self.insert_inner(key, tuple);
            n += 1;
        }
        if n > 0 {
            self.sync_gauges();
        }
        n
    }

    fn insert_inner(&mut self, key: Value, tuple: Tuple) {
        if let Some((min_ts, max_ts)) = self.active.span {
            let span_after = max_ts.max(tuple.ts()).saturating_sub(min_ts.min(tuple.ts()));
            if span_after > self.period {
                let sealed = std::mem::replace(&mut self.active, Link::new(self.kind));
                if let Some(obs) = &self.obs {
                    obs.archived_tuples.add(sealed.count as u64);
                    obs.archived_bytes.add(sealed.bytes as u64);
                    obs.journal.record(
                        tuple.ts(),
                        EventKind::SubIndexArchived {
                            side: obs.side,
                            unit: obs.unit,
                            tuples: sealed.count as u64,
                            bytes: sealed.bytes as u64,
                        },
                    );
                }
                self.archived.push_back(sealed);
            }
        }
        let hash = self.key_hash(&key);
        let bytes = tuple.size_bytes() + ENTRY_OVERHEAD_BYTES;
        self.tuples += 1;
        self.bytes += bytes;
        self.active.insert(hash, key, tuple, bytes);
    }

    /// **Data discarding** (Theorem 1 at sub-index granularity): drop every
    /// archived sub-index whose newest tuple is more than one window older
    /// than `incoming_ts` (the timestamp of an opposite-relation tuple just
    /// received). Returns the number of tuples discarded.
    ///
    /// Only archived links are considered; the active link is still
    /// receiving inserts and is never dropped wholesale.
    pub fn expire(&mut self, incoming_ts: Ts) -> usize {
        self.discard(incoming_ts).tuples
    }

    /// [`expire`](ChainedIndex::expire), also reporting how many
    /// sub-indexes went.
    pub fn discard(&mut self, incoming_ts: Ts) -> Discarded {
        let mut dropped = Discarded::default();
        while let Some(front) = self.archived.front() {
            let stale = match front.span {
                // An empty link holds no state worth keeping; drop it.
                None => true,
                Some((_, max_ts)) => self.window.is_expired(max_ts, incoming_ts),
            };
            if stale {
                let Some(link) = self.archived.pop_front() else { break };
                if let Some((auditor, owner)) = &self.audit {
                    let (min_ts, max_ts) = link.span.unwrap_or((Ts::MAX, 0));
                    auditor.index_discard(
                        owner,
                        min_ts,
                        max_ts,
                        link.count as u64,
                        incoming_ts,
                        self.window.size(),
                    );
                }
                dropped.tuples += link.count;
                dropped.sub_indexes += 1;
                self.tuples -= link.count;
                self.bytes -= link.bytes;
                self.expired_tuples += link.count as u64;
                self.expired_bytes += link.bytes as u64;
                self.expired_sub_indexes += 1;
                if let Some(obs) = &self.obs {
                    obs.expired_tuples.add(link.count as u64);
                    obs.expired_bytes.add(link.bytes as u64);
                    obs.expired_sub_indexes.inc();
                    obs.journal.record(
                        incoming_ts,
                        EventKind::SubIndexDiscarded {
                            side: obs.side,
                            unit: obs.unit,
                            tuples: link.count as u64,
                            bytes: link.bytes as u64,
                        },
                    );
                }
            } else {
                // Links are archived in timestamp order under the ordering
                // protocol, so the first live link ends the scan.
                break;
            }
        }
        if dropped.sub_indexes > 0 {
            self.sync_gauges();
        }
        dropped
    }

    /// **Join processing**: visit every stored tuple that key-matches
    /// `plan` *and* is within one window of `probe_ts`, across the active
    /// and all archived sub-indexes.
    ///
    /// The caller is responsible for any residual predicate check (only
    /// needed for `FullScan` plans) and for calling [`expire`] first —
    /// probing does not discard.
    ///
    /// [`expire`]: ChainedIndex::expire
    pub fn probe<F: FnMut(&Tuple)>(&self, plan: &ProbePlan, probe_ts: Ts, mut f: F) -> ProbeStats {
        let mut stats = ProbeStats::default();
        let window = self.window;
        let hash = self.plan_hash(plan);
        for link in self.archived.iter().chain(std::iter::once(&self.active)) {
            // Empty links have no span and nothing to probe.
            let Some((min_ts, max_ts)) = link.span else { continue };
            // Skip links entirely out of window scope (cheap span check).
            if !window.in_scope(max_ts, probe_ts) && !window.in_scope(min_ts, probe_ts) {
                // The whole span is on one side of the window iff both ends
                // are out on the same side; spans straddling the window
                // would have one end in scope.
                if max_ts < probe_ts || min_ts > probe_ts {
                    continue;
                }
            }
            stats.sub_indexes += 1;
            stats.candidates += link.index.probe(plan, hash, |t| {
                if window.in_scope(t.ts(), probe_ts) {
                    stats.in_window += 1;
                    f(t);
                }
            });
        }
        if let Some(obs) = &self.obs {
            obs.probe_sub_indexes.record(stats.sub_indexes as u64);
            obs.probe_candidates.record(stats.candidates as u64);
        }
        stats
    }

    /// **Batched join processing**: run several probes over the chain in
    /// one call. On ordered and scan chains each sub-index is visited once
    /// (link-major traversal) instead of walking the whole chain per
    /// probe, with exact-key probes sorted by key so lookups inside each
    /// link touch the sub-index in key order. A hash chain runs the probes
    /// one by one: neither order buys a hash lookup anything, and going
    /// probe by probe needs no buffer to restore the delivery order.
    ///
    /// Each probe is `(plan, probe_ts)`; `f` receives the probe's position
    /// in `probes` and each in-window match. Matches are delivered grouped
    /// by probe in input order, and within one probe in the exact order a
    /// standalone [`ChainedIndex::probe`] would yield them, so downstream
    /// emission order is independent of the batching. Per-probe
    /// [`ProbeStats`] are returned (and recorded per probe in the attached
    /// histograms), identical to what `k` standalone probes would report.
    pub fn probe_batch<F: FnMut(usize, &Tuple)>(
        &self,
        probes: &[(ProbePlan, Ts)],
        mut f: F,
    ) -> Vec<ProbeStats> {
        if self.kind == IndexKind::Hash {
            return probes
                .iter()
                .enumerate()
                .map(|(i, (plan, probe_ts))| self.probe(plan, *probe_ts, |t| f(i, t)))
                .collect();
        }
        let mut stats = vec![ProbeStats::default(); probes.len()];
        if probes.is_empty() {
            return stats;
        }
        // Key-sorted visit order: exact keys ascending, then ranges, then
        // full scans; ties broken by input position for determinism.
        let mut order: Vec<usize> = (0..probes.len()).collect();
        order.sort_by(|&a, &b| {
            let (pa, pb) = (&probes[a].0, &probes[b].0);
            plan_rank(pa)
                .cmp(&plan_rank(pb))
                .then_with(|| match (pa, pb) {
                    (ProbePlan::ExactKey(x), ProbePlan::ExactKey(y)) => x.cmp(y),
                    _ => std::cmp::Ordering::Equal,
                })
                .then(a.cmp(&b))
        });
        // Matches are buffered per probe (tuple clones are refcount bumps)
        // so emission order stays probe-major even though the traversal is
        // link-major.
        let mut matched: Vec<Vec<Tuple>> = vec![Vec::new(); probes.len()];
        let window = self.window;
        for link in self.archived.iter().chain(std::iter::once(&self.active)) {
            let Some((min_ts, max_ts)) = link.span else { continue };
            for &i in &order {
                let (plan, probe_ts) = &probes[i];
                let probe_ts = *probe_ts;
                // Same span-scope skip as the standalone probe.
                if !window.in_scope(max_ts, probe_ts)
                    && !window.in_scope(min_ts, probe_ts)
                    && (max_ts < probe_ts || min_ts > probe_ts)
                {
                    continue;
                }
                let s = &mut stats[i];
                s.sub_indexes += 1;
                let sink = &mut matched[i];
                let mut in_window = 0;
                // Ordered and scan links take no hash.
                s.candidates += link.index.probe(plan, 0, |t| {
                    if window.in_scope(t.ts(), probe_ts) {
                        in_window += 1;
                        sink.push(t.clone());
                    }
                });
                s.in_window += in_window;
            }
        }
        for (i, hits) in matched.iter().enumerate() {
            for t in hits {
                f(i, t);
            }
        }
        if let Some(obs) = &self.obs {
            for s in &stats {
                obs.probe_sub_indexes.record(s.sub_indexes as u64);
                obs.probe_candidates.record(s.candidates as u64);
            }
        }
        stats
    }

    /// Visit every live `(key, tuple)` entry across the chain (archived
    /// links first, then the active one) — snapshot support.
    pub(crate) fn for_each_entry<F: FnMut(&Value, &Tuple)>(&self, mut f: F) {
        for link in self.archived.iter().chain(std::iter::once(&self.active)) {
            link.index.for_each_entry(&mut f);
        }
    }

    /// Current size statistics.
    pub fn stats(&self) -> ChainStats {
        ChainStats {
            tuples: self.tuples,
            bytes: self.bytes,
            sub_indexes: 1 + self.archived.len(),
            expired_tuples: self.expired_tuples,
            expired_bytes: self.expired_bytes,
            expired_sub_indexes: self.expired_sub_indexes,
        }
    }

    /// Live tuple count (active + archived).
    pub fn len(&self) -> usize {
        self.tuples
    }

    /// True if no live tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Visit-order class of a probe plan inside a batch: exact keys first
/// (sorted by key), then ranges, then full scans.
fn plan_rank(plan: &ProbePlan) -> u8 {
    match plan {
        ProbePlan::ExactKey(_) => 0,
        ProbePlan::Range { .. } => 1,
        ProbePlan::FullScan => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistream_types::rel::Rel;

    fn t(ts: Ts, k: i64) -> Tuple {
        Tuple::new(Rel::R, ts, vec![Value::Int(k)])
    }

    fn chain(window_ms: Ts, period: Ts) -> ChainedIndex {
        ChainedIndex::new(IndexKind::Hash, WindowSpec::sliding(window_ms), period)
    }

    fn exact(k: i64) -> ProbePlan {
        ProbePlan::ExactKey(Value::Int(k))
    }

    #[test]
    fn inserts_accumulate_in_active_until_period_exceeded() {
        let mut c = chain(1_000, 100);
        for ts in [0, 50, 100] {
            c.insert(Value::Int(1), t(ts, 1));
        }
        assert_eq!(c.stats().sub_indexes, 1, "span 100 == P stays active");
        c.insert(Value::Int(1), t(101, 1));
        assert_eq!(c.stats().sub_indexes, 2, "span 101 > P seals");
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn probe_finds_matches_across_links_within_window() {
        let mut c = chain(1_000, 10);
        for ts in (0..100).step_by(20) {
            c.insert(Value::Int(7), t(ts, 7));
        }
        let mut hits = 0;
        let stats = c.probe(&exact(7), 100, |_| hits += 1);
        assert_eq!(hits, 5);
        assert_eq!(stats.in_window, 5);
        assert!(stats.sub_indexes >= 2, "chain actually chained");
        // A different key finds nothing.
        let stats = c.probe(&exact(8), 100, |_| panic!("no match"));
        assert_eq!(stats.in_window, 0);
    }

    #[test]
    fn probe_applies_pairwise_window_check() {
        let mut c = chain(100, 1_000); // everything stays in one active link
        c.insert(Value::Int(1), t(0, 1));
        c.insert(Value::Int(1), t(500, 1));
        let mut hits = Vec::new();
        c.probe(&exact(1), 550, |t| hits.push(t.ts()));
        assert_eq!(hits, vec![500], "ts=0 is out of the 100ms window");
    }

    #[test]
    fn expire_drops_whole_archived_links_only() {
        let mut c = chain(100, 50);
        // Three sealed links (~spans of 50) plus an active one.
        for ts in (0..=300).step_by(25) {
            c.insert(Value::Int(1), t(ts, 1));
        }
        let before = c.stats();
        assert!(before.sub_indexes >= 3);
        // Incoming opposite tuple at ts=400: links with max_ts < 300 die.
        let dropped = c.expire(400);
        assert!(dropped > 0);
        let after = c.stats();
        assert_eq!(after.tuples, before.tuples - dropped);
        assert_eq!(after.expired_tuples, dropped as u64);
    }

    #[test]
    fn expire_never_touches_active_link() {
        let mut c = chain(10, 1_000_000); // one giant active link
        c.insert(Value::Int(1), t(0, 1));
        c.insert(Value::Int(1), t(5, 1));
        assert_eq!(c.expire(1_000), 0, "active link survives even if stale");
        assert_eq!(c.len(), 2);
        // …but probes filter its stale contents.
        let mut hits = 0;
        c.probe(&exact(1), 1_000, |_| hits += 1);
        assert_eq!(hits, 0);
    }

    #[test]
    fn full_history_window_never_expires() {
        let mut c = ChainedIndex::new(IndexKind::Hash, WindowSpec::FullHistory, 100);
        for ts in (0..1000).step_by(100) {
            c.insert(Value::Int(1), t(ts, 1));
        }
        assert_eq!(c.expire(1_000_000), 0);
        let mut hits = 0;
        c.probe(&exact(1), 1_000_000, |_| hits += 1);
        assert_eq!(hits, 10);
    }

    #[test]
    fn memory_accounting_rises_and_falls() {
        let mut c = chain(100, 20);
        for ts in (0..=200).step_by(10) {
            c.insert(Value::Int(1), t(ts, 1));
        }
        let peak = c.stats().bytes;
        assert!(peak > 0);
        c.expire(1_000);
        let after = c.stats().bytes;
        assert!(after < peak);
        // Only the active link remains after a full-window expiry.
        assert_eq!(c.stats().sub_indexes, 1);
    }

    #[test]
    fn zero_period_is_clamped() {
        let c = ChainedIndex::new(IndexKind::Hash, WindowSpec::sliding(10), 0);
        assert_eq!(c.period(), 1);
    }

    #[test]
    fn obs_tracks_archive_and_discard() {
        use bistream_types::registry::Observability;

        let obs = Observability::new();
        let mut c = chain(100, 50);
        c.set_obs(IndexObs::register(&obs, Rel::R, 2));
        for ts in (0..=300).step_by(25) {
            c.insert(Value::Int(1), t(ts, 1));
        }
        c.expire(400);
        c.probe(&exact(1), 400, |_| {});
        let snap = obs.registry.scrape(400);
        let labels: &[(&str, &str)] = &[("joiner", "R2")];
        assert!(
            snap.get(bistream_types::metric_names::INDEX_PROBE_SUB_INDEXES, labels).is_some(),
            "probe fan-out histogram fed"
        );
        assert!(snap.get(bistream_types::metric_names::INDEX_PROBE_CANDIDATES, labels).is_some());
        let stats = c.stats();
        assert_eq!(
            snap.gauge(bistream_types::metric_names::INDEX_LIVE_TUPLES, labels),
            Some(stats.tuples as u64)
        );
        assert_eq!(
            snap.gauge(bistream_types::metric_names::INDEX_SUB_INDEXES, labels),
            Some(stats.sub_indexes as u64)
        );
        assert_eq!(
            snap.counter(bistream_types::metric_names::INDEX_EXPIRED_TUPLES_TOTAL, labels),
            Some(stats.expired_tuples)
        );
        assert_eq!(
            snap.counter(bistream_types::metric_names::INDEX_EXPIRED_BYTES_TOTAL, labels),
            Some(stats.expired_bytes)
        );
        assert!(stats.expired_bytes > 0);
        let events = obs.journal.drain();
        assert!(events.iter().any(|e| matches!(
            e.kind,
            bistream_types::journal::EventKind::SubIndexArchived { side: Rel::R, unit: 2, .. }
        )));
        assert!(events.iter().any(|e| e.ts == 400
            && matches!(
                e.kind,
                bistream_types::journal::EventKind::SubIndexDiscarded { side: Rel::R, unit: 2, .. }
            )));
    }

    #[test]
    fn empty_link_has_no_span_and_is_skipped_by_probe_and_expiry() {
        // Regression for the old `min_ts: Ts::MAX, max_ts: 0` sentinel
        // pair: an empty-but-present link must never contribute its
        // (previously inverted) span to probe scope-skips or expiry
        // decisions.
        assert_eq!(Link::new(IndexKind::Hash).span, None);
        let mut c = chain(100, 50);
        // Force an empty archived link directly — the degenerate state the
        // sentinel made dangerous.
        c.archived.push_back(Link::new(IndexKind::Hash));
        c.insert(Value::Int(1), t(10, 1));
        let mut hits = 0;
        let stats = c.probe(&exact(1), 10, |_| hits += 1);
        assert_eq!(hits, 1, "live tuple still found");
        assert_eq!(stats.sub_indexes, 1, "empty link not counted as probed");
        let mut batch_hits = 0;
        c.probe_batch(&[(exact(1), 10)], |_, _| batch_hits += 1);
        assert_eq!(batch_hits, 1);
        // Expiry drops the empty link without charging any tuples/bytes…
        assert_eq!(c.expire(10), 0);
        let stats = c.stats();
        assert_eq!(stats.expired_tuples, 0);
        assert_eq!(stats.expired_sub_indexes, 1);
        // …and the live (active) tuple survives.
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn auditor_accepts_lawful_discards_and_catches_premature_ones() {
        use bistream_types::audit::Auditor;

        // Lawful expiry through the chain: zero violations, including for
        // the empty-link fast path.
        let auditor = Auditor::new();
        let mut c = chain(100, 50);
        c.set_auditor(auditor.clone(), "R0".into());
        c.archived.push_back(Link::new(IndexKind::Hash));
        for ts in (0..=300).step_by(25) {
            c.insert(Value::Int(1), t(ts, 1));
        }
        assert!(c.expire(500) > 0);
        assert_eq!(auditor.violation_count(), 0, "{:?}", auditor.take_violations());

        // The same hook flags a discard whose newest tuple is still inside
        // the window — what a buggy expiry path would emit.
        auditor.index_discard("R0", 0, 450, 3, 500, Some(100));
        assert_eq!(auditor.violation_count(), 1, "premature discard not flagged");
        let v = auditor.take_violations();
        assert!(v[0].message.contains("Theorem 1"), "{v:?}");
    }

    #[test]
    fn candidates_count_includes_out_of_window_hits() {
        let mut c = chain(10, 1_000_000);
        c.insert(Value::Int(1), t(0, 1));
        c.insert(Value::Int(1), t(100, 1));
        let stats = c.probe(&exact(1), 105, |_| {});
        assert_eq!(stats.candidates, 2);
        assert_eq!(stats.in_window, 1);
    }

    #[test]
    fn insert_batch_matches_sequential_inserts() {
        let mut a = chain(1_000, 50);
        let mut b = chain(1_000, 50);
        let items: Vec<(Value, Tuple)> =
            (0..20).map(|i| (Value::Int(i % 3), t(i as Ts * 10, i % 3))).collect();
        for (k, tup) in items.clone() {
            a.insert(k, tup);
        }
        assert_eq!(b.insert_batch(items), 20);
        assert_eq!(a.stats(), b.stats(), "same seals, same accounting");
        assert_eq!(b.insert_batch(std::iter::empty()), 0);
    }

    #[test]
    fn probe_batch_matches_standalone_probes() {
        let mut c = chain(1_000, 10);
        for ts in (0..100).step_by(5) {
            c.insert(Value::Int((ts % 15) as i64), t(ts, (ts % 15) as i64));
        }
        // Deliberately unsorted keys, with a duplicate.
        let probes: Vec<(ProbePlan, Ts)> =
            [10i64, 0, 5, 10].iter().map(|&k| (exact(k), 100)).collect();
        let mut batched: Vec<Vec<Ts>> = vec![Vec::new(); probes.len()];
        let batch_stats = c.probe_batch(&probes, |i, t| batched[i].push(t.ts()));
        for (i, (plan, probe_ts)) in probes.iter().enumerate() {
            let mut alone = Vec::new();
            let stats = c.probe(plan, *probe_ts, |t| alone.push(t.ts()));
            assert_eq!(batched[i], alone, "probe {i} yields the same matches in the same order");
            assert_eq!(batch_stats[i], stats, "probe {i} reports the same stats");
        }
    }

    #[test]
    fn probe_batch_groups_matches_by_probe_in_input_order() {
        let mut c = chain(1_000, 5);
        for ts in 0..30 {
            c.insert(Value::Int(0), t(ts, 0));
        }
        let probes = vec![(exact(0), 30), (exact(0), 30)];
        let mut seen = Vec::new();
        c.probe_batch(&probes, |i, _| seen.push(i));
        let flip = seen.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(flip, 1, "all matches of probe 0 before all matches of probe 1");
        assert_eq!(seen.len(), 60);
    }

    /// Drive one chain through a seeded random sequence of inserts, probes
    /// (standalone and batched), expiries and snapshot → restore swaps,
    /// checking every probe against [`NaiveWindowIndex`] and against a
    /// plain list filtered with `Value::eq` / `Value::cmp` (the naive
    /// index shares `SubIndex` with the chain; the list shares nothing).
    fn check_against_oracles(kind: IndexKind, collide: bool, seed: u64) {
        use crate::naive::NaiveWindowIndex;
        use bistream_types::fault::SplitMix64;
        use std::ops::{Bound, RangeBounds};

        let window = WindowSpec::sliding(60);
        let fresh = || {
            if collide {
                ChainedIndex::new_colliding(kind, window, 16)
            } else {
                ChainedIndex::new(kind, window, 16)
            }
        };
        let mut rng = SplitMix64::new(seed);
        let mut chain = fresh();
        let mut naive = NaiveWindowIndex::new(kind, window);
        let mut list: Vec<(Value, Tuple)> = Vec::new();
        // Few keys, so that keys repeat inside a link (One → Many); each
        // number comes as an Int, as the Float equal to it, as a Float
        // next to it, and as a Str.
        let key = |rng: &mut SplitMix64| {
            let k = rng.next_below(12) as i64;
            match rng.next_below(4) {
                0 => Value::Int(k),
                1 => Value::Float(k as f64),
                2 => Value::Float(k as f64 + 0.5),
                _ => Value::Str(format!("k{k}")),
            }
        };
        let id = |t: &Tuple| t.get(1).and_then(Value::as_int).expect("id attribute");
        let mut ts: Ts = 0;
        for step in 0..400i64 {
            ts += rng.next_below(6);
            match rng.next_below(10) {
                0..=4 => {
                    let k = key(&mut rng);
                    let t = Tuple::new(Rel::R, ts, vec![k.clone(), Value::Int(step)]);
                    naive.insert(k.clone(), t.clone());
                    list.push((k.clone(), t.clone()));
                    chain.insert(k, t);
                }
                5..=7 => {
                    let plans: Vec<(ProbePlan, Ts)> = (0..1 + rng.next_below(3))
                        .map(|_| {
                            let plan = match (kind, rng.next_below(3)) {
                                (IndexKind::Scan, _) | (_, 0) => ProbePlan::FullScan,
                                (IndexKind::Ordered, 1) => {
                                    let (a, b) = (key(&mut rng), key(&mut rng));
                                    ProbePlan::Range {
                                        lo: Bound::Included(a.clone().min(b.clone())),
                                        hi: Bound::Excluded(a.max(b)),
                                    }
                                }
                                _ => ProbePlan::ExactKey(key(&mut rng)),
                            };
                            (plan, ts)
                        })
                        .collect();
                    let mut batched: Vec<Vec<i64>> = vec![Vec::new(); plans.len()];
                    let stats = chain.probe_batch(&plans, |i, t| batched[i].push(id(t)));
                    for (i, (plan, probe_ts)) in plans.iter().enumerate() {
                        let mut alone = Vec::new();
                        let alone_stats = chain.probe(plan, *probe_ts, |t| alone.push(id(t)));
                        assert_eq!(batched[i], alone, "{kind:?} seed {seed} step {step}: batch");
                        assert_eq!(stats[i], alone_stats);
                        assert_eq!(alone_stats.in_window, alone.len());
                        let mut from_naive = Vec::new();
                        naive.probe(plan, *probe_ts, |t| from_naive.push(id(t)));
                        let mut from_list: Vec<i64> = list
                            .iter()
                            .filter(|(k, t)| {
                                window.in_scope(t.ts(), *probe_ts)
                                    && match plan {
                                        ProbePlan::ExactKey(want) => k == want,
                                        ProbePlan::Range { lo, hi } => {
                                            (lo.clone(), hi.clone()).contains(k)
                                        }
                                        ProbePlan::FullScan => true,
                                    }
                            })
                            .map(|(_, t)| id(t))
                            .collect();
                        alone.sort_unstable();
                        from_naive.sort_unstable();
                        from_list.sort_unstable();
                        assert_eq!(alone, from_naive, "{kind:?} seed {seed} step {step}: {plan:?}");
                        assert_eq!(alone, from_list, "{kind:?} seed {seed} step {step}: {plan:?}");
                    }
                }
                8 => {
                    naive.expire(ts);
                    chain.expire(ts);
                    assert!(chain.len() >= naive.len(), "link-granular expiry keeps a superset");
                }
                _ => {
                    let blob = crate::snapshot::snapshot(&chain);
                    let mut restored = fresh();
                    assert_eq!(crate::snapshot::restore(&mut restored, blob).unwrap(), chain.len());
                    chain = restored;
                }
            }
            // The running totals are the sums they replaced.
            let links = || chain.archived.iter().chain(std::iter::once(&chain.active));
            assert_eq!(chain.stats().tuples, links().map(|l| l.count).sum::<usize>());
            assert_eq!(chain.stats().bytes, links().map(|l| l.bytes).sum::<usize>());
        }
    }

    #[test]
    fn random_sequences_agree_with_the_naive_index_and_a_plain_list() {
        for seed in 0..12 {
            for kind in [IndexKind::Hash, IndexKind::Ordered, IndexKind::Scan] {
                check_against_oracles(kind, false, seed);
            }
        }
    }

    #[test]
    fn fully_colliding_hash_links_fall_back_to_key_equality() {
        for seed in 0..12 {
            check_against_oracles(IndexKind::Hash, true, seed);
        }
    }

    #[test]
    fn probe_batch_handles_empty_and_mixed_plans() {
        let mut c = chain(1_000, 10);
        c.insert(Value::Int(3), t(10, 3));
        assert!(c.probe_batch(&[], |_, _| panic!("no probes")).is_empty());
        let probes = vec![(ProbePlan::FullScan, 20), (exact(3), 20), (exact(9), 20)];
        let mut hits = vec![0usize; probes.len()];
        let stats = c.probe_batch(&probes, |i, _| hits[i] += 1);
        assert_eq!(hits, vec![1, 1, 0]);
        assert_eq!(stats[1].in_window, 1);
        assert_eq!(stats[2].candidates, 0);
    }
}
