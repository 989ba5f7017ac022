//! The chained in-memory index proper.

use crate::sub::{IndexKind, Sealed, SortedRun, SubIndex, ENTRY_OVERHEAD_BYTES};
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

/// Sealed ordered links are merged while the result spans at most the
/// window divided by this (a full-history chain has no such cap). The
/// span of a link is how long its oldest tuple can outstay its own
/// expiry, so this trades retention for links per probe: at 4, a full
/// window is probed in 6–9 links whatever `P` is (8.2 instead of 21.6 at
/// `P` = W/20, 7.1 instead of 93 at W/100), and a chain keeps at most a
/// quarter-window of expired tuples, a tenth on average (CHANGES.md,
/// PR 17; the array layout more than pays for them in memory).
const MERGE_SPAN_DIVISOR: Ts = 4;

/// Two adjacent runs are merged only while the older holds at most this
/// many times the tuples of the newer. Where merging stops, each run is
/// more than twice the next newer one, so a chain that never expires holds
/// O(log n) runs; and a run absorbed as the older side grows by half or
/// more, so a tuple is copied O(log n) times over its life.
const MERGE_SIZE_RATIO: usize = 2;

/// One link of the chain: a sub-index plus the timestamp span of its
/// contents. The head link holds a [`SubIndex`]; an archived one holds it
/// [`Sealed`].
#[derive(Debug)]
struct Link<S> {
    index: S,
    /// `(min_ts, max_ts)` of the stored tuples, or `None` while the link is
    /// empty. Making the span an `Option` (rather than the old
    /// `min_ts: Ts::MAX, max_ts: 0` sentinel pair) forces every reader to
    /// decide what an empty link means instead of silently comparing
    /// against an inverted span.
    span: Option<(Ts, Ts)>,
    count: usize,
    bytes: usize,
}

impl<S> Link<S> {
    /// Whether a probe at `probe_ts` has to look inside: false for an
    /// empty link and for one whose whole span is out of window scope.
    fn in_reach(&self, window: WindowSpec, probe_ts: Ts) -> bool {
        let Some((min_ts, max_ts)) = self.span else { return false };
        // The whole span is on one side of the window iff both ends are
        // out of scope on the same side; a span straddling the window has
        // the probe between its ends.
        window.in_scope(max_ts, probe_ts)
            || window.in_scope(min_ts, probe_ts)
            || (min_ts <= probe_ts && probe_ts <= max_ts)
    }
}

impl Link<SubIndex> {
    fn new(kind: IndexKind) -> Link<SubIndex> {
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

    fn seal(self) -> Link<Sealed> {
        Link {
            index: self.index.seal(self.count),
            span: self.span,
            count: self.count,
            bytes: self.bytes,
        }
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
/// An archived link is immutable. A hash or scan link is kept as it was
/// built; an ordered link is frozen into a sorted run the moment it is
/// sealed, and adjacent runs are then merged, LSM-style, while the merged
/// run spans at most a quarter of the window and the two are of
/// comparable size (`MERGE_SPAN_DIVISOR`, `MERGE_SIZE_RATIO`). The archive
/// period `P` therefore bounds the span of the *head* link — how often a
/// link is sealed, and the finest grain at which state can be discarded —
/// while W/4 bounds the span of an ordered *archived* link: how many
/// links a range probe visits (6–9 per window, whatever `P`) and how long
/// an expired tuple can stay resident before the link it sits in goes.
/// Theorem-1 discard is unchanged: a link goes when its newest tuple has
/// expired, merged or not.
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
    active: Link<SubIndex>,
    /// Archived links, oldest first.
    archived: VecDeque<Link<Sealed>>,
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
    /// before insertion so the active span never exceeds `P`.
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
                self.archived.push_back(sealed.seal());
                self.merge_newest_runs();
            }
        }
        let hash = self.key_hash(&key);
        let bytes = tuple.size_bytes() + ENTRY_OVERHEAD_BYTES;
        self.tuples += 1;
        self.bytes += bytes;
        self.active.insert(hash, key, tuple, bytes);
    }

    /// Merge the two newest archived links while both are sorted runs, the
    /// merged span stays within the cap and the older is not much bigger
    /// than the newer (see `MERGE_SPAN_DIVISOR`, `MERGE_SIZE_RATIO`).
    ///
    /// Two adjacent links always span more than `P` together (the tuple
    /// that sealed the older one sits in the newer), so a chain whose
    /// period is a quarter-window or more never merges.
    fn merge_newest_runs(&mut self) {
        let max_span = self.window.size().map_or(Ts::MAX, |w| w / MERGE_SPAN_DIVISOR);
        while self.archived.len() >= 2 {
            let (Some(newer), Some(older)) = (self.archived.pop_back(), self.archived.pop_back())
            else {
                return;
            };
            let span = match (older.span, newer.span) {
                (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
                (span, None) | (None, span) => span,
            };
            let fits = span.is_none_or(|(min_ts, max_ts)| max_ts - min_ts <= max_span)
                && older.count <= newer.count.saturating_mul(MERGE_SIZE_RATIO);
            match (older.index, newer.index) {
                (Sealed::Run(a), Sealed::Run(b)) if fits => self.archived.push_back(Link {
                    index: Sealed::Run(SortedRun::merge(a, b)),
                    span,
                    count: older.count + newer.count,
                    bytes: older.bytes + newer.bytes,
                }),
                (a, b) => {
                    self.archived.push_back(Link { index: a, ..older });
                    self.archived.push_back(Link { index: b, ..newer });
                    return;
                }
            }
        }
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
        let window = self.window;
        let hash = self.plan_hash(plan);
        let (mut sub_indexes, mut candidates, mut in_window) = (0, 0, 0);
        let mut live = |t: &Tuple| {
            if window.in_scope(t.ts(), probe_ts) {
                in_window += 1;
                f(t);
            }
        };
        for link in self.archived.iter().filter(|l| l.in_reach(window, probe_ts)) {
            sub_indexes += 1;
            candidates += link.index.probe(plan, hash, &mut live);
        }
        if self.active.in_reach(window, probe_ts) {
            sub_indexes += 1;
            candidates += self.active.index.probe(plan, hash, &mut live);
        }
        let stats = ProbeStats { candidates, in_window, sub_indexes };
        if let Some(obs) = &self.obs {
            obs.probe_sub_indexes.record(stats.sub_indexes as u64);
            obs.probe_candidates.record(stats.candidates as u64);
        }
        stats
    }

    /// **Batched join processing**: run several probes over the chain in
    /// one call, one after the other, whatever the flavour. Going link by
    /// link with the probes sorted by key measured no faster, on hash
    /// tables or on sorted runs, and needs a buffer per probe to restore
    /// the delivery order.
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
        probes
            .iter()
            .enumerate()
            .map(|(i, (plan, probe_ts))| self.probe(plan, *probe_ts, |t| f(i, t)))
            .collect()
    }

    /// Visit every live `(key, tuple)` entry across the chain (archived
    /// links first, then the active one) — snapshot support.
    pub(crate) fn for_each_entry<F: FnMut(&Value, &Tuple)>(&self, mut f: F) {
        for link in &self.archived {
            link.index.for_each_entry(&mut f);
        }
        self.active.index.for_each_entry(&mut f);
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
        c.archived.push_back(Link::new(IndexKind::Hash).seal());
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
        c.archived.push_back(Link::new(IndexKind::Hash).seal());
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
    /// checking every probe against [`NaiveWindowIndex`] (one B-tree or
    /// hash table, never frozen or merged) and against a plain list
    /// filtered with `Value::eq` / `Value::cmp`, which shares nothing.
    /// Returns whether the chain ever held a merged link.
    fn check_against_oracles(
        kind: IndexKind,
        collide: bool,
        window: WindowSpec,
        period: Ts,
        seed: u64,
    ) -> bool {
        use crate::naive::NaiveWindowIndex;
        use bistream_types::fault::SplitMix64;
        use std::ops::{Bound, RangeBounds};

        let fresh = || {
            if collide {
                ChainedIndex::new_colliding(kind, window, period)
            } else {
                ChainedIndex::new(kind, window, period)
            }
        };
        let mut rng = SplitMix64::new(seed);
        let mut chain = fresh();
        let mut naive = NaiveWindowIndex::new(kind, window);
        let mut list: Vec<(Value, Tuple)> = Vec::new();
        let mut merged = false;
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
        // Ranges: mostly lo ≤ hi, one in six on a single key, one in six
        // as drawn (so possibly inverted); either end included, excluded
        // or, now and then, open.
        let range = |rng: &mut SplitMix64| {
            let (a, b) = (key(rng), key(rng));
            let (a, b) = match rng.next_below(6) {
                0 => (a.clone(), a),
                1 => (a, b),
                _ => (a.clone().min(b.clone()), a.max(b)),
            };
            let mut end = |v: Value| match rng.next_below(7) {
                0 => Bound::Unbounded,
                1..=3 => Bound::Included(v),
                _ => Bound::Excluded(v),
            };
            ProbePlan::Range { lo: end(a), hi: end(b) }
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
                                (IndexKind::Ordered, 1) => range(&mut rng),
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
                                            (lo.as_ref(), hi.as_ref()).contains(k)
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
            let sealed =
                |of: fn(&Link<Sealed>) -> usize| chain.archived.iter().map(of).sum::<usize>();
            assert_eq!(chain.stats().tuples, sealed(|l| l.count) + chain.active.count);
            assert_eq!(chain.stats().bytes, sealed(|l| l.bytes) + chain.active.bytes);
            // A sealed link spans at most P; two adjacent ones always more.
            merged |=
                chain.archived.iter().any(|l| l.span.is_some_and(|(lo, hi)| hi - lo > period));
        }
        merged
    }

    /// 60 / 16 is the chain as it was before links merged: W/4 < P, so
    /// nothing ever does. The other two merge, one under the span cap and
    /// one without it.
    const ORACLE_CONFIGS: [(WindowSpec, Ts); 3] = [
        (WindowSpec::TimeSliding { ws: 60 }, 16),
        (WindowSpec::TimeSliding { ws: 240 }, 8),
        (WindowSpec::FullHistory, 8),
    ];

    #[test]
    fn random_sequences_agree_with_the_naive_index_and_a_plain_list() {
        for seed in 0..12 {
            for (window, period) in ORACLE_CONFIGS {
                for kind in [IndexKind::Hash, IndexKind::Ordered, IndexKind::Scan] {
                    let merged = check_against_oracles(kind, false, window, period, seed);
                    let merges = kind == IndexKind::Ordered
                        && window.size().is_none_or(|w| w / MERGE_SPAN_DIVISOR > period);
                    assert_eq!(merged, merges, "{kind:?} {window:?} / {period}, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn fully_colliding_hash_links_fall_back_to_key_equality() {
        for seed in 0..12 {
            check_against_oracles(IndexKind::Hash, true, WindowSpec::sliding(60), 16, seed);
        }
    }

    /// Keys the order key cannot tell apart: the scan has to settle them
    /// with `Value::cmp` at the two ends of the range, in the head link, a
    /// frozen run and a merged one alike.
    #[test]
    fn order_key_ties_are_settled_by_value_order_in_every_layout() {
        use std::ops::{Bound, RangeBounds};
        let big = 1i64 << 53;
        let keys = [
            Value::Int(big),
            Value::Int(big + 1),
            Value::Int(big + 2),
            Value::Str("prefix__a".into()),
            Value::Str("prefix__b".into()),
            Value::Str("prefix__".into()),
            Value::Int(10),
            Value::Float(10.0),
            Value::Float(f64::from_bits(10f64.to_bits() + 1)),
        ];
        // One tuple per key and period: periods 0–2 end up in one merged
        // run, 3 in a frozen one, 4 in the head.
        let mut c = ChainedIndex::new(IndexKind::Ordered, WindowSpec::FullHistory, 10);
        let mut stored = Vec::new();
        for period in 0..5u64 {
            for (i, k) in keys.iter().enumerate() {
                let t = Tuple::new(Rel::R, period * 20 + i as Ts, vec![k.clone()]);
                stored.push((k.clone(), t.clone()));
                c.insert(k.clone(), t);
            }
        }
        assert_eq!(c.stats().sub_indexes, 3, "a merged run, a frozen run and the head");
        let ends = |v: &Value| [Bound::Included(v.clone()), Bound::Excluded(v.clone())];
        for a in &keys {
            for b in &keys {
                for lo in ends(a) {
                    for hi in ends(b) {
                        let mut got = Vec::new();
                        let plan = ProbePlan::Range { lo: lo.clone(), hi: hi.clone() };
                        c.probe(&plan, 0, |t| got.push(t.ts()));
                        let mut want: Vec<Ts> = stored
                            .iter()
                            .filter(|(k, _)| (lo.as_ref(), hi.as_ref()).contains(k))
                            .map(|(_, t)| t.ts())
                            .collect();
                        got.sort_unstable();
                        want.sort_unstable();
                        assert_eq!(got, want, "{plan:?}");
                    }
                }
            }
        }
        // `Int(10)` finds `Float(10.0)` (and not its neighbour) everywhere.
        let mut hits = 0;
        c.probe(&ProbePlan::ExactKey(Value::Int(10)), 0, |t| {
            assert_eq!(t.get(0), Some(&Value::Int(10)));
            hits += 1;
        });
        assert_eq!(hits, 10, "two equal keys in each of five periods");
    }

    #[test]
    fn merging_keeps_a_range_probe_to_a_handful_of_links() {
        // W = 1000, P = 10: a hundred links per window as sealed…
        let mut ordered = ChainedIndex::new(IndexKind::Ordered, WindowSpec::sliding(1_000), 10);
        let mut hash = chain(1_000, 10);
        for ts in 0..3_000 {
            ordered.insert(Value::Int(ts as i64 % 7), t(ts, ts as i64 % 7));
            hash.insert(Value::Int(ts as i64 % 7), t(ts, ts as i64 % 7));
            if ts % 10 == 0 {
                ordered.expire(ts);
                hash.expire(ts);
            }
        }
        let links = |c: &ChainedIndex| c.stats().sub_indexes as u64 + c.stats().expired_sub_indexes;
        assert!(links(&hash) > 270, "a hash chain keeps every link it seals");
        assert!(hash.stats().sub_indexes > 90);
        // …and under ten once merged up to W/4, holding the same matches.
        assert!(ordered.stats().sub_indexes < 10, "{:?}", ordered.stats());
        let (mut from_ordered, mut from_hash) = (Vec::new(), Vec::new());
        let stats = ordered.probe(&exact(3), 2_999, |t| from_ordered.push(t.ts()));
        hash.probe(&exact(3), 2_999, |t| from_hash.push(t.ts()));
        assert!(stats.sub_indexes < 10);
        from_ordered.sort_unstable();
        assert_eq!(from_ordered, from_hash);
        // A full-history chain has no cap: O(log n) runs.
        let mut all = ChainedIndex::new(IndexKind::Ordered, WindowSpec::FullHistory, 10);
        for ts in 0..30_000 {
            all.insert(Value::Int(0), t(ts, 0));
        }
        assert!(all.stats().sub_indexes <= 10, "{:?}", all.stats());
    }

    #[test]
    fn a_merged_link_goes_when_its_newest_tuple_expires_and_not_before() {
        use bistream_types::audit::Auditor;

        let (w, p) = (400, 10);
        let auditor = Auditor::new();
        let mut c = ChainedIndex::new(IndexKind::Ordered, WindowSpec::sliding(w), p);
        c.set_auditor(auditor.clone(), "R0".into());
        let mut dropped_upto = None;
        for ts in 0..2_000 {
            c.insert(Value::Int(0), t(ts, 0));
            // The oldest link, as it stands before this expiry pass.
            let oldest = c.archived.front().and_then(|l| l.span);
            let dropped = c.discard(ts);
            if let Some((_, max_ts)) = oldest {
                // Dropped exactly when its newest tuple is out of window.
                assert_eq!(dropped.sub_indexes > 0, ts - max_ts > w, "ts {ts}, oldest {oldest:?}");
                if dropped.sub_indexes > 0 {
                    dropped_upto = Some(max_ts);
                }
            }
            // One tuple per tick: what outlives its expiry sits in one
            // archived link (≤ W/4 wide) or waits for the head to seal.
            assert!(c.len() as Ts <= w + w / MERGE_SPAN_DIVISOR + p + 1, "ts {ts}: {}", c.len());
        }
        assert!(c.archived.iter().any(|l| l.span.is_some_and(|(lo, hi)| hi - lo > p)), "merged");
        assert!(dropped_upto.is_some_and(|max_ts| max_ts > 1_000), "discards kept up");
        assert_eq!(auditor.violation_count(), 0, "{:?}", auditor.take_violations());
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
