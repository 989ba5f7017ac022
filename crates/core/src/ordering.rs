//! The joiner-side reorder buffer: the order-consistent protocol
//! (Definition 7) built on pairwise-FIFO channels (Definition 8).
//!
//! Every router stamps its tuples from one engine-wide counter and
//! periodically punctuates with the highest counter assigned so far.
//! Because each router→joiner channel is FIFO, receiving
//! `Punctuation { router, seq }` proves that every copy from `router` with
//! a counter ≤ `seq` destined for this joiner has already arrived. A data
//! frame carries the same kind of proof, its `covers` seq (see
//! `RouterCore`): the router stamps each frame with the highest counter
//! below which it has nothing left for this unit, and
//! [`ReorderBuffer::cover`] applies it exactly like a punctuation. So a
//! frontier advances on whichever comes first — the frame or the timer.
//!
//! The buffer holds data messages in a min-heap keyed by
//! `(seq, router_id)` and releases, in that order, every message whose
//! counter is ≤ the **watermark** — the minimum frontier over all
//! registered routers. Any copy still in flight from router `r'` has a
//! counter `> frontier[r'] ≥ watermark`, so nothing smaller than a
//! released key can arrive later; and since every joiner sorts by the same
//! key, all joiners process their subsequences of one global order `Z` —
//! exactly Definition 7. That consistency is what eliminates the
//! duplicate-result and missed-result races (thesis Fig. 8 c/d).

use bistream_types::hash::FxHashMap;
use bistream_types::punct::{Purpose, RouterId, SeqNo, StreamMessage};
use bistream_types::tuple::Tuple;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A data message waiting for the watermark.
#[derive(Debug, Clone, PartialEq)]
struct Pending {
    seq: SeqNo,
    router: RouterId,
    purpose: Purpose,
    tuple: Tuple,
}

impl Eq for Pending {}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.seq, self.router).cmp(&(other.seq, other.router))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A released, ready-to-process tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct Released {
    /// Originating router.
    pub router: RouterId,
    /// The tuple's global sequence component.
    pub seq: SeqNo,
    /// Store or join branch.
    pub purpose: Purpose,
    /// The tuple.
    pub tuple: Tuple,
}

/// Observability counters for the buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Messages buffered over the lifetime.
    pub buffered: u64,
    /// Messages released.
    pub released: u64,
    /// High-water mark of the buffer depth.
    pub max_depth: usize,
    /// Punctuations observed.
    pub punctuations: u64,
    /// Duplicate deliveries discarded (sequence at or below the router's
    /// frontier — only possible under at-least-once redelivery).
    pub duplicates_dropped: u64,
}

/// The reorder buffer of one joiner.
#[derive(Debug, Default)]
pub struct ReorderBuffer {
    frontiers: FxHashMap<RouterId, SeqNo>,
    heap: BinaryHeap<Reverse<Pending>>,
    stats: ReorderStats,
    /// Test-only fault hook: while set, neither punctuations nor covers
    /// advance frontiers, so the watermark freezes and buffered data
    /// accumulates — the exact signature the stall watchdog must detect.
    frozen: bool,
}

impl ReorderBuffer {
    /// An empty buffer with no routers registered.
    pub fn new() -> ReorderBuffer {
        ReorderBuffer::default()
    }

    /// Register a router with its current frontier. A joiner created
    /// mid-run (scale-out) registers every live router at the router's
    /// *current* counter: copies it will receive all carry later counters.
    pub fn register_router(&mut self, router: RouterId, frontier: SeqNo) {
        self.frontiers.entry(router).or_insert(frontier);
    }

    /// Deregister a retired router so its (now frozen) frontier stops
    /// holding the watermark back. Only sound after the router's final
    /// punctuation has been processed: by then every message it ever sent
    /// to this joiner is either released or releasable, so removing its
    /// frontier cannot un-order anything. Releases whatever the removal
    /// unblocks.
    pub fn deregister_router(&mut self, router: RouterId, out: &mut Vec<Released>) {
        self.frontiers.remove(&router);
        self.release(out);
    }

    /// Number of messages currently buffered.
    pub fn depth(&self) -> usize {
        self.heap.len()
    }

    /// Counters.
    pub fn stats(&self) -> ReorderStats {
        self.stats
    }

    /// The current watermark: the minimum frontier over registered
    /// routers (`None` until at least one router is registered).
    pub fn watermark(&self) -> Option<SeqNo> {
        self.frontiers.values().copied().min()
    }

    /// The maximum frontier over registered routers. Paired with
    /// [`ReorderBuffer::watermark`] this gives the punctuation-frontier
    /// lag: how far the slowest router trails the fastest, i.e. how much
    /// release progress is being held back.
    pub fn max_frontier(&self) -> Option<SeqNo> {
        self.frontiers.values().copied().max()
    }

    /// `max_frontier - watermark` (0 with fewer than two routers).
    pub fn frontier_lag(&self) -> SeqNo {
        match (self.max_frontier(), self.watermark()) {
            (Some(hi), Some(lo)) => hi - lo,
            _ => 0,
        }
    }

    /// Offer one incoming message; append any now-releasable tuples to
    /// `out` in global `(seq, router)` order.
    pub fn offer(&mut self, msg: StreamMessage, out: &mut Vec<Released>) {
        match msg {
            StreamMessage::Data { router, seq, purpose, tuple } => {
                // Auto-register unknown routers at frontier 0: their
                // punctuations will lift the watermark when they arrive.
                let frontier = *self.frontiers.entry(router).or_insert(0);
                // A sequence at or below its router's frontier has already
                // been released (or would violate the global order): this
                // is a redelivered duplicate — at-least-once transports
                // (broker manual-ack requeues) produce these — and
                // dropping it here is what keeps results exactly-once.
                if seq <= frontier {
                    self.stats.duplicates_dropped += 1;
                    return;
                }
                self.heap.push(Reverse(Pending { seq, router, purpose, tuple }));
                self.stats.buffered += 1;
                self.stats.max_depth = self.stats.max_depth.max(self.heap.len());
            }
            StreamMessage::Punct(p) => {
                self.advance(p.router, p.seq);
                self.stats.punctuations += 1;
            }
        }
        self.release(out);
    }

    /// Apply a data frame's FIFO proof: `router` sends this joiner nothing
    /// with a counter ≤ `seq` from now on. Advances the router's frontier
    /// like a punctuation (max-only; `0` is no claim) and appends whatever
    /// that releases to `out`. Offer the frame's entries first — they are
    /// what the cover vouches for.
    pub fn cover(&mut self, router: RouterId, seq: SeqNo, out: &mut Vec<Released>) {
        self.advance(router, seq);
        self.release(out);
    }

    /// Lift `router`'s frontier to `seq` (never lowers it; frozen: no-op
    /// beyond registering the router).
    fn advance(&mut self, router: RouterId, seq: SeqNo) {
        let f = self.frontiers.entry(router).or_insert(0);
        if !self.frozen {
            *f = (*f).max(seq);
        }
    }

    /// Terminal flush: release *everything* buffered, in global order.
    ///
    /// Only sound when no further messages can arrive (the unit's channel
    /// has been closed and drained — shutdown, or unit retirement): with
    /// the complete residue in hand, sorting it extends the global order
    /// consistently at every joiner.
    pub fn flush(&mut self, out: &mut Vec<Released>) {
        while let Some(Reverse(p)) = self.heap.pop() {
            self.stats.released += 1;
            out.push(Released { router: p.router, seq: p.seq, purpose: p.purpose, tuple: p.tuple });
        }
    }

    /// Split a released sequence into maximal same-purpose runs of at most
    /// `max_len` entries, preserving the global release order.
    ///
    /// This is the joiner's batching hook: a run of consecutive store (or
    /// join) releases becomes one `insert_batch` (or `probe_batch`) call
    /// instead of per-tuple calls. `max_len = 1` makes every release its
    /// own run, which is what makes `batch_size = 1` per-tuple processing
    /// on the same code. Entries inside a run often carry
    /// contiguous sequence numbers (releases walk the dense global order),
    /// but contiguity is not required — only order and purpose are.
    pub fn purpose_runs(
        released: &[Released],
        max_len: usize,
    ) -> impl Iterator<Item = &[Released]> {
        let max_len = max_len.max(1);
        let mut start = 0usize;
        std::iter::from_fn(move || {
            if start >= released.len() {
                return None;
            }
            let purpose = released[start].purpose;
            let mut end = start + 1;
            while end < released.len() && end - start < max_len && released[end].purpose == purpose
            {
                end += 1;
            }
            let run = &released[start..end];
            start = end;
            Some(run)
        })
    }

    fn release(&mut self, out: &mut Vec<Released>) {
        let Some(watermark) = self.watermark() else { return };
        while let Some(Reverse(top)) = self.heap.peek() {
            if top.seq > watermark {
                break;
            }
            let Some(Reverse(p)) = self.heap.pop() else { break };
            self.stats.released += 1;
            out.push(Released { router: p.router, seq: p.seq, purpose: p.purpose, tuple: p.tuple });
        }
    }

    /// Fault injection for auditor tests: force `router`'s frontier to
    /// `seq`, bypassing the monotonic `max` that punctuations and covers
    /// go through, then release whatever the corrupt watermark unblocks.
    /// This simulates a broken watermark computation (e.g. a frontier
    /// jumping past everything its channel has proven — a cover taken from
    /// the frame's last entry instead of the router's pending batches) so
    /// tests can prove the invariant auditor catches the resulting
    /// premature, out-of-order releases. Never called by production code.
    #[doc(hidden)]
    pub fn debug_corrupt_frontier(
        &mut self,
        router: RouterId,
        seq: SeqNo,
        out: &mut Vec<Released>,
    ) {
        self.frontiers.insert(router, seq);
        self.release(out);
    }

    /// Fault injection for watchdog tests: while frozen, neither
    /// punctuations nor data-frame covers advance frontiers, so the
    /// watermark flatlines and offered data piles up in the buffer — a
    /// seeded frontier stall (wedged ordering) the progress watchdog must
    /// flag within its tick bound. Unfreezing does not retroactively apply
    /// missed punctuations or covers; later ones re-advance the frontier as
    /// usual. Never called by production code.
    #[doc(hidden)]
    pub fn debug_freeze_frontier(&mut self, on: bool) {
        self.frozen = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistream_types::punct::Punctuation;
    use bistream_types::rel::Rel;
    use bistream_types::value::Value;

    fn data(router: RouterId, seq: SeqNo, k: i64) -> StreamMessage {
        StreamMessage::Data {
            router,
            seq,
            purpose: Purpose::Store,
            tuple: Tuple::new(Rel::R, seq, vec![Value::Int(k)]),
        }
    }

    fn punct(router: RouterId, seq: SeqNo) -> StreamMessage {
        StreamMessage::Punct(Punctuation { router, seq })
    }

    fn drain(buf: &mut ReorderBuffer, msgs: Vec<StreamMessage>) -> Vec<(SeqNo, RouterId)> {
        let mut out = Vec::new();
        for m in msgs {
            buf.offer(m, &mut out);
        }
        out.iter().map(|r| (r.seq, r.router)).collect()
    }

    #[test]
    fn nothing_releases_before_punctuation() {
        let mut buf = ReorderBuffer::new();
        buf.register_router(0, 0);
        let released = drain(&mut buf, vec![data(0, 1, 10), data(0, 2, 20)]);
        assert!(released.is_empty());
        assert_eq!(buf.depth(), 2);
    }

    #[test]
    fn punctuation_releases_up_to_frontier_in_order() {
        let mut buf = ReorderBuffer::new();
        buf.register_router(0, 0);
        // Out-of-order arrival on… wait, a single channel is FIFO, but the
        // joiner merges channels; simulate two gaps then the punctuation.
        let released = drain(&mut buf, vec![data(0, 2, 20), data(0, 1, 10), punct(0, 2)]);
        assert_eq!(released, vec![(1, 0), (2, 0)], "sorted by seq");
        assert_eq!(buf.depth(), 0);
    }

    #[test]
    fn watermark_is_min_over_routers() {
        let mut buf = ReorderBuffer::new();
        buf.register_router(0, 0);
        buf.register_router(1, 0);
        let mut released = drain(&mut buf, vec![data(0, 1, 1), data(1, 1, 2), punct(0, 5)]);
        assert!(released.is_empty(), "router 1 has not punctuated");
        released = drain(&mut buf, vec![punct(1, 1)]);
        // watermark = min(5, 1) = 1 → both seq-1 messages release, router
        // order ties broken by router id.
        assert_eq!(released, vec![(1, 0), (1, 1)]);
    }

    #[test]
    fn global_order_is_seq_then_router() {
        let mut buf = ReorderBuffer::new();
        buf.register_router(0, 0);
        buf.register_router(1, 0);
        let released = drain(
            &mut buf,
            vec![
                data(1, 1, 0),
                data(0, 2, 0),
                data(0, 1, 0),
                data(1, 2, 0),
                punct(0, 2),
                punct(1, 2),
            ],
        );
        assert_eq!(released, vec![(1, 0), (1, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn late_router_stalls_until_registered_frontier_moves() {
        let mut buf = ReorderBuffer::new();
        buf.register_router(0, 0);
        // Data from an unregistered router auto-registers it at 0 and
        // stalls everything until it punctuates.
        let released = drain(&mut buf, vec![data(7, 1, 0), punct(0, 10)]);
        assert!(released.is_empty());
        let released = drain(&mut buf, vec![punct(7, 1)]);
        assert_eq!(released, vec![(1, 7)]);
    }

    #[test]
    fn scale_out_registration_skips_history() {
        let mut buf = ReorderBuffer::new();
        // A joiner created when router 0 was already at seq 100.
        buf.register_router(0, 100);
        let released = drain(&mut buf, vec![data(0, 101, 0), punct(0, 101)]);
        assert_eq!(released, vec![(101, 0)]);
    }

    #[test]
    fn frontier_never_regresses() {
        let mut buf = ReorderBuffer::new();
        buf.register_router(0, 0);
        let mut out = Vec::new();
        buf.offer(punct(0, 10), &mut out);
        buf.offer(punct(0, 5), &mut out); // stale punctuation: ignored
                                          // Data at/below the frontier can only be a duplicate (FIFO says
                                          // the original was delivered before punct 10), so it is dropped…
        buf.offer(data(0, 7, 0), &mut out);
        assert!(out.is_empty());
        assert_eq!(buf.stats().duplicates_dropped, 1);
        // …while fresh data above the un-regressed frontier still flows.
        buf.offer(data(0, 11, 0), &mut out);
        buf.offer(punct(0, 11), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn redelivered_duplicates_below_the_frontier_are_dropped() {
        let mut buf = ReorderBuffer::new();
        buf.register_router(0, 0);
        let mut out = Vec::new();
        buf.offer(data(0, 1, 10), &mut out);
        buf.offer(punct(0, 1), &mut out);
        assert_eq!(out.len(), 1, "released once");
        // The transport redelivers the same message (unacked crash).
        buf.offer(data(0, 1, 10), &mut out);
        assert_eq!(out.len(), 1, "duplicate not released again");
        assert_eq!(buf.depth(), 0, "duplicate not buffered either");
        assert_eq!(buf.stats().duplicates_dropped, 1);
    }

    #[test]
    fn frontier_lag_measures_router_spread() {
        let mut buf = ReorderBuffer::new();
        assert_eq!(buf.frontier_lag(), 0, "no routers yet");
        buf.register_router(0, 0);
        buf.register_router(1, 0);
        let mut out = Vec::new();
        buf.offer(punct(0, 10), &mut out);
        assert_eq!(buf.watermark(), Some(0));
        assert_eq!(buf.max_frontier(), Some(10));
        assert_eq!(buf.frontier_lag(), 10);
        buf.offer(punct(1, 8), &mut out);
        assert_eq!(buf.frontier_lag(), 2);
    }

    #[test]
    fn purpose_runs_split_on_purpose_flips_and_length_cap() {
        let rel = |purpose, seq| Released {
            router: 0,
            seq,
            purpose,
            tuple: Tuple::new(Rel::R, seq, vec![Value::Int(0)]),
        };
        let released = vec![
            rel(Purpose::Store, 1),
            rel(Purpose::Store, 2),
            rel(Purpose::Join, 3),
            rel(Purpose::Store, 4),
            rel(Purpose::Store, 5),
            rel(Purpose::Store, 6),
        ];
        let runs: Vec<(Purpose, usize)> =
            ReorderBuffer::purpose_runs(&released, 64).map(|r| (r[0].purpose, r.len())).collect();
        assert_eq!(
            runs,
            vec![(Purpose::Store, 2), (Purpose::Join, 1), (Purpose::Store, 3)],
            "maximal same-purpose runs"
        );
        // A cap of 2 splits the trailing store run.
        let capped: Vec<usize> =
            ReorderBuffer::purpose_runs(&released, 2).map(|r| r.len()).collect();
        assert_eq!(capped, vec![2, 1, 2, 1]);
        // Cap 1 (and the degenerate 0) is per-tuple processing.
        assert_eq!(ReorderBuffer::purpose_runs(&released, 1).count(), 6);
        assert_eq!(ReorderBuffer::purpose_runs(&released, 0).count(), 6);
        assert_eq!(ReorderBuffer::purpose_runs(&[], 8).count(), 0);
    }

    #[test]
    fn a_cover_releases_like_a_punctuation() {
        let mut buf = ReorderBuffer::new();
        buf.register_router(0, 0);
        buf.register_router(1, 0);
        let mut out = Vec::new();
        // Router 0's frame [1, 3] covers 2: its seq 3 waits for more proof.
        buf.offer(data(0, 1, 0), &mut out);
        buf.offer(data(0, 3, 0), &mut out);
        buf.cover(0, 2, &mut out);
        assert!(out.is_empty(), "router 1 has proven nothing yet");
        // Router 1's frame [2] covers 4: the watermark is min(2, 4).
        buf.offer(data(1, 2, 0), &mut out);
        buf.cover(1, 4, &mut out);
        let released: Vec<_> = out.iter().map(|r| (r.seq, r.router)).collect();
        assert_eq!(released, vec![(1, 0), (2, 1)]);
        // Covers are max-only, 0 claims nothing, and neither counts as a
        // punctuation.
        buf.cover(0, 1, &mut out);
        buf.cover(0, 0, &mut out);
        assert_eq!(buf.watermark(), Some(2));
        buf.cover(0, 3, &mut out);
        assert_eq!(out.len(), 3, "seq 3 released once router 0 covers it");
        assert_eq!(buf.stats().punctuations, 0);
        assert_eq!(buf.depth(), 0);
    }

    #[test]
    fn a_frozen_buffer_ignores_covers_too() {
        let mut buf = ReorderBuffer::new();
        buf.register_router(0, 0);
        let mut out = Vec::new();
        buf.offer(data(0, 1, 0), &mut out);
        buf.cover(0, 1, &mut out);
        assert_eq!((out.len(), buf.watermark()), (1, Some(1)));
        buf.debug_freeze_frontier(true);
        for seq in 2..6 {
            buf.offer(data(0, seq, 0), &mut out);
            buf.cover(0, seq, &mut out);
        }
        buf.offer(punct(0, 5), &mut out);
        assert_eq!(buf.watermark(), Some(1), "covered frames reached a frozen buffer");
        assert_eq!((out.len(), buf.depth()), (1, 4), "everything after the freeze waits");
        buf.debug_freeze_frontier(false);
        buf.cover(0, 5, &mut out);
        assert_eq!((out.len(), buf.depth()), (5, 0), "the next cover after the thaw releases");
    }

    #[test]
    fn stats_track_depth_and_counts() {
        let mut buf = ReorderBuffer::new();
        buf.register_router(0, 0);
        let mut out = Vec::new();
        buf.offer(data(0, 1, 0), &mut out);
        buf.offer(data(0, 2, 0), &mut out);
        buf.offer(punct(0, 2), &mut out);
        let s = buf.stats();
        assert_eq!(s.buffered, 2);
        assert_eq!(s.released, 2);
        assert_eq!(s.max_depth, 2);
        assert_eq!(s.punctuations, 1);
    }
}
