//! The structured event journal — a bounded lock-free ring of typed
//! runtime events with virtual-time stamps.
//!
//! Both harnesses record through the same code paths (the joiner's store
//! and probe branches, the chained index's archive/discard transitions,
//! the engine's scale decisions, the broker's backpressure stalls), so a
//! drained journal reads identically whether the run was simulated or
//! live. That is what makes it usable for post-mortem debugging of
//! ordering races and for reconstructing HPA decision timelines.
//!
//! The ring is a fixed-capacity `crossbeam` [`ArrayQueue`]; when full, the
//! oldest event is evicted (and counted) so recording never blocks a hot
//! path. Events render to JSON through [`crate::jsonlite`], one flat object
//! per event.

use crate::jsonlite::json_str;
use crate::metrics::Gauge;
use crate::punct::{RouterId, SeqNo};
use crate::rel::Rel;
use crate::time::Ts;
use crossbeam::queue::ArrayQueue;
use std::fmt::Write as _;
use std::sync::Arc;

/// What happened, with enough identity to attribute it to a unit.
///
/// Unit identity is carried as `(side, unit)` — e.g. joiner `R3` is
/// `(Rel::R, 3)` — matching the registry's `joiner="R3"` label scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A joiner installed a tuple into its window index (store copy).
    TupleStored {
        /// Side of the joiner that stored.
        side: Rel,
        /// Joiner index within its side.
        unit: u32,
        /// The router-assigned sequence number of the stored tuple.
        seq: SeqNo,
    },
    /// A probe produced join results at a joiner.
    JoinEmitted {
        /// Side of the probing joiner.
        side: Rel,
        /// Joiner index within its side.
        unit: u32,
        /// Number of results this probe emitted.
        results: u64,
    },
    /// A joiner's ordering watermark advanced past a router punctuation.
    PunctuationAdvanced {
        /// Side of the joiner.
        side: Rel,
        /// Joiner index within its side.
        unit: u32,
        /// The router whose punctuation moved the frontier.
        router: RouterId,
        /// The punctuated sequence number.
        seq: SeqNo,
    },
    /// The chained index sealed its active sub-index into the archive.
    SubIndexArchived {
        /// Side of the owning joiner.
        side: Rel,
        /// Joiner index within its side.
        unit: u32,
        /// Tuples in the sealed sub-index.
        tuples: u64,
        /// Bytes in the sealed sub-index.
        bytes: u64,
    },
    /// A whole archived sub-index fell out of the window (Theorem 1) and
    /// was discarded without per-tuple work.
    SubIndexDiscarded {
        /// Side of the owning joiner.
        side: Rel,
        /// Joiner index within its side.
        unit: u32,
        /// Tuples discarded with the sub-index.
        tuples: u64,
        /// Bytes discarded with the sub-index.
        bytes: u64,
    },
    /// The engine resized one side of the biclique.
    ScaleDecision {
        /// Which side was resized.
        side: Rel,
        /// Unit count before.
        from: u32,
        /// Unit count after.
        to: u32,
    },
    /// A publisher blocked on a full broker queue.
    BackpressureStall {
        /// Name of the full queue.
        queue: String,
    },
    /// The invariant auditor detected a protocol violation
    /// (see [`crate::audit::Auditor`]).
    InvariantViolation {
        /// The broken rule, e.g. `release-order` or `theorem-1`.
        rule: String,
        /// Human-readable description of the broken check.
        detail: String,
    },
}

impl EventKind {
    /// The event's tag, as serialized in JSON.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::TupleStored { .. } => "TupleStored",
            EventKind::JoinEmitted { .. } => "JoinEmitted",
            EventKind::PunctuationAdvanced { .. } => "PunctuationAdvanced",
            EventKind::SubIndexArchived { .. } => "SubIndexArchived",
            EventKind::SubIndexDiscarded { .. } => "SubIndexDiscarded",
            EventKind::ScaleDecision { .. } => "ScaleDecision",
            EventKind::BackpressureStall { .. } => "BackpressureStall",
            EventKind::InvariantViolation { .. } => "InvariantViolation",
        }
    }
}

/// One journal entry: an [`EventKind`] stamped with the time it happened
/// (virtual ms in the simulator, wall ms since pipeline start when live).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// When it happened, in the recording harness's timebase.
    pub ts: Ts,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Render this event as one flat JSON object, e.g.
    /// `{"ts":42,"kind":"TupleStored","side":"R","unit":3,"seq":17}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(out, "{{\"ts\":{},\"kind\":\"{}\"", self.ts, self.kind.tag());
        match &self.kind {
            EventKind::TupleStored { side, unit, seq } => {
                let _ = write!(out, ",\"side\":\"{side}\",\"unit\":{unit},\"seq\":{seq}");
            }
            EventKind::JoinEmitted { side, unit, results } => {
                let _ = write!(out, ",\"side\":\"{side}\",\"unit\":{unit},\"results\":{results}");
            }
            EventKind::PunctuationAdvanced { side, unit, router, seq } => {
                let _ = write!(
                    out,
                    ",\"side\":\"{side}\",\"unit\":{unit},\"router\":{router},\"seq\":{seq}"
                );
            }
            EventKind::SubIndexArchived { side, unit, tuples, bytes }
            | EventKind::SubIndexDiscarded { side, unit, tuples, bytes } => {
                let _ = write!(
                    out,
                    ",\"side\":\"{side}\",\"unit\":{unit},\"tuples\":{tuples},\"bytes\":{bytes}"
                );
            }
            EventKind::ScaleDecision { side, from, to } => {
                let _ = write!(out, ",\"side\":\"{side}\",\"from\":{from},\"to\":{to}");
            }
            EventKind::BackpressureStall { queue } => {
                let _ = write!(out, ",\"queue\":{}", json_str(queue));
            }
            EventKind::InvariantViolation { rule, detail } => {
                let _ = write!(out, ",\"rule\":{},\"detail\":{}", json_str(rule), json_str(detail));
            }
        }
        out.push('}');
        out
    }
}

/// The bounded, shared, lock-free event journal.
///
/// Cloning shares the ring. Recording is wait-free except when the ring is
/// full, where one pop evicts the oldest event; drains observe events in
/// record order.
#[derive(Debug, Clone)]
pub struct EventJournal {
    ring: Arc<ArrayQueue<Event>>,
    /// Eviction count, held as a registrable gauge so the
    /// [`Observability`](crate::registry::Observability) bundle can expose
    /// silent drops as `bistream_journal_dropped_total`.
    dropped: Arc<Gauge>,
}

/// Default ring capacity — large enough to hold every interesting event of
/// a quick experiment, small enough (~a few MB) to sit in every engine.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 65_536;

impl Default for EventJournal {
    fn default() -> Self {
        EventJournal::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl EventJournal {
    /// A journal holding at most `capacity` (≥ 1) events.
    pub fn with_capacity(capacity: usize) -> EventJournal {
        EventJournal { ring: Arc::new(ArrayQueue::new(capacity.max(1))), dropped: Gauge::shared() }
    }

    /// Record one event at time `ts`, evicting the oldest if full.
    pub fn record(&self, ts: Ts, kind: EventKind) {
        let mut ev = Event { ts, kind };
        loop {
            match self.ring.push(ev) {
                Ok(()) => return,
                Err(back) => {
                    if self.ring.pop().is_some() {
                        self.dropped.add(1);
                    }
                    ev = back;
                }
            }
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// How many events were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// The eviction counter as a shareable gauge handle, for registering
    /// into a [`MetricsRegistry`](crate::registry::MetricsRegistry) as
    /// `bistream_journal_dropped_total`.
    pub fn dropped_gauge(&self) -> Arc<Gauge> {
        Arc::clone(&self.dropped)
    }

    /// Snapshot the buffered events without consuming them, in record
    /// order. Implemented as drain-and-re-record, so concurrent recorders
    /// may interleave; intended for diagnostics (the invariant auditor's
    /// violation chains), not for precise accounting.
    pub fn snapshot(&self) -> Vec<Event> {
        let events = self.drain();
        for ev in &events {
            self.record(ev.ts, ev.kind.clone());
        }
        events
    }

    /// Drain all buffered events in record order.
    pub fn drain(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.ring.len());
        while let Some(ev) = self.ring.pop() {
            out.push(ev);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_drains_in_order() {
        let j = EventJournal::with_capacity(16);
        j.record(1, EventKind::TupleStored { side: Rel::R, unit: 0, seq: 10 });
        j.record(2, EventKind::JoinEmitted { side: Rel::S, unit: 1, results: 3 });
        assert_eq!(j.len(), 2);
        let events = j.drain();
        assert!(j.is_empty());
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ts, 1);
        assert_eq!(events[0].kind.tag(), "TupleStored");
        assert_eq!(events[1].kind.tag(), "JoinEmitted");
    }

    #[test]
    fn evicts_oldest_when_full() {
        let j = EventJournal::with_capacity(2);
        for ts in 0..5u64 {
            j.record(ts, EventKind::ScaleDecision { side: Rel::R, from: 1, to: 2 });
        }
        let events = j.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].ts, 3);
        assert_eq!(events[1].ts, 4);
        assert_eq!(j.dropped(), 3);
    }

    #[test]
    fn json_shapes_are_flat_objects() {
        let j = EventJournal::with_capacity(8);
        j.record(5, EventKind::PunctuationAdvanced { side: Rel::R, unit: 2, router: 1, seq: 9 });
        j.record(6, EventKind::BackpressureStall { queue: "unit.\"R0\"\n".into() });
        let json: Vec<String> = j.drain().iter().map(Event::to_json).collect();
        assert_eq!(
            json[0],
            r#"{"ts":5,"kind":"PunctuationAdvanced","side":"R","unit":2,"router":1,"seq":9}"#
        );
        assert!(json[1].contains(r#""queue":"unit.\"R0\"\n""#), "got: {}", json[1]);
    }

    #[test]
    fn archive_and_discard_carry_sizes() {
        let j = EventJournal::default();
        j.record(7, EventKind::SubIndexArchived { side: Rel::S, unit: 4, tuples: 10, bytes: 320 });
        j.record(8, EventKind::SubIndexDiscarded { side: Rel::S, unit: 4, tuples: 10, bytes: 320 });
        let json: Vec<String> = j.drain().iter().map(Event::to_json).collect();
        assert!(json[0]
            .contains(r#""kind":"SubIndexArchived","side":"S","unit":4,"tuples":10,"bytes":320"#));
        assert!(json[1].contains(r#""kind":"SubIndexDiscarded""#));
    }
}
