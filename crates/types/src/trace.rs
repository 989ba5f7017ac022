//! Per-tuple causal tracing with latency attribution.
//!
//! Aggregate metrics (the registry) and the event journal answer "how much"
//! and "what happened", but the paper's latency claims — ordering-protocol
//! buffering cost, routing overhead under skew, archive stalls — are
//! *per-tuple* phenomena. This module follows individual tuples through the
//! biclique: a sampling [`Tracer`] allocates a [`TraceId`] when the router
//! assigns the tuple its global sequence number, and every hop of the
//! tuple's journey (route → enqueue → dequeue → store/probe → emit) records
//! a [`Span`] with its unit label and enter/exit stamps in virtual time.
//!
//! Sampling is deterministic — 1-in-N by sequence number, no RNG — so two
//! simulator runs with the same seed trace exactly the same tuples and
//! produce identical traces. A tuple's copies (its store copy, its join
//! copies, and any historical-layout or draining extras) are *branches* of
//! one trace: the router opens the trace with the branch count, the engine
//! adds branches for extras, and each joiner closes its branch after
//! processing its copy. When the last branch closes, the trace is complete
//! and moves to a bounded lock-free store with evict-oldest semantics and
//! drop accounting, feeding per-hop latency histograms into the attached
//! [`MetricsRegistry`](crate::registry::MetricsRegistry).
//!
//! Latency attribution falls out of the span chain: a hop's *queue wait* is
//! the gap between the previous hop's exit and this hop's enter, its
//! *service time* is enter → exit, and the two telescope exactly to the
//! trace's end-to-end latency (see [`Trace::hop_timings`]). Completed
//! traces export as Chrome `trace_event` JSON via [`chrome_trace_json`],
//! loadable in `chrome://tracing` or Perfetto.

use crate::hash::FxHashMap;
use crate::jsonlite::json_str;
use crate::metrics::{Counter, Histogram};
use crate::registry::MetricsRegistry;
use crate::time::Ts;
use crossbeam::queue::ArrayQueue;
use parking_lot::Mutex;
use std::sync::Arc;

/// Identity of one traced tuple: the global sequence number the router
/// assigned at ingress (Definition 7's `Z` counter), shared by every copy
/// of the tuple so all branches land in the same trace.
pub type TraceId = u64;

/// Default capacity of the bounded completed-trace store.
pub const DEFAULT_TRACE_CAPACITY: usize = 4_096;

/// What kind of hop a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopKind {
    /// The router picked destinations and stamped the sequence number.
    Route,
    /// A copy entered a queue (the simulator's channel net or a broker
    /// queue).
    Enqueue,
    /// A copy left a queue and reached its unit.
    Dequeue,
    /// The unit inserted the copy into its side's chained index.
    Store,
    /// The unit probed the opposite side's index with the copy.
    Probe,
    /// The probe produced at least one match and results were emitted.
    Emit,
}

impl HopKind {
    /// Stable lowercase label, used for histogram `hop` labels and Chrome
    /// event names.
    pub fn label(self) -> &'static str {
        match self {
            HopKind::Route => "route",
            HopKind::Enqueue => "enqueue",
            HopKind::Dequeue => "dequeue",
            HopKind::Store => "store",
            HopKind::Probe => "probe",
            HopKind::Emit => "emit",
        }
    }

    /// All hop kinds in journey order.
    pub const ALL: [HopKind; 6] = [
        HopKind::Route,
        HopKind::Enqueue,
        HopKind::Dequeue,
        HopKind::Store,
        HopKind::Probe,
        HopKind::Emit,
    ];
}

/// One hop of a traced tuple's journey.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The hop kind.
    pub kind: HopKind,
    /// The unit that performed the hop (router id, joiner label, queue
    /// name, matrix cell …).
    pub unit: String,
    /// Virtual time the hop began.
    pub enter: Ts,
    /// Virtual time the hop finished; always ≥ `enter`.
    pub exit: Ts,
}

impl Span {
    /// Service time of this hop (exit − enter).
    pub fn service(&self) -> Ts {
        self.exit - self.enter
    }
}

/// Wait/service attribution for one hop, derived from the span chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopTiming {
    /// The hop kind.
    pub kind: HopKind,
    /// The unit that performed the hop.
    pub unit: String,
    /// Time spent waiting between the previous hop's exit and this hop's
    /// enter (zero for the first hop).
    pub wait: Ts,
    /// Time spent inside the hop.
    pub service: Ts,
}

/// The recorded journey of one sampled tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The tuple's global sequence number.
    pub id: TraceId,
    /// Spans in causal (record) order.
    pub spans: Vec<Span>,
    /// True when every branch of the tuple's fan-out closed; false when the
    /// tracer was flushed with branches still open (e.g. copies addressed
    /// to units retired mid-flight).
    pub complete: bool,
}

impl Trace {
    /// End-to-end latency: last exit minus first enter (0 if empty).
    pub fn end_to_end(&self) -> Ts {
        match (self.spans.first(), self.spans.last()) {
            (Some(first), Some(last)) => last.exit - first.enter,
            _ => 0,
        }
    }

    /// Per-hop queue-wait and service-time attribution.
    ///
    /// Spans are causally ordered at record time (each span's enter is
    /// clamped to the previous span's exit), so every wait and service is
    /// non-negative and the telescoping identity holds exactly:
    /// `Σ wait + Σ service == end_to_end()`.
    pub fn hop_timings(&self) -> Vec<HopTiming> {
        let mut out = Vec::with_capacity(self.spans.len());
        let mut prev_exit: Option<Ts> = None;
        for span in &self.spans {
            let wait = match prev_exit {
                Some(pe) => span.enter - pe,
                None => 0,
            };
            out.push(HopTiming {
                kind: span.kind,
                unit: span.unit.clone(),
                wait,
                service: span.service(),
            });
            prev_exit = Some(span.exit);
        }
        out
    }

    /// Whether the trace visited the given hop kind.
    pub fn has_hop(&self, kind: HopKind) -> bool {
        self.spans.iter().any(|s| s.kind == kind)
    }
}

/// A trace still in flight: its spans plus the number of branches (tuple
/// copies) that have not yet reached their terminal hop.
#[derive(Debug)]
struct PendingTrace {
    spans: Vec<Span>,
    open_branches: u32,
}

/// Per-hop histograms fed at trace completion, plus completion counters.
#[derive(Debug)]
struct TraceMetrics {
    /// Indexed by `HopKind` position in [`HopKind::ALL`]: (wait, service).
    hops: Vec<(Arc<Histogram>, Arc<Histogram>)>,
    e2e: Arc<Histogram>,
    completed: Arc<Counter>,
}

#[derive(Debug)]
struct TracerInner {
    /// Sample 1 in `one_in` sequence numbers.
    one_in: u64,
    pending: Mutex<FxHashMap<TraceId, PendingTrace>>,
    /// Bounded completed-trace store (evict-oldest on overflow).
    completed: ArrayQueue<Trace>,
    dropped: Arc<Counter>,
    metrics: Mutex<Option<TraceMetrics>>,
}

/// A sampling per-tuple tracer.
///
/// Cheap to clone (an `Arc` inside) and zero-cost when disabled: the
/// default tracer holds no allocation at all and every call is a no-op
/// after one branch check. Instrumentation sites gate their work on
/// [`Tracer::sampled`], which never takes a lock.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// The disabled tracer: samples nothing, records nothing.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// An enabled tracer sampling 1 in `one_in` tuples (by sequence
    /// number), with the default completed-trace capacity. `one_in` of 1
    /// traces everything; 0 is clamped to 1.
    pub fn new(one_in: u64) -> Tracer {
        Tracer::with_capacity(one_in, DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled tracer with an explicit bound on the completed store.
    pub fn with_capacity(one_in: u64, capacity: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                one_in: one_in.max(1),
                pending: Mutex::new(FxHashMap::default()),
                completed: ArrayQueue::new(capacity.max(1)),
                dropped: Counter::shared(),
                metrics: Mutex::new(None),
            })),
        }
    }

    /// True when this tracer can record anything at all.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Deterministic sampling decision for a sequence number. Sequence
    /// numbers start at 1; seq 1 is always in the sample so even tiny runs
    /// produce at least one trace. Never locks.
    #[inline]
    pub fn sampled(&self, seq: u64) -> bool {
        match &self.inner {
            Some(inner) => seq != 0 && seq % inner.one_in == 1 % inner.one_in,
            None => false,
        }
    }

    /// Open a trace for `seq` with `branches` tuple copies in flight.
    /// No-op unless `seq` is sampled; re-opening an existing trace only
    /// raises its branch count.
    pub fn begin(&self, seq: u64, branches: u32) {
        if !self.sampled(seq) {
            return;
        }
        let inner = self.inner.as_ref().expect("sampled implies enabled");
        let mut pending = inner.pending.lock();
        pending
            .entry(seq)
            .and_modify(|t| t.open_branches += branches)
            .or_insert_with(|| PendingTrace { spans: Vec::new(), open_branches: branches });
    }

    /// Record one hop. Timestamps are clamped into causal order: the
    /// span's enter is raised to the previous span's exit (branches of one
    /// tuple interleave on a single causal chain) and exit is raised to
    /// enter, so stored spans always satisfy the invariants
    /// [`Trace::hop_timings`] relies on.
    pub fn span(&self, seq: u64, kind: HopKind, unit: &str, enter: Ts, exit: Ts) {
        if !self.sampled(seq) {
            return;
        }
        let inner = self.inner.as_ref().expect("sampled implies enabled");
        let mut pending = inner.pending.lock();
        let Some(t) = pending.get_mut(&seq) else { return };
        let floor = t.spans.last().map(|s| s.exit).unwrap_or(0);
        let enter = enter.max(floor);
        let exit = exit.max(enter);
        t.spans.push(Span { kind, unit: unit.to_owned(), enter, exit });
    }

    /// Close one branch of a trace. When the last branch closes the trace
    /// is complete: it moves to the bounded store (evicting the oldest
    /// trace, with drop accounting, if full) and feeds the attached
    /// per-hop histograms.
    pub fn end_branch(&self, seq: u64) {
        if !self.sampled(seq) {
            return;
        }
        let inner = self.inner.as_ref().expect("sampled implies enabled");
        let finished = {
            let mut pending = inner.pending.lock();
            let Some(t) = pending.get_mut(&seq) else { return };
            t.open_branches = t.open_branches.saturating_sub(1);
            if t.open_branches > 0 {
                return;
            }
            let t = pending.remove(&seq).expect("entry just accessed");
            Trace { id: seq, spans: t.spans, complete: true }
        };
        self.finish_trace(inner, finished);
    }

    /// Attach a registry: creates per-hop wait/service histograms
    /// (`bistream_trace_hop_wait_ms` / `bistream_trace_hop_service_ms`,
    /// labeled `hop="route"` …), the end-to-end latency histogram and the
    /// completion/drop counters. No-op when disabled.
    pub fn attach_registry(&self, registry: &MetricsRegistry) {
        let Some(inner) = &self.inner else { return };
        let hops = HopKind::ALL
            .iter()
            .map(|k| {
                let labels: &[(&str, &str)] = &[("hop", k.label())];
                (
                    registry.histogram(crate::metric_names::TRACE_HOP_WAIT_MS, labels),
                    registry.histogram(crate::metric_names::TRACE_HOP_SERVICE_MS, labels),
                )
            })
            .collect();
        let metrics = TraceMetrics {
            hops,
            e2e: registry.histogram(crate::metric_names::TRACE_E2E_LATENCY_MS, &[]),
            completed: registry.counter(crate::metric_names::TRACE_COMPLETED_TOTAL, &[]),
        };
        registry.register_counter(crate::metric_names::TRACE_DROPPED_TOTAL, &[], &inner.dropped);
        *inner.metrics.lock() = Some(metrics);
    }

    fn finish_trace(&self, inner: &TracerInner, trace: Trace) {
        if let Some(m) = inner.metrics.lock().as_ref() {
            if trace.complete {
                m.completed.inc();
                m.e2e.record(trace.end_to_end());
                for hop in trace.hop_timings() {
                    let idx = HopKind::ALL.iter().position(|k| *k == hop.kind);
                    if let Some(idx) = idx {
                        m.hops[idx].0.record(hop.wait);
                        m.hops[idx].1.record(hop.service);
                    }
                }
            }
        }
        let mut evicted = trace;
        while let Err(back) = inner.completed.push(evicted) {
            let _ = inner.completed.pop();
            inner.dropped.inc();
            evicted = back;
        }
    }

    /// Move every still-open trace to the completed store marked
    /// `complete: false` (branches that will never close — e.g. copies to
    /// units retired mid-flight). Returns how many were flushed.
    pub fn flush_pending(&self) -> usize {
        let Some(inner) = &self.inner else { return 0 };
        let drained: Vec<(TraceId, PendingTrace)> = {
            let mut pending = inner.pending.lock();
            let mut entries: Vec<_> = pending.drain().collect();
            entries.sort_by_key(|(id, _)| *id);
            entries
        };
        let n = drained.len();
        for (id, t) in drained {
            self.finish_trace(inner, Trace { id, spans: t.spans, complete: false });
        }
        n
    }

    /// Number of traces currently in the completed store.
    pub fn completed_len(&self) -> usize {
        self.inner.as_ref().map(|i| i.completed.len()).unwrap_or(0)
    }

    /// Number of traces still open (branches in flight).
    pub fn pending_len(&self) -> usize {
        self.inner.as_ref().map(|i| i.pending.lock().len()).unwrap_or(0)
    }

    /// Completed traces evicted because the bounded store overflowed.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map(|i| i.dropped.get()).unwrap_or(0)
    }

    /// Drain the completed store in completion order, oldest first.
    pub fn drain(&self) -> Vec<Trace> {
        let Some(inner) = &self.inner else { return Vec::new() };
        let mut out = Vec::with_capacity(inner.completed.len());
        while let Some(t) = inner.completed.pop() {
            out.push(t);
        }
        out
    }
}

/// Render completed traces as Chrome `trace_event` JSON (the "JSON Array
/// Format" with complete `"X"` events), loadable in `chrome://tracing` or
/// Perfetto. Each trace gets its own thread lane (`tid` = trace id mod a
/// display range, named after the trace), and virtual milliseconds map to
/// the format's microseconds.
pub fn chrome_trace_json(traces: &[Trace]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for trace in traces {
        let tid = trace.id;
        let suffix = if trace.complete { "" } else { " (incomplete)" };
        push_event(&mut out, &mut first, &format_args_meta(tid, suffix));
        for (i, hop) in trace.hop_timings().iter().enumerate() {
            let span = &trace.spans[i];
            let ev = format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"unit\":{},\"seq\":{},\"wait_ms\":{}}}}}",
                hop.kind.label(),
                hop.kind.label(),
                tid,
                span.enter.saturating_mul(1_000),
                span.service().saturating_mul(1_000),
                json_str(&hop.unit),
                trace.id,
                hop.wait,
            );
            push_event(&mut out, &mut first, &ev);
        }
    }
    out.push_str("]}");
    out
}

fn format_args_meta(tid: TraceId, suffix: &str) -> String {
    format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
         \"args\":{{\"name\":\"trace {tid}{suffix}\"}}}}"
    )
}

fn push_event(out: &mut String, first: &mut bool, ev: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(ev);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert!(!t.sampled(1));
        t.begin(1, 2);
        t.span(1, HopKind::Route, "r0", 0, 0);
        t.end_branch(1);
        assert_eq!(t.completed_len(), 0);
        assert_eq!(t.flush_pending(), 0);
        assert!(t.drain().is_empty());
    }

    #[test]
    fn sampling_is_deterministic_one_in_n() {
        let t = Tracer::new(10);
        let sampled: Vec<u64> = (0..40).filter(|s| t.sampled(*s)).collect();
        assert_eq!(sampled, vec![1, 11, 21, 31], "seq 1 always in sample");
        assert!(!t.sampled(0), "seq 0 is the unrouted sentinel");
        let all = Tracer::new(1);
        assert!((1..20).all(|s| all.sampled(s)));
    }

    #[test]
    fn branch_refcount_completes_trace_once() {
        let t = Tracer::new(1);
        t.begin(5, 2);
        t.span(5, HopKind::Route, "r0", 10, 10);
        t.span(5, HopKind::Enqueue, "R0", 10, 10);
        t.span(5, HopKind::Enqueue, "S1", 10, 10);
        t.end_branch(5);
        assert_eq!(t.completed_len(), 0, "one branch still open");
        t.span(5, HopKind::Store, "R0", 12, 12);
        t.end_branch(5);
        let traces = t.drain();
        assert_eq!(traces.len(), 1);
        assert!(traces[0].complete);
        assert_eq!(traces[0].spans.len(), 4);
        assert_eq!(t.pending_len(), 0);
    }

    #[test]
    fn spans_are_clamped_into_causal_order() {
        let t = Tracer::new(1);
        t.begin(1, 1);
        t.span(1, HopKind::Route, "r0", 10, 8); // exit < enter
        t.span(1, HopKind::Enqueue, "R0", 3, 5); // enter < previous exit
        t.end_branch(1);
        let trace = &t.drain()[0];
        assert_eq!((trace.spans[0].enter, trace.spans[0].exit), (10, 10));
        assert_eq!((trace.spans[1].enter, trace.spans[1].exit), (10, 10));
        let timings = trace.hop_timings();
        let total: Ts = timings.iter().map(|h| h.wait + h.service).sum();
        assert_eq!(total, trace.end_to_end());
    }

    #[test]
    fn hop_timings_attribute_wait_and_service() {
        let trace = Trace {
            id: 1,
            complete: true,
            spans: vec![
                Span { kind: HopKind::Route, unit: "r0".into(), enter: 0, exit: 1 },
                Span { kind: HopKind::Enqueue, unit: "R0".into(), enter: 1, exit: 1 },
                Span { kind: HopKind::Dequeue, unit: "R0".into(), enter: 7, exit: 7 },
                Span { kind: HopKind::Store, unit: "R0".into(), enter: 12, exit: 14 },
            ],
        };
        let timings = trace.hop_timings();
        assert_eq!(timings[0].wait, 0);
        assert_eq!(timings[2].wait, 6, "queue wait = dequeue enter - enqueue exit");
        assert_eq!(timings[3].wait, 5, "reorder wait = store enter - dequeue exit");
        assert_eq!(timings[3].service, 2);
        let total: Ts = timings.iter().map(|h| h.wait + h.service).sum();
        assert_eq!(total, trace.end_to_end());
        assert_eq!(trace.end_to_end(), 14);
    }

    #[test]
    fn bounded_store_evicts_oldest_and_counts_drops() {
        let t = Tracer::with_capacity(1, 2);
        for seq in 1..=4u64 {
            t.begin(seq, 1);
            t.span(seq, HopKind::Route, "r0", seq, seq);
            t.end_branch(seq);
        }
        assert_eq!(t.dropped(), 2);
        let ids: Vec<u64> = t.drain().iter().map(|tr| tr.id).collect();
        assert_eq!(ids, vec![3, 4], "oldest traces evicted first");
    }

    #[test]
    fn flush_pending_marks_incomplete() {
        let t = Tracer::new(1);
        t.begin(9, 3);
        t.span(9, HopKind::Route, "r0", 1, 1);
        t.end_branch(9);
        assert_eq!(t.flush_pending(), 1);
        let traces = t.drain();
        assert_eq!(traces.len(), 1);
        assert!(!traces[0].complete, "open branches never closed");
    }

    #[test]
    fn completion_feeds_registry_histograms() {
        let reg = MetricsRegistry::new();
        let t = Tracer::new(1);
        t.attach_registry(&reg);
        t.begin(1, 1);
        t.span(1, HopKind::Route, "r0", 0, 0);
        t.span(1, HopKind::Store, "R0", 5, 5);
        t.end_branch(1);
        let snap = reg.scrape(10);
        assert_eq!(snap.counter(crate::metric_names::TRACE_COMPLETED_TOTAL, &[]), Some(1));
        assert_eq!(snap.counter(crate::metric_names::TRACE_DROPPED_TOTAL, &[]), Some(0));
        assert!(
            snap.get(crate::metric_names::TRACE_HOP_SERVICE_MS, &[("hop", "store")]).is_some(),
            "per-hop histogram registered and fed"
        );
        assert!(snap.get(crate::metric_names::TRACE_E2E_LATENCY_MS, &[]).is_some());
    }

    #[test]
    fn chrome_export_is_valid_json_with_events() {
        let t = Tracer::new(1);
        t.begin(1, 1);
        t.span(1, HopKind::Route, "r0", 0, 1);
        t.span(1, HopKind::Store, "R\"0", 3, 4);
        t.end_branch(1);
        let json = chrome_trace_json(&t.drain());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"route\""));
        assert!(json.contains("\\\"0"), "unit labels are JSON-escaped");
        // ts/dur are microseconds: store enter 3 ms → 3000 µs, dur 1 ms.
        assert!(json.contains("\"ts\":3000,\"dur\":1000"));
    }
}
