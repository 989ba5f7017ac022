//! The labeled metrics registry — one scrape surface for every component.
//!
//! Components register [`Counter`]/[`Gauge`]/[`Histogram`] handles under a
//! `name{label="value",…}` key (e.g. `bistream_joiner_results_total{joiner="R3"}`)
//! and keep bumping the returned `Arc` on the hot path; the registry itself
//! is only touched at registration and scrape time, so instrumentation adds
//! no coordination to per-tuple work.
//!
//! A scrape is a point-in-time read of every registered metric, sorted by
//! `(name, labels)` so output is stable across runs;
//! [`crate::telemetry::prometheus_text`] renders the registry in the
//! Prometheus text exposition format (with label values properly escaped). [`Sampler`] turns periodic scrapes into a
//! time-series the experiment harness can dump, and [`Observability`]
//! bundles a registry with an event journal as the single handle the
//! engines thread through their components.

use crate::audit::Auditor;
use crate::journal::EventJournal;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::recorder::{scrape_json, RecordedScrape};
use crate::time::Ts;
use crate::trace::Tracer;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// A metric's identity: its name plus a sorted list of `label=value` pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric family name, e.g. `bistream_router_copies_total`.
    pub name: String,
    /// Label pairs, kept sorted by label name for key stability.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Build a key from a name and unordered label pairs.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricKey { name: name.to_string(), labels }
    }

    /// `true` if any label pair equals `(label, value)`.
    pub fn has_label(&self, label: &str, value: &str) -> bool {
        self.labels.iter().any(|(k, v)| k == label && v == value)
    }

    /// Render as `name` or `name{k="v",…}` with escaped label values.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut out = String::with_capacity(self.name.len() + 16 * self.labels.len());
        out.push_str(&self.name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
        }
        out.push('}');
        out
    }
}

/// Escape a label value for the Prometheus text format: backslash, double
/// quote and newline must be escaped (`\\`, `\"`, `\n`).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// One registered metric handle.
#[derive(Debug, Clone)]
pub(crate) enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A scraped value — the point-in-time reading of one handle.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
    /// Histogram summary (count/mean/quantiles/max).
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    fn as_gauge(&self) -> Option<u64> {
        match self {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }
}

/// One `(key, value)` pair in a scrape.
///
/// The key is an `Arc` shared with the registry's own map, so scraping a
/// series costs no string allocation — only the value is read fresh.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// The metric's identity (shared with the registry).
    pub key: Arc<MetricKey>,
    /// Its value at scrape time.
    pub value: MetricValue,
}

/// A full scrape stamped with the (virtual or wall) time it was taken.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Scrape time in ms.
    pub at: Ts,
    /// Every registered metric, sorted by `(name, labels)`.
    pub samples: Vec<MetricSample>,
}

impl RegistrySnapshot {
    /// Render as one JSON object, `{"at": …, "series": [{"k": …, "t": …, …}]}`:
    /// the form a breach bundle records a scrape in ([`crate::recorder`]).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        scrape_json(&RecordedScrape::from_snapshot(self), &mut out);
        out
    }

    /// Look up a sample by name and exact label set.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let key = MetricKey::new(name, labels);
        self.samples.iter().find(|s| *s.key == key).map(|s| &s.value)
    }

    /// Counter value for `(name, labels)`, or `None` if absent or not a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.get(name, labels)?.as_counter()
    }

    /// Gauge value for `(name, labels)`, or `None` if absent or not a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.get(name, labels)?.as_gauge()
    }

    /// The first sample named `name` that carries the label pair
    /// `(label, value)`, whatever other labels it has.
    pub(crate) fn get_with(&self, name: &str, label: &str, value: &str) -> Option<&MetricValue> {
        self.samples
            .iter()
            .find(|s| s.key.name == name && s.key.has_label(label, value))
            .map(|s| &s.value)
    }

    /// Counter value of [`get_with`](Self::get_with)`(name, label, value)`.
    pub(crate) fn counter_with(&self, name: &str, label: &str, value: &str) -> Option<u64> {
        self.get_with(name, label, value)?.as_counter()
    }

    /// Gauge value of [`get_with`](Self::get_with)`(name, label, value)`.
    pub(crate) fn gauge_with(&self, name: &str, label: &str, value: &str) -> Option<u64> {
        self.get_with(name, label, value)?.as_gauge()
    }

    /// Every value `label` takes across the samples named `name`, sorted
    /// and deduplicated.
    pub(crate) fn label_values(&self, name: &str, label: &str) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .samples
            .iter()
            .filter(|s| s.key.name == name)
            .filter_map(|s| s.key.labels.iter().find(|(k, _)| k == label))
            .map(|(_, v)| v.as_str())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The shared registry. Cloning is cheap (an `Arc` bump) and all clones
/// view the same metric set, so one registry can be threaded through
/// routers, joiners, the broker and the cluster simulation.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RwLock<BTreeMap<Arc<MetricKey>, Handle>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get-or-create a counter under `name{labels}`. If the key exists with
    /// a different metric type the existing entry is replaced.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.write();
        if let Some(Handle::Counter(c)) = map.get(&key) {
            return Arc::clone(c);
        }
        let c = Counter::shared();
        map.insert(Arc::new(key), Handle::Counter(Arc::clone(&c)));
        c
    }

    /// Get-or-create a gauge under `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.write();
        if let Some(Handle::Gauge(g)) = map.get(&key) {
            return Arc::clone(g);
        }
        let g = Gauge::shared();
        map.insert(Arc::new(key), Handle::Gauge(Arc::clone(&g)));
        g
    }

    /// Get-or-create a histogram under `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = MetricKey::new(name, labels);
        let mut map = self.inner.write();
        if let Some(Handle::Histogram(h)) = map.get(&key) {
            return Arc::clone(h);
        }
        let h = Histogram::shared();
        map.insert(Arc::new(key), Handle::Histogram(Arc::clone(&h)));
        h
    }

    /// Register an *existing* counter handle (components like the broker's
    /// queues or `ResourceMeter` already own their primitives).
    pub fn register_counter(&self, name: &str, labels: &[(&str, &str)], c: &Arc<Counter>) {
        self.inner
            .write()
            .insert(Arc::new(MetricKey::new(name, labels)), Handle::Counter(Arc::clone(c)));
    }

    /// Register an existing gauge handle.
    pub fn register_gauge(&self, name: &str, labels: &[(&str, &str)], g: &Arc<Gauge>) {
        self.inner
            .write()
            .insert(Arc::new(MetricKey::new(name, labels)), Handle::Gauge(Arc::clone(g)));
    }

    /// Register an existing histogram handle.
    pub fn register_histogram(&self, name: &str, labels: &[(&str, &str)], h: &Arc<Histogram>) {
        self.inner
            .write()
            .insert(Arc::new(MetricKey::new(name, labels)), Handle::Histogram(Arc::clone(h)));
    }

    /// Drop every metric carrying `label="value"` — used when a unit is
    /// retired (drained joiner, removed router) so stale series don't
    /// linger in scrapes.
    pub fn unregister_labeled(&self, label: &str, value: &str) -> usize {
        let mut map = self.inner.write();
        let doomed: Vec<Arc<MetricKey>> =
            map.keys().filter(|k| k.has_label(label, value)).cloned().collect();
        for k in &doomed {
            map.remove(k);
        }
        doomed.len()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Point-in-time read of every registered metric, stamped `at`.
    /// Samples come out sorted by `(name, labels)` (the map order), so
    /// scrape output is stable run-to-run.
    pub fn scrape(&self, at: Ts) -> RegistrySnapshot {
        let mut snap = RegistrySnapshot::default();
        self.scrape_into(at, &mut snap);
        snap
    }

    /// Scrape into a caller-owned snapshot, reusing its `samples` buffer.
    ///
    /// Keys are `Arc`s shared with the registry's map, so a steady-state
    /// scrape loop allocates nothing per series once the buffer has grown
    /// to the registry's size — the fix for per-scrape allocation churn on
    /// large registries.
    pub fn scrape_into(&self, at: Ts, snap: &mut RegistrySnapshot) {
        snap.at = at;
        snap.samples.clear();
        let map = self.inner.read();
        snap.samples.reserve(map.len());
        for (key, handle) in map.iter() {
            snap.samples.push(MetricSample {
                key: Arc::clone(key),
                value: match handle {
                    Handle::Counter(c) => MetricValue::Counter(c.get()),
                    Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                    Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            });
        }
    }

    /// Visit every registered handle in `(name, labels)` order. Scrape-time
    /// only: holds the registry read lock for the duration of the walk.
    pub(crate) fn for_each_handle(&self, mut f: impl FnMut(&MetricKey, &Handle)) {
        let map = self.inner.read();
        for (key, handle) in map.iter() {
            f(key, handle);
        }
    }
}

/// Periodically snapshots a registry into a time-series.
///
/// Both harnesses drive it from their own clock: the simulator calls
/// [`Sampler::maybe_sample`] on its sample ticks (virtual ms), the live
/// pipeline from its wall clock. The resulting series is what
/// `experiments --metrics-out` dumps.
#[derive(Debug, Clone)]
pub struct Sampler {
    registry: MetricsRegistry,
    interval_ms: Ts,
    next_due: Ts,
    series: Vec<RegistrySnapshot>,
}

impl Sampler {
    /// A sampler scraping `registry` every `interval_ms` (≥ 1) ms.
    pub fn new(registry: MetricsRegistry, interval_ms: Ts) -> Sampler {
        Sampler { registry, interval_ms: interval_ms.max(1), next_due: 0, series: Vec::new() }
    }

    /// Scrape if `now` has reached the next due time; returns whether a
    /// sample was taken. Catch-up after a long gap takes one sample, not
    /// one per missed interval.
    pub fn maybe_sample(&mut self, now: Ts) -> bool {
        if now < self.next_due {
            return false;
        }
        self.force_sample(now);
        true
    }

    /// Scrape unconditionally at `now`.
    pub fn force_sample(&mut self, now: Ts) {
        self.series.push(self.registry.scrape(now));
        self.next_due = now + self.interval_ms;
    }

    /// The sampling interval in ms.
    pub fn interval_ms(&self) -> Ts {
        self.interval_ms
    }

    /// The series collected so far.
    pub fn series(&self) -> &[RegistrySnapshot] {
        &self.series
    }

    /// Consume the sampler, yielding its series.
    pub fn into_series(self) -> Vec<RegistrySnapshot> {
        self.series
    }
}

/// The bundle every engine threads through its components: one metrics
/// registry, one event journal and one per-tuple tracer. Cloning shares
/// all three.
///
/// Assembly wires the pieces together: the journal's eviction count is
/// registered as the `bistream_journal_dropped_total` gauge (so silent
/// drops under load are visible in scrapes) and an enabled tracer gets the
/// registry attached so completed traces feed the per-hop latency
/// histograms.
#[derive(Debug, Clone)]
pub struct Observability {
    /// The shared labeled-metrics registry.
    pub registry: MetricsRegistry,
    /// The shared bounded event journal.
    pub journal: EventJournal,
    /// The shared per-tuple tracer (disabled unless built through
    /// [`Observability::with_tracing`]).
    pub tracer: Tracer,
}

impl Default for Observability {
    fn default() -> Self {
        Observability::assemble(EventJournal::default(), Tracer::disabled())
    }
}

impl Observability {
    /// A fresh registry plus a journal with the default capacity; tracing
    /// disabled.
    pub fn new() -> Observability {
        Observability::default()
    }

    /// A fresh registry plus a journal holding at most `capacity` events.
    pub fn with_journal_capacity(capacity: usize) -> Observability {
        Observability::assemble(EventJournal::with_capacity(capacity), Tracer::disabled())
    }

    /// A fresh bundle with per-tuple tracing enabled, sampling 1 in
    /// `one_in` tuples by sequence number.
    pub fn with_tracing(one_in: u64) -> Observability {
        Observability::assemble(EventJournal::default(), Tracer::new(one_in))
    }

    fn assemble(journal: EventJournal, tracer: Tracer) -> Observability {
        let registry = MetricsRegistry::new();
        registry.register_gauge(
            crate::metric_names::JOURNAL_DROPPED_TOTAL,
            &[],
            &journal.dropped_gauge(),
        );
        tracer.attach_registry(&registry);
        Observability { registry, journal, tracer }
    }
}

/// The accounting of one named queue — a broker queue, or the set of rings
/// feeding one consumer: the `bistream_queue_*` series labeled
/// `queue="<name>"` plus the auditor's message-conservation events. Every
/// live transport keeps it through this one type, so the order of
/// operations below is written once.
#[derive(Debug)]
pub struct QueueSeries {
    name: String,
    /// `bistream_queue_published_total`.
    pub published: Arc<Counter>,
    /// `bistream_queue_delivered_total`.
    pub delivered: Arc<Counter>,
    /// `bistream_queue_depth`.
    pub depth: Arc<Gauge>,
    /// `bistream_queue_depth_max` — high-watermark of `depth`.
    pub depth_max: Arc<Gauge>,
    /// `bistream_queue_backpressure_blocks_total`.
    pub blocks: Arc<Counter>,
    /// `bistream_queue_stall_ms_total`.
    pub stall_ms: Arc<Counter>,
    auditor: Option<Auditor>,
}

impl QueueSeries {
    /// Register the series of queue `name` in `registry`; conservation
    /// events go to `auditor` when one is given.
    pub fn register(registry: &MetricsRegistry, auditor: Option<Auditor>, name: &str) -> Self {
        use crate::metric_names as names;
        let labels: &[(&str, &str)] = &[("queue", name)];
        QueueSeries {
            name: name.to_owned(),
            published: registry.counter(names::QUEUE_PUBLISHED_TOTAL, labels),
            delivered: registry.counter(names::QUEUE_DELIVERED_TOTAL, labels),
            depth: registry.gauge(names::QUEUE_DEPTH, labels),
            depth_max: registry.gauge(names::QUEUE_DEPTH_MAX, labels),
            blocks: registry.counter(names::QUEUE_BACKPRESSURE_BLOCKS_TOTAL, labels),
            stall_ms: registry.counter(names::QUEUE_STALL_MS_TOTAL, labels),
            auditor,
        }
    }

    /// The same counters, registered nowhere and audited by nobody (a
    /// queue declared on a broker without observability).
    pub fn detached(name: &str) -> Self {
        QueueSeries::register(&MetricsRegistry::new(), None, name)
    }

    /// The queue's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Account one item entering the queue. Call this **before** the item
    /// becomes visible to a consumer: a consumer may dequeue (and account)
    /// it at once, and a dequeue accounted first would read as a delivery
    /// nobody published to the auditor and leave the saturating depth
    /// gauge one too high for good. If the queue then refuses the item,
    /// call [`QueueSeries::refused`]. A producer waiting on a full queue is
    /// therefore part of the depth (at most capacity + producers).
    #[inline]
    pub fn enqueued(&self) {
        self.published.inc();
        self.depth.add(1);
        // Racy read-then-set, but monotone in practice: a lost race only
        // delays the watermark until the next enqueue.
        let d = self.depth.get();
        if d > self.depth_max.get() {
            self.depth_max.set(d);
        }
        if let Some(a) = &self.auditor {
            a.queue_enqueue(&self.name);
        }
    }

    /// The queue closed under an accounted item: it never became visible,
    /// so take it back out of the depth.
    pub fn refused(&self) {
        self.depth.sub(1);
    }

    /// Account one item leaving the queue.
    #[inline]
    pub fn dequeued(&self) {
        self.depth.sub(1);
        self.delivered.inc();
        if let Some(a) = &self.auditor {
            a.queue_dequeue(&self.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_are_shared_and_scraped() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("tuples_total", &[("joiner", "R0")]);
        let b = reg.counter("tuples_total", &[("joiner", "R0")]);
        a.add(3);
        b.inc();
        assert_eq!(reg.len(), 1);
        let snap = reg.scrape(7);
        assert_eq!(snap.at, 7);
        assert_eq!(snap.counter("tuples_total", &[("joiner", "R0")]), Some(4));
    }

    #[test]
    fn labels_are_order_insensitive() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("x", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.inc();
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.scrape(0).counter("x", &[("a", "1"), ("b", "2")]), Some(2));
    }

    #[test]
    fn scrape_is_sorted_by_key() {
        let reg = MetricsRegistry::new();
        reg.counter("zeta", &[]);
        reg.gauge("alpha", &[("k", "2")]);
        reg.gauge("alpha", &[("k", "1")]);
        let names: Vec<String> = reg.scrape(0).samples.iter().map(|s| s.key.render()).collect();
        assert_eq!(names, vec!["alpha{k=\"1\"}", "alpha{k=\"2\"}", "zeta"]);
    }

    #[test]
    fn unregister_by_label_drops_all_series_of_a_unit() {
        let reg = MetricsRegistry::new();
        reg.counter("a_total", &[("joiner", "R0")]);
        reg.gauge("b", &[("joiner", "R0")]);
        reg.counter("a_total", &[("joiner", "R1")]);
        assert_eq!(reg.unregister_labeled("joiner", "R0"), 2);
        assert_eq!(reg.len(), 1);
        assert!(reg.scrape(0).counter("a_total", &[("joiner", "R1")]).is_some());
    }

    #[test]
    fn prometheus_text_escapes_label_values() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", &[("engine", "we\"ird\\lab\nel")]).inc();
        let text = crate::telemetry::prometheus_text(&reg, 0);
        assert!(text.contains(r#"engine="we\"ird\\lab\nel""#), "got: {text}");
        // The literal newline must not survive inside the label block.
        assert!(!text.lines().any(|l| l.starts_with("el\"")), "got: {text}");
    }

    #[test]
    fn prometheus_text_renders_histograms_as_summaries() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ms", &[("joiner", "S1")]);
        for v in [1u64, 2, 3, 4] {
            h.record(v);
        }
        let text = crate::telemetry::prometheus_text(&reg, 0);
        assert!(text.contains("# TYPE lat_ms summary"));
        assert!(text.contains("lat_ms{joiner=\"S1\",quantile=\"0.5\"}"));
        assert!(text.contains("lat_ms_count{joiner=\"S1\"} 4"));
        assert!(text.contains("lat_ms_sum{joiner=\"S1\"} 10"));
        assert!(text.contains("lat_ms_max{joiner=\"S1\"} 4"));
    }

    #[test]
    fn sampler_respects_interval() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ticks_total", &[]);
        let mut sampler = Sampler::new(reg, 100);
        assert!(sampler.maybe_sample(0));
        c.inc();
        assert!(!sampler.maybe_sample(50));
        assert!(sampler.maybe_sample(100));
        assert!(!sampler.maybe_sample(150));
        let series = sampler.series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].counter("ticks_total", &[]), Some(0));
        assert_eq!(series[1].counter("ticks_total", &[]), Some(1));
    }
}
