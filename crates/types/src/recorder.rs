//! Bounded flight recorder and byte-stable breach bundles.
//!
//! A [`FlightRecorder`] retains a bounded tail of the observability
//! streams — recent registry scrapes, the event-journal tail, summaries of
//! completed traces — cheaply enough to run always-on. When the SLO engine
//! breaches or the watchdog trips, [`FlightRecorder::maybe_bundle`] snaps
//! the retained tail together with the firing alerts into a
//! [`BreachBundle`]: a self-contained JSON diagnostic in the style of the
//! chaos artifacts ([`crate::fault::ChaosArtifact`]), written next to them
//! under `results/` and replayable for postmortems.
//!
//! Byte-stability contract (same as the chaos artifacts): `to_json` ∘
//! `from_json` ∘ `to_json` is the identity, floats render in the canonical
//! [`crate::jsonlite`] form, and corrupt input is an `Err`, never a panic.
//! `tests/slo.rs` pins the round-trip on a real breach.

use crate::error::{Error, Result};
use crate::journal::Event;
use crate::jsonlite::{fmt_f64, json_str, Json};
use crate::metric_names as names;
use crate::registry::{MetricValue, RegistrySnapshot};
use crate::slo::{BurnAlert, SloReport, SloSpec, WindowEvidence};
use crate::trace::Trace;
use crate::watchdog::{StallKind, StallVerdict, WatchdogConfig};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Bundle format version; bumped on any incompatible schema change.
pub const BUNDLE_VERSION: u32 = 1;

/// Retention bounds for the recorder's three tails.
#[derive(Debug, Clone, PartialEq)]
pub struct RecorderConfig {
    /// Most recent scrapes retained.
    pub max_scrapes: usize,
    /// Most recent journal events retained.
    pub max_events: usize,
    /// Most recent trace summaries retained.
    pub max_traces: usize,
}

impl Default for RecorderConfig {
    fn default() -> RecorderConfig {
        RecorderConfig { max_scrapes: 16, max_events: 64, max_traces: 32 }
    }
}

/// A scraped metric value, flattened for the bundle codec.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordedValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(u64),
    /// Histogram summary: `(count, mean, p50, p95, p99, max)`.
    Histogram(u64, f64, u64, u64, u64, u64),
}

/// One retained scrape: the stamp plus every `rendered-key → value` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedScrape {
    /// Scrape time (ms).
    pub at: u64,
    /// `(key.render(), value)` pairs in scrape (i.e. sorted-key) order.
    pub series: Vec<(String, RecordedValue)>,
}

impl RecordedScrape {
    /// Flatten a registry snapshot into its recorded form.
    pub fn from_snapshot(snap: &RegistrySnapshot) -> RecordedScrape {
        let series = snap
            .samples
            .iter()
            .map(|s| {
                let v = match &s.value {
                    MetricValue::Counter(v) => RecordedValue::Counter(*v),
                    MetricValue::Gauge(v) => RecordedValue::Gauge(*v),
                    MetricValue::Histogram(h) => {
                        RecordedValue::Histogram(h.count, h.mean, h.p50, h.p95, h.p99, h.max)
                    }
                };
                (s.key.render(), v)
            })
            .collect();
        RecordedScrape { at: snap.at, series }
    }
}

/// A compact summary of one completed (or abandoned) trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Trace id.
    pub id: u64,
    /// Whether every branch closed.
    pub complete: bool,
    /// End-to-end latency (ms).
    pub end_to_end_ms: u64,
    /// Hop path, e.g. `route@r0→enqueue@unit.1→…`.
    pub path: String,
}

impl TraceSummary {
    /// Summarize a full trace.
    pub fn from_trace(t: &Trace) -> TraceSummary {
        let mut path = String::new();
        for (i, span) in t.spans.iter().enumerate() {
            if i > 0 {
                path.push('→');
            }
            let _ = write!(path, "{}@{}", span.kind.label(), span.unit);
        }
        TraceSummary { id: t.id, complete: t.complete, end_to_end_ms: t.end_to_end(), path }
    }
}

/// The always-on bounded recorder.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    cfg: RecorderConfig,
    scrapes: VecDeque<RecordedScrape>,
    events: VecDeque<String>,
    traces: VecDeque<TraceSummary>,
}

impl FlightRecorder {
    /// A recorder with the default retention bounds.
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// A recorder with explicit retention bounds.
    pub fn with_config(cfg: RecorderConfig) -> FlightRecorder {
        FlightRecorder { cfg, ..FlightRecorder::default() }
    }

    /// Retain a scrape (evicting the oldest beyond the bound).
    pub fn record_scrape(&mut self, snap: &RegistrySnapshot) {
        push_bounded(&mut self.scrapes, RecordedScrape::from_snapshot(snap), self.cfg.max_scrapes);
    }

    /// Retain a journal event (stored as its stable JSON line).
    pub fn record_event(&mut self, ev: &Event) {
        push_bounded(&mut self.events, ev.to_json(), self.cfg.max_events);
    }

    /// Retain a trace summary.
    pub fn record_trace(&mut self, t: &Trace) {
        push_bounded(&mut self.traces, TraceSummary::from_trace(t), self.cfg.max_traces);
    }

    /// Feed a whole run's tails at once (the post-hoc path both harnesses
    /// use): the bounded windows keep only the most recent entries.
    pub fn record_run(&mut self, series: &[RegistrySnapshot], events: &[Event], traces: &[Trace]) {
        for s in series {
            self.record_scrape(s);
        }
        for e in events {
            self.record_event(e);
        }
        for t in traces {
            self.record_trace(t);
        }
    }

    /// Snap the retained tail into a bundle if anything fired: an SLO
    /// breach or at least one stall verdict. The trigger names the first
    /// firing alert.
    pub fn maybe_bundle(
        &self,
        at_ms: u64,
        slo: &SloReport,
        stalls: &[StallVerdict],
    ) -> Option<BreachBundle> {
        if !slo.breached && stalls.is_empty() {
            return None;
        }
        let trigger = slo
            .alerts
            .first()
            .map(|a| a.alert.clone())
            .unwrap_or_else(|| names::ALERT_PROGRESS_STALL.to_owned());
        Some(BreachBundle {
            version: BUNDLE_VERSION,
            trigger,
            at_ms,
            alerts: slo.alerts.clone(),
            stalls: stalls.to_vec(),
            scrapes: self.scrapes.iter().cloned().collect(),
            journal: self.events.iter().cloned().collect(),
            traces: self.traces.iter().cloned().collect(),
        })
    }
}

fn push_bounded<T>(q: &mut VecDeque<T>, item: T, bound: usize) {
    q.push_back(item);
    while q.len() > bound.max(1) {
        q.pop_front();
    }
}

/// The health verdicts of one finished run, as both harnesses attach them
/// to their reports (`SimOutcome` / `PipelineReport`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunHealth {
    /// SLO verdicts and alerts (`None` when no spec was configured).
    pub slo: Option<SloReport>,
    /// Watchdog stall verdicts (empty when progress never froze).
    pub stalls: Vec<StallVerdict>,
    /// The flight-recorder dump, present iff an alert or stall fired.
    pub bundle: Option<BreachBundle>,
}

impl RunHealth {
    /// `true` when any SLO alert or stall verdict fired.
    pub fn breached(&self) -> bool {
        !self.stalls.is_empty() || self.slo.as_ref().is_some_and(|s| s.breached)
    }
}

/// One-call health grading over a finalized scrape series (see
/// [`crate::metrics::finalize_scrape_series`]): evaluate the SLO spec (if
/// any), scan for stalls, and snap a flight-recorder bundle when either
/// fires. Both harnesses run this identical tail, so a sim trial and a
/// live run produce the same verdict shapes from the same evidence.
pub fn grade_run(
    slo_spec: Option<&SloSpec>,
    watchdog: &WatchdogConfig,
    series: &[RegistrySnapshot],
    events: &[Event],
    traces: &[Trace],
) -> RunHealth {
    let slo = slo_spec.map(|spec| crate::slo::evaluate(spec, series));
    let stalls = crate::watchdog::scan(watchdog, series);
    let breached = !stalls.is_empty() || slo.as_ref().is_some_and(|s| s.breached);
    let bundle = breached.then(|| {
        let mut rec = FlightRecorder::new();
        rec.record_run(series, events, traces);
        let at = series.last().map(|s| s.at).unwrap_or(0);
        let quiet = SloReport::default();
        rec.maybe_bundle(at, slo.as_ref().unwrap_or(&quiet), &stalls)
    });
    RunHealth { slo, stalls, bundle: bundle.flatten() }
}

/// The emitted diagnostic: alerts plus the flight-recorder tail, as one
/// byte-stable JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct BreachBundle {
    /// Bundle schema version ([`BUNDLE_VERSION`]).
    pub version: u32,
    /// The alert that triggered the dump.
    pub trigger: String,
    /// Dump time (ms, same clock as the scrapes).
    pub at_ms: u64,
    /// The SLO burn alerts that fired.
    pub alerts: Vec<BurnAlert>,
    /// The watchdog stall verdicts.
    pub stalls: Vec<StallVerdict>,
    /// Retained scrape tail, oldest first.
    pub scrapes: Vec<RecordedScrape>,
    /// Retained journal tail as stable JSON lines, oldest first.
    pub journal: Vec<String>,
    /// Retained trace summaries, oldest first.
    pub traces: Vec<TraceSummary>,
}

impl BreachBundle {
    /// Serialize to pretty-printed JSON with stable key order.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"version\": {},", self.version);
        let _ = writeln!(s, "  \"trigger\": {},", json_str(&self.trigger));
        let _ = writeln!(s, "  \"at_ms\": {},", self.at_ms);
        s.push_str("  \"alerts\": [");
        for (i, a) in self.alerts.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            alert_json(a, &mut s);
        }
        s.push_str("],\n  \"stalls\": [");
        for (i, v) in self.stalls.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"kind\": {}, \"unit\": {}, \"from_ms\": {}, \"at_ms\": {}, \
                 \"ticks\": {}, \"buffered\": {}, \"frozen_at\": {}}}",
                json_str(v.kind.label()),
                json_str(&v.unit),
                v.from_ms,
                v.at_ms,
                v.ticks,
                v.buffered,
                v.frozen_at
            );
        }
        s.push_str("],\n  \"scrapes\": [");
        for (i, sc) in self.scrapes.iter().enumerate() {
            s.push_str(if i > 0 { ",\n    " } else { "\n    " });
            scrape_json(sc, &mut s);
        }
        s.push_str(if self.scrapes.is_empty() { "],\n" } else { "\n  ],\n" });
        s.push_str("  \"journal\": [");
        for (i, line) in self.journal.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json_str(line));
        }
        s.push_str("],\n  \"traces\": [");
        for (i, t) in self.traces.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{{\"id\": {}, \"complete\": {}, \"end_to_end_ms\": {}, \"path\": {}}}",
                t.id,
                u64::from(t.complete),
                t.end_to_end_ms,
                json_str(&t.path)
            );
        }
        s.push_str("]\n}\n");
        s
    }

    /// Parse a bundle produced by [`BreachBundle::to_json`].
    pub fn from_json(text: &str) -> Result<BreachBundle> {
        let v = Json::parse(text)?;
        let version = v.field_u64("version")? as u32;
        if version != BUNDLE_VERSION {
            return Err(Error::Fault(format!(
                "bundle version {version} unsupported (expected {BUNDLE_VERSION})"
            )));
        }
        let alerts =
            v.field("alerts")?.as_array()?.iter().map(alert_from_json).collect::<Result<_>>()?;
        let stalls = v
            .field("stalls")?
            .as_array()?
            .iter()
            .map(|j| {
                let kind_tag = j.field_str("kind")?;
                let kind = StallKind::from_label(kind_tag)
                    .ok_or_else(|| Error::Fault(format!("unknown stall kind `{kind_tag}`")))?;
                Ok(StallVerdict {
                    kind,
                    unit: j.field_str("unit")?.to_owned(),
                    from_ms: j.field_u64("from_ms")?,
                    at_ms: j.field_u64("at_ms")?,
                    ticks: j.field_u64("ticks")?,
                    buffered: j.field_u64("buffered")?,
                    frozen_at: j.field_u64("frozen_at")?,
                })
            })
            .collect::<Result<_>>()?;
        let scrapes =
            v.field("scrapes")?.as_array()?.iter().map(scrape_from_json).collect::<Result<_>>()?;
        let journal = v
            .field("journal")?
            .as_array()?
            .iter()
            .map(|j| j.as_str().map(str::to_owned))
            .collect::<Result<_>>()?;
        let traces = v
            .field("traces")?
            .as_array()?
            .iter()
            .map(|j| {
                Ok(TraceSummary {
                    id: j.field_u64("id")?,
                    complete: j.field_u64("complete")? != 0,
                    end_to_end_ms: j.field_u64("end_to_end_ms")?,
                    path: j.field_str("path")?.to_owned(),
                })
            })
            .collect::<Result<_>>()?;
        Ok(BreachBundle {
            version,
            trigger: v.field_str("trigger")?.to_owned(),
            at_ms: v.field_u64("at_ms")?,
            alerts,
            stalls,
            scrapes,
            journal,
            traces,
        })
    }
}

fn alert_json(a: &BurnAlert, s: &mut String) {
    let window = |w: &WindowEvidence| {
        format!(
            "{{\"from_ms\": {}, \"to_ms\": {}, \"window\": {}, \"breached\": {}}}",
            w.from_ms, w.to_ms, w.window, w.breached
        )
    };
    let _ = write!(
        s,
        "{{\"alert\": {}, \"objective\": {}, \"at_ms\": {}, \"fast_burn\": {}, \
         \"slow_burn\": {}, \"observed\": {}, \"limit\": {}, \"fast\": {}, \"slow\": {}}}",
        json_str(&a.alert),
        json_str(&a.objective),
        a.at_ms,
        fmt_f64(a.fast_burn),
        fmt_f64(a.slow_burn),
        fmt_f64(a.observed),
        fmt_f64(a.limit),
        window(&a.fast),
        window(&a.slow)
    );
}

fn alert_from_json(j: &Json) -> Result<BurnAlert> {
    let window = |j: &Json| -> Result<WindowEvidence> {
        Ok(WindowEvidence {
            from_ms: j.field_u64("from_ms")?,
            to_ms: j.field_u64("to_ms")?,
            window: j.field_u64("window")?,
            breached: j.field_u64("breached")?,
        })
    };
    Ok(BurnAlert {
        alert: j.field_str("alert")?.to_owned(),
        objective: j.field_str("objective")?.to_owned(),
        at_ms: j.field_u64("at_ms")?,
        fast_burn: j.field_f64("fast_burn")?,
        slow_burn: j.field_f64("slow_burn")?,
        observed: j.field_f64("observed")?,
        limit: j.field_f64("limit")?,
        fast: window(j.field("fast")?)?,
        slow: window(j.field("slow")?)?,
    })
}

pub(crate) fn scrape_json(sc: &RecordedScrape, s: &mut String) {
    let _ = write!(s, "{{\"at\": {}, \"series\": [", sc.at);
    for (i, (k, v)) in sc.series.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        match v {
            RecordedValue::Counter(n) => {
                let _ = write!(s, "{{\"k\": {}, \"t\": \"counter\", \"v\": {n}}}", json_str(k));
            }
            RecordedValue::Gauge(n) => {
                let _ = write!(s, "{{\"k\": {}, \"t\": \"gauge\", \"v\": {n}}}", json_str(k));
            }
            RecordedValue::Histogram(count, mean, p50, p95, p99, max) => {
                let _ = write!(
                    s,
                    "{{\"k\": {}, \"t\": \"histogram\", \"count\": {count}, \"mean\": {}, \
                     \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}, \"max\": {max}}}",
                    json_str(k),
                    fmt_f64(*mean)
                );
            }
        }
    }
    s.push_str("]}");
}

fn scrape_from_json(j: &Json) -> Result<RecordedScrape> {
    let series = j
        .field("series")?
        .as_array()?
        .iter()
        .map(|e| {
            let k = e.field_str("k")?.to_owned();
            let v = match e.field_str("t")? {
                "counter" => RecordedValue::Counter(e.field_u64("v")?),
                "gauge" => RecordedValue::Gauge(e.field_u64("v")?),
                "histogram" => RecordedValue::Histogram(
                    e.field_u64("count")?,
                    e.field_f64("mean")?,
                    e.field_u64("p50")?,
                    e.field_u64("p95")?,
                    e.field_u64("p99")?,
                    e.field_u64("max")?,
                ),
                other => return Err(Error::Fault(format!("unknown sample type `{other}`"))),
            };
            Ok((k, v))
        })
        .collect::<Result<_>>()?;
    Ok(RecordedScrape { at: j.field_u64("at")?, series })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{EventJournal, EventKind};
    use crate::registry::MetricsRegistry;
    use crate::slo::{evaluate, SloSpec};
    use crate::watchdog::{scan, WatchdogConfig};

    /// A series whose throughput collapses mid-run with publishers parked,
    /// plus a queue that holds messages with frozen delivery — both the
    /// SLO engine and the watchdog fire on it.
    fn breaching_run() -> (MetricsRegistry, Vec<RegistrySnapshot>) {
        let reg = MetricsRegistry::new();
        let ingested = reg.counter(crate::metric_names::TUPLES_INGESTED_TOTAL, &[("engine", "e")]);
        let lat = reg.histogram(crate::metric_names::RESULT_LATENCY_MS, &[("engine", "e")]);
        let depth = reg.gauge(crate::metric_names::QUEUE_DEPTH, &[("queue", "unit.0")]);
        let stall = reg.counter(crate::metric_names::QUEUE_STALL_MS_TOTAL, &[("queue", "unit.0")]);
        let mut series = vec![reg.scrape(0)];
        for t in 1..=3u64 {
            ingested.add(800);
            lat.record(5);
            series.push(reg.scrape(t * 1_000));
        }
        depth.set(12);
        for t in 4..=9u64 {
            stall.add(950);
            series.push(reg.scrape(t * 1_000));
        }
        (reg, series)
    }

    #[test]
    fn bundle_roundtrips_byte_stably() {
        let (_reg, series) = breaching_run();
        let slo = evaluate(&SloSpec::new().min_ingest_tps(400.0).p99_latency_ms(50), &series);
        assert!(slo.breached, "{slo:?}");
        let stalls = scan(&WatchdogConfig::default(), &series);
        assert!(!stalls.is_empty(), "queue holds messages with frozen delivery");

        let journal = EventJournal::with_capacity(8);
        journal.record(4_000, EventKind::BackpressureStall { queue: "unit.0".into() });
        journal.record(5_000, EventKind::BackpressureStall { queue: "unit.0".into() });

        let mut rec = FlightRecorder::with_config(RecorderConfig {
            max_scrapes: 4,
            max_events: 8,
            max_traces: 4,
        });
        rec.record_run(&series, &journal.snapshot(), &[]);
        let bundle = rec.maybe_bundle(9_000, &slo, &stalls).expect("breach must bundle");
        assert_eq!(bundle.version, BUNDLE_VERSION);
        assert_eq!(bundle.trigger, crate::metric_names::ALERT_SLO_BURN);
        // Retention bound: only the 4 most recent of the 10 scrapes.
        assert_eq!(bundle.scrapes.len(), 4);
        assert_eq!(bundle.scrapes.last().map(|s| s.at), Some(9_000));
        assert_eq!(bundle.journal.len(), 2);

        let text = bundle.to_json();
        let back = BreachBundle::from_json(&text).expect("parse");
        assert_eq!(back, bundle);
        assert_eq!(back.to_json(), text, "byte-stable round-trip");
    }

    #[test]
    fn stall_only_trip_uses_the_watchdog_trigger() {
        let (_reg, series) = breaching_run();
        let stalls = scan(&WatchdogConfig::default(), &series);
        let rec = {
            let mut r = FlightRecorder::new();
            r.record_run(&series, &[], &[]);
            r
        };
        let quiet = SloReport::default();
        let bundle = rec.maybe_bundle(9_000, &quiet, &stalls).expect("stall must bundle");
        assert_eq!(bundle.trigger, crate::metric_names::ALERT_PROGRESS_STALL);
        assert!(bundle.alerts.is_empty());
        let text = bundle.to_json();
        assert_eq!(BreachBundle::from_json(&text).expect("parse").to_json(), text);
    }

    #[test]
    fn healthy_run_never_bundles() {
        let rec = FlightRecorder::new();
        assert!(rec.maybe_bundle(0, &SloReport::default(), &[]).is_none());
    }

    #[test]
    fn corrupt_bundles_are_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"version\": 99}",
            "{\"version\": 1}",
            "{\"version\": 1, \"trigger\": 7}",
            "{\"version\": 1, \"trigger\": \"x\", \"at_ms\": 0, \"alerts\": [], \
             \"stalls\": [{\"kind\": \"bogus\"}], \"scrapes\": [], \"journal\": [], \
             \"traces\": []}",
            "nonsense",
        ] {
            assert!(BreachBundle::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }
}
