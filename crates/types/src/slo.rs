//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! An [`SloSpec`] states what "healthy" means — a p99 latency band, a
//! throughput floor, a tuple-loss ceiling — and [`evaluate`] grades a
//! registry scrape series (as [`crate::registry::Sampler`] emits it)
//! against the spec, one verdict per objective plus zero or more
//! evidence-carrying [`BurnAlert`]s.
//!
//! The alerting rule is the SRE multi-window burn-rate test: each scrape
//! interval either breaches an objective or not, the breach fraction over
//! a trailing window divided by the error budget is that window's *burn
//! rate*, and an alert fires only when the burn rate exceeds the threshold
//! in **both** a fast window (reacts quickly) and a slow window (filters
//! one-interval blips). A single bad scrape therefore never pages; a
//! sustained breach pages within `fast_window` intervals.
//!
//! Idleness is not failure: the throughput floor is *activity-gated*. An
//! interval only counts against the floor when input was demonstrably
//! offered — tuples ingested, or publishers parked on a stalled/full
//! queue (timer-driven punctuation publishes are deliberately not
//! activity). A pipeline with nothing to do breaches nothing
//! (the satellite guarantee the watchdog makes for stalls); a pipeline
//! whose publishers are blocked by a broker stall shows stall-time
//! progress without ingest progress and burns budget.

use crate::metric_names as names;
use crate::registry::{MetricValue, RegistrySnapshot};

/// A declarative service-level-objective spec. Objectives left `None` are
/// not evaluated; the windows and budget shape the burn-rate alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// p99 end-to-end result latency ceiling (ms), from the cumulative
    /// `bistream_result_latency_ms` histogram.
    pub p99_latency_ms: Option<u64>,
    /// Ingest throughput floor (tuples/s), activity-gated (see module doc).
    pub min_ingest_tps: Option<f64>,
    /// Ceiling on the broker-queue conservation deficit
    /// `published − delivered − depth` summed over queues (lost tuples).
    pub max_lost_tuples: Option<u64>,
    /// Fast alert window, in scrape intervals (reacts quickly).
    pub fast_window: usize,
    /// Slow alert window, in scrape intervals (filters blips).
    pub slow_window: usize,
    /// Error budget: the tolerated breach fraction per window (0..1].
    pub budget: f64,
    /// Burn-rate multiple at which a window is considered burning.
    pub burn_threshold: f64,
}

impl Default for SloSpec {
    fn default() -> SloSpec {
        SloSpec {
            p99_latency_ms: None,
            min_ingest_tps: None,
            max_lost_tuples: None,
            fast_window: 3,
            slow_window: 12,
            budget: 0.25,
            burn_threshold: 1.0,
        }
    }
}

impl SloSpec {
    /// A spec with no objectives and the default alert windows.
    pub fn new() -> SloSpec {
        SloSpec::default()
    }

    /// Set the p99 latency ceiling (ms).
    pub fn p99_latency_ms(mut self, ceiling: u64) -> SloSpec {
        self.p99_latency_ms = Some(ceiling);
        self
    }

    /// Set the ingest throughput floor (tuples/s).
    pub fn min_ingest_tps(mut self, floor: f64) -> SloSpec {
        self.min_ingest_tps = Some(floor);
        self
    }

    /// Set the tuple-loss ceiling.
    pub fn max_lost_tuples(mut self, ceiling: u64) -> SloSpec {
        self.max_lost_tuples = Some(ceiling);
        self
    }
}

/// The trailing-window evidence attached to one side of a burn alert.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowEvidence {
    /// Scrape time at the start of the window (ms).
    pub from_ms: u64,
    /// Scrape time at the end of the window (ms).
    pub to_ms: u64,
    /// Intervals in the window.
    pub window: u64,
    /// Intervals in the window that breached the objective.
    pub breached: u64,
}

/// One fired burn-rate alert: an objective exceeded the burn threshold in
/// both the fast and the slow trailing window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BurnAlert {
    /// Alert identifier ([`crate::metric_names::ALERT_SLO_BURN`]).
    pub alert: String,
    /// The objective that burned (`slo_*` identifier).
    pub objective: String,
    /// Scrape time at which the alert first fired (ms).
    pub at_ms: u64,
    /// Burn rate over the fast window (breach fraction / budget).
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// Observed value of the objective's measure at the firing interval.
    pub observed: f64,
    /// The objective's configured limit.
    pub limit: f64,
    /// Fast-window evidence.
    pub fast: WindowEvidence,
    /// Slow-window evidence.
    pub slow: WindowEvidence,
}

/// The per-objective verdict over the whole series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObjectiveVerdict {
    /// Objective identifier (`slo_*`).
    pub objective: String,
    /// The configured limit (ceiling or floor).
    pub limit: f64,
    /// Scrape intervals in the series.
    pub windows: u64,
    /// Intervals with data/activity for this objective.
    pub active: u64,
    /// Intervals that breached.
    pub breached_windows: u64,
    /// `breached_windows / windows` (0 when the series is empty).
    pub breach_fraction: f64,
    /// Worst observed value across active intervals (max for ceilings,
    /// min for floors).
    pub worst: f64,
    /// `true` when a burn alert fired for this objective.
    pub alerted: bool,
}

/// The SLO engine's output: one verdict per configured objective, the
/// alerts that fired, and the overall breach flag. Attached to
/// `SimOutcome` and `PipelineReport` alongside the perf report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloReport {
    /// Span covered by the evaluated series (ms).
    pub elapsed_ms: u64,
    /// Per-objective verdicts, in spec order.
    pub objectives: Vec<ObjectiveVerdict>,
    /// Burn alerts, at most one per objective (the first firing).
    pub alerts: Vec<BurnAlert>,
    /// `true` when any alert fired.
    pub breached: bool,
}

impl SloReport {
    /// Availability over the series as a percentage: `100 · (1 − worst
    /// breach fraction)` across objectives; 100 when nothing breached.
    pub fn availability_pct(&self) -> f64 {
        let worst = self.objectives.iter().map(|o| o.breach_fraction).fold(0.0f64, |a, b| a.max(b));
        100.0 * (1.0 - worst)
    }
}

/// Sum of every counter named `name` across label sets in one snapshot.
fn counter_sum(snap: &RegistrySnapshot, name: &str) -> u64 {
    snap.samples
        .iter()
        .filter(|s| s.key.name == name)
        .filter_map(|s| match &s.value {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        })
        .sum()
}

/// Worst (max) p99 across every histogram named `name`, with the total
/// observation count — `None` when no such histogram is registered.
fn histogram_p99(snap: &RegistrySnapshot, name: &str) -> Option<(u64, u64)> {
    let mut found = false;
    let (mut p99, mut count) = (0u64, 0u64);
    for s in &snap.samples {
        if s.key.name != name {
            continue;
        }
        if let MetricValue::Histogram(h) = &s.value {
            found = true;
            p99 = p99.max(h.p99);
            count += h.count;
        }
    }
    found.then_some((p99, count))
}

/// Broker-queue conservation deficit at one snapshot: messages published
/// but neither delivered nor buffered, summed over queues. Zero on a
/// healthy broker (and trivially in the queue-less simulator).
fn lost_tuples(snap: &RegistrySnapshot) -> u64 {
    let mut lost = 0u64;
    for queue in snap.label_values(names::QUEUE_PUBLISHED_TOTAL, "queue") {
        let counter = |name| snap.counter_with(name, "queue", queue).unwrap_or(0);
        let depth = snap.gauge_with(names::QUEUE_DEPTH, "queue", queue).unwrap_or(0);
        let buffered_or_delivered = counter(names::QUEUE_DELIVERED_TOTAL) + depth;
        lost += counter(names::QUEUE_PUBLISHED_TOTAL).saturating_sub(buffered_or_delivered);
    }
    lost
}

/// `true` when the interval `(prev, cur]` shows offered input: ingest
/// progress, or publishers parked on a full/stalled queue. Deliberately
/// ignores raw queue publishes — the live pipeline's routers publish
/// punctuations on a timer even when no tuples arrive, and those control
/// messages must not make an idle pipeline look loaded.
fn interval_active(prev: &RegistrySnapshot, cur: &RegistrySnapshot) -> bool {
    let delta = |name: &str| counter_sum(cur, name).saturating_sub(counter_sum(prev, name));
    delta(names::TUPLES_INGESTED_TOTAL) > 0
        || delta(names::QUEUE_BACKPRESSURE_BLOCKS_TOTAL) > 0
        || delta(names::QUEUE_STALL_MS_TOTAL) > 0
}

/// Per-interval measurement for one objective: `Some((observed, breached))`
/// when the interval carries data for the objective, `None` when it is
/// vacuous (no traffic, no histogram observations).
type Measure<'a> = dyn Fn(&RegistrySnapshot, &RegistrySnapshot) -> Option<(f64, bool)> + 'a;

/// Grade one objective across the series and append its verdict (and, if
/// the burn rule trips, its alert) to the report.
fn grade(
    spec: &SloSpec,
    series: &[RegistrySnapshot],
    report: &mut SloReport,
    objective: &'static str,
    limit: f64,
    floor: bool,
    measure: &Measure<'_>,
) {
    let windows = series.len().saturating_sub(1);
    let mut verdict = ObjectiveVerdict {
        objective: objective.to_owned(),
        limit,
        windows: windows as u64,
        worst: if floor { f64::INFINITY } else { 0.0 },
        ..ObjectiveVerdict::default()
    };
    // Per-interval breach flags and observations, then the trailing-window
    // burn-rate scan over them.
    let mut breaches: Vec<bool> = Vec::with_capacity(windows);
    let mut observed: Vec<f64> = Vec::with_capacity(windows);
    for pair in series.windows(2) {
        let (prev, cur) = (&pair[0], &pair[1]);
        match measure(prev, cur) {
            Some((obs, bad)) => {
                verdict.active += 1;
                verdict.worst = if floor { verdict.worst.min(obs) } else { verdict.worst.max(obs) };
                breaches.push(bad);
                observed.push(obs);
            }
            None => {
                breaches.push(false);
                observed.push(if floor { limit } else { 0.0 });
            }
        }
    }
    if verdict.active == 0 {
        verdict.worst = 0.0;
    }
    verdict.breached_windows = breaches.iter().filter(|b| **b).count() as u64;
    verdict.breach_fraction =
        if windows > 0 { verdict.breached_windows as f64 / windows as f64 } else { 0.0 };

    let budget = spec.budget.max(1e-9);
    let fast_w = spec.fast_window.max(1);
    let slow_w = spec.slow_window.max(fast_w);
    for i in 0..windows {
        // Alerts need at least a full fast window of evidence; the slow
        // window evaluates over what exists (standard partial-window rule).
        if i + 1 < fast_w {
            continue;
        }
        let burn = |w: usize| -> (f64, WindowEvidence) {
            let w = w.min(i + 1);
            let start = i + 1 - w;
            let breached = breaches[start..=i].iter().filter(|b| **b).count() as u64;
            let rate = breached as f64 / w as f64 / budget;
            let ev = WindowEvidence {
                from_ms: series[start].at,
                to_ms: series[i + 1].at,
                window: w as u64,
                breached,
            };
            (rate, ev)
        };
        let (fast_burn, fast_ev) = burn(fast_w);
        let (slow_burn, slow_ev) = burn(slow_w);
        if fast_burn >= spec.burn_threshold && slow_burn >= spec.burn_threshold {
            verdict.alerted = true;
            report.alerts.push(BurnAlert {
                alert: names::ALERT_SLO_BURN.to_owned(),
                objective: objective.to_owned(),
                at_ms: series[i + 1].at,
                fast_burn,
                slow_burn,
                observed: observed[i],
                limit,
                fast: fast_ev,
                slow: slow_ev,
            });
            break;
        }
    }
    report.objectives.push(verdict);
}

/// Evaluate `spec` over a scrape series (sorted by scrape time, as
/// [`crate::registry::Sampler`] emits it). Series shorter than two scrapes
/// grade nothing; objectives left `None` are skipped.
pub fn evaluate(spec: &SloSpec, series: &[RegistrySnapshot]) -> SloReport {
    let mut report = SloReport::default();
    let (Some(first), Some(last)) = (series.first(), series.last()) else {
        return report;
    };
    report.elapsed_ms = last.at.saturating_sub(first.at);
    if series.len() < 2 {
        return report;
    }

    if let Some(ceiling) = spec.p99_latency_ms {
        let measure = move |_prev: &RegistrySnapshot, cur: &RegistrySnapshot| {
            // The cumulative latency histogram must have observations; an
            // interval before the first result is vacuous, not a breach.
            let (p99, count) = histogram_p99(cur, names::RESULT_LATENCY_MS)?;
            (count > 0).then_some((p99 as f64, p99 > ceiling))
        };
        grade(
            spec,
            series,
            &mut report,
            names::SLO_P99_LATENCY_MS,
            ceiling as f64,
            false,
            &measure,
        );
    }
    if let Some(floor) = spec.min_ingest_tps {
        let measure = move |prev: &RegistrySnapshot, cur: &RegistrySnapshot| {
            // Activity-gated: only graded when input was offered (see
            // module doc) — an idle pipeline never burns the floor.
            if !interval_active(prev, cur) {
                return None;
            }
            let dt_ms = cur.at.saturating_sub(prev.at).max(1);
            let ingested = counter_sum(cur, names::TUPLES_INGESTED_TOTAL)
                .saturating_sub(counter_sum(prev, names::TUPLES_INGESTED_TOTAL));
            let rate = ingested as f64 * 1_000.0 / dt_ms as f64;
            Some((rate, rate < floor))
        };
        grade(spec, series, &mut report, names::SLO_MIN_INGEST_TPS, floor, true, &measure);
    }
    if let Some(ceiling) = spec.max_lost_tuples {
        let measure = move |_prev: &RegistrySnapshot, cur: &RegistrySnapshot| {
            let lost = lost_tuples(cur);
            Some((lost as f64, lost > ceiling))
        };
        grade(
            spec,
            series,
            &mut report,
            names::SLO_MAX_LOST_TUPLES,
            ceiling as f64,
            false,
            &measure,
        );
    }
    report.breached = !report.alerts.is_empty();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric_names as names;
    use crate::registry::MetricsRegistry;

    fn spec() -> SloSpec {
        SloSpec::new().p99_latency_ms(50).min_ingest_tps(500.0).max_lost_tuples(0)
    }

    #[test]
    fn healthy_series_raises_no_alerts() {
        let reg = MetricsRegistry::new();
        let ingested = reg.counter(names::TUPLES_INGESTED_TOTAL, &[("engine", "engine")]);
        let lat = reg.histogram(names::RESULT_LATENCY_MS, &[("engine", "engine")]);
        let mut series = vec![reg.scrape(0)];
        for t in 1..=10u64 {
            ingested.add(1_000); // 1 000 t/s at 1 s scrapes.
            lat.record(10);
            series.push(reg.scrape(t * 1_000));
        }
        let report = evaluate(&spec(), &series);
        assert_eq!(report.elapsed_ms, 10_000);
        assert_eq!(report.objectives.len(), 3);
        assert!(report.alerts.is_empty(), "{:?}", report.alerts);
        assert!(!report.breached);
        assert!((report.availability_pct() - 100.0).abs() < 1e-9);
        let tput = &report.objectives[1];
        assert_eq!(tput.objective, names::SLO_MIN_INGEST_TPS);
        assert_eq!(tput.active, 10);
        assert!((tput.worst - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn sustained_throughput_collapse_fires_a_burn_alert() {
        let reg = MetricsRegistry::new();
        let ingested = reg.counter(names::TUPLES_INGESTED_TOTAL, &[("engine", "engine")]);
        let stalled = reg.counter(names::QUEUE_STALL_MS_TOTAL, &[("queue", "q")]);
        let mut series = vec![reg.scrape(0)];
        // 4 healthy seconds, then a stall: publishers park (stall time
        // grows, proving input is offered) while ingest freezes.
        for t in 1..=4u64 {
            ingested.add(1_000);
            series.push(reg.scrape(t * 1_000));
        }
        for t in 5..=10u64 {
            stalled.add(900);
            series.push(reg.scrape(t * 1_000));
        }
        let report = evaluate(&SloSpec::new().min_ingest_tps(500.0), &series);
        assert!(report.breached);
        assert_eq!(report.alerts.len(), 1);
        let alert = &report.alerts[0];
        assert_eq!(alert.alert, names::ALERT_SLO_BURN);
        assert_eq!(alert.objective, names::SLO_MIN_INGEST_TPS);
        // With budget 0.25, two breaching intervals out of three burn the
        // fast window (2/3/0.25 ≈ 2.7×) and the slow window confirms
        // (2/6/0.25 ≈ 1.3×): the page lands two intervals into the stall.
        assert_eq!(alert.at_ms, 6_000);
        assert_eq!(alert.fast.breached, 2);
        assert!(alert.fast_burn >= 1.0 && alert.slow_burn >= 1.0);
        assert!(alert.observed < 1.0, "frozen ingest: {}", alert.observed);
        assert!(report.objectives[0].alerted);
        assert!(report.availability_pct() < 100.0);
    }

    #[test]
    fn one_interval_blip_does_not_page() {
        let reg = MetricsRegistry::new();
        let ingested = reg.counter(names::TUPLES_INGESTED_TOTAL, &[("engine", "engine")]);
        let mut series = vec![reg.scrape(0)];
        for t in 1..=12u64 {
            // One zero-rate interval at t=6 with publishers still pushing.
            if t != 6 {
                ingested.add(1_000);
            } else {
                reg.counter(names::QUEUE_BACKPRESSURE_BLOCKS_TOTAL, &[("queue", "q")]).inc();
            }
            series.push(reg.scrape(t * 1_000));
        }
        let report = evaluate(&SloSpec::new().min_ingest_tps(500.0), &series);
        assert!(!report.breached, "{:?}", report.alerts);
        assert_eq!(report.objectives[0].breached_windows, 1);
    }

    #[test]
    fn idle_series_grades_every_objective_vacuously() {
        let reg = MetricsRegistry::new();
        reg.counter(names::TUPLES_INGESTED_TOTAL, &[("engine", "engine")]);
        reg.histogram(names::RESULT_LATENCY_MS, &[("engine", "engine")]);
        let series: Vec<_> = (0..=20u64).map(|t| reg.scrape(t * 500)).collect();
        let report = evaluate(&spec(), &series);
        assert!(!report.breached);
        assert!(report.alerts.is_empty());
        for o in &report.objectives {
            assert_eq!(o.breached_windows, 0, "{o:?}");
        }
        // The gated throughput objective saw no active interval at all.
        assert_eq!(report.objectives[1].active, 0);
    }

    #[test]
    fn latency_ceiling_and_loss_ceiling_breach_on_bad_data() {
        let reg = MetricsRegistry::new();
        let lat = reg.histogram(names::RESULT_LATENCY_MS, &[("engine", "engine")]);
        let published = reg.counter(names::QUEUE_PUBLISHED_TOTAL, &[("queue", "q")]);
        let mut series = vec![reg.scrape(0)];
        for t in 1..=6u64 {
            lat.record(400); // way over the 50 ms ceiling
            published.add(10); // published but never delivered nor buffered
            series.push(reg.scrape(t * 1_000));
        }
        let report = evaluate(&spec(), &series);
        assert!(report.breached);
        let objectives: Vec<&str> = report.alerts.iter().map(|a| a.objective.as_str()).collect();
        assert!(objectives.contains(&names::SLO_P99_LATENCY_MS), "{objectives:?}");
        assert!(objectives.contains(&names::SLO_MAX_LOST_TUPLES), "{objectives:?}");
    }

    #[test]
    fn short_series_grades_nothing() {
        let reg = MetricsRegistry::new();
        assert_eq!(evaluate(&spec(), &[]), SloReport::default());
        let one = evaluate(&spec(), &[reg.scrape(9)]);
        assert!(one.objectives.is_empty() && !one.breached);
    }
}
