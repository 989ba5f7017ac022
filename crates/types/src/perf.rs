//! Queueing-model performance analyzer over registry scrape series.
//!
//! Turns the raw observability feeds — per-pod busy-CPU counters, joiner
//! work counters, queue-depth gauges and the tracer's per-hop wait/service
//! histograms — into the quantities a capacity controller reasons about:
//! per-unit arrival rate λ, service time Ŝ, service rate µ = 1/Ŝ and
//! utilization ρ = λ·Ŝ, plus a Little's-law (L = λW) consistency check on
//! the broker queues.
//!
//! To keep the prediction falsifiable, the scrape series is split at its
//! midpoint: the **calibration** half estimates the per-item service time
//! Ŝ from busy-CPU per processed item, and the **evaluation** half
//! supplies the arrival rate and the observed busy fraction. Predicted
//! utilization `λ_eval · Ŝ_cal` then only matches observed utilization
//! `busy_eval / elapsed_eval` when the service-time estimate actually
//! transfers across windows — under steady load they agree, under a
//! regime change they diverge. Series shorter than three scrapes fall
//! back to whole-window estimates (prediction degenerates to
//! observation; reports flag nothing, callers should sample more often).

use crate::metric_names as names;
use crate::registry::{MetricValue, RegistrySnapshot};

/// The analyzer's output: per-unit queueing estimates, per-hop latency
/// decomposition and per-queue Little's-law checks. Attached to
/// `SimOutcome` and `PipelineReport`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfReport {
    /// Wall/virtual span covered by the analyzed series (ms).
    pub elapsed_ms: u64,
    /// Per-joiner-unit service/utilization estimates, sorted by unit.
    pub units: Vec<UnitPerf>,
    /// Per-hop wait/service summary from the tracer histograms.
    pub hops: Vec<HopPerf>,
    /// Per-queue Little's-law consistency checks (empty when no broker
    /// queues are registered, e.g. in the virtual-time simulator).
    pub queues: Vec<QueueLaw>,
}

/// Queueing estimates for one joiner unit (pod).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitPerf {
    /// Unit label, e.g. `R0` (the `pod=`/`joiner=` label value).
    pub unit: String,
    /// Work items (stores + probes) processed in the evaluation window.
    pub arrivals: u64,
    /// Arrival rate λ over the evaluation window (items/s).
    pub arrival_rate_tps: f64,
    /// Busy CPU accumulated in the evaluation window (µs).
    pub busy_us: u64,
    /// Estimated service time Ŝ per item from the calibration window (µs).
    pub service_us_per_item: f64,
    /// Estimated service rate µ = 1/Ŝ (items/s; 0 when Ŝ is unknown).
    pub service_rate_tps: f64,
    /// Predicted utilization ρ = λ_eval · Ŝ_cal.
    pub utilization_predicted: f64,
    /// Observed utilization: busy-CPU fraction of the evaluation window.
    pub utilization_observed: f64,
}

/// Wait/service latency summary for one trace hop kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HopPerf {
    /// Hop label (`route`, `enqueue`, `dequeue`, `store`, `probe`, `emit`).
    pub hop: String,
    /// Samples in the wait histogram.
    pub samples: u64,
    /// Mean queue-wait time at this hop (ms).
    pub wait_ms_mean: f64,
    /// 95th-percentile queue-wait time at this hop (ms).
    pub wait_ms_p95: u64,
    /// Mean service time at this hop (ms).
    pub service_ms_mean: f64,
    /// 95th-percentile service time at this hop (ms).
    pub service_ms_p95: u64,
}

/// Little's-law check for one broker queue: with time-averaged depth L
/// and throughput λ, the implied mean sojourn W = L/λ should match the
/// tracer's observed dequeue-hop wait.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueueLaw {
    /// Queue name (the `queue=` label value).
    pub queue: String,
    /// Time-averaged queue depth L across the series.
    pub mean_depth: f64,
    /// Delivery throughput λ over the whole series (msgs/s).
    pub throughput_tps: f64,
    /// Implied mean sojourn W = L/λ (ms; 0 when λ is 0).
    pub implied_wait_ms: f64,
    /// Observed mean dequeue-hop wait from the tracer (ms), when traced.
    /// Tracer wait is pooled across queues, so this is an approximation.
    pub observed_wait_ms: Option<f64>,
    /// Relative residual `|implied − observed| / max(observed, 1 ms)`,
    /// when an observed wait exists.
    pub residual: Option<f64>,
}

/// Stores + probes processed by `unit` as of one snapshot.
fn items_at(snap: &RegistrySnapshot, unit: &str) -> u64 {
    snap.counter_with(names::JOINER_STORED_TOTAL, "joiner", unit).unwrap_or(0)
        + snap.counter_with(names::JOINER_PROBES_TOTAL, "joiner", unit).unwrap_or(0)
}

/// Analyze a scrape series (sorted by scrape time, as `Sampler` emits it)
/// into a [`PerfReport`]. Empty or single-scrape series yield an empty
/// report with `elapsed_ms = 0`.
pub fn analyze(series: &[RegistrySnapshot]) -> PerfReport {
    let (Some(first), Some(last)) = (series.first(), series.last()) else {
        return PerfReport::default();
    };
    let elapsed_ms = last.at.saturating_sub(first.at);
    let mut report = PerfReport { elapsed_ms, ..PerfReport::default() };
    if elapsed_ms == 0 {
        return report;
    }
    // Midpoint split: [first, mid] calibrates Ŝ, [mid, last] evaluates.
    let mid = if series.len() >= 3 { &series[series.len() / 2] } else { first };

    for unit in last.label_values(names::POD_CPU_BUSY_US_TOTAL, "pod") {
        let busy_at = |snap: &RegistrySnapshot| {
            snap.counter_with(names::POD_CPU_BUSY_US_TOTAL, "pod", unit).unwrap_or(0)
        };
        let busy_cal = busy_at(mid).saturating_sub(busy_at(first));
        let items_cal = items_at(mid, unit).saturating_sub(items_at(first, unit));
        let busy_eval = busy_at(last).saturating_sub(busy_at(mid));
        let items_eval = items_at(last, unit).saturating_sub(items_at(mid, unit));
        let eval_ms = last.at.saturating_sub(mid.at).max(1);

        // Degenerate calibration window (no work yet): fall back to the
        // whole series so Ŝ is still defined, at the cost of the
        // prediction collapsing toward the observation.
        let (s_busy, s_items) = if items_cal > 0 {
            (busy_cal, items_cal)
        } else {
            let busy_all = busy_at(last).saturating_sub(busy_at(first));
            let items_all = items_at(last, unit).saturating_sub(items_at(first, unit));
            (busy_all, items_all)
        };
        let service_us = if s_items > 0 { s_busy as f64 / s_items as f64 } else { 0.0 };
        let lambda = items_eval as f64 * 1_000.0 / eval_ms as f64;
        report.units.push(UnitPerf {
            unit: unit.to_owned(),
            arrivals: items_eval,
            arrival_rate_tps: lambda,
            busy_us: busy_eval,
            service_us_per_item: service_us,
            service_rate_tps: if service_us > 0.0 { 1_000_000.0 / service_us } else { 0.0 },
            utilization_predicted: lambda * service_us / 1_000_000.0,
            utilization_observed: busy_eval as f64 / (eval_ms as f64 * 1_000.0),
        });
    }

    for hop in last.label_values(names::TRACE_HOP_WAIT_MS, "hop") {
        let hist = |name: &str| match last.get_with(name, "hop", hop)? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        };
        let (Some(wait), Some(service)) =
            (hist(names::TRACE_HOP_WAIT_MS), hist(names::TRACE_HOP_SERVICE_MS))
        else {
            continue;
        };
        if wait.count == 0 && service.count == 0 {
            continue;
        }
        report.hops.push(HopPerf {
            hop: hop.to_owned(),
            samples: wait.count,
            wait_ms_mean: wait.mean,
            wait_ms_p95: wait.p95,
            service_ms_mean: service.mean,
            service_ms_p95: service.p95,
        });
    }

    let dequeue_wait = report
        .hops
        .iter()
        .find(|h| h.hop == "dequeue")
        .filter(|h| h.samples > 0)
        .map(|h| h.wait_ms_mean);
    for queue in last.label_values(names::QUEUE_DEPTH, "queue") {
        let depth_sum: u64 = series
            .iter()
            .map(|s| s.gauge_with(names::QUEUE_DEPTH, "queue", queue).unwrap_or(0))
            .sum();
        let mean_depth = depth_sum as f64 / series.len() as f64;
        let delivered_at = |snap: &RegistrySnapshot| {
            snap.counter_with(names::QUEUE_DELIVERED_TOTAL, "queue", queue).unwrap_or(0)
        };
        let delivered = delivered_at(last).saturating_sub(delivered_at(first));
        let lambda = delivered as f64 * 1_000.0 / elapsed_ms as f64;
        let implied_wait_ms = if lambda > 0.0 { mean_depth / lambda * 1_000.0 } else { 0.0 };
        let residual = dequeue_wait.map(|w| (implied_wait_ms - w).abs() / w.max(1.0));
        report.queues.push(QueueLaw {
            queue: queue.to_owned(),
            mean_depth,
            throughput_tps: lambda,
            implied_wait_ms,
            observed_wait_ms: dequeue_wait,
            residual,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric_names as names;
    use crate::registry::MetricsRegistry;

    #[test]
    fn empty_series_yields_empty_report() {
        let report = analyze(&[]);
        assert_eq!(report, PerfReport::default());
        let reg = MetricsRegistry::new();
        let one = analyze(&[reg.scrape(5)]);
        assert_eq!(one.elapsed_ms, 0);
        assert!(one.units.is_empty());
    }

    #[test]
    fn steady_load_prediction_matches_observation() {
        let reg = MetricsRegistry::new();
        let busy = reg.counter(names::POD_CPU_BUSY_US_TOTAL, &[("pod", "R0")]);
        let stored = reg.counter(names::JOINER_STORED_TOTAL, &[("joiner", "R0")]);
        let probes = reg.counter(names::JOINER_PROBES_TOTAL, &[("joiner", "R0")]);
        let mut series = vec![reg.scrape(0)];
        // 1 000 items/s at 200 µs per item → ρ = 0.2, for 4 seconds.
        for t in 1..=4u64 {
            stored.add(500);
            probes.add(500);
            busy.add(200_000);
            series.push(reg.scrape(t * 1_000));
        }
        let report = analyze(&series);
        assert_eq!(report.elapsed_ms, 4_000);
        assert_eq!(report.units.len(), 1);
        let u = &report.units[0];
        assert_eq!(u.unit, "R0");
        assert!((u.arrival_rate_tps - 1_000.0).abs() < 1e-9, "λ={}", u.arrival_rate_tps);
        assert!((u.service_us_per_item - 200.0).abs() < 1e-9);
        assert!((u.service_rate_tps - 5_000.0).abs() < 1e-6);
        assert!((u.utilization_predicted - 0.2).abs() < 1e-9);
        assert!((u.utilization_observed - 0.2).abs() < 1e-9);
    }

    #[test]
    fn regime_change_makes_prediction_diverge() {
        // Calibration half sees 200 µs/item; evaluation half actually
        // runs at 400 µs/item — predicted ρ must be half the observed.
        let reg = MetricsRegistry::new();
        let busy = reg.counter(names::POD_CPU_BUSY_US_TOTAL, &[("pod", "S1")]);
        let stored = reg.counter(names::JOINER_STORED_TOTAL, &[("joiner", "S1")]);
        let mut series = vec![reg.scrape(0)];
        for t in 1..=2u64 {
            stored.add(1_000);
            busy.add(200_000);
            series.push(reg.scrape(t * 1_000));
        }
        for t in 3..=4u64 {
            stored.add(1_000);
            busy.add(400_000);
            series.push(reg.scrape(t * 1_000));
        }
        let report = analyze(&series);
        let u = &report.units[0];
        assert!((u.utilization_predicted / u.utilization_observed - 0.5).abs() < 1e-9);
    }

    #[test]
    fn littles_law_on_a_steady_queue() {
        let reg = MetricsRegistry::new();
        let depth = reg.gauge(names::QUEUE_DEPTH, &[("queue", "q0")]);
        let delivered = reg.counter(names::QUEUE_DELIVERED_TOTAL, &[("queue", "q0")]);
        depth.set(5);
        let mut series = vec![reg.scrape(0)];
        for t in 1..=4u64 {
            delivered.add(1_000);
            series.push(reg.scrape(t * 1_000));
        }
        let report = analyze(&series);
        assert_eq!(report.queues.len(), 1);
        let q = &report.queues[0];
        assert!((q.mean_depth - 5.0).abs() < 1e-9);
        assert!((q.throughput_tps - 1_000.0).abs() < 1e-9);
        // W = L/λ = 5/1000 s = 5 ms.
        assert!((q.implied_wait_ms - 5.0).abs() < 1e-9, "W={}", q.implied_wait_ms);
        assert!(q.observed_wait_ms.is_none(), "no tracer hops registered");
    }

    #[test]
    fn hop_summary_survives_into_the_report() {
        let reg = MetricsRegistry::new();
        let wait = reg.histogram(names::TRACE_HOP_WAIT_MS, &[("hop", "dequeue")]);
        let service = reg.histogram(names::TRACE_HOP_SERVICE_MS, &[("hop", "dequeue")]);
        for _ in 0..10 {
            wait.record(4);
            service.record(2);
        }
        let series = vec![reg.scrape(0), reg.scrape(1_000)];
        let report = analyze(&series);
        assert_eq!(report.hops.len(), 1);
        assert_eq!(report.hops[0].hop, "dequeue");
        assert_eq!(report.hops[0].samples, 10);
        assert!((report.hops[0].wait_ms_mean - 4.0).abs() < 1e-9);
        assert!((report.hops[0].service_ms_mean - 2.0).abs() < 1e-9);
    }
}
