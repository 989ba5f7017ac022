//! Progress watchdog: stalls and deadlocks, distinct from idleness.
//!
//! The watchdog scans a registry scrape series for units that hold work
//! but make no progress for K consecutive ticks:
//!
//! - **Frontier stall** — a joiner's reorder buffer holds tuples
//!   (`bistream_joiner_reorder_depth` > 0) while its watermark
//!   (`bistream_joiner_watermark`, the minimum router frontier) is frozen.
//!   This is the deadlock signature of a lost or wedged punctuation: input
//!   arrived, ordering can never release it.
//! - **Queue stall** — a broker queue holds messages
//!   (`bistream_queue_depth` > 0) while its delivered counter is frozen:
//!   consumers stopped draining, or publishers are parked behind an
//!   operator stall upstream.
//!
//! Legitimate idleness — empty buffers, empty queues — never trips either
//! rule, whatever the watermark does; that is the false-positive guarantee
//! `tests/slo.rs` pins down. Verdicts carry the evidence (the frozen
//! value, the buffered count, the tick span) and name the
//! [`crate::metric_names::ALERT_PROGRESS_STALL`] alert.

use crate::metric_names as names;
use crate::registry::RegistrySnapshot;
use std::collections::BTreeSet;

/// Watchdog tuning: how many consecutive no-progress ticks make a stall.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogConfig {
    /// Consecutive scrape intervals without progress (while work is
    /// buffered) required to flag a stall.
    pub stall_ticks: usize,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig { stall_ticks: 3 }
    }
}

/// What kind of progress froze.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// A joiner's watermark froze while its reorder buffer held tuples.
    FrontierStall,
    /// A broker queue's delivery froze while it held messages.
    QueueStall,
}

impl StallKind {
    /// Stable string tag (also the JSON discriminator in breach bundles).
    pub fn label(&self) -> &'static str {
        match self {
            StallKind::FrontierStall => "frontier_stall",
            StallKind::QueueStall => "queue_stall",
        }
    }

    /// Parse a tag produced by [`StallKind::label`].
    pub fn from_label(s: &str) -> Option<StallKind> {
        match s {
            "frontier_stall" => Some(StallKind::FrontierStall),
            "queue_stall" => Some(StallKind::QueueStall),
            _ => None,
        }
    }
}

/// One detected stall episode, with the evidence that distinguishes it
/// from idleness.
#[derive(Debug, Clone, PartialEq)]
pub struct StallVerdict {
    /// What froze.
    pub kind: StallKind,
    /// The stalled unit: a joiner label (`R0`) or a queue name.
    pub unit: String,
    /// Scrape time at which the no-progress run began (ms).
    pub from_ms: u64,
    /// Scrape time of the last scrape in the run (ms).
    pub at_ms: u64,
    /// Consecutive no-progress intervals observed.
    pub ticks: u64,
    /// Work buffered behind the stall at detection (tuples or messages).
    pub buffered: u64,
    /// The frozen progress value (watermark ms, or delivered count).
    pub frozen_at: u64,
}

impl StallVerdict {
    /// The alert identifier stall verdicts raise.
    pub fn alert(&self) -> &'static str {
        names::ALERT_PROGRESS_STALL
    }
}

/// All values of `label` across samples named `name` in any snapshot.
fn all_label_values<'a>(
    series: &'a [RegistrySnapshot],
    name: &str,
    label: &str,
) -> BTreeSet<&'a str> {
    series.iter().flat_map(|snap| snap.label_values(name, label)).collect()
}

/// Scan one unit's `(buffered, progress)` readings per scrape for runs of
/// `>= stall_ticks` intervals where work is buffered at both ends and the
/// progress value does not move. Emits one verdict per maximal run.
fn scan_unit(
    kind: StallKind,
    unit: &str,
    series: &[RegistrySnapshot],
    readings: &[(u64, u64)],
    stall_ticks: usize,
    out: &mut Vec<StallVerdict>,
) {
    let stall_ticks = stall_ticks.max(1) as u64;
    let mut run: u64 = 0;
    let mut run_start = 0usize;
    let mut flush = |run: u64, run_start: usize, end: usize| {
        if run >= stall_ticks {
            out.push(StallVerdict {
                kind,
                unit: unit.to_owned(),
                from_ms: series[run_start].at,
                at_ms: series[end].at,
                ticks: run,
                buffered: readings[end].0,
                frozen_at: readings[end].1,
            });
        }
    };
    for i in 1..readings.len() {
        let (prev_buf, prev_prog) = readings[i - 1];
        let (cur_buf, cur_prog) = readings[i];
        // A no-progress interval: work buffered at both ends, progress
        // value frozen. Anything else (drain, advance, idle) breaks the run.
        if prev_buf > 0 && cur_buf > 0 && cur_prog == prev_prog {
            if run == 0 {
                run_start = i - 1;
            }
            run += 1;
        } else {
            flush(run, run_start, i - 1);
            run = 0;
        }
    }
    flush(run, run_start, readings.len().saturating_sub(1));
}

/// Scan a scrape series for stall episodes. Pure and post-hoc: both
/// harnesses run it over the same series the perf analyzer and the SLO
/// engine consume.
pub fn scan(cfg: &WatchdogConfig, series: &[RegistrySnapshot]) -> Vec<StallVerdict> {
    let mut out = Vec::new();
    if series.len() < 2 {
        return out;
    }
    for joiner in all_label_values(series, names::JOINER_WATERMARK, "joiner") {
        let readings: Vec<(u64, u64)> = series
            .iter()
            .map(|s| {
                (
                    s.gauge_with(names::JOINER_REORDER_DEPTH, "joiner", joiner).unwrap_or(0),
                    s.gauge_with(names::JOINER_WATERMARK, "joiner", joiner).unwrap_or(0),
                )
            })
            .collect();
        scan_unit(StallKind::FrontierStall, joiner, series, &readings, cfg.stall_ticks, &mut out);
    }
    for queue in all_label_values(series, names::QUEUE_DEPTH, "queue") {
        let readings: Vec<(u64, u64)> = series
            .iter()
            .map(|s| {
                (
                    s.gauge_with(names::QUEUE_DEPTH, "queue", queue).unwrap_or(0),
                    s.counter_with(names::QUEUE_DELIVERED_TOTAL, "queue", queue).unwrap_or(0),
                )
            })
            .collect();
        scan_unit(StallKind::QueueStall, queue, series, &readings, cfg.stall_ticks, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric_names as names;
    use crate::registry::MetricsRegistry;

    #[test]
    fn frozen_watermark_with_buffered_work_is_a_stall() {
        let reg = MetricsRegistry::new();
        let depth = reg.gauge(names::JOINER_REORDER_DEPTH, &[("joiner", "R0")]);
        let mark = reg.gauge(names::JOINER_WATERMARK, &[("joiner", "R0")]);
        mark.set(100);
        let mut series = vec![reg.scrape(0)];
        depth.set(4); // tuples arrive…
        for t in 1..=5u64 {
            series.push(reg.scrape(t * 1_000)); // …but the frontier never moves
        }
        let verdicts = scan(&WatchdogConfig::default(), &series);
        assert_eq!(verdicts.len(), 1, "{verdicts:?}");
        let v = &verdicts[0];
        assert_eq!(v.kind, StallKind::FrontierStall);
        assert_eq!(v.unit, "R0");
        assert_eq!(v.from_ms, 1_000);
        assert_eq!(v.at_ms, 5_000);
        assert_eq!(v.ticks, 4);
        assert_eq!(v.buffered, 4);
        assert_eq!(v.frozen_at, 100);
        assert_eq!(v.alert(), names::ALERT_PROGRESS_STALL);
    }

    #[test]
    fn idleness_and_steady_progress_are_not_stalls() {
        let reg = MetricsRegistry::new();
        let depth = reg.gauge(names::JOINER_REORDER_DEPTH, &[("joiner", "S1")]);
        let mark = reg.gauge(names::JOINER_WATERMARK, &[("joiner", "S1")]);
        // Idle: empty buffer, frozen watermark — fine, for however long.
        let idle: Vec<_> = (0..=10u64).map(|t| reg.scrape(t * 1_000)).collect();
        assert!(scan(&WatchdogConfig::default(), &idle).is_empty());
        // Busy but progressing: buffer held, watermark advances every tick.
        depth.set(8);
        let mut busy = Vec::new();
        for t in 0..=10u64 {
            mark.set(t * 50);
            busy.push(reg.scrape(t * 1_000));
        }
        assert!(scan(&WatchdogConfig::default(), &busy).is_empty());
    }

    #[test]
    fn short_freezes_stay_under_the_tick_threshold() {
        let reg = MetricsRegistry::new();
        let depth = reg.gauge(names::QUEUE_DEPTH, &[("queue", "unit.0")]);
        let delivered = reg.counter(names::QUEUE_DELIVERED_TOTAL, &[("queue", "unit.0")]);
        depth.set(3);
        let mut series = Vec::new();
        for t in 0..=8u64 {
            // Delivery freezes for 2 intervals at a time, then resumes:
            // never 3 consecutive frozen intervals.
            if t % 3 == 0 {
                delivered.add(10);
            }
            series.push(reg.scrape(t * 1_000));
        }
        assert!(scan(&WatchdogConfig::default(), &series).is_empty());
        // The same trace with a lower threshold does flag it.
        let strict = WatchdogConfig { stall_ticks: 2 };
        let verdicts = scan(&strict, &series);
        assert!(!verdicts.is_empty());
        assert!(verdicts.iter().all(|v| v.kind == StallKind::QueueStall));
    }

    #[test]
    fn queue_with_depth_and_frozen_delivery_is_flagged() {
        let reg = MetricsRegistry::new();
        let depth = reg.gauge(names::QUEUE_DEPTH, &[("queue", "tuple.exchange.routers")]);
        let delivered =
            reg.counter(names::QUEUE_DELIVERED_TOTAL, &[("queue", "tuple.exchange.routers")]);
        delivered.add(500);
        depth.set(64);
        let series: Vec<_> = (0..=4u64).map(|t| reg.scrape(t * 250)).collect();
        let verdicts = scan(&WatchdogConfig::default(), &series);
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].kind, StallKind::QueueStall);
        assert_eq!(verdicts[0].unit, "tuple.exchange.routers");
        assert_eq!(verdicts[0].frozen_at, 500);
        assert_eq!(verdicts[0].ticks, 4);
        assert_eq!(StallKind::from_label("queue_stall"), Some(StallKind::QueueStall));
        assert_eq!(StallKind::from_label("nope"), None);
    }
}
