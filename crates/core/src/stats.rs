//! Engine-wide observability.

use bistream_types::metrics::{Counter, Histogram, HistogramSnapshot};
use bistream_types::registry::MetricsRegistry;
use std::sync::Arc;

/// Shared counters for one engine instance (live or simulated). All fields
/// are lock-free; the live runtime's threads bump them directly. The
/// primitives are `Arc`-wrapped so the same handles can also be registered
/// in a [`MetricsRegistry`] (see [`EngineStats::register_into`]).
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Tuples ingested into the engine.
    pub ingested: Arc<Counter>,
    /// Join results emitted (across all joiners).
    pub results: Arc<Counter>,
    /// Data copies sent by routers (communication cost), counted frame by
    /// frame where the frame is sent: mid-run, copies still pending in a
    /// router's unflushed batches (`batch_size > 1`) are not in it yet; once
    /// the routers have flushed (a punctuation, `flush()`, `finish()`) it is
    /// every copy routed.
    pub copies: Arc<Counter>,
    /// Punctuation messages sent, counted where they are sent.
    pub punctuations: Arc<Counter>,
    /// Result latency in ms (event-time ingest → emit).
    pub latency_ms: Arc<Histogram>,
}

impl EngineStats {
    /// A fresh stats block, shared.
    pub fn shared() -> Arc<EngineStats> {
        Arc::new(EngineStats::default())
    }

    /// Expose the engine-wide series in `registry` under `labels`
    /// (e.g. `engine="sim"`).
    pub fn register_into(&self, registry: &MetricsRegistry, labels: &[(&str, &str)]) {
        registry.register_counter(
            bistream_types::metric_names::TUPLES_INGESTED_TOTAL,
            labels,
            &self.ingested,
        );
        registry.register_counter(
            bistream_types::metric_names::JOIN_RESULTS_TOTAL,
            labels,
            &self.results,
        );
        registry.register_counter(bistream_types::metric_names::COPIES_TOTAL, labels, &self.copies);
        registry.register_counter(
            bistream_types::metric_names::PUNCTUATIONS_TOTAL,
            labels,
            &self.punctuations,
        );
        registry.register_histogram(
            bistream_types::metric_names::RESULT_LATENCY_MS,
            labels,
            &self.latency_ms,
        );
    }

    /// Point-in-time summary.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            ingested: self.ingested.get(),
            results: self.results.get(),
            copies: self.copies.get(),
            punctuations: self.punctuations.get(),
            latency: self.latency_ms.snapshot(),
        }
    }
}

/// Serializable summary of [`EngineStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Tuples ingested.
    pub ingested: u64,
    /// Join results emitted.
    pub results: u64,
    /// Data copies sent (communication cost).
    pub copies: u64,
    /// Punctuations sent.
    pub punctuations: u64,
    /// Latency summary.
    pub latency: HistogramSnapshot,
}

impl EngineSnapshot {
    /// Mean data copies per ingested tuple — the communication-cost figure
    /// compared against the analytic `p/2`, `√p`, `p/(2d)` in E11.
    pub fn copies_per_tuple(&self) -> f64 {
        if self.ingested == 0 {
            0.0
        } else {
            self.copies as f64 / self.ingested as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let s = EngineStats::default();
        s.ingested.add(10);
        s.copies.add(35);
        s.results.inc();
        s.latency_ms.record(8);
        let snap = s.snapshot();
        assert_eq!(snap.ingested, 10);
        assert_eq!(snap.results, 1);
        assert_eq!(snap.copies_per_tuple(), 3.5);
        assert_eq!(snap.latency.count, 1);
    }

    #[test]
    fn copies_per_tuple_handles_empty() {
        let snap = EngineStats::default().snapshot();
        assert_eq!(snap.copies_per_tuple(), 0.0);
    }

    #[test]
    fn register_into_shares_the_same_handles() {
        let s = EngineStats::shared();
        let reg = MetricsRegistry::new();
        s.register_into(&reg, &[("engine", "sim")]);
        s.ingested.add(5);
        s.latency_ms.record(7);
        let snap = reg.scrape(0);
        let labels: &[(&str, &str)] = &[("engine", "sim")];
        assert_eq!(
            snap.counter(bistream_types::metric_names::TUPLES_INGESTED_TOTAL, labels),
            Some(5)
        );
        match snap.get(bistream_types::metric_names::RESULT_LATENCY_MS, labels) {
            Some(bistream_types::registry::MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 1)
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
