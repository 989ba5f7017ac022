//! The single source of truth for metric series names.
//!
//! Every `bistream_*` series name used by production code lives here as a
//! `&'static str` constant. Centralising the names prevents registry/series
//! drift: a dashboards-vs-code typo becomes a compile error instead of a
//! silently empty panel, and `cargo xtask lint` rejects any `"bistream_…"`
//! string literal that appears outside this module (test code excepted).
//!
//! Naming follows the Prometheus conventions the registry renders:
//! `_total` for monotone counters, unit suffixes (`_ms`, `_bytes`, `_tps`)
//! for gauges and histograms.

// ---------------------------------------------------------------- routers

/// Tuples routed, per router.
pub const ROUTER_TUPLES_TOTAL: &str = "bistream_router_tuples_total";
/// Store+join copies fanned out, per router.
pub const ROUTER_COPIES_TOTAL: &str = "bistream_router_copies_total";
/// Punctuations emitted, per router.
pub const ROUTER_PUNCTUATIONS_TOTAL: &str = "bistream_router_punctuations_total";
/// Routing decisions taken, per router and strategy.
pub const ROUTER_ROUTE_DECISIONS_TOTAL: &str = "bistream_router_route_decisions_total";
/// Observed routing throughput, tuples per second.
pub const ROUTER_RATE_TPS: &str = "bistream_router_rate_tps";
/// Copies sent to one destination joiner, per (router, dest).
pub const ROUTER_DEST_COPIES_TOTAL: &str = "bistream_router_dest_copies_total";
/// Distribution of emitted batch-frame sizes (tuples per frame).
pub const BATCH_SIZE: &str = "bistream_batch_size";
/// Copies sitting in a router's unflushed per-destination batches
/// (backpressure: work admitted but not yet handed to the broker).
pub const ROUTER_PENDING_COPIES: &str = "bistream_router_pending_copies";
/// Hot-tier size of the adaptive router's store plan (0 under the static
/// strategies).
pub const ROUTER_HOT_KEYS: &str = "bistream_router_hot_keys";
/// Cold-tier ContRand subgroup count `d` of the adaptive store plan.
pub const ROUTER_ADAPTIVE_SUBGROUPS: &str = "bistream_router_adaptive_subgroups";
/// Punctuation-fenced plan adoptions performed, per router.
pub const ROUTER_STRATEGY_SWITCHES_TOTAL: &str = "bistream_router_strategy_switches_total";

// ---------------------------------------------------------------- joiners

/// Tuples installed into a joiner's window index.
pub const JOINER_STORED_TOTAL: &str = "bistream_joiner_stored_total";
/// Probe operations executed by a joiner.
pub const JOINER_PROBES_TOTAL: &str = "bistream_joiner_probes_total";
/// Join results emitted by a joiner.
pub const JOINER_RESULTS_TOTAL: &str = "bistream_joiner_results_total";
/// Candidate tuples inspected during probes.
pub const JOINER_CANDIDATES_TOTAL: &str = "bistream_joiner_candidates_total";
/// Tuples expired from a joiner's index.
pub const JOINER_EXPIRED_TOTAL: &str = "bistream_joiner_expired_total";
/// Live tuples currently stored by a joiner.
pub const JOINER_STORED_TUPLES: &str = "bistream_joiner_stored_tuples";
/// High-watermark depth of the reorder buffer.
pub const JOINER_REORDER_DEPTH_MAX: &str = "bistream_joiner_reorder_depth_max";
/// Current depth of the reorder buffer (tuples buffered awaiting the
/// watermark — the joiner-side backpressure signal).
pub const JOINER_REORDER_DEPTH: &str = "bistream_joiner_reorder_depth";
/// Spread between the fastest and slowest router frontier.
pub const JOINER_FRONTIER_LAG: &str = "bistream_joiner_frontier_lag";
/// Result latency histogram (virtual or wall ms), per joiner.
pub const JOINER_RESULT_LATENCY_MS: &str = "bistream_joiner_result_latency_ms";
/// Current reorder watermark (minimum router frontier) of a joiner — the
/// progress signal the stall watchdog tracks tick-over-tick.
pub const JOINER_WATERMARK: &str = "bistream_joiner_watermark";

// ---------------------------------------------------------------- index

/// Live tuples across all sub-indexes of one chained index.
pub const INDEX_LIVE_TUPLES: &str = "bistream_index_live_tuples";
/// Live bytes across all sub-indexes of one chained index.
pub const INDEX_LIVE_BYTES: &str = "bistream_index_live_bytes";
/// Sub-indexes currently chained (active + archived).
pub const INDEX_SUB_INDEXES: &str = "bistream_index_sub_indexes";
/// Tuples sealed into the archive.
pub const INDEX_ARCHIVED_TUPLES_TOTAL: &str = "bistream_index_archived_tuples_total";
/// Bytes sealed into the archive.
pub const INDEX_ARCHIVED_BYTES_TOTAL: &str = "bistream_index_archived_bytes_total";
/// Tuples discarded wholesale under Theorem 1.
pub const INDEX_EXPIRED_TUPLES_TOTAL: &str = "bistream_index_expired_tuples_total";
/// Bytes discarded wholesale under Theorem 1.
pub const INDEX_EXPIRED_BYTES_TOTAL: &str = "bistream_index_expired_bytes_total";
/// Whole sub-indexes discarded under Theorem 1.
pub const INDEX_EXPIRED_SUB_INDEXES_TOTAL: &str = "bistream_index_expired_sub_indexes_total";
/// Sub-indexes visited per probe (histogram).
pub const INDEX_PROBE_SUB_INDEXES: &str = "bistream_index_probe_sub_indexes";
/// Candidates inspected per probe (histogram).
pub const INDEX_PROBE_CANDIDATES: &str = "bistream_index_probe_candidates";

// ---------------------------------------------------------------- broker

/// Messages published to a queue.
pub const QUEUE_PUBLISHED_TOTAL: &str = "bistream_queue_published_total";
/// Messages delivered from a queue.
pub const QUEUE_DELIVERED_TOTAL: &str = "bistream_queue_delivered_total";
/// Messages currently buffered in a queue.
pub const QUEUE_DEPTH: &str = "bistream_queue_depth";
/// Publishes that blocked on a full queue.
pub const QUEUE_BACKPRESSURE_BLOCKS_TOTAL: &str = "bistream_queue_backpressure_blocks_total";
/// High-watermark of messages buffered in a queue.
pub const QUEUE_DEPTH_MAX: &str = "bistream_queue_depth_max";
/// Cumulative milliseconds publishers spent parked on a full or stalled
/// queue (backpressure stall time).
pub const QUEUE_STALL_MS_TOTAL: &str = "bistream_queue_stall_ms_total";

// ---------------------------------------------------------------- tracing

/// Traces completed (all branches closed).
pub const TRACE_COMPLETED_TOTAL: &str = "bistream_trace_completed_total";
/// Completed traces evicted before being drained.
pub const TRACE_DROPPED_TOTAL: &str = "bistream_trace_dropped_total";
/// Per-hop service time histogram (ms).
pub const TRACE_HOP_SERVICE_MS: &str = "bistream_trace_hop_service_ms";
/// Per-hop queue-wait time histogram (ms).
pub const TRACE_HOP_WAIT_MS: &str = "bistream_trace_hop_wait_ms";
/// End-to-end latency histogram of completed traces (ms).
pub const TRACE_E2E_LATENCY_MS: &str = "bistream_trace_e2e_latency_ms";
/// Journal events evicted because the ring was full.
pub const JOURNAL_DROPPED_TOTAL: &str = "bistream_journal_dropped_total";

// ------------------------------------------------------- engine / cluster

/// Tuples ingested by an engine or pipeline.
pub const TUPLES_INGESTED_TOTAL: &str = "bistream_tuples_ingested_total";
/// Join results produced engine-wide.
pub const JOIN_RESULTS_TOTAL: &str = "bistream_join_results_total";
/// Store/join copies produced engine-wide.
pub const COPIES_TOTAL: &str = "bistream_copies_total";
/// Punctuations processed engine-wide.
pub const PUNCTUATIONS_TOTAL: &str = "bistream_punctuations_total";
/// End-to-end result latency histogram (ms).
pub const RESULT_LATENCY_MS: &str = "bistream_result_latency_ms";
/// Busy CPU microseconds accounted to a pod.
pub const POD_CPU_BUSY_US_TOTAL: &str = "bistream_pod_cpu_busy_us_total";
/// Resident bytes accounted to a pod.
pub const POD_MEMORY_BYTES: &str = "bistream_pod_memory_bytes";
/// Replicated tuples per join-matrix cell.
pub const MATRIX_CELL_REPLICATED_TOTAL: &str = "bistream_matrix_cell_replicated_total";

// ------------------------------------------------------- slo / alerting

// SLO objective and alert identifiers follow the same single-source rule
// as the `bistream_*` series names: `slo_*` / `alert_*` literals outside
// this module fail `cargo xtask lint`, so a dashboard query and the code
// can never disagree on what an objective is called.

/// Objective: 99th-percentile end-to-end result latency stays inside the band.
pub const SLO_P99_LATENCY_MS: &str = "slo_p99_latency_ms";
/// Objective: ingest throughput stays above the floor while input is offered.
pub const SLO_MIN_INGEST_TPS: &str = "slo_min_ingest_tps";
/// Objective: broker-queue conservation deficit (lost tuples) stays under
/// the ceiling.
pub const SLO_MAX_LOST_TUPLES: &str = "slo_max_lost_tuples";
/// Alert: an objective burned error budget in both the fast and the slow
/// trailing window (SRE multi-window burn-rate rule).
pub const ALERT_SLO_BURN: &str = "alert_slo_burn";
/// Alert: the watchdog saw buffered input without frontier or queue
/// progress for K consecutive ticks.
pub const ALERT_PROGRESS_STALL: &str = "alert_progress_stall";

#[cfg(test)]
mod tests {
    #[test]
    fn names_follow_prefix_convention() {
        // Spot-check via the module's own source: every constant must carry
        // the `bistream_` prefix so scrapes group under one namespace.
        for name in [
            super::ROUTER_TUPLES_TOTAL,
            super::JOINER_STORED_TOTAL,
            super::INDEX_LIVE_TUPLES,
            super::QUEUE_DEPTH,
            super::TRACE_COMPLETED_TOTAL,
            super::TUPLES_INGESTED_TOTAL,
            super::MATRIX_CELL_REPLICATED_TOTAL,
        ] {
            assert!(name.starts_with("bistream_"), "{name}");
        }
    }
}
