//! The benchmark's fixed vocabulary: metric names, units, directions,
//! bounds, and what each per-layer row is expected to move. This table is
//! the single source; `BENCHMARK.json` is generated from it
//! (`bistream-benchmark manifest`) and a test keeps the two identical.

use crate::workload;

/// Seconds one driver run measures at scale 1; `--seconds` scales every
/// tuple count linearly against this.
pub const RUN_SECONDS: u64 = 15;

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, fixed for every later PR.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    /// Absolute slack `--check-repeat` adds to the relative bound (the
    /// driver applies the relative bound alone).
    pub slack: f64,
}

/// A per-layer metric and the prediction attached to it.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name, `<layer>.<metric>`; the layer is an engine module path.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

/// The end-to-end metrics, in report order.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "engine_tps", unit: "1/s", better: "higher", bound: 0.25, slack: 0.0 },
    EndToEnd { name: "lat_p50_ms", unit: "ms", better: "lower", bound: 0.25, slack: 1.0 },
    EndToEnd { name: "lat_mean_ms", unit: "ms", better: "lower", bound: 0.25, slack: 1.0 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25, slack: 0.0 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25, slack: 0.02 },
];

const fn row(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

/// The per-layer metrics, in dataflow order.
pub const PER_LAYER: &[PerLayer] = &[
    row("gen.ns_per_tuple", "ns", "lower", "validity only: the generator must stay >= 5x faster than the system"),
    row("gen.host_speed", "ratio", "higher", "validity only: nominal / measured cost of the reference join during the engine run; engine_tps is stated at 1.0"),
    row("gen.late_max_ms", "ms", "lower", "validity only: lateness of the open-loop feeder against its schedule"),
    row("core.router.route_ns_per_tuple", "ns", "lower", "engine_tps, sharded_tps on transport_small; includes core::adaptive on skew_hot"),
    row("core.router.punct_ns_per_round", "ns", "lower", "engine_tps, sharded_tps on transport_small"),
    row("core.router.copies_per_tuple", "ratio", "lower", "multiplies hop + joiner work: 3.0 on band_broadcast, 2.0 on the equi workloads, more under hot-key promotion"),
    row("core.router.tuples_per_frame", "ratio", "higher", "divides hop cost per tuple: ~batch size, 1 on transport_small"),
    row("core.adaptive.hot_keys", "count", "higher", "sharded_tps on skew_hot through per-unit balance; 0 elsewhere"),
    row("core.adaptive.switches", "count", "lower", "sharded_tps on skew_hot; 0 elsewhere"),
    row("types.batch.encode_ns_per_copy", "ns", "lower", "broker.pipeline_tps only; sharded moves frames as values, so no change in sharded_tps"),
    row("types.batch.decode_ns_per_copy", "ns", "lower", "broker.pipeline_tps only"),
    row("types.batch.bytes_per_copy", "B", "lower", "broker.pipeline_tps only"),
    row("core.sharded.spsc_hop_ns_per_frame", "ns", "lower", "sharded_tps, lat_mean_ms on transport_small (one frame per copy); ~1/64 of that per tuple elsewhere"),
    row("core.sharded.mpmc_hop_ns_per_item", "ns", "lower", "sharded_tps on transport_small (ingest edge, one item per tuple)"),
    row("core.sharded.ring_full_ratio", "ratio", "lower", "sharded_tps: a full ring means the consumer behind it is the bottleneck"),
    row("broker.hop_ns_per_frame", "ns", "lower", "broker.pipeline_tps; informational for ROADMAP item 3"),
    row("broker.pipeline_tps", "1/s", "higher", "informational for ROADMAP item 3; not gated"),
    row("broker.backpressure_blocks", "count", "lower", "broker.pipeline_tps"),
    row("core.ordering.offer_ns_per_tuple", "ns", "lower", "engine_tps, sharded_tps on transport_small"),
    row("core.ordering.offer2_ns_per_tuple", "ns", "lower", "same, with two interleaved routers (ungated two-router case)"),
    row("core.ordering.max_depth", "count", "lower", "lat_mean_ms on every workload (release wait)"),
    row("core.ordering.dup_dropped", "count", "lower", "0 unless a transport redelivers"),
    row("index.insert_ns_per_tuple", "ns", "lower", "engine_tps, sharded_tps on equi_uniform, band_broadcast, skew_hot; no change on transport_small"),
    row("index.probe_ns_per_probe", "ns", "lower", "engine_tps, sharded_tps on equi_uniform (hash), band_broadcast (range), skew_hot (posting lists)"),
    row("index.sub_indexes_per_probe", "ratio", "lower", "index.probe_ns_per_probe: window / archive period links per probe"),
    row("index.candidates_per_probe", "ratio", "lower", "index.probe_ns_per_probe"),
    row("index.hit_ratio", "ratio", "higher", "useful share of probe work: in-window matches / candidates"),
    row("index.expire_ns_per_tuple", "ns", "lower", "engine_tps on every workload (windows turn over)"),
    row("index.live_tuples", "count", "lower", "peak_rss_mb on equi_uniform, band_broadcast"),
    row("index.state_bytes_per_tuple", "B", "lower", "peak_rss_mb on equi_uniform, band_broadcast"),
    row("index.snapshot_ms", "ms", "lower", "no gated metric: checkpoint cost of the kept state"),
    row("index.engine_share", "ratio", "lower", "insert + probe + expire as a share of core.engine.ns_per_tuple: high on equi_uniform, < 0.1 on transport_small"),
    row("core.joiner.handle_ns_per_copy", "ns", "lower", "engine_tps, sharded_tps on every workload"),
    row("core.joiner.self_ns_per_copy", "ns", "lower", "engine_tps, sharded_tps on every workload"),
    row("core.joiner.emit_ns_per_result", "ns", "lower", "engine_tps, sharded_tps on skew_hot, band_broadcast"),
    row("core.joiner.results_per_tuple", "ratio", "lower", "multiplies emit work: ~28 on skew_hot, ~2 on band_broadcast"),
    row("core.engine.ns_per_tuple", "ns", "lower", "engine_tps (its reciprocal, on the traced prefix)"),
    row("core.engine.self_ns_per_tuple", "ns", "lower", "engine_tps on transport_small (driver overhead)"),
    row("core.engine.sum_vs_e2e", "ratio", "higher", "the layers-add-up check: sum of layer ns / engine ns, reconciled inside 0.8..1.2"),
    row("core.exec.sharded_tps", "1/s", "higher", "tuples/s through the live sharded pipeline, flat-out; raw wall clock, ungated: its spread on a shared host exceeds any admissible bound"),
    row("core.exec.lat_p99_ms", "ms", "lower", "ungated: log2-bucket histogram, <= 2x error"),
    row("core.exec.lat_max_ms", "ms", "lower", "ungated"),
    row("core.exec.drain_ms", "ms", "lower", "backlog check of the open-loop run (> 500 ms fails it)"),
    row("core.exec.queue_depth_max", "count", "lower", "lat_mean_ms; the unit behind the deepest ring is the bottleneck"),
    row("core.exec.queue_stall_ms", "ms", "lower", "0 unless a stall is injected"),
    row("core.exec.unit_work_skew", "ratio", "lower", "sharded_tps on skew_hot: max / mean of per-joiner stored + probes"),
    row("core.exec.trace_overhead_pct", "%", "lower", "sharded_tps with 1-in-64 tracing on vs off: the cost of the measurer"),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let ws = workload::all();
    for (i, w) in ws.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            json_str(w.name),
            json_str(w.why),
            if i + 1 < ws.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
