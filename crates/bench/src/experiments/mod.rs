//! One module per experiment of EXPERIMENTS.md.
//!
//! Each experiment exposes `run(ctx)` and prints its table(s) through
//! [`crate::report::Table`], persisting JSON under `results/`. `ctx.quick`
//! shortens horizons for smoke runs (used by `--quick` and the
//! integration tests); the default parameters regenerate the figures at
//! full scale.

pub mod common;
pub mod e01_scaling_cpu;
pub mod e02_scaling_memory;
pub mod e03_capacity;
pub mod e04_memory_footprint;
pub mod e05_routing_skew;
pub mod e06_archive_period;
pub mod e07_ordering;
pub mod e08_window_sweep;
pub mod e09_elasticity;
pub mod e10_latency;
pub mod e11_communication;
pub mod e12_full_history;
pub mod e13_router_elasticity;
pub mod e14_recovery;
pub mod e15_trace_breakdown;
pub mod e16_batch_sweep;
pub mod e17_fault_sweep;
pub mod e18_perf_model;
pub mod e19_slo_chaos;

/// Experiment context.
#[derive(Debug, Clone)]
pub struct ExpCtx {
    /// Shorten horizons (smoke mode).
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Dump the observability output of instrumented experiments (the
    /// sampler's per-tick registry scrapes plus the drained event
    /// journal) to this JSON file (`--metrics-out`).
    pub metrics_out: Option<std::path::PathBuf>,
    /// Dump the per-tuple causal traces of tracing-instrumented
    /// experiments as Chrome `trace_event` JSON to this file
    /// (`--trace-out`); open in `chrome://tracing` or Perfetto.
    pub trace_out: Option<std::path::PathBuf>,
    /// Dump a point-in-time Prometheus text exposition of the
    /// experiment's registry to this file (`--telemetry-out`) — the
    /// payload a `/metrics` endpoint would serve.
    pub telemetry_out: Option<std::path::PathBuf>,
}

impl Default for ExpCtx {
    fn default() -> Self {
        ExpCtx {
            quick: false,
            seed: 0xB15_7EA4,
            metrics_out: None,
            trace_out: None,
            telemetry_out: None,
        }
    }
}

/// Write the `--metrics-out` dump: one JSON object holding the sampled
/// registry time-series (`series`, one full scrape per sample tick) and
/// the structured event journal (`events`, virtual-time stamped).
pub fn dump_metrics(
    path: &std::path::Path,
    series: &[bistream_types::registry::RegistrySnapshot],
    events: &[bistream_types::journal::Event],
) {
    let series: Vec<String> = series.iter().map(|s| s.to_json()).collect();
    let events: Vec<String> = events.iter().map(|e| e.to_json()).collect();
    let text = format!(
        "{{\"series\":[\n{}\n],\"events\":[\n{}\n]}}\n",
        series.join(",\n"),
        events.join(",\n")
    );
    match std::fs::write(path, text) {
        Ok(()) => eprintln!(">> metrics written to {}", path.display()),
        Err(e) => eprintln!(">> could not write {}: {e}", path.display()),
    }
}

/// Write the `--trace-out` dump: the collected per-tuple causal traces
/// rendered as Chrome `trace_event` JSON (one timeline row per trace).
pub fn dump_traces(path: &std::path::Path, traces: &[bistream_types::trace::Trace]) {
    let text = bistream_types::trace::chrome_trace_json(traces);
    match std::fs::write(path, text) {
        Ok(()) => eprintln!(">> traces written to {}", path.display()),
        Err(e) => eprintln!(">> could not write {}: {e}", path.display()),
    }
}

/// Write the `--telemetry-out` dump: a Prometheus text exposition
/// rendered by [`bistream_types::telemetry`].
pub fn dump_telemetry(path: &std::path::Path, text: &str) {
    match std::fs::write(path, text) {
        Ok(()) => eprintln!(">> telemetry written to {}", path.display()),
        Err(e) => eprintln!(">> could not write {}: {e}", path.display()),
    }
}

/// All experiment ids in order.
pub const ALL: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19",
];

/// Dispatch by id; returns false for unknown ids.
pub fn run(id: &str, ctx: &ExpCtx) -> bool {
    match id {
        "e1" => e01_scaling_cpu::run(ctx),
        "e2" => e02_scaling_memory::run(ctx),
        "e3" => e03_capacity::run(ctx),
        "e4" => e04_memory_footprint::run(ctx),
        "e5" => e05_routing_skew::run(ctx),
        "e6" => e06_archive_period::run(ctx),
        "e7" => e07_ordering::run(ctx),
        "e8" => e08_window_sweep::run(ctx),
        "e9" => e09_elasticity::run(ctx),
        "e10" => e10_latency::run(ctx),
        "e11" => e11_communication::run(ctx),
        "e12" => e12_full_history::run(ctx),
        "e13" => e13_router_elasticity::run(ctx),
        "e14" => e14_recovery::run(ctx),
        "e15" => e15_trace_breakdown::run(ctx),
        "e16" => e16_batch_sweep::run(ctx),
        "e17" => e17_fault_sweep::run(ctx),
        "e18" => e18_perf_model::run(ctx),
        "e19" => e19_slo_chaos::run(ctx),
        _ => return false,
    }
    true
}
