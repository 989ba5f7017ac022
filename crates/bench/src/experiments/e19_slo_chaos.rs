//! **E19 — SLO under chaos: availability grading of seeded fault drills**
//! (reconstructed: ties PR-5's chaos harness to the SLO engine).
//!
//! Two drill families, one availability table:
//!
//! - **Sim trials** replay seeded delay/partition/crash/stall plans
//!   through the virtual-time two-phase workload
//!   ([`bistream_core::chaos::slo::run_graded_trial`]). Faults defer or
//!   replay work but never park ingest, so a correct engine holds its
//!   objectives — the rows document availability *under* faults, with the
//!   auditor still guarding correctness.
//! - **The live broker-stall drill**
//!   ([`bistream_core::chaos::slo::run_broker_stall_drill`]) parks
//!   publishers on the ingest queue for a seeded window; the
//!   activity-gated throughput floor breaches, the multi-window burn
//!   alert pages, and the flight recorder dumps a byte-stable breach
//!   bundle — persisted under `results/` so CI can upload it as an
//!   artifact.

use super::ExpCtx;
use crate::report::{f, Table};
use bistream_core::chaos::slo::{run_broker_stall_drill, run_graded_trial};
use bistream_types::fault::TrialSpec;
use bistream_types::slo::SloSpec;
use bistream_types::watchdog::WatchdogConfig;

/// Where the live drill's breach bundle lands (CI uploads this).
const BUNDLE_PATH: &str = "results/e19_breach_bundle.json";

/// Run E19.
pub fn run(ctx: &ExpCtx) {
    let seeds: u64 = if ctx.quick { 2 } else { 4 };
    let spec = TrialSpec { pairs: if ctx.quick { 24 } else { 48 }, ..TrialSpec::default() };
    let slo = SloSpec::new().min_ingest_tps(20.0).p99_latency_ms(5_000);
    let watchdog = WatchdogConfig::default();
    let mut table = Table::new(
        format!("E19: SLO under chaos ({seeds} seeds/scenario + live broker-stall drill)"),
        &["scenario", "mode", "seed", "results", "viol", "alerts", "stalls", "avail_%", "breached"],
    );

    for scenario in ["delay", "partition", "crash", "stall"] {
        for seed in 0..seeds {
            let trial = run_graded_trial(scenario, seed, &spec, &slo, &watchdog);
            let alerts = trial.health.slo.as_ref().map(|s| s.alerts.len()).unwrap_or(0);
            table.row(vec![
                scenario.to_owned(),
                "sim".to_owned(),
                seed.to_string(),
                trial.results.to_string(),
                trial.violations.len().to_string(),
                alerts.to_string(),
                trial.health.stalls.len().to_string(),
                f(trial.availability_pct(), 1),
                if trial.health.breached() { "yes" } else { "no" }.to_owned(),
            ]);
        }
    }

    // The live drill: wall-clock pacing, seeded stall window on the
    // ingest queue. A modest floor keeps the healthy intervals green on
    // loaded CI machines; the stalled intervals ingest nothing at all.
    let (intervals, interval_ms) = if ctx.quick { (8, 40) } else { (12, 60) };
    let drill_slo = SloSpec::new().min_ingest_tps(50.0);
    match run_broker_stall_drill(ctx.seed, intervals, interval_ms, drill_slo, watchdog.clone()) {
        Ok(drill) => {
            let health = &drill.report.health;
            let alerts = health.slo.as_ref().map(|s| s.alerts.len()).unwrap_or(0);
            let avail = health.slo.as_ref().map(|s| s.availability_pct()).unwrap_or(100.0);
            table.row(vec![
                "broker_stall".to_owned(),
                "live".to_owned(),
                ctx.seed.to_string(),
                drill.report.snapshot.results.to_string(),
                "0".to_owned(),
                alerts.to_string(),
                health.stalls.len().to_string(),
                f(avail, 1),
                if health.breached() { "yes" } else { "no" }.to_owned(),
            ]);
            if let Some(bundle) = &health.bundle {
                if std::fs::create_dir_all("results").is_ok() {
                    match std::fs::write(BUNDLE_PATH, bundle.to_json()) {
                        Ok(()) => eprintln!(">> breach bundle written to {BUNDLE_PATH}"),
                        Err(e) => eprintln!(">> could not write {BUNDLE_PATH}: {e}"),
                    }
                }
            } else {
                eprintln!(">> live drill raised no breach (no bundle written)");
            }
        }
        Err(e) => {
            eprintln!(">> live broker-stall drill failed: {e}");
            table.row(vec![
                "broker_stall".to_owned(),
                "live".to_owned(),
                ctx.seed.to_string(),
                "0".to_owned(),
                "1".to_owned(),
                "0".to_owned(),
                "0".to_owned(),
                f(0.0, 1),
                "error".to_owned(),
            ]);
        }
    }

    table.emit("e19_slo_chaos");
}
