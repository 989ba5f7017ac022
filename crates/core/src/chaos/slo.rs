//! SLO-graded chaos: the E19 availability drills.
//!
//! PR-5's chaos harness judges trials with the protocol auditor — a
//! correctness oracle. This module grades the *same* seeded fault plans
//! against service-level objectives instead: each trial's scrape series is
//! fed through [`bistream_types::recorder::grade_run`], so an injected
//! fault surfaces as burn-rate alerts, stall verdicts and (on breach) a
//! byte-stable flight-recorder bundle.
//!
//! Two drill shapes:
//!
//! - [`run_graded_trial`] — the virtual-time two-phase workload of
//!   [`crate::chaos::trial`] with a registry [`Sampler`] riding along.
//!   Delay/partition/crash plans defer or replay work but never park the
//!   ingest path, so a correct engine holds its objectives and the drill
//!   documents *availability under faults*.
//! - [`run_broker_stall_drill`] — a live [`Pipeline`] whose ingest queue
//!   is stalled by a seeded window (via [`Pipeline::set_queue_stalled`]).
//!   Publishers park, the ingest counter flatlines while the queue's
//!   stall-ms series grows, and the activity-gated throughput floor
//!   breaches — the one fault family virtual time cannot express, because
//!   a simulated stall window elapses within a single pump call.

use crate::chaos::trial::scenario_profile;
use crate::config::{EngineConfig, RoutingStrategy};
use crate::engine::BicliqueEngine;
use crate::exec::{Pipeline, PipelineConfig, PipelineReport, INGEST_QUEUE};
use bistream_types::error::Result;
use bistream_types::fault::{mix, FaultEvent, FaultPlan, TrialSpec};
use bistream_types::predicate::JoinPredicate;
use bistream_types::recorder::RunHealth;
use bistream_types::registry::{Observability, Sampler};
use bistream_types::rel::Rel;
use bistream_types::slo::SloSpec;
use bistream_types::time::Ts;
use bistream_types::tuple::Tuple;
use bistream_types::value::Value;
use bistream_types::watchdog::WatchdogConfig;
use bistream_types::window::WindowSpec;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Virtual-time sampling interval for graded sim trials (ms).
const SIM_SAMPLE_MS: Ts = 50;

/// One SLO-graded chaos trial.
#[derive(Debug, Clone)]
pub struct GradedTrial {
    /// Scenario the plan was generated for.
    pub scenario: String,
    /// Plan seed.
    pub seed: u64,
    /// Auditor violations plus any panic/error, rendered as strings.
    pub violations: Vec<String>,
    /// Join results that surfaced.
    pub results: usize,
    /// SLO verdicts, stall findings and (on breach) the recorder bundle.
    pub health: RunHealth,
}

impl GradedTrial {
    /// Availability percentage from the worst-graded objective (100 when
    /// no SLO was configured or nothing breached).
    pub fn availability_pct(&self) -> f64 {
        self.health.slo.as_ref().map(|s| s.availability_pct()).unwrap_or(100.0)
    }

    /// `true` when the trial failed correctness (auditor/panic/error) —
    /// distinct from an SLO breach, which is `health.breached()`.
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// Run one seeded chaos trial of `scenario` under SLO grading: the
/// two-phase store/probe workload with a scrape sampler riding along, the
/// auditor as correctness judge, and [`grade_run`] as the availability
/// judge over the collected series.
///
/// [`grade_run`]: bistream_types::recorder::grade_run
pub fn run_graded_trial(
    scenario: &str,
    seed: u64,
    spec: &TrialSpec,
    slo: &SloSpec,
    watchdog: &WatchdogConfig,
) -> GradedTrial {
    let plan = FaultPlan::generate(seed, &scenario_profile(scenario, spec));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        graded_trial_inner(&plan, spec, slo, watchdog)
    }));
    match outcome {
        Ok(Ok(trial)) => trial,
        Ok(Err(e)) => GradedTrial {
            scenario: scenario.to_owned(),
            seed,
            violations: vec![format!("engine error: {e}")],
            results: 0,
            health: RunHealth::default(),
        },
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            GradedTrial {
                scenario: scenario.to_owned(),
                seed,
                violations: vec![format!("panic: {msg}")],
                results: 0,
                health: RunHealth::default(),
            }
        }
    }
}

fn graded_trial_inner(
    plan: &FaultPlan,
    spec: &TrialSpec,
    slo: &SloSpec,
    watchdog: &WatchdogConfig,
) -> Result<GradedTrial> {
    let pairs = spec.pairs.max(1) as i64;
    // Same time layout as `trial::run_trial_inner`: stores in
    // [0, pairs·10), probes in [base, base + pairs·10).
    let base: Ts = (pairs as Ts) * 10 + 100;
    let window = WindowSpec::sliding(3 * base);
    let config = EngineConfig {
        r_joiners: spec.joiners_per_side.max(1) as usize,
        s_joiners: spec.joiners_per_side.max(1) as usize,
        predicate: JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
        window,
        routing: RoutingStrategy::Hash,
        archive_period_ms: (base / 8).max(1),
        punctuation_interval_ms: 20,
        ordering: true,
        seed: spec.engine_seed,
        batch_size: spec.batch_size.max(1) as usize,
        adaptive: Default::default(),
    };
    let obs = Observability::new();
    let auditor = bistream_types::audit::Auditor::new();
    auditor.enable_oracle(window.size());
    let mut engine = BicliqueEngine::builder(config)
        .routers(spec.routers.max(1) as usize)
        .observability(obs.clone())
        .auditor(auditor.clone())
        .chaos(plan.clone())
        .build()?;
    engine.capture_results();
    let mut sampler = Sampler::new(obs.registry.clone(), SIM_SAMPLE_MS);
    sampler.force_sample(0);

    let punct_every = spec.punct_every.max(1) as i64;
    let ckpt_every = spec.checkpoint_every.max(1);
    let mut punct_rounds = 0u32;

    let mut now: Ts = 0;
    for i in 0..pairs {
        now = (i as Ts) * 10;
        engine.ingest(&Tuple::new(Rel::R, now, vec![Value::Int(i)]), now)?;
        if (i + 1) % punct_every == 0 {
            engine.punctuate(now + 1)?;
            punct_rounds += 1;
            if punct_rounds.is_multiple_of(ckpt_every) {
                engine.checkpoint_all()?;
            }
        }
        sampler.maybe_sample(now);
    }
    engine.punctuate(base - 50)?;
    for i in 0..pairs {
        now = base + (i as Ts) * 10;
        engine.ingest(&Tuple::new(Rel::S, now, vec![Value::Int(i)]), now)?;
        if (i + 1) % punct_every == 0 {
            engine.punctuate(now + 1)?;
            punct_rounds += 1;
            if punct_rounds.is_multiple_of(ckpt_every) {
                engine.checkpoint_all()?;
            }
        }
        sampler.maybe_sample(now);
    }
    engine.punctuate(now + 10)?;
    engine.flush()?;
    let results = engine.take_captured().len();

    let series = bistream_types::metrics::finalize_scrape_series(
        &obs.registry,
        now + 10,
        sampler.into_series(),
    );
    let events = obs.journal.snapshot();
    let health = bistream_types::recorder::grade_run(Some(slo), watchdog, &series, &events, &[]);
    let violations: Vec<String> = auditor.finish().iter().map(|v| v.to_string()).collect();
    Ok(GradedTrial {
        scenario: plan.scenario.clone(),
        seed: plan.seed,
        violations,
        results,
        health,
    })
}

/// Outcome of the live broker-stall drill: the seeded plan that drove it
/// and the pipeline report (whose `health` carries the SLO verdicts and,
/// on breach, the flight-recorder bundle).
#[derive(Debug)]
pub struct StallDrillReport {
    /// The seeded stall plan the drill executed.
    pub plan: FaultPlan,
    /// The pipeline's final report, graded over the drill's scrapes.
    pub report: PipelineReport,
}

/// Run the live broker-stall drill: a [`Pipeline`] fed continuously from
/// a background thread while a seeded stall window parks publishers on
/// the ingest queue ([`Pipeline::set_queue_stalled`]). During the window
/// the ingest counter freezes but the queue's stall-ms counter grows, so
/// the activity-gated throughput floor grades those intervals as
/// *breached-while-offered* — never as idle — and a long enough window
/// fires the multi-window burn alert.
///
/// `intervals` (≥ 8) and `interval_ms` (≥ 20) pace the wall-clock scrape
/// cadence; the stall window starts at a seed-chosen interval (2 or 3)
/// and spans 4 intervals, which fills the fast burn window whenever
/// `slo.fast_window <= 3`.
pub fn run_broker_stall_drill(
    seed: u64,
    intervals: u64,
    interval_ms: u64,
    slo: SloSpec,
    watchdog: WatchdogConfig,
) -> Result<StallDrillReport> {
    let intervals = intervals.max(8);
    let interval_ms = interval_ms.max(20);
    let start = 2 + mix(seed, 1) % 2;
    let plan = FaultPlan {
        seed,
        scenario: "broker_stall".to_owned(),
        events: vec![FaultEvent::StallQueue {
            queue: INGEST_QUEUE.to_owned(),
            from_step: start,
            until_step: start + 4,
        }],
    };

    let mut engine = EngineConfig::default_equi();
    engine.ordering = true;
    engine.window = WindowSpec::sliding(600_000);
    let mut config = PipelineConfig::new(engine);
    config.slo = Some(slo);
    config.watchdog = watchdog;
    let pipeline = Arc::new(Pipeline::launch(config)?);

    // Background feeder: offered load never stops, so every interval of
    // the drill has input either ingested (healthy) or parked behind the
    // stalled queue (breached) — the idle/stall disambiguation the SLO
    // engine's activity gate relies on.
    let stop = Arc::new(AtomicBool::new(false));
    let feeder = {
        let pipeline = Arc::clone(&pipeline);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || -> Result<()> {
            let mut k: i64 = 0;
            while !stop.load(Ordering::Relaxed) {
                let now = pipeline.now();
                pipeline.ingest(&Tuple::new(Rel::R, now, vec![Value::Int(k % 64)]))?;
                pipeline.ingest(&Tuple::new(Rel::S, now, vec![Value::Int(k % 64)]))?;
                k += 1;
                std::thread::sleep(Duration::from_micros(500));
            }
            Ok(())
        })
    };

    let mut stalled = false;
    for i in 0..intervals {
        let want = plan.queue_stalled(INGEST_QUEUE, i);
        if want != stalled {
            pipeline.set_queue_stalled(INGEST_QUEUE, want)?;
            stalled = want;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
        pipeline.sample();
    }
    if stalled {
        pipeline.set_queue_stalled(INGEST_QUEUE, false)?;
    }
    stop.store(true, Ordering::Relaxed);
    feeder.join().map_err(|_| bistream_types::error::Error::Closed)??;
    let pipeline = Arc::try_unwrap(pipeline).map_err(|_| bistream_types::error::Error::Closed)?;
    let report = pipeline.finish()?;
    Ok(StallDrillReport { plan, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drill_slo() -> SloSpec {
        SloSpec::new().min_ingest_tps(50.0)
    }

    #[test]
    fn healthy_sim_trial_holds_its_objectives() {
        let spec = TrialSpec { pairs: 24, ..TrialSpec::default() };
        let slo = SloSpec::new().min_ingest_tps(20.0).p99_latency_ms(5_000);
        let trial = run_graded_trial("delay", 0, &spec, &slo, &WatchdogConfig::default());
        assert!(!trial.failed(), "{:?}", trial.violations);
        assert_eq!(trial.results, 24);
        let report = trial.health.slo.as_ref().expect("slo configured");
        assert!(!report.breached, "{report:?}");
        assert!(report.alerts.is_empty());
        assert!((trial.availability_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn graded_trials_are_deterministic() {
        let spec = TrialSpec { pairs: 16, ..TrialSpec::default() };
        let slo = SloSpec::new().min_ingest_tps(20.0);
        let wd = WatchdogConfig::default();
        let a = run_graded_trial("stall", 3, &spec, &slo, &wd);
        let b = run_graded_trial("stall", 3, &spec, &slo, &wd);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.results, b.results);
        assert_eq!(a.health, b.health);
    }

    #[test]
    fn broker_stall_drill_breaches_the_throughput_floor() {
        let drill = run_broker_stall_drill(7, 10, 40, drill_slo(), WatchdogConfig::default())
            .expect("drill runs");
        let health = &drill.report.health;
        let slo = health.slo.as_ref().expect("slo configured");
        assert!(slo.breached, "stalled ingest must breach the floor: {slo:?}");
        assert!(!slo.alerts.is_empty(), "burn alert fires: {slo:?}");
        let bundle = health.bundle.as_ref().expect("breach dumps a bundle");
        let text = bundle.to_json();
        let back = bistream_types::recorder::BreachBundle::from_json(&text).expect("parses");
        assert_eq!(back.to_json(), text, "bundle round-trips byte-stably");
    }
}
