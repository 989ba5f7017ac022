//! Crash/recover drills: run a fixed workload through a chaos-armed
//! engine and judge it with the protocol auditor.
//!
//! A *trial* is the unit of chaos testing: one engine, one
//! [`FaultPlan`], one deterministic two-phase workload (store every R
//! tuple, then probe with every S tuple — so a recovery bug that loses
//! stored state is *observable*, not masked by interleaved probing), and
//! the [`Auditor`] with its output oracle as the only pass/fail
//! authority. Panics and engine errors count as failures too — a chaos
//! schedule that wedges or crashes the engine is exactly what the
//! explorer exists to find.
//!
//! [`explore`] sweeps seeds per scenario; every failing plan is ddmin-
//! minimised ([`crate::chaos::minimize`]) and packaged as a replayable
//! [`ChaosArtifact`]. [`replay`] re-executes an artifact and is what the
//! committed regression tests call.

use crate::chaos::minimize::minimize;
use crate::config::{EngineConfig, RoutingStrategy};
use crate::engine::BicliqueEngine;
use bistream_types::audit::Auditor;
use bistream_types::error::Result;
use bistream_types::fault::{ChaosArtifact, ChaosProfile, FaultPlan, TrialSpec, ARTIFACT_VERSION};
use bistream_types::predicate::JoinPredicate;
use bistream_types::rel::Rel;
use bistream_types::time::Ts;
use bistream_types::tuple::Tuple;
use bistream_types::value::Value;
use bistream_types::window::WindowSpec;

/// The scenario names the exploration harness understands.
pub const SCENARIOS: &[&str] = &["delay", "partition", "crash", "stall", "mixed"];

/// Outcome of one chaos trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialReport {
    /// Auditor violations (plus any panic/error, rendered as strings).
    /// Empty means the trial passed.
    pub violations: Vec<String>,
    /// Join results that surfaced (after crash-replay deduplication).
    pub results: usize,
    /// Crash drills the plan actually fired.
    pub crashes_fired: u32,
}

impl TrialReport {
    /// `true` when the trial failed (any violation, panic or error).
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// The fault profile the harness draws plans from for `scenario`, sized
/// to `spec`'s topology and workload length.
pub fn scenario_profile(scenario: &str, spec: &TrialSpec) -> ChaosProfile {
    let routers: Vec<u32> = (0..spec.routers.max(1)).collect();
    let units: Vec<u32> = (0..spec.joiners_per_side.max(1) * 2).collect();
    let mut p = ChaosProfile::new(scenario, routers, units);
    // Steps advance roughly one per delivered frame; with hash routing a
    // pair is ~4 data frames plus periodic punctuation fan-out. Aim the
    // fault horizon at the middle of the run so crashes land while state
    // exists and recovery still gets exercised by the probe phase.
    p.horizon = (spec.pairs as u64).saturating_mul(4).max(64);
    p.max_window = 24;
    match scenario {
        "delay" => p.delays = 4,
        "partition" => p.partitions = 3,
        "crash" => p.crashes = 2,
        "stall" => {
            // Stall windows target the per-unit broker queues; in the
            // simulator the net maps a `unit.N` stall onto every channel
            // into unit N (see [`crate::delivery::ChannelNet`]).
            p.queues = p.units.iter().map(|u| format!("unit.{u}")).collect();
            p.stalls = 2;
        }
        "mixed" => {
            p.delays = 2;
            p.partitions = 2;
            p.crashes = 1;
        }
        _ => {}
    }
    p
}

/// Run one trial: the two-phase workload under `plan`, judged by the
/// auditor. Panics are caught and reported as violations.
pub fn run_trial(plan: &FaultPlan, spec: &TrialSpec) -> TrialReport {
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_trial_inner(plan, spec)));
    match outcome {
        Ok(Ok(report)) => report,
        Ok(Err(e)) => TrialReport {
            violations: vec![format!("engine error: {e}")],
            results: 0,
            crashes_fired: 0,
        },
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            TrialReport { violations: vec![format!("panic: {msg}")], results: 0, crashes_fired: 0 }
        }
    }
}

fn run_trial_inner(plan: &FaultPlan, spec: &TrialSpec) -> Result<TrialReport> {
    let pairs = spec.pairs.max(1) as i64;
    // All stores happen in [0, pairs·10); all probes in [base, base+pairs·10).
    // The window spans both phases so every pair matches exactly once.
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
    let auditor = Auditor::new();
    auditor.enable_oracle(window.size());
    let mut engine = BicliqueEngine::builder(config)
        .routers(spec.routers.max(1) as usize)
        .auditor(auditor.clone())
        .chaos(plan.clone())
        .build()?;
    match spec.bug.as_str() {
        "skip_rehydrate" => engine.debug_skip_rehydrate(true),
        "corrupt_frontier" => {}
        _ => {}
    }
    engine.capture_results();

    let punct_every = spec.punct_every.max(1) as i64;
    let ckpt_every = spec.checkpoint_every.max(1);
    let mut punct_rounds = 0u32;
    let mut results = 0usize;

    // Phase A: store every R tuple (distinct keys), punctuating and
    // checkpointing on the configured cadence.
    let mut now: Ts = 0;
    for i in 0..pairs {
        now = (i as Ts) * 10;
        engine.ingest(&Tuple::new(Rel::R, now, vec![Value::Int(i)]), now)?;
        if spec.bug == "corrupt_frontier" && i == pairs / 2 {
            // Seeded watermark bug: force router 0's frontier far past
            // every real punctuation; buffered tuples release early and
            // the auditor's Definition-7 cross-check fires.
            engine.debug_corrupt_frontier(0, u64::MAX / 2)?;
        }
        if (i + 1) % punct_every == 0 {
            engine.punctuate(now + 1)?;
            punct_rounds += 1;
            if punct_rounds.is_multiple_of(ckpt_every) {
                engine.checkpoint_all()?;
            }
        }
    }
    engine.punctuate(base - 50)?;

    // Phase B: probe every key with S tuples.
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
    }
    engine.punctuate(now + 10)?;
    engine.flush()?;
    results += engine.take_captured().len();

    let violations: Vec<String> = auditor.finish().iter().map(|v| v.to_string()).collect();
    Ok(TrialReport { violations, results, crashes_fired: engine.crashes_fired() })
}

/// Re-execute a committed artifact's plan against its recorded trial
/// parameters. Deterministic: two replays of the same artifact produce
/// identical reports.
pub fn replay(artifact: &ChaosArtifact) -> TrialReport {
    run_trial(&artifact.plan, &artifact.trial)
}

/// Outcome of a seed sweep over one scenario.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The scenario explored.
    pub scenario: String,
    /// Seeds actually run (≤ the requested budget with `stop_at_first`).
    pub seeds_run: u64,
    /// Trials that failed.
    pub failures: Vec<ChaosArtifact>,
}

/// Sweep `seeds` generated plans of `scenario` against `spec`. Every
/// failing plan is ddmin-minimised and packaged as a replayable
/// [`ChaosArtifact`] whose violations come from re-running the
/// *minimised* plan.
pub fn explore(scenario: &str, seeds: u64, spec: &TrialSpec, stop_at_first: bool) -> Exploration {
    let profile = scenario_profile(scenario, spec);
    let mut failures = Vec::new();
    let mut seeds_run = 0;
    for seed in 0..seeds {
        seeds_run += 1;
        let plan = FaultPlan::generate(seed, &profile);
        let report = run_trial(&plan, spec);
        if !report.failed() {
            continue;
        }
        let minimized = minimize(&plan, |candidate| run_trial(candidate, spec).failed());
        let final_report = run_trial(&minimized, spec);
        failures.push(ChaosArtifact {
            version: ARTIFACT_VERSION,
            scenario: scenario.to_owned(),
            seed,
            plan: minimized,
            trial: spec.clone(),
            violations: final_report.violations,
        });
        if stop_at_first {
            break;
        }
    }
    Exploration { scenario: scenario.to_owned(), seeds_run, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistream_types::fault::FaultEvent;

    fn quick_spec() -> TrialSpec {
        TrialSpec { pairs: 24, ..TrialSpec::default() }
    }

    #[test]
    fn healthy_engine_passes_generated_plans_in_every_scenario() {
        let spec = quick_spec();
        for scenario in SCENARIOS {
            for seed in 0..3u64 {
                let plan = FaultPlan::generate(seed, &scenario_profile(scenario, &spec));
                let report = run_trial(&plan, &spec);
                assert!(
                    !report.failed(),
                    "{scenario}/seed {seed} failed a healthy engine: {:?}",
                    report.violations
                );
                assert_eq!(report.results, spec.pairs as usize, "{scenario}/seed {seed}");
            }
        }
    }

    #[test]
    fn trials_are_deterministic() {
        let spec = quick_spec();
        let plan = FaultPlan::generate(1, &scenario_profile("mixed", &spec));
        assert_eq!(run_trial(&plan, &spec), run_trial(&plan, &spec));
    }

    #[test]
    fn skip_rehydrate_bug_fails_under_a_crash_plan() {
        let mut spec = quick_spec();
        spec.bug = "skip_rehydrate".to_owned();
        // One crash late enough that a checkpoint has happened.
        let plan = FaultPlan {
            seed: 0,
            scenario: "crash".into(),
            events: vec![FaultEvent::CrashUnit { unit: 0, at_step: 60 }],
        };
        let report = run_trial(&plan, &spec);
        assert!(report.failed(), "losing checkpointed state must trip the oracle");
        assert!(report.crashes_fired >= 1);
        // The same plan on a healthy engine passes — the failure is the
        // bug's, not the plan's.
        let healthy = run_trial(&plan, &quick_spec());
        assert!(!healthy.failed(), "healthy engine: {:?}", healthy.violations);
    }

    #[test]
    fn corrupt_frontier_bug_fails_even_with_an_empty_plan() {
        let mut spec = quick_spec();
        spec.bug = "corrupt_frontier".to_owned();
        let report = run_trial(&FaultPlan::none(), &spec);
        assert!(report.failed(), "premature releases must trip the auditor");
    }

    #[test]
    fn explorer_finds_and_minimizes_the_seeded_bug() {
        let mut spec = quick_spec();
        spec.bug = "skip_rehydrate".to_owned();
        let exploration = explore("crash", 16, &spec, true);
        assert!(
            !exploration.failures.is_empty(),
            "explorer must find skip_rehydrate within 16 crash seeds"
        );
        let artifact = &exploration.failures[0];
        assert!(!artifact.violations.is_empty());
        // Minimal: every surviving event is necessary.
        for i in 0..artifact.plan.events.len() {
            let mut fewer = artifact.plan.clone();
            fewer.events.remove(i);
            assert!(
                !run_trial(&fewer, &spec).failed(),
                "event {i} of the minimized plan is removable"
            );
        }
        // Replayable: the artifact re-fails with the same violations.
        let again = replay(artifact);
        assert!(again.failed());
        assert_eq!(again.violations, artifact.violations);
    }
}
