//! Chaos integration tests: crash/recover drills through the facade, the
//! exploration harness finding a deliberately seeded recovery bug, and
//! deterministic replay of the committed regression artifact.

use bistream::core::chaos::{explore, replay, run_trial, scenario_profile, SCENARIOS};
use bistream::types::cases::for_cases;
use bistream::types::fault::{ChaosArtifact, ChaosProfile, FaultEvent, FaultPlan, TrialSpec};
use std::path::Path;

fn artifact_path(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/chaos_artifacts").join(name)
}

#[test]
fn healthy_engine_survives_every_scenario() {
    let spec = TrialSpec { pairs: 24, ..TrialSpec::default() };
    for scenario in SCENARIOS {
        let plan = FaultPlan::generate(11, &scenario_profile(scenario, &spec));
        let report = run_trial(&plan, &spec);
        assert!(!report.failed(), "{scenario}: {:?}", report.violations);
        assert_eq!(report.results, 24, "{scenario}: every pair must match exactly once");
    }
}

#[test]
fn crash_drill_is_deterministic_and_lossless() {
    let spec = TrialSpec { pairs: 32, ..TrialSpec::default() };
    let plan = FaultPlan {
        seed: 0,
        scenario: "crash".into(),
        events: vec![
            FaultEvent::CrashUnit { unit: 0, at_step: 60 },
            FaultEvent::CrashUnit { unit: 1, at_step: 90 },
        ],
    };
    let a = run_trial(&plan, &spec);
    let b = run_trial(&plan, &spec);
    assert_eq!(a, b, "same plan, same spec => byte-identical report");
    assert!(!a.failed(), "recovery must be clean: {:?}", a.violations);
    assert_eq!(a.results, 32);
    assert_eq!(a.crashes_fired, 2);
}

#[test]
fn explorer_finds_the_seeded_recovery_bug() {
    let spec = TrialSpec { pairs: 24, bug: "skip_rehydrate".to_owned(), ..TrialSpec::default() };
    let exploration = explore("crash", 16, &spec, true);
    assert!(
        !exploration.failures.is_empty(),
        "skip_rehydrate must be caught within 16 crash seeds"
    );
    let artifact = &exploration.failures[0];
    assert!(!artifact.violations.is_empty(), "minimized plan still fails");
    // The artifact round-trips through its own JSON byte-for-byte.
    let json = artifact.to_json();
    let parsed = ChaosArtifact::from_json(&json).expect("self-produced JSON parses");
    assert_eq!(&parsed, artifact);
    assert_eq!(parsed.to_json(), json, "serialisation is byte-stable");
    // And replaying it re-fails with the same violations.
    let again = replay(artifact);
    assert_eq!(again.violations, artifact.violations);
}

#[test]
fn committed_artifact_refails_deterministically() {
    let text = std::fs::read_to_string(artifact_path("skip_rehydrate.json"))
        .expect("committed artifact present");
    let artifact = ChaosArtifact::from_json(&text).expect("committed artifact parses");
    assert_eq!(artifact.trial.bug, "skip_rehydrate");

    let report = replay(&artifact);
    assert!(report.failed(), "the committed regression must still fail");
    assert!(report.crashes_fired >= 1, "the plan's crash drill must fire");
    assert_eq!(replay(&artifact), report, "replay is deterministic");

    // The same plan against a healthy engine passes: the regression is
    // the bug's, not the schedule's.
    let healthy = TrialSpec { bug: "none".to_owned(), ..artifact.trial.clone() };
    let clean = run_trial(&artifact.plan, &healthy);
    assert!(!clean.failed(), "healthy engine must survive the plan: {:?}", clean.violations);
    assert_eq!(clean.results, artifact.trial.pairs as usize);
}

/// Plan generation is a pure function of (seed, profile), and every
/// generated plan survives a JSON round-trip unchanged.
#[test]
fn generated_plans_are_deterministic_and_roundtrip() {
    let check = |seed: u64, profile: &ChaosProfile| {
        let a = FaultPlan::generate(seed, profile);
        let b = FaultPlan::generate(seed, profile);
        assert_eq!(&a, &b);
        let parsed = FaultPlan::from_json(&a.to_json()).expect("self-produced JSON parses");
        assert_eq!(&parsed, &a);
        // The termination guard: every event's effect ends by the horizon.
        for e in &a.events {
            assert!(e.horizon() <= a.horizon());
        }
    };
    // Seed 0 of a profile that asks for nothing: the empty plan.
    check(0, &ChaosProfile::new("mixed", vec![0, 1], vec![0, 1, 2, 3]));
    let mut profile = ChaosProfile::new("mixed", vec![0, 1], vec![0, 1, 2, 3]);
    profile.queues = vec!["tuple.q.0".to_owned()];
    profile.delays = 2;
    profile.partitions = 2;
    profile.crashes = 1;
    profile.stalls = 1;
    check(0, &profile);
    for_cases("generated_plans_are_deterministic_and_roundtrip", 256, |g| check(g.u64(), &profile));
}
