//! Golden-file tests for the experiment harness's persisted JSON: the
//! key structure under `results/` is a stable interface (plotting
//! scripts and the CI chaos job consume it), so column renames or layout
//! drift must fail a test, not a downstream pipeline.

use bistream_bench::experiments::{self, ExpCtx};
use bistream_types::jsonlite::Json;

/// Run an experiment in a scratch dir and return its persisted table.
fn run_and_load(id: &str, name: &str) -> Json {
    // One shared scratch dir per test binary; every test sets the
    // process-global cwd to the SAME directory, so concurrent #[test]s
    // never race on where `results/` lands (file names are disjoint).
    let tmp = std::env::temp_dir().join("bistream-bench-golden");
    std::fs::create_dir_all(&tmp).unwrap();
    std::env::set_current_dir(&tmp).unwrap();
    let ctx = ExpCtx { quick: true, seed: 7, ..ExpCtx::default() };
    assert!(experiments::run(id, &ctx), "experiment {id} unknown");
    load(&tmp.join(format!("results/{name}.json")))
}

fn load(path: &std::path::Path) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{} not written: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{} invalid: {e}", path.display()))
}

/// The table's rows, every cell a preformatted string.
fn rows(doc: &Json) -> Vec<Vec<String>> {
    let cells = |row: &Json| -> Vec<String> {
        let row = row.as_array().expect("row is an array");
        row.iter().map(|c| c.as_str().expect("cells are strings").to_owned()).collect()
    };
    doc.field("rows").and_then(Json::as_array).expect("rows array").iter().map(cells).collect()
}

fn assert_table_shape(doc: &Json, name: &str, columns: &[&str]) {
    let Json::Obj(fields) = doc else { panic!("{name}: top level must be an object") };
    let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(keys, vec!["columns", "rows", "title"], "{name}: top-level keys are frozen");
    let got: Vec<&str> = doc
        .field("columns")
        .and_then(Json::as_array)
        .expect("columns array")
        .iter()
        .map(|c| c.as_str().unwrap())
        .collect();
    assert_eq!(got, columns, "{name}: column set/order is frozen");
    let rows = rows(doc);
    assert!(!rows.is_empty(), "{name}: at least one data row");
    for row in &rows {
        assert_eq!(row.len(), columns.len(), "{name}: row arity matches columns");
    }
}

#[test]
fn e5_json_shapes_are_stable_and_adaptive_wins_the_shifting_ablation() {
    // One e5 run writes all three tables; load the sweep through the
    // harness and the other two from the same scratch `results/` dir.
    let sweep = run_and_load("e5", "e5_routing_skew");
    assert_table_shape(
        &sweep,
        "e5_routing_skew",
        &["theta", "strategy", "copies/tuple", "imbalance(max/mean)", "results", "switches"],
    );
    let strategies: Vec<String> = rows(&sweep).into_iter().map(|r| r[1].clone()).collect();
    assert!(strategies.contains(&"adaptive(d0=2)".to_owned()), "strategies: {strategies:?}");

    let load = |name: &str| load(format!("results/{name}.json").as_ref());

    let ablation = load("e5_adaptive_ablation");
    assert_table_shape(
        &ablation,
        "e5_adaptive_ablation",
        &["theta", "strategy", "copies/tuple", "peak_imbalance", "results", "switches", "audit"],
    );
    let mut contrand_peak = f64::NAN;
    let mut adaptive_peak = f64::NAN;
    for row in rows(&ablation) {
        // Every ablation cell ran with an armed auditor and must be clean.
        assert_eq!(row[6], "0", "audit violations in {row:?}");
        if row[0] == "1.20" {
            let peak: f64 = row[3].parse().unwrap();
            match row[1].as_str() {
                "contrand(d=2)" => contrand_peak = peak,
                "adaptive(d0=2)" => {
                    adaptive_peak = peak;
                    let switches: u64 = row[5].parse().unwrap();
                    assert!(switches > 0, "adaptive never re-tuned: {row:?}");
                }
                _ => {}
            }
        }
    }
    assert!(
        adaptive_peak < contrand_peak,
        "adaptive must beat static ContRand under shifting theta=1.2: \
         adaptive {adaptive_peak} vs contrand {contrand_peak}"
    );

    let live = load("e5_adaptive_live");
    assert_table_shape(
        &live,
        "e5_adaptive_live",
        &["strategy", "thr_t/s", "copies/tuple", "results", "switches", "audit"],
    );
    for row in rows(&live) {
        assert_eq!(row[5], "0", "live audit violations in {row:?}");
        if row[0].starts_with("adaptive") {
            let switches: u64 = row[4].parse().unwrap();
            assert!(switches > 0, "live adaptive never re-tuned: {row:?}");
        }
    }
}

#[test]
fn e14_and_e17_json_shapes_are_stable() {
    let e14 = run_and_load("e14", "e14_recovery");
    assert_table_shape(
        &e14,
        "e14_recovery",
        &[
            "mode",
            "stored",
            "snapshot_MiB",
            "snapshot_ms",
            "restore_ms",
            "results",
            "completeness_%",
        ],
    );
    // Both the recovered and the unrecovered control row are present.
    let modes: Vec<String> = rows(&e14).into_iter().map(|r| r[0].clone()).collect();
    assert!(modes.contains(&"snapshot+restore".to_owned()), "modes: {modes:?}");
    assert!(modes.contains(&"crash, no recovery".to_owned()), "modes: {modes:?}");

    let e17 = run_and_load("e17", "e17_fault_sweep");
    assert_table_shape(
        &e17,
        "e17_fault_sweep",
        &["scenario", "bug", "seeds", "failures", "min_events", "first_violation"],
    );
    let rows = rows(&e17);
    // One row per healthy scenario plus the seeded-bug row.
    assert_eq!(rows.len(), 6);
    for row in &rows[..5] {
        assert_eq!(row[1], "none");
        assert_eq!(row[3], "0", "healthy scenario must report zero failures: {row:?}");
    }
    let bug_row = &rows[5];
    assert_eq!(bug_row[1], "skip_rehydrate");
    assert_ne!(bug_row[3], "0", "the seeded bug must be found within the quick seed budget");
    assert_ne!(bug_row[4], "-", "the failing plan must have been minimised");
}

#[test]
fn e18_and_e19_json_shapes_are_stable() {
    let e18 = run_and_load("e18", "e18_perf_model");
    assert_table_shape(
        &e18,
        "e18_perf_model",
        &["rate_t/s", "unit", "lambda_t/s", "S_us", "rho_pred", "rho_obs", "err_%"],
    );

    let e19 = run_and_load("e19", "e19_slo_chaos");
    assert_table_shape(
        &e19,
        "e19_slo_chaos",
        &["scenario", "mode", "seed", "results", "viol", "alerts", "stalls", "avail_%", "breached"],
    );
    let rows = rows(&e19);
    // Quick mode: 4 sim scenarios x 2 seeds + the live broker-stall drill.
    assert_eq!(rows.len(), 9);
    for row in &rows[..8] {
        assert_eq!(row[1], "sim");
        assert_eq!(row[4], "0", "sim trial must stay violation-free: {row:?}");
    }
    let drill = &rows[8];
    assert_eq!(drill[0], "broker_stall");
    assert_eq!(drill[1], "live");
    assert_eq!(drill[8], "yes", "the seeded broker stall must breach the SLO: {drill:?}");
    // The breach bundle lands next to the table for the CI artifact.
    let bundle = std::fs::read_to_string("results/e19_breach_bundle.json")
        .expect("breach bundle written on breach");
    let parsed =
        bistream_types::recorder::BreachBundle::from_json(&bundle).expect("bundle parses back");
    assert_eq!(parsed.to_json(), bundle, "bundle round-trip is byte-stable");
}
