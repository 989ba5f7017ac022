//! Smoke tests keeping the experiment harness honest: every cheap
//! experiment must run to completion in quick mode (the expensive
//! sim/latency ones are exercised by `--quick all` runs and their own
//! crate tests). Runs in a temp dir so `results/` JSON does not litter
//! the workspace.

use bistream_bench::experiments::{self, ExpCtx};
use bistream_types::jsonlite::Json;

#[test]
fn quick_experiments_run_to_completion() {
    let tmp = std::env::temp_dir().join("bistream-bench-smoke");
    std::fs::create_dir_all(&tmp).unwrap();
    std::env::set_current_dir(&tmp).unwrap();

    let metrics = tmp.join("metrics.json");
    let ctx =
        ExpCtx { quick: true, seed: 7, metrics_out: Some(metrics.clone()), ..ExpCtx::default() };
    for id in ["e4", "e5", "e9", "e11", "e12", "e13", "e15", "e18"] {
        assert!(experiments::run(id, &ctx), "experiment {id} unknown");
    }

    // E18 honours `--metrics-out`: `{"series": [scrapes…], "events": […]}`.
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let doc = Json::parse(&text).expect("valid JSON");
    let series = doc.field("series").and_then(Json::as_array).expect("series array");
    assert!(!series.is_empty(), "no scrapes dumped");
    for scrape in series {
        scrape.field_u64("at").expect("scrape time");
        for s in scrape.field("series").and_then(Json::as_array).expect("series array") {
            s.field_str("k").expect("series key");
            s.field_str("t").expect("series type");
        }
    }
    doc.field("events").and_then(Json::as_array).expect("events array");
}

#[test]
fn trace_out_writes_valid_chrome_trace_json() {
    let tmp = std::env::temp_dir().join("bistream-bench-smoke-trace");
    std::fs::create_dir_all(&tmp).unwrap();
    std::env::set_current_dir(&tmp).unwrap();
    let path = tmp.join("trace.json");

    let ctx = ExpCtx { quick: true, seed: 7, trace_out: Some(path.clone()), ..ExpCtx::default() };
    assert!(experiments::run("e15", &ctx));

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let doc = Json::parse(&text).expect("valid JSON");
    let events = doc.field("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    let hops: Vec<&Json> = events.iter().filter(|e| e.field_str("ph") == Ok("X")).collect();
    assert!(!hops.is_empty(), "no hop events exported");
    // At least one trace is multi-hop: several X events share a tid.
    let tid = |e: &Json| e.field_u64("tid").expect("tid");
    let multi = hops.iter().any(|e| hops.iter().filter(|o| tid(o) == tid(e)).count() >= 2);
    assert!(multi, "no multi-hop trace in the export");
    for e in &hops {
        assert!(e.field_u64("dur").is_ok(), "negative or missing dur: {e:?}");
        let wait = e.field("args").and_then(|a| a.field_u64("wait_ms"));
        assert!(wait.is_ok(), "negative or missing wait: {e:?}");
    }
}

#[test]
fn unknown_experiment_is_rejected() {
    assert!(!experiments::run("e99", &ExpCtx::default()));
}

#[test]
fn registry_is_complete_and_ordered() {
    assert_eq!(experiments::ALL.first(), Some(&"e1"));
    assert_eq!(experiments::ALL.last(), Some(&"e19"));
    assert_eq!(experiments::ALL.len(), 19);
    // Every listed id dispatches.
    let unique: std::collections::HashSet<_> = experiments::ALL.iter().collect();
    assert_eq!(unique.len(), experiments::ALL.len());
}
