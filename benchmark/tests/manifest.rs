//! `BENCHMARK.json` is generated from `src/manifest.rs`; the committed
//! file must be that text, and that text must fit the driver's limits.

use bistream_benchmark::manifest::{benchmark_json, END_TO_END, PER_LAYER};
use bistream_benchmark::workload;

#[test]
fn committed_benchmark_json_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with: benchmark/run.sh manifest > BENCHMARK.json"
    );
}

#[test]
fn names_units_and_bounds_fit_the_contract() {
    let name_ok = |n: &str| {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = Vec::new();
    for m in END_TO_END {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
        assert!(matches!(m.better, "higher" | "lower"));
        names.push(m.name);
    }
    for m in PER_LAYER {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(matches!(m.better, "higher" | "lower"));
        names.push(m.name);
    }
    assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
    let ws = workload::all();
    assert!((2..=8).contains(&ws.len()));
    for w in &ws {
        assert!(name_ok(w.name), "{}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is {} chars",
            w.name,
            w.why.len()
        );
        names.push(w.name);
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "every name is used once");
    assert!(benchmark_json().len() <= 64 * 1024);
}
