//! The benchmark's judge agrees with the engine's own single-index
//! reference (`index::naive`) — the two share no code.

use bistream_benchmark::reference::Expected;
use bistream_benchmark::runs::fold;
use bistream_benchmark::workload::{self, KeyDist, Workload};
use bistream_index::{IndexKind, NaiveWindowIndex};
use bistream_types::rel::Rel;
use bistream_types::tuple::JoinResult;
use bistream_types::window::WindowSpec;

/// Join `n` tuples of `w` with one `NaiveWindowIndex` per side.
fn naive_join(w: &Workload, seed: u64, rate: u64, n: u64) -> Expected {
    let kind = IndexKind::for_predicate(&w.predicate);
    let window = WindowSpec::sliding(w.window_ms);
    let mut stored = [NaiveWindowIndex::new(kind, window), NaiveWindowIndex::new(kind, window)];
    let side = |rel: Rel| if rel == Rel::R { 0 } else { 1 };
    let mut gen = w.generator(seed, rate, 0);
    let mut found = Expected::default();
    for _ in 0..n {
        let t = gen.next_raw().to_tuple();
        let opposite = &mut stored[1 - side(t.rel())];
        opposite.expire(t.ts());
        let plan = w.predicate.probe_plan(&t).unwrap();
        let mut results = Vec::new();
        opposite.probe(&plan, t.ts(), |s| {
            if w.predicate.matches(s, &t).unwrap() {
                results.push(JoinResult::of(s.clone(), t.clone()));
            }
        });
        fold(&results, &mut found);
        let key = t.require(w.predicate.attr_of(t.rel())).unwrap().clone();
        stored[side(t.rel())].insert(key, t);
    }
    found
}

fn reference_join(w: &Workload, seed: u64, rate: u64, n: u64) -> Expected {
    let mut join = w.reference_join();
    let mut gen = w.generator(seed, rate, 0);
    for _ in 0..n {
        join.push(&gen.next_raw());
    }
    join.expected()
}

#[test]
fn reference_equals_index_naive_on_a_sample_of_each_workload() {
    for w in workload::all() {
        // 2 000 tuples at 1 000 tuples/s span 2 s: every window turns over.
        let got = reference_join(&w, 21, 1_000, 2_000);
        assert_eq!(got, naive_join(&w, 21, 1_000, 2_000), "{}", w.name);
    }
}

#[test]
fn reference_equals_index_naive_when_keys_collide_often() {
    // The workloads' 100 000-key spaces give a 2 000-tuple sample few
    // matches; the same shapes over a small key space give thousands.
    for mut w in workload::all() {
        w.keys = match w.keys {
            KeyDist::UniformInt { .. } => KeyDist::UniformInt { keys: 40 },
            KeyDist::UniformEighths { .. } => KeyDist::UniformEighths { range: 40 },
            KeyDist::Zipf { theta, .. } => KeyDist::Zipf { keys: 40, theta },
        };
        let got = reference_join(&w, 22, 20_000, 2_000);
        assert!(
            got.results > 500,
            "{}: {} results is too few to mean anything",
            w.name,
            got.results
        );
        assert_eq!(got, naive_join(&w, 22, 20_000, 2_000), "{}", w.name);
    }
}
