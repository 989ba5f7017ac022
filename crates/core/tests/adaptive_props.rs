//! Property tests for the adaptive router's summary and plan switches:
//! space-saving keeps its error bounds, and a router's probe union always
//! covers its own store decision, whatever the switch interleaving.

use bistream_core::adaptive::{AdaptiveShared, SpaceSaving};
use bistream_core::config::AdaptiveTuning;
use bistream_core::layout::Layout;
use bistream_types::cases::{for_cases, Gen};
use bistream_types::rel::Rel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// `n` keys below `universe`, squared so that small keys are heavy.
fn skewed_keys(g: &mut Gen, universe: u64, n: std::ops::Range<usize>) -> Vec<u64> {
    g.vec(n, |g| g.uint(0..universe).pow(2) / universe)
}

fn counts(keys: &[u64]) -> HashMap<u64, u64> {
    let mut truth = HashMap::new();
    for &k in keys {
        *truth.entry(k).or_insert(0) += 1;
    }
    truth
}

fn check_space_saving(cap: usize, keys: &[u64]) {
    let mut ss = SpaceSaving::new(cap);
    for &k in keys {
        ss.observe(k);
    }
    let truth = counts(keys);
    assert!(ss.entries().len() <= cap);
    for e in ss.entries() {
        let t = truth.get(&e.key).copied().unwrap_or(0);
        assert!(e.count >= t, "{e:?} undercounts {t}");
        assert!(e.count - e.err <= t, "{e:?} guarantees more than {t}");
        assert!(e.err <= keys.len() as u64 / cap as u64, "{e:?} error above n / capacity");
    }
}

#[test]
fn prop_space_saving_bounds_hold() {
    // One slot: every new key evicts. Two slots with tied counters: the
    // eviction must still pick a minimum.
    check_space_saving(1, &[1, 2, 1, 3, 3]);
    check_space_saving(2, &[1, 2, 3, 1, 2, 4]);
    for_cases("prop_space_saving_bounds_hold", 64, |g| {
        let cap = g.index(4..32);
        check_space_saving(cap, &skewed_keys(g, 100, 100..5_000));
    });
}

/// Completeness under arbitrary switch interleavings: whatever unit the
/// store plan picks, the *same router's* probe union for that key (of the
/// opposite side pattern) must cover the matching subgroup — i.e. a store
/// decision made now is probed now.
fn check_probe_union_contains_store_dest(subgroups: usize, seed: u64, keys: &[u64]) {
    let layout = Layout::new(4, 4, subgroups).unwrap();
    let shared = AdaptiveShared::new(AdaptiveTuning::default(), 1, subgroups, 4, 4, seed);
    let mut r = shared.handle(0);
    shared.force_flip_every_tick(true);
    let mut rng = StdRng::seed_from_u64(seed);
    for (i, &h) in keys.iter().enumerate() {
        r.observe(h);
        let dest = r.store_dest(&layout, Rel::R, h, &mut rng).unwrap();
        // An S-side tuple of the same key probes the R side.
        let probes = r.join_dests(&layout, Rel::R, h);
        assert!(probes.contains(&dest), "store dest {dest} not probed (probes {probes:?})");
        if i % 7 == 0 {
            r.tick();
        }
    }
}

#[test]
fn prop_probe_union_always_contains_store_dest() {
    // The degenerate layout: one subgroup, so the flips start from d = 1.
    check_probe_union_contains_store_dest(1, 0, &(0..64).collect::<Vec<u64>>());
    for_cases("prop_probe_union_always_contains_store_dest", 64, |g| {
        let seed = g.uint(0..500);
        let keys = g.vec(1..200, |g| g.uint(0..10_000));
        check_probe_union_contains_store_dest(2, seed, &keys);
    });
}
