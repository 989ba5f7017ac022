//! Property tests for the adaptive router's sketches and plan switches:
//! count-min never underestimates, space-saving keeps its error bounds, and
//! a router's probe union always covers its own store decision, whatever
//! the switch interleaving. They live here, not in `src/adaptive.rs`, so the
//! crate's unit tests build without `proptest` (see `scripts/offline-test.sh`).

use bistream_core::adaptive::{AdaptiveShared, CountMinSketch, SpaceSaving};
use bistream_core::config::AdaptiveTuning;
use bistream_core::layout::Layout;
use bistream_types::rel::Rel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_count_min_overestimates_every_key(
        seed in 0u64..1_000, n in 100usize..2_000,
    ) {
        let mut cm = CountMinSketch::new(seed);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            let k = (rng.gen_range(0..200u64)).pow(2) / 200;
            cm.observe(k);
            *truth.entry(k).or_insert(0) += 1;
        }
        for (&k, &t) in &truth {
            prop_assert!(cm.estimate(k) >= t);
        }
    }

    #[test]
    fn prop_space_saving_bounds_hold(
        seed in 0u64..1_000, n in 100usize..5_000, cap in 4usize..32,
    ) {
        let mut ss = SpaceSaving::new(cap);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            let k = (rng.gen_range(0..100u64)).pow(2) / 100;
            ss.observe(k);
            *truth.entry(k).or_insert(0) += 1;
        }
        prop_assert!(ss.entries().len() <= cap);
        for e in ss.entries() {
            let t = truth.get(&e.key).copied().unwrap_or(0);
            prop_assert!(e.count >= t);
            prop_assert!(e.count - e.err <= t);
            prop_assert!(e.err <= n as u64 / cap as u64);
        }
    }

    #[test]
    fn prop_probe_union_always_contains_store_dest(
        seed in 0u64..500, keys in proptest::collection::vec(0u64..10_000, 1..200),
    ) {
        // Completeness under arbitrary switch interleavings: whatever
        // unit the store plan picks, the *same router's* probe union
        // for that key (of the opposite side pattern) must cover the
        // matching subgroup — i.e. a store decision made now is
        // probed now.
        let layout = Layout::new(4, 4, 2).unwrap();
        let shared = AdaptiveShared::new(AdaptiveTuning::default(), 1, 2, 4, 4, seed);
        let mut r = shared.handle(0);
        shared.force_flip_every_tick(true);
        let mut rng = StdRng::seed_from_u64(seed);
        for (i, &h) in keys.iter().enumerate() {
            r.observe(h);
            let dest = r.store_dest(&layout, Rel::R, h, &mut rng).unwrap();
            // An S-side tuple of the same key probes the R side.
            let probes = r.join_dests(&layout, Rel::R, h);
            prop_assert!(
                probes.contains(&dest),
                "store dest {dest} not probed (probes {probes:?})"
            );
            if i % 7 == 0 {
                r.tick();
            }
        }
    }
}
