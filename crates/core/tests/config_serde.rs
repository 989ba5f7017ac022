//! JSON round trips of [`EngineConfig`]: experiment configs are persisted
//! next to results and must stay loadable across releases. They live here,
//! not in `src/config.rs`, so the crate's unit tests build without
//! `serde_json` (see `scripts/offline-test.sh`).

use bistream_core::config::{AdaptiveTuning, EngineConfig, RoutingStrategy};
use bistream_types::window::WindowSpec;

#[test]
fn config_serde_round_trips() {
    // Experiment configs are persisted as JSON next to results; the
    // round trip must be lossless.
    let mut c = EngineConfig::default_equi();
    c.routing = RoutingStrategy::ContRand { subgroups: 2 };
    c.window = WindowSpec::FullHistory;
    let json = serde_json::to_string(&c).unwrap();
    let back: EngineConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back.routing, c.routing);
    assert_eq!(back.window, c.window);
    assert_eq!(back.predicate, c.predicate);
    assert_eq!(back.seed, c.seed);
}

#[test]
fn configs_without_batch_size_deserialize_to_one() {
    // Configs persisted before micro-batching existed must stay
    // loadable — and must reproduce per-tuple behaviour.
    let mut v = serde_json::to_value(EngineConfig::default_equi()).unwrap();
    v.as_object_mut().unwrap().remove("batch_size");
    let back: EngineConfig = serde_json::from_value(v).unwrap();
    assert_eq!(back.batch_size, 1);
}

#[test]
fn configs_without_adaptive_tuning_deserialize_to_defaults() {
    // Configs persisted before the adaptive router existed must stay
    // loadable.
    let mut v = serde_json::to_value(EngineConfig::default_equi()).unwrap();
    v.as_object_mut().unwrap().remove("adaptive");
    let back: EngineConfig = serde_json::from_value(v).unwrap();
    assert_eq!(back.adaptive, AdaptiveTuning::default());
}
