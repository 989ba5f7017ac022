//! The four named workloads and their frozen sizes.
//!
//! Every workload runs the same layout — 2 R-joiners × 2 S-joiners, one
//! router, ordering on, punctuation every 10 ms — and differs only in the
//! input properties the engine's behaviour depends on: predicate class,
//! key skew, window state, frame fill and routing fan-out.

use crate::gen::Generator;
use crate::reference::{Predicate, ReferenceJoin};
use bistream_core::config::{AdaptiveTuning, EngineConfig, RoutingStrategy};
use bistream_types::predicate::JoinPredicate;
use bistream_types::time::Ts;
use bistream_types::window::WindowSpec;

/// How join keys are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// `Int` uniform over `0..keys`.
    UniformInt {
        /// Distinct keys.
        keys: u64,
    },
    /// `Float` uniform over the multiples of 1/8 in `0..range`.
    UniformEighths {
        /// Exclusive upper end of the key range.
        range: u64,
    },
    /// `Int` rank drawn from an exact Zipf(θ) over `1..=keys`.
    Zipf {
        /// Distinct keys.
        keys: u64,
        /// Skew exponent.
        theta: f64,
    },
}

/// One benchmark workload: engine configuration plus input shape.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (recorded in `BENCHMARK.json`).
    pub why: &'static str,
    /// Key distribution.
    pub keys: KeyDist,
    /// Whether tuples carry a 32-byte `Str` payload.
    pub payload: bool,
    /// Join predicate.
    pub predicate: JoinPredicate,
    /// Routing strategy.
    pub routing: RoutingStrategy,
    /// Router micro-batch size.
    pub batch_size: usize,
    /// Sliding window, ms.
    pub window_ms: Ts,
    /// Chained-index archive period, ms.
    pub archive_period_ms: Ts,
    /// Tuples in one throughput run (`engine_tps`, `sharded_tps`,
    /// `broker.pipeline_tps`); the same on every commit.
    pub tuples: u64,
    /// What one tuple of this workload costs the reference join, ns, on
    /// the freeze host at its median speed: the nominal host speed
    /// `engine_tps` is stated at (see [`crate::calib`]). Changing it
    /// rescales `engine_tps`.
    pub reference_ns: f64,
    /// Offered rate of the open-loop latency run, tuples/s: one third of
    /// the median flat-out sharded throughput when the benchmark was
    /// frozen, two digits. ISSUE 11 asked for one half; at one half the
    /// host's slow phases push the pipeline to its knee and latency
    /// spreads past any bound (see README.md, "How rates and bounds were
    /// frozen").
    pub open_loop_rate: u64,
}

/// Arrival rate of the throughput runs' timestamps, tuples per second of
/// stream time (100 tuples/ms on every workload).
pub const STREAM_RATE: u64 = 100_000;
/// Punctuation interval, ms.
pub const PUNCT_MS: Ts = 10;
/// Tuples replayed by the traced per-layer run.
pub const TRACED_TUPLES: u64 = 200_000;

impl Workload {
    /// This workload's tuple stream under `seed`, `rate` tuples per second
    /// of stream time, first tuple due at `base` ms.
    pub fn generator(&self, seed: u64, rate: u64, base: Ts) -> Generator {
        Generator::new(self.keys, self.payload, seed, rate, base)
    }

    /// An empty reference join for this workload's predicate and window.
    pub fn reference_join(&self) -> ReferenceJoin {
        let predicate = match self.predicate {
            JoinPredicate::Band { band, .. } => Predicate::Band(band),
            _ => Predicate::Equi,
        };
        ReferenceJoin::new(predicate, self.window_ms)
    }

    /// The engine configuration all run modes share.
    pub fn engine_config(&self, seed: u64) -> EngineConfig {
        EngineConfig {
            r_joiners: 2,
            s_joiners: 2,
            predicate: self.predicate.clone(),
            window: WindowSpec::sliding(self.window_ms),
            routing: self.routing,
            archive_period_ms: self.archive_period_ms,
            punctuation_interval_ms: PUNCT_MS,
            ordering: true,
            batch_size: self.batch_size,
            adaptive: AdaptiveTuning::default(),
            seed,
        }
    }
}

/// Every workload, in report order.
pub fn all() -> Vec<Workload> {
    let equi = JoinPredicate::Equi { r_attr: 0, s_attr: 0 };
    vec![
        Workload {
            name: "equi_uniform",
            reference_ns: 750.0,
            why: "Equi-join, 100k uniform Int keys, Hash routing, batch 64, 1 s window (~100k live tuples): hash sub-index insert / probe / Theorem-1 expiry do the work, transport very little.",
            keys: KeyDist::UniformInt { keys: 100_000 },
            payload: false,
            predicate: equi.clone(),
            routing: RoutingStrategy::Hash,
            batch_size: 64,
            window_ms: 1_000,
            archive_period_ms: 50,
            tuples: 420_000,
            open_loop_rate: 52_000,
        },
        Workload {
            name: "band_broadcast",
            reference_ns: 1600.0,
            why: "Band join |r-s| <= 2 on Float keys + 32 B payload, Random routing (3 copies/tuple), 1 s window: ordered sub-index, range probes, tripled hop traffic; shows a hash-only or equi-only change.",
            keys: KeyDist::UniformEighths { range: 100_000 },
            payload: true,
            predicate: JoinPredicate::Band { r_attr: 0, s_attr: 0, band: 2.0 },
            routing: RoutingStrategy::Random,
            batch_size: 64,
            window_ms: 1_000,
            archive_period_ms: 50,
            tuples: 340_000,
            open_loop_rate: 52_000,
        },
        Workload {
            name: "transport_small",
            reference_ns: 580.0,
            why: "Equi keys but a 10 ms window (~1k live tuples) and batch 1: index work is negligible; route, one-frame-per-copy ring hop, reorder release and driver overhead do the work.",
            keys: KeyDist::UniformInt { keys: 100_000 },
            payload: false,
            predicate: equi.clone(),
            routing: RoutingStrategy::Hash,
            batch_size: 1,
            window_ms: 10,
            archive_period_ms: 50,
            tuples: 1_650_000,
            open_loop_rate: 170_000,
        },
        Workload {
            name: "skew_hot",
            reference_ns: 2050.0,
            why: "Equi-join, exact Zipf(1.0) keys, Adaptive routing, 50 ms window, ~28 results/tuple: small state, long posting lists, heavy emit, sketches and hot-key promotion live in the router.",
            keys: KeyDist::Zipf { keys: 100_000, theta: 1.0 },
            payload: false,
            predicate: equi,
            routing: RoutingStrategy::Adaptive { subgroups: 2 },
            batch_size: 64,
            window_ms: 50,
            archive_period_ms: 50,
            tuples: 450_000,
            open_loop_rate: 59_000,
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
