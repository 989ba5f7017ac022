//! **E5 — Routing strategies under key skew** (reconstructed: the
//! ContRand evaluation, extended with the skew-adaptive router).
//!
//! Part 1 — stationary Zipf sweep. Equi-join on an 8×8 biclique with
//! Zipf-distributed keys, sweeping the skew exponent θ and the routing
//! strategy. Reported per cell: the load-imbalance ratio (hottest unit's
//! stored tuples over the mean) and the communication cost (copies per
//! tuple). Expected shape:
//!
//! - **Random** — imbalance ≈ 1 regardless of θ, but pays `1 + m` copies;
//! - **Hash** — 2 copies, but imbalance explodes as θ → 1 (the hot key
//!   pins one unit);
//! - **ContRand(d)** — copies `1 + m/d`, imbalance bounded by the
//!   subgroup width: the paper's middle ground;
//! - **Adaptive** — starts as ContRand, detects the hot keys online and
//!   gives only those full fan-out: near-random imbalance at near-ContRand
//!   cost.
//!
//! Part 2 — shifting-Zipf ablation. The adversarial workload for the
//! adaptive router: exact Zipf at θ ≥ 1.2 whose hot-key identities rotate
//! every period. A static strategy is either expensive everywhere
//! (Random), collapsed (Hash), or bounded-but-stuck (ContRand); the
//! adaptive router must re-detect the hot set after every rotation.
//! Reported per cell: copies, the *peak* per-period imbalance (sampled at
//! each period boundary — cumulative averages would wash the rotation
//! out), the committed strategy switches, and the audit verdict.
//!
//! Part 3 — live ablation. The same contest on the threaded
//! [`Pipeline`] (broker backend) with an explicitly armed auditor:
//! adaptive vs static ContRand, flat-out, hot set rotating in wall time.

use super::common::{drive_engine, engine_config, feed, feed_dist};
use super::ExpCtx;
use crate::report::{f, Table};
use bistream_core::config::RoutingStrategy;
use bistream_core::engine::BicliqueEngine;
use bistream_core::exec::{Pipeline, PipelineConfig};
use bistream_core::sim::TupleFeed;
use bistream_types::audit::Auditor;
use bistream_types::predicate::JoinPredicate;
use bistream_types::rel::Rel;
use bistream_types::tuple::Tuple;
use bistream_types::value::Value;
use bistream_types::window::WindowSpec;
use bistream_workload::keys::{KeyDist, ShiftingZipf};

fn imbalance(stored: &[u64]) -> f64 {
    let max = *stored.iter().max().unwrap_or(&0) as f64;
    let mean = stored.iter().sum::<u64>() as f64 / stored.len().max(1) as f64;
    if mean == 0.0 {
        0.0
    } else {
        max / mean
    }
}

fn strategies() -> Vec<(&'static str, RoutingStrategy)> {
    vec![
        ("random", RoutingStrategy::Random),
        ("hash", RoutingStrategy::Hash),
        ("contrand(d=2)", RoutingStrategy::ContRand { subgroups: 2 }),
        ("contrand(d=4)", RoutingStrategy::ContRand { subgroups: 4 }),
        ("adaptive(d0=2)", RoutingStrategy::Adaptive { subgroups: 2 }),
    ]
}

/// Part 1: the stationary sweep.
fn stationary_sweep(ctx: &ExpCtx, horizon_ms: u64, units: usize) {
    let mut table = Table::new(
        "E5: routing strategies under Zipf skew (8x8 units, equi join)",
        &["theta", "strategy", "copies/tuple", "imbalance(max/mean)", "results", "switches"],
    );

    for &theta in &[0.0f64, 0.5, 0.8, 0.99] {
        for (name, strategy) in strategies() {
            let cfg = engine_config(
                strategy,
                JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
                WindowSpec::sliding(2_000),
                units,
                units,
                ctx.seed,
            );
            let mut engine = BicliqueEngine::new(cfg).expect("valid");
            let zipf = (theta > 0.0).then_some(theta);
            let mut f1 = feed(1_000.0, 10_000, zipf, 0, ctx.seed, horizon_ms);
            drive_engine(&mut engine, &mut f1).expect("runs");
            let mut stored = engine.stored_per_joiner(Rel::R);
            stored.extend(engine.stored_per_joiner(Rel::S));
            let snap = engine.stats();
            let switches = engine
                .adaptive_state()
                .map(|a| a.switches().to_string())
                .unwrap_or_else(|| "-".to_string());
            table.row(vec![
                f(theta, 2),
                name.to_string(),
                f(snap.copies_per_tuple(), 2),
                f(imbalance(&stored), 2),
                snap.results.to_string(),
                switches,
            ]);
        }
    }
    table.emit("e5_routing_skew");
}

/// Drive the sim engine over `feed`, punctuating on the configured
/// interval, and sample the per-unit stored imbalance at every
/// `period_ms` boundary (just after expiry catches up). Returns the
/// per-boundary imbalance series.
fn drive_sampling_periods(
    engine: &mut BicliqueEngine,
    feed: &mut dyn TupleFeed,
    period_ms: u64,
) -> Vec<f64> {
    let punct_every = engine.config().punctuation_interval_ms;
    let mut next_punct = punct_every;
    let mut next_period = period_ms;
    let mut series = Vec::new();
    let mut last_t = 0;
    while let Some(t) = feed.peek_ts() {
        while next_punct <= t {
            engine.punctuate(next_punct).expect("punctuate");
            if next_punct >= next_period {
                let mut stored = engine.stored_per_joiner(Rel::R);
                stored.extend(engine.stored_per_joiner(Rel::S));
                series.push(imbalance(&stored));
                next_period += period_ms;
            }
            next_punct += punct_every;
        }
        let tuple = feed.next_tuple().expect("peeked");
        engine.ingest(&tuple, t).expect("ingest");
        last_t = t;
    }
    engine.punctuate(last_t + punct_every).expect("punctuate");
    engine.flush().expect("flush");
    series
}

/// Part 2: the deterministic shifting-Zipf ablation.
fn shifting_ablation(ctx: &ExpCtx, horizon_ms: u64, units: usize) {
    let period_ms = horizon_ms / 4; // four hot-set rotations per run
    let mut table = Table::new(
        format!("E5b: shifting-Zipf ablation (8x8 units, hot set rotates every {period_ms} ms)"),
        &["theta", "strategy", "copies/tuple", "peak_imbalance", "results", "switches", "audit"],
    );

    for &theta in &[1.2f64, 1.5] {
        for (name, strategy) in strategies() {
            let cfg = engine_config(
                strategy,
                JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
                WindowSpec::sliding(period_ms.min(2_000)),
                units,
                units,
                ctx.seed,
            );
            let mut engine =
                BicliqueEngine::builder(cfg).auditor(Auditor::new()).build().expect("valid");
            let dist = KeyDist::ShiftingZipf { n: 10_000, theta, period_ms };
            let mut f1 = feed_dist(1_000.0, dist, 0, ctx.seed, horizon_ms);
            let series = drive_sampling_periods(&mut engine, &mut f1, period_ms);
            let peak = series.iter().copied().fold(0.0f64, f64::max);
            let snap = engine.stats();
            let switches = engine
                .adaptive_state()
                .map(|a| a.switches().to_string())
                .unwrap_or_else(|| "-".to_string());
            let audit = engine
                .auditor()
                .map(|a| a.finish().len().to_string())
                .unwrap_or_else(|| "-".to_string());
            table.row(vec![
                f(theta, 2),
                name.to_string(),
                f(snap.copies_per_tuple(), 2),
                f(peak, 2),
                snap.results.to_string(),
                switches,
                audit,
            ]);
        }
    }
    table.emit("e5_adaptive_ablation");
}

/// Part 3: the live threaded contest, adaptive vs static ContRand.
fn live_ablation(ctx: &ExpCtx, units: usize) {
    let pairs = if ctx.quick { 8_000 } else { 40_000 };
    let shift = ShiftingZipf::new(10_000, 1.2, 250); // wall-clock periods
    let mut table = Table::new(
        format!("E5c: live ablation, broker backend ({pairs} pairs flat-out, shifting theta=1.2)"),
        &["strategy", "thr_t/s", "copies/tuple", "results", "switches", "audit"],
    );

    for (name, strategy) in [
        ("contrand(d=2)", RoutingStrategy::ContRand { subgroups: 2 }),
        ("adaptive(d0=2)", RoutingStrategy::Adaptive { subgroups: 2 }),
    ] {
        let mut cfg = engine_config(
            strategy,
            JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
            WindowSpec::sliding(5_000),
            units,
            units,
            ctx.seed,
        );
        cfg.punctuation_interval_ms = 10;
        let mut pcfg = PipelineConfig::new(cfg);
        pcfg.auditor = Some(Auditor::new());
        let pipe = Pipeline::launch(pcfg).expect("launch");
        let t0 = pipe.now();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(ctx.seed);
        for _ in 0..pairs {
            let now = pipe.now();
            let key = shift.sample_at(&mut rng, now.saturating_sub(t0)) as i64;
            pipe.ingest(&Tuple::new(Rel::R, now, vec![Value::Int(key)])).expect("ingest");
            pipe.ingest(&Tuple::new(Rel::S, now, vec![Value::Int(key)])).expect("ingest");
        }
        let switches = pipe
            .adaptive_state()
            .map(|a| a.switches().to_string())
            .unwrap_or_else(|| "-".to_string());
        let report = pipe.finish().expect("finish");
        let thr = report.snapshot.ingested as f64 / (report.elapsed_ms.max(1) as f64 / 1_000.0);
        let audit = report
            .auditor
            .as_ref()
            .map(|a| a.finish().len().to_string())
            .unwrap_or_else(|| "-".to_string());
        table.row(vec![
            name.to_string(),
            f(thr, 0),
            f(report.snapshot.copies_per_tuple(), 2),
            report.snapshot.results.to_string(),
            switches,
            audit,
        ]);
    }
    table.emit("e5_adaptive_live");
}

/// Run E5.
pub fn run(ctx: &ExpCtx) {
    let horizon_ms: u64 = if ctx.quick { 3_000 } else { 10_000 };
    let units = 8usize;
    stationary_sweep(ctx, horizon_ms, units);
    // The ablation needs at least a few rotations; keep four periods in
    // both modes (quick: 4×1500 ms, full: 4×2500 ms at 1000 t/s/side).
    let ablation_horizon = if ctx.quick { 6_000 } else { 10_000 };
    shifting_ablation(ctx, ablation_horizon, units);
    live_ablation(ctx, units);
}
