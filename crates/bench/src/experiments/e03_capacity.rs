//! **E3 — Throughput (capacity) vs. number of processing units**,
//! biclique vs. join-matrix (reconstructed: the BiStream scalability
//! evaluation).
//!
//! Both models run the band-join workload at a fixed offered rate under
//! the *same* per-operation cost model; capacity is extrapolated from the
//! hottest unit's utilisation (`capacity = offered / max_util`). On a
//! host of a core or two the threaded runtimes cannot demonstrate parallel
//! speed-up physically, so the capacity estimator is the honest
//! instrument — see EXPERIMENTS.md for the substitution note. E3b times
//! the two 2×2 in-process engines flat-out over one shared feed as a
//! same-host wall-clock anchor.
//!
//! Two workload classes are compared, because they crown different
//! winners and that split is the substance of the paper's claim:
//!
//! - **equi-join**: the biclique routes content-sensitively (ContRand),
//!   so per-unit work shrinks ~`1/p`; the matrix cannot (random row and
//!   column assignment is its skew-resilience), so every tuple is still
//!   replicated `√p`-fold and probes `√p` whole-fragment... the biclique
//!   wins increasingly with `p`.
//! - **band join**: both models pay the full Cartesian-candidate probe
//!   work; per-unit CPU ends up comparable (the matrix's lower `√p`
//!   fan-out even gives it a small per-message edge). The biclique's win
//!   here is **memory** — the same capacity at `1/√p` the state (memory
//!   column; E4 quantifies) — plus elasticity (E9), matching the paper's
//!   "comparable throughput, significantly less memory" framing for
//!   theta joins.

use super::common::{capacity_from_meters, drive_engine, drive_matrix, engine_config, feed};
use super::ExpCtx;
use crate::report::{f, Table};
use bistream_core::config::RoutingStrategy;
use bistream_core::engine::BicliqueEngine;
use bistream_matrix::{JoinMatrix, MatrixConfig};
use bistream_types::predicate::JoinPredicate;
use bistream_types::rel::Rel;
use bistream_types::time::Stopwatch;
use bistream_types::window::WindowSpec;

struct Regime {
    name: &'static str,
    predicate: JoinPredicate,
    routing: fn(usize) -> RoutingStrategy,
    window_ms: u64,
    n_keys: u64,
    offered: f64,
}

/// Run E3.
pub fn run(ctx: &ExpCtx) {
    let horizon_ms: u64 = if ctx.quick { 5_000 } else { 20_000 };
    let regimes = [
        Regime {
            // Subgroup count grows with the cluster (constant subgroup
            // width 2), as the paper tunes d with the fleet: fan-out
            // stays 1 + 2 while skew is still diluted within a subgroup.
            name: "equi-join (biclique routes ContRand, width-2 subgroups)",
            predicate: JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
            routing: |p| RoutingStrategy::ContRand { subgroups: (p / 4).max(1) },
            window_ms: 10_000,
            n_keys: 10_000,
            offered: 1_000.0,
        },
        Regime {
            name: "band join (biclique routes Random)",
            predicate: JoinPredicate::Band { r_attr: 0, s_attr: 0, band: 50.0 },
            routing: |_p| RoutingStrategy::Random,
            window_ms: 10_000,
            n_keys: 10_000,
            offered: 1_000.0,
        },
    ];

    for regime in &regimes {
        let window = WindowSpec::sliding(regime.window_ms);
        let mut table = Table::new(
            format!("E3 — {}: capacity & memory vs total units p", regime.name),
            &[
                "p",
                "bic_cap_t/s",
                "bic_MiB",
                "mat_cap_t/s",
                "mat_MiB",
                "cap_winner",
                "mem_ratio_mat/bic",
            ],
        );

        for &p in &[4usize, 16, 36, 64] {
            let cfg = engine_config(
                (regime.routing)(p),
                regime.predicate.clone(),
                window,
                p / 2,
                p / 2,
                ctx.seed,
            );
            let mut engine = BicliqueEngine::new(cfg).expect("valid");
            let mut f1 = feed(regime.offered, regime.n_keys, None, 0, ctx.seed, horizon_ms);
            drive_engine(&mut engine, &mut f1).expect("runs");
            let mut meters = engine.pod_meters(Rel::R);
            meters.extend(engine.pod_meters(Rel::S));
            let bic = capacity_from_meters(&meters, horizon_ms, regime.offered);
            let bic_mem = engine.memory_bytes(Rel::R) + engine.memory_bytes(Rel::S);

            // Matrix: √p × √p.
            let side = (p as f64).sqrt() as usize;
            let mcfg = MatrixConfig {
                rows: side,
                cols: side,
                predicate: regime.predicate.clone(),
                window,
                archive_period_ms: regime.window_ms / 20,
                seed: ctx.seed,
            };
            let mut matrix = JoinMatrix::new(mcfg).expect("valid");
            let mut f2 = feed(regime.offered, regime.n_keys, None, 0, ctx.seed, horizon_ms);
            drive_matrix(&mut matrix, &mut f2).expect("runs");
            let mat = capacity_from_meters(&matrix.pod_meters(), horizon_ms, regime.offered);
            let mat_mem = matrix.memory_bytes();

            table.row(vec![
                p.to_string(),
                f(bic.capacity, 0),
                crate::report::mib(bic_mem),
                f(mat.capacity, 0),
                crate::report::mib(mat_mem),
                if bic.capacity >= mat.capacity { "biclique" } else { "matrix" }.to_string(),
                f(mat_mem as f64 / bic_mem.max(1) as f64, 1),
            ]);
        }
        let tag = if regime.predicate.is_equi() { "equi" } else { "band" };
        table.emit(&format!("e3_capacity_{tag}"));
    }

    wallclock_anchor(ctx);
}

/// E3b: both in-process engines (2×2 units, equi-join) join the same feed
/// as fast as the host runs them — no pacing, virtual time is the feed's —
/// under a stopwatch. Equal `results` say both computed the same join; the
/// throughputs anchor E3's modelled capacities to one real host.
fn wallclock_anchor(ctx: &ExpCtx) {
    let horizon_ms: u64 = if ctx.quick { 5_000 } else { 20_000 };
    let predicate = JoinPredicate::Equi { r_attr: 0, s_attr: 0 };
    // Wider than the horizon: every same-key pair joins, in both models.
    let window = WindowSpec::sliding(60_000);
    let shared_feed = || feed(1_000.0, 997, None, 0, ctx.seed, horizon_ms);

    let cfg = engine_config(RoutingStrategy::Hash, predicate.clone(), window, 2, 2, ctx.seed);
    let mut engine = BicliqueEngine::new(cfg).expect("valid");
    let started = Stopwatch::start();
    drive_engine(&mut engine, &mut shared_feed()).expect("runs");
    let biclique = (engine.stats(), started.elapsed_secs_f64());

    let mut matrix = JoinMatrix::new(MatrixConfig::square(2, predicate, window)).expect("valid");
    let started = Stopwatch::start();
    drive_matrix(&mut matrix, &mut shared_feed()).expect("runs");
    let matrix = (matrix.stats(), started.elapsed_secs_f64());

    let mut t = Table::new(
        "E3b: in-process wall-clock anchor (2x2 units, one shared feed, flat out)",
        &["model", "tuples", "elapsed_ms", "throughput_t/s", "results"],
    );
    for (model, (snapshot, secs)) in [("biclique", biclique), ("matrix", matrix)] {
        t.row(vec![
            model.into(),
            snapshot.ingested.to_string(),
            f(secs * 1e3, 0),
            f(snapshot.ingested as f64 / secs.max(1e-9), 0),
            snapshot.results.to_string(),
        ]);
    }
    t.emit("e3b_wallclock_anchor");
}
