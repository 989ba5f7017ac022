//! The live pipeline: routers and joiners as OS threads inside one
//! process, behind one [`Pipeline`] API.
//!
//! There is one worker driver ([`driver`]): a router loop, a joiner loop,
//! a result sink and a shutdown sequence, generic over a small transport
//! seam. A [`Backend`] only selects which transport carries items across
//! the two hops (feeder → routers, routers → joiners):
//!
//! - [`Backend::Broker`]: queues of the AMQP-model broker, items
//!   byte-encoded per hop (`exec/broker.rs`). The deployment shape of the
//!   original systems, scaled down into one process.
//! - [`Backend::Sharded`]: lock-free bounded rings, items handed over as
//!   in-memory values ([`crate::sharded`]).
//!
//! Both run the same cores through the same loops and register the same
//! observability series, so callers, dashboards, the SLO engine and the
//! auditor are backend-agnostic; a further transport (a socket, say) is one
//! more implementation of the seam, not another runtime.
//!
//! The pipeline topology is fixed for its lifetime (dynamic scaling is the
//! simulator's job); this runtime exists to measure real wall-clock
//! throughput and latency (experiments E3, E10 and the repo benchmark).

mod broker;
pub(crate) mod driver;

use crate::adaptive::AdaptiveShared;
use crate::config::EngineConfig;
use crate::joiner::JoinerStats;
use crate::layout::{JoinerId, Layout};
use crate::stats::{EngineSnapshot, EngineStats};
use bistream_cluster::CostModel;
use bistream_types::audit::Auditor;
use bistream_types::error::{Error, Result};
use bistream_types::perf::PerfReport;
use bistream_types::recorder::RunHealth;
use bistream_types::registry::{Observability, RegistrySnapshot};
use bistream_types::slo::SloSpec;
use bistream_types::time::{Clock, Ts, WallClock};
use bistream_types::trace::Trace;
use bistream_types::tuple::{JoinResult, Tuple};
use bistream_types::watchdog::WatchdogConfig;
use driver::{Handle, Parts, WorkerCtx, Workers};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Name of the ingest edge's queue series on every backend (crate-visible
/// so the chaos drills can target it with seeded stall windows).
pub(crate) const INGEST_QUEUE: &str = "tuple.exchange.routers";

/// Name of a unit's inbox queue series on every backend.
pub(crate) fn unit_queue(id: JoinerId) -> String {
    format!("unit.{}", id.0)
}

/// Which transport carries items between the feeder, the routers and the
/// joiners.
///
/// Both backends present the identical [`Pipeline`] surface and emit the
/// same results, metric series, trace spans and audit events; they differ
/// only in how frames physically move (and therefore in throughput).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// AMQP-model broker: mutex-guarded bounded queues, frames
    /// byte-encoded per hop. The fidelity-first default.
    #[default]
    Broker,
    /// Lock-free rings: frames handed over bounded SPSC/MPMC rings as
    /// in-memory values (see [`crate::sharded`]). The throughput backend.
    Sharded,
}

/// Configuration of the live pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Engine configuration (topology, predicate, window, ordering,
    /// `batch_size` for the router→joiner framing…).
    pub engine: EngineConfig,
    /// Router instances competing on the ingest queue.
    pub routers: usize,
    /// Ingest queue bound (backpressure point for the feeder).
    pub ingest_capacity: usize,
    /// Per-unit channel bound in tuple copies (backpressure point for
    /// routers): what a channel may hold does not grow with `batch_size`,
    /// see [`PipelineConfig::unit_frames`].
    pub unit_capacity: usize,
    /// CPU cost model charged to joiner meters (observability only in
    /// live mode — real CPU is spent regardless).
    pub cost: CostModel,
    /// Per-tuple trace sampling: `Some(n)` traces 1-in-`n` tuples through
    /// router → queue → joiner with wall-clock span stamps; `None` (the
    /// default) disables tracing entirely.
    pub trace_one_in: Option<u64>,
    /// Protocol-invariant auditor observing every router, queue and
    /// joiner. `None` (the default) self-arms in debug builds via
    /// [`Auditor::new_if_debug`]; release builds then run unaudited.
    pub auditor: Option<Auditor>,
    /// Service-level objectives graded over the run's scrape series
    /// (launch scrape, every [`Pipeline::sample`] call, and the final
    /// pre-teardown scrape). `None` skips SLO grading.
    pub slo: Option<SloSpec>,
    /// Progress-watchdog tuning (stall-tick threshold).
    pub watchdog: WatchdogConfig,
    /// Which transport to run over (broker queues or lock-free rings).
    /// Defaults to [`Backend::Broker`].
    pub backend: Backend,
    /// Capture every emitted [`JoinResult`] and return them in
    /// [`PipelineReport::captured`] (per-joiner emission order,
    /// concatenated in layout unit order). Off by default — capturing
    /// buffers the whole result stream in memory; it exists for
    /// equivalence tests and small diagnostic runs.
    pub capture_results: bool,
}

impl PipelineConfig {
    /// Defaults: 1 router, edges bounded at 8K tuples / 4K copies, default
    /// cost model, no tracing.
    pub fn new(engine: EngineConfig) -> PipelineConfig {
        PipelineConfig {
            engine,
            routers: 1,
            ingest_capacity: 8_192,
            unit_capacity: 4_096,
            cost: CostModel::default(),
            trace_one_in: None,
            auditor: None,
            slo: None,
            watchdog: WatchdogConfig::default(),
            backend: Backend::default(),
            capture_results: false,
        }
    }

    /// Frames one unit channel holds on either transport: `unit_capacity`
    /// counts tuple copies and a frame carries up to `batch_size` of them.
    /// (Were the bound in frames, a batch of 64 would let a channel hold
    /// 64× the copies, and how much of a flat-out run sits queued — and
    /// resident — would be up to the scheduler.)
    pub(crate) fn unit_frames(&self) -> usize {
        (self.unit_capacity / self.engine.batch_size.max(1)).max(2)
    }
}

/// Final report of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Engine-wide counters.
    pub snapshot: EngineSnapshot,
    /// Per-joiner counters (unit order follows the layout).
    pub joiners: Vec<JoinerStats>,
    /// Wall-clock runtime from launch to finish, ms.
    pub elapsed_ms: u64,
    /// Completed per-tuple traces, sorted by trace id (empty unless
    /// [`PipelineConfig::trace_one_in`] was set).
    pub traces: Vec<Trace>,
    /// The auditor that observed the run (if any): query it with
    /// [`Auditor::finish`] / [`Auditor::assert_clean`].
    pub auditor: Option<Auditor>,
    /// Queueing-model analysis over the launch→finish registry scrapes:
    /// per-unit service rates, utilization, and per-hop wait/service
    /// summaries (see [`bistream_types::perf::analyze`]).
    pub perf: PerfReport,
    /// SLO verdicts, stall-watchdog findings and (on breach) the
    /// flight-recorder bundle, graded over the same scrape series as
    /// `perf` (see [`bistream_types::recorder::grade_run`]).
    pub health: RunHealth,
    /// Every emitted join result, in per-joiner emission order
    /// concatenated in layout unit order — empty unless
    /// [`PipelineConfig::capture_results`] was set.
    pub captured: Vec<JoinResult>,
}

/// A running live pipeline.
pub struct Pipeline {
    /// The transport's launch-side handle: everything that differs between
    /// backends lives behind it.
    handle: Box<dyn Handle>,
    workers: Workers,
    parts: Parts,
    started: Instant,
    /// Registry scrapes collected while running: the launch baseline,
    /// every [`Pipeline::sample`] call, and (appended by
    /// [`Pipeline::finish`]) the terminal pre-teardown scrape. This is the
    /// series the queueing model, the SLO engine and the stall watchdog
    /// all grade.
    samples: Mutex<Vec<RegistrySnapshot>>,
}

impl Pipeline {
    /// Wire the configured backend's transport and launch all workers.
    pub fn launch(config: PipelineConfig) -> Result<Pipeline> {
        config.engine.validate()?;
        let engine = &config.engine;
        let layout = Arc::new(Layout::for_engine(engine)?);
        // Built before launch so each router thread gets its handle up front.
        let adaptive = AdaptiveShared::for_engine(engine, config.routers);
        let obs = config.trace_one_in.map_or_else(Observability::new, Observability::with_tracing);
        let auditor = config.auditor.clone().or_else(Auditor::new_if_debug);
        if let Some(a) = &auditor {
            a.attach_journal(obs.journal.clone());
        }
        let ctx = WorkerCtx {
            stats: EngineStats::shared(),
            clock: Arc::new(WallClock::new()),
            punct_interval: Duration::from_millis(engine.punctuation_interval_ms),
        };
        ctx.stats.register_into(&obs.registry, &[("engine", "live")]);

        let parts = Parts { config, layout, obs, auditor, adaptive, ctx };
        let (handle, workers) = match parts.config.backend {
            Backend::Broker => driver::spawn(broker::wire(&parts)?, &parts),
            Backend::Sharded => driver::spawn(crate::sharded::ring::wire(&parts)?, &parts),
        }?;
        let samples = Mutex::new(vec![parts.obs.registry.scrape(parts.ctx.clock.now())]);
        Ok(Pipeline { handle, workers, parts, started: Instant::now(), samples })
    }

    /// The pipeline's observability bundle: one registry scrape covers
    /// engine, per-router, per-joiner, per-pod and per-queue series, and
    /// the journal records store/join/punctuation/backpressure events from
    /// the same code paths the simulator exercises.
    pub fn observability(&self) -> &Observability {
        &self.parts.obs
    }

    /// Wall-clock "now" of this pipeline (for stamping input tuples so
    /// latency is measurable).
    pub fn now(&self) -> Ts {
        self.parts.ctx.clock.now()
    }

    /// The protocol-invariant auditor observing this pipeline, if any.
    pub fn auditor(&self) -> Option<&Auditor> {
        self.parts.auditor.as_ref()
    }

    /// The shared adaptive-routing state when running
    /// [`crate::config::RoutingStrategy::Adaptive`] (`None` under static
    /// strategies). Tests read the committed epoch / switch counter here
    /// and arm [`AdaptiveShared::force_flip_every_tick`]; the router
    /// threads observe the flag at their next punctuation tick.
    pub fn adaptive_state(&self) -> Option<&Arc<AdaptiveShared>> {
        self.parts.adaptive.as_ref()
    }

    /// Feed one tuple (blocking when the ingest edge is full). On the
    /// broker backend the tuple is byte-encoded into a published message;
    /// on the sharded backend it moves into the ingest ring as a value.
    pub fn ingest(&self, tuple: &Tuple) -> Result<()> {
        self.handle.ingest(tuple)
    }

    /// Live counters (sampleable while running).
    pub fn stats(&self) -> EngineSnapshot {
        self.parts.ctx.stats.snapshot()
    }

    /// Broker management view (queue depths etc.). The sharded backend
    /// has no broker — it reports empty stats; its ring depths live in
    /// the registry's `bistream_queue_*` series instead.
    pub fn broker_stats(&self) -> bistream_broker::BrokerStats {
        self.handle.broker_stats()
    }

    /// Take one registry scrape now and append it to the run's sample
    /// series. Callers pace this however they like (typically once per
    /// SLO evaluation interval); [`Pipeline::finish`] grades the SLO spec
    /// and the stall watchdog over the collected series.
    pub fn sample(&self) {
        let snap = self.parts.obs.registry.scrape(self.now());
        self.samples.lock().push(snap);
    }

    /// Stall or resume one named queue — the chaos drills use this to
    /// inject stalls into a live run. A unit queue (`unit.N`) can be
    /// stalled on either backend: on the broker, publishers park while
    /// consumers keep draining (see
    /// [`bistream_broker::Broker::set_queue_stalled`]); on the rings the
    /// unit's consumer holds and frames pile up. Both charge the same
    /// backpressure/stall series. The ingest queue can be stalled on the
    /// broker backend only — the ring handle knows only unit queues and
    /// answers it with `Err`.
    pub fn set_queue_stalled(&self, queue: &str, on: bool) -> Result<()> {
        self.handle.set_stalled(queue, on)
    }

    /// Stop feeding, drain everything, join all threads and report.
    pub fn finish(self) -> Result<PipelineReport> {
        let Pipeline { handle, workers, parts, started, samples } = self;
        let Parts { config, layout, obs, auditor, ctx, .. } = parts;
        // Terminal scrape *before* teardown: closing a broker queue
        // retires its series, and both the Little's-law rows and the
        // watchdog need the queue gauges. Work drained after this point is
        // excluded from `perf` (it still counts in `snapshot`).
        let series = bistream_types::metrics::finalize_scrape_series(
            &obs.registry,
            ctx.clock.now(),
            samples.into_inner(),
        );
        // The one shutdown sequence, draining in punctuation order:
        // 1. heal injected stalls, so nothing below waits on a held unit;
        // 2. close the ingest edge: each router drains it, sends its final
        //    punctuation behind all its data, and returns;
        // 3. close the unit edges: each joiner drains its inbox (per-channel
        //    FIFO puts every final punctuation last) and terminally flushes.
        for (_, id) in layout.all_units() {
            handle.set_stalled(&unit_queue(id), false)?;
        }
        handle.close_ingest()?;
        for h in workers.routers {
            h.join().map_err(|_| Error::Closed)??;
        }
        handle.close_units()?;
        // Per-joiner counters and captured results, both in unit order.
        let (mut joiners, mut captured) = (Vec::new(), Vec::new());
        for h in workers.joiners {
            let (stats, mut results) = h.join().map_err(|_| Error::Closed)??;
            joiners.push(stats);
            captured.append(&mut results);
        }
        // Every joiner has flushed, so open branches can never close now.
        obs.tracer.flush_pending();
        let mut traces = obs.tracer.drain();
        traces.sort_by_key(|t| t.id);
        // The launch and terminal scrapes bracket the whole run (plus any
        // mid-run `sample()` scrapes): the analyzer calibrates and
        // evaluates on the same window, which is the honest choice for a
        // one-shot report; the SLO engine and watchdog grade the same
        // evidence. The journal is snapshotted, not drained — the report
        // must not steal events from a caller holding the bundle.
        let perf = bistream_types::perf::analyze(&series);
        let events = obs.journal.snapshot();
        let health = bistream_types::recorder::grade_run(
            config.slo.as_ref(),
            &config.watchdog,
            &series,
            &events,
            &traces,
        );
        Ok(PipelineReport {
            snapshot: ctx.stats.snapshot(),
            joiners,
            elapsed_ms: started.elapsed().as_millis() as u64,
            traces,
            auditor,
            perf,
            health,
            captured,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoutingStrategy;
    use bistream_types::metric_names as names;
    use bistream_types::rel::Rel;
    use bistream_types::telemetry::prometheus_text;
    use bistream_types::trace::HopKind;
    use bistream_types::value::Value;

    const BACKENDS: [Backend; 2] = [Backend::Broker, Backend::Sharded];

    fn config(backend: Backend, routing: RoutingStrategy, ordering: bool) -> PipelineConfig {
        let mut engine = EngineConfig::default_equi();
        engine.routing = routing;
        engine.ordering = ordering;
        engine.window = bistream_types::window::WindowSpec::sliding(60_000);
        let mut c = PipelineConfig::new(engine);
        c.routers = 2;
        c.backend = backend;
        // Armed in release builds too: these tests assert on it.
        c.auditor = Some(Auditor::new());
        c
    }

    fn feed_pairs(p: &Pipeline, pairs: usize) {
        for i in 0..pairs {
            let now = p.now();
            p.ingest(&Tuple::new(Rel::R, now, vec![Value::Int(i as i64)])).unwrap();
            p.ingest(&Tuple::new(Rel::S, now, vec![Value::Int(i as i64)])).unwrap();
        }
    }

    /// Feed `pairs` matching pairs, let a few punctuation cycles pass, finish.
    fn run(c: PipelineConfig, pairs: usize) -> PipelineReport {
        let p = Pipeline::launch(c).unwrap();
        feed_pairs(&p, pairs);
        std::thread::sleep(Duration::from_millis(150));
        p.finish().unwrap()
    }

    fn clean(report: &PipelineReport) {
        report.auditor.as_ref().expect("armed by config()").assert_clean();
    }

    #[test]
    fn live_pipeline_produces_every_match_exactly_once() {
        for backend in BACKENDS {
            let report = run(config(backend, RoutingStrategy::Hash, true), 500);
            assert_eq!(report.snapshot.ingested, 1_000, "{backend:?}");
            assert_eq!(report.snapshot.results, 500, "{backend:?}: exactly one result per pair");
            let total_stored: u64 = report.joiners.iter().map(|j| j.stored).sum();
            assert_eq!(total_stored, 1_000, "{backend:?}");
            assert!(report.snapshot.latency.count > 0, "{backend:?}");
            clean(&report);
        }
    }

    #[test]
    fn batched_framing_and_tracing_keep_results_and_spans() {
        for backend in BACKENDS {
            let mut c = config(backend, RoutingStrategy::Hash, true);
            c.engine.batch_size = 16;
            c.trace_one_in = Some(7);
            let report = run(c, 500);
            assert_eq!(report.snapshot.ingested, 1_000, "{backend:?}");
            assert_eq!(report.snapshot.results, 500, "{backend:?}: batching keeps results");
            assert_eq!(report.snapshot.copies, 2_000, "{backend:?}: store + join copy per tuple");
            // Sampled tuples trace through router → queue → joiner even
            // when they share a frame with unsampled neighbours; ring
            // hand-offs record the same spans the broker queues do.
            let complete: Vec<_> = report.traces.iter().filter(|t| t.complete).collect();
            assert!(!complete.is_empty(), "{backend:?}");
            for t in &complete {
                assert!(t.has_hop(HopKind::Route), "{backend:?}");
                assert!(t.has_hop(HopKind::Enqueue), "{backend:?}");
                assert!(t.has_hop(HopKind::Dequeue), "{backend:?}");
                assert!(t.has_hop(HopKind::Store) || t.has_hop(HopKind::Probe), "{backend:?}");
            }
            clean(&report);
        }
    }

    #[test]
    fn unit_channels_are_bounded_in_copies_and_block_without_loss() {
        let mut c = config(Backend::Broker, RoutingStrategy::Hash, true);
        assert_eq!(c.unit_frames(), c.unit_capacity, "one copy per frame unbatched");
        c.engine.batch_size = 64;
        assert_eq!(c.unit_frames() * 64, c.unit_capacity, "same copies whatever the framing");
        // Two frames per channel: routers block on full channels all run.
        c.unit_capacity = 1;
        assert_eq!(c.unit_frames(), 2);
        for backend in BACKENDS {
            c.backend = backend;
            c.auditor = Some(Auditor::new());
            let report = run(c.clone(), 2_000);
            assert_eq!(report.snapshot.results, 2_000, "{backend:?}: backpressure, not loss");
            clean(&report);
        }
    }

    #[test]
    fn random_routing_matches_too() {
        for backend in BACKENDS {
            let report = run(config(backend, RoutingStrategy::Random, true), 200);
            assert_eq!(report.snapshot.results, 200, "{backend:?}");
            // Random join stream broadcasts: copies/tuple = 1 + 2.
            assert!((report.snapshot.copies_per_tuple() - 3.0).abs() < 1e-9, "{backend:?}");
            clean(&report);
        }
    }

    #[test]
    fn contrand_routing_works_live() {
        let mut c = config(Backend::Broker, RoutingStrategy::ContRand { subgroups: 2 }, true);
        c.engine.r_joiners = 4;
        c.engine.s_joiners = 4;
        let report = run(c, 300);
        assert_eq!(report.snapshot.results, 300);
        // ContRand d=2 over 4 units/side: 1 store + 2 join copies.
        assert!((report.snapshot.copies_per_tuple() - 3.0).abs() < 1e-9);
        // Both subgroups' units stored something.
        let active_units = report.joiners.iter().filter(|j| j.stored > 0).count();
        assert!(active_units >= 4, "stores spread across subgroups: {active_units}");
    }

    #[test]
    fn ordering_disabled_still_flows_live() {
        // Without the protocol the live pipeline is best-effort; with
        // uncontended queues the happy path still joins.
        let report = run(config(Backend::Broker, RoutingStrategy::Hash, false), 100);
        assert!(report.snapshot.results > 0);
    }

    #[test]
    fn finish_drains_without_feeding() {
        for backend in BACKENDS {
            let p = Pipeline::launch(config(backend, RoutingStrategy::Hash, true)).unwrap();
            let report = p.finish().unwrap();
            assert_eq!(report.snapshot.ingested, 0, "{backend:?}");
            assert_eq!(report.snapshot.results, 0, "{backend:?}");
            clean(&report);
        }
    }

    #[test]
    fn queue_depth_reads_zero_and_the_auditor_is_clean_after_finish() {
        // An item is accounted before it becomes visible to its consumer:
        // were it the other way round, a dequeue could be counted first,
        // the auditor would see a delivery nobody published and the
        // saturating depth gauge would stay one too high for good.
        for backend in BACKENDS {
            let mut c = config(backend, RoutingStrategy::Hash, true);
            c.routers = 1;
            let p = Pipeline::launch(c).unwrap();
            let obs = p.observability().clone();
            feed_pairs(&p, 2_000);
            // Everything fed has been routed and handled once the joiners
            // have seen every copy; the broker retires its series at
            // finish, so its gauges are read here.
            let drained = |snap: &RegistrySnapshot| {
                snap.counter(names::QUEUE_DELIVERED_TOTAL, &[("queue", INGEST_QUEUE)])
                    == Some(4_000)
                    && (0..4).all(|u| {
                        let q = format!("unit.{u}");
                        let labels: &[(&str, &str)] = &[("queue", &q)];
                        snap.counter(names::QUEUE_PUBLISHED_TOTAL, labels)
                            == snap.counter(names::QUEUE_DELIVERED_TOTAL, labels)
                    })
            };
            let mut snap = obs.registry.scrape(p.now());
            for _ in 0..200 {
                if drained(&snap) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
                snap = obs.registry.scrape(p.now());
            }
            assert!(drained(&snap), "{backend:?}: pipeline went quiet");
            // Punctuations keep flowing, so a unit queue may hold one.
            let depth = |snap: &RegistrySnapshot, q: &str| {
                snap.gauge(names::QUEUE_DEPTH, &[("queue", q)]).expect("registered")
            };
            assert_eq!(depth(&snap, INGEST_QUEUE), 0, "{backend:?}");
            for u in 0..4 {
                assert!(depth(&snap, &format!("unit.{u}")) <= 1, "{backend:?} unit.{u}");
            }
            let report = p.finish().unwrap();
            assert_eq!(report.snapshot.results, 2_000, "{backend:?}");
            clean(&report);
            if backend == Backend::Sharded {
                // Ring series outlive the run and must read empty.
                let after = obs.registry.scrape(0);
                assert_eq!(depth(&after, INGEST_QUEUE), 0);
                for u in 0..4 {
                    assert_eq!(depth(&after, &format!("unit.{u}")), 0, "unit.{u}");
                }
            }
        }
    }

    #[test]
    fn observability_scrape_covers_queues_joiners_routers_and_engine() {
        for backend in BACKENDS {
            let p = Pipeline::launch(config(backend, RoutingStrategy::Hash, true)).unwrap();
            feed_pairs(&p, 100);
            std::thread::sleep(Duration::from_millis(150));
            let snap = p.observability().registry.scrape(p.now());
            // 200 tuples entered the ingest edge before the scrape, under
            // the same series names on either backend.
            assert_eq!(
                snap.counter(names::QUEUE_PUBLISHED_TOTAL, &[("queue", INGEST_QUEUE)]),
                Some(200),
                "{backend:?}"
            );
            assert!(snap.get(names::QUEUE_DEPTH, &[("queue", "unit.0")]).is_some(), "{backend:?}");
            let stored: u64 = ["R0", "R1"]
                .iter()
                .map(|u| snap.counter("bistream_joiner_stored_total", &[("joiner", u)]).unwrap())
                .sum();
            assert!(stored > 0, "{backend:?}: stores visible per joiner");
            assert!(snap
                .get(
                    "bistream_router_route_decisions_total",
                    &[("router", "r0"), ("strategy", "hash")]
                )
                .is_some());
            assert!(snap.get("bistream_pod_cpu_busy_us_total", &[("pod", "S2")]).is_some());
            assert!(snap
                .counter("bistream_tuples_ingested_total", &[("engine", "live")])
                .is_some());
            let events = p.observability().journal.drain();
            assert!(events.iter().any(|e| e.kind.tag() == "TupleStored"), "{backend:?}");
            let report = p.finish().unwrap();
            assert_eq!(report.snapshot.results, 100, "{backend:?}");
            // Queue series exist in live mode, so Little's-law rows appear.
            assert!(!report.perf.queues.is_empty(), "{backend:?}");
        }
    }

    #[test]
    fn telemetry_export_and_perf_report_cover_the_run() {
        let p = Pipeline::launch(config(Backend::Broker, RoutingStrategy::Hash, true)).unwrap();
        feed_pairs(&p, 200);
        std::thread::sleep(Duration::from_millis(150));
        let text = prometheus_text(&p.observability().registry, p.now());
        assert!(text.contains("# TYPE bistream_queue_depth gauge"), "got: {text}");
        assert!(text.contains("bistream_tuples_ingested_total{engine=\"live\"} 400"));
        let report = p.finish().unwrap();
        // The queueing model saw every pod meter the layout registered.
        assert_eq!(report.perf.units.len(), 4, "2x2 layout: {:?}", report.perf.units);
        for u in &report.perf.units {
            assert!(u.arrivals > 0, "unit {} processed tuples", u.unit);
            assert!(u.utilization_observed >= 0.0);
        }
        assert!(!report.perf.queues.is_empty());
    }

    #[test]
    fn live_tracing_produces_multi_hop_traces() {
        let mut c = config(Backend::Broker, RoutingStrategy::Hash, true);
        c.trace_one_in = Some(5);
        let report = run(c, 100);
        assert!(!report.traces.is_empty(), "1-in-5 over 200 tuples");
        assert!(report.traces.iter().any(|t| t.complete), "drained pipeline closes branches");
        for w in report.traces.windows(2) {
            assert!(w[0].id < w[1].id, "sorted by trace id");
        }
    }

    #[test]
    fn broker_stats_show_the_topology_only_on_the_broker() {
        let p = Pipeline::launch(config(Backend::Broker, RoutingStrategy::Hash, true)).unwrap();
        let stats = p.broker_stats();
        // ingest queue + 4 unit queues.
        assert_eq!(stats.queues.len(), 5);
        assert!(stats.exchanges.contains(&"tuple.exchange".to_string()));
        p.finish().unwrap();
        let p = Pipeline::launch(config(Backend::Sharded, RoutingStrategy::Hash, true)).unwrap();
        assert!(p.broker_stats().queues.is_empty());
        p.finish().unwrap();
    }

    #[test]
    fn capture_returns_the_result_stream_on_both_backends() {
        for backend in BACKENDS {
            let mut c = config(backend, RoutingStrategy::Hash, true);
            c.capture_results = true;
            let report = run(c, 100);
            assert_eq!(report.snapshot.results, 100);
            assert_eq!(report.captured.len(), 100, "{backend:?}: every emitted result is captured");
        }
    }

    #[test]
    fn stall_injection_holds_a_unit_and_recovers() {
        for backend in BACKENDS {
            let p = Pipeline::launch(config(backend, RoutingStrategy::Hash, true)).unwrap();
            assert!(p.set_queue_stalled("no.such.queue", true).is_err(), "{backend:?}");
            assert_eq!(
                p.set_queue_stalled(INGEST_QUEUE, false).is_ok(),
                backend == Backend::Broker,
                "{backend:?}: only the broker can stall the ingest queue"
            );
            p.set_queue_stalled("unit.0", true).unwrap();
            feed_pairs(&p, 100);
            std::thread::sleep(Duration::from_millis(60));
            p.set_queue_stalled("unit.0", false).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            let snap = p.observability().registry.scrape(p.now());
            let stalled_ms =
                snap.counter(names::QUEUE_STALL_MS_TOTAL, &[("queue", "unit.0")]).unwrap_or(0);
            assert!(stalled_ms > 0, "{backend:?}: held unit charges the stall series");
            let report = p.finish().unwrap();
            assert_eq!(report.snapshot.results, 100, "{backend:?}: stall delays, never drops");
        }
    }

    #[test]
    fn finish_heals_a_stall_left_open() {
        for backend in BACKENDS {
            let p = Pipeline::launch(config(backend, RoutingStrategy::Hash, true)).unwrap();
            p.set_queue_stalled("unit.0", true).unwrap();
            feed_pairs(&p, 50);
            let report = p.finish().unwrap();
            assert_eq!(report.snapshot.results, 50, "{backend:?}: shutdown heals, then drains");
        }
    }
}
