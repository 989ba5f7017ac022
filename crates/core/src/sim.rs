//! The virtual-time simulation driver.
//!
//! Long-horizon experiments (the 60-minute dynamic-scaling runs of E1/E2)
//! cannot execute in wall-clock time; this driver advances a virtual clock
//! through four interleaved event streams — tuple arrivals, punctuation
//! ticks, autoscaler control-loop runs, and time-series samples — feeding
//! the same [`BicliqueEngine`] the correctness tests exercise.

use crate::engine::BicliqueEngine;
use bistream_cluster::hpa::Hpa;
use bistream_cluster::meter::{ResourceMeter, UtilizationTracker};
use bistream_types::error::Result;
use bistream_types::journal::Event;
use bistream_types::perf::PerfReport;
use bistream_types::recorder::RunHealth;
use bistream_types::registry::{RegistrySnapshot, Sampler};
use bistream_types::rel::Rel;
use bistream_types::slo::SloSpec;
use bistream_types::time::Ts;
use bistream_types::trace::Trace;
use bistream_types::tuple::Tuple;
use bistream_types::watchdog::WatchdogConfig;

/// A source of timestamped tuples for the driver (implemented by the
/// workload crate's interleaver via a thin adapter; defined here so the
/// engine crate does not depend on workload generation).
pub trait TupleFeed {
    /// Timestamp of the next tuple, or `None` when the feed is exhausted.
    fn peek_ts(&self) -> Option<Ts>;
    /// Produce the next tuple.
    fn next_tuple(&mut self) -> Option<Tuple>;
}

/// A feed over a pre-materialised tuple list (used by tests).
#[derive(Debug)]
pub struct VecFeed {
    tuples: std::collections::VecDeque<Tuple>,
}

impl VecFeed {
    /// Wrap a timestamp-ordered tuple list.
    pub fn new(tuples: Vec<Tuple>) -> VecFeed {
        VecFeed { tuples: tuples.into() }
    }
}

impl TupleFeed for VecFeed {
    fn peek_ts(&self) -> Option<Ts> {
        self.tuples.front().map(|t| t.ts())
    }
    fn next_tuple(&mut self) -> Option<Tuple> {
        self.tuples.pop_front()
    }
}

/// Configuration of a dynamic-scaling simulation.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Virtual run length in ms.
    pub duration_ms: Ts,
    /// Time-series sampling interval in ms.
    pub sample_interval_ms: Ts,
    /// Autoscale the R-side joiner deployment.
    pub scale_r: bool,
    /// Autoscale the S-side joiner deployment.
    pub scale_s: bool,
    /// Pod startup latency: a scale-*out* decision takes effect this many
    /// ms after the HPA issues it (container pull + boot in the real
    /// cluster). Scale-ins apply immediately. While a side has a pending
    /// scale-out, the HPA holds further decisions for it (modelling
    /// Kubernetes ignoring not-yet-ready pods).
    pub pod_startup_delay_ms: Ts,
    /// Service-level objectives graded over the run's scrape series; when
    /// `None`, no SLO verdicts are produced (the watchdog still runs).
    pub slo: Option<SloSpec>,
    /// Progress-watchdog tuning (stall-tick threshold).
    pub watchdog: WatchdogConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            duration_ms: 60_000,
            sample_interval_ms: 1_000,
            scale_r: true,
            scale_s: true,
            pod_startup_delay_ms: 0,
            slo: None,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// One row of the simulation time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSample {
    /// Sample time (ms of virtual time).
    pub t_ms: Ts,
    /// Measured ingest rate over the last interval (tuples/s, both
    /// relations combined).
    pub ingest_rate: f64,
    /// Active R joiners.
    pub r_replicas: usize,
    /// Active S joiners.
    pub s_replicas: usize,
    /// Mean CPU utilization of R joiners over the last interval (1.0 =
    /// one full vCPU).
    pub r_cpu: f64,
    /// Mean CPU utilization of S joiners.
    pub s_cpu: f64,
    /// Mean live memory per R joiner, bytes.
    pub r_mem_mean: u64,
    /// Mean live memory per S joiner, bytes.
    pub s_mem_mean: u64,
    /// Cumulative join results.
    pub results: u64,
    /// Cumulative ingested tuples.
    pub ingested: u64,
}

/// Outcome of a simulation run.
#[derive(Debug)]
pub struct SimOutcome {
    /// The sampled time series.
    pub samples: Vec<SimSample>,
    /// Scale events `(t_ms, side, before, after)`.
    pub scale_events: Vec<(Ts, char, usize, usize)>,
    /// Registry scrapes taken on the same sample ticks as `samples` —
    /// every labeled series (per-joiner, per-router, per-pod, engine)
    /// at virtual-time resolution.
    pub metric_series: Vec<RegistrySnapshot>,
    /// The engine's structured event journal, drained at the end of the
    /// run (bounded: oldest events are dropped beyond the ring capacity).
    pub events: Vec<Event>,
    /// Completed per-tuple traces, drained from the engine's tracer at the
    /// end of the run and sorted by trace id (empty unless the engine was
    /// built with a sampling tracer). Tuples still buffered when the
    /// horizon ends surface as traces with `complete == false`.
    pub traces: Vec<Trace>,
    /// Queueing-model analysis of `metric_series`: per-unit arrival rate,
    /// service time, predicted vs observed utilization (see
    /// [`bistream_types::perf`]).
    pub perf: PerfReport,
    /// SLO verdicts, stall-watchdog findings and (on breach) the
    /// flight-recorder bundle, graded over the same `metric_series`.
    pub health: RunHealth,
}

/// Run a dynamic-scaling simulation: drive `feed` through `engine` for
/// `cfg.duration_ms` of virtual time, autoscaling each enabled side with
/// its own instance of `hpa_template`'s configuration.
pub fn run_dynamic_scaling(
    mut engine: BicliqueEngine,
    feed: &mut dyn TupleFeed,
    hpa_template: bistream_cluster::HpaConfig,
    cfg: &SimConfig,
) -> Result<SimOutcome> {
    let punct_every = engine.config().punctuation_interval_ms;
    let control_every = hpa_template.period_ms;
    let mut hpa_r = Hpa::new(hpa_template);
    let mut hpa_s = Hpa::new(hpa_template);
    let mut track_r = UtilizationTracker::new();
    let mut track_s = UtilizationTracker::new();

    let mut samples = Vec::new();
    let mut scale_events = Vec::new();
    let mut sampler = Sampler::new(engine.observability().registry.clone(), cfg.sample_interval_ms);
    // Pending scale-outs per side: (apply_at, target_replicas).
    let mut pending: [Option<(Ts, usize)>; 2] = [None, None];
    let mut next_punct: Ts = punct_every;
    let mut next_control: Ts = control_every;
    let mut next_sample: Ts = cfg.sample_interval_ms;
    let mut last_sampled_ingest: u64 = 0;

    // Per-interval running means of utilization feed both the autoscaler
    // and the sample rows; scrapes happen on control ticks, samples reuse
    // the latest scrape.
    let mut last_cpu = (0.0f64, 0.0f64);

    loop {
        let tuple_ts = feed.peek_ts().unwrap_or(Ts::MAX);
        let t = tuple_ts.min(next_punct).min(next_control).min(next_sample);
        if t >= cfg.duration_ms {
            break;
        }

        // Apply any pending scale-outs that have finished booting.
        for (i, side) in [Rel::R, Rel::S].into_iter().enumerate() {
            if let Some((apply_at, n)) = pending[i] {
                if t >= apply_at {
                    let current = engine.replicas(side);
                    engine.scale_to(side, n, t)?;
                    scale_events.push((t, if side == Rel::R { 'R' } else { 'S' }, current, n));
                    pending[i] = None;
                }
            }
        }

        if t == tuple_ts {
            let Some(tuple) = feed.next_tuple() else { break };
            engine.ingest(&tuple, t)?;
        } else if t == next_punct {
            engine.punctuate(t)?;
            next_punct += punct_every;
        } else if t == next_control {
            for (i, (side, hpa, tracker, enabled)) in [
                (Rel::R, &mut hpa_r, &mut track_r, cfg.scale_r),
                (Rel::S, &mut hpa_s, &mut track_s, cfg.scale_s),
            ]
            .into_iter()
            .enumerate()
            {
                let meters = engine.pod_meters(side);
                let borrowed: Vec<(usize, &ResourceMeter)> =
                    meters.iter().map(|(id, m)| (*id, m.as_ref())).collect();
                let pod_samples = tracker.scrape(t, &borrowed);
                let mean_cpu = if pod_samples.is_empty() {
                    0.0
                } else {
                    pod_samples.iter().map(|s| s.cpu_utilization).sum::<f64>()
                        / pod_samples.len() as f64
                };
                match side {
                    Rel::R => last_cpu.0 = mean_cpu,
                    Rel::S => last_cpu.1 = mean_cpu,
                }
                // Hold decisions while this side's pods are still booting.
                if enabled && pending[i].is_none() {
                    let current = engine.replicas(side);
                    let desired = hpa.evaluate(t, current, &pod_samples);
                    if desired > current && cfg.pod_startup_delay_ms > 0 {
                        pending[i] = Some((t + cfg.pod_startup_delay_ms, desired));
                    } else if desired != current {
                        engine.scale_to(side, desired, t)?;
                        scale_events.push((
                            t,
                            if side == Rel::R { 'R' } else { 'S' },
                            current,
                            desired,
                        ));
                    }
                }
            }
            next_control += control_every;
        } else {
            // Sample tick.
            sampler.force_sample(t);
            let snap = engine.stats();
            let rate = (snap.ingested - last_sampled_ingest) as f64
                / (cfg.sample_interval_ms as f64 / 1_000.0);
            last_sampled_ingest = snap.ingested;
            let (r_n, s_n) = (engine.replicas(Rel::R), engine.replicas(Rel::S));
            samples.push(SimSample {
                t_ms: t,
                ingest_rate: rate,
                r_replicas: r_n,
                s_replicas: s_n,
                r_cpu: last_cpu.0,
                s_cpu: last_cpu.1,
                r_mem_mean: engine.memory_bytes(Rel::R) / r_n as u64,
                s_mem_mean: engine.memory_bytes(Rel::S) / s_n as u64,
                results: snap.results,
                ingested: snap.ingested,
            });
            next_sample += cfg.sample_interval_ms;
        }
    }
    // Final flush so buffered tuples are not lost from the counters, then
    // one shared terminal scrape before anything is torn down.
    engine.punctuate(cfg.duration_ms)?;
    let metric_series = bistream_types::metrics::finalize_scrape_series(
        &engine.observability().registry,
        cfg.duration_ms,
        sampler.into_series(),
    );
    let events = engine.observability().journal.drain();
    let tracer = engine.observability().tracer.clone();
    tracer.flush_pending();
    let mut traces = tracer.drain();
    traces.sort_by_key(|t| t.id);

    let perf = bistream_types::perf::analyze(&metric_series);
    let health = bistream_types::recorder::grade_run(
        cfg.slo.as_ref(),
        &cfg.watchdog,
        &metric_series,
        &events,
        &traces,
    );
    Ok(SimOutcome { samples, scale_events, metric_series, events, traces, perf, health })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, RoutingStrategy};
    use bistream_cluster::{CostModel, HpaConfig, MetricTarget};
    use bistream_types::predicate::JoinPredicate;
    use bistream_types::value::Value;
    use bistream_types::window::WindowSpec;

    fn feed_at_rate(per_sec: u64, duration_ms: Ts) -> VecFeed {
        let gap = 1_000 / per_sec;
        let mut tuples = Vec::new();
        let mut ts = 0;
        let mut k = 0i64;
        while ts < duration_ms {
            let rel = if k % 2 == 0 { Rel::R } else { Rel::S };
            // Consecutive R/S tuples share a key so the equi join matches.
            tuples.push(Tuple::new(rel, ts, vec![Value::Int((k / 2) % 50)]));
            ts += gap;
            k += 1;
        }
        VecFeed::new(tuples)
    }

    fn engine(ordering: bool) -> BicliqueEngine {
        let cfg = EngineConfig {
            r_joiners: 1,
            s_joiners: 1,
            predicate: JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
            window: WindowSpec::sliding(5_000),
            routing: RoutingStrategy::Hash,
            archive_period_ms: 500,
            punctuation_interval_ms: 20,
            ordering,
            seed: 9,
            batch_size: 1,
            adaptive: Default::default(),
        };
        BicliqueEngine::builder(cfg)
            .cost_model(CostModel::thesis_operating_point())
            .build()
            .unwrap()
    }

    fn hpa_cfg() -> HpaConfig {
        HpaConfig {
            min_replicas: 1,
            max_replicas: 3,
            target: MetricTarget::CpuUtilization(0.8),
            period_ms: 5_000,
            tolerance: 0.1,
            scale_down_stabilization_ms: 20_000,
        }
    }

    #[test]
    fn overloaded_run_scales_out() {
        // 800 t/s combined (400 per side) against the thesis cost model
        // overloads one joiner per side; the HPA must add replicas.
        let mut feed = feed_at_rate(800, 60_000);
        let cfg =
            SimConfig { duration_ms: 60_000, sample_interval_ms: 5_000, ..Default::default() };
        let out = run_dynamic_scaling(engine(true), &mut feed, hpa_cfg(), &cfg).unwrap();
        assert!(!out.scale_events.is_empty(), "expected scale-out events");
        let last = out.samples.last().unwrap();
        assert!(last.r_replicas > 1 || last.s_replicas > 1);
        assert!(last.results > 0, "join kept producing during scaling");
        // Sampled rate reflects the offered 400 t/s combined.
        // The integer millisecond gap (1000/800 → 1 ms) makes the
        // effective offered rate 1000 t/s.
        let mid = &out.samples[out.samples.len() / 2];
        assert!((mid.ingest_rate - 1_000.0).abs() < 200.0, "rate {}", mid.ingest_rate);
    }

    #[test]
    fn idle_run_holds_at_min() {
        let mut feed = feed_at_rate(10, 30_000);
        let cfg =
            SimConfig { duration_ms: 30_000, sample_interval_ms: 5_000, ..Default::default() };
        let out = run_dynamic_scaling(engine(true), &mut feed, hpa_cfg(), &cfg).unwrap();
        assert!(out.scale_events.is_empty(), "{:?}", out.scale_events);
        assert!(out.samples.iter().all(|s| s.r_replicas == 1 && s.s_replicas == 1));
    }

    #[test]
    fn metric_series_and_journal_ride_along_with_samples() {
        let mut feed = feed_at_rate(100, 10_000);
        let cfg = SimConfig {
            duration_ms: 10_000,
            sample_interval_ms: 2_000,
            scale_r: false,
            scale_s: false,
            ..Default::default()
        };
        let out = run_dynamic_scaling(engine(true), &mut feed, hpa_cfg(), &cfg).unwrap();
        // One scrape per sample tick plus the terminal scrape.
        assert_eq!(out.metric_series.len(), out.samples.len() + 1);
        for (snap, sample) in out.metric_series.iter().zip(&out.samples) {
            assert_eq!(snap.at, sample.t_ms, "scrape shares the sample tick");
        }
        let last = out.metric_series.last().unwrap();
        assert_eq!(last.at, 10_000);
        // Ingest keeps running between the last sample tick and the
        // terminal scrape, so the counter can only have grown.
        let ingested =
            last.counter("bistream_tuples_ingested_total", &[("engine", "engine")]).unwrap();
        assert!(ingested >= out.samples.last().unwrap().ingested);
        assert!(last.get("bistream_joiner_stored_total", &[("joiner", "R0")]).is_some());
        // Journal events carry virtual-time stamps within the horizon.
        assert!(!out.events.is_empty());
        assert!(out.events.iter().any(|e| e.kind.tag() == "TupleStored"));
        assert!(out.events.iter().any(|e| e.kind.tag() == "JoinEmitted"));
        assert!(out.events.iter().all(|e| e.ts <= 10_000));
    }

    #[test]
    fn tracing_run_collects_complete_traces() {
        use bistream_types::registry::Observability;
        use bistream_types::trace::HopKind;
        let mut feed = feed_at_rate(100, 5_000);
        let cfg = EngineConfig {
            r_joiners: 2,
            s_joiners: 2,
            predicate: JoinPredicate::Equi { r_attr: 0, s_attr: 0 },
            window: WindowSpec::sliding(2_000),
            routing: RoutingStrategy::Hash,
            archive_period_ms: 500,
            punctuation_interval_ms: 20,
            ordering: true,
            seed: 9,
            batch_size: 1,
            adaptive: Default::default(),
        };
        let engine = BicliqueEngine::builder(cfg)
            .observability(Observability::with_tracing(10))
            .build()
            .unwrap();
        let sim = SimConfig {
            duration_ms: 5_000,
            sample_interval_ms: 1_000,
            scale_r: false,
            scale_s: false,
            ..Default::default()
        };
        let out = run_dynamic_scaling(engine, &mut feed, hpa_cfg(), &sim).unwrap();
        assert!(!out.traces.is_empty(), "1-in-10 sampling over 500 tuples");
        let complete = out.traces.iter().filter(|t| t.complete).count();
        assert!(complete > 0, "punctuation releases sampled tuples");
        for tr in out.traces.iter().filter(|t| t.complete) {
            assert!(tr.has_hop(HopKind::Route), "trace {} starts at a router", tr.id);
            assert!(tr.has_hop(HopKind::Store) || tr.has_hop(HopKind::Probe));
            for timing in tr.hop_timings() {
                // Ts is unsigned, but make the non-negativity contract explicit.
                assert!(timing.wait <= tr.end_to_end());
            }
        }
        // Trace ids are router sequence numbers: sorted and unique.
        for w in out.traces.windows(2) {
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn samples_cover_duration_with_memory_readings() {
        let mut feed = feed_at_rate(100, 20_000);
        let cfg = SimConfig {
            duration_ms: 20_000,
            sample_interval_ms: 2_000,
            scale_r: false,
            scale_s: false,
            ..Default::default()
        };
        let out = run_dynamic_scaling(engine(true), &mut feed, hpa_cfg(), &cfg).unwrap();
        // Samples land at 2s, 4s, …, 18s — the tick coinciding with the
        // end of the run is excluded.
        assert_eq!(out.samples.len(), 9);
        assert!(out.samples.last().unwrap().r_mem_mean > 0);
        // Time is monotone.
        for w in out.samples.windows(2) {
            assert!(w[0].t_ms < w[1].t_ms);
            assert!(w[0].ingested <= w[1].ingested);
        }
    }
}
