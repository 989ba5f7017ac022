//! Timed end-to-end runs, one per child process.

use crate::calib::Calibrator;
use crate::gen::{content_hash, pair_hash};
use crate::reference::Expected;
use crate::workload::{Workload, PUNCT_MS, STREAM_RATE};
use bistream_core::engine::BicliqueEngine;
use bistream_core::exec::{Backend, Pipeline, PipelineConfig, PipelineReport};
use bistream_types::error::Result;
use bistream_types::metric_names as names;
use bistream_types::metrics::Histogram;
use bistream_types::registry::{MetricValue, RegistrySnapshot};
use bistream_types::time::Stopwatch;
use bistream_types::tuple::{JoinResult, Tuple};
use bistream_types::value::Value;

/// What one timed run measured.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// `ingest` calls that returned an error.
    pub ingest_errors: u64,
    /// Seconds from first `ingest` to the last result being out.
    pub elapsed_s: f64,
    /// What the run produced.
    pub produced: Expected,
    /// Hot keys in the adaptive router's committed plan at the end (0
    /// under static routing).
    pub hot_keys: u64,
    /// Adaptive strategy switches committed (0 under static routing).
    pub switches: u64,
    /// What one tuple of the interleaved reference join cost during this
    /// run, ns (0 when the run was not calibrated).
    pub cal_ns: f64,
}

fn side_hash(t: &Tuple) -> u64 {
    let v = t.values();
    let key_bits = match &v[0] {
        Value::Int(k) => *k as u64,
        Value::Float(k) => k.to_bits(),
        other => panic!("benchmark tuples are keyed by Int or Float, got {other}"),
    };
    content_hash(t.ts(), key_bits, v.get(1).and_then(Value::as_str))
}

/// Fold captured results into an order-independent checksum over the same
/// fields `JoinResult::identity()` exposes.
pub fn fold(results: &[JoinResult], into: &mut Expected) {
    for r in results {
        into.results += 1;
        into.checksum = into.checksum.wrapping_add(pair_hash(side_hash(&r.r), side_hash(&r.s)));
    }
}

/// `engine_tps`: the single-threaded virtual-time engine — ingest,
/// punctuate on the 10 ms schedule of the tuples' own timestamps, flush.
/// Results are captured and checksummed, and after every punctuation round
/// the reference join runs over the round's tuples as the host-speed
/// calibrator (see [`crate::calib`]); the time both take is taken out of
/// the elapsed time. With `capture` off (the traced run's reconciliation
/// baseline) only the result count is reported.
pub fn engine_run(w: &Workload, seed: u64, tuples: u64, capture: bool) -> Result<RunOutcome> {
    let mut engine = BicliqueEngine::new(w.engine_config(seed))?;
    if capture {
        engine.capture_results();
    }
    let mut gen = w.generator(seed, STREAM_RATE, 0);
    let mut out = RunOutcome::default();
    let mut cal = Calibrator::new(w.reference_join().materialising());
    let mut outside = 0.0f64;
    let mut next_punct = PUNCT_MS;
    let sw = Stopwatch::start();
    for _ in 0..tuples {
        let raw = gen.next_raw();
        let t = raw.to_tuple();
        while t.ts() >= next_punct {
            engine.punctuate(next_punct)?;
            next_punct += PUNCT_MS;
            let f = Stopwatch::start();
            fold(&engine.take_captured(), &mut out.produced);
            outside += f.elapsed_secs_f64() + cal.run_queued();
        }
        cal.queue(raw);
        if engine.ingest(&t, t.ts()).is_err() {
            out.ingest_errors += 1;
        }
    }
    engine.punctuate(next_punct)?;
    engine.flush()?;
    out.elapsed_s = sw.elapsed_secs_f64() - outside;
    cal.run_queued();
    out.cal_ns = cal.ns_per_tuple();
    assert_eq!(cal.expected().results, engine.stats().results, "calibrating reference agrees");
    fold(&engine.take_captured(), &mut out.produced);
    if let Some(ad) = engine.adaptive_state() {
        out.hot_keys = ad.current_plan().hot.len() as u64;
        out.switches = ad.switches();
    }
    if capture {
        assert_eq!(out.produced.results, engine.stats().results, "capture saw every result");
    }
    out.produced.results = engine.stats().results;
    Ok(out)
}

/// The live pipeline's configuration: one router, default queue bounds.
fn pipeline_config(
    w: &Workload,
    seed: u64,
    backend: Backend,
    trace_one_in: Option<u64>,
) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(w.engine_config(seed));
    cfg.backend = backend;
    cfg.trace_one_in = trace_one_in;
    cfg
}

/// Counts a finished pipeline's registry still holds, summed over queues.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueCounts {
    /// Successful pushes into any ring or queue.
    pub published: u64,
    /// Pushes that found the ring or queue full and had to block.
    pub blocks: u64,
    /// Deepest any one queue got, in frames.
    pub depth_max: u64,
    /// Injected-stall time charged to any queue, ms.
    pub stall_ms: u64,
}

impl QueueCounts {
    fn from_scrape(snap: &RegistrySnapshot) -> QueueCounts {
        let mut q = QueueCounts::default();
        for s in &snap.samples {
            let v = match s.value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => v,
                MetricValue::Histogram(_) => continue,
            };
            match s.key.name.as_str() {
                n if n == names::QUEUE_PUBLISHED_TOTAL => q.published += v,
                n if n == names::QUEUE_BACKPRESSURE_BLOCKS_TOTAL => q.blocks += v,
                n if n == names::QUEUE_DEPTH_MAX => q.depth_max = q.depth_max.max(v),
                n if n == names::QUEUE_STALL_MS_TOTAL => q.stall_ms += v,
                _ => {}
            }
        }
        q
    }
}

/// `sharded_tps` / `broker.pipeline_tps`: the live threaded pipeline fed
/// flat-out by this thread, from the first `ingest` until `finish()`
/// returns.
pub fn pipeline_run(
    w: &Workload,
    seed: u64,
    tuples: u64,
    backend: Backend,
    trace_one_in: Option<u64>,
) -> Result<(RunOutcome, PipelineReport, QueueCounts)> {
    let pipe = Pipeline::launch(pipeline_config(w, seed, backend, trace_one_in))?;
    let mut gen = w.generator(seed, STREAM_RATE, 0);
    let mut out = RunOutcome::default();
    let sw = Stopwatch::start();
    for _ in 0..tuples {
        let t = gen.next_raw().to_tuple();
        if pipe.ingest(&t).is_err() {
            out.ingest_errors += 1;
        }
    }
    // The broker retires a queue's series when `finish` deletes the queue,
    // so its counts are read just before; the sharded rings keep theirs and
    // are read once everything has drained.
    let obs = pipe.observability().clone();
    let adaptive = pipe.adaptive_state().cloned();
    let before_teardown = QueueCounts::from_scrape(&obs.registry.scrape(pipe.now()));
    let report = pipe.finish()?;
    out.elapsed_s = sw.elapsed_secs_f64();
    out.produced.results = report.snapshot.results;
    if let Some(ad) = adaptive {
        out.hot_keys = ad.current_plan().hot.len() as u64;
        out.switches = ad.switches();
    }
    let queues = match backend {
        Backend::Broker => before_teardown,
        Backend::Sharded => QueueCounts::from_scrape(&obs.registry.scrape(0)),
    };
    Ok((out, report, queues))
}

/// What the open-loop run measured beyond the counts.
#[derive(Debug, Clone, Default)]
pub struct LatencyOutcome {
    /// Offered tuples, errors, feed time and result count.
    pub run: RunOutcome,
    /// Median result latency, ms, interpolated inside its log₂ bucket.
    pub p50_ms: f64,
    /// Mean result latency, ms (exact: sum ÷ count of ms samples).
    pub mean_ms: f64,
    /// 99th percentile, ms, interpolated inside its log₂ bucket.
    pub p99_ms: f64,
    /// Largest latency sample, ms.
    pub max_ms: f64,
    /// Results whose latency was sampled.
    pub samples: u64,
    /// From the last `ingest` returning to `finish()` returning, ms.
    pub drain_ms: f64,
    /// Worst lateness of the feeder against its own schedule, ms.
    pub late_max_ms: f64,
}

/// `q`-quantile of a log₂-bucket histogram as a float, interpolating
/// linearly inside the winning bucket (bucket `i` holds `[2^(i−1), 2^i)`;
/// bucket 0 holds only zeros). Same ≤ 2× error as `Histogram::quantile`,
/// without its truncation to whole milliseconds.
pub fn bucket_quantile(counts: &[u64], max: u64, q: f64) -> f64 {
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let target = (q * n as f64).max(1.0);
    let mut seen = 0.0f64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c as f64 >= target {
            let lo = if i == 0 { 0.0 } else { (1u64 << (i - 1)) as f64 };
            let hi = if i == 0 { 1.0 } else { (1u64 << i.min(62)) as f64 };
            return (lo + (hi - lo) * (target - seen) / c as f64).min(max as f64);
        }
        seen += c as f64;
    }
    max as f64
}

/// `lat_*`: open loop on the sharded backend at a fixed offered `rate`
/// (tuples/s). The feeder wakes every millisecond of the pipeline's own
/// clock, offers every tuple that has become due, and stamps each with
/// the time it was *due* — so a stall delays later tuples' results and
/// the delay is counted.
pub fn open_loop_run(w: &Workload, seed: u64, rate: u64, tuples: u64) -> Result<LatencyOutcome> {
    let pipe = Pipeline::launch(pipeline_config(w, seed, Backend::Sharded, None))?;
    let latency: std::sync::Arc<Histogram> =
        pipe.observability().registry.histogram(names::RESULT_LATENCY_MS, &[("engine", "live")]);
    let base = pipe.now() + 2;
    let mut gen = w.generator(seed, rate, base);
    let mut out = LatencyOutcome::default();
    let mut late_max = 0u64;
    let mut next = gen.next_raw();
    let mut fed = 0u64;
    let sw = Stopwatch::start();
    while fed < tuples {
        let now = pipe.now();
        while fed < tuples && next.ts <= now {
            if pipe.ingest(&next.to_tuple()).is_err() {
                out.run.ingest_errors += 1;
            }
            late_max = late_max.max(pipe.now().saturating_sub(next.ts));
            fed += 1;
            next = gen.next_raw();
        }
        while fed < tuples && pipe.now() == now {
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
    }
    out.run.elapsed_s = sw.elapsed_secs_f64();
    let drain = Stopwatch::start();
    let report = pipe.finish()?;
    out.drain_ms = drain.elapsed_ms_f64();
    out.run.produced.results = report.snapshot.results;
    let counts = latency.bucket_counts();
    out.samples = latency.count();
    out.mean_ms = latency.mean();
    out.max_ms = latency.max() as f64;
    out.p50_ms = bucket_quantile(&counts, latency.max(), 0.50);
    out.p99_ms = bucket_quantile(&counts, latency.max(), 0.99);
    out.late_max_ms = late_max as f64;
    Ok(out)
}

/// `setup_s`: wall time of `Pipeline::launch` (sharded) plus
/// `BicliqueEngine::new`, the median of `reps` set-ups in this process.
/// Tearing the launched pipeline down again is not timed.
///
/// Set-up is five thread spawns and some allocation — a third of a
/// millisecond of mostly kernel work, which drifts with the host by a
/// third between one minute and the next. Each set-up is therefore paired
/// with a harness-owned set-up kernel run just before it and stated at
/// nominal host speed, like `engine_tps` (see [`crate::calib`]). Returns
/// `(calibrated, raw)` seconds.
pub fn setup_run(w: &Workload, seed: u64, reps: usize) -> Result<(f64, f64)> {
    let mut calibrated = Vec::with_capacity(reps);
    let mut raw = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let kernel = crate::calib::setup_kernel_secs();
        let sw = Stopwatch::start();
        let pipe = Pipeline::launch(pipeline_config(w, seed, Backend::Sharded, None))?;
        let engine = BicliqueEngine::new(w.engine_config(seed))?;
        let s = sw.elapsed_secs_f64();
        drop(engine);
        pipe.finish()?;
        raw.push(s);
        calibrated.push(s * crate::calib::SETUP_KERNEL_NOMINAL_S / kernel);
    }
    Ok((crate::stats::median(&mut calibrated), crate::stats::median(&mut raw)))
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
