//! `bistream-benchmark`: the harness behind `benchmark/run.sh`.
//!
//! Three ways in:
//!
//! - `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last line of stdout is the result as one JSON object.
//! - no `--workload` — every workload, end-to-end and per-layer, as a
//!   table (`--quick`, `--check-repeat`, `--seed N`).
//! - `child <mode> …` — one timed run; the two modes above re-execute
//!   this binary so that every run starts from a fresh process.

use bistream_benchmark::manifest::{self, END_TO_END, PER_LAYER, RUN_SECONDS};
use bistream_benchmark::reference::Expected;
use bistream_benchmark::stats::{median, quartiles};
use bistream_benchmark::workload::{self, Workload, STREAM_RATE, TRACED_TUPLES};
use bistream_benchmark::{layers, runs};
use bistream_core::exec::Backend;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Seconds of feeding in the open-loop latency run at scale 1.
const LATENCY_SECONDS: f64 = 5.0;
/// Where the traced run writes its span files, relative to the repository
/// root (`run.sh` starts the harness there).
const OUT_DIR: &str = "benchmark/out";
/// A post-feed drain longer than this means the backlog was growing.
const BACKLOG_DRAIN_MS: f64 = 500.0;
/// Set-ups timed inside one `setup` child.
const SETUP_REPS: usize = 41;

/// Printed beside the end-to-end metrics, never gated: what `engine_tps`
/// is before calibration, the calibration factor, the flat-out sharded
/// throughput the same round measured, and `setup_s` before calibration.
const UNGATED: [(&str, &str); 4] = [
    ("engine_tps_raw", "1/s"),
    ("host_speed", "ratio"),
    ("sharded_tps_raw", "1/s"),
    ("setup_s_raw", "s"),
];

type Fields = BTreeMap<String, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("manifest") => {
            print!("{}", manifest::benchmark_json());
            Ok(true)
        }
        _ => parent(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bistream-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// Child: one timed run in this process, reported as `key value` lines.
// ---------------------------------------------------------------------

fn child(args: &[String]) -> Result<bool, String> {
    let usage = "child <engine|sharded|sharded-traced|broker|latency|setup|layers> <workload> <seed> <tuples> [rate|out-dir]";
    let [mode, name, seed, tuples, rest @ ..] = args else { return Err(usage.into()) };
    let w = workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = seed.parse().map_err(|_| usage.to_string())?;
    let tuples: u64 = tuples.parse().map_err(|_| usage.to_string())?;
    let err = |e: bistream_types::error::Error| e.to_string();
    let mut out: Vec<(String, String)> = Vec::new();
    let mut put = |k: &str, v: String| out.push((k.to_string(), v));
    match mode.as_str() {
        "engine" => {
            let o = runs::engine_run(&w, seed, tuples, true).map_err(err)?;
            put_run(&mut put, &o);
        }
        "sharded" | "sharded-traced" | "broker" => {
            let backend = if mode == "broker" { Backend::Broker } else { Backend::Sharded };
            let trace = (mode == "sharded-traced").then_some(64);
            let (o, report, q) =
                runs::pipeline_run(&w, seed, tuples, backend, trace).map_err(err)?;
            put_run(&mut put, &o);
            put("vm_hwm_mb", runs::vm_hwm_mb().to_string());
            put("published", q.published.to_string());
            put("blocks", q.blocks.to_string());
            put("depth_max", q.depth_max.to_string());
            put("stall_ms", q.stall_ms.to_string());
            let work: Vec<f64> =
                report.joiners.iter().map(|j| (j.stored + j.probes) as f64).collect();
            let mean = work.iter().sum::<f64>() / work.len().max(1) as f64;
            let max = work.iter().copied().fold(0.0, f64::max);
            put("unit_work_skew", if mean > 0.0 { max / mean } else { 0.0 }.to_string());
        }
        "latency" => {
            let rate: u64 = rest.first().and_then(|r| r.parse().ok()).ok_or(usage)?;
            let o = runs::open_loop_run(&w, seed, rate, tuples).map_err(err)?;
            put_run(&mut put, &o.run);
            put("p50_ms", o.p50_ms.to_string());
            put("mean_ms", o.mean_ms.to_string());
            put("p99_ms", o.p99_ms.to_string());
            put("max_ms", o.max_ms.to_string());
            put("samples", o.samples.to_string());
            put("drain_ms", o.drain_ms.to_string());
            put("late_max_ms", o.late_max_ms.to_string());
        }
        "setup" => {
            let (calibrated, raw) = runs::setup_run(&w, seed, SETUP_REPS).map_err(err)?;
            put("setup_s", calibrated.to_string());
            put("setup_raw_s", raw.to_string());
        }
        "layers" => {
            let dir = rest.first().ok_or(usage)?;
            // The same prefix through the real engine, untraced: what the
            // layer sum has to add up to. It runs first, on a fresh heap,
            // like the `engine_tps` child does.
            let e = runs::engine_run(&w, seed, tuples, false).map_err(err)?;
            let engine_ns = e.elapsed_s * 1e9 / tuples as f64;
            let (mut m, results, spans) =
                layers::traced_run(&w, seed, tuples, engine_ns).map_err(err)?;
            std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
            let path = format!("{dir}/trace_{}.json", w.name);
            std::fs::write(&path, spans).map_err(|e| format!("{path}: {e}"))?;
            m.insert("core.sharded.mpmc_hop_ns_per_item", layers::mpmc_hop_ns(1_000_000));
            m.insert("gen.host_speed", w.reference_ns / e.cal_ns);
            for (k, v) in m {
                put(k, v.to_string());
            }
            put("results", results.to_string());
            put("engine_results", e.produced.results.to_string());
            put("ingest_errors", e.ingest_errors.to_string());
        }
        _ => return Err(usage.into()),
    }
    for (k, v) in out {
        println!("{k} {v}");
    }
    Ok(true)
}

fn put_run(put: &mut impl FnMut(&str, String), o: &runs::RunOutcome) {
    put("elapsed_s", o.elapsed_s.to_string());
    put("cal_ns", o.cal_ns.to_string());
    put("cal_ns", o.cal_ns.to_string());
    put("ingest_errors", o.ingest_errors.to_string());
    put("results", o.produced.results.to_string());
    put("checksum", o.produced.checksum.to_string());
    put("hot_keys", o.hot_keys.to_string());
    put("switches", o.switches.to_string());
}

/// Run one child: `child <mode> <workload> <seed> <tuples> [extra]`.
fn run_child(
    mode: &str,
    w: &Workload,
    plan: &Plan,
    tuples: u64,
    extra: Option<String>,
) -> Result<Fields, String> {
    let mut args =
        vec![mode.to_string(), w.name.to_string(), plan.seed.to_string(), tuples.to_string()];
    args.extend(extra);
    spawn(&args)
}

/// Re-execute this binary as `child <args>` and parse what it prints.
fn spawn(args: &[String]) -> Result<Fields, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("child")
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} ended with {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

fn num(f: &Fields, key: &str) -> Result<f64, String> {
    f.get(key).and_then(|v| v.parse().ok()).ok_or_else(|| format!("child printed no `{key}`"))
}

fn int(f: &Fields, key: &str) -> Result<u64, String> {
    f.get(key).and_then(|v| v.parse().ok()).ok_or_else(|| format!("child printed no `{key}`"))
}

// ---------------------------------------------------------------------
// Parent: schedule children, judge them against the reference, report.
// ---------------------------------------------------------------------

/// What the reference join says `tuples` tuples at `rate` must produce.
fn reference(w: &Workload, seed: u64, rate: u64, tuples: u64) -> Expected {
    let mut join = w.reference_join();
    let mut gen = w.generator(seed, rate, 0);
    for _ in 0..tuples {
        join.push(&gen.next_raw());
    }
    join.expected()
}

/// Failure accounting across the runs of one invocation.
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Tally {
    fn new() -> Tally {
        Tally { attempted: 0, failed: 0, correct: true }
    }

    /// Judge one run: ingest errors plus the distance between the
    /// reference's result count and the run's are failed operations.
    fn judge(&mut self, what: &str, offered: u64, f: &Fields, want: u64) -> Result<(), String> {
        let got = int(f, "results")?;
        let failed = int(f, "ingest_errors")? + want.abs_diff(got);
        self.attempted += offered;
        self.failed += failed;
        if failed > 0 {
            self.correct = false;
            eprintln!("MISMATCH {what}: reference {want} results, run reported {got}, {failed} failed ops");
        }
        Ok(())
    }
}

/// Samples of one metric over the timed repeats.
#[derive(Default, Clone)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(&mut v.clone()))
    }
}

struct Plan {
    seed: u64,
    /// Multiplies every frozen tuple count.
    scale: f64,
    warmups: usize,
    repeats: usize,
}

impl Plan {
    fn scaled(&self, n: u64) -> u64 {
        ((n as f64 * self.scale).round() as u64).max(1_000)
    }
}

/// The end-to-end set of one workload: set-up, then `warmups + repeats`
/// rounds of engine, sharded and open-loop runs, each in its own child.
fn end_to_end(w: &Workload, plan: &Plan, tally: &mut Tally) -> Result<Samples, String> {
    let n = plan.scaled(w.tuples);
    let n_lat = plan.scaled((w.open_loop_rate as f64 * LATENCY_SECONDS) as u64);
    let want = reference(w, plan.seed, STREAM_RATE, n);
    let want_lat = reference(w, plan.seed, w.open_loop_rate, n_lat);
    let rate = Some(w.open_loop_rate.to_string());
    let mut s = Samples::default();
    let setup = run_child("setup", w, plan, 0, None)?;
    s.push("setup_s", num(&setup, "setup_s")?);
    s.push("setup_s_raw", num(&setup, "setup_raw_s")?);
    for round in 0..plan.warmups + plan.repeats {
        let timed = round >= plan.warmups;
        let engine = run_child("engine", w, plan, n, None)?;
        let sharded = run_child("sharded", w, plan, n, None)?;
        let latency = run_child("latency", w, plan, n_lat, rate.clone())?;
        if !timed {
            continue;
        }
        tally.judge("engine", n, &engine, want.results)?;
        if int(&engine, "checksum")? != want.checksum {
            tally.correct = false;
            eprintln!("MISMATCH engine: result checksum differs from the reference");
        }
        tally.judge("sharded", n, &sharded, want.results)?;
        tally.judge("open-loop", n_lat, &latency, want_lat.results)?;
        let drain = num(&latency, "drain_ms")?;
        if drain > BACKLOG_DRAIN_MS {
            tally.failed += n_lat;
            tally.correct = false;
            eprintln!("BACKLOG open-loop: drain took {drain:.0} ms (> {BACKLOG_DRAIN_MS} ms)");
        }
        // Stated at nominal host speed: see `calib`.
        let speed = w.reference_ns / num(&engine, "cal_ns")?;
        s.push("engine_tps", n as f64 / (num(&engine, "elapsed_s")? * speed));
        s.push("engine_tps_raw", n as f64 / num(&engine, "elapsed_s")?);
        s.push("host_speed", speed);
        s.push("sharded_tps_raw", n as f64 / num(&sharded, "elapsed_s")?);
        s.push("peak_rss_mb", num(&sharded, "vm_hwm_mb")?);
        s.push("lat_p50_ms", num(&latency, "p50_ms")?);
        s.push("lat_mean_ms", num(&latency, "mean_ms")?);
    }
    Ok(s)
}

/// The traced set of one workload: the hand-driven replay, a broker run,
/// sharded runs with the in-program tracer off and on, an open-loop run.
fn per_layer(w: &Workload, plan: &Plan, tally: &mut Tally) -> Result<Samples, String> {
    let n = plan.scaled(TRACED_TUPLES);
    let n_lat = plan.scaled((w.open_loop_rate as f64 * LATENCY_SECONDS / 2.0) as u64);
    let want = reference(w, plan.seed, STREAM_RATE, n);
    let want_lat = reference(w, plan.seed, w.open_loop_rate, n_lat);
    let mut s = Samples::default();

    let layers = run_child("layers", w, plan, n, Some(OUT_DIR.to_string()))?;
    tally.judge("traced replay", n, &layers, want.results)?;
    let engine_results = int(&layers, "engine_results")?;
    if engine_results != want.results {
        tally.failed += want.results.abs_diff(engine_results);
        tally.correct = false;
        eprintln!("MISMATCH untraced engine on the traced prefix: {engine_results} results");
    }

    let broker = run_child("broker", w, plan, n, None)?;
    tally.judge("broker", n, &broker, want.results)?;
    // The flat-out sharded runs are half the end-to-end size (≈ 1.5 s).
    let n_sharded = plan.scaled(w.tuples / 2);
    let want_sharded = reference(w, plan.seed, STREAM_RATE, n_sharded);
    let plain = run_child("sharded", w, plan, n_sharded, None)?;
    tally.judge("sharded", n_sharded, &plain, want_sharded.results)?;
    let traced = run_child("sharded-traced", w, plan, n_sharded, None)?;
    tally.judge("sharded, tracer on", n_sharded, &traced, want_sharded.results)?;
    let rate = Some(w.open_loop_rate.to_string());
    let latency = run_child("latency", w, plan, n_lat, rate)?;
    tally.judge("open-loop", n_lat, &latency, want_lat.results)?;

    for m in PER_LAYER {
        let v = match m.name {
            "gen.late_max_ms" => num(&latency, "late_max_ms")?,
            "core.adaptive.hot_keys" => num(&plain, "hot_keys")?,
            "core.adaptive.switches" => num(&plain, "switches")?,
            "core.sharded.ring_full_ratio" => {
                let (blocks, ok) = (num(&plain, "blocks")?, num(&plain, "published")?);
                blocks / (blocks + ok).max(1.0)
            }
            "broker.pipeline_tps" => n as f64 / num(&broker, "elapsed_s")?,
            "broker.backpressure_blocks" => num(&broker, "blocks")?,
            "core.exec.sharded_tps" => n_sharded as f64 / num(&plain, "elapsed_s")?,
            "core.exec.lat_p99_ms" => num(&latency, "p99_ms")?,
            "core.exec.lat_max_ms" => num(&latency, "max_ms")?,
            "core.exec.drain_ms" => num(&latency, "drain_ms")?,
            "core.exec.queue_depth_max" => num(&plain, "depth_max")?,
            "core.exec.queue_stall_ms" => num(&plain, "stall_ms")?,
            "core.exec.unit_work_skew" => num(&plain, "unit_work_skew")?,
            "core.exec.trace_overhead_pct" => {
                (num(&traced, "elapsed_s")? / num(&plain, "elapsed_s")? - 1.0) * 100.0
            }
            name => num(&layers, name)?,
        };
        s.push(m.name, v);
    }
    Ok(s)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parent(args: &[String]) -> Result<bool, String> {
    let known = ["--workload", "--seed", "--seconds", "--trace"];
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            a if known.contains(&a) => i += 2,
            "--quick" | "--check-repeat" => i += 1,
            other => return Err(format!("unknown argument `{other}` (see benchmark/README.md)")),
        }
    }
    let parse = |name: &str, default: u64| -> Result<u64, String> {
        match flag(args, name) {
            Some(v) => v.parse().map_err(|_| format!("{name} needs a whole number, got `{v}`")),
            None => Ok(default),
        }
    };
    let seed = parse("--seed", 1)?;
    if let Some(name) = flag(args, "--workload") {
        let w = workload::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        let seconds = parse("--seconds", RUN_SECONDS)?;
        // One round per invocation: the driver repeats and takes medians.
        let plan =
            Plan { seed, scale: seconds as f64 / RUN_SECONDS as f64, warmups: 0, repeats: 1 };
        return one_run(&w, &plan, parse("--trace", 0)? == 1);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let plan = if quick {
        Plan { seed, scale: 0.25, warmups: 0, repeats: 1 }
    } else {
        Plan { seed, scale: 1.0, warmups: 1, repeats: 3 }
    };
    full_report(&plan, quick, args.iter().any(|a| a == "--check-repeat"))
}

/// One driver run: measure, print every metric by name, and end with the
/// result as one JSON object on the last line.
fn one_run(w: &Workload, plan: &Plan, trace: bool) -> Result<bool, String> {
    let mut tally = Tally::new();
    let (samples, units): (Samples, Vec<(&str, &str)>) = if trace {
        (per_layer(w, plan, &mut tally)?, PER_LAYER.iter().map(|m| (m.name, m.unit)).collect())
    } else {
        (end_to_end(w, plan, &mut tally)?, END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
    };
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct, tally.attempted, tally.failed
    );
    for (i, (name, unit)) in units.iter().enumerate() {
        let v = samples.median(name);
        println!("{name:<40} {v:>18.6} {unit}");
        json.push_str(&format!(
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        ));
    }
    json.push_str("}}");
    for (name, unit) in UNGATED {
        if samples.0.contains_key(name) {
            println!("{:<40} {:>18.6} {unit}  (not gated)", name, samples.median(name));
        }
    }
    println!("attempted_ops {}  failed_ops {}", tally.attempted, tally.failed);
    println!("{json}");
    Ok(tally.correct)
}

fn print_table(title: &str, samples: &Samples, rows: &[(&'static str, &'static str)]) {
    println!("\n{title}");
    println!("{:<40} {:>14} {:>14} {:>14} {:>3}  unit", "metric", "median", "q1", "q3", "n");
    for (name, unit) in rows {
        let Some(v) = samples.0.get(name) else { continue };
        let (q1, q3) = quartiles(&mut v.clone());
        println!(
            "{name:<40} {:>14.4} {q1:>14.4} {q3:>14.4} {:>3}  {unit}",
            samples.median(name),
            v.len()
        );
    }
}

/// Every workload, end-to-end and per-layer; optionally twice, comparing
/// the two sets' medians against each metric's own bound.
fn full_report(plan: &Plan, quick: bool, check_repeat: bool) -> Result<bool, String> {
    println!(
        "bistream benchmark: seed {}, {} warm-up + {} timed runs per mode, nproc {}",
        plan.seed,
        plan.warmups,
        plan.repeats,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    if quick {
        println!("QUICK MODE: quarter-size runs, one repeat. These numbers are NOT comparable with a full run.");
    }
    let e2e_rows: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).chain(UNGATED).collect();
    let layer_rows: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let mut ok = true;
    for w in workload::all() {
        let mut tally = Tally::new();
        let first = end_to_end(&w, plan, &mut tally)?;
        print_table(&format!("== {} — end to end", w.name), &first, &e2e_rows);
        if check_repeat {
            let second = end_to_end(&w, plan, &mut tally)?;
            print_table(&format!("== {} — end to end, second set", w.name), &second, &e2e_rows);
            for m in END_TO_END {
                let (a, b) = (first.median(m.name), second.median(m.name));
                let worse = if m.better == "higher" { a - b } else { b - a };
                let allowed = a.abs() * m.bound + m.slack;
                let verdict = if worse > allowed {
                    ok = false;
                    "DISAGREE"
                } else {
                    "agree"
                };
                println!("check-repeat {:<14} {a:>14.4} vs {b:>14.4} (allowed {allowed:.4} worse): {verdict}", m.name);
            }
        }
        let layer = per_layer(&w, plan, &mut tally)?;
        print_table(&format!("== {} — per layer (traced run)", w.name), &layer, &layer_rows);
        let sum = layer.median("core.engine.sum_vs_e2e");
        if !(0.8..=1.2).contains(&sum) {
            println!("core.engine.sum_vs_e2e {sum:.3}: unreconciled (outside 0.8..1.2)");
        }
        println!("attempted_ops {}  failed_ops {}", tally.attempted, tally.failed);
        ok &= tally.correct;
    }
    Ok(ok)
}
