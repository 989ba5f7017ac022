//! Host-speed calibration for `engine_tps`.
//!
//! The hosts this benchmark runs on are shared. Identical runs of
//! cache-touching user code — this engine, a Python loop — drift by up to
//! 1.6× over tens of seconds while a dependent-multiply loop stays flat: a
//! busy SMT sibling, not clock steal. A wall-clock throughput measured
//! there spreads wider than any bound worth gating on (README.md has the
//! numbers). So the single-threaded engine run interleaves, after every
//! punctuation round, the harness's own reference join over the same
//! round's tuples, times it apart, and states throughput at nominal host
//! speed:
//!
//! ```text
//! engine_tps = tuples / (elapsed × speed),   speed = nominal ns / measured ns per reference tuple
//! ```
//!
//! The reference join shares no code with the engine, so an engine change
//! moves the numerator only: the ratio between two commits is their real
//! speed ratio with the host's drift divided out. It resembles the engine
//! in what it stresses (hash or ordered-map lookups, allocation, a
//! window-sized working set), which is why it tracks the drift; a fixed
//! synthetic kernel tracked it three times worse, and no kernel tried —
//! inline, bracketing, single- or multi-threaded — tracked the threaded
//! pipeline, which is why `core.exec.sharded_tps` is reported raw and
//! ungated.

//!
//! `setup_s` gets the same treatment with a kernel of its own kind:
//! [`setup_kernel_secs`].

use crate::gen::Raw;
use crate::reference::{Expected, ReferenceJoin};
use bistream_types::time::Stopwatch;

/// The reference join used as a stopwatch for the host.
#[derive(Debug)]
pub struct Calibrator {
    join: ReferenceJoin,
    pending: Vec<Raw>,
    tuples: u64,
    secs: f64,
}

impl Calibrator {
    /// Calibrate with `join` (empty, configured for the workload).
    pub fn new(join: ReferenceJoin) -> Calibrator {
        Calibrator { join, pending: Vec::new(), tuples: 0, secs: 0.0 }
    }

    /// Queue a tuple the engine has just been given.
    pub fn queue(&mut self, raw: Raw) {
        self.pending.push(raw);
    }

    /// Join everything queued, timed. Returns the seconds spent, so the
    /// caller can take them out of what it is timing around this call.
    pub fn run_queued(&mut self) -> f64 {
        let sw = Stopwatch::start();
        for raw in self.pending.drain(..) {
            self.join.push(&raw);
            self.tuples += 1;
        }
        let s = sw.elapsed_secs_f64();
        self.secs += s;
        s
    }

    /// What one reference tuple cost during this run, ns.
    pub fn ns_per_tuple(&self) -> f64 {
        self.secs * 1e9 / self.tuples.max(1) as f64
    }

    /// What the reference join found — the same answer the judge computes.
    pub fn expected(&self) -> Expected {
        self.join.expected()
    }
}

/// What [`setup_kernel_secs`] takes on the freeze host at its median
/// speed, seconds. Changing it rescales `setup_s`.
pub const SETUP_KERNEL_NOMINAL_S: f64 = 195e-6;

/// The set-up calibrator, timed: what a set-up of this kind of system is
/// made of, with none of the engine's code — spawn five threads that do
/// nothing and join them, map and drop a few large untouched buffers (the
/// rings), and fill a small ordered map with owned strings (the metric
/// registry).
pub fn setup_kernel_secs() -> f64 {
    let sw = Stopwatch::start();
    let threads: Vec<_> =
        (0..5u32).map(|i| std::thread::spawn(move || std::hint::black_box(i))).collect();
    let rings: Vec<Vec<u64>> = (0..5).map(|_| Vec::with_capacity(32 * 1024)).collect();
    let registry: std::collections::BTreeMap<String, Vec<u64>> =
        (0..256u64).map(|i| (format!("series_{i}{{unit=\"{}\"}}", i % 4), vec![i; 4])).collect();
    std::hint::black_box((&rings, &registry));
    for t in threads {
        t.join().expect("an idle thread cannot panic");
    }
    sw.elapsed_secs_f64()
}
