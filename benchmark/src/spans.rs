//! In-memory span recorder for the traced per-layer run.
//!
//! The harness wraps each call into a layer's public function in a span.
//! Every span is folded into a per-`(layer, name)` total; the spans of
//! one call tree in 64 are also kept whole and written out at exit, so
//! the file shows real trees without holding millions of records.

use bistream_types::time::Stopwatch;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The engine module the call belongs to (`core.router`, `index`, …).
    pub layer: &'static str,
    /// The public function called.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index (in the written file) of the span that caused this one.
    pub parent: Option<u32>,
    /// Tuple sequence number (router spans) or frame serial (the rest).
    pub id: u64,
}

/// Count and time of every span sharing a `(layer, name)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, ns, with the recorder's own cost taken out.
    pub ns: u64,
}

/// Keeps totals for every span and whole trees for a 1-in-`SAMPLE` sample.
#[derive(Debug)]
pub struct Recorder {
    origin: Stopwatch,
    /// What one empty span measures: two clock reads. Subtracted from
    /// every span before it is added to a total.
    overhead_ns: u64,
    totals: BTreeMap<(&'static str, &'static str), Total>,
    sampled: Vec<Span>,
    keep_tree: bool,
}

/// One call tree in this many is kept whole.
pub const SAMPLE: u64 = 64;

impl Recorder {
    /// A recorder whose clock starts now; calibrates its own overhead.
    pub fn new() -> Recorder {
        let origin = Stopwatch::start();
        let mut empty: Vec<f64> = (0..2_001)
            .map(|_| {
                let a = origin.elapsed().as_nanos() as u64;
                let b = origin.elapsed().as_nanos() as u64;
                (b - a) as f64
            })
            .collect();
        Recorder {
            origin,
            overhead_ns: crate::stats::median(&mut empty) as u64,
            totals: BTreeMap::new(),
            sampled: Vec::new(),
            keep_tree: false,
        }
    }

    /// Start call tree number `serial`; decides whether it is kept whole.
    pub fn begin_tree(&mut self, serial: u64) {
        self.keep_tree = serial.is_multiple_of(SAMPLE);
    }

    /// Run `f` inside a span and return its value with the span's index in
    /// the sample (`None` when this tree is not being kept).
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<u32>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Option<u32>) {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let value = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let total = self.totals.entry((layer, name)).or_default();
        total.count += 1;
        total.ns += (end_ns - start_ns).saturating_sub(self.overhead_ns);
        let index = self.keep_tree.then(|| {
            self.sampled.push(Span { layer, name, start_ns, end_ns, parent, id });
            (self.sampled.len() - 1) as u32
        });
        (value, index)
    }

    /// Total of every span recorded under `(layer, name)`.
    pub fn total(&self, layer: &'static str, name: &'static str) -> Total {
        self.totals.get(&(layer, name)).copied().unwrap_or_default()
    }

    /// The span file: the totals table, then the sampled spans.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"sample_one_in\":{SAMPLE},\
             \"span_overhead_ns\":{},\"totals\":[",
            self.overhead_ns
        );
        for (i, ((layer, name), t)) in self.totals.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n{{\"layer\":\"{layer}\",\"name\":\"{name}\",\"count\":{},\"total_ns\":{}}}",
                if i == 0 { "" } else { "," },
                t.count,
                t.ns
            );
        }
        s.push_str("],\"spans\":[");
        for (i, sp) in self.sampled.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{}\n{{\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"id\":{}}}",
                if i == 0 { "" } else { "," },
                sp.layer,
                sp.name,
                sp.start_ns,
                sp.end_ns,
                sp.id
            );
        }
        s.push_str("]}\n");
        s
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}
