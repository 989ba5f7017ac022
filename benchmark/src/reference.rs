//! The benchmark's own judge: an independent windowed join.
//!
//! It shares no code with `bistream_index` (not even `index::naive`), so
//! an engine refactor cannot move the expected answer. Input timestamps
//! are non-decreasing, so the result set of a sliding-window join is
//! every `(r, s)` with `P(r, s)` and `|r.ts − s.ts| ≤ window`, each found
//! exactly once when the later of the two arrives.
//!
//! The same join doubles as the host-speed calibrator of
//! [`crate::calib`]. In that role it also *materialises* every result the
//! way any engine must — shared ownership of the stored side, shared
//! counters, an output buffer — because a kernel that only counts matches
//! tracked the host's drift three times worse on the result-heavy
//! workload.

use crate::gen::{pair_hash, Key, Raw};
use bistream_types::rel::Rel;
use bistream_types::time::Ts;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a run must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expected {
    /// Number of join results.
    pub results: u64,
    /// Wrapping sum of [`pair_hash`] over all results.
    pub checksum: u64,
}

/// Which predicate the reference evaluates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// `r.key == s.key` over `Int` keys.
    Equi,
    /// `|r.key − s.key| ≤ band` over `Float` keys.
    Band(f64),
}

fn side(rel: Rel) -> usize {
    match rel {
        Rel::R => 0,
        Rel::S => 1,
    }
}

/// A stored tuple: timestamp and content hash, the hash behind an `Arc`
/// so that a materialised result can share it as an engine shares tuples.
type Stored = (Ts, Arc<u64>);

/// Where results go.
#[derive(Debug, Default)]
struct Output {
    expected: Expected,
    materialise: bool,
    /// Materialised results, recycled every few thousand.
    buffer: Vec<(Arc<u64>, u64)>,
    /// Result count, a small sum and a maximum, as an engine's shared
    /// statistics would keep them.
    counters: [AtomicU64; 3],
}

impl Output {
    fn emit(&mut self, stored: &Arc<u64>, pair: u64) {
        self.expected.results += 1;
        self.expected.checksum = self.expected.checksum.wrapping_add(pair);
        if self.materialise {
            let owned = Arc::clone(stored);
            // A second owner that goes away again: a result handed to a
            // callback and dropped.
            drop(std::hint::black_box(Arc::clone(&owned)));
            self.counters[0].fetch_add(1, Ordering::Relaxed);
            self.counters[1].fetch_add(pair & 7, Ordering::Relaxed);
            self.counters[2].fetch_max(pair, Ordering::Relaxed);
            if self.buffer.len() == 4_096 {
                self.buffer.clear();
            }
            self.buffer.push((owned, pair));
        }
    }
}

/// Incremental reference join; feed tuples in stream order.
#[derive(Debug)]
pub struct ReferenceJoin {
    predicate: Predicate,
    window: Ts,
    /// Equi: per key, per side, the live tuples in arrival order.
    by_key: HashMap<i64, [VecDeque<Stored>; 2]>,
    /// Band: per side, live tuples ordered by `(key bits, serial)`. Keys
    /// are non-negative, so their IEEE bit patterns order like the keys.
    by_range: [BTreeMap<(u64, u64), Stored>; 2],
    /// Band: per side, `(ts, map key)` in arrival order, for expiry.
    arrivals: [VecDeque<(Ts, (u64, u64))>; 2],
    serial: u64,
    out: Output,
}

impl ReferenceJoin {
    /// An empty reference for `predicate` over a sliding `window` (ms).
    pub fn new(predicate: Predicate, window: Ts) -> ReferenceJoin {
        ReferenceJoin {
            predicate,
            window,
            by_key: HashMap::new(),
            by_range: [BTreeMap::new(), BTreeMap::new()],
            arrivals: [VecDeque::new(), VecDeque::new()],
            serial: 0,
            out: Output::default(),
        }
    }

    /// Also materialise every result (the calibrator's mode; see the
    /// module docs). The expectation is the same either way.
    pub fn materialising(mut self) -> ReferenceJoin {
        self.out.materialise = true;
        self
    }

    /// Join `t` against everything of the other relation still in window,
    /// then remember it.
    pub fn push(&mut self, t: &Raw) {
        let own = side(t.rel);
        let opp = 1 - own;
        let h = t.content_hash();
        let window = self.window;
        let live = |ts: Ts| t.ts - ts <= window;
        let pair = |stored: u64| match t.rel {
            Rel::R => pair_hash(h, stored),
            Rel::S => pair_hash(stored, h),
        };
        match (self.predicate, t.key) {
            (Predicate::Equi, Key::Int(k)) => {
                let sides = self.by_key.entry(k).or_default();
                for q in sides.iter_mut() {
                    while q.front().is_some_and(|(ts, _)| !live(*ts)) {
                        q.pop_front();
                    }
                }
                for (_, stored) in sides[opp].iter() {
                    self.out.emit(stored, pair(**stored));
                }
                sides[own].push_back((t.ts, Arc::new(h)));
            }
            (Predicate::Band(band), Key::Float(k)) => {
                for s in 0..2 {
                    while let Some(&(ts, key)) = self.arrivals[s].front() {
                        if live(ts) {
                            break;
                        }
                        self.arrivals[s].pop_front();
                        self.by_range[s].remove(&key);
                    }
                }
                let lo = ((k - band).max(0.0).to_bits(), 0);
                let hi = ((k + band).to_bits(), u64::MAX);
                for (&(bits, _), (_, stored)) in self.by_range[opp].range(lo..=hi) {
                    if (f64::from_bits(bits) - k).abs() <= band {
                        self.out.emit(stored, pair(**stored));
                    }
                }
                let key = (k.to_bits(), self.serial);
                self.serial += 1;
                self.by_range[own].insert(key, (t.ts, Arc::new(h)));
                self.arrivals[own].push_back((t.ts, key));
            }
            (p, k) => panic!("reference predicate {p:?} cannot join key {k:?}"),
        }
    }

    /// The expectation over everything pushed so far.
    pub fn expected(&self) -> Expected {
        self.out.expected
    }
}
