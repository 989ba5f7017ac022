//! The single-index baseline for the E6 ablation: one monolithic index
//! with per-tuple eviction.
//!
//! This is the design the chained index exists to avoid — stale-tuple
//! discarding must walk individual entries of the live structure, paying
//! O(expired) removals with hash/B-tree maintenance per tuple, and the
//! bookkeeping (a FIFO of insertion timestamps) adds per-tuple memory.

use crate::sub::{IndexKind, SubIndex, ENTRY_OVERHEAD_BYTES};
use bistream_types::predicate::ProbePlan;
use bistream_types::time::Ts;
use bistream_types::tuple::Tuple;
use bistream_types::value::Value;
use bistream_types::window::WindowSpec;
use std::collections::VecDeque;

/// A windowed index with no chaining: eviction removes tuples one by one.
#[derive(Debug)]
pub struct NaiveWindowIndex {
    index: SubIndex,
    window: WindowSpec,
    /// Insertion log in timestamp order: (ts, key) pairs enabling eviction.
    log: VecDeque<(Ts, Value)>,
    bytes: usize,
    expired: u64,
}

impl NaiveWindowIndex {
    /// Create an empty naive index of the given flavour over `window`.
    pub fn new(kind: IndexKind, window: WindowSpec) -> NaiveWindowIndex {
        NaiveWindowIndex {
            index: SubIndex::new(kind),
            window,
            log: VecDeque::new(),
            bytes: 0,
            expired: 0,
        }
    }

    /// Store `tuple` under `key`.
    pub fn insert(&mut self, key: Value, tuple: Tuple) {
        self.bytes +=
            tuple.size_bytes() + ENTRY_OVERHEAD_BYTES + std::mem::size_of::<(Ts, Value)>();
        self.log.push_back((tuple.ts(), key.clone()));
        self.index.insert(self.index.key_hash(&key), key, tuple);
    }

    /// Evict every stored tuple expired w.r.t. `incoming_ts` (Theorem 1 at
    /// tuple granularity). Returns tuples removed.
    pub fn expire(&mut self, incoming_ts: Ts) -> usize {
        let mut dropped = 0usize;
        while let Some((ts, _)) = self.log.front() {
            if !self.window.is_expired(*ts, incoming_ts) {
                break;
            }
            let Some((ts, key)) = self.log.pop_front() else { break };
            self.index.remove_one(self.index.key_hash(&key), &key, ts);
            dropped += 1;
            self.expired += 1;
        }
        // Memory accounting: approximate, proportional to live count.
        if dropped > 0 {
            let live = self.log.len();
            let total = live + dropped;
            self.bytes = (self.bytes.checked_div(total)).unwrap_or(0) * live;
        }
        dropped
    }

    /// Visit stored tuples key-matching `plan` within window of `probe_ts`.
    /// Returns candidates visited.
    pub fn probe<F: FnMut(&Tuple)>(&self, plan: &ProbePlan, probe_ts: Ts, mut f: F) -> usize {
        let window = self.window;
        self.index.probe(plan, self.index.plan_hash(plan), |t| {
            if window.in_scope(t.ts(), probe_ts) {
                f(t);
            }
        })
    }

    /// Live tuple count.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Accounted bytes of live state.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Tuples evicted so far.
    pub fn expired(&self) -> u64 {
        self.expired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistream_types::rel::Rel;

    fn t(ts: Ts, k: i64) -> Tuple {
        Tuple::new(Rel::R, ts, vec![Value::Int(k)])
    }

    fn exact(k: i64) -> ProbePlan {
        ProbePlan::ExactKey(Value::Int(k))
    }

    #[test]
    fn insert_probe_expire_cycle() {
        let mut n = NaiveWindowIndex::new(IndexKind::Hash, WindowSpec::sliding(100));
        for ts in [0, 50, 100, 150] {
            n.insert(Value::Int(1), t(ts, 1));
        }
        assert_eq!(n.len(), 4);
        let mut hits = Vec::new();
        n.probe(&exact(1), 150, |t| hits.push(t.ts()));
        hits.sort_unstable();
        assert_eq!(hits, vec![50, 100, 150]);
        // Expire against incoming ts=201: tuples with 201 − ts > 100,
        // i.e. ts < 101, die — that is ts ∈ {0, 50, 100}.
        let dropped = n.expire(201);
        assert_eq!(dropped, 3);
        assert_eq!(n.len(), 1);
        assert_eq!(n.expired(), 3);
    }

    #[test]
    fn eviction_is_exact_per_tuple() {
        let mut n = NaiveWindowIndex::new(IndexKind::Hash, WindowSpec::sliding(10));
        n.insert(Value::Int(1), t(0, 1));
        n.insert(Value::Int(2), t(5, 2));
        n.expire(12); // expires only ts=0 (12-0 > 10, 12-5 <= 10)
        assert_eq!(n.len(), 1);
        let mut hits = 0;
        n.probe(&exact(2), 12, |_| hits += 1);
        assert_eq!(hits, 1);
        n.probe(&exact(1), 12, |_| panic!("evicted"));
    }

    #[test]
    fn bytes_shrink_on_expiry() {
        let mut n = NaiveWindowIndex::new(IndexKind::Hash, WindowSpec::sliding(10));
        for ts in 0..100 {
            n.insert(Value::Int(ts as i64 % 5), t(ts, ts as i64 % 5));
        }
        let peak = n.bytes();
        n.expire(1_000);
        assert!(n.is_empty());
        assert!(n.bytes() < peak / 10);
    }

    #[test]
    fn works_with_ordered_flavour_and_ranges() {
        let mut n = NaiveWindowIndex::new(IndexKind::Ordered, WindowSpec::sliding(1_000));
        for k in 0..10 {
            n.insert(Value::Int(k), t(k as Ts, k));
        }
        let plan = ProbePlan::Range {
            lo: std::ops::Bound::Included(Value::Int(3)),
            hi: std::ops::Bound::Included(Value::Int(5)),
        };
        let mut keys = Vec::new();
        n.probe(&plan, 10, |t| keys.push(t.get(0).unwrap().as_int().unwrap()));
        keys.sort_unstable();
        assert_eq!(keys, vec![3, 4, 5]);
    }
}
