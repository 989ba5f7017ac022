//! Sub-index implementations: the building blocks of the chain.
//!
//! Every sub-index stores `(key, tuple)` pairs, where the key is the
//! tuple's join attribute extracted by the joiner, and answers probes
//! described by a [`ProbePlan`]. The flavour is chosen once per joiner from
//! the predicate class and must support that predicate's plans:
//!
//! | flavour  | `ExactKey` | `Range` | `FullScan` | backing |
//! |----------|-----------|---------|------------|---------|
//! | Hash     | O(1)      | —       | O(n)       | `PrehashedMap<HashSlot>`: key hash → key + `One \| Many` postings |
//! | Ordered  | O(log n)  | O(log n + k) | O(n)  | `BTreeMap<Value, Vec<Tuple>>` |
//! | Scan     | —         | —       | O(n)       | `Vec<(Value, Tuple)>` |
//!
//! The hash flavour is keyed by the key's [`map_hash`], which the caller
//! computes **once** and passes to every sub-index it touches — a probe
//! walks ≈ window ÷ archive-period links, and hashing a [`Value`] per link
//! was a measurable part of each lookup. Equality is still decided by
//! `Value::eq` on the key each slot keeps, so `Int(10)` finds `Float(10.0)`
//! and two keys that share a hash stay apart (they chain off one slot).

use bistream_types::hash::{map_hash, PrehashedMap};
use bistream_types::predicate::ProbePlan;
use bistream_types::time::Ts;
use bistream_types::tuple::Tuple;
use bistream_types::value::Value;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

/// Which sub-index flavour a joiner uses; derived from the predicate class
/// via [`IndexKind::for_predicate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash map keyed by join attribute — equi predicates.
    Hash,
    /// B-tree keyed by join attribute — band and inequality predicates.
    Ordered,
    /// Unindexed append log — cross products.
    Scan,
}

impl IndexKind {
    /// The flavour suited to a predicate: hash for equi, ordered for
    /// anything with a key range, scan for cross products.
    pub fn for_predicate(p: &bistream_types::predicate::JoinPredicate) -> IndexKind {
        use bistream_types::predicate::JoinPredicate::*;
        match p {
            Equi { .. } => IndexKind::Hash,
            Band { .. } | Theta { .. } => IndexKind::Ordered,
            Cross => IndexKind::Scan,
        }
    }
}

/// Fixed per-entry overhead charged by the memory accounting, covering the
/// key clone and container bookkeeping. A round number by design: the
/// accounting feeds relative comparisons (biclique vs matrix, chained vs
/// naive), not absolute RSS prediction.
pub const ENTRY_OVERHEAD_BYTES: usize = 48;

/// The tuples stored under one key of a hash sub-index.
///
/// Under near-unique keys almost every key holds one tuple per archive
/// period; keeping that one inline saves a heap block per insert and a
/// `free` per expired tuple. A repeated key gets the contiguous `Vec`.
#[derive(Debug)]
pub(crate) enum Postings {
    One(Tuple),
    Many(Vec<Tuple>),
}

impl Postings {
    fn push(&mut self, tuple: Tuple) {
        match self {
            Postings::One(first) => *self = Postings::Many(vec![first.clone(), tuple]),
            Postings::Many(v) => v.push(tuple),
        }
    }

    fn as_slice(&self) -> &[Tuple] {
        match self {
            Postings::One(t) => std::slice::from_ref(t),
            Postings::Many(v) => v,
        }
    }

    /// Remove one tuple stamped `ts`; true when the key should go with it.
    fn remove_one(&mut self, ts: Ts) -> bool {
        match self {
            Postings::One(t) => t.ts() == ts,
            Postings::Many(v) => {
                if let Some(pos) = v.iter().position(|t| t.ts() == ts) {
                    v.swap_remove(pos);
                }
                v.is_empty()
            }
        }
    }
}

/// One key of a hash sub-index, and the rest of the keys that share its
/// hash (64-bit collisions: `next` is `None` in practice).
#[derive(Debug)]
pub(crate) struct HashSlot {
    key: Value,
    postings: Postings,
    next: Option<Box<HashSlot>>,
}

impl HashSlot {
    fn new(key: Value, tuple: Tuple) -> HashSlot {
        HashSlot { key, postings: Postings::One(tuple), next: None }
    }

    /// This slot and every slot chained off it.
    fn chain(&self) -> impl Iterator<Item = &HashSlot> {
        std::iter::successors(Some(self), |s| s.next.as_deref())
    }

    fn insert(&mut self, key: Value, tuple: Tuple) {
        if self.key == key {
            self.postings.push(tuple);
        } else {
            match &mut self.next {
                Some(next) => next.insert(key, tuple),
                None => self.next = Some(Box::new(HashSlot::new(key, tuple))),
            }
        }
    }
}

/// [`SubIndex::remove_one`] on the chained part of a slot list: unlink the
/// slot of `key` if the tuple removed was its last.
fn remove_from_chain(link: &mut Option<Box<HashSlot>>, key: &Value, ts: Ts) {
    let Some(slot) = link else { return };
    if slot.key != *key {
        remove_from_chain(&mut slot.next, key, ts);
    } else if slot.postings.remove_one(ts) {
        *link = slot.next.take();
    }
}

/// One sub-index of the chain.
#[derive(Debug)]
pub(crate) enum SubIndex {
    Hash(PrehashedMap<HashSlot>),
    Ordered(BTreeMap<Value, Vec<Tuple>>),
    Scan(Vec<(Value, Tuple)>),
}

impl SubIndex {
    pub(crate) fn new(kind: IndexKind) -> SubIndex {
        match kind {
            IndexKind::Hash => SubIndex::Hash(PrehashedMap::default()),
            IndexKind::Ordered => SubIndex::Ordered(BTreeMap::new()),
            IndexKind::Scan => SubIndex::Scan(Vec::new()),
        }
    }

    /// The hash this flavour wants passed along with `key` to
    /// [`insert`](SubIndex::insert), [`probe`](SubIndex::probe) and
    /// [`remove_one`](SubIndex::remove_one); 0 for the flavours that do
    /// not hash.
    pub(crate) fn key_hash(&self, key: &Value) -> u64 {
        match self {
            SubIndex::Hash(_) => map_hash(key),
            SubIndex::Ordered(_) | SubIndex::Scan(_) => 0,
        }
    }

    /// The hash to pass to [`probe`](SubIndex::probe) with `plan`: its
    /// key's, if it has one.
    pub(crate) fn plan_hash(&self, plan: &ProbePlan) -> u64 {
        match plan {
            ProbePlan::ExactKey(key) => self.key_hash(key),
            ProbePlan::Range { .. } | ProbePlan::FullScan => 0,
        }
    }

    /// Insert a tuple under its join key (`hash`: see
    /// [`key_hash`](SubIndex::key_hash)).
    pub(crate) fn insert(&mut self, hash: u64, key: Value, tuple: Tuple) {
        match self {
            SubIndex::Hash(m) => match m.entry(hash) {
                Entry::Vacant(e) => {
                    e.insert(HashSlot::new(key, tuple));
                }
                Entry::Occupied(e) => e.into_mut().insert(key, tuple),
            },
            SubIndex::Ordered(m) => m.entry(key).or_default().push(tuple),
            SubIndex::Scan(v) => v.push((key, tuple)),
        }
    }

    /// Remove one tuple with timestamp `ts` stored under `key` — the naive
    /// baseline's per-tuple eviction.
    pub(crate) fn remove_one(&mut self, hash: u64, key: &Value, ts: Ts) {
        match self {
            SubIndex::Hash(m) => {
                let Entry::Occupied(mut e) = m.entry(hash) else { return };
                let head = e.get_mut();
                if head.key != *key {
                    remove_from_chain(&mut head.next, key, ts);
                } else if head.postings.remove_one(ts) {
                    match head.next.take() {
                        Some(next) => *head = *next,
                        None => {
                            e.remove();
                        }
                    }
                }
            }
            SubIndex::Ordered(m) => {
                if let Some(v) = m.get_mut(key) {
                    if let Some(pos) = v.iter().position(|t| t.ts() == ts) {
                        v.swap_remove(pos);
                    }
                    if v.is_empty() {
                        m.remove(key);
                    }
                }
            }
            SubIndex::Scan(v) => {
                if let Some(pos) = v.iter().position(|(k, t)| k == key && t.ts() == ts) {
                    v.swap_remove(pos);
                }
            }
        }
    }

    /// Number of stored tuples.
    #[allow(dead_code)] // exercised by tests; chain links track counts inline
    pub(crate) fn len(&self) -> usize {
        let mut n = 0;
        self.for_each_entry(|_, _| n += 1);
        n
    }

    /// Visit every candidate tuple selected by `plan`, calling `f` with
    /// each. Returns the number of candidates visited (the joiner's cost
    /// model charges per candidate). `hash` is the plan's
    /// [`plan_hash`](SubIndex::plan_hash).
    ///
    /// Candidates are *key*-matched only; the caller still applies the
    /// pairwise window check and (for `FullScan` plans) the predicate.
    pub(crate) fn probe<F: FnMut(&Tuple)>(&self, plan: &ProbePlan, hash: u64, mut f: F) -> usize {
        let mut visited = 0usize;
        let mut visit = |ts: &[Tuple]| {
            for t in ts {
                visited += 1;
                f(t);
            }
        };
        match (self, plan) {
            (SubIndex::Hash(m), ProbePlan::ExactKey(k)) => {
                let slot = m.get(&hash).and_then(|head| head.chain().find(|s| s.key == *k));
                if let Some(slot) = slot {
                    visit(slot.postings.as_slice());
                }
            }
            (SubIndex::Ordered(m), ProbePlan::ExactKey(k)) => {
                if let Some(ts) = m.get(k) {
                    visit(ts);
                }
            }
            (SubIndex::Ordered(m), ProbePlan::Range { lo, hi }) => {
                for (_, ts) in m.range((lo.clone(), hi.clone())) {
                    visit(ts);
                }
            }
            // Full scans and any plan a flavour cannot serve natively fall
            // back to visiting everything; the predicate re-check at the
            // joiner keeps this correct (only ever hit by Scan/Cross and by
            // Hash under a range plan, which the engine never produces).
            (ix, _) => ix.for_each_entry(|_, t| visit(std::slice::from_ref(t))),
        }
        visited
    }

    /// Visit every `(key, tuple)` entry — used by snapshotting.
    pub(crate) fn for_each_entry<F: FnMut(&Value, &Tuple)>(&self, mut f: F) {
        match self {
            SubIndex::Hash(m) => {
                for slot in m.values().flat_map(HashSlot::chain) {
                    for t in slot.postings.as_slice() {
                        f(&slot.key, t);
                    }
                }
            }
            SubIndex::Ordered(m) => {
                for (k, ts) in m {
                    for t in ts {
                        f(k, t);
                    }
                }
            }
            SubIndex::Scan(v) => {
                for (k, t) in v {
                    f(k, t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistream_types::predicate::JoinPredicate;
    use bistream_types::rel::Rel;
    use std::ops::Bound;

    fn t(k: i64) -> Tuple {
        Tuple::new(Rel::R, k as u64, vec![Value::Int(k)])
    }

    fn insert(s: &mut SubIndex, key: Value, tuple: Tuple) {
        s.insert(s.key_hash(&key), key, tuple);
    }

    fn probe<F: FnMut(&Tuple)>(s: &SubIndex, plan: &ProbePlan, f: F) -> usize {
        s.probe(plan, s.plan_hash(plan), f)
    }

    fn filled(kind: IndexKind) -> SubIndex {
        let mut s = SubIndex::new(kind);
        for k in [5, 1, 3, 1] {
            insert(&mut s, Value::Int(k), t(k));
        }
        s
    }

    #[test]
    fn kind_for_predicate() {
        assert_eq!(
            IndexKind::for_predicate(&JoinPredicate::Equi { r_attr: 0, s_attr: 0 }),
            IndexKind::Hash
        );
        assert_eq!(
            IndexKind::for_predicate(&JoinPredicate::Band { r_attr: 0, s_attr: 0, band: 1.0 }),
            IndexKind::Ordered
        );
        assert_eq!(IndexKind::for_predicate(&JoinPredicate::Cross), IndexKind::Scan);
    }

    #[test]
    fn exact_key_probe_on_hash_and_ordered() {
        for kind in [IndexKind::Hash, IndexKind::Ordered] {
            let s = filled(kind);
            let mut hits = Vec::new();
            let visited = probe(&s, &ProbePlan::ExactKey(Value::Int(1)), |t| hits.push(t.clone()));
            assert_eq!(visited, 2, "{kind:?}");
            assert_eq!(hits.len(), 2);
            assert!(hits.iter().all(|t| t.get(0) == Some(&Value::Int(1))));
            let miss = probe(&s, &ProbePlan::ExactKey(Value::Int(99)), |_| panic!("no hit"));
            assert_eq!(miss, 0);
        }
    }

    #[test]
    fn range_probe_on_ordered() {
        let s = filled(IndexKind::Ordered);
        let mut keys = Vec::new();
        let plan = ProbePlan::Range {
            lo: Bound::Included(Value::Int(1)),
            hi: Bound::Excluded(Value::Int(5)),
        };
        probe(&s, &plan, |t| keys.push(t.get(0).unwrap().as_int().unwrap()));
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 1, 3]);
    }

    #[test]
    fn full_scan_visits_everything_in_every_flavour() {
        for kind in [IndexKind::Hash, IndexKind::Ordered, IndexKind::Scan] {
            let s = filled(kind);
            let mut n = 0;
            let visited = probe(&s, &ProbePlan::FullScan, |_| n += 1);
            assert_eq!(n, 4, "{kind:?}");
            assert_eq!(visited, 4);
            assert_eq!(s.len(), 4);
        }
    }

    #[test]
    fn mixed_numeric_keys_group_in_ordered_range() {
        // Int and Float keys of equal numeric value occupy one B-tree slot
        // (Value's total order treats them equal), so band probes with
        // Float bounds find Int-keyed tuples.
        let mut s = SubIndex::new(IndexKind::Ordered);
        insert(&mut s, Value::Int(10), t(10));
        let plan = ProbePlan::Range {
            lo: Bound::Included(Value::Float(9.5)),
            hi: Bound::Included(Value::Float(10.5)),
        };
        let mut n = 0;
        probe(&s, &plan, |_| n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn hash_finds_int_under_equal_float_and_promotes_one_to_many() {
        let mut s = SubIndex::new(IndexKind::Hash);
        insert(&mut s, Value::Int(10), t(10));
        let SubIndex::Hash(m) = &s else { unreachable!() };
        assert!(m.values().all(|slot| matches!(slot.postings, Postings::One(_))));
        assert_eq!(probe(&s, &ProbePlan::ExactKey(Value::Float(10.0)), |_| {}), 1);
        // The equal Float key joins the Int's slot rather than opening one.
        insert(&mut s, Value::Float(10.0), t(10));
        let SubIndex::Hash(m) = &s else { unreachable!() };
        assert_eq!(m.len(), 1);
        assert!(m.values().all(|slot| matches!(&slot.postings, Postings::Many(v) if v.len() == 2)));
        assert_eq!(probe(&s, &ProbePlan::ExactKey(Value::Int(10)), |_| {}), 2);
    }

    #[test]
    fn keys_sharing_a_hash_stay_apart_and_unlink_cleanly() {
        // Every key under hash 0: one map entry, slots chained off it.
        let mut s = SubIndex::new(IndexKind::Hash);
        for k in [1, 2, 3, 2] {
            s.insert(0, Value::Int(k), t(k));
        }
        let exact = |k| ProbePlan::ExactKey(Value::Int(k));
        assert_eq!(s.len(), 4);
        assert_eq!(s.probe(&exact(2), 0, |t| assert_eq!(t.ts(), 2)), 2);
        assert_eq!(s.probe(&exact(3), 0, |t| assert_eq!(t.ts(), 3)), 1);
        assert_eq!(s.probe(&exact(4), 0, |_| panic!("absent key")), 0);
        // Remove from the middle, the head and the tail of the chain.
        s.remove_one(0, &Value::Int(2), 2);
        assert_eq!(s.probe(&exact(2), 0, |_| {}), 1, "one of two postings left");
        s.remove_one(0, &Value::Int(2), 2);
        s.remove_one(0, &Value::Int(1), 1);
        assert_eq!(s.probe(&exact(1), 0, |_| panic!("removed")), 0);
        assert_eq!(s.probe(&exact(2), 0, |_| panic!("removed")), 0);
        assert_eq!(s.probe(&exact(3), 0, |_| {}), 1);
        s.remove_one(0, &Value::Int(3), 3);
        assert_eq!(s.len(), 0);
        let SubIndex::Hash(m) = &s else { unreachable!() };
        assert!(m.is_empty(), "last key takes the map entry with it");
    }
}
