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
//! | Ordered, head link | O(log n) | O(log n + k) | O(n) | `BTreeMap<Value, Postings>`, postings `One \| Many` as in the hash flavour |
//! | Ordered, sealed    | O(log n) | O(log n + k) | O(n) | [`SortedRun`]: entries in key order beside a `Vec<u64>` of their [`Value::order_key`]s |
//! | Scan     | —         | —       | O(n)       | `Vec<(Value, Tuple)>` |
//!
//! The hash flavour is keyed by the key's [`map_hash`], which the caller
//! computes **once** and passes to every sub-index it touches — a probe
//! walks ≈ window ÷ archive-period links, and hashing a [`Value`] per link
//! was a measurable part of each lookup. Equality is still decided by
//! `Value::eq` on the key each slot keeps, so `Int(10)` finds `Float(10.0)`
//! and two keys that share a hash stay apart (they chain off one slot).
//!
//! The ordered flavour has two layouts because a link has two lives. While
//! it is the head of the chain it takes inserts, so it is a B-tree. Once
//! sealed it is only ever range-probed and, one day, dropped whole
//! ([`SubIndex::seal`]): a B-tree of five-variant enums compared through
//! `Value::cmp` is then the wrong layout, and a sorted array searched by
//! `u64` is the right one (PanJoin's BI-Sort; the immutable-tree-plus-
//! mutable-delta split of *Parallel Index-based Stream Join on a Multicore
//! CPU*). Sorted runs also merge in one pass, which is what lets the chain
//! keep fewer links than archive periods ([`SortedRun::merge`]).

use bistream_types::hash::{map_hash, PrehashedMap};
use bistream_types::predicate::ProbePlan;
use bistream_types::time::Ts;
use bistream_types::tuple::Tuple;
use bistream_types::value::Value;
use std::collections::hash_map::Entry;
use std::collections::{btree_map, BTreeMap};
use std::ops::{Bound, RangeBounds};

/// Which sub-index flavour a joiner uses; derived from the predicate class
/// via [`IndexKind::for_predicate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash map keyed by join attribute — equi predicates.
    Hash,
    /// Ordered by join attribute (B-tree head, sorted runs behind it) —
    /// band and inequality predicates.
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

/// The tuples stored under one key of a hash sub-index or of the B-tree
/// an ordered head link is.
///
/// Under near-unique keys almost every key holds one tuple per archive
/// period; keeping that one inline saves a heap block per insert and a
/// `free` per expired (or frozen) tuple. A repeated key gets the
/// contiguous `Vec`.
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
    Ordered(BTreeMap<Value, Postings>),
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
            SubIndex::Ordered(m) => match m.entry(key) {
                btree_map::Entry::Vacant(e) => {
                    e.insert(Postings::One(tuple));
                }
                btree_map::Entry::Occupied(e) => e.into_mut().push(tuple),
            },
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
                if m.get_mut(key).is_some_and(|postings| postings.remove_one(ts)) {
                    m.remove(key);
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
                if let Some(postings) = m.get(k) {
                    visit(postings.as_slice());
                }
            }
            (SubIndex::Ordered(m), ProbePlan::Range { lo, hi }) => {
                // `BTreeMap::range` panics on a range that ends before it
                // starts; such a range simply holds nothing.
                if !is_inverted(lo, hi) {
                    for (_, postings) in m.range::<Value, _>((lo.as_ref(), hi.as_ref())) {
                        visit(postings.as_slice());
                    }
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

    /// Close the sub-index to inserts. `len` is the number of tuples it
    /// holds (the chain counts them as they go in).
    pub(crate) fn seal(self, len: usize) -> Sealed {
        match self {
            SubIndex::Ordered(m) => Sealed::Run(SortedRun::freeze(m, len)),
            built => Sealed::AsBuilt(built),
        }
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
                for (k, postings) in m {
                    for t in postings.as_slice() {
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

/// True when no key can lie in `lo..hi` because the range ends before it
/// starts (or starts and ends on one excluded key) — what a negative band
/// produces, and what `BTreeMap::range` refuses with a panic.
fn is_inverted(lo: &Bound<Value>, hi: &Bound<Value>) -> bool {
    match (lo, hi) {
        (Bound::Included(a), Bound::Included(b)) => a > b,
        (Bound::Excluded(a), Bound::Excluded(b)) => a >= b,
        (Bound::Included(a), Bound::Excluded(b)) | (Bound::Excluded(a), Bound::Included(b)) => {
            a > b
        }
        (Bound::Unbounded, _) | (_, Bound::Unbounded) => false,
    }
}

/// A sealed ordered sub-index: immutable, laid out for range probes.
///
/// `entries` holds the `(key, tuple)` pairs in `Value::cmp` order
/// (arrival order within a key) and `order[i]` is `entries[i]`'s
/// [`Value::order_key`]. That map is monotone, so `order` is sorted too,
/// and a range probe is a binary search over plain `u64`s followed by a
/// forward scan; it is not strict, so a stored key whose order key ties
/// with an end of the range is taken or left by `Value::cmp`. Every other
/// key the scan passes is inside the range by the order keys alone.
#[derive(Debug)]
pub(crate) struct SortedRun {
    order: Vec<u64>,
    entries: Vec<(Value, Tuple)>,
}

impl SortedRun {
    fn with_capacity(len: usize) -> SortedRun {
        SortedRun { order: Vec::with_capacity(len), entries: Vec::with_capacity(len) }
    }

    fn push(&mut self, order: u64, entry: (Value, Tuple)) {
        self.order.push(order);
        self.entries.push(entry);
    }

    /// Lay out the `len` tuples of an ordered sub-index as a run.
    fn freeze(map: BTreeMap<Value, Postings>, len: usize) -> SortedRun {
        let mut run = SortedRun::with_capacity(len);
        for (key, postings) in map {
            let order = key.order_key();
            match postings {
                Postings::One(tuple) => run.push(order, (key, tuple)),
                Postings::Many(tuples) => {
                    for tuple in tuples {
                        run.push(order, (key.clone(), tuple));
                    }
                }
            }
        }
        run
    }

    /// One run holding the entries of both, `older`'s first within a key,
    /// so a key's tuples stay in arrival order.
    pub(crate) fn merge(older: SortedRun, newer: SortedRun) -> SortedRun {
        let mut merged = SortedRun::with_capacity(older.order.len() + newer.order.len());
        let mut newer = newer.order.into_iter().zip(newer.entries).peekable();
        for (order, entry) in older.order.into_iter().zip(older.entries) {
            // Only what sorts strictly before an older entry overtakes it.
            while let Some((o, e)) =
                newer.next_if(|(o, e)| *o < order || (*o == order && e.0 < entry.0))
            {
                merged.push(o, e);
            }
            merged.push(order, entry);
        }
        for (o, e) in newer {
            merged.push(o, e);
        }
        merged
    }

    /// [`SubIndex::probe`] on a run. `ExactKey` is the range from the key
    /// to itself.
    fn probe<F: FnMut(&Tuple)>(&self, plan: &ProbePlan, mut f: F) -> usize {
        match plan {
            ProbePlan::ExactKey(k) => self.range(Bound::Included(k), Bound::Included(k), f),
            ProbePlan::Range { lo, hi } => self.range(lo.as_ref(), hi.as_ref(), f),
            ProbePlan::FullScan => {
                self.entries.iter().for_each(|(_, t)| f(t));
                self.entries.len()
            }
        }
    }

    /// Visit the tuples whose key lies in `lo..hi`, in key order; returns
    /// how many. An empty or inverted range visits nothing.
    fn range<F: FnMut(&Tuple)>(&self, lo: Bound<&Value>, hi: Bound<&Value>, mut f: F) -> usize {
        let order_of = |bound: Bound<&Value>| match bound {
            Bound::Included(v) | Bound::Excluded(v) => Some(v.order_key()),
            Bound::Unbounded => None,
        };
        let (lo_order, hi_order) = (order_of(lo), order_of(hi));
        let start = lo_order.map_or(0, |lo| self.order.partition_point(|&o| o < lo));
        let mut visited = 0;
        for (&order, (key, tuple)) in self.order[start..].iter().zip(&self.entries[start..]) {
            if hi_order.is_some_and(|hi| order > hi) {
                break;
            }
            let tied = Some(order) == lo_order || Some(order) == hi_order;
            if tied && !(lo, hi).contains(key) {
                continue;
            }
            visited += 1;
            f(tuple);
        }
        visited
    }
}

/// A sub-index that takes no more inserts: what the archived links of a
/// chain hold.
#[derive(Debug)]
pub(crate) enum Sealed {
    /// Hash and scan sub-indexes stay as they were built; a hash table is
    /// already the layout an exact-key probe wants.
    AsBuilt(SubIndex),
    /// An ordered sub-index is frozen into a sorted run.
    Run(SortedRun),
}

impl Sealed {
    /// As [`SubIndex::probe`].
    pub(crate) fn probe<F: FnMut(&Tuple)>(&self, plan: &ProbePlan, hash: u64, f: F) -> usize {
        match self {
            Sealed::AsBuilt(built) => built.probe(plan, hash, f),
            Sealed::Run(run) => run.probe(plan, f),
        }
    }

    /// As [`SubIndex::for_each_entry`].
    pub(crate) fn for_each_entry<F: FnMut(&Value, &Tuple)>(&self, mut f: F) {
        match self {
            Sealed::AsBuilt(built) => built.for_each_entry(f),
            Sealed::Run(run) => run.entries.iter().for_each(|(k, t)| f(k, t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistream_types::predicate::JoinPredicate;
    use bistream_types::rel::Rel;

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
    fn an_inverted_or_empty_range_holds_nothing_in_the_tree_or_the_run() {
        use Bound::{Excluded, Included};
        let tree = filled(IndexKind::Ordered);
        let run = filled(IndexKind::Ordered).seal(4);
        let plan = |lo: Bound<i64>, hi: Bound<i64>| ProbePlan::Range {
            lo: lo.map(Value::Int),
            hi: hi.map(Value::Int),
        };
        // The first is what `band: -1.0` asks for around 3: 4 ..= 2.
        for (lo, hi) in [
            (Included(4), Included(2)),
            (Excluded(5), Included(1)),
            (Excluded(3), Excluded(3)),
            (Included(3), Excluded(3)),
            (Excluded(3), Included(3)),
        ] {
            let plan = plan(lo, hi);
            assert_eq!(probe(&tree, &plan, |_| panic!("{plan:?} is empty")), 0);
            assert_eq!(run.probe(&plan, 0, |_| panic!("{plan:?} is empty")), 0);
        }
        let point = plan(Included(3), Included(3));
        assert_eq!(probe(&tree, &point, |_| {}), 1);
        assert_eq!(run.probe(&point, 0, |_| {}), 1);
    }

    #[test]
    fn runs_keep_key_order_and_arrival_order_within_a_key_across_a_merge() {
        let run_of = |entries: &[(i64, Ts)]| {
            let mut s = SubIndex::new(IndexKind::Ordered);
            for &(k, ts) in entries {
                insert(&mut s, Value::Int(k), Tuple::new(Rel::R, ts, vec![Value::Int(k)]));
            }
            match s.seal(entries.len()) {
                Sealed::Run(run) => run,
                Sealed::AsBuilt(_) => unreachable!("an ordered sub-index freezes"),
            }
        };
        let older = run_of(&[(5, 1), (1, 2), (3, 3), (1, 4)]);
        let newer = run_of(&[(1, 5), (4, 6), (5, 7)]);
        let merged = Sealed::Run(SortedRun::merge(older, newer));
        let mut seen = Vec::new();
        merged.for_each_entry(|k, t| seen.push((k.as_int().unwrap(), t.ts())));
        assert_eq!(seen, [(1, 2), (1, 4), (1, 5), (3, 3), (4, 6), (5, 1), (5, 7)]);
        // An open-ended range scans from its one search to the end.
        let from_4 = ProbePlan::Range { lo: Bound::Included(Value::Int(4)), hi: Bound::Unbounded };
        let mut seen = Vec::new();
        assert_eq!(merged.probe(&from_4, 0, |t| seen.push(t.ts())), 3);
        assert_eq!(seen, [6, 1, 7]);
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
