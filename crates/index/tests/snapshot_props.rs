//! Property tests for the snapshot codec: the restore of a snapshot is
//! *behaviourally* identical to the original index — same probe results,
//! same Theorem-1 expiry — and corrupted snapshots are rejected, never
//! mis-restored or panicked on.

use bistream_index::{restore, snapshot, ChainedIndex, IndexKind};
use bistream_types::cases::{for_cases, Gen};
use bistream_types::predicate::ProbePlan;
use bistream_types::rel::Rel;
use bistream_types::tuple::Tuple;
use bistream_types::value::Value;
use bistream_types::window::WindowSpec;
use std::cell::Cell;

const WINDOW: u64 = 1_000;
const PERIOD: u64 = 100;
/// Short enough that an ordered chain fed in timestamp order merges the
/// runs it seals (they span far less than `WINDOW / 4`).
const SHORT_PERIOD: u64 = 10;

fn fresh(kind: IndexKind, period: u64) -> ChainedIndex {
    ChainedIndex::new(kind, WindowSpec::sliding(WINDOW), period)
}

/// Stored entries: (key, timestamp) with timestamps kept inside one
/// window so nothing expires during the build phase — and the archive
/// period to store them under. Half the cases arrive in any order under
/// `PERIOD`; the other half in timestamp order under `SHORT_PERIOD`.
fn arb_entries(g: &mut Gen) -> (Vec<(i64, u64)>, u64) {
    let mut entries = g.vec(0..64, |g| (g.int(-8..8), g.uint(0..WINDOW / 2)));
    if g.bool() {
        return (entries, PERIOD);
    }
    entries.sort_by_key(|&(_, ts)| ts);
    (entries, SHORT_PERIOD)
}

fn build(kind: IndexKind, period: u64, entries: &[(i64, u64)]) -> ChainedIndex {
    let mut idx = fresh(kind, period);
    for &(k, ts) in entries {
        idx.insert(Value::Int(k), Tuple::new(Rel::R, ts, vec![Value::Int(k)]));
    }
    idx
}

/// Whether the ordered chain over `entries` holds merged runs: it then has
/// fewer links than the hash chain, which seals on the same tuples and
/// never merges.
fn merges(period: u64, entries: &[(i64, u64)]) -> bool {
    let links = |kind| build(kind, period, entries).stats().sub_indexes;
    links(IndexKind::Ordered) < links(IndexKind::Hash)
}

/// Every probe result, rendered comparably (timestamps + payload).
fn probe_all(idx: &ChainedIndex, plan: &ProbePlan, probe_ts: u64) -> Vec<String> {
    let mut out = Vec::new();
    idx.probe(plan, probe_ts, |t| out.push(format!("{t:?}")));
    out.sort();
    out
}

/// Snapshot → fresh index → restore reproduces the exact probe results of
/// the original, for exact-key and full-scan plans, on both sub-index
/// kinds.
fn check_restore_is_probe_equivalent(entries: &[(i64, u64)], period: u64, key: i64) {
    for kind in [IndexKind::Hash, IndexKind::Ordered] {
        let original = build(kind, period, entries);
        let mut restored = fresh(kind, period);
        let n = restore(&mut restored, snapshot(&original)).expect("clean snapshot");
        assert_eq!(n, entries.len());
        assert_eq!(restored.len(), original.len());
        let probe_ts = WINDOW / 2;
        for plan in [ProbePlan::ExactKey(Value::Int(key)), ProbePlan::FullScan] {
            assert_eq!(
                probe_all(&restored, &plan, probe_ts),
                probe_all(&original, &plan, probe_ts)
            );
        }
    }
}

#[test]
fn restore_is_probe_equivalent() {
    // The empty snapshot round-trips.
    check_restore_is_probe_equivalent(&[], PERIOD, 0);
    let merged = Cell::new(0);
    for_cases("restore_is_probe_equivalent", 256, |g| {
        let (entries, period) = arb_entries(g);
        check_restore_is_probe_equivalent(&entries, period, g.int(-8..8));
        merged.set(merged.get() + u32::from(merges(period, &entries)));
    });
    assert!(merged.get() >= 64, "only {} of 256 chains held merged runs", merged.get());
}

/// Theorem-1 discarding is *behaviourally* identical on the restored
/// index: after expiring both sides against the same incoming timestamp,
/// every probe sees the same in-window tuples. (Exact drop counts may
/// differ — restore re-inserts in timestamp order, so the physical link
/// segmentation can be tighter than the original's — but discarding is
/// only ever of fully-expired links, so the visible live set must agree.)
fn check_restore_preserves_theorem_one_expiry(entries: &[(i64, u64)], period: u64, advance: u64) {
    for kind in [IndexKind::Hash, IndexKind::Ordered] {
        let mut original = build(kind, period, entries);
        let mut restored = fresh(kind, period);
        restore(&mut restored, snapshot(&original)).expect("clean snapshot");
        let incoming = WINDOW / 2 + advance;
        let dropped = restored.expire(incoming);
        original.expire(incoming);
        // Conservation: every entry is either still stored or was counted
        // as dropped — expiry never silently loses state.
        assert_eq!(restored.len() + dropped, entries.len());
        for probe_ts in [incoming, incoming + WINDOW / 4] {
            assert_eq!(
                probe_all(&restored, &ProbePlan::FullScan, probe_ts),
                probe_all(&original, &ProbePlan::FullScan, probe_ts)
            );
        }
    }
}

#[test]
fn restore_preserves_theorem_one_expiry() {
    // One entry whose age is one short of, exactly on and one past the
    // window edge.
    for advance in [WINDOW - 1, WINDOW, WINDOW + 1] {
        check_restore_preserves_theorem_one_expiry(&[(0, WINDOW / 2)], PERIOD, advance);
    }
    let merged = Cell::new(0);
    for_cases("restore_preserves_theorem_one_expiry", 256, |g| {
        let (entries, period) = arb_entries(g);
        check_restore_preserves_theorem_one_expiry(&entries, period, g.uint(0..3 * WINDOW));
        merged.set(merged.get() + u32::from(merges(period, &entries)));
    });
    assert!(merged.get() >= 64, "only {} of 256 chains held merged runs", merged.get());
}

/// Arbitrary corruption never panics: restore either succeeds on a
/// byte-identical snapshot or reports a codec error — and a flipped byte
/// is never silently accepted as a *different* entry count.
#[test]
fn corruption_is_rejected_not_panicked() {
    for_cases("corruption_is_rejected_not_panicked", 256, |g| {
        let (entries, period) = arb_entries(g);
        let original = build(IndexKind::Hash, period, &entries);
        let mut bytes = snapshot(&original).to_vec();
        let i = g.index(0..bytes.len());
        bytes[i] ^= g.uint(1..256) as u8;
        let mut target = fresh(IndexKind::Hash, period);
        // Must not panic; on Ok the decoded entries must at least parse
        // back into the index (count bounded by what the blob can hold).
        if let Ok(n) = restore(&mut target, bytes::Bytes::from(bytes)) {
            assert_eq!(n, target.len());
        }
    });
}

#[test]
fn truncation_at_every_cut_is_rejected() {
    let mut idx = fresh(IndexKind::Hash, PERIOD);
    for i in 0..8i64 {
        idx.insert(Value::Int(i), Tuple::new(Rel::R, i as u64, vec![Value::Int(i)]));
    }
    let blob = snapshot(&idx);
    for cut in 0..blob.len() {
        let mut target = fresh(IndexKind::Hash, PERIOD);
        assert!(
            restore(&mut target, blob.slice(..cut)).is_err(),
            "truncation at {cut}/{} must be rejected",
            blob.len()
        );
    }
}
