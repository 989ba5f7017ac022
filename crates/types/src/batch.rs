//! The frames of the router→joiner streams, and their only byte codec.
//!
//! The paper's model routes every tuple as its own store/join message; the
//! per-tuple framing, queue hand-off and index probe dominate mechanical
//! cost long before the join itself does. A [`TupleBatch`] amortises that
//! overhead: it groups tuple copies that share an emitting router, a
//! delivery purpose and a side into **one** reference-counted [`Bytes`]
//! frame, so a batch of `k` tuples costs one enqueue, one dequeue and one
//! decode pass instead of `k`. Every transport moves [`BatchMessage`]
//! frames; the paper's per-tuple messages are the `batch_size = 1` case, a
//! frame of one entry ([`BatchMessage::single`]).
//!
//! Batching is purely mechanical: every entry keeps its own `(router, seq)`
//! stamp, so the ordering protocol's global sequence `Z` (Definition 7) is
//! untouched — a run with `batch_size = 1` and a run with `batch_size = 64`
//! assign identical sequence numbers and produce identical output. Routers
//! accumulate per-destination batches and flush on a size boundary, when
//! their ingest edge runs dry, or on a punctuation boundary (a punctuation
//! may not overtake the data it covers), which is why sequence numbers
//! inside a batch form runs of contiguous values per router.
//!
//! A batch also carries its channel's **FIFO proof**, [`TupleBatch::covers`]:
//! the emitting router promises that nothing with a sequence number at or
//! below it will follow on this `(router, unit)` channel — the same promise
//! a punctuation makes, riding on the data. `0` makes no claim.
//!
//! ## Wire format
//!
//! A batch frame is length-prefixed per entry so transports can account
//! for tuples without decoding attribute values:
//!
//! ```text
//! router(4) purpose(1) count(2) first_seq(8) covers(8)
//!   then per entry: seq_delta(4) tuple_len(4) tuple_bytes…
//! ```
//!
//! `seq_delta` is the entry's offset from `first_seq` (entries are
//! seq-ascending; deltas are non-decreasing). [`BatchMessage`] puts a kind
//! byte in front: `0` is a punctuation (`router(4) seq(8)` follow), `2` is
//! a batch frame.

use crate::error::{Error, Result};
use crate::punct::{Punctuation, Purpose, RouterId, SeqNo};
use crate::rel::Rel;
use crate::tuple::Tuple;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Wire kind byte of a punctuation frame.
const KIND_PUNCT: u8 = 0;
/// Wire kind byte of a batch frame.
const KIND_BATCH: u8 = 2;

/// Most entries one batch frame can carry (the count field is a `u16`).
pub const MAX_BATCH_LEN: usize = u16::MAX as usize;

/// Bytes of a batch frame's header, before its first entry.
const BATCH_HEADER: usize = 23;

/// One sequenced tuple copy inside a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEntry {
    /// The tuple's position in the emitting router's sequence.
    pub seq: SeqNo,
    /// The tuple itself.
    pub tuple: Tuple,
}

/// A run of tuple copies sharing an emitting router, a purpose and a side,
/// moved through the dataflow as one unit of work.
///
/// Entries are kept in ascending sequence order (the router appends in
/// assignment order), and all tuples belong to the same relation — both
/// invariants are debug-asserted on [`TupleBatch::push`].
#[derive(Debug, Clone, PartialEq)]
pub struct TupleBatch {
    router: RouterId,
    purpose: Purpose,
    covers: SeqNo,
    entries: Vec<BatchEntry>,
}

impl TupleBatch {
    /// An empty batch for `router`'s `purpose` stream, claiming no cover.
    pub fn new(router: RouterId, purpose: Purpose) -> TupleBatch {
        TupleBatch { router, purpose, covers: 0, entries: Vec::new() }
    }

    /// An empty batch with room for `cap` entries.
    pub fn with_capacity(router: RouterId, purpose: Purpose, cap: usize) -> TupleBatch {
        TupleBatch { router, purpose, covers: 0, entries: Vec::with_capacity(cap) }
    }

    /// Append one sequenced tuple.
    ///
    /// # Panics
    /// Debug-asserts that `seq` is strictly greater than the last entry's
    /// and that the tuple's relation matches the batch's side.
    pub fn push(&mut self, seq: SeqNo, tuple: Tuple) {
        debug_assert!(
            self.entries.last().map(|e| e.seq < seq).unwrap_or(true),
            "batch seqs must ascend"
        );
        debug_assert!(
            self.entries.first().map(|e| e.tuple.rel() == tuple.rel()).unwrap_or(true),
            "batch tuples must share a side"
        );
        debug_assert!(self.entries.len() < MAX_BATCH_LEN, "batch overflows the count field");
        self.entries.push(BatchEntry { seq, tuple });
    }

    /// The emitting router.
    pub fn router(&self) -> RouterId {
        self.router
    }

    /// Store or join stream.
    pub fn purpose(&self) -> Purpose {
        self.purpose
    }

    /// The channel's FIFO proof: the emitting router sends nothing with a
    /// sequence number ≤ this on this frame's `(router, unit)` channel after
    /// the frame. `0` claims nothing (a frame built by hand, or one whose
    /// router proves nothing yet).
    pub fn covers(&self) -> SeqNo {
        self.covers
    }

    /// Stamp the frame's FIFO proof (see [`TupleBatch::covers`]). Only the
    /// emitting router can know a sound value.
    pub fn set_covers(&mut self, seq: SeqNo) {
        self.covers = seq;
    }

    /// Number of tuples in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the batch holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The side all tuples share, if any tuple is present.
    pub fn side(&self) -> Option<Rel> {
        self.entries.first().map(|e| e.tuple.rel())
    }

    /// Lowest sequence number in the batch.
    pub fn first_seq(&self) -> Option<SeqNo> {
        self.entries.first().map(|e| e.seq)
    }

    /// Highest sequence number in the batch.
    pub fn last_seq(&self) -> Option<SeqNo> {
        self.entries.last().map(|e| e.seq)
    }

    /// True when the sequence numbers form one dense run
    /// (`first_seq..=last_seq` with no gaps) — the common case for a
    /// single-router flush.
    pub fn is_contiguous(&self) -> bool {
        match (self.first_seq(), self.last_seq()) {
            (Some(first), Some(last)) => last - first + 1 == self.entries.len() as u64,
            _ => true,
        }
    }

    /// The entries, seq-ascending.
    pub fn entries(&self) -> &[BatchEntry] {
        &self.entries
    }

    /// Consume the batch, yielding its entries.
    pub fn into_entries(self) -> Vec<BatchEntry> {
        self.entries
    }

    /// Encode to one wire frame (see the module docs for the layout).
    ///
    /// # Errors
    /// An empty batch or a sequence span exceeding the `u32` delta field
    /// is a codec error — routers flush well before either bound.
    pub fn encode(&self) -> Result<Bytes> {
        let first = self
            .first_seq()
            .ok_or_else(|| Error::Codec("refusing to encode an empty batch".into()))?;
        let mut buf = BytesMut::with_capacity(BATCH_HEADER + self.entries.len() * 32);
        buf.put_u32(self.router);
        buf.put_u8(self.purpose.as_byte());
        buf.put_u16(self.entries.len() as u16);
        buf.put_u64(first);
        buf.put_u64(self.covers);
        for e in &self.entries {
            let delta = e.seq - first;
            if delta > u32::MAX as u64 {
                return Err(Error::Codec(format!(
                    "batch seq span {delta} overflows the delta field"
                )));
            }
            let body = e.tuple.encode();
            buf.put_u32(delta as u32);
            buf.put_u32(body.len() as u32);
            buf.put_slice(&body);
        }
        Ok(buf.freeze())
    }

    /// Decode a frame produced by [`TupleBatch::encode`].
    pub fn decode(buf: &mut impl Buf) -> Result<TupleBatch> {
        if buf.remaining() < BATCH_HEADER {
            return Err(Error::Codec("batch header truncated".into()));
        }
        let router = buf.get_u32();
        let purpose = Purpose::from_byte(buf.get_u8())
            .ok_or_else(|| Error::Codec("bad purpose byte in batch header".into()))?;
        let count = buf.get_u16() as usize;
        let first = buf.get_u64();
        let covers = buf.get_u64();
        if count == 0 {
            return Err(Error::Codec("batch frame with zero entries".into()));
        }
        // Every entry takes at least its 8-byte header: a frame cannot
        // make the decoder reserve more than its own length pays for.
        let mut entries = Vec::with_capacity(count.min(buf.remaining() / 8));
        for _ in 0..count {
            if buf.remaining() < 8 {
                return Err(Error::Codec("batch entry header truncated".into()));
            }
            let delta = buf.get_u32() as u64;
            let len = buf.get_u32() as usize;
            if buf.remaining() < len {
                return Err(Error::Codec("batch entry body truncated".into()));
            }
            let mut body = buf.copy_to_bytes(len);
            let tuple = Tuple::decode(&mut body)?;
            if body.has_remaining() {
                return Err(Error::Codec("trailing bytes after batch tuple".into()));
            }
            entries.push(BatchEntry { seq: first + delta, tuple });
        }
        Ok(TupleBatch { router, purpose, covers, entries })
    }
}

impl fmt::Display for TupleBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch[r{} {:?} x{} #{}..#{}]",
            self.router,
            self.purpose,
            self.len(),
            self.first_seq().unwrap_or(0),
            self.last_seq().unwrap_or(0),
        )
    }
}

/// One frame on a router→joiner channel: a tuple batch or a punctuation
/// of the ordering protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchMessage {
    /// A run of sequenced tuple copies.
    Batch(TupleBatch),
    /// A punctuation releasing the joiner's reorder buffer.
    Punct(Punctuation),
}

impl BatchMessage {
    /// The emitting router of this frame.
    pub fn router(&self) -> RouterId {
        match self {
            BatchMessage::Batch(b) => b.router(),
            BatchMessage::Punct(p) => p.router,
        }
    }

    /// Number of tuples the frame carries (0 for punctuations).
    pub fn tuple_count(&self) -> usize {
        match self {
            BatchMessage::Batch(b) => b.len(),
            BatchMessage::Punct(_) => 0,
        }
    }

    /// Wrap a single sequenced copy in a one-entry batch — the
    /// `batch_size = 1` framing every transport degenerates to.
    pub fn single(router: RouterId, seq: SeqNo, purpose: Purpose, tuple: Tuple) -> BatchMessage {
        let mut b = TupleBatch::with_capacity(router, purpose, 1);
        b.push(seq, tuple);
        BatchMessage::Batch(b)
    }

    /// Encode to the broker wire format: `kind(1)` then the punctuation or
    /// batch body.
    ///
    /// # Errors
    /// Propagates [`TupleBatch::encode`] errors (empty batch).
    pub fn encode(&self) -> Result<Bytes> {
        match self {
            BatchMessage::Punct(p) => {
                let mut buf = BytesMut::with_capacity(13);
                buf.put_u8(KIND_PUNCT);
                buf.put_u32(p.router);
                buf.put_u64(p.seq);
                Ok(buf.freeze())
            }
            BatchMessage::Batch(b) => {
                let body = b.encode()?;
                let mut buf = BytesMut::with_capacity(1 + body.len());
                buf.put_u8(KIND_BATCH);
                buf.put_slice(&body);
                Ok(buf.freeze())
            }
        }
    }

    /// Decode a frame produced by [`BatchMessage::encode`].
    pub fn decode(buf: &mut impl Buf) -> Result<BatchMessage> {
        if buf.remaining() < 1 {
            return Err(Error::Codec("batch message kind byte missing".into()));
        }
        match buf.get_u8() {
            KIND_PUNCT => {
                if buf.remaining() < 12 {
                    return Err(Error::Codec("punctuation frame truncated".into()));
                }
                let router = buf.get_u32();
                let seq = buf.get_u64();
                Ok(BatchMessage::Punct(Punctuation { router, seq }))
            }
            KIND_BATCH => Ok(BatchMessage::Batch(TupleBatch::decode(buf)?)),
            k => Err(Error::Codec(format!("unknown batch message kind {k}"))),
        }
    }
}

impl fmt::Display for BatchMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchMessage::Batch(b) => write!(f, "{b}"),
            BatchMessage::Punct(p) => write!(f, "punct[r{}#{}]", p.router, p.seq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn t(rel: Rel, ts: u64, k: i64) -> Tuple {
        Tuple::new(rel, ts, vec![Value::Int(k)])
    }

    fn batch3() -> TupleBatch {
        let mut b = TupleBatch::new(7, Purpose::Store);
        b.push(10, t(Rel::R, 1, 1));
        b.push(11, t(Rel::R, 2, 2));
        b.push(12, t(Rel::R, 3, 3));
        b
    }

    #[test]
    fn accessors_and_contiguity() {
        let b = batch3();
        assert_eq!(b.router(), 7);
        assert_eq!(b.purpose(), Purpose::Store);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.side(), Some(Rel::R));
        assert_eq!((b.first_seq(), b.last_seq()), (Some(10), Some(12)));
        assert!(b.is_contiguous());
        assert_eq!(b.covers(), 0, "a frame built by hand claims no cover");
        let mut gappy = TupleBatch::new(0, Purpose::Join);
        gappy.push(1, t(Rel::S, 1, 1));
        gappy.push(5, t(Rel::S, 2, 2));
        assert!(!gappy.is_contiguous(), "hash routing leaves gaps");
        assert!(TupleBatch::new(0, Purpose::Join).is_contiguous(), "empty is trivially dense");
    }

    #[test]
    fn encode_decode_roundtrip() {
        for covers in [0, 12] {
            let mut b = batch3();
            b.set_covers(covers);
            let mut wire = b.encode().unwrap();
            let back = TupleBatch::decode(&mut wire).unwrap();
            assert_eq!((back.covers(), &back), (covers, &b));
            assert!(!wire.has_remaining(), "frame fully consumed");
        }
    }

    #[test]
    fn roundtrip_preserves_seq_gaps() {
        let mut b = TupleBatch::new(3, Purpose::Join);
        b.push(100, t(Rel::S, 5, 1));
        b.push(104, t(Rel::S, 6, 2));
        b.push(109, t(Rel::S, 7, 3));
        let mut wire = b.encode().unwrap();
        let back = TupleBatch::decode(&mut wire).unwrap();
        let seqs: Vec<SeqNo> = back.entries().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![100, 104, 109]);
    }

    #[test]
    fn empty_batch_refuses_to_encode() {
        assert!(TupleBatch::new(0, Purpose::Store).encode().is_err());
    }

    #[test]
    fn decode_rejects_truncation_at_every_cut() {
        let mut covered = batch3();
        covered.set_covers(12);
        let full = covered.encode().unwrap();
        for cut in 0..full.len() {
            let mut partial = full.slice(0..cut);
            assert!(TupleBatch::decode(&mut partial).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn decode_rejects_zero_count_and_bad_purpose() {
        let mut buf = BytesMut::new();
        buf.put_u32(0);
        buf.put_u8(0);
        buf.put_u16(0); // zero entries
        buf.put_u64(0);
        buf.put_u64(0);
        assert!(TupleBatch::decode(&mut buf.freeze()).is_err());
        let mut buf = BytesMut::new();
        buf.put_u32(0);
        buf.put_u8(9); // bad purpose
        buf.put_u16(1);
        buf.put_u64(0);
        buf.put_u64(0);
        assert!(TupleBatch::decode(&mut buf.freeze()).is_err());
    }

    #[test]
    fn hostile_frames_are_an_error_never_a_panic() {
        use crate::cases::for_cases;

        let mut covered = batch3();
        covered.set_covers(12);
        let valid = BatchMessage::Batch(covered).encode().unwrap().to_vec();
        for_cases("hostile_frames_are_an_error_never_a_panic", 512, |g| {
            // Arbitrary bytes behind each kind byte.
            let mut noise = g.bytes(0..64);
            if let Some(kind) = noise.first_mut() {
                *kind = *g.pick(&[KIND_PUNCT, KIND_BATCH, *kind]);
            }
            let _ = BatchMessage::decode(&mut Bytes::from(noise));
            // A valid frame with one byte changed: an error, or a frame
            // that still holds what its count field says.
            let mut flipped = valid.clone();
            let i = g.index(0..flipped.len());
            flipped[i] ^= g.uint(1..256) as u8;
            if let Ok(BatchMessage::Batch(b)) = BatchMessage::decode(&mut Bytes::from(flipped)) {
                assert!(!b.is_empty() && b.len() <= MAX_BATCH_LEN);
            }
        });
        // A header that promises 65 535 entries and carries none: the kind
        // byte and the whole batch header, count at bytes 6..8.
        let mut liar = valid[..1 + BATCH_HEADER].to_vec();
        liar[6..8].copy_from_slice(&u16::MAX.to_be_bytes());
        assert!(BatchMessage::decode(&mut Bytes::from(liar)).is_err());
    }

    #[test]
    fn message_roundtrips_both_kinds() {
        let b = BatchMessage::Batch(batch3());
        let mut wire = b.encode().unwrap();
        assert_eq!(BatchMessage::decode(&mut wire).unwrap(), b);
        let p = BatchMessage::Punct(Punctuation { router: 2, seq: 77 });
        let mut wire = p.encode().unwrap();
        assert_eq!(BatchMessage::decode(&mut wire).unwrap(), p);
    }

    #[test]
    fn single_wraps_one_stream_data_message() {
        let BatchMessage::Batch(b) = BatchMessage::single(4, 42, Purpose::Join, t(Rel::S, 9, 5))
        else {
            panic!("data wraps into a batch");
        };
        assert_eq!(b.len(), 1);
        assert_eq!(b.first_seq(), Some(42));
        assert_eq!(b.purpose(), Purpose::Join);
        assert_eq!(BatchMessage::Batch(b.clone()).tuple_count(), 1);
        assert_eq!(BatchMessage::Punct(Punctuation { router: 0, seq: 0 }).tuple_count(), 0);
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u32(0);
        buf.put_u64(0);
        assert!(BatchMessage::decode(&mut buf.freeze()).is_err());
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(batch3().to_string(), "batch[r7 Store x3 #10..#12]");
    }
}
