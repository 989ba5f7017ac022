//! Messages of the router→joiner streams: sequenced data tuples and the
//! punctuations of the order-consistent protocol.
//!
//! Every router maintains one monotonically increasing counter. Each
//! *ingested* tuple is assigned the next counter value, and **all copies**
//! of that tuple (the store copy and every join-stream copy) carry the same
//! `(router, seq)` stamp — this is what realises the single global sequence
//! `Z` of Definition 7: each joiner's processing order is a subsequence of
//! the per-router counter order, merged deterministically across routers.
//!
//! Periodically (every `punctuation interval` ms) a router broadcasts a
//! [`Punctuation`] carrying its latest assigned counter; because every
//! router→joiner channel is pairwise FIFO, receipt of `Punctuation{seq}`
//! guarantees all of that router's tuples with `seq' <= seq` destined for
//! this joiner have been received, so the joiner may release its buffer up
//! to that frontier.

use crate::error::{Error, Result};
use crate::tuple::Tuple;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Identifier of a router instance.
pub type RouterId = u32;

/// Per-router tuple sequence number.
pub type SeqNo = u64;

/// Why a tuple copy is being delivered to a joiner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Purpose {
    /// Add the tuple to this unit's stored window state.
    Store,
    /// Probe this unit's stored state of the opposite relation.
    Join,
}

impl Purpose {
    /// Stable wire byte (shared by the single-tuple and batched framings).
    pub fn as_byte(self) -> u8 {
        match self {
            Purpose::Store => 0,
            Purpose::Join => 1,
        }
    }

    /// Inverse of [`Purpose::as_byte`].
    pub fn from_byte(b: u8) -> Option<Purpose> {
        match b {
            0 => Some(Purpose::Store),
            1 => Some(Purpose::Join),
            _ => None,
        }
    }
}

/// A punctuation: "router `router` has assigned all counters up to and
/// including `seq`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Punctuation {
    /// Emitting router.
    pub router: RouterId,
    /// Highest counter assigned by that router so far.
    pub seq: SeqNo,
}

/// One message on a router→joiner stream.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamMessage {
    /// A sequenced tuple copy.
    Data {
        /// Emitting router.
        router: RouterId,
        /// The tuple's position in the router's sequence.
        seq: SeqNo,
        /// Store or join branch.
        purpose: Purpose,
        /// The tuple itself.
        tuple: Tuple,
    },
    /// A punctuation releasing the joiner's reorder buffer.
    Punct(Punctuation),
}

impl StreamMessage {
    /// The emitting router of this message.
    pub fn router(&self) -> RouterId {
        match self {
            StreamMessage::Data { router, .. } => *router,
            StreamMessage::Punct(p) => p.router,
        }
    }

    /// The sequence number this message carries.
    pub fn seq(&self) -> SeqNo {
        match self {
            StreamMessage::Data { seq, .. } => *seq,
            StreamMessage::Punct(p) => p.seq,
        }
    }

    /// Encode to the broker wire format.
    ///
    /// Layout: `kind(1) router(4) seq(8) [purpose(1) tuple…]`.
    pub fn encode(&self) -> Bytes {
        match self {
            StreamMessage::Punct(p) => {
                let mut buf = BytesMut::with_capacity(13);
                buf.put_u8(0);
                buf.put_u32(p.router);
                buf.put_u64(p.seq);
                buf.freeze()
            }
            StreamMessage::Data { router, seq, purpose, tuple } => {
                let body = tuple.encode();
                let mut buf = BytesMut::with_capacity(14 + body.len());
                buf.put_u8(1);
                buf.put_u32(*router);
                buf.put_u64(*seq);
                buf.put_u8(purpose.as_byte());
                buf.put_slice(&body);
                buf.freeze()
            }
        }
    }

    /// Decode a message produced by [`StreamMessage::encode`].
    pub fn decode(buf: &mut impl Buf) -> Result<StreamMessage> {
        if buf.remaining() < 13 {
            return Err(Error::Codec("stream message header truncated".into()));
        }
        let kind = buf.get_u8();
        let router = buf.get_u32();
        let seq = buf.get_u64();
        match kind {
            0 => Ok(StreamMessage::Punct(Punctuation { router, seq })),
            1 => {
                if buf.remaining() < 1 {
                    return Err(Error::Codec("purpose byte missing".into()));
                }
                let purpose = Purpose::from_byte(buf.get_u8())
                    .ok_or_else(|| Error::Codec("bad purpose byte".into()))?;
                let tuple = Tuple::decode(buf)?;
                Ok(StreamMessage::Data { router, seq, purpose, tuple })
            }
            k => Err(Error::Codec(format!("unknown stream message kind {k}"))),
        }
    }
}

impl fmt::Display for StreamMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamMessage::Data { router, seq, purpose, tuple } => {
                write!(f, "data[r{router}#{seq} {purpose:?} {tuple}]")
            }
            StreamMessage::Punct(p) => write!(f, "punct[r{}#{}]", p.router, p.seq),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::Rel;
    use crate::value::Value;

    fn msg() -> StreamMessage {
        StreamMessage::Data {
            router: 3,
            seq: 99,
            purpose: Purpose::Join,
            tuple: Tuple::new(Rel::S, 7, vec![Value::Int(1), Value::Bool(false)]),
        }
    }

    #[test]
    fn data_roundtrip() {
        let m = msg();
        let mut wire = m.encode();
        assert_eq!(StreamMessage::decode(&mut wire).unwrap(), m);
    }

    #[test]
    fn punct_roundtrip() {
        let m = StreamMessage::Punct(Punctuation { router: 1, seq: 42 });
        let mut wire = m.encode();
        assert_eq!(StreamMessage::decode(&mut wire).unwrap(), m);
    }

    #[test]
    fn accessors() {
        let m = msg();
        assert_eq!(m.router(), 3);
        assert_eq!(m.seq(), 99);
        let p = StreamMessage::Punct(Punctuation { router: 5, seq: 6 });
        assert_eq!(p.router(), 5);
        assert_eq!(p.seq(), 6);
    }

    #[test]
    fn truncation_rejected() {
        let full = msg().encode();
        for cut in 0..full.len() {
            let mut partial = full.slice(0..cut);
            assert!(StreamMessage::decode(&mut partial).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u32(0);
        buf.put_u64(0);
        let mut b = buf.freeze();
        assert!(StreamMessage::decode(&mut b).is_err());
    }
}
