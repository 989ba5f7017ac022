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
//!
//! The types here are the in-memory vocabulary of those streams; their
//! byte form is the frame codec of [`crate::batch`].

use crate::tuple::Tuple;
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
    /// Stable wire byte.
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

/// One entry of a router→joiner stream in memory: what a joiner offers its
/// reorder buffer, one call per sequenced copy or punctuation. It has no
/// byte form — on a wire, entries travel inside the frames of
/// [`BatchMessage`](crate::batch::BatchMessage), whose `single` wraps
/// one data entry as a frame of its own.
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
    fn accessors() {
        let m = msg();
        assert_eq!(m.router(), 3);
        assert_eq!(m.seq(), 99);
        let p = StreamMessage::Punct(Punctuation { router: 5, seq: 6 });
        assert_eq!(p.router(), 5);
        assert_eq!(p.seq(), 6);
    }
}
