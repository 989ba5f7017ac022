//! Streaming tuples: an instance of a schema plus the event timestamp that
//! drives window semantics.
//!
//! Tuples are broadcast (the join stream sends one tuple to many units), so
//! `Tuple` is an `Arc` handle — cloning is a reference-count bump and the
//! attribute payload is shared.

use crate::error::{Error, Result};
use crate::rel::Rel;
use crate::time::Ts;
use crate::value::Value;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::sync::Arc;

#[derive(Debug, PartialEq)]
struct TupleData {
    rel: Rel,
    ts: Ts,
    values: Box<[Value]>,
}

/// A streaming tuple: relation tag, event timestamp, attribute values.
///
/// Equality compares contents (not identity), which the tests rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    data: Arc<TupleData>,
}

impl Tuple {
    /// Create a tuple of relation `rel` with event time `ts`.
    pub fn new(rel: Rel, ts: Ts, values: Vec<Value>) -> Tuple {
        Tuple { data: Arc::new(TupleData { rel, ts, values: values.into_boxed_slice() }) }
    }

    /// Which streaming relation this tuple belongs to.
    #[inline]
    pub fn rel(&self) -> Rel {
        self.data.rel
    }

    /// Event timestamp (window semantics are defined on this, not on
    /// arrival time).
    #[inline]
    pub fn ts(&self) -> Ts {
        self.data.ts
    }

    /// All attribute values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.data.values
    }

    /// Attribute at `idx`, if in range.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.data.values.get(idx)
    }

    /// Attribute at `idx` or a schema error naming the index.
    pub fn require(&self, idx: usize) -> Result<&Value> {
        self.get(idx).ok_or_else(|| {
            Error::Schema(format!(
                "tuple of {} has arity {}, attribute {idx} requested",
                self.rel(),
                self.data.values.len()
            ))
        })
    }

    /// Approximate resident size in bytes, charged by the index memory
    /// accounting (header + per-value sizes).
    pub fn size_bytes(&self) -> usize {
        let header = std::mem::size_of::<TupleData>() + std::mem::size_of::<Tuple>();
        header + self.values().iter().map(Value::size_bytes).sum::<usize>()
    }

    /// Encode to the wire format used by the broker transport.
    ///
    /// Layout: `rel(1) ts(8) arity(2) values…`.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16 + self.values().len() * 12);
        buf.put_u8(self.rel().as_byte());
        buf.put_u64(self.ts());
        buf.put_u16(self.values().len() as u16);
        for v in self.values() {
            v.encode(&mut buf);
        }
        buf.freeze()
    }

    /// Decode a tuple previously produced by [`Tuple::encode`].
    pub fn decode(buf: &mut impl Buf) -> Result<Tuple> {
        if buf.remaining() < 11 {
            return Err(Error::Codec("tuple header truncated".into()));
        }
        let rel =
            Rel::from_byte(buf.get_u8()).ok_or_else(|| Error::Codec("bad relation byte".into()))?;
        let ts = buf.get_u64();
        let arity = buf.get_u16() as usize;
        // Every value takes at least its tag byte.
        let mut values = Vec::with_capacity(arity.min(buf.remaining()));
        for _ in 0..arity {
            values.push(Value::decode(buf)?);
        }
        Ok(Tuple::new(rel, ts, values))
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}(", self.rel(), self.ts())?;
        for (i, v) in self.values().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A join result: the concatenation of a matched `(r, s)` pair.
///
/// Following the model's output-timestamp policy discussion, the output
/// carries the *maximum* of the two input timestamps (ordering-preserving
/// choice) — callers needing the min-expiry policy can recompute it from
/// the kept originals.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinResult {
    /// The R-side input.
    pub r: Tuple,
    /// The S-side input.
    pub s: Tuple,
    /// Result timestamp: `max(r.ts, s.ts)`.
    pub ts: Ts,
}

impl JoinResult {
    /// Combine a matched pair into a result. `a` and `b` may arrive in
    /// either order; they are normalised so `r` is always the R-side tuple.
    ///
    /// # Panics
    /// Debug-asserts that the two tuples come from opposite relations.
    pub fn of(a: Tuple, b: Tuple) -> JoinResult {
        debug_assert_ne!(a.rel(), b.rel(), "join result needs one tuple per side");
        let ts = a.ts().max(b.ts());
        let (r, s) = if a.rel() == Rel::R { (a, b) } else { (b, a) };
        JoinResult { r, s, ts }
    }

    /// A stable identity for de-duplication checks in tests: the pair of
    /// (timestamp, values) on each side.
    pub fn identity(&self) -> (Ts, Vec<Value>, Ts, Vec<Value>) {
        (self.r.ts(), self.r.values().to_vec(), self.s.ts(), self.s.values().to_vec())
    }
}

impl fmt::Display for JoinResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} ⋈ {}]@{}", self.r, self.s, self.ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rel: Rel, ts: Ts, k: i64) -> Tuple {
        Tuple::new(rel, ts, vec![Value::Int(k), Value::Str(format!("p{k}"))])
    }

    #[test]
    fn accessors() {
        let x = t(Rel::R, 5, 9);
        assert_eq!(x.rel(), Rel::R);
        assert_eq!(x.ts(), 5);
        assert_eq!(x.get(0), Some(&Value::Int(9)));
        assert_eq!(x.get(2), None);
        assert!(x.require(2).is_err());
    }

    #[test]
    fn clone_shares_payload() {
        let a = t(Rel::S, 1, 2);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.data, &b.data));
        assert_eq!(a, b);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let a = t(Rel::S, 123_456, -7);
        let mut wire = a.encode();
        let b = Tuple::decode(&mut wire).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn decode_rejects_truncation_at_every_cut() {
        let full = t(Rel::R, 42, 1).encode();
        for cut in 0..full.len() {
            let mut partial = full.slice(0..cut);
            assert!(Tuple::decode(&mut partial).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn join_result_normalises_sides_and_takes_max_ts() {
        let r = t(Rel::R, 10, 1);
        let s = t(Rel::S, 20, 1);
        let j1 = JoinResult::of(r.clone(), s.clone());
        let j2 = JoinResult::of(s, r);
        assert_eq!(j1, j2);
        assert_eq!(j1.r.rel(), Rel::R);
        assert_eq!(j1.ts, 20);
    }

    #[test]
    #[should_panic(expected = "one tuple per side")]
    fn join_result_rejects_same_side_in_debug() {
        let _ = JoinResult::of(t(Rel::R, 1, 1), t(Rel::R, 2, 2));
    }

    #[test]
    fn display_is_readable() {
        let x = t(Rel::R, 3, 4);
        assert_eq!(x.to_string(), "R@3(4, \"p4\")");
    }

    #[test]
    fn size_grows_with_payload() {
        let small = Tuple::new(Rel::R, 0, vec![Value::Int(1)]);
        let big = Tuple::new(Rel::R, 0, vec![Value::Str("y".repeat(1000))]);
        assert!(big.size_bytes() > small.size_bytes() + 900);
    }
}
