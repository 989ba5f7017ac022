//! Attribute values carried by streaming tuples.
//!
//! The model (Definition 1) only requires that attribute values come from
//! typed domains with equality (for equi-joins) and a total order (for band
//! and other theta joins). `Value` provides exactly that, plus a stable
//! wire encoding.

use crate::error::{Error, Result};
use bytes::{Buf, BufMut};
use std::cmp::Ordering;
use std::fmt;

/// A single attribute value.
///
/// `Float` is stored as `f64` but compares with a total order (NaN sorts
/// last, like `f64::total_cmp`), so values are usable as B-tree keys in the
/// ordered sub-index.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float with total ordering.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Absent value; equal only to itself, sorts first.
    Null,
}

/// The type of a [`Value`], used by schemas to declare attribute domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer domain.
    Int,
    /// 64-bit float domain.
    Float,
    /// UTF-8 string domain.
    Str,
    /// Boolean domain.
    Bool,
}

impl Value {
    /// The runtime type of this value, or `None` for `Null`.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Str(_) => Some(ValueType::Str),
            Value::Bool(_) => Some(ValueType::Bool),
            Value::Null => None,
        }
    }

    /// Interpret this value as an integer, if it is one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Interpret this value as a float; integers widen losslessly enough
    /// for band-join arithmetic (the predicate module uses this to compute
    /// `|a - b| <= eps` across numeric types).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Interpret this value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Heap + inline size of this value in bytes, used by the index memory
    /// accounting. Matches what the simulator charges per stored tuple.
    pub fn size_bytes(&self) -> usize {
        let inline = std::mem::size_of::<Value>();
        match self {
            Value::Str(s) => inline + s.capacity(),
            _ => inline,
        }
    }

    /// Encode into a wire buffer (tag byte + payload).
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            Value::Int(i) => {
                buf.put_u8(0);
                buf.put_i64(*i);
            }
            Value::Float(f) => {
                buf.put_u8(1);
                buf.put_f64(*f);
            }
            Value::Str(s) => {
                buf.put_u8(2);
                buf.put_u32(s.len() as u32);
                buf.put_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                buf.put_u8(3);
                buf.put_u8(*b as u8);
            }
            Value::Null => buf.put_u8(4),
        }
    }

    /// Decode a value previously written by [`Value::encode`].
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Value> {
        if buf.remaining() < 1 {
            return Err(Error::Codec("empty buffer decoding Value".into()));
        }
        let tag = buf.get_u8();
        match tag {
            0 => {
                ensure_len(buf, 8)?;
                Ok(Value::Int(buf.get_i64()))
            }
            1 => {
                ensure_len(buf, 8)?;
                Ok(Value::Float(buf.get_f64()))
            }
            2 => {
                ensure_len(buf, 4)?;
                let len = buf.get_u32() as usize;
                ensure_len(buf, len)?;
                let mut bytes = vec![0u8; len];
                buf.copy_to_slice(&mut bytes);
                String::from_utf8(bytes)
                    .map(Value::Str)
                    .map_err(|e| Error::Codec(format!("invalid utf8 in Str value: {e}")))
            }
            3 => {
                ensure_len(buf, 1)?;
                Ok(Value::Bool(buf.get_u8() != 0))
            }
            4 => Ok(Value::Null),
            t => Err(Error::Codec(format!("unknown Value tag {t}"))),
        }
    }

    /// Rank used to order values of different types deterministically:
    /// Null < Bool < numeric < Str.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

fn ensure_len<B: Buf>(buf: &B, n: usize) -> Result<()> {
    if buf.remaining() < n {
        Err(Error::Codec(format!("buffer underrun: need {n} bytes, have {}", buf.remaining())))
    } else {
        Ok(())
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order across all values. Within the numeric rank, `Int` and
    /// `Float` compare by numeric value (so `Int(1) == Float(1.0)`), which
    /// lets mixed-type band joins behave as users expect.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Null, Null) => Ordering::Equal,
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Value {
    /// A `u64` that orders like the value, up to ties: for any two values
    /// `a < b` implies `a.order_key() <= b.order_key()`, hence
    /// `a.order_key() < b.order_key()` implies `a < b`. The sorted runs of
    /// the ordered index search an array of these instead of comparing
    /// enums.
    ///
    /// The map is not strict — `Int`s past 2⁵³ that round to one `f64`,
    /// floats that differ only in the two mantissa bits the rank
    /// displaces, and strings equal in their first eight bytes share a key
    /// — so whoever searches by key settles a tie with [`Ord::cmp`].
    pub fn order_key(&self) -> u64 {
        let within_rank = match self {
            Value::Null => 0,
            Value::Bool(b) => u64::from(*b) << 2,
            // Both numerics go through `f64`, as `cmp` compares them.
            Value::Int(i) => total_order_bits(*i as f64),
            Value::Float(f) => total_order_bits(*f),
            Value::Str(s) => {
                let mut prefix = [0u8; 8];
                let n = s.len().min(8);
                prefix[..n].copy_from_slice(&s.as_bytes()[..n]);
                u64::from_be_bytes(prefix)
            }
        };
        (u64::from(self.type_rank()) << 62) | (within_rank >> 2)
    }
}

/// The bits of `f`, rearranged so that unsigned comparison of the result
/// is `f64::total_cmp`: negatives flip every bit, the rest only the sign.
fn total_order_bits(f: f64) -> u64 {
    let bits = f.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

impl std::hash::Hash for Value {
    /// Hash consistent with `Eq`: numerically equal `Int`/`Float` hash the
    /// same (both hash their `f64` bit pattern after canonicalisation).
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(i) => {
                // An Int hashes like the Float it compares equal to (Ord
                // compares Int vs Float through f64), preserving the
                // hash/eq consistency the hash sub-index relies on.
                state.write_u8(2);
                state.write_u64(canonical_f64_bits(*i as f64));
            }
            Value::Float(f) => {
                state.write_u8(2);
                state.write_u64(canonical_f64_bits(*f));
            }
            Value::Str(s) => {
                state.write_u8(3);
                state.write(s.as_bytes());
            }
            Value::Bool(b) => {
                state.write_u8(1);
                state.write_u8(*b as u8);
            }
            Value::Null => state.write_u8(0),
        }
    }
}

/// Canonical bit pattern: all NaNs collapse to one, -0.0 == 0.0.
fn canonical_f64_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0f64.to_bits()
    } else {
        f.to_bits()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "null"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    fn roundtrip(v: &Value) -> Value {
        let mut buf = BytesMut::new();
        v.encode(&mut buf);
        let mut b = buf.freeze();
        Value::decode(&mut b).expect("decode")
    }

    #[test]
    fn encode_decode_roundtrip_all_variants() {
        for v in [
            Value::Int(-42),
            Value::Float(3.5),
            Value::Str("héllo".into()),
            Value::Bool(true),
            Value::Null,
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn decode_rejects_truncated_buffers() {
        let mut buf = BytesMut::new();
        Value::Str("abcdef".into()).encode(&mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut partial = full.slice(0..cut);
            assert!(Value::decode(&mut partial).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut b = bytes::Bytes::from_static(&[99]);
        assert!(matches!(Value::decode(&mut b), Err(Error::Codec(_))));
    }

    #[test]
    fn int_and_float_compare_numerically() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(0.5) < Value::Int(1));
    }

    #[test]
    fn eq_implies_same_hash_for_mixed_numerics() {
        let a = Value::Int(7);
        let b = Value::Float(7.0);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn nan_is_self_equal_under_total_order() {
        let n = Value::Float(f64::NAN);
        assert_eq!(n.cmp(&n), Ordering::Equal);
        assert_eq!(hash_of(&n), hash_of(&Value::Float(f64::NAN)));
    }

    #[test]
    fn negative_zero_equals_positive_zero() {
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
        // NB: total_cmp orders -0.0 < 0.0; our Ord inherits that. The hash
        // canonicalisation is deliberately coarser than Ord here and that is
        // fine because the hash index only requires eq-consistency for keys
        // produced by the same generator.
    }

    #[test]
    fn cross_type_order_is_total_and_antisymmetric() {
        let vals = [Value::Null, Value::Bool(false), Value::Int(0), Value::Str("a".into())];
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn size_accounts_for_string_heap() {
        let small = Value::Int(1).size_bytes();
        let s = Value::Str("x".repeat(100)).size_bytes();
        assert!(s >= small + 100);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Str("a".into()).to_string(), "\"a\"");
        assert_eq!(Value::Null.to_string(), "null");
    }
}
