//! Deterministic fast hashing for content-sensitive routing and the hash
//! sub-index.
//!
//! Routing decisions must agree across processes and runs — the router that
//! stores a tuple and the router that routes the matching tuple for joining
//! may be different instances — so we cannot use `std`'s randomly seeded
//! SipHash. This module implements the FxHash algorithm (the multiply-xor
//! hash used by rustc; public domain construction) with a fixed seed, plus
//! convenience types for hash maps keyed by tuple attributes.
//!
//! One key has **two** hashes here, read by two consumers at opposite ends
//! of the word:
//!
//! | function | value | read by | bits read |
//! |---|---|---|---|
//! | [`hash_one`] | the raw Fx state | routing, via [`bucket_of`] | the **top** bits |
//! | [`Hasher::finish`] / [`map_hash`] | the state after the finalizer | `std` hash maps ([`FxHashMap`], [`PrehashedMap`]) | the **low** bits pick the bucket, the top 7 tag it |
//!
//! They differ because the raw state's low bits are degenerate for numeric
//! keys (every `Value::Int` below 2²⁰ shares its low 32 bits; see
//! `finalize`), which `bucket_of` never sees but a hash map takes its
//! bucket from. `hash_one` stays the raw state — not the finalized value —
//! so that every routing decision, and every artifact that records one, is
//! bit-identical to what it was before the finalizer existed.

use std::hash::{BuildHasherDefault, Hash, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Odd multiplier of the finalizer (2^64 / golden ratio).
const FINAL: u64 = 0x9e_37_79_b9_7f_4a_7c_15;

/// FxHash: a fast, deterministic, non-cryptographic hasher.
///
/// Quality is sufficient for partitioning keys produced by workload
/// generators; it is NOT HashDoS-resistant, which is acceptable because all
/// inputs are produced by trusted components of the system.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

/// Fold the raw state so that every output bit depends on every state bit.
///
/// The raw state is the product of one multiply, and a product's bit `i`
/// depends only on bits `0..=i` of its operand. `Value::Int(k)` hashes the
/// `f64` pattern of `k`, whose low 32 (or more) bits are zero for any
/// `|k| < 2^20`, so the low 32 bits of the raw state are one constant for
/// all such keys. xor-shift brings the varying high half down, the
/// multiply spreads it back up, and the last xor-shift repairs the
/// product's own weak low bits.
#[inline]
fn finalize(state: u64) -> u64 {
    let x = (state ^ (state >> 32)).wrapping_mul(FINAL);
    x ^ (x >> 32)
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        finalize(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(last));
            self.add_to_hash(rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the deterministic fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the deterministic fast hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// A `HashMap` keyed by values [`map_hash`] already produced, hashed by
/// identity: a caller that looks one key up in many tables hashes it once.
///
/// Two distinct keys can share a `u64`, so an entry must keep its key and
/// the caller must still compare it.
pub type PrehashedMap<V> = std::collections::HashMap<u64, V, BuildHasherDefault<IdentityHasher>>;

/// The hasher of [`PrehashedMap`]: returns the `u64` it was given.
#[derive(Debug, Clone, Default)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a PrehashedMap is keyed by u64 only");
    }

    #[inline]
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Hash any `Hash` value to the **routing** hash: the raw Fx state, whose
/// top bits [`bucket_of`] reads.
///
/// This is THE partitioning function of the whole system: the router, the
/// adaptive router and the join-matrix baseline all call it, so "same key
/// ⇒ same partition" holds across components by construction. Its low bits
/// are weak (module doc); never take a table slot from them — use
/// [`map_hash`].
#[inline]
pub fn hash_one<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.state
}

/// Hash any `Hash` value to the **table** hash: what an [`FxHashMap`]
/// computes for the key (`finish()`), uniform in the low bits a hash map
/// reads. The key of a [`PrehashedMap`].
#[inline]
pub fn map_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    finalize(hash_one(value))
}

/// Map a hash to one of `n` buckets by its **top** bits (multiply-shift;
/// avoids the modulo bias of `h % n` and never reads the low bits, which is
/// why the raw [`hash_one`] state is good enough for it).
#[inline]
pub fn bucket_of(hash: u64, n: usize) -> usize {
    debug_assert!(n > 0);
    // 128-bit multiply-shift maps uniformly into [0, n).
    (((hash as u128) * (n as u128)) >> 64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_one(&42i64), hash_one(&42i64));
        assert_eq!(hash_one("key"), hash_one("key"));
        assert_ne!(hash_one(&1i64), hash_one(&2i64));
    }

    #[test]
    fn bucket_of_stays_in_range_and_uses_all_buckets() {
        let n = 7;
        let mut seen = vec![false; n];
        for k in 0..10_000i64 {
            let b = bucket_of(hash_one(&k), n);
            assert!(b < n);
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn bucket_distribution_is_roughly_uniform() {
        let n = 16;
        let total = 160_000i64;
        let mut counts = vec![0usize; n];
        for k in 0..total {
            counts[bucket_of(hash_one(&k), n)] += 1;
        }
        let expect = (total as usize) / n;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > expect * 8 / 10 && c < expect * 12 / 10,
                "bucket {i} has {c}, expected ~{expect}"
            );
        }
    }

    /// 4 096 keys of one class must look uniform both to a hash map (low
    /// bits pick the bucket: 4 096 balls in 4 096 bins leave ≈ 2 589
    /// occupied) and to `bucket_of` (top bits, 16 buckets of ≈ 256).
    fn assert_uniform<T: Hash>(class: &str, keys: impl Iterator<Item = T>) {
        let hashes: Vec<u64> = keys.map(|k| map_hash(&k)).collect();
        assert_eq!(hashes.len(), 4096, "{class}");
        let low: FxHashSet<u64> = hashes.iter().map(|h| h & 0xFFF).collect();
        assert!(low.len() >= 2300, "{class}: {} distinct low-12-bit values", low.len());
        let mut counts = [0usize; 16];
        for &h in &hashes {
            counts[bucket_of(h, 16)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((205..=307).contains(&c), "{class}: bucket {i} has {c}, expected 256 ± 20 %");
        }
    }

    #[test]
    fn finish_is_uniform_in_low_and_top_bits_for_every_key_class() {
        use crate::value::Value;
        // Strided so the sample spans the whole 0..100 000 key domain.
        let ints = || (0..4096i64).map(|i| i * 24 + (i % 7));
        assert_uniform("Int dense", (0..4096).map(Value::Int));
        assert_uniform("Int strided", ints().map(Value::Int));
        assert_uniform("Float k/8", ints().map(|k| Value::Float(k as f64 / 8.0)));
        assert_uniform(
            "Str 1-12 bytes",
            (0..4096usize).map(|i| Value::Str(format!("{i}{}", "x".repeat(i % 9)))),
        );
        // Keys that are themselves routing hashes (`adaptive::SpaceSaving`
        // indexes its entries by `hash_one(key)`).
        assert_uniform("u64 hash_one outputs", ints().map(|k| hash_one(&Value::Int(k))));
        assert_uniform("u64 sequential", 0..4096u64);
    }

    #[test]
    fn int_and_equal_float_still_hash_equal() {
        use crate::value::Value;
        for k in [0i64, 1, 7, -3, 99_999, 1 << 40] {
            assert_eq!(hash_one(&Value::Int(k)), hash_one(&Value::Float(k as f64)));
            assert_eq!(map_hash(&Value::Int(k)), map_hash(&Value::Float(k as f64)));
        }
    }

    #[test]
    fn hash_one_is_pinned_so_routing_does_not_move() {
        use crate::value::Value;
        // Computed on the commit before `finish` gained its finalizer.
        let pinned: [(u64, u64); 10] = [
            (hash_one(&Value::Int(0)), 0x1a8a_d3dc_8fa7_81e4),
            (hash_one(&Value::Int(7)), 0xb036_d3dc_8fa7_81e4),
            (hash_one(&Value::Int(99_999)), 0x2985_c30c_8fa7_81e4),
            (hash_one(&Value::Int(-1)), 0x235a_d3dc_8fa7_81e4),
            (hash_one(&Value::Float(2.5)), 0x04de_d3dc_8fa7_81e4),
            (hash_one(&Value::Str("key".into())), 0x7b3f_8c4b_acd8_d3d9),
            (hash_one(&Value::Str("a-longer-key".into())), 0x53e9_1883_f08c_109e),
            (hash_one(&Value::Bool(true)), 0x5ec2_2ba5_6ef5_cb87),
            (hash_one(&42i64), 0x5e77_c80c_6b95_bc72),
            (hash_one(&0xdead_beef_u64), 0x67f3_c037_2953_771b),
        ];
        for (i, (got, want)) in pinned.iter().enumerate() {
            assert_eq!(got, want, "pinned value {i}");
        }
    }

    #[test]
    fn byte_writes_match_wordwise_content() {
        // write() must incorporate trailing bytes: "aaaaaaaab" differs from
        // "aaaaaaaa" (8-byte aligned prefix).
        assert_ne!(hash_one("aaaaaaaab"), hash_one("aaaaaaaa"));
        // and length is mixed in so "a\0" != "a"
        let mut h1 = FxHasher::default();
        h1.write(b"a\0");
        let mut h2 = FxHasher::default();
        h2.write(b"a");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn fx_map_works() {
        let mut m: FxHashMap<i64, i64> = FxHashMap::default();
        m.insert(1, 10);
        assert_eq!(m.get(&1), Some(&10));
    }
}
