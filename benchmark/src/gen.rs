//! The benchmark's own input: a seeded tuple generator.
//!
//! Nothing here depends on `crates/workload`, so a refactor there cannot
//! change what the benchmark feeds the engine. The stream is a pure
//! function of `(workload, seed, rate)`: R and S alternate, tuple `i` is
//! due `i * 1000 / rate` ms after the stream's base time, and that due
//! time *is* its timestamp — the feeder never re-stamps with a wall
//! clock.

use crate::workload::KeyDist;
use bistream_types::rel::Rel;
use bistream_types::time::Ts;
use bistream_types::tuple::Tuple;
use bistream_types::value::Value;

/// SplitMix64: the generator's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream that is a pure function of `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at `n ≤ 2^20` is
    /// below 2^-44 and does not matter for a load generator.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// SplitMix64's output function, also used to hash join results.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exact Zipf(θ) sampler over ranks `1..=n`: the cumulative distribution
/// is tabulated once and inverted by binary search, so the rank
/// frequencies are the distribution's own, not an approximation's.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Tabulate Zipf(`theta`) over `n` ranks.
    pub fn new(n: u64, theta: f64) -> ZipfTable {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfTable { cdf }
    }

    /// The rank (1-based) whose cumulative interval contains `u ∈ [0,1)`.
    pub fn rank(&self, u: f64) -> u64 {
        (self.cdf.partition_point(|&c| c <= u) as u64 + 1).min(self.cdf.len() as u64)
    }
}

/// A join key as the generator draws it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Key {
    /// Equi-join key.
    Int(i64),
    /// Band-join key: a multiple of 1/8, so `|r − s| ≤ band` and the
    /// engine's `v ± band` probe bounds are exact in `f64` and the
    /// reference can never disagree with the engine over a rounding.
    Float(f64),
}

/// One generated tuple before it becomes an engine [`Tuple`]: what the
/// reference join consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct Raw {
    /// Relation (alternates R, S, R, …).
    pub rel: Rel,
    /// Due time in ms — the tuple's timestamp.
    pub ts: Ts,
    /// Join key.
    pub key: Key,
    /// 32-byte payload (band workload only).
    pub payload: Option<String>,
}

impl Raw {
    /// The engine tuple: `[key]` or `[key, payload]`.
    pub fn to_tuple(&self) -> Tuple {
        let key = match self.key {
            Key::Int(k) => Value::Int(k),
            Key::Float(k) => Value::Float(k),
        };
        let values = match &self.payload {
            Some(p) => vec![key, Value::Str(p.clone())],
            None => vec![key],
        };
        Tuple::new(self.rel, self.ts, values)
    }

    /// Content hash of `(ts, values)` — one side of
    /// `JoinResult::identity()`.
    pub fn content_hash(&self) -> u64 {
        let key_bits = match self.key {
            Key::Int(k) => k as u64,
            Key::Float(k) => k.to_bits(),
        };
        content_hash(self.ts, key_bits, self.payload.as_deref())
    }
}

/// Hash of one side of a join result's identity.
pub fn content_hash(ts: Ts, key_bits: u64, payload: Option<&str>) -> u64 {
    let mut h = mix64(ts ^ 0x5151_5151_5151_5151).wrapping_add(mix64(key_bits));
    if let Some(p) = payload {
        for chunk in p.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = mix64(h ^ u64::from_le_bytes(word));
        }
    }
    mix64(h)
}

/// Order-independent contribution of one `(r, s)` result to the result
/// checksum; contributions are summed with wrapping addition.
pub fn pair_hash(r: u64, s: u64) -> u64 {
    mix64(r.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ s.rotate_left(32))
}

/// The seeded tuple stream of one workload.
#[derive(Debug, Clone)]
pub struct Generator {
    rng: SplitMix64,
    dist: KeyDist,
    zipf: Option<ZipfTable>,
    payload: bool,
    /// Arrival rate, tuples per second of stream time.
    rate: u64,
    base: Ts,
    next: u64,
}

impl Generator {
    /// The stream of keys drawn from `keys` (with a 32-byte payload if
    /// `payload`) under `seed`, paced at `rate` tuples per second of stream
    /// time, first tuple due at `base` ms.
    pub fn new(keys: KeyDist, payload: bool, seed: u64, rate: u64, base: Ts) -> Generator {
        let zipf = match keys {
            KeyDist::Zipf { keys, theta } => Some(ZipfTable::new(keys, theta)),
            _ => None,
        };
        Generator {
            // Decorrelate the streams of neighbouring seeds.
            rng: SplitMix64::new(mix64(seed ^ 0xB157_0EA4)),
            dist: keys,
            zipf,
            payload,
            rate: rate.max(1),
            base,
            next: 0,
        }
    }

    /// When tuple `i` is due, in ms.
    pub fn due_ms(&self, i: u64) -> Ts {
        self.base + i * 1_000 / self.rate
    }

    /// Generate the next tuple.
    pub fn next_raw(&mut self) -> Raw {
        let i = self.next;
        self.next += 1;
        let key = match self.dist {
            KeyDist::UniformInt { keys } => Key::Int(self.rng.below(keys) as i64),
            KeyDist::UniformEighths { range } => Key::Float(self.rng.below(range * 8) as f64 / 8.0),
            KeyDist::Zipf { .. } => {
                let u = self.rng.unit();
                Key::Int(self.zipf.as_ref().expect("zipf table built in new").rank(u) as i64)
            }
        };
        let payload = self
            .payload
            .then(|| format!("{:016x}{:016x}", self.rng.next_u64(), self.rng.next_u64()));
        Raw {
            rel: if i.is_multiple_of(2) { Rel::R } else { Rel::S },
            ts: self.due_ms(i),
            key,
            payload,
        }
    }
}
