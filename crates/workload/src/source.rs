//! Tuple sources: turn an arrival process plus a key distribution into a
//! deterministic stream of tuples for one relation, and interleave the two
//! relations into the single timestamp-ordered feed the drivers consume.
//!
//! Generated tuples follow one convention used across the whole workspace:
//! attribute 0 is the join key (`Int`), attribute 1 a per-source sequence
//! id (`Int`), attribute 2 an optional payload string used to inflate the
//! per-tuple footprint for memory experiments.

use crate::arrival::{ArrivalClock, ArrivalProcess};
use crate::keys::{KeyDist, KeySampler};
use bistream_types::rel::Rel;
use bistream_types::time::Ts;
use bistream_types::tuple::Tuple;
use bistream_types::value::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic generator of one relation's stream.
#[derive(Debug)]
pub struct StreamSource {
    rel: Rel,
    clock: ArrivalClock,
    keys: KeySampler,
    rng: StdRng,
    seq: i64,
    payload_bytes: usize,
}

impl StreamSource {
    /// Create a source for `rel` with the given arrival process, key
    /// distribution and seed. `payload_bytes` pads each tuple with a
    /// string attribute of that many bytes (0 omits the attribute).
    pub fn new(
        rel: Rel,
        arrivals: ArrivalProcess,
        keys: KeyDist,
        payload_bytes: usize,
        seed: u64,
    ) -> StreamSource {
        StreamSource {
            rel,
            clock: arrivals.clock(0),
            keys: keys.sampler(),
            // Derive a distinct stream per (seed, rel) so R and S are
            // independent even when built from one experiment seed.
            rng: StdRng::seed_from_u64(
                seed ^ (rel.as_byte() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            seq: 0,
            payload_bytes,
        }
    }

    /// The relation this source feeds.
    pub fn rel(&self) -> Rel {
        self.rel
    }

    /// Timestamp of the next tuple, without consuming it.
    pub fn peek_ts(&self) -> Ts {
        self.clock.peek()
    }

    /// Produce the next tuple. The key draw is time-aware so that
    /// shifting distributions rotate their hot set with the stream clock;
    /// stationary distributions are unaffected.
    pub fn next_tuple(&mut self) -> Tuple {
        let ts = self.clock.next_arrival(&mut self.rng);
        let key = self.keys.sample_at(&mut self.rng, ts) as i64;
        let seq = self.seq;
        self.seq += 1;
        let mut values = vec![Value::Int(key), Value::Int(seq)];
        if self.payload_bytes > 0 {
            values.push(Value::Str("x".repeat(self.payload_bytes)));
        }
        Tuple::new(self.rel, ts, values)
    }

    /// Tuples produced so far.
    pub fn produced(&self) -> i64 {
        self.seq
    }
}

/// Merge the two relation sources into one stream ordered by timestamp
/// (ties broken R-first, deterministically), producing up to `limit`
/// tuples. This is the "tuples enter the system through one entry
/// exchange" feed of the architecture.
pub fn interleave(r: &mut StreamSource, s: &mut StreamSource, limit: usize) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(limit);
    while out.len() < limit {
        if r.peek_ts() <= s.peek_ts() {
            out.push(r.next_tuple());
        } else {
            out.push(s.next_tuple());
        }
    }
    out
}

/// An endless interleaved feed over the two sources, for drivers that pull
/// one tuple at a time against a virtual clock.
#[derive(Debug)]
pub struct Interleaver {
    /// R-side source.
    pub r: StreamSource,
    /// S-side source.
    pub s: StreamSource,
}

impl Interleaver {
    /// Combine two sources (one per relation).
    ///
    /// # Panics
    /// If the sources are not one R and one S.
    pub fn new(r: StreamSource, s: StreamSource) -> Interleaver {
        assert_eq!(r.rel(), Rel::R);
        assert_eq!(s.rel(), Rel::S);
        Interleaver { r, s }
    }

    /// Timestamp of the next tuple overall.
    pub fn peek_ts(&self) -> Ts {
        self.r.peek_ts().min(self.s.peek_ts())
    }

    /// Next tuple in global timestamp order (ties R-first).
    pub fn next_tuple(&mut self) -> Tuple {
        if self.r.peek_ts() <= self.s.peek_ts() {
            self.r.next_tuple()
        } else {
            self.s.next_tuple()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(rel: Rel, rate: f64, seed: u64) -> StreamSource {
        StreamSource::new(
            rel,
            ArrivalProcess::Constant { rate },
            KeyDist::Uniform { n: 100 },
            0,
            seed,
        )
    }

    #[test]
    fn tuples_follow_convention() {
        let mut s = StreamSource::new(
            Rel::S,
            ArrivalProcess::Constant { rate: 10.0 },
            KeyDist::Uniform { n: 5 },
            16,
            1,
        );
        let t = s.next_tuple();
        assert_eq!(t.rel(), Rel::S);
        assert!(t.get(0).unwrap().as_int().unwrap() < 5);
        assert_eq!(t.get(1), Some(&Value::Int(0)));
        assert_eq!(t.get(2).unwrap().as_str().unwrap().len(), 16);
        let t2 = s.next_tuple();
        assert_eq!(t2.get(1), Some(&Value::Int(1)), "seq increments");
        assert_eq!(t2.ts() - t.ts(), 100, "10/s spacing");
    }

    #[test]
    fn same_seed_reproduces_stream() {
        let a: Vec<Tuple> = {
            let mut s = source(Rel::R, 100.0, 42);
            (0..50).map(|_| s.next_tuple()).collect()
        };
        let b: Vec<Tuple> = {
            let mut s = source(Rel::R, 100.0, 42);
            (0..50).map(|_| s.next_tuple()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_relations_differ_under_one_seed() {
        let mut r = source(Rel::R, 100.0, 42);
        let mut s = source(Rel::S, 100.0, 42);
        let rk: Vec<i64> =
            (0..20).map(|_| r.next_tuple().get(0).unwrap().as_int().unwrap()).collect();
        let sk: Vec<i64> =
            (0..20).map(|_| s.next_tuple().get(0).unwrap().as_int().unwrap()).collect();
        assert_ne!(rk, sk);
    }

    #[test]
    fn interleave_is_timestamp_ordered_with_both_sides() {
        let mut r = source(Rel::R, 100.0, 1);
        let mut s = source(Rel::S, 70.0, 2);
        let feed = interleave(&mut r, &mut s, 200);
        assert_eq!(feed.len(), 200);
        for w in feed.windows(2) {
            assert!(w[0].ts() <= w[1].ts());
        }
        assert!(feed.iter().any(|t| t.rel() == Rel::R));
        assert!(feed.iter().any(|t| t.rel() == Rel::S));
    }

    #[test]
    fn shifting_zipf_source_rotates_hot_keys_over_stream_time() {
        // 1000 t/s, hot set rotating every 500 ms: collect the modal key
        // of each 500-tuple chunk and require it to change across chunks.
        let mut s = StreamSource::new(
            Rel::R,
            ArrivalProcess::Constant { rate: 1_000.0 },
            KeyDist::ShiftingZipf { n: 1_000, theta: 1.2, period_ms: 500 },
            0,
            9,
        );
        let modal = |tuples: &[Tuple]| {
            let mut counts = std::collections::HashMap::new();
            for t in tuples {
                *counts.entry(t.get(0).unwrap().as_int().unwrap()).or_insert(0usize) += 1;
            }
            let (key, n) = counts.into_iter().max_by_key(|&(_, n)| n).unwrap();
            assert!(n > 100, "modal key should dominate its period: {n}/500");
            key
        };
        let chunks: Vec<i64> =
            (0..4).map(|_| modal(&(0..500).map(|_| s.next_tuple()).collect::<Vec<_>>())).collect();
        assert!(chunks.windows(2).any(|w| w[0] != w[1]), "hot key never rotated: {chunks:?}");
    }

    #[test]
    fn interleaver_struct_matches_function() {
        let feed_fn = {
            let mut r = source(Rel::R, 90.0, 3);
            let mut s = source(Rel::S, 110.0, 4);
            interleave(&mut r, &mut s, 100)
        };
        let feed_struct = {
            let mut i = Interleaver::new(source(Rel::R, 90.0, 3), source(Rel::S, 110.0, 4));
            (0..100).map(|_| i.next_tuple()).collect::<Vec<_>>()
        };
        assert_eq!(feed_fn, feed_struct);
    }
}
