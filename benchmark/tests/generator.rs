//! The generator is a pure function of (workload, seed, rate).

use bistream_benchmark::gen::{mix64, Generator, ZipfTable};
use bistream_benchmark::workload::{self, KeyDist, STREAM_RATE};
use bistream_types::rel::Rel;

fn stream_checksum(w: &workload::Workload, seed: u64, n: u64) -> u64 {
    let mut gen = w.generator(seed, STREAM_RATE, 0);
    (0..n).fold(0u64, |acc, _| mix64(acc ^ gen.next_raw().content_hash()))
}

#[test]
fn same_seed_same_stream_different_seed_different_stream() {
    for w in workload::all() {
        let a = stream_checksum(&w, 11, 5_000);
        assert_eq!(a, stream_checksum(&w, 11, 5_000), "{}: same seed", w.name);
        assert_ne!(a, stream_checksum(&w, 12, 5_000), "{}: neighbouring seed", w.name);
    }
}

#[test]
fn relations_alternate_and_timestamps_follow_the_arrival_schedule() {
    let w = workload::by_name("equi_uniform").unwrap();
    let mut gen = w.generator(5, 2_000, 40);
    let mut last = 0;
    for i in 0..1_000u64 {
        let t = gen.next_raw();
        assert_eq!(t.rel, if i % 2 == 0 { Rel::R } else { Rel::S });
        assert_eq!(t.ts, 40 + i / 2, "2 000 tuples/s is two per ms");
        assert!(t.ts >= last);
        last = t.ts;
    }
}

#[test]
fn the_engine_tuple_carries_what_the_reference_hashes() {
    let w = workload::by_name("band_broadcast").unwrap();
    let raw = w.generator(9, STREAM_RATE, 0).next_raw();
    let t = raw.to_tuple();
    assert_eq!((t.rel(), t.ts(), t.values().len()), (raw.rel, raw.ts, 2));
    assert_eq!(t.values()[1].as_str().map(str::len), Some(32), "32-byte payload");
    let key = t.values()[0].as_f64().unwrap();
    assert_eq!((key * 8.0).fract(), 0.0, "band keys are multiples of 1/8");
}

#[test]
fn zipf_ranks_follow_the_exact_distribution() {
    let table = ZipfTable::new(1_000, 1.0);
    assert_eq!(table.rank(0.0), 1);
    assert_eq!(table.rank(0.999_999_999), 1_000);
    // P(rank 1) = 1 / H_1000.
    let h: f64 = (1..=1_000).map(|k| 1.0 / k as f64).sum();
    let mut gen =
        Generator::new(KeyDist::Zipf { keys: 1_000, theta: 1.0 }, false, 3, STREAM_RATE, 0);
    let n = 200_000;
    let ones = (0..n)
        .filter(|_| matches!(gen.next_raw().key, bistream_benchmark::gen::Key::Int(1)))
        .count();
    let expected = n as f64 / h;
    assert!(
        (ones as f64 - expected).abs() < 5.0 * expected.sqrt(),
        "rank 1 drawn {ones} times, expected about {expected:.0}"
    );
}
