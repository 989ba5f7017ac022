//! Concurrency tests for the observability primitives: writers bumping
//! registered handles (and racing get-or-create registrations) while a
//! scraper reads, plus journal record/drain accounting under contention.
//! These pin down the claims the registry makes — hot-path bumps never
//! block on the registry lock, scrapes are consistent point-in-time reads,
//! and every journal event is either drained or counted as dropped.

use bistream_types::journal::{EventJournal, EventKind};
use bistream_types::registry::{MetricValue, MetricsRegistry};
use bistream_types::rel::Rel;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const WRITERS: usize = 4;
const BUMPS: u64 = 50_000;

#[test]
fn scrapes_see_monotone_counters_while_writers_bump() {
    let reg = MetricsRegistry::new();
    let stop = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let unit = format!("R{w}");
        let counter = reg.counter("bistream_test_bumps_total", &[("joiner", &unit)]);
        let hist = reg.histogram("bistream_test_latency_ms", &[("joiner", &unit)]);
        handles.push(thread::spawn(move || {
            for i in 0..BUMPS {
                counter.inc();
                hist.record(i % 1024);
            }
        }));
    }

    // Scrape continuously while the writers run — and at least once, even
    // if the scraper is first scheduled after they finish; every per-key
    // counter reading must be monotone non-decreasing across scrapes.
    let scraper = {
        let reg = reg.clone();
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut floor = [0u64; WRITERS];
            let mut scrapes = 0u64;
            loop {
                let last = stop.load(Ordering::Relaxed);
                let snap = reg.scrape(scrapes);
                for (w, lo) in floor.iter_mut().enumerate() {
                    let unit = format!("R{w}");
                    let v = snap
                        .counter("bistream_test_bumps_total", &[("joiner", &unit)])
                        .expect("registered series never vanishes mid-run");
                    assert!(v >= *lo, "counter went backwards: {v} < {lo}");
                    *lo = v;
                }
                scrapes += 1;
                if last {
                    break;
                }
            }
            scrapes
        })
    };

    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().unwrap();
    assert!(scrapes > 0);

    let terminal = reg.scrape(0);
    for w in 0..WRITERS {
        let unit = format!("R{w}");
        assert_eq!(
            terminal.counter("bistream_test_bumps_total", &[("joiner", &unit)]),
            Some(BUMPS)
        );
        match terminal.get("bistream_test_latency_ms", &[("joiner", &unit)]) {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, BUMPS),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}

#[test]
fn racing_registrations_converge_on_one_shared_handle() {
    let reg = MetricsRegistry::new();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let reg = reg.clone();
            thread::spawn(move || {
                // Every thread get-or-creates the same key and bumps it;
                // all of them must land on the same underlying counter.
                let c = reg.counter("bistream_test_shared_total", &[("queue", "ingest")]);
                for _ in 0..10_000 {
                    c.inc();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(reg.len(), 1, "races must not mint duplicate series");
    assert_eq!(
        reg.scrape(0).counter("bistream_test_shared_total", &[("queue", "ingest")]),
        Some(80_000)
    );
}

#[test]
fn journal_accounts_for_every_event_under_concurrent_drain() {
    // A small ring forces evictions while a drainer races the writers:
    // at the end, drained + dropped must equal exactly what was recorded.
    let journal = EventJournal::with_capacity(64);
    let stop = Arc::new(AtomicBool::new(false));

    let recorded: u64 = (WRITERS as u64) * 20_000;
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let journal = journal.clone();
            thread::spawn(move || {
                for i in 0..20_000u64 {
                    journal
                        .record(i, EventKind::TupleStored { side: Rel::R, unit: w as u32, seq: i });
                }
            })
        })
        .collect();

    let drainer = {
        let journal = journal.clone();
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut drained = 0u64;
            while !stop.load(Ordering::Relaxed) {
                drained += journal.drain().len() as u64;
            }
            drained
        })
    };

    for t in writers {
        t.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let drained = drainer.join().unwrap() + journal.drain().len() as u64;
    assert!(journal.is_empty());
    assert_eq!(drained + journal.dropped(), recorded, "no event lost or duplicated");
}
