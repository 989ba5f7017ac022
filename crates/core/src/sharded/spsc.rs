//! Hand-rolled bounded lock-free rings for the sharded runtime.
//!
//! Two shapes, both std-only (no `crossbeam`, no locks — this file is
//! tagged as a sharded-runtime hot path in `xtask.allow`, so `cargo
//! xtask lint` rule 7 rejects any `Mutex`/`RwLock` here, and `cargo
//! xtask analyze` enforces the per-field ordering protocols declared
//! next to each atomic below):
//!
//! - [`spsc`]: a single-producer single-consumer ring with plain
//!   acquire/release head/tail counters. One of these backs every
//!   `(router worker → joiner worker)` channel, which is exactly how the
//!   runtime preserves the pairwise-FIFO contract (Definition 8): a
//!   channel *is* a ring, and a ring cannot reorder.
//! - [`mpmc`]: a Vyukov-style slot-sequence ring for the competing
//!   consumer ingest edge (one pipeline feeder, N router workers).
//!
//! Both rings round capacity up to a power of two and index with a mask
//! over monotonically wrapping `usize` counters, so position arithmetic
//! stays consistent even across the `usize` wraparound boundary (the
//! mask divides `usize::MAX + 1`); sequence comparisons in the Vyukov
//! ring use signed differences for the same reason.
//!
//! Blocking is adaptive and lock-free: spin a few dozen iterations, then
//! yield, then `park_timeout` in short slices. No waker handshake is
//! needed — the timeout bounds wakeup latency to ~100µs, and under load
//! the rings are never empty long enough to park at all.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Pad to a cache line so the producer and consumer counters never
/// false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

/// Spins before yielding in a blocking wait.
const SPIN_LIMIT: u32 = 64;
/// Yields before parking in a blocking wait.
const YIELD_LIMIT: u32 = 16;
/// Park slice once spinning and yielding have not produced progress.
const PARK_SLICE: Duration = Duration::from_micros(100);

/// One step of the adaptive wait: spin, then yield, then park briefly.
/// The bounded park slice is what makes waiting here sound without a
/// waker handshake; this is a `parkok`-audited backoff helper.
fn backoff(attempt: &mut u32) {
    *attempt = attempt.saturating_add(1);
    if *attempt <= SPIN_LIMIT {
        std::hint::spin_loop();
    } else if *attempt <= SPIN_LIMIT + YIELD_LIMIT {
        std::thread::yield_now();
    } else {
        std::thread::park_timeout(PARK_SLICE);
    }
}

// ---------------------------------------------------------------------
// SPSC
// ---------------------------------------------------------------------

struct SpscShared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Capacity minus one; capacity is a power of two, so `pos & mask`
    /// indexes consistently even when the counters wrap `usize`.
    mask: usize,
    /// Consumer position (next slot to read).
    // protocol: field head relaxed-load / acquire-load / release-store
    head: CachePadded<AtomicUsize>,
    /// Producer position (next slot to write).
    // protocol: field tail relaxed-load / acquire-load / release-store
    tail: CachePadded<AtomicUsize>,
    // protocol: field closed acquire-load / release-store
    closed: AtomicBool,
}

// SAFETY: the ring hands out exactly one Producer and one Consumer; all
// slot access is fenced by the acquire/release head/tail protocol above,
// so a `T: Send` value only ever moves between threads, never aliases.
unsafe impl<T: Send> Send for SpscShared<T> {}
// SAFETY: shared access is limited to the atomic counters plus slots the
// head/tail protocol proves exclusive, so `&SpscShared` is safe to share
// between the one producer and one consumer thread.
unsafe impl<T: Send> Sync for SpscShared<T> {}

impl<T> Drop for SpscShared<T> {
    fn drop(&mut self) {
        // Sole owner at this point; drop whatever is still queued. The
        // walk uses wrapping increments so a window that straddles the
        // `usize` boundary (head > tail numerically) still terminates.
        let mut head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        while head != tail {
            let slot = &self.buf[head & self.mask];
            // SAFETY: slots in [head, tail) were written and never read,
            // and `&mut self` proves no other thread can touch them.
            unsafe { (*slot.get()).assume_init_drop() };
            head = head.wrapping_add(1);
        }
    }
}

/// Producer half of an [`spsc`] ring.
pub struct SpscProducer<T> {
    shared: Arc<SpscShared<T>>,
}

/// Consumer half of an [`spsc`] ring.
pub struct SpscConsumer<T> {
    shared: Arc<SpscShared<T>>,
}

/// A bounded single-producer single-consumer ring. Capacity is rounded
/// up to a power of two (minimum 1). FIFO per construction; no
/// allocation after creation.
pub fn spsc<T>(capacity: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
    spsc_with_origin(capacity, 0)
}

/// [`spsc`] with both counters starting at `origin` — lets tests place
/// the ring right below the `usize` wraparound boundary.
fn spsc_with_origin<T>(capacity: usize, origin: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
    let cap = capacity.max(1).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> =
        (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let shared = Arc::new(SpscShared {
        buf,
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(origin)),
        tail: CachePadded(AtomicUsize::new(origin)),
        closed: AtomicBool::new(false),
    });
    (SpscProducer { shared: Arc::clone(&shared) }, SpscConsumer { shared })
}

impl<T> SpscProducer<T> {
    /// Try to enqueue; gives the value back when the ring is full or the
    /// consumer side is gone.
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        let s = &*self.shared;
        if Arc::strong_count(&self.shared) == 1 {
            // Consumer dropped; nothing will ever drain the ring.
            return Err(value);
        }
        let tail = s.tail.0.load(Ordering::Relaxed);
        let head = s.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > s.mask {
            return Err(value); // full: the window already spans capacity
        }
        let slot = &s.buf[tail & s.mask];
        // SAFETY: slot at `tail` is outside [head, tail), i.e. empty, and
        // only this (single) producer writes slots.
        unsafe { (*slot.get()).write(value) };
        s.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Enqueue, waiting for space (spin → yield → park slices). Gives the
    /// value back only if the consumer side disappeared.
    pub fn push_blocking(&mut self, mut value: T) -> Result<(), T> {
        let mut attempt = 0;
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(v) if Arc::strong_count(&self.shared) == 1 => return Err(v),
                Err(v) => value = v,
            }
            backoff(&mut attempt);
        }
    }

    /// Close the ring: the consumer drains what is queued, then sees
    /// end-of-stream. Idempotent.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::Release);
    }

    /// Frames currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.tail.0.load(Ordering::Relaxed).wrapping_sub(s.head.0.load(Ordering::Relaxed))
    }

    /// Whether the ring is empty (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for SpscProducer<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T> SpscConsumer<T> {
    /// Dequeue the next value, if any.
    pub fn try_pop(&mut self) -> Option<T> {
        let s = &*self.shared;
        let head = s.head.0.load(Ordering::Relaxed);
        let tail = s.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &s.buf[head & s.mask];
        // SAFETY: slot at `head` is inside [head, tail), i.e. written and
        // unread, and only this (single) consumer reads slots.
        let value = unsafe { (*slot.get()).assume_init_read() };
        s.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Dequeue, waiting for a value. `None` means the producer closed the
    /// ring (or dropped) *and* everything queued has been drained — the
    /// two-phase-shutdown end-of-stream signal.
    pub fn pop_blocking(&mut self) -> Option<T> {
        let mut attempt = 0;
        loop {
            if let Some(v) = self.try_pop() {
                return Some(v);
            }
            if self.is_closed() || Arc::strong_count(&self.shared) == 1 {
                // Re-check after observing closed: a final frame may have
                // been pushed just before the close flag.
                return self.try_pop();
            }
            backoff(&mut attempt);
        }
    }

    /// Whether the producer has closed the ring. Queued frames may still
    /// be pending; end-of-stream is closed *and* empty.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Frames currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.tail.0.load(Ordering::Relaxed).wrapping_sub(s.head.0.load(Ordering::Relaxed))
    }

    /// Whether the ring is empty (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// MPMC (Vyukov slot-sequence ring)
// ---------------------------------------------------------------------

struct McSlot<T> {
    /// Slot state: `pos` ⇒ empty and claimable by the enqueuer at `pos`;
    /// `pos + 1` ⇒ written, claimable by the dequeuer at `pos`;
    /// `pos + cap` ⇒ read, claimable by the enqueuer at `pos + cap`.
    // protocol: field seq relaxed-load / acquire-load / release-store
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

struct MpmcShared<T> {
    buf: Box<[McSlot<T>]>,
    mask: usize,
    // protocol: field enqueue_pos relaxed-load / relaxed-rmw
    enqueue_pos: CachePadded<AtomicUsize>,
    // protocol: field dequeue_pos relaxed-load / relaxed-rmw
    dequeue_pos: CachePadded<AtomicUsize>,
    // Covered by the `closed` protocol header on `SpscShared` (headers
    // bind per file by field name): acquire-load / release-store.
    closed: AtomicBool,
}

// SAFETY: slot hand-off is fenced by the per-slot sequence protocol, so a
// `T: Send` value moves between threads with exclusive access at every
// step; the handle types only expose that protocol.
unsafe impl<T: Send> Send for MpmcShared<T> {}
// SAFETY: shared access goes through the atomic positions and per-slot
// sequences; a slot's value is only touched by the thread whose CAS won
// that position, so sharing `&MpmcShared` across threads is sound.
unsafe impl<T: Send> Sync for MpmcShared<T> {}

impl<T> Drop for MpmcShared<T> {
    fn drop(&mut self) {
        // Sole owner: the occupied slots are exactly the positions in
        // [dequeue_pos, enqueue_pos) whose sequence reads `pos + 1`
        // (written, not yet read — a skipped sequence means a producer
        // claimed the position but never completed the write).
        let mut pos = self.dequeue_pos.0.load(Ordering::Relaxed);
        let end = self.enqueue_pos.0.load(Ordering::Relaxed);
        while pos != end {
            let slot = &self.buf[pos & self.mask];
            if slot.seq.load(Ordering::Relaxed) == pos.wrapping_add(1) {
                // SAFETY: `&mut self` proves exclusive access, and the
                // sequence says the slot holds a written, unread value.
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
            pos = pos.wrapping_add(1);
        }
    }
}

/// Producer handle for an [`mpmc`] ring (cloneable).
pub struct MpmcProducer<T> {
    shared: Arc<MpmcShared<T>>,
}

impl<T> Clone for MpmcProducer<T> {
    fn clone(&self) -> Self {
        MpmcProducer { shared: Arc::clone(&self.shared) }
    }
}

/// Consumer handle for an [`mpmc`] ring (cloneable — consumers compete).
pub struct MpmcConsumer<T> {
    shared: Arc<MpmcShared<T>>,
}

impl<T> Clone for MpmcConsumer<T> {
    fn clone(&self) -> Self {
        MpmcConsumer { shared: Arc::clone(&self.shared) }
    }
}

/// A bounded multi-producer multi-consumer ring. Capacity is rounded up
/// to a power of two (minimum 2 — with a single slot the sequence values
/// for "full at `pos`" and "empty at `pos + 1`" coincide, so the Vyukov
/// scheme cannot disambiguate them). Per-producer FIFO holds; competing
/// consumers interleave.
pub fn mpmc<T>(capacity: usize) -> (MpmcProducer<T>, MpmcConsumer<T>) {
    mpmc_with_origin(capacity, 0)
}

/// [`mpmc`] with both positions starting at `origin` — lets tests place
/// the ring right below the `usize` wraparound boundary.
fn mpmc_with_origin<T>(capacity: usize, origin: usize) -> (MpmcProducer<T>, MpmcConsumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let mask = cap - 1;
    // Slot j expects the first enqueue position p ≥ origin with
    // p & mask == j, i.e. origin plus j's offset within the first lap.
    let buf: Box<[McSlot<T>]> = (0..cap)
        .map(|j| McSlot {
            seq: AtomicUsize::new(origin.wrapping_add(j.wrapping_sub(origin) & mask)),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        })
        .collect();
    let shared = Arc::new(MpmcShared {
        buf,
        mask,
        enqueue_pos: CachePadded(AtomicUsize::new(origin)),
        dequeue_pos: CachePadded(AtomicUsize::new(origin)),
        closed: AtomicBool::new(false),
    });
    (MpmcProducer { shared: Arc::clone(&shared) }, MpmcConsumer { shared })
}

impl<T> MpmcProducer<T> {
    /// Try to enqueue; gives the value back when the ring is full or
    /// closed.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let s = &*self.shared;
        if s.closed.load(Ordering::Acquire) {
            return Err(value);
        }
        let mut pos = s.enqueue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &s.buf[pos & s.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            // Signed distance keeps the comparison meaningful when the
            // positions wrap the usize range.
            let dist = seq.wrapping_sub(pos) as isize;
            if dist == 0 {
                match s.enqueue_pos.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS gives this producer
                        // exclusive write access to the slot.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if dist < 0 {
                return Err(value); // full
            } else {
                pos = s.enqueue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Enqueue, waiting for space. Gives the value back only when the
    /// ring has been closed.
    pub fn push_blocking(&self, mut value: T) -> Result<(), T> {
        let mut attempt = 0;
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(v) if self.shared.closed.load(Ordering::Acquire) => return Err(v),
                Err(v) => value = v,
            }
            backoff(&mut attempt);
        }
    }

    /// Close the ring: consumers drain what is queued, then see
    /// end-of-stream; further pushes are refused. Idempotent.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::Release);
    }

    /// Frames currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.enqueue_pos
            .0
            .load(Ordering::Relaxed)
            .wrapping_sub(s.dequeue_pos.0.load(Ordering::Relaxed))
    }

    /// Whether the ring is empty (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> MpmcConsumer<T> {
    /// Dequeue the next value, if any.
    pub fn try_pop(&self) -> Option<T> {
        let s = &*self.shared;
        let mut pos = s.dequeue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &s.buf[pos & s.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            // Signed distance from the "written" state; see `try_push`.
            let dist = seq.wrapping_sub(pos.wrapping_add(1)) as isize;
            if dist == 0 {
                match s.dequeue_pos.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS gives this consumer
                        // exclusive read access to the slot.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq.store(pos.wrapping_add(s.mask).wrapping_add(1), Ordering::Release);
                        return Some(value);
                    }
                    Err(actual) => pos = actual,
                }
            } else if dist < 0 {
                return None; // empty
            } else {
                pos = s.dequeue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeue, waiting for a value. `None` means the ring was closed and
    /// fully drained.
    pub fn pop_blocking(&self) -> Option<T> {
        let mut attempt = 0;
        loop {
            if let Some(v) = self.try_pop() {
                return Some(v);
            }
            if self.shared.closed.load(Ordering::Acquire) {
                return self.try_pop();
            }
            backoff(&mut attempt);
        }
    }

    /// Whether the ring has been closed. Queued frames may still be
    /// pending; end-of-stream is closed *and* empty.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Frames currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.enqueue_pos
            .0
            .load(Ordering::Relaxed)
            .wrapping_sub(s.dequeue_pos.0.load(Ordering::Relaxed))
    }

    /// Whether the ring is empty (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cross-thread volumes shrink under Miri, which interprets every
    /// memory access; the interleavings it explores don't need bulk.
    fn volume(n: u64) -> u64 {
        if cfg!(miri) {
            n.min(300)
        } else {
            n
        }
    }

    #[test]
    fn spsc_is_fifo_single_threaded() {
        let (mut tx, mut rx) = spsc::<u64>(4);
        assert!(tx.try_push(1).is_ok());
        assert!(tx.try_push(2).is_ok());
        assert_eq!(rx.try_pop(), Some(1));
        assert!(tx.try_push(3).is_ok());
        assert_eq!(rx.try_pop(), Some(2));
        assert_eq!(rx.try_pop(), Some(3));
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn spsc_refuses_when_full_and_recovers() {
        let (mut tx, mut rx) = spsc::<u64>(2);
        assert!(tx.try_push(1).is_ok());
        assert!(tx.try_push(2).is_ok());
        assert_eq!(tx.try_push(3), Err(3));
        assert_eq!(rx.try_pop(), Some(1));
        assert!(tx.try_push(3).is_ok());
        assert_eq!(tx.len(), 2);
    }

    #[test]
    fn spsc_close_signals_end_of_stream_after_drain() {
        let (mut tx, mut rx) = spsc::<u64>(4);
        assert!(tx.try_push(7).is_ok());
        tx.close();
        assert!(rx.is_closed());
        assert_eq!(rx.pop_blocking(), Some(7));
        assert_eq!(rx.pop_blocking(), None);
    }

    #[test]
    fn capacity_one_rings_disambiguate_full_from_empty() {
        // With one slot, "full" and "empty" meet: both mean head and tail
        // point at the same slot. The absolute counters (spsc) and the
        // slot sequence (mpmc) must still tell them apart.
        let (mut tx, mut rx) = spsc::<u64>(1);
        assert_eq!(rx.try_pop(), None, "empty at start");
        assert!(tx.try_push(1).is_ok());
        assert_eq!(tx.try_push(2), Err(2), "full at one element");
        assert_eq!(rx.try_pop(), Some(1));
        assert_eq!(rx.try_pop(), None, "empty again after drain");

        // The Vyukov ring rounds a capacity-1 request up to 2: one slot
        // cannot disambiguate "full at pos" from "empty at pos + 1" (the
        // sequence values coincide). Full/empty must still be exact at
        // the rounded capacity.
        let (tx, rx) = mpmc::<u64>(1);
        assert_eq!(rx.try_pop(), None, "empty at start");
        assert!(tx.try_push(1).is_ok());
        assert!(tx.try_push(2).is_ok(), "rounded up to two slots");
        assert_eq!(tx.try_push(3), Err(3), "full at rounded capacity");
        assert_eq!(rx.try_pop(), Some(1));
        assert_eq!(rx.try_pop(), Some(2));
        assert_eq!(rx.try_pop(), None, "empty again after drain");
    }

    #[test]
    fn spsc_survives_index_wraparound_past_the_usize_window() {
        // Counters start five positions below usize::MAX and run well
        // past it; masked indexing must stay continuous across the wrap.
        let (mut tx, mut rx) = spsc_with_origin::<u64>(4, usize::MAX - 5);
        for lap in 0..16u64 {
            assert!(tx.try_push(lap).is_ok());
            assert!(tx.try_push(lap + 100).is_ok());
            assert_eq!(rx.try_pop(), Some(lap));
            assert_eq!(rx.try_pop(), Some(lap + 100));
        }
        assert_eq!(rx.try_pop(), None);
        // A full window straddling the boundary still refuses pushes.
        let (mut tx, mut rx) = spsc_with_origin::<u64>(4, usize::MAX - 1);
        for i in 0..4 {
            assert!(tx.try_push(i).is_ok());
        }
        assert_eq!(tx.try_push(9), Err(9), "full across the boundary");
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn mpmc_survives_index_wraparound_past_the_usize_window() {
        let (tx, rx) = mpmc_with_origin::<u64>(4, usize::MAX - 5);
        for lap in 0..16u64 {
            assert!(tx.try_push(lap).is_ok());
            assert_eq!(rx.try_pop(), Some(lap));
        }
        assert_eq!(rx.try_pop(), None);
        let (tx, rx) = mpmc_with_origin::<u64>(4, usize::MAX - 1);
        for i in 0..4 {
            assert!(tx.try_push(i).is_ok());
        }
        assert_eq!(tx.try_push(9), Err(9), "full across the boundary");
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn producer_drop_wakes_a_parked_consumer() {
        let (tx, mut rx) = spsc::<u64>(2);
        let consumer = std::thread::spawn(move || rx.pop_blocking());
        // Give the consumer time to exhaust its spin/yield phases and
        // reach the parked slice of the backoff. Dropping the producer
        // then closes the ring, and the bounded park timeout guarantees
        // the consumer re-checks and sees end-of-stream.
        std::thread::sleep(Duration::from_millis(2));
        drop(tx);
        assert_eq!(consumer.join().expect("consumer thread"), None);
    }

    #[test]
    fn spsc_cross_thread_preserves_order_under_backpressure() {
        let (mut tx, mut rx) = spsc::<u64>(8);
        let n = volume(10_000);
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                tx.push_blocking(i).expect("consumer alive");
            }
            // tx drops here, closing the ring.
        });
        let mut expect = 0u64;
        while let Some(v) = rx.pop_blocking() {
            assert_eq!(v, expect);
            expect += 1;
        }
        assert_eq!(expect, n);
        producer.join().expect("producer");
    }

    #[test]
    fn spsc_drops_queued_values_on_ring_drop() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let (mut tx, rx) = spsc::<Counted>(4);
            tx.try_push(Counted).ok();
            tx.try_push(Counted).ok();
            drop(tx);
            drop(rx);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn mpmc_drops_queued_values_on_ring_drop_even_when_wrapped() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            // Advance a lap so the queued window sits on reused slots,
            // then leave two values in flight when the ring drops.
            let (tx, rx) = mpmc::<Counted>(4);
            for _ in 0..4 {
                tx.try_push(Counted).ok();
                drop(rx.try_pop());
            }
            tx.try_push(Counted).ok();
            tx.try_push(Counted).ok();
            drop(tx);
            drop(rx);
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn mpmc_is_fifo_single_threaded() {
        let (tx, rx) = mpmc::<u64>(4);
        for i in 0..4 {
            assert!(tx.try_push(i).is_ok());
        }
        assert!(tx.try_push(9).is_err(), "full ring refuses");
        for i in 0..4 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn mpmc_competing_consumers_partition_the_stream() {
        let (tx, rx) = mpmc::<u64>(16);
        let n = volume(20_000);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = rx.pop_blocking() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for i in 0..n {
            tx.push_blocking(i).expect("open ring accepts");
        }
        tx.close();
        let mut all: Vec<u64> = Vec::new();
        for c in consumers {
            let got = c.join().expect("consumer");
            // Each consumer's view is in stream order (per-producer FIFO).
            assert!(got.windows(2).all(|w| w[0] < w[1]));
            all.extend(got);
        }
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<u64>>());
    }

    #[test]
    fn mpmc_close_refuses_new_pushes() {
        let (tx, rx) = mpmc::<u64>(4);
        assert!(tx.try_push(1).is_ok());
        tx.close();
        assert_eq!(tx.try_push(2), Err(2));
        assert_eq!(rx.pop_blocking(), Some(1));
        assert_eq!(rx.pop_blocking(), None);
    }
}
