//! Bounded message queues and consumer handles.
//!
//! A queue is a bounded MPMC channel: multiple bindings/publishers feed it
//! and multiple consumers of one group compete for its messages. Per-sender
//! FIFO is inherited from crossbeam channels, giving the pairwise-FIFO
//! property the ordering protocol requires.

use crate::message::Message;
use bistream_types::journal::{EventJournal, EventKind};
use bistream_types::registry::QueueSeries;
use bistream_types::time::Clock;
use bistream_types::trace::{HopKind, Tracer};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TrySendError};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often a publisher parked on an injected stall wakes to re-check the
/// flag and charge its park time so far.
const STALL_TICK: Duration = Duration::from_millis(10);

/// Why a receive returned without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the timeout; the queue is still open.
    Timeout,
    /// The queue was deleted (or the broker dropped) and is fully drained.
    Disconnected,
}

/// What a queue declared on a broker with an
/// [`bistream_types::registry::Observability`] attached reports to, beyond
/// its [`QueueSeries`].
#[derive(Debug)]
pub(crate) struct QueueObs {
    /// Journal receiving [`EventKind::BackpressureStall`] events.
    pub(crate) journal: EventJournal,
    /// Timebase for stall events and spans (the pipeline's wall clock).
    pub(crate) clock: Arc<dyn Clock>,
    /// Per-tuple tracer recording enqueue/dequeue spans for messages that
    /// carry [`Message::trace_seqs`] headers (disabled tracers are inert).
    pub(crate) tracer: Tracer,
}

/// Name, bound and accounting shared by the queue and all its consumers.
#[derive(Debug)]
struct QueueMeta {
    /// The queue's name, `bistream_queue_*` series and conservation
    /// events (private counters when the broker is unobserved).
    series: QueueSeries,
    capacity: usize,
    obs: Option<QueueObs>,
    /// Fault-injection stall: while set, publishes behave as if the queue
    /// were at capacity (they park) without touching buffered messages.
    /// Flipped by [`crate::Broker::set_queue_stalled`]; chaos drills use it
    /// to model a wedged broker queue as backpressure, never as loss.
    stalled: AtomicBool,
    /// Parking spot for publishers blocked on an injected stall: they
    /// wait on this condvar instead of sleep-spinning, and
    /// [`QueueCore::set_stalled`] notifies when the fault window closes.
    /// The mutex guards the `stalled` transition so a publisher cannot
    /// check the flag, lose the race with the heal, and park forever.
    stall_wait: (Mutex<()>, Condvar),
}

impl QueueMeta {
    /// Record one queue-hop span per sampled tuple in the frame. The
    /// headers travel out-of-band on the message, so a batched payload
    /// never needs decoding here; one clock read covers the whole frame.
    fn note_hop(&self, trace_seqs: &[u64], kind: HopKind) {
        let Some(obs) = &self.obs else { return };
        if trace_seqs.is_empty() {
            return;
        }
        let now = obs.clock.now();
        for &seq in trace_seqs {
            if obs.tracer.sampled(seq) {
                obs.tracer.span(seq, kind, self.series.name(), now, now);
            }
        }
    }

    fn note_dequeued(&self, msg: &Message) {
        self.series.dequeued();
        self.note_hop(msg.trace_seqs(), HopKind::Dequeue);
    }

    /// A publisher is about to park: count it, journal it, and start the
    /// stall clock (`None` when unobserved).
    fn note_stall(&self) -> Option<u64> {
        self.series.blocks.inc();
        let obs = self.obs.as_ref()?;
        let now = obs.clock.now();
        let queue = self.series.name().to_owned();
        obs.journal.record(now, EventKind::BackpressureStall { queue });
        Some(now)
    }

    /// Charge the park time elapsed since `started` to the stall-time
    /// counter; returns the new starting point for a caller still parked.
    fn charge_stall(&self, started: Option<u64>) -> Option<u64> {
        let (Some(obs), Some(start)) = (&self.obs, started) else { return started };
        let now = obs.clock.now();
        self.series.stall_ms.add(now.saturating_sub(start));
        Some(now)
    }

    #[inline]
    fn is_stalled(&self) -> bool {
        self.stalled.load(Ordering::Acquire)
    }
}

/// Internal queue state held by the broker and by exchange bindings.
///
/// Crucially, `QueueCore` is the *only* holder of the channel's `Sender`:
/// when the broker deletes the queue (dropping the core from its map and
/// all bindings), consumers drain what is buffered and then observe
/// `Disconnected` — the AMQP queue-deletion semantics the scale-in path
/// relies on.
#[derive(Debug)]
pub(crate) struct QueueCore {
    meta: Arc<QueueMeta>,
    tx: Sender<Message>,
    rx: Receiver<Message>,
}

impl QueueCore {
    /// A queue of `capacity` accounting into `series`; `obs` adds stall
    /// journal events, stall timing and queue-hop spans.
    pub(crate) fn new(
        series: QueueSeries,
        capacity: usize,
        obs: Option<QueueObs>,
    ) -> Arc<QueueCore> {
        let (tx, rx) = channel::bounded(capacity);
        let meta = QueueMeta {
            series,
            capacity,
            obs,
            stalled: AtomicBool::new(false),
            stall_wait: (Mutex::new(()), Condvar::new()),
        };
        Arc::new(QueueCore { meta: Arc::new(meta), tx, rx })
    }

    pub(crate) fn name(&self) -> &str {
        self.meta.series.name()
    }

    /// Enqueue, blocking while full (live-runtime backpressure). A stall
    /// bumps the queue's backpressure counter and journals a
    /// `BackpressureStall` before the publisher parks on the channel.
    pub(crate) fn push_blocking(&self, msg: Message) -> Result<(), Message> {
        if self.meta.is_stalled() {
            // An injected stall is backpressure: journal it once, then
            // park until the fault window closes (never drop the frame).
            let mut since = self.meta.note_stall();
            let (lock, cv) = &self.meta.stall_wait;
            let mut guard = lock.lock();
            // Re-check under the lock: `set_stalled` flips the flag while
            // holding it, so a heal can never slip between this check and
            // the wait. The timeout is a backstop, and the tick at which
            // park time is charged: the stall-ms series has to grow
            // *while* the stall lasts, or a scrape in the middle of a long
            // stall reads as an idle queue.
            while self.meta.is_stalled() {
                cv.wait_for(&mut guard, STALL_TICK);
                since = self.meta.charge_stall(since);
            }
        }
        // Accounted before it is visible (see `QueueSeries::enqueued`).
        self.meta.series.enqueued();
        self.meta.note_hop(msg.trace_seqs(), HopKind::Enqueue);
        let sent = match self.tx.try_send(msg) {
            Ok(()) => Ok(()),
            Err(TrySendError::Disconnected(m)) => Err(m),
            Err(TrySendError::Full(m)) => {
                let started = self.meta.note_stall();
                let r = self.tx.send(m).map_err(|e| e.0);
                self.meta.charge_stall(started);
                r
            }
        };
        if sent.is_err() {
            self.meta.series.refused();
        }
        sent
    }

    /// Messages currently buffered.
    pub(crate) fn depth(&self) -> usize {
        self.rx.len()
    }

    /// Flip the fault-injection stall (see [`QueueMeta::stalled`]). The
    /// transition happens under the stall-wait lock and a heal notifies
    /// every parked publisher, so none sleeps past the fault window.
    pub(crate) fn set_stalled(&self, on: bool) {
        let (lock, cv) = &self.meta.stall_wait;
        let _guard = lock.lock();
        self.meta.stalled.store(on, Ordering::Release);
        if !on {
            cv.notify_all();
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.meta.capacity
    }

    pub(crate) fn published(&self) -> u64 {
        self.meta.series.published.get()
    }

    pub(crate) fn delivered(&self) -> u64 {
        self.meta.series.delivered.get()
    }

    pub(crate) fn consumer(&self) -> Consumer {
        Consumer { meta: Arc::clone(&self.meta), rx: self.rx.clone() }
    }
}

/// A handle for consuming messages from one queue.
///
/// Consumers of the same queue compete: each message is delivered to
/// exactly one of them (the AMQ queuing model / Spring Cloud Stream
/// consumer group). Clone the consumer (or call
/// [`crate::Broker::subscribe`] again) to add a competitor.
#[derive(Debug, Clone)]
pub struct Consumer {
    meta: Arc<QueueMeta>,
    rx: Receiver<Message>,
}

impl Consumer {
    /// The queue this consumer reads from.
    pub fn queue_name(&self) -> &str {
        self.meta.series.name()
    }

    /// Receive the next message, blocking up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, RecvError> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => {
                self.meta.note_dequeued(&m);
                Ok(m)
            }
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Disconnected),
        }
    }

    /// Receive, blocking until a message arrives or the queue is deleted.
    pub fn recv(&self) -> Result<Message, RecvError> {
        let m = self.rx.recv().map_err(|_| RecvError::Disconnected)?;
        self.meta.note_dequeued(&m);
        Ok(m)
    }

    /// Receive without blocking.
    pub fn try_recv(&self) -> Option<Message> {
        let m = self.rx.try_recv().ok()?;
        self.meta.note_dequeued(&m);
        Some(m)
    }

    /// Drain everything currently buffered (used by drain-then-stop
    /// shutdown in the live runtime and by tests).
    pub fn drain(&self) -> Vec<Message> {
        std::iter::from_fn(|| self.try_recv()).collect()
    }

    /// Number of messages currently waiting in the queue.
    pub fn depth(&self) -> usize {
        self.rx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(cap: usize) -> Arc<QueueCore> {
        QueueCore::new(QueueSeries::detached("q"), cap, None)
    }

    #[test]
    fn fifo_per_producer() {
        let core = q(16);
        for i in 0..5u8 {
            core.push_blocking(Message::new("k", vec![i])).unwrap();
        }
        let c = core.consumer();
        for i in 0..5u8 {
            assert_eq!(c.try_recv().unwrap().payload[0], i);
        }
        assert!(c.try_recv().is_none());
    }

    #[test]
    fn competing_consumers_split_messages_exactly_once() {
        let core = q(64);
        for i in 0..50u8 {
            core.push_blocking(Message::new("k", vec![i])).unwrap();
        }
        let (a, b) = (core.consumer(), core.consumer());
        let mut seen = Vec::new();
        loop {
            match (a.try_recv(), b.try_recv()) {
                (None, None) => break,
                (x, y) => {
                    seen.extend(x.into_iter().chain(y));
                }
            }
        }
        let mut ids: Vec<u8> = seen.iter().map(|m| m.payload[0]).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..50u8).collect::<Vec<_>>(), "each delivered exactly once");
    }

    #[test]
    fn counters_track_published_and_delivered() {
        let core = q(8);
        core.push_blocking(Message::new("k", vec![1])).unwrap();
        core.push_blocking(Message::new("k", vec![2])).unwrap();
        let c = core.consumer();
        c.try_recv().unwrap();
        assert_eq!(core.published(), 2);
        assert_eq!(core.delivered(), 1);
        assert_eq!(c.depth(), 1);
    }

    #[test]
    fn recv_timeout_and_disconnect() {
        let core = q(2);
        let c = core.consumer();
        assert_eq!(c.recv_timeout(Duration::from_millis(5)), Err(RecvError::Timeout));
        core.push_blocking(Message::new("k", vec![7])).unwrap();
        drop(core); // deletes the producer side
                    // Buffered message still delivered…
        assert!(c.recv_timeout(Duration::from_millis(5)).is_ok());
        // …then disconnect is observed.
        assert_eq!(c.recv_timeout(Duration::from_millis(5)), Err(RecvError::Disconnected));
    }

    #[test]
    fn injected_stall_parks_blocking_publishers_until_it_heals() {
        let core = q(8);
        core.set_stalled(true);
        let publisher = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || core.push_blocking(Message::new("k", vec![9])))
        };
        // The publisher must be parked, not failed and not delivered.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(core.depth(), 0, "stalled queue holds the publisher");
        core.set_stalled(false);
        publisher.join().unwrap().unwrap();
        assert_eq!(core.depth(), 1, "frame arrives once the stall heals");
    }

    #[test]
    fn drain_empties_queue() {
        let core = q(8);
        for i in 0..3u8 {
            core.push_blocking(Message::new("k", vec![i])).unwrap();
        }
        let c = core.consumer();
        assert_eq!(c.drain().len(), 3);
        assert_eq!(c.depth(), 0);
    }
}
