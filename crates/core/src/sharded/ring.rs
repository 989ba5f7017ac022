//! The ring transport: edges are the lock-free rings of [`super::spsc`],
//! items cross them as in-memory values.
//!
//! ```text
//!            mpmc ingest ring            spsc ring per (router, unit)
//! feeder ──────────────────────► router workers ─────────────────────► joiner workers
//!        (competing consumers)
//! ```
//!
//! A frame hand-off is a pointer move — no encode/decode, and a batch's
//! tuples are refcounted, so payloads are never copied. Each `(router,
//! unit)` pair owns exactly one SPSC ring, so pairwise FIFO (Definition 8)
//! is structural: a channel *is* a ring, and a ring cannot reorder. A ring
//! closes when its producer drops — a router returning is what ends its
//! channels.
//!
//! What the broker's queues do for the broker transport this file does
//! itself: every queue name (`tuple.exchange.routers`, `unit.N`) registers
//! the same `bistream_queue_*` series ([`QueueSeries`]; unlike the
//! broker's, they outlive the run), reports the same conservation events to
//! the auditor, and sampled tuples get the same enqueue/dequeue spans — so
//! the watchdog, the SLO engine and the queueing-model analyzer grade
//! either transport unchanged. Stall injection holds a unit's consumer
//! (frames pile up in its rings and the stall-ms series is charged);
//! idling is spin → yield → park in bounded slices, no waker handshake.

use crate::exec::driver::{Handle, Inbox, Outbox, Parts, Polled, Wiring};
use crate::exec::{unit_queue, INGEST_QUEUE};
use crate::layout::JoinerId;
use crate::sharded::spsc::{mpmc, spsc, MpmcConsumer, MpmcProducer, SpscConsumer, SpscProducer};
use bistream_types::batch::BatchMessage;
use bistream_types::error::{Error, Result};
use bistream_types::hash::FxHashMap;
use bistream_types::registry::QueueSeries;
use bistream_types::time::{Clock, WallClock};
use bistream_types::trace::{HopKind, Tracer};
use bistream_types::tuple::Tuple;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Consecutive frames a joiner takes from one ring before moving on, so a
/// busy router cannot starve the other rings of the same unit.
const DRAIN_BURST: usize = 64;

/// Park slice while idle or stalled (bounds wakeup latency without any
/// waker handshake).
const IDLE_PARK: Duration = Duration::from_micros(100);

/// Build the rings and hand out their ends.
pub(crate) fn wire(parts: &Parts) -> Result<Wiring<RingHandle, RingIngest, RingOutbox, RingInbox>> {
    let (config, obs) = (&parts.config, &parts.obs);
    let routers = config.routers.max(1);
    let spans = Spans { tracer: obs.tracer.clone(), clock: Arc::clone(&parts.ctx.clock) };
    // Registered under the broker's ingest-queue name so dashboards and
    // the perf analyzer see one ingest series either way.
    let (ingest_tx, ingest_rx) = mpmc::<Tuple>(config.ingest_capacity);
    let series =
        |name: &str| Arc::new(QueueSeries::register(&obs.registry, parts.auditor.clone(), name));
    let ingest_obs = series(INGEST_QUEUE);

    let mut stalls = FxHashMap::default();
    let mut outboxes: Vec<UnitRings> = (0..routers).map(|_| FxHashMap::default()).collect();
    let mut units = Vec::new();
    for (_, id) in parts.layout.all_units() {
        let stall = Arc::new(AtomicBool::new(false));
        let unit_obs = series(&unit_queue(id));
        stalls.insert(unit_obs.name().to_owned(), Arc::clone(&stall));
        let mut rings = Vec::with_capacity(routers);
        for outbox in &mut outboxes {
            let (tx, rx) = spsc::<BatchMessage>(config.unit_frames());
            outbox.insert(id, (tx, Arc::clone(&unit_obs)));
            rings.push(rx);
        }
        units.push(RingInbox {
            rings,
            obs: unit_obs,
            stall,
            spans: spans.clone(),
            cursor: 0,
            burst: 0,
            idle: 0,
        });
    }
    let routers = outboxes
        .into_iter()
        .map(|units| {
            let ingest =
                RingIngest { rx: ingest_rx.clone(), obs: Arc::clone(&ingest_obs), idle: 0 };
            (ingest, RingOutbox { units, spans: spans.clone() })
        })
        .collect();
    Ok(Wiring { handle: RingHandle { ingest: ingest_tx, ingest_obs, stalls }, routers, units })
}

/// Push `value` into a ring of queue `series`: `ring(value, false)` tries,
/// and when the ring is full `ring(value, true)` blocks for space. The item
/// is accounted before it is visible (see [`QueueSeries::enqueued`]); a
/// closed ring takes it back out and reports `Closed`.
fn push<T>(
    series: &QueueSeries,
    value: T,
    mut ring: impl FnMut(T, bool) -> std::result::Result<(), T>,
) -> Result<()> {
    series.enqueued();
    let Err(value) = ring(value, false) else { return Ok(()) };
    series.blocks.inc();
    ring(value, true).map_err(|_| {
        series.refused();
        Error::Closed
    })
}

/// Enqueue/dequeue span recording for sampled tuples of a frame: nothing
/// is scanned while tracing is off, and the clock is read only when the
/// frame holds a sampled tuple.
#[derive(Clone)]
struct Spans {
    tracer: Tracer,
    clock: Arc<WallClock>,
}

impl Spans {
    fn record(&self, msg: &BatchMessage, kind: HopKind, queue: &str) {
        let (true, BatchMessage::Batch(b)) = (self.tracer.enabled(), msg) else { return };
        let mut now = None;
        for e in b.entries() {
            if self.tracer.sampled(e.seq) {
                let now = *now.get_or_insert_with(|| self.clock.now());
                self.tracer.span(e.seq, kind, queue, now, now);
            }
        }
    }
}

/// Launch-side handle: the ingest ring's producer and the stall flags.
pub(crate) struct RingHandle {
    ingest: MpmcProducer<Tuple>,
    ingest_obs: Arc<QueueSeries>,
    /// Stall injection flags keyed by queue name (`unit.N`).
    stalls: FxHashMap<String, Arc<AtomicBool>>,
}

impl Handle for RingHandle {
    fn ingest(&self, tuple: &Tuple) -> Result<()> {
        let ring = &self.ingest;
        push(&self.ingest_obs, tuple.clone(), |t, block| {
            if block {
                ring.push_blocking(t)
            } else {
                ring.try_push(t)
            }
        })
    }

    fn close_ingest(&self) -> Result<()> {
        self.ingest.close();
        Ok(())
    }

    /// Nothing to do: a unit ring closed when its router returned.
    fn close_units(&self) -> Result<()> {
        Ok(())
    }

    fn set_stalled(&self, queue: &str, on: bool) -> Result<()> {
        let flag = self
            .stalls
            .get(queue)
            .ok_or_else(|| Error::Broker(format!("no such queue `{queue}`")))?;
        flag.store(on, Ordering::Release);
        Ok(())
    }
}

/// One router's competing consumer on the ingest ring.
pub(crate) struct RingIngest {
    rx: MpmcConsumer<Tuple>,
    obs: Arc<QueueSeries>,
    idle: u32,
}

impl Inbox<Tuple> for RingIngest {
    fn poll(&mut self, _wait: Duration) -> Result<Polled<Tuple>> {
        if let Some(tuple) = self.rx.try_pop() {
            self.idle = 0;
            self.obs.dequeued();
            return Ok(Polled::Item(tuple));
        }
        if self.rx.is_closed() && self.rx.is_empty() {
            return Ok(Polled::Closed);
        }
        idle_wait(&mut self.idle);
        Ok(Polled::Idle)
    }
}

/// The producer half of each unit's ring, with the unit's queue series.
type UnitRings = FxHashMap<JoinerId, (SpscProducer<BatchMessage>, Arc<QueueSeries>)>;

/// One router's producer halves, one SPSC ring per unit.
pub(crate) struct RingOutbox {
    units: UnitRings,
    spans: Spans,
}

impl Outbox for RingOutbox {
    fn send(&mut self, dest: JoinerId, msg: BatchMessage) -> Result<()> {
        let (ring, obs) = self
            .units
            .get_mut(&dest)
            .ok_or_else(|| Error::Broker(format!("no ring for unit {dest}")))?;
        self.spans.record(&msg, HopKind::Enqueue, obs.name());
        push(obs, msg, |m, block| if block { ring.push_blocking(m) } else { ring.try_push(m) })
    }
}

/// One joiner's consumer halves, one SPSC ring per router.
pub(crate) struct RingInbox {
    rings: Vec<SpscConsumer<BatchMessage>>,
    obs: Arc<QueueSeries>,
    // protocol: field stall acquire-load / release-store
    stall: Arc<AtomicBool>,
    spans: Spans,
    /// Ring being drained and how many frames it has given in a row.
    cursor: usize,
    burst: usize,
    idle: u32,
}

impl Inbox<BatchMessage> for RingInbox {
    fn poll(&mut self, _wait: Duration) -> Result<Polled<BatchMessage>> {
        if self.stall.load(Ordering::Acquire) {
            let held = Instant::now();
            let mut waited = 0u32;
            while self.stall.load(Ordering::Acquire) {
                idle_wait(&mut waited);
            }
            self.obs.stall_ms.add(held.elapsed().as_millis() as u64);
            return Ok(Polled::Idle);
        }
        // Stay on the cursor's ring for up to DRAIN_BURST frames, then
        // visit every ring (the cursor's own last) once before idling.
        for _ in 0..=self.rings.len() {
            if self.burst < DRAIN_BURST {
                if let Some(msg) = self.rings[self.cursor].try_pop() {
                    self.burst += 1;
                    self.idle = 0;
                    self.obs.dequeued();
                    self.spans.record(&msg, HopKind::Dequeue, self.obs.name());
                    return Ok(Polled::Item(msg));
                }
            }
            self.cursor = (self.cursor + 1) % self.rings.len();
            self.burst = 0;
        }
        if self.rings.iter().all(|r| r.is_closed() && r.is_empty()) {
            return Ok(Polled::Closed);
        }
        idle_wait(&mut self.idle);
        Ok(Polled::Idle)
    }
}

/// Adaptive idle wait: spin briefly, then yield, then park in short
/// slices — lock-free, bounded wakeup latency.
fn idle_wait(attempt: &mut u32) {
    *attempt = attempt.saturating_add(1);
    if *attempt <= 64 {
        std::hint::spin_loop();
    } else if *attempt <= 80 {
        std::thread::yield_now();
    } else {
        std::thread::park_timeout(IDLE_PARK);
    }
}
