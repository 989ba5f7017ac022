//! The broker transport: edges are AMQP-model queues of the in-process
//! [`Broker`], items cross them byte-encoded.
//!
//! Topology: a fanout **ingest** exchange feeding one queue all routers
//! compete on, and a direct **units** exchange fanning frames out to one
//! queue per joiner unit (per-sender FIFO inside a queue gives each
//! `(router, unit)` pair its pairwise-FIFO channel). The queues themselves
//! keep the `bistream_queue_*` series, the auditor's conservation events,
//! backpressure journal events and — from the `trace_seqs` headers the
//! outbox attaches — the enqueue/dequeue spans, so this file is only the
//! codec and the wiring. Deleting a queue is what closes an edge:
//! consumers drain what is buffered, then see `Disconnected`.

use super::driver::{Handle, Inbox, Outbox, Parts, Polled, Wiring};
use super::{unit_queue, INGEST_QUEUE};
use crate::layout::JoinerId;
use bistream_broker::{Broker, BrokerStats, Consumer, ExchangeKind, Message, RecvError};
use bistream_types::batch::BatchMessage;
use bistream_types::error::{Error, Result};
use bistream_types::hash::FxHashMap;
use bistream_types::time::Clock;
use bistream_types::trace::Tracer;
use bistream_types::tuple::Tuple;
use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;

/// Exchange receiving raw input tuples.
const INGEST_EXCHANGE: &str = "tuple.exchange";
/// Direct exchange fanning frames to unit queues.
const UNITS_EXCHANGE: &str = "units.exchange";

/// Declare the topology and hand out its ends.
pub(crate) fn wire(
    parts: &Parts,
) -> Result<Wiring<BrokerHandle, BrokerInbox<Tuple>, BrokerOutbox, BrokerInbox<BatchMessage>>> {
    let (config, obs) = (&parts.config, &parts.obs);
    let broker = Broker::new();
    // Attach observability before any queue exists so every queue gets
    // depth/publish/deliver series and backpressure journal events.
    broker.attach_observability(obs.clone(), Arc::clone(&parts.ctx.clock) as Arc<dyn Clock>);
    if let Some(a) = &parts.auditor {
        broker.attach_auditor(a.clone());
    }
    broker.declare_exchange(INGEST_EXCHANGE, ExchangeKind::Fanout)?;
    broker.declare_exchange(UNITS_EXCHANGE, ExchangeKind::Direct)?;
    broker.declare_queue(INGEST_QUEUE, config.ingest_capacity)?;
    broker.bind(INGEST_EXCHANGE, INGEST_QUEUE, "")?;

    // Interned routing keys: one `Arc<str>` per unit, shared by every
    // router so the publish path never re-allocates the key.
    let mut unit_keys: FxHashMap<JoinerId, Arc<str>> = FxHashMap::default();
    let mut unit_queues = Vec::new();
    let mut units = Vec::new();
    for (_, id) in parts.layout.all_units() {
        let (qname, key) = (unit_queue(id), id.0.to_string());
        broker.declare_queue(&qname, config.unit_frames())?;
        broker.bind(UNITS_EXCHANGE, &qname, &key)?;
        units.push(BrokerInbox {
            consumer: broker.subscribe(&qname)?,
            decode: BatchMessage::decode,
        });
        unit_keys.insert(id, Arc::from(key));
        unit_queues.push(qname);
    }
    let unit_keys = Arc::new(unit_keys);
    let mut routers = Vec::new();
    for _ in 0..config.routers.max(1) {
        routers.push((
            BrokerInbox { consumer: broker.subscribe(INGEST_QUEUE)?, decode: Tuple::decode },
            BrokerOutbox {
                broker: broker.clone(),
                unit_keys: Arc::clone(&unit_keys),
                tracer: obs.tracer.clone(),
            },
        ));
    }
    let ingest_key = Arc::from("tuple.in");
    Ok(Wiring { handle: BrokerHandle { broker, ingest_key, unit_queues }, routers, units })
}

/// Launch-side handle: the broker plus the names teardown deletes.
pub(crate) struct BrokerHandle {
    broker: Broker,
    /// Interned ingest routing key (the ingest queue is bound to `#`).
    ingest_key: Arc<str>,
    unit_queues: Vec<String>,
}

impl Handle for BrokerHandle {
    fn ingest(&self, tuple: &Tuple) -> Result<()> {
        let msg = Message::new(Arc::clone(&self.ingest_key), tuple.encode());
        self.broker.publish(INGEST_EXCHANGE, msg).map(drop)
    }

    fn close_ingest(&self) -> Result<()> {
        self.broker.delete_queue(INGEST_QUEUE)
    }

    fn close_units(&self) -> Result<()> {
        self.unit_queues.iter().try_for_each(|q| self.broker.delete_queue(q))
    }

    fn set_stalled(&self, queue: &str, on: bool) -> Result<()> {
        self.broker.set_queue_stalled(queue, on)
    }

    fn broker_stats(&self) -> BrokerStats {
        self.broker.stats()
    }
}

/// One consumer of a queue, decoding payloads back into `T`.
pub(crate) struct BrokerInbox<T> {
    consumer: Consumer,
    decode: fn(&mut Bytes) -> Result<T>,
}

impl<T: 'static> Inbox<T> for BrokerInbox<T> {
    fn poll(&mut self, wait: Duration) -> Result<Polled<T>> {
        match self.consumer.recv_timeout(wait) {
            Ok(mut m) => Ok(Polled::Item((self.decode)(&mut m.payload)?)),
            Err(RecvError::Timeout) => Ok(Polled::Idle),
            Err(RecvError::Disconnected) => Ok(Polled::Closed),
        }
    }
}

/// One router's publisher onto the units exchange.
pub(crate) struct BrokerOutbox {
    broker: Broker,
    unit_keys: Arc<FxHashMap<JoinerId, Arc<str>>>,
    tracer: Tracer,
}

impl Outbox for BrokerOutbox {
    fn send(&mut self, dest: JoinerId, msg: BatchMessage) -> Result<()> {
        let key = self
            .unit_keys
            .get(&dest)
            .ok_or_else(|| Error::Broker(format!("no queue for unit {dest}")))?;
        let mut m = Message::new(Arc::clone(key), msg.encode()?);
        // Out-of-band headers: queues record enqueue/dequeue spans for
        // every sampled tuple in the frame without decoding it.
        if let BatchMessage::Batch(b) = &msg {
            m = m.with_trace_seqs(
                b.entries().iter().map(|e| e.seq).filter(|&s| self.tracer.sampled(s)),
            );
        }
        self.broker.publish(UNITS_EXCHANGE, m).map(drop)
    }
}
