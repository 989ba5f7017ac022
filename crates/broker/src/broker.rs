//! The broker facade: declaration, binding, publishing, subscription and
//! management statistics.

use crate::exchange::{Binding, Exchange, ExchangeKind};
use crate::message::Message;
use crate::queue::{Consumer, QueueCore, QueueObs};
use bistream_types::audit::Auditor;
use bistream_types::error::{Error, Result};
use bistream_types::registry::{Observability, QueueSeries};
use bistream_types::time::Clock;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Default)]
struct Inner {
    exchanges: BTreeMap<String, Exchange>,
    queues: BTreeMap<String, Arc<QueueCore>>,
    /// Observability + timebase, when attached; queues declared afterwards
    /// get registry-backed counters and depth gauges under `queue="name"`.
    obs: Option<(Observability, Arc<dyn Clock>)>,
    /// Invariant auditor, when attached; queues declared afterwards (with
    /// observability also attached) report enqueue/dequeue conservation.
    auditor: Option<Auditor>,
}

/// The in-process message broker.
///
/// Thread-safe and cheaply cloneable (`Arc` inside): the live runtime hands
/// one clone to every router and joiner thread. All declaration methods are
/// idempotent when options match, mirroring AMQP `declare` semantics.
///
/// ```
/// use bistream_broker::{Broker, ExchangeKind, Message};
///
/// let broker = Broker::new();
/// broker.declare_exchange("events", ExchangeKind::Direct)?;
/// broker.declare_queue("audit", 128)?;
/// broker.bind("events", "audit", "user.login")?;
/// broker.publish("events", Message::new("user.login", b"payload".to_vec()))?;
/// let consumer = broker.subscribe("audit")?;
/// assert_eq!(&*consumer.try_recv().unwrap().routing_key, "user.login");
/// # Ok::<(), bistream_types::error::Error>(())
/// ```
#[derive(Clone, Default)]
pub struct Broker {
    inner: Arc<RwLock<Inner>>,
}

impl Broker {
    /// A fresh broker with no exchanges or queues.
    pub fn new() -> Broker {
        Broker::default()
    }

    /// Declare an exchange. Redeclaring with the same kind is a no-op;
    /// with a different kind it is an error.
    pub fn declare_exchange(&self, name: &str, kind: ExchangeKind) -> Result<()> {
        let mut inner = self.inner.write();
        match inner.exchanges.get(name) {
            Some(e) if e.kind == kind => Ok(()),
            Some(e) => Err(Error::Broker(format!(
                "exchange `{name}` already declared as {:?}, redeclared as {kind:?}",
                e.kind
            ))),
            None => {
                inner.exchanges.insert(name.to_owned(), Exchange::new(kind));
                Ok(())
            }
        }
    }

    /// Attach an observability bundle: every queue declared *after* this
    /// call exposes `bistream_queue_*` series labeled `queue="name"` in the
    /// bundle's registry and journals `BackpressureStall` events stamped by
    /// `clock`. Queues declared earlier keep their private counters.
    pub fn attach_observability(&self, obs: Observability, clock: Arc<dyn Clock>) {
        self.inner.write().obs = Some((obs, clock));
    }

    /// Attach a protocol-invariant auditor: every queue declared *after*
    /// this call (with observability also attached) reports its
    /// publishes/deliveries for message-conservation checking.
    pub fn attach_auditor(&self, auditor: Auditor) {
        self.inner.write().auditor = Some(auditor);
    }

    /// Declare a queue with the given capacity. Redeclaring is a no-op
    /// (capacity of the first declaration wins, as in AMQP).
    pub fn declare_queue(&self, name: &str, capacity: usize) -> Result<()> {
        if capacity == 0 {
            return Err(Error::Broker(format!("queue `{name}` needs capacity > 0")));
        }
        let mut inner = self.inner.write();
        if inner.queues.contains_key(name) {
            return Ok(());
        }
        let queue = match &inner.obs {
            Some((obs, clock)) => QueueCore::new(
                QueueSeries::register(&obs.registry, inner.auditor.clone(), name),
                capacity,
                Some(QueueObs {
                    journal: obs.journal.clone(),
                    clock: Arc::clone(clock),
                    tracer: obs.tracer.clone(),
                }),
            ),
            None => QueueCore::new(QueueSeries::detached(name), capacity, None),
        };
        inner.queues.insert(name.to_owned(), queue);
        Ok(())
    }

    /// Bind `queue` to `exchange` under `pattern` (the exact routing key
    /// for direct exchanges, ignored for fanout).
    pub fn bind(&self, exchange: &str, queue: &str, pattern: &str) -> Result<()> {
        let mut inner = self.inner.write();
        let q = inner
            .queues
            .get(queue)
            .cloned()
            .ok_or_else(|| Error::Broker(format!("no such queue `{queue}`")))?;
        let e = inner
            .exchanges
            .get_mut(exchange)
            .ok_or_else(|| Error::Broker(format!("no such exchange `{exchange}`")))?;
        e.bindings.push(Binding { pattern: pattern.to_owned(), queue: q });
        Ok(())
    }

    /// Fault injection: stall or un-stall a queue. A stalled queue reads
    /// as permanently at-capacity — publishers park until the stall heals
    /// — so a wedged broker queue is modelled as backpressure, never as
    /// loss. Buffered messages and consumers are unaffected.
    pub fn set_queue_stalled(&self, name: &str, on: bool) -> Result<()> {
        let inner = self.inner.read();
        let q = inner
            .queues
            .get(name)
            .ok_or_else(|| Error::Broker(format!("no such queue `{name}`")))?;
        q.set_stalled(on);
        Ok(())
    }

    /// Publish to an exchange, blocking on any full destination queue
    /// (backpressure). Returns the number of queues the message reached.
    pub fn publish(&self, exchange: &str, msg: Message) -> Result<usize> {
        let targets = {
            let inner = self.inner.read();
            let e = inner
                .exchanges
                .get(exchange)
                .ok_or_else(|| Error::Broker(format!("no such exchange `{exchange}`")))?;
            e.route(&msg.routing_key)
        };
        // Deliver outside the lock so a full queue cannot wedge the broker.
        for q in &targets {
            q.push_blocking(msg.clone()).map_err(|_| Error::Closed)?;
        }
        Ok(targets.len())
    }

    /// Subscribe a competing consumer to an existing queue.
    pub fn subscribe(&self, queue: &str) -> Result<Consumer> {
        let inner = self.inner.read();
        inner
            .queues
            .get(queue)
            .map(|q| q.consumer())
            .ok_or_else(|| Error::Broker(format!("no such queue `{queue}`")))
    }

    /// Unbind (from every exchange) and delete a queue. Consumers holding
    /// the queue drain buffered messages, then observe `Disconnected`.
    pub fn delete_queue(&self, name: &str) -> Result<()> {
        let mut inner = self.inner.write();
        if inner.queues.remove(name).is_none() {
            return Err(Error::Broker(format!("no such queue `{name}`")));
        }
        for e in inner.exchanges.values_mut() {
            e.unbind_queue(name);
        }
        // Retire the queue's metric series so scrapes don't report ghosts.
        if let Some((obs, _)) = &inner.obs {
            obs.registry.unregister_labeled("queue", name);
        }
        Ok(())
    }

    /// Management snapshot of every queue — the equivalent of the RabbitMQ
    /// management GUI's queue table.
    pub fn stats(&self) -> BrokerStats {
        let inner = self.inner.read();
        BrokerStats {
            exchanges: inner.exchanges.keys().cloned().collect(),
            queues: inner
                .queues
                .values()
                .map(|q| QueueStats {
                    name: q.name().to_owned(),
                    depth: q.depth(),
                    capacity: q.capacity(),
                    published: q.published(),
                    delivered: q.delivered(),
                })
                .collect(),
        }
    }
}

/// Management view of the whole broker.
#[derive(Debug, Clone)]
pub struct BrokerStats {
    /// Declared exchange names.
    pub exchanges: Vec<String>,
    /// Per-queue statistics.
    pub queues: Vec<QueueStats>,
}

/// Management view of one queue.
#[derive(Debug, Clone)]
pub struct QueueStats {
    /// Queue name.
    pub name: String,
    /// Messages currently buffered.
    pub depth: usize,
    /// Configured bound.
    pub capacity: usize,
    /// Total messages ever enqueued.
    pub published: u64,
    /// Total messages ever consumed.
    pub delivered: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn broker_with_fanout() -> Broker {
        let b = Broker::new();
        b.declare_exchange("tuple.exchange", ExchangeKind::Fanout).unwrap();
        b
    }

    #[test]
    fn declare_is_idempotent_but_kind_conflicts_error() {
        let b = broker_with_fanout();
        assert!(b.declare_exchange("tuple.exchange", ExchangeKind::Fanout).is_ok());
        assert!(b.declare_exchange("tuple.exchange", ExchangeKind::Direct).is_err());
        b.declare_queue("q", 4).unwrap();
        assert!(b.declare_queue("q", 999).is_ok(), "redeclare is no-op");
        assert!(b.declare_queue("zero", 0).is_err());
    }

    #[test]
    fn direct_exchange_routes_by_exact_key() {
        let b = Broker::new();
        b.declare_exchange("tuple.exchange", ExchangeKind::Direct).unwrap();
        b.declare_queue("rstore", 8).unwrap();
        b.bind("tuple.exchange", "rstore", "R.store.1").unwrap();
        let reached = b.publish("tuple.exchange", Message::new("R.store.1", vec![1u8])).unwrap();
        assert_eq!(reached, 1);
        let missed = b.publish("tuple.exchange", Message::new("S.store.1", vec![1u8])).unwrap();
        assert_eq!(missed, 0);
        let c = b.subscribe("rstore").unwrap();
        assert_eq!(c.drain().len(), 1);
    }

    #[test]
    fn unknown_names_error() {
        let b = Broker::new();
        assert!(b.publish("nope", Message::new("k", vec![])).is_err());
        assert!(b.subscribe("nope").is_err());
        assert!(b.bind("nope", "nope", "#").is_err());
        assert!(b.delete_queue("nope").is_err());
    }

    #[test]
    fn delete_queue_unbinds_and_disconnects() {
        let b = broker_with_fanout();
        b.declare_queue("q", 8).unwrap();
        b.bind("tuple.exchange", "q", "#").unwrap();
        let c = b.subscribe("q").unwrap();
        b.publish("tuple.exchange", Message::new("k", vec![1])).unwrap();
        b.delete_queue("q").unwrap();
        assert!(b.subscribe("q").is_err());
        // Buffered message still drains, then disconnect.
        assert!(c.try_recv().is_some());
        assert_eq!(
            c.recv_timeout(std::time::Duration::from_millis(5)),
            Err(crate::queue::RecvError::Disconnected)
        );
        // Publishing after deletion reaches zero queues, no error.
        assert_eq!(b.publish("tuple.exchange", Message::new("k", vec![2])).unwrap(), 0);
    }

    #[test]
    fn stats_reflect_traffic() {
        let b = broker_with_fanout();
        b.declare_queue("q", 8).unwrap();
        b.bind("tuple.exchange", "q", "#").unwrap();
        b.publish("tuple.exchange", Message::new("k", vec![1])).unwrap();
        b.publish("tuple.exchange", Message::new("k", vec![2])).unwrap();
        b.subscribe("q").unwrap().try_recv().unwrap();
        let stats = b.stats();
        assert_eq!(stats.exchanges, vec!["tuple.exchange".to_string()]);
        let q = &stats.queues[0];
        assert_eq!((q.depth, q.published, q.delivered), (1, 2, 1));
        assert_eq!(q.capacity, 8);
    }

    #[test]
    fn blocking_recv_wakes_on_publish_and_deletion() {
        let b = broker_with_fanout();
        b.declare_queue("q", 8).unwrap();
        b.bind("tuple.exchange", "q", "#").unwrap();
        let c = b.subscribe("q").unwrap();
        let waiter = {
            let c = c.clone();
            std::thread::spawn(move || c.recv())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        b.publish("tuple.exchange", Message::new("k", vec![9])).unwrap();
        assert_eq!(waiter.join().unwrap().unwrap().payload[0], 9);
        // Deletion unblocks a pending recv with Disconnected.
        let waiter = std::thread::spawn(move || c.recv());
        std::thread::sleep(std::time::Duration::from_millis(20));
        b.delete_queue("q").unwrap();
        assert_eq!(waiter.join().unwrap(), Err(crate::queue::RecvError::Disconnected));
    }

    #[test]
    fn direct_exchange_exact_key_routing() {
        let b = Broker::new();
        b.declare_exchange("dx", ExchangeKind::Direct).unwrap();
        b.declare_queue("p0", 8).unwrap();
        b.declare_queue("p1", 8).unwrap();
        b.bind("dx", "p0", "0").unwrap();
        b.bind("dx", "p1", "1").unwrap();
        b.publish("dx", Message::new("1", vec![9u8])).unwrap();
        assert_eq!(b.subscribe("p0").unwrap().depth(), 0);
        assert_eq!(b.subscribe("p1").unwrap().depth(), 1);
    }

    #[test]
    fn observed_queues_publish_registry_series_and_stall_events() {
        use bistream_types::journal::EventKind;
        use bistream_types::time::VirtualClock;

        let b = broker_with_fanout();
        let obs = Observability::new();
        let clock = VirtualClock::starting_at(33);
        b.attach_observability(obs.clone(), Arc::new(clock));
        b.declare_queue("tiny", 1).unwrap();
        b.bind("tuple.exchange", "tiny", "#").unwrap();
        let labels: &[(&str, &str)] = &[("queue", "tiny")];

        b.publish("tuple.exchange", Message::new("k", vec![1])).unwrap();
        let snap = obs.registry.scrape(0);
        assert_eq!(
            snap.counter(bistream_types::metric_names::QUEUE_PUBLISHED_TOTAL, labels),
            Some(1)
        );
        assert_eq!(snap.gauge(bistream_types::metric_names::QUEUE_DEPTH, labels), Some(1));
        assert_eq!(snap.gauge(bistream_types::metric_names::QUEUE_DEPTH_MAX, labels), Some(1));

        // Second blocking publish stalls until a consumer drains.
        let b2 = b.clone();
        let blocked = std::thread::spawn(move || {
            b2.publish("tuple.exchange", Message::new("k", vec![2])).unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let c = b.subscribe("tiny").unwrap();
        c.recv_timeout(std::time::Duration::from_millis(200)).unwrap();
        blocked.join().unwrap();
        c.recv_timeout(std::time::Duration::from_millis(200)).unwrap();

        let snap = obs.registry.scrape(0);
        assert_eq!(
            snap.counter(bistream_types::metric_names::QUEUE_PUBLISHED_TOTAL, labels),
            Some(2)
        );
        assert_eq!(
            snap.counter(bistream_types::metric_names::QUEUE_DELIVERED_TOTAL, labels),
            Some(2)
        );
        assert_eq!(snap.gauge(bistream_types::metric_names::QUEUE_DEPTH, labels), Some(0));
        assert_eq!(
            snap.gauge(bistream_types::metric_names::QUEUE_DEPTH_MAX, labels),
            Some(2),
            "watermark survives the drain; a publisher parked on the full queue counts"
        );
        assert_eq!(
            snap.counter(bistream_types::metric_names::QUEUE_BACKPRESSURE_BLOCKS_TOTAL, labels),
            Some(1)
        );
        // The stall-time series exists; on a frozen virtual clock the
        // parked publish accumulates zero ms.
        assert_eq!(
            snap.counter(bistream_types::metric_names::QUEUE_STALL_MS_TOTAL, labels),
            Some(0)
        );
        let events = obs.journal.drain();
        assert!(events.iter().any(|e| e.ts == 33
            && matches!(&e.kind, EventKind::BackpressureStall { queue } if queue == "tiny")));

        // Deleting the queue retires its series.
        b.delete_queue("tiny").unwrap();
        assert!(obs
            .registry
            .scrape(0)
            .get(bistream_types::metric_names::QUEUE_DEPTH, labels)
            .is_none());
    }

    #[test]
    fn broker_clones_share_state() {
        let b = broker_with_fanout();
        let b2 = b.clone();
        b2.declare_queue("q", 4).unwrap();
        assert!(b.subscribe("q").is_ok());
    }

    #[test]
    fn concurrent_publish_and_consume() {
        let b = broker_with_fanout();
        b.declare_queue("q", 128).unwrap();
        b.bind("tuple.exchange", "q", "#").unwrap();
        let n_producers = 4;
        let per = 500;
        let mut handles = Vec::new();
        for p in 0..n_producers {
            let b = b.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    b.publish("tuple.exchange", Message::new("k", vec![p as u8, (i % 256) as u8]))
                        .unwrap();
                }
            }));
        }
        let consumer = b.subscribe("q").unwrap();
        let mut got = 0;
        while got < n_producers * per {
            if consumer.recv_timeout(std::time::Duration::from_millis(200)).is_ok() {
                got += 1;
            } else {
                panic!("timed out after {got} messages");
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got, n_producers * per);
    }
}
