//! Exchanges: the routing stage of the AMQ model.

use crate::queue::QueueCore;
use std::sync::Arc;

/// The routing discipline of an exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeKind {
    /// Route to bindings whose key equals the message's routing key.
    Direct,
    /// Route to every bound queue regardless of key.
    Fanout,
}

/// One exchange→queue binding.
#[derive(Debug)]
pub(crate) struct Binding {
    /// Exact key (direct); ignored by fanout.
    pub(crate) pattern: String,
    /// Destination queue.
    pub(crate) queue: Arc<QueueCore>,
}

/// An exchange with its bindings.
#[derive(Debug)]
pub(crate) struct Exchange {
    pub(crate) kind: ExchangeKind,
    pub(crate) bindings: Vec<Binding>,
}

impl Exchange {
    pub(crate) fn new(kind: ExchangeKind) -> Exchange {
        Exchange { kind, bindings: Vec::new() }
    }

    /// Queues that should receive a message with `routing_key`.
    ///
    /// A queue bound more than once still receives one copy (AMQP
    /// semantics).
    pub(crate) fn route(&self, routing_key: &str) -> Vec<Arc<QueueCore>> {
        let mut out: Vec<Arc<QueueCore>> = Vec::new();
        for b in &self.bindings {
            let hit = match self.kind {
                ExchangeKind::Fanout => true,
                ExchangeKind::Direct => b.pattern == routing_key,
            };
            if hit && !out.iter().any(|q| Arc::ptr_eq(q, &b.queue)) {
                out.push(Arc::clone(&b.queue));
            }
        }
        out
    }

    /// Remove every binding to the named queue; returns how many were
    /// removed.
    pub(crate) fn unbind_queue(&mut self, queue_name: &str) -> usize {
        let before = self.bindings.len();
        self.bindings.retain(|b| b.queue.name() != queue_name);
        before - self.bindings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(name: &str) -> Arc<QueueCore> {
        QueueCore::new(bistream_types::registry::QueueSeries::detached(name), 8, None)
    }

    fn bound(kind: ExchangeKind, binds: &[(&str, &Arc<QueueCore>)]) -> Exchange {
        let mut e = Exchange::new(kind);
        for (p, queue) in binds {
            e.bindings.push(Binding { pattern: (*p).into(), queue: Arc::clone(queue) });
        }
        e
    }

    #[test]
    fn direct_routes_on_exact_match() {
        let (a, b) = (q("a"), q("b"));
        let e = bound(ExchangeKind::Direct, &[("k1", &a), ("k2", &b)]);
        let hit = e.route("k1");
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].name(), "a");
        assert!(e.route("k3").is_empty());
    }

    #[test]
    fn fanout_routes_everywhere() {
        let (a, b) = (q("a"), q("b"));
        let e = bound(ExchangeKind::Fanout, &[("", &a), ("", &b)]);
        assert_eq!(e.route("whatever").len(), 2);
    }

    #[test]
    fn duplicate_bindings_deliver_once() {
        let a = q("a");
        let e = bound(ExchangeKind::Fanout, &[("x", &a), ("y", &a)]);
        assert_eq!(e.route("x.y").len(), 1);
        let e = bound(ExchangeKind::Direct, &[("x.y", &a), ("x.y", &a)]);
        assert_eq!(e.route("x.y").len(), 1);
    }

    #[test]
    fn unbind_removes_all_bindings_of_queue() {
        let (a, b) = (q("a"), q("b"));
        let mut e = bound(ExchangeKind::Direct, &[("p1", &a), ("p2", &a), ("p1", &b)]);
        assert_eq!(e.unbind_queue("a"), 2);
        assert_eq!(e.bindings.len(), 1);
        assert_eq!(e.bindings[0].queue.name(), "b");
    }
}
