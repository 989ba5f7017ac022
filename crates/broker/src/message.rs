//! The unit of transport through the broker.

use bytes::Bytes;
use std::fmt;
use std::sync::Arc;

/// A broker message: an opaque payload plus the routing key the publisher
/// attached. Cloning is cheap — the payload is reference-counted `Bytes`,
/// the routing key is an interned `Arc<str>` and the trace headers share
/// one `Arc<[u64]>` — which matters because a fanout exchange clones
/// the message once per matched queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Dot-separated routing key, e.g. `"R.join.2"`. `Arc<str>` so the
    /// per-queue clones a fanout produces are refcount bumps, not string
    /// allocations; publishers on a hot path can intern their keys once
    /// and reuse the same `Arc` for every publish.
    pub routing_key: Arc<str>,
    /// Opaque payload (the join engine puts encoded batch frames here).
    pub payload: Bytes,
    /// Trace-sampling headers: the router sequence numbers of sampled
    /// tuples inside the payload, sorted ascending. Carried out-of-band so
    /// queues can record enqueue/dequeue spans without decoding the
    /// payload; a batched frame may carry several sampled tuples, hence a
    /// list rather than the single slot it once was. `None` (the common
    /// case) for unsampled traffic.
    trace_seqs: Option<Arc<[u64]>>,
}

impl Message {
    /// Build a message. Accepts `&str`, `String` or a pre-interned
    /// `Arc<str>` routing key.
    pub fn new(routing_key: impl Into<Arc<str>>, payload: impl Into<Bytes>) -> Message {
        Message { routing_key: routing_key.into(), payload: payload.into(), trace_seqs: None }
    }

    /// Attach trace-sampling headers for every sampled tuple in the
    /// payload. The stored list is sorted and de-duplicated; attaching an
    /// empty set is a no-op.
    pub fn with_trace_seqs(mut self, seqs: impl IntoIterator<Item = u64>) -> Message {
        let mut all: Vec<u64> = self.trace_seqs.as_deref().unwrap_or(&[]).to_vec();
        all.extend(seqs);
        if all.is_empty() {
            return self;
        }
        all.sort_unstable();
        all.dedup();
        self.trace_seqs = Some(Arc::from(all.into_boxed_slice()));
        self
    }

    /// The sorted trace-sampling headers (empty for unsampled traffic).
    pub fn trace_seqs(&self) -> &[u64] {
        self.trace_seqs.as_deref().unwrap_or(&[])
    }

    /// Payload length in bytes (used by broker throughput accounting).
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg[{} {}B]", self.routing_key, self.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        let m = Message::new("a.b", vec![1u8, 2, 3]);
        assert_eq!(&*m.routing_key, "a.b");
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert!(Message::new("k", Vec::<u8>::new()).is_empty());
        assert!(m.trace_seqs().is_empty());
    }

    #[test]
    fn clone_shares_payload_and_key() {
        let m = Message::new("k", vec![0u8; 1024]).with_trace_seqs([7]);
        let c = m.clone();
        // Bytes clones share the same backing buffer; so do the key and
        // the trace headers.
        assert_eq!(m.payload.as_ptr(), c.payload.as_ptr());
        assert!(Arc::ptr_eq(&m.routing_key, &c.routing_key));
        assert_eq!(m.trace_seqs.as_ref().map(Arc::as_ptr), c.trace_seqs.as_ref().map(Arc::as_ptr));
    }

    #[test]
    fn interned_key_is_reusable() {
        let key: Arc<str> = Arc::from("R.store.1");
        let a = Message::new(Arc::clone(&key), vec![1u8]);
        let b = Message::new(key, vec![2u8]);
        assert!(Arc::ptr_eq(&a.routing_key, &b.routing_key), "no per-publish allocation");
    }

    #[test]
    fn trace_headers_sort_dedup_and_accumulate() {
        let m = Message::new("k", vec![]).with_trace_seqs([9, 3, 3]).with_trace_seqs([5]);
        assert_eq!(m.trace_seqs(), &[3, 5, 9]);
        let untouched = Message::new("k", vec![]).with_trace_seqs(std::iter::empty());
        assert!(untouched.trace_seqs().is_empty());
    }

    #[test]
    fn display() {
        assert_eq!(Message::new("x.y", vec![9u8]).to_string(), "msg[x.y 1B]");
    }
}
