//! Simulated message delivery between routers and joiners.
//!
//! The network guarantees the engine relies on is exactly *pairwise FIFO*
//! (Definition 8): messages from one router to one joiner arrive in send
//! order. Everything else — the interleaving across channels — is up to
//! the scheduler, and that freedom is what the ordering protocol must
//! tolerate. Two schedulers are provided:
//!
//! - [`DeliveryMode::InOrder`] delivers messages in global send order
//!   (the benign schedule; what a single-threaded run would see).
//! - [`DeliveryMode::Shuffled`] picks a random non-empty channel each
//!   step, producing adversarial cross-channel interleavings while still
//!   honouring per-channel FIFO — the schedule that exposes the
//!   duplicate/missed-result races when the ordering protocol is off
//!   (experiment E7).
//!
//! The engine owns a [`ChannelNet`] and, when fault injection is armed, a
//! [`ChaosNet`](crate::chaos::ChaosNet) beside it; it picks between the
//! two with a `match` where it sends and where it delivers. The live
//! pipeline's threads keep the same pairwise-FIFO contract through their
//! own transport seam (`crate::exec::driver`).

use crate::layout::JoinerId;
use bistream_types::punct::RouterId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Delivery scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryMode {
    /// Global send order (benign).
    InOrder,
    /// Random non-empty channel per step, seeded (adversarial but
    /// pairwise-FIFO).
    Shuffled {
        /// RNG seed for the channel choice.
        seed: u64,
    },
}

/// One message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct InFlight<M> {
    /// Destination unit.
    pub dest: JoinerId,
    /// The message.
    pub msg: M,
}

// One NetImpl exists per engine; the size spread between the two
// variants is irrelevant next to heap contents.
#[allow(clippy::large_enum_variant)]
enum NetImpl<M> {
    InOrder {
        queue: VecDeque<InFlight<M>>,
    },
    Shuffled {
        /// Per-channel FIFO queues.
        channels: Vec<((RouterId, JoinerId), VecDeque<M>)>,
        rng: StdRng,
        pending: usize,
    },
}

/// The simulated network, generic over the frame type it carries (the
/// engine moves [`bistream_types::BatchMessage`] frames).
pub struct ChannelNet<M> {
    inner: NetImpl<M>,
}

impl<M> ChannelNet<M> {
    /// A network with the given scheduling policy.
    pub fn new(mode: DeliveryMode) -> ChannelNet<M> {
        let inner = match mode {
            DeliveryMode::InOrder => NetImpl::InOrder { queue: VecDeque::new() },
            DeliveryMode::Shuffled { seed } => NetImpl::Shuffled {
                channels: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
                pending: 0,
            },
        };
        ChannelNet { inner }
    }

    /// Enqueue a message from `router` to `dest`.
    pub fn send(&mut self, router: RouterId, dest: JoinerId, msg: M) {
        match &mut self.inner {
            NetImpl::InOrder { queue } => queue.push_back(InFlight { dest, msg }),
            NetImpl::Shuffled { channels, pending, .. } => {
                let key = (router, dest);
                match channels.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, q)) => q.push_back(msg),
                    None => {
                        let mut q = VecDeque::new();
                        q.push_back(msg);
                        channels.push((key, q));
                    }
                }
                *pending += 1;
            }
        }
    }

    /// Deliver the next message per the scheduling policy.
    pub fn deliver_next(&mut self) -> Option<InFlight<M>> {
        match &mut self.inner {
            NetImpl::InOrder { queue } => queue.pop_front(),
            NetImpl::Shuffled { channels, rng, pending } => {
                if *pending == 0 {
                    return None;
                }
                loop {
                    let i = rng.gen_range(0..channels.len());
                    let ((_, dest), q) = &mut channels[i];
                    if let Some(msg) = q.pop_front() {
                        *pending -= 1;
                        return Some(InFlight { dest: *dest, msg });
                    }
                }
            }
        }
    }

    /// Messages currently in flight.
    pub fn pending(&self) -> usize {
        match &self.inner {
            NetImpl::InOrder { queue } => queue.len(),
            NetImpl::Shuffled { pending, .. } => *pending,
        }
    }

    /// Drop all channels to a retired unit (messages to it are discarded).
    pub fn forget_unit(&mut self, unit: JoinerId) {
        match &mut self.inner {
            NetImpl::InOrder { queue } => queue.retain(|m| m.dest != unit),
            NetImpl::Shuffled { channels, pending, .. } => {
                channels.retain(|((_, dest), q)| {
                    if *dest == unit {
                        *pending -= q.len();
                        false
                    } else {
                        true
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bistream_types::punct::{Punctuation, StreamMessage};

    fn punct(router: RouterId, seq: u64) -> StreamMessage {
        StreamMessage::Punct(Punctuation { router, seq })
    }

    #[test]
    fn in_order_preserves_global_send_order() {
        let mut net = ChannelNet::new(DeliveryMode::InOrder);
        for seq in 1..=5 {
            net.send(0, JoinerId(seq as u32 % 2), punct(0, seq));
        }
        let seqs: Vec<u64> =
            std::iter::from_fn(|| net.deliver_next()).map(|m| m.msg.seq()).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(net.pending(), 0);
    }

    #[test]
    fn shuffled_preserves_pairwise_fifo() {
        let mut net = ChannelNet::new(DeliveryMode::Shuffled { seed: 42 });
        // Two routers, two joiners, interleaved sends.
        for seq in 1..=50u64 {
            for r in 0..2 {
                for j in 0..2 {
                    net.send(r, JoinerId(j), punct(r, seq));
                }
            }
        }
        let mut last: std::collections::HashMap<(RouterId, JoinerId), u64> = Default::default();
        let mut count = 0;
        while let Some(m) = net.deliver_next() {
            let key = (m.msg.router(), m.dest);
            let prev = last.insert(key, m.msg.seq());
            if let Some(p) = prev {
                assert!(m.msg.seq() > p, "FIFO violated on {key:?}");
            }
            count += 1;
        }
        assert_eq!(count, 200);
    }

    #[test]
    fn shuffled_actually_interleaves_across_channels() {
        let mut net = ChannelNet::new(DeliveryMode::Shuffled { seed: 7 });
        for seq in 1..=20u64 {
            net.send(0, JoinerId(0), punct(0, seq));
            net.send(1, JoinerId(0), punct(1, seq));
        }
        let order: Vec<RouterId> =
            std::iter::from_fn(|| net.deliver_next()).map(|m| m.msg.router()).collect();
        // Not all of router 0 then all of router 1 (or vice versa).
        let first_half_same = order[..20].iter().all(|&r| r == order[0]);
        assert!(!first_half_same, "expected interleaving, got {order:?}");
    }

    #[test]
    fn forget_unit_discards_its_traffic() {
        for mode in [DeliveryMode::InOrder, DeliveryMode::Shuffled { seed: 1 }] {
            let mut net = ChannelNet::new(mode);
            net.send(0, JoinerId(0), punct(0, 1));
            net.send(0, JoinerId(1), punct(0, 2));
            net.forget_unit(JoinerId(0));
            assert_eq!(net.pending(), 1);
            let only = net.deliver_next().unwrap();
            assert_eq!(only.dest, JoinerId(1));
        }
    }
}
